"""The unified query protocol and the vectorized batch overrides.

Covers the API-level contract (QueryRequest/QueryResult, execute,
constructor keyword alignment) and the batch
guarantees the overrides must honor: empty batches and label-less
sources never touch the R-tree, and duplicated work is deduplicated
(observable through the obs counters).
"""

import pytest

from repro import obs
from repro.core import (
    GeosocialQueryEngine,
    QueryRequest,
    QueryResult,
    RangeReachBase,
    RangeReachMethod,
    RangeReachOracle,
    SocReach,
    ThreeDReach,
    ThreeDReachRev,
    build_methods,
)
from repro.geometry import Rect
from repro.pipeline import BuildContext

REGION = Rect(0.0, 0.0, 5.0, 5.0)
EMPTY_REGION = Rect(90.0, 90.0, 91.0, 91.0)

ALL_NAMES = (
    "spareach-bfl", "georeach", "socreach", "3dreach", "3dreach-rev",
)


@pytest.fixture
def built(fig1_condensed):
    context = BuildContext(fig1_condensed)
    return build_methods(ALL_NAMES, context=context)


# ----------------------------------------------------------------------
# Protocol surface
# ----------------------------------------------------------------------
def test_query_request_round_trip():
    request = QueryRequest(3, REGION)
    assert request.as_pair() == (3, REGION)


def test_all_methods_satisfy_protocol(built):
    for method in built.values():
        assert isinstance(method, RangeReachMethod)
        assert isinstance(method, RangeReachBase)


def test_database_and_engine_satisfy_protocol(fig1_condensed):
    from repro.system.database import GeosocialDatabase

    engine = GeosocialQueryEngine(fig1_condensed)
    assert isinstance(engine, RangeReachMethod)
    assert isinstance(GeosocialDatabase(), RangeReachBase)


def test_execute_returns_result(built):
    for method in built.values():
        result = method.execute(QueryRequest(0, REGION))
        assert isinstance(result, QueryResult)
        assert result.answer == method.query(0, REGION)
        assert result.method == method.name
        assert result.spans is None


def test_execute_with_trace_attaches_spans(built):
    method = built["3dreach"]
    with obs.observability(True):
        result = method.execute(QueryRequest(0, REGION), trace=True)
    assert result.spans is not None
    names = [node.name for _, node in result.spans.root.walk()]
    assert names[0] == "3dreach.execute"
    assert any("3dreach.query" in name for name in names)


def test_execute_many_matches_query_batch(built):
    requests = [QueryRequest(v, REGION) for v in range(5)]
    requests += [QueryRequest(v, EMPTY_REGION) for v in range(5)]
    for method in built.values():
        results = method.execute_many(requests)
        assert [r.answer for r in results] == method.query_batch(
            [r.as_pair() for r in requests]
        )


def test_default_query_batch_matches_loop(fig1_net):
    oracle = RangeReachOracle(fig1_net)
    pairs = [(v, REGION) for v in range(fig1_net.num_vertices)]
    assert oracle.query_batch(pairs) == [
        oracle.query(v, region) for v, region in pairs
    ]


# ----------------------------------------------------------------------
# Keyword alignment (the deprecated aliases are gone)
# ----------------------------------------------------------------------
def test_removed_aliases_stay_removed(fig1_condensed):
    from repro.labeling import build_reversed_labeling

    assert not hasattr(GeosocialQueryEngine(fig1_condensed), "range_reach")
    labeling = build_reversed_labeling(fig1_condensed.dag)
    with pytest.raises(TypeError):
        ThreeDReachRev(fig1_condensed, reversed_labeling=labeling)


def test_stride_keyword_aligned_across_methods(fig1_condensed):
    # The canonical vocabulary: every context-built class accepts
    # mode= and stride= and produces identical answers for stride > 1.
    context = BuildContext(fig1_condensed)
    strided = [
        SocReach(fig1_condensed, stride=4, context=context),
        ThreeDReach(fig1_condensed, stride=4, context=context),
        GeosocialQueryEngine(fig1_condensed, stride=4, context=context),
    ]
    plain = [
        SocReach(fig1_condensed, context=context),
        ThreeDReach(fig1_condensed, context=context),
        GeosocialQueryEngine(fig1_condensed, context=context),
    ]
    for a, b in zip(strided, plain):
        assert a.labeling.stride == 4
        for v in range(fig1_condensed.dag.num_vertices):
            assert a.query(v, REGION) == b.query(v, REGION)


# ----------------------------------------------------------------------
# Batch guards: empty input / label-less sources skip the index
# ----------------------------------------------------------------------
def _rtree_searches() -> float:
    return obs.REGISTRY.counter_samples().get("repro_rtree_searches_total", 0)


def test_empty_batch_touches_nothing(built):
    with obs.observability(True):
        obs.REGISTRY.reset()
        for method in built.values():
            assert method.query_batch([]) == []
        assert _rtree_searches() == 0
        samples = obs.REGISTRY.counter_samples()
        assert all(value == 0 for value in samples.values()), samples


def test_spareach_batch_dedups_regions(built):
    spareach = built["spareach-bfl"]
    pairs = [(v, REGION) for v in range(6)] + [(v, EMPTY_REGION) for v in range(6)]
    with obs.observability(True):
        obs.REGISTRY.reset()
        batched = spareach.query_batch(pairs)
        batch_searches = _rtree_searches()
        obs.REGISTRY.reset()
        sequential = [spareach.query(v, region) for v, region in pairs]
        loop_searches = _rtree_searches()
    assert batched == sequential
    # Two distinct regions -> exactly two R-tree searches, not twelve.
    assert batch_searches == 2
    assert loop_searches == len(pairs)


def test_threedreach_batch_dedups_pairs(built):
    method = built["3dreach"]
    pairs = [(0, REGION)] * 8
    with obs.observability(True):
        obs.REGISTRY.reset()
        answers = method.query_batch(pairs)
        samples = obs.REGISTRY.counter_samples()
    assert answers == [method.query(0, REGION)] * 8
    # One distinct (source, region) work item: the cuboid counter moves
    # as for ONE query, while the query counter reflects all eight.
    assert samples['repro_method_queries_total{method="3dreach"}'] == 8
    single = method._labeling.labels_of(method._network.super_of(0))
    assert samples["repro_threedreach_cuboid_queries_total"] <= len(single)


def test_socreach_batch_empty_labels_guard(fig1_condensed):
    socreach = SocReach(fig1_condensed)
    pairs = [(0, EMPTY_REGION)] * 3
    assert socreach.query_batch(pairs) == [False, False, False]


def test_batch_duplicate_answers_positionally_aligned(built, fig1_net):
    oracle = RangeReachOracle(fig1_net)
    pairs = []
    for v in range(fig1_net.num_vertices):
        pairs.append((v, REGION))
        pairs.append((v, EMPTY_REGION))
    pairs += pairs[:5]
    expected = [oracle.query(v, region) for v, region in pairs]
    for method in built.values():
        assert method.query_batch(pairs) == expected, method.name

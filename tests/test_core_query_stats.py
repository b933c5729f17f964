"""Unit tests for the per-query work counters (repro.obs).

These counters surface the cost drivers the paper's analysis discusses:
SpaReach's candidate/GReach counts, GeoReach's expansion vs pruning,
SocReach's descendant scan length, 3DReach's cuboid count.  They are
flushed to the process-wide metrics registry; the tests read per-query
deltas with ``obs.measure``.
"""

import pytest

from helpers import FIG1_INDEX, FIG1_REGION, fig1_network
from repro import obs
from repro.core import (
    GeoReach,
    SocReach,
    SpaReach,
    ThreeDReach,
    ThreeDReachRev,
)
from repro.geometry import Rect
from repro.geosocial import condense_network


@pytest.fixture
def condensed():
    return condense_network(fig1_network())


def query_delta(method, vertex, region):
    """Run one query, returning (answer, counter deltas)."""
    with obs.measure() as delta:
        answer = method.query(vertex, region)
    return answer, delta


def of(delta, name, method=None):
    key = name if method is None else f'{name}{{method="{method.name}"}}'
    return delta.get(key, 0)


def test_spareach_counts_candidates_and_reach_tests(condensed):
    method = SpaReach(condensed, "bfl")
    # Positive query from a: candidates are e and h; a reaches the first
    # candidate tested, so reach_tests <= candidates.
    answer, delta = query_delta(method, FIG1_INDEX["a"], FIG1_REGION)
    assert answer is True
    assert of(delta, "repro_spareach_candidates_total", method) == 2
    probes = of(delta, "repro_method_label_probes_total", method)
    assert 1 <= probes <= 2
    assert of(delta, "repro_method_queries_total", method) == 1
    assert of(delta, "repro_method_positives_total", method) == 1
    # Negative query from c: both candidates must be reach-tested.
    answer, delta = query_delta(method, FIG1_INDEX["c"], FIG1_REGION)
    assert answer is False
    assert of(delta, "repro_spareach_candidates_total", method) == 2
    assert of(delta, "repro_method_label_probes_total", method) == 2
    assert of(delta, "repro_method_positives_total", method) == 0


def test_spareach_empty_region(condensed):
    method = SpaReach(condensed, "bfl")
    answer, delta = query_delta(
        method, FIG1_INDEX["a"], Rect(100, 100, 101, 101)
    )
    assert answer is False
    assert of(delta, "repro_spareach_candidates_total", method) == 0
    assert of(delta, "repro_method_label_probes_total", method) == 0
    # The R-tree search itself is still accounted.
    assert of(delta, "repro_rtree_searches_total") == 1


def test_georeach_counts_expansion_and_pruning(condensed):
    method = GeoReach(condensed)
    _, delta = query_delta(method, FIG1_INDEX["c"], FIG1_REGION)
    # The negative query from c must explore c's cone: c, d, i, k, f.
    expanded = of(delta, "repro_georeach_vertices_expanded_total")
    assert 1 <= expanded <= 5
    assert of(delta, "repro_georeach_vertices_pruned_total") >= 1


def test_georeach_positive_query_stops_early(condensed):
    method = GeoReach(condensed)
    _, delta = query_delta(method, FIG1_INDEX["a"], FIG1_REGION)
    # TRUE terminates the BFS; it must not visit more than the full cone.
    assert of(delta, "repro_georeach_vertices_expanded_total") <= 10


def test_socreach_scan_counts(condensed):
    method = SocReach(condensed)
    # Negative query from c scans all of D(c) (5 vertices).
    answer, delta = query_delta(method, FIG1_INDEX["c"], FIG1_REGION)
    assert answer is False
    assert of(delta, "repro_socreach_descendants_scanned_total", method) == 5
    # Spatial descendants of c are f and i: two containment tests.
    assert of(delta, "repro_method_candidates_verified_total", method) == 2


def test_socreach_early_exit_shortens_scan(condensed):
    method = SocReach(condensed)
    answer, delta = query_delta(method, FIG1_INDEX["a"], FIG1_REGION)
    assert answer is True
    # |D(a)| = 10, but the scan stops at the witness.
    assert of(delta, "repro_socreach_descendants_scanned_total", method) <= 10


def test_threedreach_counts_cuboids(condensed):
    method = ThreeDReach(condensed)
    # A negative query must issue one 3-D range query per label of c
    # (three with the paper's forest, four with our DFS forest — pin it
    # to the labeling actually built).
    c_labels = len(
        method.labeling.labels_of(condensed.super_of(FIG1_INDEX["c"]))
    )
    answer, delta = query_delta(method, FIG1_INDEX["c"], FIG1_REGION)
    assert answer is False
    assert of(delta, "repro_threedreach_cuboid_queries_total") == c_labels
    assert of(delta, "repro_method_label_probes_total", method) == c_labels
    # a's descendants form one contiguous post range -> a single label,
    # and the positive query stops after its first cuboid.
    answer, delta = query_delta(method, FIG1_INDEX["a"], FIG1_REGION)
    assert answer is True
    assert of(delta, "repro_threedreach_cuboid_queries_total") == 1


@pytest.mark.parametrize("scc_mode", ["replicate", "mbr"])
def test_threedreach_rev_issues_exactly_one_slab_per_query(condensed, scc_mode):
    method = ThreeDReachRev(condensed, scc_mode=scc_mode)
    queries = [(FIG1_INDEX[n], FIG1_REGION) for n in "abcdefghijkl"]
    with obs.measure() as delta:
        for vertex, region in queries:
            method.query(vertex, region)
    slabs = of(delta, "repro_threedreach_rev_slab_queries_total")
    assert slabs == len(queries)
    assert of(delta, "repro_method_label_probes_total", method) == slabs
    assert of(delta, "repro_rtree_searches_total") == slabs
    # A batch spends one slab per *distinct* (source, region).
    with obs.measure() as delta:
        method.query_batch(queries + queries[:4])
    assert of(delta, "repro_threedreach_rev_slab_queries_total") == len(queries)
    assert of(delta, "repro_method_queries_total", method) == len(queries) + 4


def test_last_stats_is_gone(condensed):
    """The ad-hoc per-instance dicts were replaced by the registry."""
    for method in (
        SpaReach(condensed, "bfl"),
        GeoReach(condensed),
        SocReach(condensed),
        ThreeDReach(condensed),
    ):
        assert not hasattr(method, "last_stats")

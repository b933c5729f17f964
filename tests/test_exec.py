"""run_batch: parity, deadline, partial answers, counters; ParallelExecutor."""

import time

import pytest

from repro import obs
from repro.core import RangeReachOracle, build_methods
from repro.exec import BatchTimeoutError, ParallelExecutor, run_batch
from repro.geometry import Rect
from repro.pipeline import BuildContext
from repro.serve import QueryService
from repro.system import GeosocialDatabase

REGION = Rect(0.0, 0.0, 5.0, 5.0)
EMPTY_REGION = Rect(90.0, 90.0, 91.0, 91.0)


@pytest.fixture
def built(fig1_condensed):
    context = BuildContext(fig1_condensed)
    return build_methods(
        ("spareach-bfl", "socreach", "3dreach", "3dreach-rev"),
        context=context,
    )


def _pairs(network) -> list[tuple[int, Rect]]:
    pairs = []
    for v in range(network.num_vertices):
        pairs.append((v, REGION))
        pairs.append((v, EMPTY_REGION))
    return pairs * 3


# ----------------------------------------------------------------------
# Parity and basics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("timeout", [None, 60.0])
def test_run_batch_matches_query_batch(built, fig1_net, timeout):
    oracle = RangeReachOracle(fig1_net)
    pairs = _pairs(fig1_net)
    expected = [oracle.query(v, region) for v, region in pairs]
    for name, method in built.items():
        assert method.query_batch(pairs) == expected, name
        assert run_batch(method.query_batch, pairs, timeout) == expected, name


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_run_matches_sequential_answers(built, fig1_net, workers):
    # ParallelExecutor is the subject of the benchmark ladder's
    # exec.run_w{1,2}_us cells; its answers must equal query_batch's.
    pairs = _pairs(fig1_net)
    with ParallelExecutor(workers=workers) as executor:
        for name, method in built.items():
            assert executor.run(method, pairs) == method.query_batch(pairs)


def test_empty_batch(built):
    assert run_batch(built["3dreach"].query_batch, [], 1.0) == []
    with ParallelExecutor(workers=2) as executor:
        assert executor.run(built["3dreach"], []) == []


def test_single_query_batch(built):
    method = built["3dreach"]
    assert run_batch(method.query_batch, [(0, REGION)], 60.0) == [
        method.query(0, REGION)
    ]


def test_constructor_validation():
    with pytest.raises(ValueError, match="workers"):
        ParallelExecutor(workers=0)


def test_timeout_none_is_one_batch_call():
    calls = []

    def batch(chunk):
        calls.append(len(chunk))
        return [True] * len(chunk)

    assert run_batch(batch, [(0, REGION)] * 40, None) == [True] * 40
    assert calls == [40]
    calls.clear()
    assert run_batch(batch, [(0, REGION)] * 40, 60.0) == [True] * 40
    assert calls == [10, 10, 10, 10]


def test_run_rejects_nonpositive_timeout(built):
    for bad in (0, -1.5):
        with pytest.raises(ValueError, match="timeout"):
            run_batch(built["3dreach"].query_batch, [(0, REGION)], bad)


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
def _slow(chunk):
    time.sleep(0.02)
    return [v % 2 == 0 for v, _ in chunk]


@pytest.mark.parametrize("completed", [1, 2])
def test_deadline_raises_batch_timeout(completed):
    # Chunk number `completed` outlasts the deadline, so the check
    # before the next chunk expires it.
    pairs = [(v, REGION) for v in range(40)]
    calls = []

    def batch(chunk):
        calls.append(chunk)
        if len(calls) == completed:
            time.sleep(0.2)
        return [v % 2 == 0 for v, _ in chunk]

    with pytest.raises(BatchTimeoutError) as info:
        run_batch(batch, pairs, 0.1)
    exc = info.value
    assert (exc.completed, exc.total) == (completed, 4)
    assert len(calls) == completed
    assert exc.answers == [v % 2 == 0 for v in range(10 * completed)]


def test_per_run_timeout_overrides_default(fig1_net):
    # The service's default deadline applies to a batch without its own
    # deadline_ms; a request's deadline_ms overrides it.
    database = GeosocialDatabase.from_network(fig1_net)
    service = QueryService(database, default_timeout=1e-9)
    queries = [[v, [0, 0, 5, 5]] for v in range(fig1_net.num_vertices)]
    with pytest.raises(BatchTimeoutError):
        service.v1({"op": "batch", "queries": queries})
    result = service.v1(
        {"op": "batch", "queries": queries, "deadline_ms": 60_000}
    )
    assert result["answers"] == database.range_reach_many(
        [(v, Rect(*region)) for v, region in queries]
    )
    service.close(persist=False)


def test_timeout_counted():
    with obs.observability(True):
        obs.REGISTRY.reset()
        with pytest.raises(BatchTimeoutError):
            run_batch(_slow, [(0, REGION)] * 40, 0.01)
        samples = obs.REGISTRY.counter_samples()
    assert samples.get("repro_exec_batch_timeouts_total", 0) == 1


def test_partial_answers_and_counters_sequential():
    pairs = [(v, REGION) for v in range(40)]
    expected = [v % 2 == 0 for v in range(40)]
    with obs.observability(True):
        obs.REGISTRY.reset()
        with pytest.raises(BatchTimeoutError) as info:
            run_batch(_slow, pairs, 0.03)
        samples = obs.REGISTRY.counter_samples()
    exc = info.value
    assert 0 < exc.completed < exc.total == 4
    # The carried answers are the completed chunks' answers, in input
    # order: an exact prefix of the full batch's answer list.
    assert len(exc.answers) == exc.completed * 10
    assert exc.answers == expected[: len(exc.answers)]
    # Counters reconcile: the aborted batch is still counted, and only
    # actually-answered queries are counted.
    assert samples["repro_exec_batches_total"] == 1
    assert samples["repro_exec_batch_queries_total"] == len(exc.answers)
    assert samples["repro_exec_chunks_total"] == exc.completed
    assert samples["repro_exec_batch_timeouts_total"] == 1


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_obs_counters(built, fig1_net):
    method = built["socreach"]
    pairs = _pairs(fig1_net)
    with obs.observability(True):
        obs.REGISTRY.reset()
        run_batch(method.query_batch, pairs, None)
        untimed = obs.REGISTRY.counter_samples()
        run_batch(method.query_batch, pairs, 60.0)
        samples = obs.REGISTRY.counter_samples()
    # A batch without a deadline does no exec bookkeeping.
    assert untimed["repro_exec_batches_total"] == 0
    assert samples["repro_exec_batches_total"] == 1
    assert samples["repro_exec_batch_queries_total"] == len(pairs)
    assert samples["repro_exec_chunks_total"] == 4


def test_batch_trace_stitches_chunk_spans(built, fig1_net):
    method = built["3dreach"]
    pairs = _pairs(fig1_net)
    with obs.observability(True):
        with obs.trace("serve") as trace:
            run_batch(method.query_batch, pairs, 60.0)
    batch_span = next(
        node for _, node in trace.root.walk() if node.name == "exec.batch"
    )
    assert [child.name for child in batch_span.children] == [
        f"exec.chunk[{i}]" for i in range(4)
    ]
    # The method's own spans nest under the chunk that ran them.
    for chunk in batch_span.children:
        assert chunk.children, "chunk span should carry nested spans"

"""Unit tests for the repro.obs span tracer."""

import threading

import pytest

from repro import obs
from repro.obs.trace import (
    _NOOP_SPAN,
    active_trace,
    new_trace_id,
    parse_traceparent,
    span,
    tracing,
    valid_request_id,
)


def test_span_is_noop_outside_trace():
    assert not tracing()
    assert active_trace() is None
    # Without an active trace, span() hands back the shared no-op —
    # no allocation on the inactive fast path.
    assert span("anything") is _NOOP_SPAN
    with span("anything"):
        pass  # must be harmless


def test_trace_records_nested_spans():
    with obs.trace("query") as t:
        assert tracing()
        assert active_trace() is t
        with span("phase-a"):
            with span("phase-a.inner"):
                pass
        with span("phase-b"):
            pass
    assert not tracing()
    root = t.root
    assert root.name == "query"
    assert [c.name for c in root.children] == ["phase-a", "phase-b"]
    assert [c.name for c in root.children[0].children] == ["phase-a.inner"]
    # walk() is pre-order with depths.
    assert [(d, s.name) for d, s in root.walk()] == [
        (0, "query"),
        (1, "phase-a"),
        (2, "phase-a.inner"),
        (1, "phase-b"),
    ]
    # Timings are monotonic and nested.
    assert root.duration >= 0
    for _, node in root.walk():
        assert node.end >= node.start
        assert root.start <= node.start and node.end <= root.end


def test_trace_captures_counter_deltas():
    counter = obs.REGISTRY.counter("trace_test_total")
    with obs.trace("query") as t:
        with span("work"):
            counter.inc(3)
        with span("idle"):
            pass
    work, idle = t.root.children
    assert work.counters == {"trace_test_total": 3}
    assert idle.counters == {}
    # The root sees its children's work.
    assert t.root.counters == {"trace_test_total": 3}


def test_traces_do_not_nest():
    with obs.trace("outer"):
        with pytest.raises(RuntimeError):
            with obs.trace("inner"):
                pass
    # The failed inner trace must not have corrupted the module state.
    assert not tracing()
    with obs.trace("again") as t:
        pass
    assert t.root.name == "again"


def test_format_output():
    counter = obs.REGISTRY.counter("fmt_test_total")
    with obs.trace("query") as t:
        with span("child"):
            counter.inc(2)
    text = t.format()
    lines = text.splitlines()
    assert lines[0].startswith("query")
    assert lines[1].startswith("  child")
    assert "us" in lines[0]
    assert "fmt_test_total=2" in lines[1]


def test_method_spans_appear_in_trace():
    from helpers import FIG1_INDEX, FIG1_REGION, fig1_network
    from repro.core import ThreeDReach
    from repro.geosocial import condense_network

    method = ThreeDReach(condense_network(fig1_network()))
    with obs.trace("query") as t:
        method.query(FIG1_INDEX["a"], FIG1_REGION)
    names = [s.name for _, s in t.root.walk()]
    assert "3dreach.query" in names
    query_span = t.root.children[0]
    assert query_span.counters.get(
        'repro_method_queries_total{method="3dreach"}'
    ) == 1


def test_counters_false_disables_sampling_for_whole_trace():
    counter = obs.REGISTRY.counter("trace_nocount_total")
    with obs.trace("query", counters=False) as t:
        with span("work"):
            counter.inc(5)
    assert t.root.counters == {}
    assert t.root.children[0].counters == {}


def test_trace_ids_and_request_id_validation():
    tid = new_trace_id()
    assert len(tid) == 32 and int(tid, 16) >= 0
    with obs.trace("query", trace_id="my-req-1") as t:
        pass
    assert t.trace_id == "my-req-1"
    # traceparent: version-traceid-parentid-flags.
    header = f"00-{tid}-00f067aa0ba902b7-01"
    assert parse_traceparent(header) == tid
    assert parse_traceparent(header.upper()) == tid.lower()
    assert parse_traceparent(None) is None
    assert parse_traceparent("") is None
    assert parse_traceparent("00-zz-00f067aa0ba902b7-01") is None
    assert parse_traceparent(f"00-{tid}-01") is None  # missing field
    assert parse_traceparent(f"00-{'0' * 32}-00f067aa0ba902b7-01") is None
    assert valid_request_id("abc-123.X_z")
    assert valid_request_id(tid)
    assert not valid_request_id(None)
    assert not valid_request_id("")
    assert not valid_request_id("has space")
    assert not valid_request_id("x" * 65)


def test_concurrent_traces_do_not_cross_talk():
    # The thread-safety regression test: many threads tracing at once,
    # each with its own span names; no span may leak across traces.
    results: list[tuple[str, list[str]]] = []
    errors: list[BaseException] = []
    barrier = threading.Barrier(8)

    def run(index: int) -> None:
        try:
            barrier.wait()
            for repeat in range(25):
                with obs.trace(f"t{index}") as t:
                    with span(f"t{index}.a"):
                        with span(f"t{index}.deep"):
                            pass
                    with span(f"t{index}.b"):
                        pass
                names = [s.name for _, s in t.root.walk()]
                results.append((f"t{index}", names))
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(results) == 8 * 25
    for owner, names in results:
        assert names == [
            owner, f"{owner}.a", f"{owner}.deep", f"{owner}.b"
        ], f"{owner} trace captured foreign spans: {names}"


def test_to_dict_span_budget_counts_dropped():
    with obs.trace("query", counters=False) as t:
        for _ in range(10):
            with span("child"):
                pass
    full = t.root.to_dict()
    assert len(full["children"]) == 10
    assert "dropped_spans" not in full
    budgeted = t.root.to_dict(max_spans=4)
    # Budget 4 = root + 3 children; the other 7 are counted, not kept.
    assert len(budgeted["children"]) == 3
    assert budgeted["dropped_spans"] == 7
    assert t.root.span_count() == 11


def test_stage_seconds_sums_same_name_spans():
    with obs.trace("query", counters=False) as t:
        with span("admit"):
            pass
        with span("exec"):
            pass
        with span("admit"):  # e.g. exit bookkeeping reuses the name
            pass
    stages = t.stage_seconds()
    assert set(stages) == {"admit", "exec"}
    total = sum(stages.values())
    assert total <= t.duration
    assert t.attributed_fraction() == pytest.approx(
        total / t.duration
    )

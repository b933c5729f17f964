"""Unit tests for the flight recorder (repro.obs.recorder).

The recorder is driven with hand-built traces whose span timings are
set directly, so retention policies (K-slowest eviction, error ring,
deterministic sampling) are exercised with exact, deterministic
durations rather than wall-clock noise.
"""

import io
import json

import pytest

from repro.obs import FlightRecorder
from repro.obs.trace import Span, Trace


def make_trace(
    duration: float,
    *,
    trace_id: str,
    stages: dict[str, float] | None = None,
    name: str = "/v1",
) -> Trace:
    root = Span(name)
    root.start = 0.0
    root.end = duration
    offset = 0.0
    for stage, seconds in (stages or {}).items():
        child = Span(stage)
        child.start = offset
        child.end = offset + seconds
        offset = child.end
        root.children.append(child)
    return Trace(root, trace_id=trace_id)


def record_one(
    recorder: FlightRecorder,
    duration: float,
    *,
    trace_id: str,
    status: int = 200,
    error: str | None = None,
    stages: dict[str, float] | None = None,
):
    return recorder.record_trace(
        make_trace(duration, trace_id=trace_id, stages=stages),
        endpoint="/v1",
        status=status,
        started=1000.0,
        error=error,
    )


def test_slowest_keeps_k_and_evicts_fastest():
    recorder = FlightRecorder(slow_k=3)
    for i, duration in enumerate([0.05, 0.01, 0.04, 0.03, 0.02]):
        record_one(recorder, duration, trace_id=f"t{i}")
    slow = recorder.slowest()
    # 0.05, 0.04, 0.03 survive; 0.01 and 0.02 were displaced/never kept.
    assert [e["duration_s"] for e in slow] == [0.05, 0.04, 0.03]
    assert [e["trace_id"] for e in slow] == ["t0", "t2", "t3"]
    assert recorder.stats()["slow_kept"] == 3


def test_errored_requests_always_retained():
    recorder = FlightRecorder(slow_k=1, errors_n=8)
    record_one(recorder, 1.0, trace_id="slow-ok")
    # Fast but errored: displaced from "slow", still in the error ring.
    record_one(recorder, 0.001, trace_id="fast-500", status=500)
    record_one(recorder, 0.002, trace_id="fast-exc", error="boom")
    errors = recorder.errors()
    assert [e["trace_id"] for e in errors] == ["fast-exc", "fast-500"]
    assert errors[0]["error"] == "boom"
    assert recorder.stats()["errors_seen"] == 2
    # A 4xx counts as errored too (client got a failure response).
    record_one(recorder, 0.003, trace_id="bad-400", status=400)
    assert recorder.errors(limit=1)[0]["trace_id"] == "bad-400"


def test_recent_ring_is_bounded_and_newest_first():
    recorder = FlightRecorder(recent_n=4)
    for i in range(10):
        record_one(recorder, 0.01, trace_id=f"r{i}")
    recent = recorder.recent()
    assert [e["trace_id"] for e in recent] == ["r9", "r8", "r7", "r6"]
    assert recorder.stats()["recent_kept"] == 4
    assert recorder.recorded == 10


def test_sampling_is_deterministic_every_nth():
    recorder = FlightRecorder(sample_every=3)
    for i in range(1, 10):  # seq numbers 1..9
        record_one(recorder, 0.01, trace_id=f"s{i}")
    sampled = recorder.sampled()
    # Requests with seq 3, 6, 9 land in the sample ring (newest first).
    assert [e["trace_id"] for e in sampled] == ["s9", "s6", "s3"]


def test_find_searches_every_pool():
    recorder = FlightRecorder(slow_k=2, recent_n=2, errors_n=2)
    record_one(recorder, 5.0, trace_id="only-slow")
    for i in range(3):
        record_one(recorder, 0.01, trace_id=f"fill{i}")
    record_one(recorder, 0.01, trace_id="bad", status=503)
    # "only-slow" fell out of the recent ring but survives in the heap.
    assert recorder.find("only-slow")["duration_s"] == 5.0
    assert recorder.find("bad")["status"] == 503
    assert recorder.find("no-such-id") is None


def test_stage_attribution_and_serialization():
    entry = record_one(
        FlightRecorder(),
        0.1,
        trace_id="abc",
        stages={"parse": 0.01, "exec": 0.08},
    )
    out = entry.to_dict()
    assert out["stages_s"] == {"exec": 0.08, "parse": 0.01}
    assert out["unattributed_s"] == pytest.approx(0.01)
    assert out["trace"]["trace_id"] == "abc"
    assert "trace" not in entry.to_dict(include_trace=False)


def test_access_log_writes_jsonl_without_span_tree():
    sink = io.StringIO()
    recorder = FlightRecorder(access_log=sink)
    record_one(recorder, 0.02, trace_id="log1", stages={"exec": 0.015})
    record_one(recorder, 0.03, trace_id="log2", status=500)
    lines = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert [line["trace_id"] for line in lines] == ["log1", "log2"]
    assert lines[0]["stages_s"]["exec"] == 0.015
    assert all("trace" not in line for line in lines)


def test_dead_access_log_never_fails_recording():
    sink = io.StringIO()
    recorder = FlightRecorder(access_log=sink)
    sink.close()  # writes now raise ValueError
    record_one(recorder, 0.01, trace_id="after-death")
    assert recorder.find("after-death") is not None


def test_close_is_idempotent_and_recording_continues(tmp_path):
    path = tmp_path / "access.jsonl"
    recorder = FlightRecorder(access_log=str(path))
    record_one(recorder, 0.01, trace_id="before")
    recorder.close()
    recorder.close()
    record_one(recorder, 0.01, trace_id="after")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1  # only the pre-close request was logged
    assert recorder.find("after") is not None


def test_retention_bounds_validated():
    with pytest.raises(ValueError):
        FlightRecorder(slow_k=0)
    with pytest.raises(ValueError):
        FlightRecorder(sample_every=0)


def test_stats_schema():
    recorder = FlightRecorder(slow_k=5, sample_every=2)
    record_one(recorder, 0.01, trace_id="x")
    record_one(recorder, 0.01, trace_id="y", status=500)
    assert recorder.stats() == {
        "recorded": 2,
        "errors_seen": 1,
        "slow_kept": 2,
        "recent_kept": 2,
        "sampled_kept": 1,
        "errors_kept": 1,
        "slow_k": 5,
        "sample_every": 2,
    }

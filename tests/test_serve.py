"""The network query service: endpoints, backpressure, drain.

Endpoint correctness is checked against the BFS oracle; backpressure
and 504 mapping use stub databases so the tests are deterministic (no
timing races on the happy path); the SIGTERM drain runs the real CLI
in a subprocess.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from test_obs_export import parse_exposition

import repro
from repro.core import RangeReachOracle
from repro.datasets import make_network
from repro.exec import BatchTimeoutError, ParallelExecutor
from repro.geometry import Rect
from repro.serve import (
    DrainingError,
    OverloadedError,
    QueryService,
    start_server,
)
from repro.system import GeosocialDatabase


@pytest.fixture(scope="module")
def tiny_net():
    return make_network("gowalla", scale=0.0005, seed=3)


@pytest.fixture
def service(tiny_net):
    database = GeosocialDatabase.from_network(tiny_net)
    service = QueryService(database)
    service.warm_up()
    yield service
    service.close(persist=False)


@pytest.fixture
def server(service):
    server = start_server(service)
    yield server, f"http://127.0.0.1:{server.port}"
    if not server.draining:
        server.drain(persist=False)


def _post(base: str, path: str, payload, *, raw: bytes | None = None):
    data = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def _get(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


# ----------------------------------------------------------------------
# Region forms (oracle parity of every op lives in test_serve_v1.py)
# ----------------------------------------------------------------------
def _q(vertex, region, **extra) -> dict:
    """A /v1 query envelope."""
    return {"op": "query", "vertex": vertex, "region": region, **extra}


def test_region_accepts_cli_string_form(server, tiny_net):
    _, base = server
    oracle = RangeReachOracle(tiny_net)
    space = tiny_net.space()
    region = [space.xlo, space.ylo, space.xhi, space.yhi]
    as_string = ",".join(str(c) for c in region)
    code, body, _ = _post(base, "/v1", _q(0, as_string))
    assert code == 200
    assert body["answer"] == oracle.query(0, Rect(*region))
    code, body, _ = _post(base, "/v1", _q(0, "0,0,not,numbers"))
    assert code == 400
    assert "region" in body["error"]


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
def test_bad_requests_get_400(server):
    _, base = server
    cases = [
        {"op": "query", "region": [0, 0, 1, 1]},        # missing vertex
        _q("x", [0, 0, 1, 1]),                          # non-int vertex
        _q(True, [0, 0, 1, 1]),                         # bool is not int
        _q(0, [0, 0, 1]),                               # short region
        _q(0, [1, 1, 0, 0]),                            # negative extent
        _q(0, [0, 0, 1, 1], method="sum"),              # unknown method
        {"op": "sum", "vertex": 0, "region": [0, 0, 1, 1]},  # unknown op
        _q(10**9, [0, 0, 1, 1]),                        # out of range
        {"op": "write", "method": "explode"},
        {"op": "batch", "queries": [[0]]},
        {"op": "batch", "queries": [[0, [0, 0, 1, 1]]], "deadline_ms": -1},
    ]
    for payload in cases:
        code, body, _ = _post(base, "/v1", payload)
        assert code == 400, payload
        assert "error" in body
    code, body, _ = _post(base, "/v1", None, raw=b"{not json")
    assert code == 400
    code, body, _ = _post(base, "/v1", None, raw=b"[1, 2]")
    assert code == 400


def test_unknown_path_and_wrong_method(server):
    _, base = server
    assert _get(base, "/nope")[0] == 404
    assert _get(base, "/v1")[0] == 405  # GET on a POST route
    code, _, _ = _post(base, "/healthz", {})
    assert code == 405  # POST on a GET route


def test_removed_legacy_endpoints_answer_404(server):
    # The pre-/v1 routes are gone: the standard error body, the request
    # id echoed, and no Deprecation header left behind.
    _, base = server
    legacy = [
        ("/query", {"vertex": 0, "region": [0, 0, 1, 1]}),
        ("/batch", {"queries": [[0, [0, 0, 1, 1]]]}),
        ("/write", {"op": "add_user"}),
    ]
    for path, payload in legacy:
        code, body, headers = _post_h(
            base, path, payload, {"X-Request-Id": "legacy-404"}
        )
        assert code == 404, path
        assert body == {
            "error": f"unknown path {path!r}", "request_id": "legacy-404",
        }
        assert headers.get("X-Request-Id") == "legacy-404"
        assert headers.get("Deprecation") is None


def test_healthz_stats_metrics(server):
    _, base = server
    code, text = _get(base, "/healthz")
    assert (code, json.loads(text)["status"]) == (200, "ok")
    code, text = _get(base, "/stats")
    stats = json.loads(text)
    assert code == 200
    assert stats["serve"]["max_inflight"] == 64
    assert "database" in stats
    code, text = _get(base, "/metrics")
    assert code == 200
    parse_exposition(text)  # strict format check


# ----------------------------------------------------------------------
# Backpressure and deadline mapping (stub databases: deterministic)
# ----------------------------------------------------------------------
class _BlockingDatabase:
    """range_reach parks on an event; everything else is trivial."""

    snapshot_dir = None
    is_stale = False
    delta_size = 0

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def range_reach(self, vertex, region):
        self.entered.set()
        assert self.release.wait(timeout=30)
        return True

    def stats(self):
        return {}


def test_admission_control_429_and_drain_503(tiny_net):
    database = _BlockingDatabase()
    service = QueryService(database, max_inflight=1)
    server = start_server(service)
    base = f"http://127.0.0.1:{server.port}"
    payload = _q(0, [0, 0, 1, 1])
    first: dict = {}

    def slow_request():
        first["code"], first["body"], _ = _post(base, "/v1", payload)

    thread = threading.Thread(target=slow_request, daemon=True)
    thread.start()
    assert database.entered.wait(timeout=10)
    # One request is in flight and max_inflight=1: the next is rejected
    # immediately, with a Retry-After hint.
    code, body, headers = _post(base, "/v1", payload)
    assert code == 429
    assert "error" in body
    assert headers.get("Retry-After") == "1"
    database.release.set()
    thread.join(timeout=10)
    assert (first["code"], first["body"]["answer"]) == (200, True)
    # Draining rejects new work with 503 and flips /healthz.
    service.begin_drain()
    code, _, headers = _post(base, "/v1", payload)
    assert code == 503
    assert headers.get("Retry-After") == "1"
    code, text = _get(base, "/healthz")
    assert (code, json.loads(text)["status"]) == (503, "draining")
    assert service.stats()["serve"]["rejected"] == 2
    server.drain(persist=False)


class _TimingOutDatabase:
    snapshot_dir = None

    def range_reach_many(self, pairs, executor=None, *, timeout=None):
        raise BatchTimeoutError(
            "batch deadline of 1s exceeded after 2/5 chunks",
            completed=2, total=5, answers=[True, False],
        )

    def stats(self):
        return {}


def test_batch_timeout_maps_to_504():
    service = QueryService(_TimingOutDatabase())
    server = start_server(service)
    base = f"http://127.0.0.1:{server.port}"
    code, body, _ = _post(
        base, "/v1", {"op": "batch", "queries": [[0, [0, 0, 1, 1]]] * 5}
    )
    assert code == 504
    assert body["completed_chunks"] == 2
    assert body["total_chunks"] == 5
    assert "deadline" in body["error"]
    server.drain(persist=False)


def test_batch_deadline_end_to_end(server, tiny_net):
    # A real database with an absurdly small request deadline: the
    # service routes it through a deadline-checking executor and the
    # expiry surfaces as 504.
    _, base = server
    queries = [[v, [0, 0, 1, 1]] for v in range(64)]
    code, body, _ = _post(
        base, "/v1", {"op": "batch", "queries": queries, "deadline_ms": 1e-6}
    )
    assert code == 504
    assert body["total_chunks"] >= 1


def test_service_level_admission_exceptions(tiny_net):
    database = GeosocialDatabase.from_network(tiny_net)
    service = QueryService(database, max_inflight=1)
    with service.admit():
        with pytest.raises(OverloadedError):
            with service.admit():
                pass
    service.begin_drain()
    with pytest.raises(DrainingError):
        with service.admit():
            pass
    assert service.stats()["serve"]["rejected"] == 2
    service.close(persist=False)


def test_service_owns_executor_and_batch_parity(tiny_net):
    database = GeosocialDatabase.from_network(tiny_net)
    oracle = RangeReachOracle(tiny_net)
    service = QueryService(
        database, executor=ParallelExecutor(workers=2, chunk_size=8)
    )
    space = tiny_net.space()
    region = [space.xlo, space.ylo, space.xhi, space.yhi]
    queries = [[v, region] for v in range(0, tiny_net.num_vertices, 5)]
    result = service.v1({"op": "batch", "queries": queries})
    assert result["answers"] == [
        oracle.query(v, Rect(*region)) for v, _ in queries
    ]
    service.close(persist=False)
    # Closing again is a no-op.
    assert service.close(persist=False) is False


# ----------------------------------------------------------------------
# Graceful SIGTERM drain (real process, real signal)
# ----------------------------------------------------------------------
def _serve_env() -> dict:
    env = dict(os.environ)
    src = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_server(args: list[str]) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_serve_env(),
    )
    line = proc.stdout.readline()
    assert line.startswith("serving on http://"), line
    base = line.split()[2]
    return proc, base


def test_sigterm_drains_in_flight_and_persists(tmp_path, tiny_net):
    net_dir = tmp_path / "net"
    snap_dir = tmp_path / "snap"
    tiny_net.save(net_dir)
    proc, base = _spawn_server(
        ["--network", str(net_dir), "--snapshot-dir", str(snap_dir)]
    )
    try:
        code, body, _ = _post(base, "/v1", _q(0, [0, 0, 1, 1]))
        assert code == 200
        # Fire a large batch and SIGTERM while it is (likely) in flight;
        # the drain must still deliver its complete response.
        queries = [[v % tiny_net.num_vertices, [0.0, 0.0, 0.6, 0.6]]
                   for v in range(512)]
        result: dict = {}

        def inflight_batch():
            result["code"], result["body"], _ = _post(
                base, "/v1", {"op": "batch", "queries": queries}
            )

        thread = threading.Thread(target=inflight_batch, daemon=True)
        thread.start()
        time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        thread.join(timeout=30)
        assert result["code"] == 200
        assert result["body"]["count"] == len(queries)
        stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 0, stderr
        assert "drained:" in stderr
        # The warm snapshot landed on disk.
        assert (snap_dir / "manifest.json").exists()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    # A snapshot-only restart warm-starts and answers identically.
    proc2, base2 = _spawn_server(["--snapshot-dir", str(snap_dir)])
    try:
        code, body, _ = _post(base2, "/v1", _q(0, [0, 0, 1, 1]))
        assert code == 200
        oracle = RangeReachOracle(tiny_net)
        assert body["answer"] == oracle.query(0, Rect(0, 0, 1, 1))
    finally:
        proc2.send_signal(signal.SIGTERM)
        stdout, stderr = proc2.communicate(timeout=30)
        assert proc2.returncode == 0, stderr


# ----------------------------------------------------------------------
# Request ids, tracing, /debug and SLO observability
# ----------------------------------------------------------------------
def _post_h(base: str, path: str, payload, headers: dict):
    merged = {"Content-Type": "application/json", **headers}
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers=merged, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def _get_h(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as resp:
            return resp.status, resp.read().decode(), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), exc.headers


def _find_trace(base: str, rid: str, *, retries: int = 100):
    """Look a trace up by id, retrying the recorder-flush race.

    The recorder entry lands *after* the response bytes are flushed
    (the encode stage is part of the trace), so an immediate lookup
    can transiently 404.
    """
    for _ in range(retries):
        code, text, _ = _get_h(base, f"/debug/traces?id={rid}")
        if code == 200:
            return json.loads(text)["trace"]
        time.sleep(0.01)
    raise AssertionError(f"trace {rid!r} never appeared in the recorder")


def test_every_response_carries_request_id(server):
    _, base = server
    checks = [
        _post(base, "/v1", _q(0, [0, 0, 1, 1]))[2],
        _post(base, "/v1", {"op": "query", "vertex": "bad"})[2],  # 400
        _post(base, "/healthz", {})[2],                       # 405
        _get_h(base, "/nope")[2],                             # 404
        _get_h(base, "/healthz")[2],
        _get_h(base, "/stats")[2],
        _get_h(base, "/metrics")[2],
        _get_h(base, "/debug/traces")[2],
        _get_h(base, "/debug/slow")[2],
        _get_h(base, "/debug/errors")[2],
    ]
    for headers in checks:
        rid = headers.get("X-Request-Id")
        assert rid, "response missing X-Request-Id"
        assert len(rid) == 32 and int(rid, 16) >= 0  # generated W3C form


def test_request_id_echoed_and_in_error_bodies(server):
    _, base = server
    code, _, headers = _post_h(
        base, "/v1", _q(0, [0, 0, 1, 1]),
        {"X-Request-Id": "client-req-7"},
    )
    assert (code, headers.get("X-Request-Id")) == (200, "client-req-7")
    # Error bodies carry the id too (success bodies stay unchanged).
    code, body, headers = _post_h(
        base, "/v1", {"op": "query", "vertex": "bad"},
        {"X-Request-Id": "client-err-8"},
    )
    assert code == 400
    assert headers.get("X-Request-Id") == "client-err-8"
    assert body["request_id"] == "client-err-8"
    # An invalid token is replaced with a generated id.
    _, _, headers = _post_h(
        base, "/v1", _q(0, [0, 0, 1, 1]),
        {"X-Request-Id": "bad id with spaces"},
    )
    assert len(headers.get("X-Request-Id")) == 32


def test_traceparent_sets_the_request_id(server):
    _, base = server
    tid = "4bf92f3577b34da6a3ce929d0e0e4736"
    code, _, headers = _post_h(
        base, "/v1", _q(0, [0, 0, 1, 1]),
        {"traceparent": f"00-{tid}-00f067aa0ba902b7-01",
         "X-Request-Id": "ignored-when-traceparent-present"},
    )
    assert (code, headers.get("X-Request-Id")) == (200, tid)
    trace = _find_trace(base, tid)
    assert trace["trace_id"] == tid


def test_debug_endpoints_schemas(server):
    _, base = server
    code, _, _ = _post_h(
        base, "/v1", _q(0, [0, 0, 1, 1]),
        {"X-Request-Id": "debug-ok-1"},
    )
    assert code == 200
    code, _, _ = _post_h(
        base, "/v1", {"op": "query", "vertex": "bad"},
        {"X-Request-Id": "debug-err-1"},
    )
    assert code == 400
    entry = _find_trace(base, "debug-ok-1")
    assert entry["endpoint"] == "/v1"
    assert entry["status"] == 200
    assert entry["duration_s"] > 0
    stages = entry["stages_s"]
    assert {"parse", "admit", "queue.wait", "exec", "encode"} <= set(stages)
    assert entry["trace"]["spans"]["name"] == "/v1"
    # The overview listing.
    code, text, _ = _get_h(base, "/debug/traces")
    overview = json.loads(text)
    assert code == 200
    assert {"recent", "sampled", "stats"} <= set(overview)
    assert any(
        e["trace_id"] == "debug-ok-1" for e in overview["recent"]
    )
    assert overview["stats"]["recorded"] >= 2
    # Slowest traces, slowest first.
    code, text, _ = _get_h(base, "/debug/slow?n=5")
    slow = json.loads(text)["slowest"]
    assert code == 200 and 1 <= len(slow) <= 5
    durations = [e["duration_s"] for e in slow]
    assert durations == sorted(durations, reverse=True)
    # Errored requests include the 400 with its error string.
    code, text, _ = _get_h(base, "/debug/errors")
    errors = json.loads(text)["errors"]
    assert code == 200
    bad = next(e for e in errors if e["trace_id"] == "debug-err-1")
    assert bad["status"] == 400
    assert bad["error"]
    # Unknown id -> 404 with a JSON body.
    code, text, _ = _get_h(base, "/debug/traces?id=no-such-trace")
    assert code == 404
    assert "error" in json.loads(text)


def test_healthz_carries_slo_and_recorder_blocks(server):
    _, base = server
    code, _, _ = _post(base, "/v1", _q(0, [0, 0, 1, 1]))
    assert code == 200
    code, text, _ = _get_h(base, "/healthz")
    health = json.loads(text)
    assert code == 200
    slo = health["slo"]
    assert {"/v1:query", "/v1:batch", "/v1:write"} <= set(slo["endpoints"])
    report = slo["endpoints"]["/v1:query"]
    for sli in ("latency", "availability"):
        assert set(report[sli]["burn_rates"]) == {"5m", "1h"}
        assert 0.0 <= report[sli]["budget_remaining"] <= 1.0
    assert report["fast_burn"] is False
    assert health["recorder"]["recorded"] >= 1
    # And the SLO gauges reach /metrics.
    code, text, _ = _get_h(base, "/metrics")
    types, _, samples = parse_exposition(text)
    for name in (
        "repro_slo_burn_rate",
        "repro_slo_error_budget_remaining",
        "repro_slo_fast_burn",
    ):
        assert types.get(name) == "gauge", f"{name} missing from /metrics"
    burn_labels = [
        labels for name, labels, _ in samples
        if name == "repro_slo_burn_rate"
        and labels.get("endpoint") == "/v1:query"
    ]
    # Subset, not equality: gauge children persist in the process-global
    # registry, so other tests' monitors may have left extra windows.
    assert {
        ("latency", "5m"), ("latency", "1h"),
        ("availability", "5m"), ("availability", "1h"),
    } <= {(labels["sli"], labels["window"]) for labels in burn_labels}


def test_observability_can_be_disabled(tiny_net):
    database = GeosocialDatabase.from_network(tiny_net)
    service = QueryService(
        database, recorder=False, slo=False, tracing=False
    )
    server = start_server(service)
    base = f"http://127.0.0.1:{server.port}"
    try:
        code, _, headers = _post(base, "/v1", _q(0, [0, 0, 1, 1]))
        # Requests still get ids; the debug surfaces are gone.
        assert code == 200 and headers.get("X-Request-Id")
        assert _get_h(base, "/debug/traces")[0] == 404
        assert _get_h(base, "/debug/slow")[0] == 404
        assert _get_h(base, "/debug/errors")[0] == 404
        code, text, _ = _get_h(base, "/healthz")
        health = json.loads(text)
        assert code == 200
        assert "slo" not in health and "recorder" not in health
    finally:
        server.drain(persist=False)


def test_concurrent_requests_keep_traces_apart(server, tiny_net):
    # The serving-side cross-talk regression: parallel requests with
    # distinct ids must each retain their own trace, attributed to the
    # right endpoint, with no foreign spans stitched in.
    _, base = server
    region = [0.0, 0.0, 1.0, 1.0]
    n = 12
    outcomes: dict[str, int] = {}

    def fire(index: int) -> None:
        rid = f"concurrent-{index:02d}"
        if index % 3 == 0:
            code, _, _ = _post_h(
                base, "/v1",
                {"op": "batch", "queries": [[index, region]] * 4},
                {"X-Request-Id": rid},
            )
        else:
            code, _, _ = _post_h(
                base, "/v1", _q(index, region), {"X-Request-Id": rid},
            )
        outcomes[rid] = code

    threads = [
        threading.Thread(target=fire, args=(i,)) for i in range(n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert set(outcomes.values()) == {200}
    for index in range(n):
        rid = f"concurrent-{index:02d}"
        entry = _find_trace(base, rid)
        assert entry["endpoint"] == "/v1", rid
        assert entry["trace"]["trace_id"] == rid
        assert entry["trace"]["spans"]["name"] == "/v1"
        # Batches and single reads stay told apart by their own spans.
        names = json.dumps(entry["trace"]["spans"])
        assert ("db.batch" in names) == (index % 3 == 0), rid

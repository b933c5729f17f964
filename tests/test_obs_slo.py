"""Unit tests for SLO burn-rate monitoring (repro.obs.slo).

The monitor diffs snapshots of the cumulative serving instruments, so
tests drive the real registry instruments (observations land on top of
whatever other tests recorded — only deltas after the monitor's base
snapshot matter) under an injected fake clock.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.exec import BatchTimeoutError
from repro.obs import Objective, SLOMonitor, default_objectives
from repro.obs import instruments as _inst
from repro.serve import QueryService, start_server


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def observe(endpoint: str, *, seconds: float = 0.001, code: int = 200):
    """One finished request, as the serving path records it."""
    _inst.SERVE_REQUESTS.labels(endpoint=endpoint, code=str(code)).inc()
    _inst.SERVE_ENDPOINT_SECONDS.labels(endpoint=endpoint).observe(seconds)


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective("/v1:query", latency_threshold_s=0.0)
    with pytest.raises(ValueError):
        Objective("/v1:query", latency_threshold_s=0.1, latency_target=1.0)
    with pytest.raises(ValueError):
        Objective("/v1:query", latency_threshold_s=0.1, availability_target=0.0)
    obj = Objective("/v1:query", latency_threshold_s=0.1)
    assert obj.to_dict()["latency_threshold_s"] == 0.1


def test_default_objectives_cover_every_serving_endpoint():
    endpoints = {obj.endpoint for obj in default_objectives()}
    assert endpoints == {"/v1:query", "/v1:batch", "/v1:write"}


def test_burn_rate_and_budget_math():
    clock = FakeClock()
    monitor = SLOMonitor(
        [
            Objective(
                "/v1:query",
                latency_threshold_s=0.1,
                latency_target=0.9,  # 10% of requests may be slow
                availability_target=0.8,  # 20% may 5xx
            )
        ],
        windows=(("1m", 60.0),),
        clock=clock,
    )
    # 8 fast + 2 very slow; 9 OK + 1 server error.
    for _ in range(8):
        observe("/v1:query", seconds=0.001)
    observe("/v1:query", seconds=10.0)
    observe("/v1:query", seconds=10.0, code=500)
    clock.advance(10.0)
    report = monitor.evaluate()
    ep = report["endpoints"]["/v1:query"]
    assert ep["requests"] == 10
    # Latency: 2/10 bad over a 10% allowance -> burn 2.0, budget gone.
    assert ep["latency"]["burn_rates"]["1m"] == pytest.approx(2.0)
    assert ep["latency"]["budget_remaining"] == 0.0
    # Availability: 1/10 bad over a 20% allowance -> burn 0.5.
    assert ep["availability"]["burn_rates"]["1m"] == pytest.approx(0.5)
    assert ep["availability"]["budget_remaining"] == pytest.approx(0.5)
    assert not ep["fast_burn"]


def test_latency_sli_is_conservative_about_bucket_straddle():
    clock = FakeClock()
    monitor = SLOMonitor(
        [Objective("/v1:query", latency_threshold_s=0.1, latency_target=0.5)],
        windows=(("1m", 60.0),),
        clock=clock,
    )
    # 0.09s is under the threshold, but its factor-2 bucket's upper
    # bound (0.131s) is not — the conservative SLI counts it bad rather
    # than letting quantization hide a near-miss.
    observe("/v1:query", seconds=0.09)
    clock.advance(5.0)
    report = monitor.evaluate()
    burn = report["endpoints"]["/v1:query"]["latency"]["burn_rates"]["1m"]
    assert burn == pytest.approx(2.0)  # 1/1 bad over a 50% allowance


def test_fast_burn_requires_every_window():
    clock = FakeClock()
    monitor = SLOMonitor(
        [
            Objective(
                "/v1:query",
                latency_threshold_s=0.1,
                availability_target=0.9,
            )
        ],
        windows=(("10s", 10.0), ("1000s", 1000.0)),
        fast_burn_factor=2.0,
        clock=clock,
    )
    # A long healthy history...
    for _ in range(100):
        observe("/v1:query", seconds=0.001)
    clock.advance(50.0)
    monitor.tick(force=True)
    clock.advance(900.0)
    monitor.tick(force=True)  # now at t=950: short-window diff base
    # ...then a small recent burst of errors: the short window burns
    # hot, the long window absorbs it -> no page.
    for _ in range(10):
        observe("/v1:query", seconds=0.001, code=500)
    clock.advance(15.0)
    report = monitor.evaluate()
    ep = report["endpoints"]["/v1:query"]
    assert ep["availability"]["burn_rates"]["10s"] > 2.0
    assert ep["availability"]["burn_rates"]["1000s"] < 2.0
    assert not ep["fast_burn"]
    # A sustained error flood pushes every window past the factor.
    for _ in range(300):
        observe("/v1:query", seconds=0.001, code=500)
    clock.advance(5.0)
    report = monitor.evaluate()
    assert report["endpoints"]["/v1:query"]["fast_burn"]


def test_tick_is_rate_limited_and_prunes_old_snapshots():
    clock = FakeClock()
    monitor = SLOMonitor(
        [Objective("/v1:query", latency_threshold_s=0.1)],
        windows=(("10s", 10.0),),
        min_tick_interval=1.0,
        clock=clock,
    )
    assert not monitor.tick()  # within min_tick_interval of the base
    clock.advance(2.0)
    assert monitor.tick()
    for _ in range(50):
        clock.advance(2.0)
        assert monitor.tick()
    # The horizon is 10s: one snapshot older than the cutoff is kept as
    # the diff base, so the history stays bounded.
    assert len(monitor._snapshots) <= 8


def test_evaluate_exports_slo_gauges():
    clock = FakeClock()
    monitor = SLOMonitor(
        [Objective("/v1:query", latency_threshold_s=0.1)],
        windows=(("5m", 300.0),),
        clock=clock,
    )
    observe("/v1:query", seconds=0.001)
    clock.advance(5.0)
    monitor.evaluate()
    burn = _inst.SLO_BURN_RATE.labels(
        endpoint="/v1:query", sli="latency", window="5m"
    )
    budget = _inst.SLO_BUDGET_REMAINING.labels(
        endpoint="/v1:query", sli="latency"
    )
    fast = _inst.SLO_FAST_BURN.labels(endpoint="/v1:query")
    assert burn.value == 0.0
    assert budget.value == 1.0
    assert fast.value == 0


def test_windows_required():
    with pytest.raises(ValueError):
        SLOMonitor(windows=())


# ----------------------------------------------------------------------
# The default objectives against real /v1 traffic
# ----------------------------------------------------------------------
class _SlowDatabase:
    """Reads overrun the 100 ms query objective; batches miss their
    deadline (504)."""

    snapshot_dir = None

    def range_reach(self, vertex, region):
        time.sleep(0.12)
        return True

    def range_reach_many(self, pairs, *, timeout=None):
        raise BatchTimeoutError(
            "batch deadline exceeded", completed=0, total=1, answers=[]
        )

    def stats(self):
        return {}


def _post_v1(base: str, payload: dict) -> int:
    request = urllib.request.Request(
        base + "/v1", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status
    except urllib.error.HTTPError as exc:
        return exc.code


def test_default_objectives_see_v1_traffic():
    # Regression: requests were observed under endpoint="/v1" while the
    # objectives keyed on the legacy paths, so /healthz reported zero
    # requests and zero burn whatever /v1 did.
    service = QueryService(
        _SlowDatabase(), slo=SLOMonitor(min_tick_interval=0.0)
    )
    server = start_server(service)
    base = f"http://127.0.0.1:{server.port}"
    region = [0, 0, 1, 1]
    try:
        assert _post_v1(
            base, {"op": "query", "vertex": 0, "region": region}
        ) == 200
        for _ in range(2):
            assert _post_v1(
                base, {"op": "batch", "queries": [[0, region]]}
            ) == 504
        with urllib.request.urlopen(base + "/healthz", timeout=30) as resp:
            endpoints = json.loads(resp.read())["slo"]["endpoints"]
        # The slow read burns the query latency budget...
        query = endpoints["/v1:query"]
        assert query["requests"] == 1
        assert query["latency"]["burn_rates"]["5m"] > 1.0
        assert query["availability"]["burn_rates"]["5m"] == 0.0
        # ...the 504s burn batch availability, and writes saw nothing.
        batch = endpoints["/v1:batch"]
        assert batch["requests"] == 2
        assert batch["availability"]["burn_rates"]["5m"] > 1.0
        assert endpoints["/v1:write"]["requests"] == 0
        # Flight-recorder entries stay under the route, not the op.
        recent = service.recorder.recent()
        assert len(recent) == 3
        assert {entry["endpoint"] for entry in recent} == {"/v1"}
    finally:
        server.drain(persist=False)

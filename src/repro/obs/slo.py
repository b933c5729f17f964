"""SLO monitoring: objectives, burn rates and error budgets.

Turns the serving stack's cumulative instruments into the two questions
an operator actually asks:

* *Are we meeting the objective right now?* — per-endpoint **burn
  rates** over multiple trailing windows (Google-SRE style).  A burn
  rate of 1.0 spends the error budget exactly at the rate the objective
  allows; > 1 is on track to miss it.
* *How much slack is left?* — **error budget remaining** over the
  longest window, as a fraction in [0, 1].

Two SLIs per endpoint:

* **latency** — the fraction of requests finishing under the
  objective's threshold, measured from the per-endpoint log-bucket
  histogram ``repro_serve_endpoint_seconds``.  The good count is
  *conservative*: only requests in buckets whose upper bound is ≤ the
  threshold count as good, so bucketing error can never hide a miss.
* **availability** — the fraction of requests answered without a server
  error (status < 500), from ``repro_serve_requests_total``.

:class:`SLOMonitor` snapshots the cumulative counters on every
:meth:`~SLOMonitor.tick` (rate-limited; the serving path calls it after
each request) and :meth:`~SLOMonitor.evaluate` diffs the newest snapshot
against the oldest one inside each window.  Multi-window **fast burn**
(burning faster than ``fast_burn_factor`` in *every* window) is the
page-now condition: a short window alone pages on blips, a long window
alone pages hours late; requiring both means the problem is real *and*
current.  Everything is exported through the ``repro_slo_*`` gauge
families and the ``slo`` block of ``/healthz``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.obs import instruments as _inst

__all__ = [
    "Objective",
    "SLOMonitor",
    "default_objectives",
    "op_endpoint",
    "DEFAULT_WINDOWS",
    "FAST_BURN_FACTOR",
]

#: Trailing windows burn rates are computed over: (name, seconds).
DEFAULT_WINDOWS: tuple[tuple[str, float], ...] = (("5m", 300.0), ("1h", 3600.0))

#: A 14.4x burn spends a 30-day budget in ~2 days — the classic
#: fast-burn paging threshold.
FAST_BURN_FACTOR = 14.4


@dataclass(frozen=True)
class Objective:
    """One endpoint's service-level objective.

    ``latency_target`` is the fraction of requests that must finish
    under ``latency_threshold_s`` (e.g. 0.99 → "p99 under threshold");
    ``availability_target`` is the fraction that must not 5xx.
    """

    endpoint: str
    latency_threshold_s: float
    latency_target: float = 0.99
    availability_target: float = 0.999

    def __post_init__(self) -> None:
        if self.latency_threshold_s <= 0:
            raise ValueError("latency threshold must be positive")
        for target in (self.latency_target, self.availability_target):
            if not 0.0 < target < 1.0:
                raise ValueError("SLO targets must be in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "endpoint": self.endpoint,
            "latency_threshold_s": self.latency_threshold_s,
            "latency_target": self.latency_target,
            "availability_target": self.availability_target,
        }


def op_endpoint(endpoint: str, op: str) -> str:
    """The ``endpoint`` label one op of a multiplexed route is counted
    under (``/v1:query``): what the transport labels its SLI samples
    with and what a per-op :class:`Objective` names."""
    return f"{endpoint}:{op}"


def default_objectives() -> tuple[Objective, ...]:
    """The serving stack's default objectives, one per ``/v1`` op.

    Thresholds follow each op's work profile: a single reachability
    query is label probes plus an R-tree walk (fast), a batch answers
    many of them in one request (slow), a write may trigger a bounded
    delta-BFS or a rebuild check (in between).
    """
    return (
        Objective(op_endpoint("/v1", "query"), latency_threshold_s=0.1),
        Objective(op_endpoint("/v1", "batch"), latency_threshold_s=1.0),
        Objective(op_endpoint("/v1", "write"), latency_threshold_s=0.5),
    )


# One cumulative observation of an endpoint's counters:
# (total, bad_availability, latency_total, latency_good)
_Counts = tuple[int, int, int, int]


class SLOMonitor:
    """Windowed burn-rate evaluation over the serving instruments.

    Thread-safe; ``tick()`` is cheap enough to call once per finished
    request (it no-ops within ``min_tick_interval`` of the previous
    snapshot).  ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        objectives: Sequence[Objective] | None = None,
        *,
        windows: Sequence[tuple[str, float]] = DEFAULT_WINDOWS,
        fast_burn_factor: float = FAST_BURN_FACTOR,
        min_tick_interval: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not windows:
            raise ValueError("SLOMonitor needs at least one window")
        self._objectives = tuple(
            objectives if objectives is not None else default_objectives()
        )
        self._windows = tuple((str(n), float(s)) for n, s in windows)
        self._horizon = max(s for _, s in self._windows)
        self._fast_burn_factor = fast_burn_factor
        self._min_tick_interval = min_tick_interval
        self._clock = clock
        self._lock = threading.Lock()
        # Snapshots: (timestamp, {endpoint: _Counts}), oldest first.
        self._snapshots: list[tuple[float, dict[str, _Counts]]] = []
        self.tick(force=True)

    @property
    def objectives(self) -> tuple[Objective, ...]:
        return self._objectives

    @property
    def windows(self) -> tuple[tuple[str, float], ...]:
        return self._windows

    # ------------------------------------------------------------------
    # Reading the cumulative instruments
    # ------------------------------------------------------------------
    @staticmethod
    def _good_latency_count(hist, threshold: float) -> tuple[int, int]:
        """(good, total) from one endpoint histogram, conservatively.

        Good = observations in buckets whose upper bound ≤ threshold;
        the bucket straddling the threshold counts as bad, so the
        log-bucket quantization can only under-report compliance.
        """
        counts = hist.raw_counts()
        good = 0
        for bound, count in zip(hist.bounds, counts):
            if bound <= threshold:
                good += count
            else:
                break
        return good, hist.count

    def _observe(self) -> dict[str, _Counts]:
        by_endpoint: dict[str, _Counts] = {}
        for obj in self._objectives:
            total = 0
            bad_avail = 0
            for child in _inst.SERVE_REQUESTS.children():
                labels = child.labels or {}
                if labels.get("endpoint") != obj.endpoint:
                    continue
                total += child.value
                try:
                    code = int(labels.get("code", "0"))
                except ValueError:
                    code = 0
                if code >= 500:
                    bad_avail += child.value
            lat_good = lat_total = 0
            for child in _inst.SERVE_ENDPOINT_SECONDS.children():
                if (child.labels or {}).get("endpoint") != obj.endpoint:
                    continue
                good, seen = self._good_latency_count(
                    child, obj.latency_threshold_s
                )
                lat_good += good
                lat_total += seen
            by_endpoint[obj.endpoint] = (total, bad_avail, lat_total, lat_good)
        return by_endpoint

    # ------------------------------------------------------------------
    # Snapshotting and evaluation
    # ------------------------------------------------------------------
    def tick(self, *, force: bool = False) -> bool:
        """Snapshot the cumulative counters; True if one was taken."""
        now = self._clock()
        with self._lock:
            if (
                not force
                and self._snapshots
                and now - self._snapshots[-1][0] < self._min_tick_interval
            ):
                return False
            self._snapshots.append((now, self._observe()))
            # Keep one snapshot older than the horizon as the diff base.
            cutoff = now - self._horizon
            drop = 0
            while (
                drop + 1 < len(self._snapshots)
                and self._snapshots[drop + 1][0] <= cutoff
            ):
                drop += 1
            if drop:
                del self._snapshots[:drop]
            return True

    @staticmethod
    def _window_delta(
        newest: Mapping[str, _Counts],
        oldest: Mapping[str, _Counts],
        endpoint: str,
    ) -> _Counts:
        new = newest.get(endpoint, (0, 0, 0, 0))
        old = oldest.get(endpoint, (0, 0, 0, 0))
        return tuple(max(0, n - o) for n, o in zip(new, old))  # type: ignore[return-value]

    @staticmethod
    def _burn(bad: int, total: int, target: float) -> float:
        """Burn rate: observed bad fraction over the allowed bad fraction."""
        if total <= 0:
            return 0.0
        return (bad / total) / (1.0 - target)

    def evaluate(self, *, tick: bool = True) -> dict:
        """Burn rates, budgets and fast-burn flags; updates the gauges."""
        if tick:
            self.tick()
        with self._lock:
            now_ts, newest = self._snapshots[-1]
            bases: list[tuple[str, float, Mapping[str, _Counts]]] = []
            for name, seconds in self._windows:
                cutoff = now_ts - seconds
                base = self._snapshots[0][1]
                for ts, counts in self._snapshots:
                    if ts <= cutoff:
                        base = counts
                    else:
                        break
                bases.append((name, seconds, base))
        longest = max(bases, key=lambda b: b[1])
        endpoints: dict[str, dict] = {}
        for obj in self._objectives:
            lat_burns: dict[str, float] = {}
            avail_burns: dict[str, float] = {}
            for name, _, base in bases:
                total, bad_avail, lat_total, lat_good = self._window_delta(
                    newest, base, obj.endpoint
                )
                lat_burns[name] = self._burn(
                    lat_total - lat_good, lat_total, obj.latency_target
                )
                avail_burns[name] = self._burn(
                    bad_avail, total, obj.availability_target
                )
            total, bad_avail, lat_total, lat_good = self._window_delta(
                newest, longest[2], obj.endpoint
            )
            lat_budget = max(
                0.0,
                1.0
                - self._burn(
                    lat_total - lat_good, lat_total, obj.latency_target
                ),
            )
            avail_budget = max(
                0.0,
                1.0 - self._burn(bad_avail, total, obj.availability_target),
            )
            fast = bool(
                all(b > self._fast_burn_factor for b in lat_burns.values())
                or all(
                    b > self._fast_burn_factor for b in avail_burns.values()
                )
            )
            endpoints[obj.endpoint] = {
                "objective": obj.to_dict(),
                "requests": total,
                "latency": {
                    "burn_rates": lat_burns,
                    "budget_remaining": lat_budget,
                },
                "availability": {
                    "burn_rates": avail_burns,
                    "budget_remaining": avail_budget,
                },
                "fast_burn": fast,
            }
            for name, burn in lat_burns.items():
                _inst.SLO_BURN_RATE.labels(
                    endpoint=obj.endpoint, sli="latency", window=name
                ).set(burn)
            for name, burn in avail_burns.items():
                _inst.SLO_BURN_RATE.labels(
                    endpoint=obj.endpoint, sli="availability", window=name
                ).set(burn)
            _inst.SLO_BUDGET_REMAINING.labels(
                endpoint=obj.endpoint, sli="latency"
            ).set(lat_budget)
            _inst.SLO_BUDGET_REMAINING.labels(
                endpoint=obj.endpoint, sli="availability"
            ).set(avail_budget)
            _inst.SLO_FAST_BURN.labels(endpoint=obj.endpoint).set(
                1 if fast else 0
            )
        return {
            "windows": [
                {"name": name, "seconds": seconds}
                for name, seconds in self._windows
            ],
            "fast_burn_factor": self._fast_burn_factor,
            "endpoints": endpoints,
        }

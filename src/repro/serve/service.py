"""Transport-agnostic request handling for the network query service.

:class:`QueryService` turns a :class:`~repro.system.GeosocialDatabase`
into a long-running serving component:

* **admission control** — a bounded in-flight counter; a request beyond
  ``max_inflight`` is rejected immediately (HTTP 429) instead of
  queueing without bound behind the database lock;
* **serialized writes, batched reads** — the database is not
  thread-safe, so every operation holds one lock; batches still win
  because they run vectorized, on the request thread;
* **deadline propagation** — a batch deadline travels to
  ``range_reach_many(timeout=)``, checked between chunks; an expired
  deadline surfaces as :class:`~repro.exec.BatchTimeoutError` which the
  HTTP layer maps to 504 with the completed/total chunk counts;
* **drain** — :meth:`begin_drain` flips the service into draining mode
  (new requests get 503), :meth:`close` optionally persists the
  snapshot so a restart warm-starts from the drained state.

The HTTP front-end lives in :mod:`repro.serve.http`; this module knows
nothing about sockets so the same service object is unit-testable and
reusable behind other transports.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager

from repro.geometry import Rect
from repro.obs import instruments as _inst
from repro.obs import render_prometheus
from repro.obs.metrics import enabled as _obs_enabled
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLOMonitor
from repro.obs.trace import Trace
from repro.obs.trace import span as _tspan
from repro.system import GeosocialDatabase

DEFAULT_MAX_INFLIGHT = 64

#: The /v1 query methods, mapped to database reads.
_READ_OPS = ("reach", "count", "witnesses")

#: The /v1 write methods.
_WRITE_OPS = (
    "add_user",
    "add_venue",
    "add_follow",
    "add_checkin",
    "remove_follow",
    "remove_checkin",
)

#: The /v1 envelope: every request is ``{"op": ..., "method": ...}``
#: plus the fields its (op, method) pair allows — nothing else.
V1_OPS = ("query", "batch", "write")
_V1_COMMON_FIELDS = frozenset({"op", "method", "deadline_ms", "shard_hint"})
_V1_METHOD_FIELDS: dict[tuple[str, str], frozenset[str]] = {
    **{("query", m): frozenset({"vertex", "region"}) for m in _READ_OPS},
    ("batch", "reach"): frozenset({"queries"}),
    ("write", "add_user"): frozenset(),
    ("write", "add_venue"): frozenset({"x", "y"}),
    ("write", "add_follow"): frozenset({"follower", "followee"}),
    ("write", "remove_follow"): frozenset({"follower", "followee"}),
    ("write", "add_checkin"): frozenset({"user", "venue"}),
    ("write", "remove_checkin"): frozenset({"user", "venue"}),
}


class ServiceError(Exception):
    """Base class of request failures; ``status`` is the HTTP code."""

    status = 500


class BadRequestError(ServiceError):
    """Malformed or semantically invalid request payload (400)."""

    status = 400


class OverloadedError(ServiceError):
    """Admission control rejected the request (429)."""

    status = 429


class DrainingError(ServiceError):
    """The service is shutting down and accepts no new work (503)."""

    status = 503


def _require(payload: dict, key: str):
    if not isinstance(payload, dict) or key not in payload:
        raise BadRequestError(f"missing field {key!r}")
    return payload[key]


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(f"{what} must be an integer, got {value!r}")
    return value


def _as_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise BadRequestError(f"{what} must be finite, got {value!r}")
    return float(value)


def parse_region(raw) -> Rect:
    """Parse any accepted region form: a :class:`Rect` (passed through),
    a ``[xlo, ylo, xhi, yhi]`` list/tuple, or the CLI-style string
    ``"xlo,ylo,xhi,yhi"``."""
    if isinstance(raw, Rect):
        return raw
    if isinstance(raw, str):
        try:
            raw = [float(part) for part in raw.split(",")]
        except ValueError:
            raise BadRequestError(
                f"region string must be 'xlo,ylo,xhi,yhi', got {raw!r}"
            ) from None
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise BadRequestError(
            f"region must be [xlo, ylo, xhi, yhi], got {raw!r}"
        )
    xlo, ylo, xhi, yhi = (_as_number(c, "region coordinate") for c in raw)
    if xhi < xlo or yhi < ylo:
        raise BadRequestError(f"region {raw!r} has negative extent")
    return Rect(xlo, ylo, xhi, yhi)


class QueryService:
    """The serving facade over one :class:`GeosocialDatabase`.

    Args:
        database: the store to serve; all access is serialized on an
            internal lock (the database is not thread-safe).
        max_inflight: admission-control bound on concurrently admitted
            requests; the bound is the queue, exceeding it is a 429.
        default_timeout: per-batch deadline (seconds) applied when a
            batch request does not carry its own ``deadline_ms`` field.
        recorder: flight recorder behind ``/debug/*``; a default-sized
            one is created when omitted.  Owned: :meth:`close` closes it.
        slo: SLO monitor behind the ``repro_slo_*`` gauges and the
            ``slo`` block of ``/healthz``; default objectives when
            omitted.  Pass ``slo=False`` (or ``recorder=False``) to
            disable the component entirely.
        tracing: when False the HTTP layer skips per-request tracing
            (request ids still flow) — the knob the overhead benchmark
            flips.
    """

    def __init__(
        self,
        database: GeosocialDatabase,
        *,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        default_timeout: float | None = None,
        recorder: FlightRecorder | None | bool = None,
        slo: SLOMonitor | None | bool = None,
        tracing: bool = True,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if default_timeout is not None and default_timeout <= 0:
            raise ValueError("default_timeout must be positive")
        self._database = database
        self._max_inflight = max_inflight
        self._default_timeout = default_timeout
        if recorder is None or recorder is True:
            recorder = FlightRecorder()
        self._recorder = recorder if recorder else None
        if slo is None or slo is True:
            slo = SLOMonitor()
        self._slo = slo if slo else None
        self._tracing = tracing
        self._db_lock = threading.Lock()
        self._gate = threading.Lock()  # admission counter + obs flushes
        self._inflight = 0
        self._served = 0
        self._rejected = 0
        self._draining = False
        self._closed = False

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    @property
    def max_inflight(self) -> int:
        return self._max_inflight

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def recorder(self) -> FlightRecorder | None:
        return self._recorder

    @property
    def slo(self) -> SLOMonitor | None:
        return self._slo

    @property
    def tracing_enabled(self) -> bool:
        return self._tracing

    @contextmanager
    def admit(self):
        """Admit one request or raise Overloaded/Draining immediately.

        The in-flight counter bounds the queue of requests waiting on
        the database lock: beyond ``max_inflight`` a caller gets a 429
        *now* rather than a response after an unbounded wait.
        """
        with _tspan("admit"), self._gate:
            if self._draining:
                self._rejected += 1
                if _obs_enabled():
                    _inst.SERVE_REJECTED.inc()
                raise DrainingError("service is draining")
            if self._inflight >= self._max_inflight:
                self._rejected += 1
                if _obs_enabled():
                    _inst.SERVE_REJECTED.inc()
                raise OverloadedError(
                    f"{self._inflight} requests in flight "
                    f"(max {self._max_inflight})"
                )
            self._inflight += 1
            if _obs_enabled():
                _inst.SERVE_INFLIGHT.set(self._inflight)
        started = time.perf_counter()
        try:
            yield
        finally:
            # Same stage name as the entry span: stage_seconds() sums
            # them, so admission bookkeeping is attributed, not a gap.
            with _tspan("admit"), self._gate:
                self._inflight -= 1
                self._served += 1
                if _obs_enabled():
                    _inst.SERVE_INFLIGHT.set(self._inflight)
                    _inst.SERVE_REQUEST_SECONDS.observe(
                        time.perf_counter() - started
                    )

    @contextmanager
    def _locked(self):
        """Hold the database lock; time spent waiting is ``queue.wait``.

        Splitting the wait from the work keeps the trace's stage
        attribution honest: under contention a request's wall time is
        dominated by the lock queue, not the query itself.
        """
        with _tspan("queue.wait"):
            self._db_lock.acquire()
        try:
            yield
        finally:
            self._db_lock.release()

    # ------------------------------------------------------------------
    # Request handlers (admitted requests)
    # ------------------------------------------------------------------
    def _execute_batch(
        self, pairs, timeout, shard_hint: int | None = None
    ) -> list[bool]:
        database = self._database
        kwargs = {}
        if shard_hint is not None and hasattr(database, "num_shards"):
            kwargs["shard_hint"] = shard_hint
        with self._locked(), _tspan("exec"):
            try:
                return database.range_reach_many(
                    pairs, timeout=timeout, **kwargs
                )
            except (IndexError, ValueError) as exc:
                raise BadRequestError(str(exc)) from None

    def write(
        self, payload: dict, *, shard_hint: int | None = None
    ) -> dict:
        """One mutation against the live store (the /v1 write op).

        ``payload`` is ``{"op": <write method>, ...its fields}``;
        ``shard_hint`` (from the /v1 envelope) routes ``add_user`` to a
        specific shard of a sharded database; it is ignored elsewhere.
        """
        op = _require(payload, "op")
        database = self._database
        try:
            with self._locked(), _tspan("exec"):
                if op == "add_user":
                    if shard_hint is not None and hasattr(
                        database, "num_shards"
                    ):
                        vertex = database.add_user(shard_hint=shard_hint)
                    else:
                        vertex = database.add_user()
                    return {"op": op, "vertex": vertex}
                if op == "add_venue":
                    vertex = database.add_venue(
                        _as_number(_require(payload, "x"), "x"),
                        _as_number(_require(payload, "y"), "y"),
                    )
                    return {"op": op, "vertex": vertex}
                if op == "add_follow":
                    added = database.add_follow(
                        _as_int(_require(payload, "follower"), "follower"),
                        _as_int(_require(payload, "followee"), "followee"),
                    )
                    return {"op": op, "added": added}
                if op == "add_checkin":
                    added = database.add_checkin(
                        _as_int(_require(payload, "user"), "user"),
                        _as_int(_require(payload, "venue"), "venue"),
                    )
                    return {"op": op, "added": added}
                if op == "remove_follow":
                    database.remove_follow(
                        _as_int(_require(payload, "follower"), "follower"),
                        _as_int(_require(payload, "followee"), "followee"),
                    )
                    return {"op": op, "removed": True}
                if op == "remove_checkin":
                    database.remove_checkin(
                        _as_int(_require(payload, "user"), "user"),
                        _as_int(_require(payload, "venue"), "venue"),
                    )
                    return {"op": op, "removed": True}
        except (IndexError, ValueError) as exc:
            raise BadRequestError(str(exc)) from None
        raise BadRequestError(
            f"unknown write op {op!r}; known: {', '.join(_WRITE_OPS)}"
        )

    # ------------------------------------------------------------------
    # The /v1 unified envelope
    # ------------------------------------------------------------------
    def v1(self, payload: dict, *, duplicates=()) -> dict:
        """``POST /v1`` — the one versioned envelope over all three ops.

        ``{"op": "query"|"batch"|"write", "method": ..., ...}`` with two
        optional cross-cutting fields: ``deadline_ms`` (batch deadline in
        milliseconds; advisory elsewhere) and ``shard_hint`` (preferred
        shard for query planning and ``add_user`` placement on a sharded
        database; advisory on a monolithic one).  The envelope is
        strict: an unknown field for the (op, method) pair — or a field
        the transport saw twice (``duplicates``) — is a 400 naming the
        offending field(s), never a silent ignore.
        """
        with _tspan("parse"):
            if duplicates:
                raise BadRequestError(
                    "duplicate field(s): "
                    + ", ".join(sorted(set(duplicates)))
                )
            op = _require(payload, "op")
            if op not in V1_OPS:
                raise BadRequestError(
                    f"unknown op {op!r}; known: {', '.join(V1_OPS)}"
                )
            if op == "write":
                method = _require(payload, "method")
            else:
                method = payload.get("method", "reach")
            if (op, method) not in _V1_METHOD_FIELDS:
                known = sorted(
                    m for o, m in _V1_METHOD_FIELDS if o == op
                )
                raise BadRequestError(
                    f"unknown method {method!r} for op {op!r}; "
                    f"known: {', '.join(known)}"
                )
            allowed = _V1_COMMON_FIELDS | _V1_METHOD_FIELDS[(op, method)]
            unknown = sorted(k for k in payload if k not in allowed)
            if unknown:
                raise BadRequestError(
                    f"unknown field(s) for {op}/{method}: "
                    + ", ".join(unknown)
                )
            shard_hint = payload.get("shard_hint")
            if shard_hint is not None:
                shard_hint = _as_int(shard_hint, "shard_hint")
                num_shards = getattr(self._database, "num_shards", None)
                if num_shards is not None and not (
                    0 <= shard_hint < num_shards
                ):
                    raise BadRequestError(
                        f"shard_hint {shard_hint} out of range "
                        f"(0..{num_shards - 1})"
                    )
            deadline_ms = payload.get("deadline_ms")
            if deadline_ms is not None:
                deadline_ms = _as_number(deadline_ms, "deadline_ms")
                if deadline_ms <= 0:
                    raise BadRequestError("deadline_ms must be positive")
        if op == "query":
            return self._v1_query(payload, method, shard_hint)
        if op == "batch":
            return self._v1_batch(payload, deadline_ms, shard_hint)
        result = self.write(
            {
                "op": method,
                **{
                    k: payload[k]
                    for k in _V1_METHOD_FIELDS[("write", method)]
                    if k in payload
                },
            },
            shard_hint=shard_hint,
        )
        result["op"] = "write"
        result["method"] = method
        return result

    def _v1_query(
        self, payload: dict, method: str, shard_hint: int | None
    ) -> dict:
        with _tspan("parse"):
            vertex = _as_int(_require(payload, "vertex"), "vertex")
            region = parse_region(_require(payload, "region"))
        database = self._database
        hinted = shard_hint is not None and hasattr(database, "num_shards")
        with self._locked(), _tspan("exec"):
            try:
                if method == "reach":
                    if hinted:
                        answer = database.range_reach(
                            vertex, region, shard_hint=shard_hint
                        )
                    else:
                        answer = database.range_reach(vertex, region)
                elif method == "count":
                    answer = database.count_reachable(vertex, region)
                else:
                    answer = database.reachable_venues(vertex, region)
            except (IndexError, ValueError) as exc:
                raise BadRequestError(str(exc)) from None
        return {"op": "query", "method": method, "answer": answer}

    def _v1_batch(
        self, payload: dict, deadline_ms, shard_hint: int | None
    ) -> dict:
        with _tspan("parse"):
            queries = _require(payload, "queries")
            if not isinstance(queries, list):
                raise BadRequestError("queries must be a list")
            pairs = []
            for i, entry in enumerate(queries):
                if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                    raise BadRequestError(
                        f"queries[{i}] must be [vertex, region]"
                    )
                pairs.append((
                    _as_int(entry[0], f"queries[{i}] vertex"),
                    parse_region(entry[1]),
                ))
            timeout = (
                deadline_ms / 1000.0
                if deadline_ms is not None
                else self._default_timeout
            )
        answers = self._execute_batch(pairs, timeout, shard_hint)
        return {
            "op": "batch",
            "method": "reach",
            "answers": answers,
            "count": len(answers),
        }

    # ------------------------------------------------------------------
    # Per-request observation (called by the transport after each
    # traced request finishes, success or error)
    # ------------------------------------------------------------------
    def observe_request(
        self,
        endpoint: str,
        status: int,
        trace: Trace | None,
        *,
        sli: str | None = None,
        duration: float | None = None,
        started: float | None = None,
        error: str | None = None,
    ) -> None:
        """Flush one finished request into histograms, recorder and SLO.

        ``trace`` is the request's closed span tree (None when tracing
        is off — the latency SLI then needs an explicit ``duration``).
        ``sli`` is the label the latency and stage histograms are
        observed under (default: ``endpoint``); the transport passes
        ``/v1:<op>`` so the SLO objectives are per op while the
        recorder entry stays under ``endpoint``.  ``started`` is the
        wall-clock epoch the request began, for the recorder.
        """
        if sli is None:
            sli = endpoint
        if duration is None and trace is not None:
            duration = trace.duration
        if _obs_enabled() and duration is not None:
            _inst.SERVE_ENDPOINT_SECONDS.labels(endpoint=sli).observe(
                duration
            )
        if trace is not None:
            if _obs_enabled():
                for stage, seconds in trace.stage_seconds().items():
                    _inst.SERVE_STAGE_SECONDS.labels(
                        endpoint=sli, stage=stage
                    ).observe(seconds)
            if self._recorder is not None:
                self._recorder.record_trace(
                    trace,
                    endpoint=endpoint,
                    status=status,
                    started=time.time() if started is None else started,
                    error=error,
                )
        if self._slo is not None:
            self._slo.tick()

    # ------------------------------------------------------------------
    # Introspection endpoints (never admission-controlled)
    # ------------------------------------------------------------------
    def health(self) -> dict:
        out = {
            "status": "draining" if self._draining else "ok",
            "inflight": self._inflight,
        }
        if self._slo is not None:
            out["slo"] = self._slo.evaluate()
        if self._recorder is not None:
            out["recorder"] = self._recorder.stats()
        return out

    def stats(self) -> dict:
        with self._db_lock:
            database = self._database.stats()
        return {
            "database": database,
            "serve": {
                "inflight": self._inflight,
                "served": self._served,
                "rejected": self._rejected,
                "max_inflight": self._max_inflight,
                "draining": self._draining,
            },
        }

    def metrics_text(self) -> str:
        """The live Prometheus exposition of the process registry."""
        if self._slo is not None:
            # Refresh the repro_slo_* gauges so a scrape always sees
            # burn rates for "now", not for the last served request.
            self._slo.evaluate()
        return render_prometheus()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def warm_up(self) -> None:
        """Build the index snapshot before taking traffic (optional)."""
        with self._db_lock:
            if self._database.is_stale:
                self._database.refresh()

    def begin_drain(self) -> None:
        """Stop admitting requests; in-flight ones run to completion."""
        with self._gate:
            if not self._draining:
                self._draining = True
                if _obs_enabled():
                    _inst.SERVE_DRAINS.inc()

    def close(self, *, persist: bool = True) -> bool:
        """Release resources; returns True when a snapshot was persisted.

        With ``persist`` and a database configured with ``snapshot_dir``,
        state that diverged from the persisted snapshot (pending delta or
        a dropped snapshot) is rebuilt and written out so the next start
        is warm.  Safe to call more than once.
        """
        if self._closed:
            return False
        self._closed = True
        self.begin_drain()
        persisted = False
        if persist and self._database.snapshot_dir is not None:
            with self._db_lock:
                database = self._database
                if database.is_stale or database.delta_size > 0:
                    try:
                        database.refresh()
                        persisted = True
                    except ValueError:
                        pass  # no venues yet: nothing worth persisting
        if self._recorder is not None:
            self._recorder.close()
        return persisted

"""Per-query tracing: a span tree with monotonic timings + counter deltas.

A trace is opened around one query (``with trace("3dreach.query"): ...``);
instrumented code inside opens nested spans (``with span("rtree.search")``)
that record a ``time.perf_counter`` interval and the registry counter
samples that moved while the span was open.  The result attributes both
*time* and *work* to each phase of a query — the per-query analogue of
the paper's access-count tables.

When no trace is active, :func:`span` returns a shared no-op context
manager, so leaving the instrumentation in hot paths costs one ``None``
check per span site.  Traces are **thread-local** and non-reentrant (one
trace per thread): a trace opened on the serving thread never sees spans
opened by other threads.  A batch is served on the thread that traces
it, so its ``exec.chunk[i]`` spans nest like any other.

Every trace carries a **trace id** — a 32-hex-digit token in the W3C
``traceparent`` trace-id format — either supplied by the caller (e.g.
parsed from an incoming HTTP header) or generated.  Serialization to
plain dicts (:meth:`Trace.to_dict`) and per-stage wall-time attribution
(:meth:`Trace.stage_seconds`) feed the flight recorder and the
``/debug/*`` endpoints in :mod:`repro.serve`.
"""

from __future__ import annotations

import os
import re
import threading
import time
from typing import Iterator

from repro.obs.metrics import REGISTRY

__all__ = [
    "Span",
    "Trace",
    "trace",
    "span",
    "active_trace",
    "tracing",
    "new_trace_id",
    "parse_traceparent",
    "valid_request_id",
]


_TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")
_TOKEN_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def new_trace_id() -> str:
    """A fresh 128-bit trace id, 32 lowercase hex digits (W3C format)."""
    return os.urandom(16).hex()


def parse_traceparent(header: str | None) -> str | None:
    """Extract the trace-id field of a W3C ``traceparent`` header.

    ``00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>`` → trace-id.
    Returns None for a missing or malformed header (including the
    all-zero trace id the spec forbids).
    """
    if not header:
        return None
    parts = header.strip().split("-")
    if len(parts) != 4:
        return None
    trace_id = parts[1].lower()
    if not _TRACE_ID_RE.match(trace_id) or trace_id == "0" * 32:
        return None
    return trace_id


def valid_request_id(token: str | None) -> bool:
    """True iff ``token`` is acceptable as a caller-supplied request id.

    More permissive than the W3C trace-id (any short URL-safe token), so
    clients can correlate with their own ids; bounded so a hostile
    header cannot bloat logs or responses.
    """
    return bool(token) and _TOKEN_RE.match(token) is not None


class Span:
    """One timed phase of a query, with child spans and counter deltas."""

    __slots__ = (
        "name", "start", "end", "children", "counters", "_before", "_sample"
    )

    def __init__(self, name: str, *, sample_counters: bool = True) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.children: list["Span"] = []
        # Counter samples that changed while the span was open:
        # sample_key -> delta (includes work done in child spans).
        self.counters: dict[str, int | float] = {}
        self._before: dict[str, int | float] = {}
        # Root spans of serving traces skip the registry walk: their
        # deltas are redundant with the children's, and the walk is the
        # single biggest source of unattributed root self-time.
        self._sample = sample_counters

    @property
    def duration(self) -> float:
        """Wall-clock seconds between span open and close."""
        return self.end - self.start

    def walk(self) -> Iterator[tuple[int, "Span"]]:
        """Yield ``(depth, span)`` pairs in pre-order."""
        stack: list[tuple[int, Span]] = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def _open(self) -> None:
        # Timestamps bracket the counter sampling: the cost of walking
        # the registry is charged to *this* span's interval, not left as
        # unattributed time on the parent (with several stage spans per
        # request those walks would otherwise dominate the gap).
        self.start = time.perf_counter()
        if self._sample:
            self._before = REGISTRY.counter_samples()

    def _close(self) -> None:
        if self._sample:
            after = REGISTRY.counter_samples()
            before = self._before
            self.counters = {
                key: value - before.get(key, 0)
                for key, value in after.items()
                if value != before.get(key, 0)
            }
            self._before = {}
        self.end = time.perf_counter()

    def span_count(self) -> int:
        """Total number of spans in this subtree (including self)."""
        return sum(1 for _ in self.walk())

    def to_dict(
        self, *, origin: float | None = None, max_spans: int | None = None
    ) -> dict:
        """Serialize the subtree to plain JSON-safe dicts.

        Times become microsecond offsets relative to ``origin`` (default:
        this span's start), so serialized trees are stable across
        processes.  ``max_spans`` bounds the output size: once the budget
        is spent, remaining children are dropped and counted in a
        ``"dropped_spans"`` field on their parent — the flight recorder
        uses this to keep giant batch traces bounded in memory.
        """
        origin = self.start if origin is None else origin
        remaining = [float("inf") if max_spans is None else max_spans]

        def serialize(node: Span) -> dict:
            remaining[0] -= 1
            out: dict = {
                "name": node.name,
                "offset_us": round((node.start - origin) * 1e6, 1),
                "duration_us": round(node.duration * 1e6, 1),
            }
            if node.counters:
                out["counters"] = dict(node.counters)
            children = []
            dropped = 0
            for child in node.children:
                if remaining[0] < 1:
                    dropped += 1
                else:
                    children.append(serialize(child))
            if children:
                out["children"] = children
            if dropped:
                out["dropped_spans"] = dropped
            return out

        return serialize(self)


class Trace:
    """A completed (or in-flight) span tree for one query."""

    def __init__(
        self,
        root: Span,
        trace_id: str | None = None,
        *,
        sample_counters: bool = True,
    ) -> None:
        self.root = root
        self.trace_id = trace_id if trace_id else new_trace_id()
        # Whole-trace policy: spans opened under this trace inherit it, so a
        # ``counters=False`` serving trace never pays the registry walk.
        self.sample_counters = sample_counters

    @property
    def duration(self) -> float:
        return self.root.duration

    def stage_seconds(self) -> dict[str, float]:
        """Wall time of each *top-level* child span, name -> seconds.

        Spans sharing a name (e.g. repeated ``queue.wait``) are summed.
        This is the per-stage attribution the flight recorder and the
        JSONL access log report: direct children of the request root are
        the request's stages; deeper spans refine a stage, they never
        add to the total.
        """
        stages: dict[str, float] = {}
        for child in self.root.children:
            stages[child.name] = stages.get(child.name, 0.0) + child.duration
        return stages

    def attributed_fraction(self) -> float:
        """Share of the root's wall time covered by its stage spans."""
        total = self.duration
        if total <= 0:
            return 1.0
        covered = sum(self.stage_seconds().values())
        return max(0.0, min(1.0, covered / total))

    def to_dict(self, *, max_spans: int | None = None) -> dict:
        """Serialize trace id, duration and the span tree (JSON-safe)."""
        return {
            "trace_id": self.trace_id,
            "duration_us": round(self.duration * 1e6, 1),
            "spans": self.root.to_dict(max_spans=max_spans),
        }

    def format(self) -> str:
        """Render the span tree as indented text with us timings."""
        lines = []
        for depth, node in self.root.walk():
            label = f"{'  ' * depth}{node.name}"
            line = f"{label:<40} {node.duration * 1e6:10.1f}us"
            if node.counters:
                deltas = " ".join(
                    f"{key}={value:g}"
                    for key, value in sorted(node.counters.items())
                )
                line += f"  [{deltas}]"
            lines.append(line)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Thread-local state: the active trace and the innermost open span.
# Worker threads start with neither, so spans opened inside a parallel
# chunk are no-ops rather than racing on the serving thread's tree.
# ----------------------------------------------------------------------
_STATE = threading.local()


def _get_active() -> Trace | None:
    return getattr(_STATE, "active", None)


def _get_current() -> Span | None:
    return getattr(_STATE, "current", None)


def active_trace() -> Trace | None:
    """Return the trace currently being recorded on this thread, if any."""
    return _get_active()


def tracing() -> bool:
    """True iff a trace is being recorded on this thread right now."""
    return _get_active() is not None


class _NoopSpan:
    """Shared do-nothing context manager for the inactive fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _SpanContext:
    __slots__ = ("_span", "_parent")

    def __init__(self, name: str, *, sample_counters: bool = True) -> None:
        self._span = Span(name, sample_counters=sample_counters)
        self._parent: Span | None = None

    def __enter__(self) -> Span:
        self._parent = _get_current()
        if self._parent is not None:
            self._parent.children.append(self._span)
        _STATE.current = self._span
        self._span._open()
        return self._span

    def __exit__(self, *exc_info) -> bool:
        self._span._close()
        _STATE.current = self._parent
        return False


def span(name: str):
    """Open a child span of the running trace; no-op when not tracing."""
    active = _get_active()
    if active is None:
        return _NOOP_SPAN
    return _SpanContext(name, sample_counters=active.sample_counters)


class trace:
    """Record a span tree for the enclosed block.

    Usage::

        with obs.trace("query") as t:
            method.query(v, region)
        print(t.format())

    Traces do not nest — a second ``trace`` while one is active on the
    same thread raises, which catches accidental tracing of re-entrant
    query paths.  ``trace_id`` pins the trace's identity (e.g. a request
    id parsed from an HTTP header); omitted, a fresh W3C-format id is
    generated.  ``counters=False`` disables counter sampling for the
    whole trace, root and child spans alike, and the serving path uses
    it: two registry walks per span would dominate sub-millisecond
    requests, and the deltas are redundant with the aggregate
    ``/metrics`` counters.
    """

    def __init__(
        self,
        name: str,
        *,
        trace_id: str | None = None,
        counters: bool = True,
    ) -> None:
        self._context = _SpanContext(name, sample_counters=counters)
        self._trace = Trace(
            self._context._span, trace_id=trace_id, sample_counters=counters
        )

    def __enter__(self) -> Trace:
        if _get_active() is not None:
            raise RuntimeError("a trace is already active")
        _STATE.active = self._trace
        self._context.__enter__()
        return self._trace

    def __exit__(self, *exc_info) -> bool:
        self._context.__exit__(*exc_info)
        _STATE.active = None
        _STATE.current = None
        return False

"""Stdlib HTTP front-end for :class:`~repro.serve.service.QueryService`.

One :class:`~http.server.ThreadingHTTPServer` exposes the service as
JSON endpoints:

========  =============  =================================================
method    path           semantics
========  =============  =================================================
GET       /healthz       liveness + SLO burn rates (503 once draining)
GET       /stats         database + serving counters
GET       /metrics       Prometheus text exposition of the process registry
GET       /debug/traces  flight recorder: recent/sampled traces, ``?id=``
                         looks one request up by its id
GET       /debug/slow    the K slowest retained requests, slowest first
GET       /debug/errors  retained errored requests, newest first
POST      /v1            the versioned envelope: query / batch / write
========  =============  =================================================

Status codes: 400 malformed request, 404 unknown path, 405 wrong
method, 429 admission control, 503 draining, 504 batch deadline.

**The /v1 envelope.**  ``POST /v1`` takes one JSON object
``{"op": "query"|"batch"|"write", "method": ..., ...}`` (see
:meth:`QueryService.v1`) and is *strict*: unknown fields for the
(op, method) pair and fields appearing twice in the JSON body are 400s
naming the offending field(s).  The pre-/v1 endpoints (``/query``,
``/batch``, ``/write``) were removed after one deprecation cycle and
answer 404 like any unknown path.

**Request ids.**  Every request gets an id: the trace-id of an incoming
W3C ``traceparent`` header, else a well-formed ``X-Request-Id`` header,
else a freshly generated 32-hex id.  Every response — success, error,
404, even ``/metrics`` — echoes it in the ``X-Request-Id`` header;
error bodies carry it as ``"request_id"`` so a failing client log line
can be joined against the server's flight recorder
(``/debug/traces?id=...``) without header plumbing.  A ``/v1`` request
runs under a trace rooted at the endpoint name whose id *is* the
request id; stages (``parse`` / ``admit`` / ``queue.wait`` /
``exec`` / ``encode``) and a deadline batch's ``exec.chunk[i]`` spans
nest in that tree.

**Graceful drain.**  :func:`run_server` installs SIGTERM/SIGINT
handlers; on the first signal the server stops accepting connections,
idle keep-alive connections are shut down, in-flight requests run to
completion (their handler threads are joined), and the snapshot is
persisted when the service's database has a ``snapshot_dir``.  A
request that was being processed when the signal arrived always gets
its response — only connections with *no request in progress* are cut.
"""

from __future__ import annotations

import json
import signal
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from repro.exec import BatchTimeoutError
from repro.obs import instruments as _inst
from repro.obs.metrics import enabled as _obs_enabled
from repro.obs.slo import op_endpoint
from repro.obs.trace import (
    new_trace_id,
    parse_traceparent,
    span as _tspan,
    trace as _trace,
    valid_request_id,
)
from repro.serve.service import V1_OPS, QueryService, ServiceError

__all__ = ["QueryHTTPServer", "run_server", "start_server"]

#: Grace period between stopping the accept loop and cutting idle
#: connections: a request parsed just before shutdown gets to flip its
#: handler to busy first.
_DRAIN_GRACE_SECONDS = 0.05


class _Handler(BaseHTTPRequestHandler):
    """Routes requests into the service; JSON in, JSON out."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    server: "QueryHTTPServer"

    # Set while a parsed request is being served; the drain logic never
    # cuts a connection whose handler is busy.
    busy = False
    # Per-request id, assigned at dispatch; echoed on every response.
    request_id = ""
    # Object keys the strict JSON parse saw twice (handlers persist
    # across keep-alive requests, so _dispatch resets it).
    _duplicate_fields: tuple[str, ...] = ()

    def setup(self) -> None:
        super().setup()
        self.server._track(self)

    def finish(self) -> None:
        self.server._untrack(self)
        super().finish()

    def log_message(self, format: str, *args) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        self.busy = True
        try:
            endpoint, _, query = self.path.partition("?")
            self._query = parse_qs(query) if query else {}
            self.request_id = self._extract_request_id()
            self._duplicate_fields = ()
            service = self.server.service
            route = _ROUTES.get(endpoint)
            if route is None:
                self._send_json(
                    404,
                    {
                        "error": f"unknown path {endpoint!r}",
                        "request_id": self.request_id,
                    },
                    endpoint="unknown",
                )
                return
            expected_method, handler = route
            if method != expected_method:
                self._send_json(
                    405,
                    {
                        "error": f"{endpoint} expects {expected_method}",
                        "request_id": self.request_id,
                    },
                    endpoint=endpoint,
                )
                return
            handler(self, service, endpoint)
        finally:
            self.busy = False
            if self.server.draining:
                # Drained connections close after their last response.
                self.close_connection = True

    # -- endpoint handlers ---------------------------------------------
    def _get_healthz(self, service: QueryService, endpoint: str) -> None:
        payload = service.health()
        code = 503 if payload["status"] == "draining" else 200
        self._send_json(code, payload, endpoint=endpoint)

    def _get_stats(self, service: QueryService, endpoint: str) -> None:
        self._send_json(200, service.stats(), endpoint=endpoint)

    def _get_metrics(self, service: QueryService, endpoint: str) -> None:
        body = service.metrics_text().encode("utf-8")
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        if self.request_id:
            self.send_header("X-Request-Id", self.request_id)
        self.end_headers()
        self.wfile.write(body)
        self._count(endpoint, 200)

    def _post_v1(self, service: QueryService, endpoint: str) -> None:
        started_wall = time.time()
        t0 = time.perf_counter()
        finished_trace = None
        if service.tracing_enabled:
            with _trace(
                endpoint, trace_id=self.request_id, counters=False
            ) as tr:
                status, error, sli = self._run_admitted(service, endpoint)
            finished_trace = tr
        else:
            status, error, sli = self._run_admitted(service, endpoint)
        service.observe_request(
            endpoint,
            status,
            finished_trace,
            sli=sli,
            duration=time.perf_counter() - t0,
            started=started_wall,
            error=error,
        )

    def _run_admitted(
        self, service: QueryService, endpoint: str
    ) -> tuple[int, str | None, str]:
        """Parse, admit, execute, respond; returns (status, error, sli).

        ``sli`` is the label the request is counted under: ``/v1:<op>``
        once the envelope names a known op (the SLO objectives are per
        op), the bare endpoint for bodies that never got that far.
        """
        sli = endpoint
        try:
            with _tspan("parse"):
                payload = self._read_json()
            if payload.get("op") in V1_OPS:
                sli = op_endpoint(endpoint, payload["op"])
            with service.admit():
                result = service.v1(
                    payload, duplicates=self._duplicate_fields
                )
        except BatchTimeoutError as exc:
            self._send_json(
                504,
                {
                    "error": str(exc),
                    "completed_chunks": exc.completed,
                    "total_chunks": exc.total,
                    "request_id": self.request_id,
                },
                endpoint=sli,
            )
            return 504, str(exc), sli
        except ServiceError as exc:
            body = {"error": str(exc), "request_id": self.request_id}
            headers = {}
            if exc.status in (429, 503):
                headers["Retry-After"] = "1"
            self._send_json(exc.status, body, endpoint=sli, headers=headers)
            return exc.status, str(exc), sli
        else:
            self._send_json(200, result, endpoint=sli)
            return 200, None, sli

    # -- flight-recorder debug endpoints --------------------------------
    def _recorder_or_404(self, service: QueryService, endpoint: str):
        recorder = service.recorder
        if recorder is None:
            self._send_json(
                404,
                {
                    "error": "flight recorder disabled",
                    "request_id": self.request_id,
                },
                endpoint=endpoint,
            )
        return recorder

    def _query_param(self, name: str) -> str | None:
        values = self._query.get(name)
        return values[0] if values else None

    def _limit_param(self) -> int | None:
        raw = self._query_param("n")
        if raw is None:
            return None
        try:
            return max(1, int(raw))
        except ValueError:
            return None

    def _get_debug_traces(self, service: QueryService, endpoint: str) -> None:
        recorder = self._recorder_or_404(service, endpoint)
        if recorder is None:
            return
        trace_id = self._query_param("id")
        if trace_id:
            entry = recorder.find(trace_id)
            if entry is None:
                self._send_json(
                    404,
                    {
                        "error": f"no retained trace with id {trace_id!r}",
                        "request_id": self.request_id,
                    },
                    endpoint=endpoint,
                )
            else:
                self._send_json(200, {"trace": entry}, endpoint=endpoint)
            return
        limit = self._limit_param()
        self._send_json(
            200,
            {
                "recent": recorder.recent(limit),
                "sampled": recorder.sampled(limit),
                "stats": recorder.stats(),
            },
            endpoint=endpoint,
        )

    def _get_debug_slow(self, service: QueryService, endpoint: str) -> None:
        recorder = self._recorder_or_404(service, endpoint)
        if recorder is None:
            return
        self._send_json(
            200,
            {"slowest": recorder.slowest(self._limit_param())},
            endpoint=endpoint,
        )

    def _get_debug_errors(self, service: QueryService, endpoint: str) -> None:
        recorder = self._recorder_or_404(service, endpoint)
        if recorder is None:
            return
        self._send_json(
            200,
            {"errors": recorder.errors(self._limit_param())},
            endpoint=endpoint,
        )

    # -- plumbing ------------------------------------------------------
    def _extract_request_id(self) -> str:
        """The request's id: traceparent > X-Request-Id > generated."""
        trace_id = parse_traceparent(self.headers.get("traceparent"))
        if trace_id is not None:
            return trace_id
        token = self.headers.get("X-Request-Id")
        if token is not None and valid_request_id(token):
            return token
        return new_trace_id()

    def _read_json(self) -> dict:
        from repro.serve.service import BadRequestError

        length = self.headers.get("Content-Length")
        try:
            nbytes = int(length) if length is not None else 0
        except ValueError:
            raise BadRequestError("bad Content-Length") from None
        if nbytes <= 0:
            raise BadRequestError("request body required")
        raw = self.rfile.read(nbytes)
        duplicates: list[str] = []

        def _no_duplicates(pairs):
            out: dict = {}
            for key, value in pairs:
                if key in out:
                    duplicates.append(key)
                out[key] = value
            return out

        try:
            payload = json.loads(raw, object_pairs_hook=_no_duplicates)
        except ValueError:
            raise BadRequestError("request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        self._duplicate_fields = tuple(duplicates)
        return payload

    def _send_json(
        self,
        code: int,
        payload: dict,
        *,
        endpoint: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        # No-op outside a traced request; inside one, serialization and
        # the response write are the trace's ``encode`` stage.
        with _tspan("encode"):
            body = json.dumps(payload).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.request_id:
                self.send_header("X-Request-Id", self.request_id)
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)
            self._count(endpoint, code)

    def _count(self, endpoint: str, code: int) -> None:
        if _obs_enabled():
            _inst.SERVE_REQUESTS.labels(
                endpoint=endpoint, code=str(code)
            ).inc()


_ROUTES = {
    "/healthz": ("GET", _Handler._get_healthz),
    "/stats": ("GET", _Handler._get_stats),
    "/metrics": ("GET", _Handler._get_metrics),
    "/debug/traces": ("GET", _Handler._get_debug_traces),
    "/debug/slow": ("GET", _Handler._get_debug_slow),
    "/debug/errors": ("GET", _Handler._get_debug_errors),
    "/v1": ("POST", _Handler._post_v1),
}


class QueryHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`QueryService`.

    ``block_on_close`` (the ThreadingMixIn default) makes
    ``server_close`` join every live handler thread, which is exactly
    the drain guarantee: responses in flight are written before the
    process exits.
    """

    daemon_threads = True  # never block interpreter exit on a stuck peer
    allow_reuse_address = True
    # The socketserver default backlog (5) resets connections under a
    # synchronized burst before admission control ever sees them; the
    # bounded in-flight gate is the real limit, so accept generously.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service: QueryService,
        *,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        self.draining = False
        self._handlers_lock = threading.Lock()
        self._handlers: set[_Handler] = set()
        super().__init__(address, _Handler)

    # -- connection registry -------------------------------------------
    def _track(self, handler: _Handler) -> None:
        with self._handlers_lock:
            self._handlers.add(handler)

    def _untrack(self, handler: _Handler) -> None:
        with self._handlers_lock:
            self._handlers.discard(handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    # -- graceful shutdown ---------------------------------------------
    def drain(self, *, persist: bool = True) -> dict:
        """Stop accepting, cut idle connections, finish in-flight work.

        Returns a summary dict (in-flight count at drain start, whether
        a snapshot was persisted).  Must not be called from a handler
        thread.
        """
        self.draining = True
        self.service.begin_drain()
        inflight = self.service.inflight
        self.shutdown()  # stop the accept loop (blocks until it exits)
        time.sleep(_DRAIN_GRACE_SECONDS)
        with self._handlers_lock:
            idle = [h for h in self._handlers if not h.busy]
        for handler in idle:
            # Unblock the keep-alive readline; the handler loop sees EOF
            # and exits.  A request racing this shutdown is, by
            # definition, not in flight yet.
            try:
                handler.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self.server_close()  # joins handler threads: in-flight finishes
        persisted = self.service.close(persist=persist)
        return {"inflight_at_drain": inflight, "persisted": persisted}


def start_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
) -> QueryHTTPServer:
    """Start a server on a background thread (tests, benchmarks).

    ``port=0`` binds an ephemeral port; read it back from
    ``server.port``.  Stop with ``server.drain()``.
    """
    server = QueryHTTPServer((host, port), service, verbose=verbose)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server


def run_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
    ready=None,
) -> int:
    """Serve in the foreground until SIGTERM/SIGINT, then drain.

    The CLI entry point: installs signal handlers, announces readiness
    (``ready`` callback or a line on stdout), blocks in the accept
    loop, and performs the graceful drain on the first signal.  Returns
    0 after a clean drain.
    """
    server = QueryHTTPServer((host, port), service, verbose=verbose)
    drained: dict = {}
    done = threading.Event()

    def _drain_in_background() -> None:
        drained.update(server.drain())
        done.set()

    def _on_signal(signum, frame) -> None:
        # shutdown() deadlocks if called on the thread running
        # serve_forever (the signal handler runs on the main thread),
        # so the drain runs on a helper thread.
        if not server.draining:
            threading.Thread(
                target=_drain_in_background, name="repro-serve-drain",
                daemon=True,
            ).start()

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _on_signal),
        signal.SIGINT: signal.signal(signal.SIGINT, _on_signal),
    }
    try:
        if ready is not None:
            ready(server)
        else:
            print(
                f"serving on http://{host}:{server.port} "
                f"(max_inflight={service.max_inflight})",
                flush=True,
            )
        server.serve_forever()
        done.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print(
        f"drained: {drained.get('inflight_at_drain', 0)} in flight, "
        f"snapshot_persisted={drained.get('persisted', False)}",
        file=sys.stderr,
        flush=True,
    )
    return 0

"""Shared parts of the end-to-end benchmark.

Inputs (frozen datasets and query sets), the exact oracle every answer
is checked against, percentile/quartile helpers, the benchmark-side
span recorder, the ``python -m repro serve`` subprocess lifecycle and a
minimal HTTP client.  ``run.py`` puts ``src/`` on ``sys.path`` before
importing this module; nothing here edits or reaches into the program
under test beyond its public API.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException
from pathlib import Path

import numpy as np

from repro.core.oracle import RangeReachOracle
from repro.datasets import make_network
from repro.geometry import Rect
from repro.kernels import resolve_backend
from repro.workloads import (
    DEFAULT_DEGREE_BUCKETS,
    QueryWorkload,
    save_workload,
)

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
RESULTS = HERE / "results"

#: The networks and the ``fig7.<dataset>`` query sets are *frozen*: they
#: play the role of the paper's fixed datasets, so they are generated
#: from this constant, not from ``--seed``.  (A handful of negative
#: GeoReach queries cost 150 ms against ~2 ms for the rest; re-drawing
#: the set per seed moves the method means by 20-40 %, which would bury
#: any code change.)  ``--seed`` drives what a benchmark may vary
#: without changing what is measured: issue order, the churn op stream,
#: the open-loop arrival times.
FROZEN_SEED = 11

METHODS = ("3dreach", "3dreach-rev", "socreach", "spareach-bfl", "georeach")
LABELING_METHODS = METHODS[:3]
ALL_DEGREES = (1, 10**9)

pc = time.perf_counter


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_mean(values) -> float:
    """Mean of the values between the 90th and the 99th percentile.

    The tail statistic of ``read_tail_us``.  A single high percentile of
    a *frozen* query set is unsteady twice over: the set's costs come in
    clusters, so when a cluster boundary sits at the percentile (a 5 %
    cluster of 7 ms reads on the sharded path) the order statistic jumps
    between clusters with the least noise; and one ~40 ms stall touches
    ~1 % of a sample, which flips a p99 tenfold.  Averaging the slowest
    tenth while leaving out the slowest hundredth is smooth across the
    first and blind to the second.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = min(int(n * 0.90), n - 1)
    hi = max(lo + 1, int(n * 0.99))
    return sum(ordered[lo:hi]) / (hi - lo)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, statistics.median(values), q3)


def across_passes(values) -> dict:
    """Median across passes with the quartiles and the pass count."""
    q1, med, q3 = quartiles(values)
    return {"value": med, "q1": q1, "q3": q3, "passes": len(values)}


def us(seconds: float) -> float:
    return seconds * 1e6


# ----------------------------------------------------------------------
# Frozen inputs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DatasetSpec:
    profile: str
    scale: float

    @property
    def name(self) -> str:
        return f"{self.profile}@{self.scale:g}"


class Dataset:
    """One frozen network with its ``fig7`` query set and true answers.

    ``cells[i]`` is the ``(extent_pct, degree_bucket)`` the i-th query
    was drawn for; ``truth[i]`` its exact answer (see :class:`Oracle`).
    """

    def __init__(self, spec: DatasetSpec, *, per_extent: int = 300,
                 per_bucket: int = 60) -> None:
        self.spec = spec
        self.network = make_network(spec.profile, spec.scale, FROZEN_SEED)
        workload = QueryWorkload(
            self.network, seed=FROZEN_SEED, center_mode="uniform"
        )
        self.queries = []
        self.cells: list[tuple[float, tuple[int, int]]] = []
        for extent in (1.0, 5.0, 20.0):
            batch = workload.batch_by_extent(extent, ALL_DEGREES, per_extent)
            self.queries += batch
            self.cells += [(extent, ALL_DEGREES)] * len(batch)
        for bucket in DEFAULT_DEGREE_BUCKETS:
            batch = workload.batch_by_extent(5.0, bucket, per_bucket)
            self.queries += batch
            self.cells += [(5.0, bucket)] * len(batch)
        self.pairs = [(q.vertex, q.region) for q in self.queries]
        self.oracle = Oracle(self.network)
        self.truth = [self.oracle.query(v, r) for v, r in self.pairs]
        self._check_oracle()

    def _check_oracle(self) -> None:
        """The fast oracle itself is checked against the repo's BFS
        oracle on a fixed stride, so a bug in it cannot pass silently."""
        reference = RangeReachOracle(self.network)
        stride = max(1, len(self.pairs) // 40)
        for (v, region), expected in zip(
            self.pairs[::stride], self.truth[::stride]
        ):
            if reference.query(v, region) != expected:
                raise AssertionError(
                    f"benchmark oracle disagrees with RangeReachOracle on "
                    f"({v}, {region}) of {self.spec.name}"
                )

    def indices_with_extent(self, extent: float) -> list[int]:
        return [i for i, (e, _) in enumerate(self.cells) if e == extent]

    def dump(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        save_workload(
            self.queries, directory / f"fig7.{self.spec.name}.workload"
        )


class Oracle:
    """Exact RangeReach answers by a numpy frontier BFS over an edge set.

    Index-free like :class:`repro.core.oracle.RangeReachOracle` (and
    checked against it), but ~30x faster on negative answers, so *every*
    read of a run can be compared, not a sample.  Edges can be added and
    removed, which is how ``embedded_churn`` keeps a live model of what
    the database was told.
    """

    def __init__(self, network) -> None:
        n = network.num_vertices
        edges = np.array(list(network.graph.edges()), dtype=np.int64)
        edges = edges.reshape(-1, 2)
        order = np.argsort(edges[:, 0], kind="stable")
        self._targets = edges[order, 1]
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(edges[:, 0], minlength=n), out=self._indptr[1:])
        self._alive = np.ones(len(self._targets), dtype=bool)
        self._extra: dict[int, list[int]] = {}
        self._xs = np.full(n, np.nan)
        self._ys = np.full(n, np.nan)
        for v, point in enumerate(network.points):
            if point is not None:
                self._xs[v] = point.x
                self._ys[v] = point.y
        self._reach_cache: dict[int, np.ndarray] = {}

    def add_edge(self, source: int, target: int) -> None:
        self._extra.setdefault(source, []).append(target)
        self._reach_cache.clear()

    def remove_edge(self, source: int, target: int) -> None:
        extra = self._extra.get(source)
        if extra is not None and target in extra:
            extra.remove(target)
        else:
            lo, hi = self._indptr[source], self._indptr[source + 1]
            slot = lo + int(np.flatnonzero(self._targets[lo:hi] == target)[0])
            self._alive[slot] = False
        self._reach_cache.clear()

    def _reachable(self, v: int) -> np.ndarray:
        cached = self._reach_cache.get(v)
        if cached is not None:
            return cached
        indptr, targets, alive = self._indptr, self._targets, self._alive
        visited = np.zeros(len(indptr) - 1, dtype=bool)
        visited[v] = True
        frontier = np.array([v], dtype=np.int64)
        extra = self._extra
        while frontier.size:
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            total = int(counts.sum())
            slots = np.repeat(starts - np.cumsum(counts) + counts, counts)
            slots += np.arange(total)
            found = targets[slots[alive[slots]]]
            if extra:
                added = [
                    t for u in frontier.tolist() if u in extra
                    for t in extra[u]
                ]
                if added:
                    found = np.concatenate(
                        [found, np.array(added, dtype=np.int64)]
                    )
            fresh = np.zeros(len(visited), dtype=bool)
            fresh[found] = True
            fresh &= ~visited
            visited |= fresh
            frontier = np.flatnonzero(fresh)
        if len(self._reach_cache) < 4096:
            self._reach_cache[v] = visited
        return visited

    def query(self, v: int, region: Rect) -> bool:
        xs, ys = self._xs, self._ys
        reach = self._reachable(v)
        # NaN coordinates (non-spatial vertices) compare False throughout.
        inside = (
            (xs >= region.xlo) & (xs <= region.xhi)
            & (ys >= region.ylo) & (ys <= region.yhi)
        )
        return bool(np.any(reach & inside))


class ChurnStream:
    """A seeded stream of database ops in blocks of exact composition:
    90 % reads, 10 % writes of which one removes a seed edge and the
    rest alternate ``add_follow`` / ``add_checkin``.

    The mix is exact per block instead of drawn per op, and the edges
    written are frozen like the query sets (what the overlay costs
    depends on which users gain an edge), so two seeds do the same work
    and differ in how the ops interleave and in which order the reads
    cycle the 5 %-extent queries of the frozen set.
    """

    def __init__(self, dataset: Dataset, seed: int, block_ops: int) -> None:
        network = dataset.network
        self._rng = random.Random(f"{FROZEN_SEED}|churn-edges")
        self._order = random.Random(f"{seed}|churn-order")
        self._users = [v for v, k in enumerate(network.kinds) if k == "user"]
        self._venues = [v for v, k in enumerate(network.kinds) if k == "venue"]
        self._edges = set(network.graph.edges())
        seed_edges = sorted(self._edges)
        self._rng.shuffle(seed_edges)
        first_venue = self._venues[0]
        self._follows = [e for e in seed_edges if e[1] < first_venue]
        self._checkins = [e for e in seed_edges if e[1] >= first_venue]
        five = dataset.indices_with_extent(5.0)
        self._reads = shuffled([dataset.pairs[i] for i in five], seed, "reads")
        self._cursor = 0
        self.block_ops = block_ops
        self.blocks = 0

    def _new_edge(self, targets: list[int]) -> tuple[int, int]:
        while True:
            edge = (self._rng.choice(self._users), self._rng.choice(targets))
            if edge[0] != edge[1] and edge not in self._edges:
                self._edges.add(edge)
                return edge

    def next_block(self) -> list[tuple]:
        """``(kind, a, b)`` ops; ``kind`` names the database method, or
        ``"read"`` with ``a, b`` the query vertex and region."""
        writes = self.block_ops // 10
        follows = self.blocks % 2 == 0
        removed = (self._follows if follows else self._checkins).pop()
        self._edges.discard(removed)
        ops: list[tuple] = [
            ("remove_follow" if follows else "remove_checkin", *removed)
        ]
        for i in range(writes - 1):
            if i % 2 == 0:
                ops.append(("add_follow", *self._new_edge(self._users)))
            else:
                ops.append(("add_checkin", *self._new_edge(self._venues)))
        for _ in range(self.block_ops - writes):
            ops.append(("read", *self._reads[self._cursor % len(self._reads)]))
            self._cursor += 1
        self._order.shuffle(ops)
        self.blocks += 1
        return ops


def shuffled(items, seed, tag: str) -> list:
    """A seed-determined permutation (the only thing ``--seed`` changes
    about a frozen query set is the order it is issued in)."""
    out = list(items)
    random.Random(f"{seed}|{tag}").shuffle(out)
    return out


def region_json(region: Rect) -> list[float]:
    return [region.xlo, region.ylo, region.xhi, region.yhi]


def v1_query(v: int, region: Rect) -> dict:
    return {"op": "query", "vertex": v, "region": region_json(region)}


def v1_batch(pairs) -> dict:
    return {
        "op": "batch",
        "queries": [[v, region_json(region)] for v, region in pairs],
    }


# ----------------------------------------------------------------------
# Timing loops
# ----------------------------------------------------------------------
def time_calls(fn, pairs) -> tuple[list[float], list]:
    """Call ``fn(v, region)`` per pair; per-call seconds and the answers."""
    durations: list[float] = []
    answers: list = []
    record, keep = durations.append, answers.append
    for v, region in pairs:
        t0 = pc()
        answer = fn(v, region)
        record(pc() - t0)
        keep(answer)
    return durations, answers


class Tally:
    """Attempted/failed operation counts with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, answers, expected, what: str) -> None:
        self.attempted += len(expected)
        wrong = sum(1 for a, e in zip(answers, expected) if a != e)
        wrong += abs(len(answers) - len(expected))
        if wrong:
            self.fail(wrong, f"{what}: {wrong} answers differ from the oracle")

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.reasons) < 10:
            self.reasons.append(reason)


# ----------------------------------------------------------------------
# Benchmark-side spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans recorded by the benchmark around calls into a layer.

    A span is ``(id, parent, name, request_id, start, end)``; spans of
    one request share ``request_id``.  ``replay=True`` marks a span that
    re-ran the same query directly against an inner layer the benchmark
    cannot wrap in place (the engine and kernels live inside the
    database); it is linked under the span it decomposes.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def begin(self, name: str, *, parent=None, request_id=None,
              replay: bool = False) -> int:
        """Open a span now; returns its id (the parent of inner spans)."""
        self.spans.append({
            "id": len(self.spans), "parent": parent, "name": name,
            "request_id": request_id, "start": pc(), "end": None,
            "replay": replay,
        })
        return len(self.spans) - 1

    def end(self, span_id: int) -> None:
        self.spans[span_id]["end"] = pc()

    def timed(self, name: str, fn, *args, parent=None, request_id=None,
              replay: bool = False):
        """``fn(*args)`` inside a span; returns ``(result, span_id)``."""
        span_id = self.begin(name, parent=parent, request_id=request_id,
                             replay=replay)
        result = fn(*args)
        self.end(span_id)
        return result, span_id

    def add(self, name: str, start: float, end: float, **links) -> int:
        """A span whose times were measured elsewhere (server stages)."""
        span_id = self.begin(name, **links)
        self.spans[span_id].update(start=start, end=end)
        return span_id

    def self_times(self) -> dict[str, list[float]]:
        """Per span name: duration minus what the child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: dict[str, list[float]] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - covered[span["id"]]
            out.setdefault(span["name"], []).append(max(0.0, own))
        return out

    def dump(self, path: Path, *, limit: int = 20000) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self_us = {
            name: {"p50_us": us(statistics.median(v)), "spans": len(v)}
            for name, v in self.self_times().items()
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"self_time": self_us, "total_spans": len(self.spans),
                 "spans": self.spans[:limit]},
                handle,
            )


# ----------------------------------------------------------------------
# Process facts
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int | None = None) -> float:
    """``VmHWM`` of a process (default: this one) in MB."""
    with open(f"/proc/{pid or os.getpid()}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")


def fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": resolve_backend(None),
        "git_sha": sha,
    }


def cpu_jiffies() -> tuple[int, int]:
    """``(stolen, total)`` CPU time of the machine so far, from
    ``/proc/stat``.  The share stolen during a run says whether a slow
    run was the host's doing (another guest on the same cores)."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self) -> None:
        self.path = HERE / ".work" / f"run-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run is using it


# ----------------------------------------------------------------------
# HTTP client and server lifecycle
# ----------------------------------------------------------------------
_JSON_HEADERS = {"Content-Type": "application/json"}
CLIENT_TIMEOUT = 30.0


def post(conn: HTTPConnection, payload: dict, request_id: str | None = None):
    """One ``POST /v1`` on an open connection; ``(status, body)``."""
    headers = _JSON_HEADERS
    if request_id is not None:
        headers = {**_JSON_HEADERS, "X-Request-Id": request_id}
    conn.request("POST", "/v1", json.dumps(payload), headers)
    response = conn.getresponse()
    raw = response.read()
    return response.status, json.loads(raw)


def post_fresh(port: int, payload: dict, request_id: str | None = None):
    """One ``POST /v1`` on a connection of its own."""
    conn = HTTPConnection("127.0.0.1", port, timeout=CLIENT_TIMEOUT)
    try:
        return post(conn, payload, request_id)
    finally:
        conn.close()


def get_json(port: int, path: str):
    conn = HTTPConnection("127.0.0.1", port, timeout=CLIENT_TIMEOUT)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _split_cpus() -> tuple[set[int], set[int]]:
    """The server gets the first CPU this process may use, the load
    generator the rest; on a single CPU both share it (no pinning)."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return set(), set()
    if len(cpus) < 2:
        return set(), set()
    return {cpus[0]}, set(cpus[1:])


#: Left to the scheduler, the server and the two senders settled run by
#: run into one of two states (~1 500 or ~1 200 requests/s at saturation,
#: p50 at 800 rps 1.0 or 2.0 ms), which made every HTTP metric bimodal;
#: pinned apart they reach ~1 800 requests/s in every run.
SERVER_CPUS, CLIENT_CPUS = _split_cpus()


@contextlib.contextmanager
def _affinity(cpus: set[int]):
    """Run the body (of this thread) on ``cpus``; threads and processes
    started inside inherit it."""
    if not cpus:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def pin_load_generator() -> None:
    """Keep this thread, and every thread it starts from now on, off the
    server's CPU."""
    if CLIENT_CPUS:
        os.sched_setaffinity(0, CLIENT_CPUS)


class Server:
    """``python -m repro serve ... --port 0`` as a child process.

    ``start(first)`` returns the seconds from spawn to the first 200
    answer to ``first`` (a ``(v, region, expected)`` triple): the time a
    restarted service keeps its callers waiting.  The child is always
    SIGTERMed and reaped by ``stop()``/``__exit__``, whatever ended the
    ``with`` block.
    """

    READY_TIMEOUT = 120.0

    def __init__(self, serve_args: list[str], log_dir: Path) -> None:
        self._args = [
            sys.executable, "-m", "repro", "serve", *serve_args, "--port", "0",
        ]
        self._log_dir = log_dir
        self._proc: subprocess.Popen | None = None
        self._stderr = None
        self.port = 0

    def start(self, first) -> float:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._stderr = open(
            self._log_dir / f"server-{time.time_ns()}.log", "wb"
        )
        started = pc()
        with _affinity(SERVER_CPUS):     # the child inherits it at fork
            self._proc = subprocess.Popen(
                self._args, stdout=subprocess.PIPE, stderr=self._stderr,
                env=env, cwd=REPO, text=True,
            )
        lines: queue.Queue = queue.Queue()
        threading.Thread(
            target=self._pump, args=(self._proc.stdout, lines), daemon=True
        ).start()
        deadline = started + self.READY_TIMEOUT
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - pc()))
            except queue.Empty:
                raise RuntimeError("server did not announce its port") from None
            if line is None:
                raise RuntimeError(
                    f"server exited with code {self._proc.wait()} before "
                    f"serving; see {self._stderr.name}"
                )
            if line.startswith("serving on http://"):
                self.port = int(line.split("//", 1)[1].split()[0].rsplit(":", 1)[1])
                break
        while True:
            try:
                status, body = get_json(self.port, "/healthz")
                if status == 200 and body.get("status") == "ok":
                    break
            except OSError:
                pass
            if pc() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)
        v, region, expected = first
        status, body = post_fresh(self.port, v1_query(v, region))
        elapsed = pc() - started
        if status != 200 or body.get("answer") != expected:
            raise RuntimeError(f"first answer wrong: {status} {body}")
        return elapsed

    @staticmethod
    def _pump(stream, lines: queue.Queue) -> None:
        # Keeps draining after the ready line so the child never blocks
        # on a full stdout pipe.
        for line in stream:
            lines.put(line)
        lines.put(None)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self._proc.pid)

    def stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is not None:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            proc.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def median_start(make_server, first, repeats: int):
    """Start a server ``repeats`` times; the last one is kept running.

    Returns ``(server, [setup seconds per start])``.
    """
    times: list[float] = []
    for i in range(repeats):
        server = make_server()
        try:
            times.append(server.start(first))
        except BaseException:
            server.stop()
            raise
        if i < repeats - 1:
            server.stop()
    return server, times


def run_threads(target, count: int) -> None:
    """Run ``target(slot)`` on ``count`` threads, wait for all of them,
    and re-raise on this thread the first exception any of them hit."""
    errors: list[BaseException] = []

    def guarded(slot: int) -> None:
        try:
            target(slot)
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(slot,)) for slot in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(port: int, payloads: list[dict], seconds: float, *,
                clients: int = 2, keepalive: bool = True):
    """``clients`` callers, each sending its next request when the
    previous reply arrives, for ``seconds``.

    Client ``i`` cycles ``payloads[i::clients]``.  Returns the exchanges
    as ``(payload_index, started, finished, status, body)`` and the wall
    seconds of the phase.
    """
    outcomes: list[list] = [[] for _ in range(clients)]
    begin = pc()
    deadline = begin + seconds

    def client(slot: int) -> None:
        mine = list(range(slot, len(payloads), clients))
        conn = None
        out = outcomes[slot]
        try:
            k = 0
            while pc() < deadline:
                index = mine[k % len(mine)]
                k += 1
                t0 = pc()
                try:
                    if keepalive:
                        if conn is None:
                            conn = HTTPConnection(
                                "127.0.0.1", port, timeout=CLIENT_TIMEOUT
                            )
                        status, body = post(conn, payloads[index])
                    else:
                        status, body = post_fresh(port, payloads[index])
                except (OSError, HTTPException, ValueError) as exc:
                    # A refused, reset, timed-out or garbled exchange is a
                    # failed request, not a reason to stop measuring.
                    status, body = 0, {"error": repr(exc)}
                    if conn is not None:
                        conn.close()
                        conn = None
                out.append((index, t0, pc(), status, body))
        finally:
            if conn is not None:
                conn.close()

    run_threads(client, clients)
    wall = pc() - begin
    return [o for per_client in outcomes for o in per_client], wall

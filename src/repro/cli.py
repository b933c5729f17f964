"""Command-line interface.

``python -m repro <command>``:

* ``generate`` — write a synthetic dataset replica to a directory;
* ``stats``    — print the Table-3 characteristics of a saved network;
  with ``--obs`` instead run a query batch and dump the metrics registry
  as JSON or Prometheus text;
* ``label``    — build the interval labeling of a saved network's
  condensation and write it to a file (offline index construction);
* ``query``    — answer one RangeReach query with a chosen method
  (``--vertex``/``--region``), or a whole batch from a file
  (``--batch FILE``, optionally with a ``--timeout S`` deadline);
  ``--trace`` prints the per-query (or per-batch) span breakdown;
* ``serve``    — run the long-lived HTTP query service over a mutable
  :class:`~repro.system.GeosocialDatabase`, warm-starting from
  ``--snapshot-dir`` and/or seeding from a saved ``--network``;
  observability knobs: ``--access-log FILE`` (JSONL, one line per
  request with stage attribution), ``--slow-k N`` (flight-recorder
  slow-trace retention), ``--no-tracing``;
* ``slo``      — query a running server's ``/healthz`` and print the
  per-endpoint SLO burn rates (exit 0 healthy, 1 fast burn in
  progress, 2 unreachable/invalid).

Exit codes: 0 success, 2 usage/input error (one line on stderr, never a
traceback), 3 batch deadline expired.

The paper's tables and figures are regenerated by the ``bench_*.py``
scripts under ``benchmarks/`` (run with pytest); the end-to-end benchmark
is ``python benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext

from repro import obs
from repro.core import METHOD_REGISTRY, build_method, build_methods
from repro.datasets import DATASET_PROFILES, make_network
from repro.exec import BatchTimeoutError, run_batch
from repro.geometry import Rect
from repro.geosocial import GeosocialNetwork, condense_network
from repro.labeling import build_labeling, build_reversed_labeling, save_labeling
from repro.pipeline import BuildContext


def _cmd_generate(args: argparse.Namespace) -> int:
    network = make_network(args.profile, scale=args.scale, seed=args.seed)
    network.save(args.directory)
    stats = network.stats()
    print(
        f"wrote {args.directory}: |V|={stats.num_vertices} "
        f"|E|={stats.num_edges} |P|={stats.num_spatial}"
    )
    if args.verify:
        from repro.datasets import validate_network

        report = validate_network(network, args.profile)
        print(report.summary())
        if not report.ok:
            return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    network = GeosocialNetwork.load(args.directory)
    if args.obs:
        return _dump_obs(network, args)
    s = network.stats()
    print(f"dataset      {s.name}")
    print(f"#users       {s.num_users}")
    print(f"#venues      {s.num_venues}")
    print(f"#checkins    {s.num_checkin_edges}")
    print(f"|V|          {s.num_vertices}")
    print(f"|E|          {s.num_edges}")
    print(f"|P|          {s.num_spatial}")
    print(f"#SCCs        {s.num_sccs}")
    print(f"largest SCC  {s.largest_scc}")
    return 0


def _dump_obs(network: GeosocialNetwork, args: argparse.Namespace) -> int:
    """Run a query batch with metrics on, then print the registry."""
    from repro.workloads import QueryWorkload

    methods = args.obs_methods or sorted(METHOD_REGISTRY)
    for name in methods:
        if name not in METHOD_REGISTRY:
            known = ", ".join(sorted(METHOD_REGISTRY))
            print(f"error: unknown method {name!r}; known: {known}",
                  file=sys.stderr)
            return 2
    queries = QueryWorkload(network, seed=args.seed).batch_by_extent(
        5.0, (1, 10**9), args.obs_queries
    )
    obs.REGISTRY.reset()
    with obs.observability(True):
        # One shared BuildContext: the dump also shows the pipeline's
        # cache hit/miss counters for the build phase.
        built = build_methods(methods, network)
        for method in built.values():
            for query in queries:
                method.query(query.vertex, query.region)
    if args.obs == "json":
        print(obs.render_json())
    else:
        print(obs.render_prometheus(), end="")
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    network = GeosocialNetwork.load(args.directory)
    condensed = condense_network(network)
    start = time.perf_counter()
    if args.reversed:
        labeling = build_reversed_labeling(condensed.dag)
    else:
        labeling = build_labeling(condensed.dag)
    elapsed = time.perf_counter() - start
    save_labeling(labeling, args.output)
    stats = labeling.stats()
    print(
        f"wrote {args.output}: {stats.num_vertices} vertices, "
        f"{stats.compressed_labels} labels "
        f"({stats.uncompressed_labels} before compression), "
        f"built in {elapsed:.2f}s"
    )
    return 0


def _parse_region(raw: str) -> Rect:
    parts = raw.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "region must be xlo,ylo,xhi,yhi (four comma-separated numbers)"
        )
    try:
        xlo, ylo, xhi, yhi = (float(p) for p in parts)
        return Rect(xlo, ylo, xhi, yhi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_batch_file(path: str) -> list[tuple[int, Rect]]:
    """Parse a batch file: one ``vertex xlo,ylo,xhi,yhi`` per line.

    Blank lines and ``#`` comments are skipped.  Raises ``ValueError``
    with the offending line number on malformed input.
    """
    pairs: list[tuple[int, Rect]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'vertex xlo,ylo,xhi,yhi', "
                    f"got {line!r}"
                )
            try:
                vertex = int(parts[0])
                region = _parse_region(parts[1])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            pairs.append((vertex, region))
    return pairs


def _cmd_query(args: argparse.Namespace) -> int:
    single = args.vertex is not None or args.region is not None
    if args.batch is not None and single:
        print(
            "error: --batch is mutually exclusive with --vertex/--region",
            file=sys.stderr,
        )
        return 2
    if args.batch is None and (args.vertex is None or args.region is None):
        print(
            "error: provide --vertex and --region, or --batch FILE",
            file=sys.stderr,
        )
        return 2
    network = GeosocialNetwork.load(args.directory)
    if args.batch is not None:
        return _run_query_batch(args, network)
    if not (0 <= args.vertex < network.num_vertices):
        print(
            f"error: vertex {args.vertex} outside 0..{network.num_vertices - 1}",
            file=sys.stderr,
        )
        return 2
    condensed = condense_network(network)
    context = BuildContext(condensed, kernels=args.kernels)
    build_start = time.perf_counter()
    method = build_method(args.method, condensed, context=context)
    build_elapsed = time.perf_counter() - build_start
    query_trace = None
    query_start = time.perf_counter()
    with obs.measure() as work:
        if args.trace:
            with obs.trace("query") as query_trace:
                answer = method.query(args.vertex, args.region)
        else:
            answer = method.query(args.vertex, args.region)
    query_elapsed = time.perf_counter() - query_start
    print(f"RangeReach(G, {args.vertex}, {args.region.as_tuple()}) = {answer}")
    print(
        f"method={args.method} build={build_elapsed:.3f}s "
        f"query={query_elapsed * 1e6:.1f}us"
    )
    if work:
        detail = " ".join(f"{k}={v}" for k, v in sorted(work.items()))
        print(f"work: {detail}")
    if query_trace is not None:
        print(query_trace.format())
    return 0


def _run_query_batch(args: argparse.Namespace, network: GeosocialNetwork) -> int:
    if args.timeout is not None and args.timeout <= 0:
        print("error: --timeout must be positive", file=sys.stderr)
        return 2
    try:
        pairs = _read_batch_file(args.batch)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for vertex, _ in pairs:
        if not (0 <= vertex < network.num_vertices):
            print(
                f"error: vertex {vertex} outside 0..{network.num_vertices - 1}",
                file=sys.stderr,
            )
            return 2
    condensed = condense_network(network)
    context = BuildContext(condensed, kernels=args.kernels)
    build_start = time.perf_counter()
    method = build_method(args.method, condensed, context=context)
    build_elapsed = time.perf_counter() - build_start
    query_start = time.perf_counter()
    try:
        with obs.measure() as work, (
            obs.trace("query_batch") if args.trace else nullcontext()
        ) as batch_trace:
            answers = run_batch(method.query_batch, pairs, args.timeout)
    except BatchTimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    query_elapsed = time.perf_counter() - query_start
    for (vertex, region), answer in zip(pairs, answers):
        print(f"RangeReach(G, {vertex}, {region.as_tuple()}) = {answer}")
    rate = len(pairs) / query_elapsed if query_elapsed > 0 else float("inf")
    print(
        f"method={args.method} build={build_elapsed:.3f}s "
        f"batch={len(pairs)} elapsed={query_elapsed:.3f}s ({rate:.0f} q/s)"
    )
    if work:
        detail = " ".join(f"{k}={v}" for k, v in sorted(work.items()))
        print(f"work: {detail}")
    if batch_trace is not None:
        print(batch_trace.format())
    return 0


def _cmd_snapshot_save(args: argparse.Namespace) -> int:
    network = GeosocialNetwork.load(args.directory)
    methods = args.methods or sorted(METHOD_REGISTRY)
    for name in methods:
        if name not in METHOD_REGISTRY:
            known = ", ".join(sorted(METHOD_REGISTRY))
            print(f"error: unknown method {name!r}; known: {known}",
                  file=sys.stderr)
            return 2
    context = BuildContext(network)
    build_start = time.perf_counter()
    build_methods(methods, context=context)
    build_elapsed = time.perf_counter() - build_start
    summary = context.save(args.snapshot)
    print(
        f"wrote {summary['path']}: {summary['parts']} parts, "
        f"{summary['bytes']} bytes (build={build_elapsed:.3f}s "
        f"save={summary['seconds']:.3f}s)"
    )
    return 0


def _cmd_snapshot_load(args: argparse.Namespace) -> int:
    from repro.store import SnapshotError

    try:
        load_start = time.perf_counter()
        context = BuildContext.load(args.snapshot)
        load_elapsed = time.perf_counter() - load_start
        methods = args.methods or sorted(METHOD_REGISTRY)
        built = build_methods(methods, context=context)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = context.stats()
    print(
        f"loaded {args.snapshot}: network={context.network.name} "
        f"|V|={context.network.num_vertices} "
        f"artifacts={stats['artifacts']} (load={load_elapsed:.3f}s)"
    )
    print(
        f"built {len(built)} methods warm: "
        f"hits={sum(stats['hits'].values())} "
        f"misses={sum(stats['misses'].values())} "
        f"labeling_builds={len(context.labeling_builds())}"
    )
    return 0


def _cmd_snapshot_inspect(args: argparse.Namespace) -> int:
    from repro.store import SnapshotError, inspect_snapshot

    try:
        report = inspect_snapshot(args.snapshot)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"{report['path']}: format={report['format']} "
        f"v{report['version']} network={report['network']} "
        f"parts={len(report['parts'])} bytes={report['total_bytes']}"
    )
    for part in report["parts"]:
        key = ",".join(str(k) for k in part["key"])
        print(
            f"  {part['file']:<28} {part['kind']:<9} {part['bytes']:>8}B "
            f"[{key}] {part['status']}"
        )
    if not report["ok"]:
        print("error: snapshot failed verification", file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import FlightRecorder
    from repro.serve import QueryService, run_server
    from repro.shard import ShardedDatabase, has_layout
    from repro.system import GeosocialDatabase

    if args.network is None and args.snapshot_dir is None:
        print(
            "error: provide --network DIR and/or --snapshot-dir DIR",
            file=sys.stderr,
        )
        return 2
    if args.shards < 0:
        print("error: --shards must be >= 0", file=sys.stderr)
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print("error: --timeout must be positive", file=sys.stderr)
        return 2
    if args.snapshot_dir is not None and has_layout(args.snapshot_dir):
        # A directory with a shard layout restarts sharded; the layout
        # is authoritative, an explicit conflicting --shards is an error
        # (re-sharding means a fresh directory).
        database = ShardedDatabase.load(
            args.snapshot_dir,
            refresh_threshold=args.refresh_threshold,
            kernels=args.kernels,
        )
        if args.shards and args.shards != database.num_shards:
            print(
                f"error: {args.snapshot_dir!r} holds a "
                f"{database.num_shards}-shard layout but --shards "
                f"{args.shards} was given; re-shard into a fresh "
                "directory instead",
                file=sys.stderr,
            )
            return 2
    elif args.shards:
        if args.network is None:
            print(
                f"error: {args.snapshot_dir!r} holds no shard layout "
                "and no --network was given",
                file=sys.stderr,
            )
            return 2
        network = GeosocialNetwork.load(args.network)
        database = ShardedDatabase.from_network(
            network,
            shards=args.shards,
            refresh_threshold=args.refresh_threshold,
            snapshot_dir=args.snapshot_dir,
            kernels=args.kernels,
        )
    elif args.network is not None:
        network = GeosocialNetwork.load(args.network)
        database = GeosocialDatabase.from_network(
            network,
            refresh_threshold=args.refresh_threshold,
            snapshot_dir=args.snapshot_dir,
            kernels=args.kernels,
        )
    else:
        # Snapshot-only start: a missing snapshot is a hard error (there
        # would be nothing to serve), a corrupt one raises SnapshotError.
        database = GeosocialDatabase(
            refresh_threshold=args.refresh_threshold,
            snapshot_dir=args.snapshot_dir,
            kernels=args.kernels,
        )
        if database.is_stale:
            print(
                f"error: {args.snapshot_dir!r} holds no snapshot and no "
                "--network was given",
                file=sys.stderr,
            )
            return 2
    recorder = FlightRecorder(
        slow_k=args.slow_k, access_log=args.access_log
    )
    service = QueryService(
        database,
        max_inflight=args.max_inflight,
        default_timeout=args.timeout,
        recorder=recorder,
        tracing=not args.no_tracing,
    )
    try:
        service.warm_up()
    except ValueError:
        pass  # no venues yet: the first effective query builds the index
    return run_server(
        service, args.host, args.port, verbose=args.verbose
    )


def _cmd_slo(args: argparse.Namespace) -> int:
    import json as _json
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/healthz"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as resp:
            payload = _json.loads(resp.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"error: {url}: {exc}", file=sys.stderr)
        return 2
    slo = payload.get("slo")
    if not isinstance(slo, dict) or "endpoints" not in slo:
        print(
            f"error: {url} carries no SLO block (server started with "
            "slo=False?)",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(_json.dumps(slo, indent=2, sort_keys=True))
    else:
        windows = [w["name"] for w in slo["windows"]]
        print(
            f"SLO status from {url} "
            f"(fast-burn factor {slo['fast_burn_factor']:g})"
        )
        for endpoint in sorted(slo["endpoints"]):
            report = slo["endpoints"][endpoint]
            flag = "FAST BURN" if report["fast_burn"] else "ok"
            print(
                f"{endpoint}: {flag}  "
                f"({report['requests']} requests in longest window)"
            )
            for sli in ("latency", "availability"):
                burns = report[sli]["burn_rates"]
                rates = " ".join(
                    f"{name}={burns.get(name, 0.0):.2f}" for name in windows
                )
                print(
                    f"  {sli:<12} burn {rates}  "
                    f"budget {report[sli]['budget_remaining']:.1%}"
                )
    any_fast = any(
        report["fast_burn"] for report in slo["endpoints"].values()
    )
    return 1 if any_fast else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Geosocial reachability (RangeReach) toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("profile", choices=sorted(DATASET_PROFILES))
    gen.add_argument("directory")
    gen.add_argument("--scale", type=float, default=0.002)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument(
        "--verify", action="store_true",
        help="check the generated network against the profile's "
        "structural invariants",
    )
    gen.set_defaults(func=_cmd_generate)

    stats = sub.add_parser(
        "stats",
        help="print a saved network's statistics; --obs dumps the "
        "metrics registry after a query batch",
    )
    stats.add_argument("directory")
    stats.add_argument(
        "--obs", choices=("json", "prom"), default=None,
        help="run --obs-queries RangeReach queries per method with "
        "metrics on, then print the registry in this format",
    )
    stats.add_argument(
        "--obs-queries", type=int, default=20,
        help="size of the query batch behind --obs (default: 20)",
    )
    stats.add_argument(
        "--obs-methods", nargs="*", metavar="METHOD",
        help="methods to exercise (default: every registered method)",
    )
    stats.add_argument("--seed", type=int, default=0)
    stats.set_defaults(func=_cmd_stats)

    label = sub.add_parser("label", help="build and save the interval labeling")
    label.add_argument("directory")
    label.add_argument("output")
    label.add_argument(
        "--reversed", action="store_true",
        help="build the reversed labeling (3DReach-Rev's scheme)",
    )
    label.set_defaults(func=_cmd_label)

    query = sub.add_parser(
        "query", help="answer one RangeReach query, or a batch from a file"
    )
    query.add_argument("directory")
    query.add_argument("--vertex", type=int, default=None)
    query.add_argument(
        "--region", type=_parse_region, default=None,
        help="xlo,ylo,xhi,yhi",
    )
    query.add_argument(
        "--batch", metavar="FILE", default=None,
        help="answer every query in FILE (one 'vertex xlo,ylo,xhi,yhi' "
        "per line; blank lines and # comments skipped)",
    )
    query.add_argument(
        "--timeout", type=float, default=None,
        help="per-batch deadline in seconds for --batch",
    )
    query.add_argument(
        "--method", default="3dreach", choices=sorted(METHOD_REGISTRY),
    )
    query.add_argument(
        "--trace", action="store_true",
        help="print the per-query span breakdown (timings and counter "
        "deltas)",
    )
    query.add_argument(
        "--kernels", choices=("numpy", "python"), default=None,
        help="inner-loop backend (default: REPRO_KERNELS env, else numpy "
        "when importable)",
    )
    query.set_defaults(func=_cmd_query)

    snap = sub.add_parser(
        "snapshot",
        help="persist built indexes to disk and warm-start from them",
    )
    snap_sub = snap.add_subparsers(dest="snapshot_command", required=True)

    snap_save = snap_sub.add_parser(
        "save", help="build methods over a saved network and persist "
        "every artifact as a snapshot"
    )
    snap_save.add_argument("directory", help="saved network directory")
    snap_save.add_argument("snapshot", help="snapshot output directory")
    snap_save.add_argument(
        "--methods", nargs="*", metavar="METHOD",
        help="methods to build before saving (default: every registered "
        "method)",
    )
    snap_save.set_defaults(func=_cmd_snapshot_save)

    snap_load = snap_sub.add_parser(
        "load", help="load a snapshot and rebuild methods warm "
        "(verifies the zero-constructions property)"
    )
    snap_load.add_argument("snapshot", help="snapshot directory")
    snap_load.add_argument(
        "--methods", nargs="*", metavar="METHOD",
        help="methods to build from the loaded artifacts",
    )
    snap_load.set_defaults(func=_cmd_snapshot_load)

    snap_inspect = snap_sub.add_parser(
        "inspect", help="verify a snapshot's manifest and per-part "
        "checksums without loading it"
    )
    snap_inspect.add_argument("snapshot", help="snapshot directory")
    snap_inspect.set_defaults(func=_cmd_snapshot_inspect)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP query service (see docs/API.md, 'repro.serve')",
    )
    serve.add_argument(
        "--network", metavar="DIR", default=None,
        help="saved network to seed the database from (ignored when "
        "--snapshot-dir already holds a snapshot)",
    )
    serve.add_argument(
        "--snapshot-dir", metavar="DIR", default=None,
        help="persistent snapshot store: warm-start from it if present, "
        "persist to it on rebuilds and at graceful shutdown",
    )
    serve.add_argument(
        "--shards", type=int, default=0,
        help="partition the network into N shards and serve them "
        "scatter-gather (0 = monolithic; a --snapshot-dir holding a "
        "shard layout always restarts sharded)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="listen port; 0 binds an ephemeral port (default: 8642)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None,
        help="default per-batch deadline in seconds (a request's own "
        "'deadline_ms' field overrides it)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="admission-control bound; requests beyond it get 429 "
        "(default: 64)",
    )
    serve.add_argument(
        "--refresh-threshold", type=int, default=64,
        help="delta operations a snapshot may accumulate before rebuild "
        "(default: 64)",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log one line per HTTP request to stderr",
    )
    serve.add_argument(
        "--access-log", metavar="FILE", default=None,
        help="append one JSONL line per request (trace id, status, "
        "per-stage seconds) to FILE",
    )
    serve.add_argument(
        "--slow-k", type=int, default=32,
        help="slowest traces the flight recorder retains for "
        "/debug/slow (default: 32)",
    )
    serve.add_argument(
        "--no-tracing", action="store_true",
        help="disable per-request tracing (requests still get ids and "
        "metrics; /debug/* stays empty)",
    )
    serve.add_argument(
        "--kernels", choices=("numpy", "python"), default=None,
        help="inner-loop backend for the served database (default: "
        "REPRO_KERNELS env, else numpy when importable)",
    )
    serve.set_defaults(func=_cmd_serve)

    slo = sub.add_parser(
        "slo",
        help="print a running server's SLO burn rates from /healthz "
        "(exit 1 when any endpoint is fast-burning)",
    )
    slo.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="server base URL (default: http://127.0.0.1:8642)",
    )
    slo.add_argument(
        "--timeout", type=float, default=5.0,
        help="HTTP timeout in seconds (default: 5)",
    )
    slo.add_argument(
        "--json", action="store_true",
        help="print the raw SLO block as JSON instead of the summary",
    )
    slo.set_defaults(func=_cmd_slo)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.store import SnapshotError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SnapshotError, OSError) as exc:
        # Input errors (missing network directory, corrupt snapshot
        # store, unbindable address) are one-line diagnostics, not
        # tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2

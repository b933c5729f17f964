"""Open-loop load test of the network query service (``repro serve``).

The scenario: one :class:`~repro.serve.QueryService` over a
:class:`~repro.system.GeosocialDatabase`, driven by the open-loop
generator in :mod:`repro.serve.loadgen` — Poisson arrivals at ramping
request rates, a mixed read/write operation blend, every request fired
at its scheduled instant regardless of server progress.  Latency is
``finished - scheduled`` (coordinated-omission corrected), reported as
p50/p95/p99 per ramp stage and per operation kind.

The run is also a correctness gate, not just a meter:

* after the load drains, every distinct read is replayed sequentially
  and checked against a BFS oracle on the reconstructed final graph —
  **zero mismatches** required while concurrent writes were landing;
* a sample of the load's requests is **reconciled against the server's
  flight recorder** (every op carries a deterministic ``X-Request-Id``):
  the server-side trace must be retrievable from ``/debug/traces?id=``,
  fit inside the client-measured service time, and attribute the
  server wall time to named stages;
* per-batch **tracing overhead** is measured in-process (traced vs
  untraced batched throughput) and reported in the artifact;
* a synchronized burst past ``max_inflight`` must produce 429s
  (admission control demonstrably sheds load instead of queueing);
* the server must drain cleanly at the end.

The artifact ``benchmarks/results/service_load.json`` carries the
config, per-stage rates and latencies, error counts, the verification
verdict and the overload probe.  ``python benchmarks/bench_service_load.py
--smoke`` runs a seconds-scale version and validates the artifact
schema — the CI service-smoke job runs exactly that.

Knobs (environment variables): ``REPRO_SCALE`` (dataset scale),
``REPRO_STAGES`` (e.g. ``"40x2,80x2,160x2"``).
"""

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench import format_table  # noqa: E402
from repro.datasets import make_network  # noqa: E402
from repro.exec import ParallelExecutor  # noqa: E402
from repro.geometry import Rect  # noqa: E402
from repro.obs.trace import trace as _trace  # noqa: E402
from repro.serve import QueryService, start_server  # noqa: E402
from repro.serve.loadgen import (  # noqa: E402
    _random_region,
    build_schedule,
    final_network,
    overload_probe,
    parse_stages,
    reconcile_traces,
    run_schedule,
    summarize,
    verify_reads,
)
from repro.system import GeosocialDatabase  # noqa: E402

DEFAULT_STAGES = "40x2,80x2,160x2"
SMOKE_STAGES = "30x1"


def _env_scale(default: float = 0.002) -> float:
    return float(os.environ.get("REPRO_SCALE", default))


def measure_tracing_overhead(
    database: GeosocialDatabase,
    executor: ParallelExecutor | None,
    network,
    *,
    rounds: int = 12,
    batch_size: int = 64,
    seed: int = 23,
) -> dict:
    """Traced vs untraced batched throughput, interleaved A/B.

    Runs the same ``range_reach_many`` batch alternately bare and under
    a serving-style trace (root span + per-chunk stage spans via the
    executor's cross-thread handoff).  Interleaving the two arms keeps
    cache/frequency drift from biasing either side.  The acceptance
    target from the issue is <= 5% overhead on batched throughput; the
    smoke gate is deliberately looser (see :func:`validate_artifact`)
    because seconds-scale CI runs are noisy.
    """
    rng = random.Random(seed)
    space = network.space()
    pairs = [
        (rng.randrange(network.num_vertices),
         Rect(*_random_region(rng, space)))
        for _ in range(batch_size)
    ]

    def run_once(traced: bool) -> float:
        begin = time.perf_counter()
        if traced:
            with _trace("/v1", counters=False):
                database.range_reach_many(pairs, executor)
        else:
            database.range_reach_many(pairs, executor)
        return time.perf_counter() - begin

    for _ in range(2):  # warm both arms
        run_once(False)
        run_once(True)
    untraced: list[float] = []
    traced: list[float] = []
    for _ in range(rounds):
        untraced.append(run_once(False))
        traced.append(run_once(True))
    untraced.sort()
    traced.sort()
    median_off = untraced[len(untraced) // 2]
    median_on = traced[len(traced) // 2]
    return {
        "rounds": rounds,
        "batch_size": batch_size,
        "untraced_median_s": median_off,
        "traced_median_s": median_on,
        "overhead_fraction": (
            median_on / median_off - 1.0 if median_off > 0 else 0.0
        ),
    }


def run_service_load(
    *,
    dataset: str = "gowalla",
    scale: float = 0.002,
    stages_spec: str = DEFAULT_STAGES,
    seed: int = 17,
    write_fraction: float = 0.2,
    batch_fraction: float = 0.15,
    max_inflight: int = 8,
    workers: int = 2,
) -> dict:
    """Run the full load scenario in-process; return the artifact dict."""
    stages = parse_stages(stages_spec)
    network = make_network(dataset, scale=scale, seed=seed)
    database = GeosocialDatabase.from_network(network)
    executor = ParallelExecutor(workers=workers) if workers > 1 else None
    service = QueryService(
        database, executor=executor, max_inflight=max_inflight
    )
    service.warm_up()
    server = start_server(service)
    base = f"http://127.0.0.1:{server.port}"
    try:
        schedule = build_schedule(
            network, stages, seed=seed,
            write_fraction=write_fraction, batch_fraction=batch_fraction,
        )
        started = time.perf_counter()
        outcomes = run_schedule(base, schedule)
        elapsed = time.perf_counter() - started
        load = summarize(schedule, outcomes)
        # Reconcile before verify_reads: the oracle replay would wash
        # the load's traces out of the recorder's bounded recent ring.
        reconciliation = reconcile_traces(base, outcomes)
        verification = verify_reads(
            base, final_network(network, outcomes), schedule.read_pairs
        )
        overload = overload_probe(base, max_inflight, network=network)
        overhead = measure_tracing_overhead(database, executor, network)
    finally:
        drain = server.drain(persist=False)
    return {
        "config": {
            "dataset": dataset,
            "scale": scale,
            "seed": seed,
            "stages": [
                {"rps": s.rps, "seconds": s.seconds} for s in stages
            ],
            "write_fraction": write_fraction,
            "batch_fraction": batch_fraction,
            "max_inflight": max_inflight,
            "workers": workers,
            "vertices": network.num_vertices,
            "edges": network.num_edges,
        },
        "load": load,
        "tracing": {
            "reconciliation": reconciliation,
            "overhead": overhead,
            "overhead_target_fraction": 0.05,
        },
        "verification": verification,
        "overload": overload,
        "drain": drain,
        "elapsed_seconds": elapsed,
    }


def validate_artifact(artifact: dict) -> None:
    """Assert the ``service_load.json`` schema and the acceptance gates."""
    for key in (
        "config", "load", "tracing", "verification", "overload", "drain",
        "elapsed_seconds",
    ):
        assert key in artifact, f"artifact missing {key!r}"
    config = artifact["config"]
    assert config["stages"] and all(
        stage["rps"] > 0 and stage["seconds"] > 0
        for stage in config["stages"]
    )
    load = artifact["load"]
    assert load["requests"] > 0
    latency = load["latency"]
    for field in ("count", "p50_ms", "p95_ms", "p99_ms", "max_ms"):
        assert isinstance(latency[field], (int, float)), field
    assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
    assert set(load["latency_by_kind"]) == {"query", "batch", "write"}
    assert len(load["stages"]) == len(config["stages"])
    for stage in load["stages"]:
        assert stage["requests"] == (
            stage["ok"] + stage["rejected"] + stage["errors"]
        )
    tracing = artifact["tracing"]
    recon = tracing["reconciliation"]
    for field in (
        "sampled", "missing", "server_within_client",
        "attributed_fraction_min", "attributed_fraction_mean",
        "transport_gap_ms_max", "samples",
    ):
        assert field in recon, f"reconciliation missing {field!r}"
    assert recon["sampled"] > 0, "no load traces reconciled"
    assert recon["missing"] == 0, (
        "loadgen request ids not found in the flight recorder"
    )
    assert recon["server_within_client"] == recon["sampled"], (
        "server trace duration exceeded client-measured service time"
    )
    for row in recon["samples"]:
        for field in (
            "request_id", "kind", "client_service_ms", "server_trace_ms",
            "transport_gap_ms", "attributed_fraction",
        ):
            assert field in row, f"reconciliation sample missing {field!r}"
    batch_rows = [r for r in recon["samples"] if r["kind"] == "batch"]
    assert batch_rows, "no /v1 batch request was reconciled against a trace"
    # The headline attribution criterion: a /v1 batch trace under load
    # attributes >= 95% of server wall time to named stages.
    assert max(r["attributed_fraction"] for r in batch_rows) >= 0.95, (
        "no /v1 batch trace attributed >= 95% of wall time to stages"
    )
    assert recon["attributed_fraction_mean"] >= 0.80
    overhead = tracing["overhead"]
    assert overhead["untraced_median_s"] > 0
    # Report the 5% target; gate loosely — seconds-scale CI medians
    # on shared runners are too noisy for a tight perf assertion.
    assert overhead["overhead_fraction"] <= 0.5, (
        f"tracing overhead {overhead['overhead_fraction']:.1%} "
        "is far beyond the 5% target"
    )
    # The acceptance gates.
    assert artifact["verification"]["queries"] > 0
    assert artifact["verification"]["mismatches"] == 0, (
        "served answers diverged from the BFS oracle"
    )
    assert artifact["overload"]["rejected"] > 0, (
        "overload burst produced no 429s"
    )
    assert artifact["drain"]["inflight_at_drain"] == 0


def _stage_rows(artifact: dict) -> list[list[str]]:
    return [
        [
            f"{stage['rps']:g}",
            f"{stage['seconds']:g}",
            str(stage["requests"]),
            str(stage["ok"]),
            str(stage["rejected"]),
            str(stage["errors"]),
            f"{stage['p99_ms']:.1f}",
        ]
        for stage in artifact["load"]["stages"]
    ]


def _render(artifact: dict) -> str:
    latency = artifact["load"]["latency"]
    table = format_table(
        ["rps", "secs", "requests", "ok", "429/503", "errors", "p99 [ms]"],
        _stage_rows(artifact),
        title="Open-loop service load "
        f"(mixed read/write, {artifact['config']['dataset']} "
        f"scale={artifact['config']['scale']:g})",
    )
    verdict = artifact["verification"]
    overload = artifact["overload"]
    recon = artifact["tracing"]["reconciliation"]
    overhead = artifact["tracing"]["overhead"]
    return (
        f"{table}\n"
        f"latency: p50={latency['p50_ms']:.1f}ms "
        f"p95={latency['p95_ms']:.1f}ms p99={latency['p99_ms']:.1f}ms "
        f"({latency['count']} ok requests)\n"
        f"tracing: {recon['sampled']} traces reconciled "
        f"({recon['missing']} missing), stage attribution "
        f"min={recon['attributed_fraction_min']:.1%} "
        f"mean={recon['attributed_fraction_mean']:.1%}, "
        f"overhead={overhead['overhead_fraction']:+.1%} "
        f"(target <= {artifact['tracing']['overhead_target_fraction']:.0%})\n"
        f"verification: {verdict['queries']} reads vs oracle, "
        f"{verdict['mismatches']} mismatches\n"
        f"overload: {overload['rejected']}/{overload['attempted']} "
        "burst requests shed with 429"
    )


def test_service_load_report(report, results_dir):
    artifact = run_service_load(
        scale=_env_scale(),
        stages_spec=os.environ.get("REPRO_STAGES", DEFAULT_STAGES),
    )
    validate_artifact(artifact)
    report(_render(artifact))
    out = results_dir / "service_load.json"
    out.write_text(json.dumps(artifact, indent=2), encoding="utf-8")
    assert out.exists()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Open-loop load test of the repro query service."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale run that validates the artifact schema",
    )
    parser.add_argument("--dataset", default="gowalla")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument(
        "--stages", default=None, metavar="SPEC",
        help=f"RPSxSECONDS[,RPSxSECONDS...] (default: {DEFAULT_STAGES})",
    )
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--max-inflight", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--out", default=str(Path(__file__).parent / "results"
                             / "service_load.json"),
    )
    args = parser.parse_args(argv)
    if args.smoke:
        scale = args.scale if args.scale is not None else 0.0005
        stages_spec = args.stages or SMOKE_STAGES
    else:
        scale = args.scale if args.scale is not None else _env_scale()
        stages_spec = args.stages or os.environ.get(
            "REPRO_STAGES", DEFAULT_STAGES
        )
    artifact = run_service_load(
        dataset=args.dataset, scale=scale, stages_spec=stages_spec,
        seed=args.seed, max_inflight=args.max_inflight,
        workers=args.workers,
    )
    validate_artifact(artifact)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(artifact, indent=2), encoding="utf-8")
    print(_render(artifact))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

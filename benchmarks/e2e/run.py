"""The repository's benchmark: RangeReach cost from the socket to the index probe.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--smoke]

With ``--workload`` one workload runs in this interpreter and the last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every end-to-end metric of ``BENCHMARK.json``
(``--trace 0``) or every per-layer metric (``--trace 1``).  Without it,
all five run one after another, each in a fresh interpreter.  Every run
also writes a result file under ``benchmarks/e2e/results/``.  The exit
code is non-zero when any answer differed from the oracle, any request
failed, or a declared metric is missing.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
SPEC = HERE.parents[1] / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def declared(spec: dict, traced: bool) -> dict[str, dict]:
    rows = spec["per_layer"] if traced else spec["end_to_end"]
    return {row["name"]: row for row in rows}


def validate(metrics: dict, spec: dict, traced: bool) -> list[str]:
    """Schema check of one run's metrics against ``BENCHMARK.json``."""
    problems = []
    want = declared(spec, traced)
    for name in want:
        if name not in metrics:
            problems.append(f"declared metric {name!r} is missing")
    for name, block in metrics.items():
        if not NAME.match(name):
            problems.append(f"metric name {name!r} has a character outside "
                            "[A-Za-z0-9_.-]")
        if name not in want:
            problems.append(f"metric {name!r} is not declared")
            continue
        value = block.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"metric {name!r} has no numeric value")
        elif value != value or value in (float("inf"), float("-inf")):
            problems.append(f"metric {name!r} is not finite")
        if block.get("unit") != want[name]["unit"]:
            problems.append(f"metric {name!r} has unit {block.get('unit')!r}")
    return problems


def run_one(args, spec: dict) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC} does not hold the repro package; the benchmark "
              "measures the program in this checkout and needs all of it",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import e2elib
    import workloads

    traced = bool(args.trace)
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.smoke else float(spec["run_seconds"])
    )
    started = time.time()
    stolen0, jiffies0 = e2elib.cpu_jiffies()
    results = args.results or e2elib.RESULTS
    with e2elib.WorkDir() as work:
        cfg = workloads.Config(
            workload=args.workload, seed=args.seed, seconds=seconds,
            traced=traced, smoke=args.smoke, work=work, results=results,
            setup_repeats=1 if (traced or args.smoke) else 3,
        )
        outcome = workloads.WORKLOADS[args.workload](cfg)
    stolen1, jiffies1 = e2elib.cpu_jiffies()
    outcome.extra["host_steal_pct"] = (
        100.0 * (stolen1 - stolen0) / max(1, jiffies1 - jiffies0)
    )
    units = declared(spec, traced)
    metrics = {
        name: {"value": value, "unit": units.get(name, {}).get("unit")}
        for name, value in outcome.metrics.items()
    }
    problems = validate(metrics, spec, traced)
    tally = outcome.tally
    correct = tally.failed == 0 and not problems

    mode = "traced" if traced else "untraced"
    print(f"# {args.workload}  seed={args.seed}  seconds={seconds:g}  {mode}"
          f"{'  smoke' if args.smoke else ''}")
    for name in units:
        if name in metrics:
            detail = outcome.detail.get(name)
            spread = (
                f"   [q1 {detail['q1']:.6g}  q3 {detail['q3']:.6g}  "
                f"over {detail['passes']} passes]" if detail else ""
            )
            print(f"{name:<44} {metrics[name]['value']:>16.6g} "
                  f"{units[name]['unit']}{spread}")
    for name, value in outcome.extra.items():
        print(f"  ~ {name}: {json.dumps(value)}")
    print(f"attempted {tally.attempted}  failed {tally.failed}")
    for reason in tally.reasons + problems:
        print(f"  ! {reason}")

    stem = f"{args.workload}.seed{args.seed}.{mode}.{time.time_ns()}"
    if outcome.tracer is not None:
        outcome.tracer.dump(results / f"trace-{args.workload}.json")
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": seconds,
            "traced": traced, "smoke": args.smoke,
            "frozen_seed": e2elib.FROZEN_SEED,
            "started_unix": started, "wall_s": time.time() - started,
            "fingerprint": e2elib.fingerprint(),
            "correct": correct, "attempted": tally.attempted,
            "failed": tally.failed, "problems": tally.reasons + problems,
            "metrics": metrics, "detail": outcome.detail,
            "extra": outcome.extra,
        }, fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload in a fresh interpreter; in smoke mode each one
    untraced and traced, so both metric lists are schema-checked."""
    failures = []
    for row in spec["workloads"]:
        for trace in ((0, 1) if args.smoke else (args.trace,)):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", row["name"], "--seed", str(args.seed),
                "--trace", str(trace),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            if args.results is not None:
                command += ["--results", str(args.results)]
            t0 = time.perf_counter()
            code = subprocess.run(command).returncode
            print(f"# {row['name']} trace={trace}: exit {code} after "
                  f"{time.perf_counter() - t0:.1f} s\n", flush=True)
            if code != 0:
                failures.append(f"{row['name']} (trace {trace})")
    if failures:
        print("FAILED: " + ", ".join(failures))
        return 1
    print("all workloads correct")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--workload", default=None,
                        help="one of the workloads in BENCHMARK.json "
                        "(default: all, each in a fresh interpreter)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans, climb the layer ladder and "
                        "report the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--results", type=Path, default=None, metavar="DIR",
                        help="where result and trace files go (default: "
                        "benchmarks/e2e/results/)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scales, seconds in total; schema check")
    args = parser.parse_args(argv)
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [row["name"] for row in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     + ", ".join(names))

    def on_term(signum, frame):
        # Unwind through the ``with`` blocks so a server child is
        # reaped and the work directory removed.
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark runs, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py A B
    python3 benchmarks/e2e/compare.py --summarize DIR > baseline.json

``A`` (the parent) and ``B`` (the change) are each a result file written
by ``run.py``, a directory of them, or a summary such as
``baseline.json``.  Only untraced runs count: end-to-end metrics are
measured with tracing off.  For each end-to-end metric of
``BENCHMARK.json`` the row shows both medians and quartiles, the bound,
and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's inter-quartile spread is wider than
  the bound, so a change of that size cannot be told from noise (unless
  every run of B reads better than every run of A, which is ``ok``);
* ``ok``         — otherwise.

Exits non-zero when any row is ``regressed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict) and "metrics" in data and not data.get("traced"):
            runs.append(data)
    return runs


def summarize(runs: list[dict]) -> dict:
    """``{workload: {metric: {median, q1, q3, n, unit, values}}}``."""
    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    for run in runs:
        per_workload = values.setdefault(run["workload"], {})
        for name, block in run["metrics"].items():
            per_workload.setdefault(name, []).append(block["value"])
            units[name] = block["unit"]
    out: dict[str, dict] = {}
    for workload, metrics in values.items():
        out[workload] = {}
        for name, sample in metrics.items():
            if len(sample) >= 2:
                q1, _, q3 = statistics.quantiles(sample, n=4)
            else:
                q1 = q3 = sample[0]
            out[workload][name] = {
                "median": statistics.median(sample), "q1": q1, "q3": q3,
                "n": len(sample), "unit": units[name], "values": sample,
            }
    return out


def load(path: Path) -> dict:
    if path.is_file():
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if "workloads" in data:
            return data["workloads"]
    runs = _runs(path)
    if not runs:
        raise SystemExit(f"{path}: no untraced run results found")
    return summarize(runs)


def _spread(block: dict) -> float:
    return (block["q3"] - block["q1"]) / abs(block["median"])


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)``; worsening is B against A as a share of
    A's median, positive when B is worse."""
    change = (b["median"] - a["median"]) / abs(a["median"])
    worse = change if better == "lower" else -change
    if better == "lower":
        dominates = max(b["values"]) < min(a["values"])
    else:
        dominates = min(b["values"]) > max(a["values"])
    if max(_spread(a), _spread(b)) > bound and not dominates:
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def compare(a: dict, b: dict, spec: dict) -> tuple[list[list[str]], int]:
    rows, regressed = [], 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a or workload not in b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a[workload] or name not in b[workload]:
                continue
            left, right = a[workload][name], b[workload][name]
            word, worse = verdict(left, right, metric["better"], metric["bound"])
            regressed += word == "regressed"
            rows.append([
                workload, name, metric["unit"],
                f"{left['median']:.6g}", f"{left['q1']:.4g}..{left['q3']:.4g}",
                f"{right['median']:.6g}", f"{right['q1']:.4g}..{right['q3']:.4g}",
                f"{100 * worse:+.1f}%", f"{100 * metric['bound']:.0f}%", word,
            ])
    return rows, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, metavar="A B")
    parser.add_argument("--summarize", type=Path, metavar="DIR",
                        help="print the summary (median, quartiles, values) "
                        "of a directory of runs as JSON")
    args = parser.parse_args(argv)
    if args.summarize is not None:
        runs = _runs(args.summarize)
        if not runs:
            raise SystemExit(f"{args.summarize}: no untraced run results found")
        json.dump({
            "runs_per_workload": min(
                block["n"] for metrics in summarize(runs).values()
                for block in metrics.values()
            ),
            "fingerprint": runs[0].get("fingerprint"),
            "seconds": runs[0].get("seconds"),
            "seeds": sorted({run["seed"] for run in runs}),
            "workloads": summarize(runs),
        }, sys.stdout, indent=1)
        print()
        return 0
    if len(args.paths) != 2:
        parser.error("give two result files, directories or summaries")
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    rows, regressed = compare(load(args.paths[0]), load(args.paths[1]), spec)
    header = ["workload", "metric", "unit", "A median", "A q1..q3",
              "B median", "B q1..q3", "B worse by", "bound", "verdict"]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    print(f"{regressed} regressed of {len(rows)} rows")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

"""``pytest benchmarks/e2e`` runs the benchmark's smoke mode.

Not part of tier-1 (``testpaths = ["tests"]``): it spawns servers and
takes tens of seconds.
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_runs_every_workload_and_validates_the_schema(tmp_path):
    """All five workloads, untraced and traced, at tiny scale: every
    answer matches the oracle and every metric declared in
    BENCHMARK.json is reported with its unit."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--results", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert "all workloads correct" in done.stdout
    assert len(list(tmp_path.glob("*.untraced.*.json"))) == 5
    assert len(list(tmp_path.glob("*.traced.*.json"))) == 5
    assert len(list(tmp_path.glob("trace-*.json"))) == 5

"""Benchmark harness.

Regenerates every table and figure of the paper's evaluation section
(Section 6) on the synthetic dataset replicas.  The ``benchmarks/``
directory holds the pytest-benchmark wrappers around these experiment
functions, one ``bench_*.py`` script per table or figure.

Scale and workload sizes are controlled by environment variables:
``REPRO_SCALE`` (fraction of the paper's dataset sizes, default 0.002),
``REPRO_QUERIES`` (queries per configuration, default 50) and
``REPRO_DATASETS`` (comma-separated subset).
"""

from repro.bench.harness import (
    bench_datasets,
    get_condensed,
    get_network,
    time_queries,
    time_queries_counted,
)
from repro.bench.tables import format_table

__all__ = [
    "bench_datasets",
    "get_condensed",
    "get_network",
    "time_queries",
    "time_queries_counted",
    "format_table",
]

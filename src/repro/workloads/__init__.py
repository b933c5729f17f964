"""Query workload generation for the experimental analysis.

The paper measures average runtime over batches of RangeReach queries
while varying three parameters (Section 6.1):

* the **extent** of the query region as a percentage of the space;
* the **out-degree** of the query vertex, bucketed;
* the **spatial selectivity** — the fraction of spatial vertices that
  fall inside the region.

:class:`QueryWorkload` produces seeded, reproducible batches for all
three axes.
"""

from repro.workloads.queries import (
    DEFAULT_DEGREE_BUCKETS,
    DEFAULT_EXTENTS,
    DEFAULT_SELECTIVITIES,
    Query,
    QueryWorkload,
)
from repro.workloads.persistence import load_workload, save_workload

__all__ = [
    "DEFAULT_DEGREE_BUCKETS",
    "DEFAULT_EXTENTS",
    "DEFAULT_SELECTIVITIES",
    "Query",
    "QueryWorkload",
    "load_workload",
    "save_workload",
]

"""The instruments every hot path in the reproduction flushes into.

Declared in one place so the metric naming scheme stays coherent:

* ``repro_method_*`` — per-RangeReach-method work, labelled by the
  method's registry/display name (``method="3dreach-rev"`` etc.).  The
  three cross-method counters mirror the access counts the paper's
  evaluation compares: interval/reachability **label probes**, spatial
  **candidates verified**, and queries served (with the TRUE share).
* ``repro_<method>_*`` — method-specific internals (GeoReach expansion
  and grid-cell classifications, SocReach descendant scans, 3DReach
  cuboid and slab queries).
* ``repro_rtree_*`` — R-tree traversal work: nodes visited, leaves
  scanned, entry intersection tests, per search call.
* ``repro_db_*`` — mutable-store serving: overlay vs. snapshot queries,
  delta-BFS expansions, rebuild counts and durations.  These aggregate
  over every :class:`~repro.system.database.GeosocialDatabase` in the
  process; per-instance numbers stay available via ``stats()``.
* ``repro_pipeline_*`` — shared build pipeline: artifact-cache hits and
  misses labelled by artifact kind (``condense``, ``labeling``, ``feed``,
  ``rtree``, ...) plus one build-seconds histogram per kind.  A
  build-all-methods run that shares artifacts shows up directly as the
  hit/miss ratio; per-context numbers stay available via
  :meth:`repro.pipeline.BuildContext.stats`.

Counters use the Prometheus ``_total`` suffix convention; durations are
log-bucket histograms in seconds.
"""

from __future__ import annotations

from repro.obs.metrics import REGISTRY

# ----------------------------------------------------------------------
# Cross-method query counters (labelled by method name)
# ----------------------------------------------------------------------
METHOD_QUERIES = REGISTRY.counter_family(
    "repro_method_queries_total",
    "RangeReach queries evaluated, by method.",
)
METHOD_POSITIVES = REGISTRY.counter_family(
    "repro_method_positives_total",
    "RangeReach queries answered TRUE, by method.",
)
METHOD_LABEL_PROBES = REGISTRY.counter_family(
    "repro_method_label_probes_total",
    "Reachability-label probes (interval labels, BFL tests, ...), by method.",
)
METHOD_CANDIDATES_VERIFIED = REGISTRY.counter_family(
    "repro_method_candidates_verified_total",
    "Spatial candidates verified against the query predicate, by method.",
)

# ----------------------------------------------------------------------
# Method-specific internals
# ----------------------------------------------------------------------
SPAREACH_CANDIDATES = REGISTRY.counter_family(
    "repro_spareach_candidates_total",
    "Spatial range-query candidates produced (SRange step), by variant.",
)
GEOREACH_EXPANDED = REGISTRY.counter(
    "repro_georeach_vertices_expanded_total",
    "SPA-graph vertices expanded by the pruned BFS.",
)
GEOREACH_PRUNED = REGISTRY.counter(
    "repro_georeach_vertices_pruned_total",
    "SPA-graph vertices pruned by the B/R/G class tests.",
)
GEOREACH_CELL_TESTS = REGISTRY.counter(
    "repro_georeach_cell_tests_total",
    "ReachGrid cells classified against the query region (G-vertices).",
)
SOCREACH_DESCENDANTS = REGISTRY.counter_family(
    "repro_socreach_descendants_scanned_total",
    "Descendant slots scanned during post-order range evaluation.",
)
THREEDREACH_CUBOIDS = REGISTRY.counter(
    "repro_threedreach_cuboid_queries_total",
    "3-D cuboid range queries issued (one per label, early exit).",
)
THREEDREACH_REV_SLABS = REGISTRY.counter(
    "repro_threedreach_rev_slab_queries_total",
    "3-D slab queries issued (one per RangeReach query).",
)

# ----------------------------------------------------------------------
# R-tree traversal
# ----------------------------------------------------------------------
RTREE_SEARCHES = REGISTRY.counter(
    "repro_rtree_searches_total",
    "Range searches started (any_intersecting/search_all included).",
)
RTREE_NODES_VISITED = REGISTRY.counter(
    "repro_rtree_nodes_visited_total",
    "R-tree nodes (inner + leaf) whose bounds were examined.",
)
RTREE_LEAVES_SCANNED = REGISTRY.counter(
    "repro_rtree_leaves_scanned_total",
    "Leaf nodes whose entry lists were scanned.",
)
RTREE_ITEMS_TESTED = REGISTRY.counter(
    "repro_rtree_items_tested_total",
    "Leaf entries tested for intersection with the query box.",
)

# ----------------------------------------------------------------------
# Mutable store (GeosocialDatabase) serving
# ----------------------------------------------------------------------
DB_SNAPSHOT_QUERIES = REGISTRY.counter(
    "repro_db_snapshot_queries_total",
    "Queries served directly from the indexed snapshot (no delta).",
)
DB_OVERLAY_QUERIES = REGISTRY.counter(
    "repro_db_overlay_queries_total",
    "Queries served as base snapshot union delta overlay.",
)
DB_DELTA_EXPANSIONS = REGISTRY.counter(
    "repro_db_delta_bfs_expansions_total",
    "Vertices expanded by the overlay's bounded delta BFS.",
)
DB_REBUILDS = REGISTRY.counter(
    "repro_db_rebuilds_total",
    "Snapshot (re)builds, lazy or eager.",
)
DB_REMOVAL_REFRESHES = REGISTRY.counter(
    "repro_db_removal_refreshes_total",
    "Snapshots invalidated by a snapshot-edge removal.",
)
DB_THRESHOLD_REFRESHES = REGISTRY.counter(
    "repro_db_threshold_refreshes_total",
    "Snapshots dropped because the delta log exceeded refresh_threshold.",
)
DB_REBUILD_SECONDS = REGISTRY.histogram(
    "repro_db_rebuild_seconds",
    "Snapshot rebuild duration (condensation + labeling + R-tree).",
)
DB_DELTA_OPS = REGISTRY.gauge(
    "repro_db_delta_ops",
    "Operations currently logged against the live snapshot.",
)
DB_DELTA_EDGES = REGISTRY.gauge(
    "repro_db_delta_edges",
    "Edges currently in the delta log.",
)

# ----------------------------------------------------------------------
# Deadline-checked query batches (repro.exec.run_batch)
# ----------------------------------------------------------------------
EXEC_BATCHES = REGISTRY.counter(
    "repro_exec_batches_total",
    "Query batches run under a deadline.",
)
EXEC_BATCH_QUERIES = REGISTRY.counter(
    "repro_exec_batch_queries_total",
    "Queries answered by deadline-checked batches.",
)
EXEC_CHUNKS = REGISTRY.counter(
    "repro_exec_chunks_total",
    "Chunks of deadline-checked batches run to completion.",
)
EXEC_TIMEOUTS = REGISTRY.counter(
    "repro_exec_batch_timeouts_total",
    "Batches aborted by the per-batch deadline.",
)
EXEC_BATCH_SECONDS = REGISTRY.histogram(
    "repro_exec_batch_seconds",
    "Wall-clock duration of one executed batch.",
)

# ----------------------------------------------------------------------
# Network query service (repro.serve)
# ----------------------------------------------------------------------
SERVE_REQUESTS = REGISTRY.counter_family(
    "repro_serve_requests_total",
    "HTTP requests served, by endpoint and response status code.",
    label_names=("endpoint", "code"),
)
SERVE_REJECTED = REGISTRY.counter(
    "repro_serve_rejected_total",
    "Requests rejected by admission control (429 overload / 503 drain).",
)
SERVE_INFLIGHT = REGISTRY.gauge(
    "repro_serve_inflight",
    "Requests currently admitted and executing.",
)
SERVE_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_serve_request_seconds",
    "Wall-clock service time of one admitted request.",
)
SERVE_DRAINS = REGISTRY.counter(
    "repro_serve_drains_total",
    "Graceful shutdowns begun (SIGTERM/SIGINT drains).",
)
SERVE_ENDPOINT_SECONDS = REGISTRY.histogram_family(
    "repro_serve_endpoint_seconds",
    "End-to-end request wall time by endpoint (the SLO latency signal).",
    label_names=("endpoint",),
)
SERVE_STAGE_SECONDS = REGISTRY.histogram_family(
    "repro_serve_stage_seconds",
    "Per-request wall time by endpoint and stage "
    "(parse / admit / queue.wait / exec / encode).",
    label_names=("endpoint", "stage"),
)

# ----------------------------------------------------------------------
# Sharded scatter-gather serving (repro.shard)
# ----------------------------------------------------------------------
SHARD_PLANS = REGISTRY.counter(
    "repro_shard_plans_total",
    "Scatter-gather query plans produced (one per planned RangeReach).",
)
SHARD_SCATTER_BATCHES = REGISTRY.counter(
    "repro_shard_scatter_batches_total",
    "Batches planned and scattered across the shards.",
)
SHARD_SUBQUERIES = REGISTRY.counter_family(
    "repro_shard_subqueries_total",
    "Per-shard sub-queries dispatched by the scatter-gather planner.",
    label_names=("shard",),
)
SHARD_REGION_PRUNED = REGISTRY.counter(
    "repro_shard_region_pruned_total",
    "Shards skipped because their venue MBR misses the query region.",
)
SHARD_SOURCE_PRUNED = REGISTRY.counter(
    "repro_shard_source_pruned_total",
    "Shards skipped because the boundary graph proves them unreachable.",
)
SHARD_TOUCHED = REGISTRY.counter(
    "repro_shard_touched_total",
    "Shards that survived pruning and received a sub-query.",
)
SHARD_DELTA_OPS = REGISTRY.gauge_family(
    "repro_shard_delta_ops",
    "Operations currently logged against each shard's live snapshot.",
    label_names=("shard",),
)
SHARD_BOUNDARY_PROBES = REGISTRY.counter(
    "repro_shard_boundary_probes_total",
    "Exit-set reachability probes issued by the boundary-graph planner.",
)

# ----------------------------------------------------------------------
# Vectorized kernels (repro.kernels)
# ----------------------------------------------------------------------
KERNEL_BACKEND = REGISTRY.gauge_family(
    "repro_kernel_backend",
    "1 for every kernel backend that has been resolved in this process.",
    label_names=("backend",),
)
KERNEL_INVOCATIONS = REGISTRY.counter_family(
    "repro_kernel_invocations_total",
    "Kernel probe invocations, by kernel kind and backend.",
    label_names=("kernel", "backend"),
)

# ----------------------------------------------------------------------
# Flight recorder (repro.obs.recorder)
# ----------------------------------------------------------------------
RECORDER_REQUESTS = REGISTRY.counter(
    "repro_recorder_requests_total",
    "Request traces offered to the flight recorder.",
)
RECORDER_ERRORS = REGISTRY.counter(
    "repro_recorder_errors_total",
    "Errored request traces retained by the flight recorder.",
)

# ----------------------------------------------------------------------
# SLO monitoring (repro.obs.slo)
# ----------------------------------------------------------------------
SLO_BURN_RATE = REGISTRY.gauge_family(
    "repro_slo_burn_rate",
    "Error-budget burn rate by endpoint, SLI (latency/availability) and "
    "window; 1.0 spends exactly the budget, >1 is on track to miss.",
    label_names=("endpoint", "sli", "window"),
)
SLO_BUDGET_REMAINING = REGISTRY.gauge_family(
    "repro_slo_error_budget_remaining",
    "Fraction of the error budget left over the longest burn window, "
    "by endpoint and SLI (1 = untouched, 0 = exhausted).",
    label_names=("endpoint", "sli"),
)
SLO_FAST_BURN = REGISTRY.gauge_family(
    "repro_slo_fast_burn",
    "1 while an endpoint burns budget faster than the alert factor in "
    "every window (the page-now condition), else 0.",
    label_names=("endpoint",),
)

# ----------------------------------------------------------------------
# Snapshot store (repro.store) persistence
# ----------------------------------------------------------------------
STORE_SAVES = REGISTRY.counter(
    "repro_store_saves_total",
    "Snapshots written to disk (atomic manifest + parts directories).",
)
STORE_LOADS = REGISTRY.counter(
    "repro_store_loads_total",
    "Snapshots loaded and verified from disk (warm starts).",
)
STORE_SAVE_BYTES = REGISTRY.counter(
    "repro_store_save_bytes_total",
    "Artifact part bytes written by snapshot saves.",
)
STORE_LOAD_BYTES = REGISTRY.counter(
    "repro_store_load_bytes_total",
    "Artifact part bytes read and checksum-verified by snapshot loads.",
)
STORE_SAVE_SECONDS = REGISTRY.histogram(
    "repro_store_save_seconds",
    "Wall-clock duration of one snapshot save (encode + fsync + rename).",
)
STORE_LOAD_SECONDS = REGISTRY.histogram(
    "repro_store_load_seconds",
    "Wall-clock duration of one snapshot load (verify + decode + seed).",
)

# ----------------------------------------------------------------------
# Shared build pipeline (BuildContext artifact cache)
# ----------------------------------------------------------------------
PIPELINE_CACHE_HITS = REGISTRY.counter_family(
    "repro_pipeline_cache_hits_total",
    "BuildContext artifact-cache hits, by artifact kind.",
    label_names=("artifact",),
)
PIPELINE_CACHE_MISSES = REGISTRY.counter_family(
    "repro_pipeline_cache_misses_total",
    "BuildContext artifact-cache misses (= actual constructions), "
    "by artifact kind.",
    label_names=("artifact",),
)


def pipeline_build_seconds(artifact: str):
    """Get-or-create the build-duration histogram of one artifact kind.

    Kinds are open-ended (``condense``, ``labeling``, ``feed``, ``rtree``,
    ``slabs``, ``columns``); the registry's get-or-create semantics make
    this safe to call on every cache miss.
    """
    return REGISTRY.histogram(
        f"repro_pipeline_{artifact}_build_seconds",
        f"Wall-clock seconds spent building {artifact} artifacts "
        "(cache misses only).",
    )

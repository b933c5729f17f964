"""The layer ladder: every per-layer metric, measured from outside.

A traced run climbs the stack once on the workload's own data — kernel,
spatial index, labeling, method, engine, database, executor, shards,
store, service, HTTP — timing calls into each layer's public functions
and reading the counters the program already keeps (``obs.measure()``,
``stats()``, ``BuildContext.stats()``, ``/debug/traces``, ``/stats``).
A layer's *self* time is its time minus the time of the layer below it
on the same queries, both taken as medians.

Sample sizes are fixed (smoke mode needs no smaller ones: its datasets
hold a tenth of the queries), so counts repeat exactly for a fixed seed.
"""

from __future__ import annotations

import random
import statistics
from http.client import HTTPConnection

from e2elib import (
    LABELING_METHODS,
    METHODS,
    ChurnStream,
    Dataset,
    Oracle,
    Server,
    Tally,
    get_json,
    pc,
    percentile,
    post,
    post_fresh,
    time_calls,
    us,
    v1_batch,
    v1_query,
)
from repro import obs
from repro.core import GeosocialQueryEngine, build_methods
from repro.exec import ParallelExecutor
from repro.labeling import build_labeling, build_reversed_labeling
from repro.pipeline import BuildContext
from repro.reach.bfl import BflReach
from repro.serve import QueryService
from repro.shard import ShardedDatabase
from repro.spatial import RTree
from repro.system import GeosocialDatabase

median = statistics.median


def _counter(delta: dict, prefix: str) -> float:
    return sum(v for k, v in delta.items() if k.startswith(prefix))


def _mean_us(durations) -> float:
    return us(sum(durations) / len(durations))


def _sample(dataset: Dataset, count: int) -> list[int]:
    """``count`` evenly spaced indices of the frozen set (all cells)."""
    step = max(1, len(dataset.pairs) // count)
    return list(range(0, len(dataset.pairs), step))


def _pick(dataset: Dataset, indices):
    return (
        [dataset.pairs[i] for i in indices],
        [dataset.truth[i] for i in indices],
    )


# ----------------------------------------------------------------------
# core, labeling, reach, pipeline
# ----------------------------------------------------------------------
def _core(m: dict, datasets: list[Dataset], tally: Tally):
    primary = datasets[0]
    # Index time and size per method, each built alone from the network.
    for name in METHODS:
        t0 = pc()
        method = build_methods([name], primary.network)[name]
        m[f"core.{name}.build_s"] = pc() - t0
        m[f"core.{name}.index_bytes"] = method.size_bytes()

    # All five through one shared context (what a database start does).
    contexts = []
    for dataset in datasets:
        context = BuildContext(dataset.network)
        t0 = pc()
        methods = build_methods(METHODS, context=context)
        total = pc() - t0
        contexts.append((dataset, context, methods))
        if dataset is primary:
            stats = context.stats()
            hits = sum(stats["hits"].values())
            misses = sum(stats["misses"].values())
            m["pipeline.total_build_s"] = total
            m["pipeline.condense_s"] = stats["build_seconds"]["condense"]
            m["pipeline.cache_hit_ratio"] = hits / (hits + misses)
            m["pipeline.labeling_builds"] = len(context.labeling_builds())

    work_counter = {
        "socreach": ("descendants_per_query",
                     "repro_socreach_descendants_scanned_total"),
        "3dreach": ("cuboids_per_query",
                    "repro_threedreach_cuboid_queries_total"),
        "3dreach-rev": ("slabs_per_query",
                        "repro_threedreach_rev_slab_queries_total"),
        "spareach-bfl": ("candidates_per_query",
                         "repro_spareach_candidates_total"),
        "georeach": ("expanded_per_query",
                     "repro_georeach_vertices_expanded_total"),
    }
    # The pure-python kernels are the differential twin of every method:
    # same artifacts, same queries, the other backend.
    twins = [
        build_methods(
            METHODS, context=context,
            options={name: {"kernels": "python"} for name in METHODS},
        )
        for _dataset, context, _methods in contexts
    ]
    for name in METHODS:
        heavy = name not in LABELING_METHODS
        count = 60 if heavy else 300
        rows = []            # (seconds, truth, extent) per query, all datasets
        batch_s = twin_s = work = 0.0
        for (dataset, _context, methods), twin in zip(contexts, twins):
            indices = _sample(dataset, count)
            pairs, truth = _pick(dataset, indices)
            methods[name].query_batch(pairs[:20])          # warm
            with obs.measure() as delta:
                durations, answers = time_calls(methods[name].query, pairs)
            tally.check(answers, truth, f"ladder {name}")
            work += _counter(delta, work_counter[name][1])
            rows += [
                (d, t, dataset.cells[i][0])
                for d, t, i in zip(durations, truth, indices)
            ]
            t0 = pc()
            answers = methods[name].query_batch(pairs)
            batch_s += pc() - t0
            tally.check(answers, truth, f"ladder {name} batch")
            durations, answers = time_calls(twin[name].query, pairs)
            twin_s += sum(durations)
            tally.check(answers, truth, f"ladder {name} python kernels")

        def mean_where(keep) -> float:
            chosen = [d for d, t, e in rows if keep(t, e)]
            return _mean_us(chosen) if chosen else 0.0

        m[f"core.{name}.q_us"] = mean_where(lambda t, e: True)
        m[f"core.{name}.pos_us"] = mean_where(lambda t, e: t)
        m[f"core.{name}.neg_us"] = mean_where(lambda t, e: not t)
        m[f"core.{name}.extent1_us"] = mean_where(lambda t, e: e == 1.0)
        m[f"core.{name}.extent20_us"] = mean_where(lambda t, e: e == 20.0)
        m[f"core.{name}.batch_us"] = us(batch_s / len(rows))
        m[f"core.{name}.python_us"] = us(twin_s / len(rows))
        m[f"core.{name}.{work_counter[name][0]}"] = work / len(rows)
    return contexts[0]


def _labeling_and_reach(m: dict, context: BuildContext, seed: int) -> None:
    dag = context.condensed().dag
    t0 = pc()
    forward = build_labeling(dag)
    m["labeling.fwd_build_s"] = pc() - t0
    t0 = pc()
    backward = build_reversed_labeling(dag)
    m["labeling.rev_build_s"] = pc() - t0
    for key, labeling in (("fwd", forward), ("rev", backward)):
        stats = labeling.stats()
        m[f"labeling.{key}_labels_per_vertex"] = (
            stats.compressed_labels / stats.num_vertices
        )
    t0 = pc()
    bfl = BflReach(dag)
    m["reach.bfl.build_s"] = pc() - t0
    rng = random.Random(f"{seed}|bfl")
    n = dag.num_vertices
    probes = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    durations, _ = time_calls(bfl.reaches, probes)
    m["reach.bfl.reach_us"] = _mean_us(durations)


# ----------------------------------------------------------------------
# kernels, spatial
# ----------------------------------------------------------------------
def _time_probes(fn, probes) -> float:
    fn(*probes[0])
    t0 = pc()
    for probe in probes:
        fn(*probe)
    return us((pc() - t0) / len(probes))


def _kernels(m: dict, dataset: Dataset, context: BuildContext) -> None:
    condensed = context.condensed()
    labeling = context.labeling()
    pairs, _ = _pick(dataset, _sample(dataset, 100))
    sources = [condensed.super_of(v) for v, _ in pairs]
    rtree = context.spatial_rtree("replicate")

    slab = [
        (region, lo, hi)
        for (_, region), source in zip(pairs, sources)
        for lo, hi in labeling.labels_of(source)
    ]
    by_weight = sorted(
        range(len(pairs)), key=lambda i: labeling.num_descendants(sources[i])
    )
    heavy_ids = set(by_weight[-max(1, len(pairs) // 4):])
    heavy = [
        (pairs[i][1], lo, hi)
        for i in heavy_ids for lo, hi in labeling.labels_of(sources[i])
    ]
    candidates = [
        list(dict.fromkeys(rtree.search_all(region.as_tuple())))[:64]
        or [sources[i]]
        for i, (_, region) in enumerate(pairs)
    ]
    spatial = condensed.spatial_components()
    rng = random.Random("points")
    rev_post = context.reversed_labeling().post_of
    probes = {
        "slab": ("slab_kernel", "any_in_zrange", slab),
        "point": ("point_kernel", "component_hits_region", [
            (condensed, rng.choice(spatial), region) for _, region in pairs
        ]),
        "bfl": ("bfl_kernel", "reaches_many", list(zip(sources, candidates))),
        "label": ("label_kernel", "covers_many", list(zip(sources, candidates))),
        "segment": ("segment_kernel", "any_at", [
            (region, rev_post(source))
            for (_, region), source in zip(pairs, sources)
        ]),
    }
    for kernel, (factory, call, args) in probes.items():
        for backend in ("numpy", "python"):
            fn = getattr(getattr(context, factory)(backend=backend), call)
            m[f"kernels.{kernel}.{backend}_us"] = _time_probes(fn, args)
    m["kernels.slab.uniform_speedup"] = (
        m["kernels.slab.python_us"] / m["kernels.slab.numpy_us"]
    )
    fast = context.slab_kernel(backend="numpy").any_in_zrange
    slow = context.slab_kernel(backend="python").any_in_zrange
    m["kernels.slab.heavy_speedup"] = (
        _time_probes(slow, heavy) / _time_probes(fast, heavy)
    )


def _spatial(m: dict, dataset: Dataset, context: BuildContext) -> None:
    pairs, _ = _pick(dataset, _sample(dataset, 200))
    condensed = context.condensed()
    labeling = context.labeling()
    flat = context.spatial_rtree("replicate")
    solid = context.point_rtree_3d("replicate")
    with obs.measure() as delta:
        durations, _ = time_calls(
            lambda v, region: flat.search_all(region.as_tuple()), pairs
        )
    m["spatial.rtree.search2d_us"] = _mean_us(durations)
    searches = _counter(delta, "repro_rtree_searches_total") or len(pairs)
    m["spatial.rtree.nodes_per_search"] = (
        _counter(delta, "repro_rtree_nodes_visited_total") / searches
    )
    m["spatial.rtree.items_per_search"] = (
        _counter(delta, "repro_rtree_items_tested_total") / searches
    )

    def first_cuboid(v, region):
        lo, hi = labeling.labels_of(condensed.super_of(v))[0]
        return solid.any_intersecting(
            (region.xlo, region.ylo, lo, region.xhi, region.yhi, hi)
        )

    durations, _ = time_calls(first_cuboid, pairs)
    m["spatial.rtree.search3d_us"] = _mean_us(durations)
    feed = context.replicate_feed()
    t0 = pc()
    RTree.bulk_load(feed, dims=2, capacity=16)
    m["spatial.rtree.bulk_load_s"] = pc() - t0


# ----------------------------------------------------------------------
# engine, system, exec
# ----------------------------------------------------------------------
def _engine_system_exec(m, dataset, context, tally, seed):
    pairs, truth = _pick(dataset, _sample(dataset, 300))
    engine = GeosocialQueryEngine(context.condensed(), context=context)
    engine.query_batch(pairs[:20])
    with obs.measure() as delta:
        engine_d, answers = time_calls(engine.query, pairs)
    tally.check(answers, truth, "ladder engine")
    m["kernels.invocations_per_query"] = (
        _counter(delta, "repro_kernel_invocations_total") / len(pairs)
    )
    # What the engine spends inside its slab kernel for the same
    # queries: the same label loop with the same early exit.
    condensed, labeling = context.condensed(), context.labeling()
    sweep = context.slab_kernel(backend="numpy").any_in_zrange

    def kernel_only(v, region):
        for lo, hi in labeling.labels_of(condensed.super_of(v)):
            if sweep(region, lo, hi):
                return True
        return False

    kernel_d, _ = time_calls(kernel_only, pairs)
    t0 = pc()
    engine.query_batch(pairs)
    engine_batch = (pc() - t0) / len(pairs)
    m["core.engine.us"] = us(median(engine_d))
    m["core.engine.self_us"] = us(median(engine_d) - median(kernel_d))
    m["core.engine.batch_us"] = us(engine_batch)

    database = GeosocialDatabase.from_network(dataset.network)
    database.query_batch(pairs[:20])
    clean_d, answers = time_calls(database.query, pairs)
    tally.check(answers, truth, "ladder db.query")
    t0 = pc()
    database.query_batch(pairs)
    clean_batch = (pc() - t0) / len(pairs)
    m["system.snapshot_read_us"] = us(median(clean_d))
    m["system.self_us"] = us(median(clean_d) - median(engine_d))
    m["system.batch_self_us"] = us(clean_batch - engine_batch)

    for workers in (1, 2):
        with ParallelExecutor(workers=workers) as executor:
            executor.run(engine, pairs[:20])
            t0 = pc()
            answers = executor.run(engine, pairs)
            m[f"exec.run_w{workers}_us"] = us((pc() - t0) / len(pairs))
        tally.check(answers, truth, f"ladder executor x{workers}")
    m["exec.overhead_ratio"] = m["exec.run_w1_us"] / us(engine_batch)

    # A short churn stream, then reads over the delta it leaves: what
    # writes, rebuilds and the overlay cost on this dataset.
    stream = ChurnStream(dataset, seed, 500)
    live = Oracle(dataset.network)
    calls = {
        "add_follow": database.add_follow,
        "add_checkin": database.add_checkin,
        "remove_follow": database.remove_follow,
        "remove_checkin": database.remove_checkin,
    }
    adds, removes, rebuild_d, reads = [], [], [], 0
    overlay_before = database.stats()["overlay_queries"]
    t_churn = pc()
    for _ in range(2):
        for kind, a, b in stream.next_block():
            if kind == "read":
                reads += 1
                # A read that finds the snapshot dropped pays the rebuild.
                rebuilding = database.is_stale
                t0 = pc()
                database.query(a, b)
                if rebuilding:
                    rebuild_d.append(pc() - t0)
                continue
            t0 = pc()
            calls[kind](a, b)
            took = pc() - t0
            if kind.startswith("add"):
                adds.append(took)
                live.add_edge(a, b)
            else:
                removes.append(took)
                live.remove_edge(a, b)
    churn_wall = pc() - t_churn
    stats = database.stats()
    overlay_d, answers = time_calls(database.query, pairs[:100])
    tally.check(
        answers, [live.query(v, region) for v, region in pairs[:100]],
        "ladder overlay read",
    )
    m["system.overlay_read_us"] = us(median(overlay_d))
    m["system.overlay_query_ratio"] = (
        (stats["overlay_queries"] - overlay_before) / reads
    )
    m["system.rebuild_s"] = median(rebuild_d)
    m["system.rebuilds"] = len(rebuild_d)
    m["system.rebuild_time_share"] = sum(rebuild_d) / churn_wall
    m["system.write_add_us"] = us(median(adds))
    m["system.write_remove_us"] = us(median(removes))
    m["system.write_p99_us"] = us(percentile(adds + removes, 99))
    return median(clean_d), clean_batch


# ----------------------------------------------------------------------
# shard, store
# ----------------------------------------------------------------------
def _shard(m, dataset, tally, mono_single_s, mono_batch_s):
    t0 = pc()
    sharded = ShardedDatabase.from_network(dataset.network, shards=4)
    sharded.query(*dataset.pairs[0])
    m["shard.build_s"] = pc() - t0
    # One sharded read costs milliseconds; large networks get fewer.
    count = 16 if dataset.network.num_vertices > 10000 else 60
    pairs, truth = _pick(dataset, _sample(dataset, count))
    before = sharded.stats()["scatter"]
    durations, answers = time_calls(sharded.query, pairs)
    tally.check(answers, truth, "ladder sharded.query")
    t0 = pc()
    answers = sharded.query_batch(pairs)
    batch = (pc() - t0) / len(pairs)
    tally.check(answers, truth, "ladder sharded.query_batch")
    after = sharded.stats()["scatter"]
    d = {k: after[k] - before[k] for k in before}
    m["shard.subqueries_per_query"] = d["subqueries"] / d["plans"]
    m["shard.boundary_probes_per_query"] = d["boundary_probes"] / d["plans"]
    pruned = d["region_pruned"] + d["source_pruned"]
    m["shard.touched_fraction"] = 1.0 - pruned / d["region_checks"]
    m["shard.region_pruned_fraction"] = d["region_pruned"] / d["region_checks"]
    m["shard.source_pruned_fraction"] = d["source_pruned"] / d["region_checks"]
    m["shard.cross_edges"] = after["cross_edges"]
    m["shard.vs_mono_single_ratio"] = median(durations) / mono_single_s
    m["shard.vs_mono_batch_ratio"] = batch / mono_batch_s


def _store(m, dataset, context, work) -> None:
    directory = work / "ladder-store"
    t0 = pc()
    summary = context.save(directory)
    m["store.save_s"] = pc() - t0
    t0 = pc()
    BuildContext.load(directory)
    m["store.load_s"] = pc() - t0
    m["store.bytes"] = summary["bytes"]
    m["store.bytes_per_vertex"] = summary["bytes"] / dataset.network.num_vertices


# ----------------------------------------------------------------------
# serve.service, serve.http
# ----------------------------------------------------------------------
def _serve(m, cfg, dataset, tally, server) -> None:
    # Smoke mode sends fewer requests: a keep-alive one costs 44 ms today.
    smoke = cfg.smoke
    pairs, truth = _pick(dataset, _sample(dataset, 300))
    payloads = [v1_query(v, region) for v, region in pairs]
    database = GeosocialDatabase.from_network(
        dataset.network, snapshot_dir=str(cfg.work / "ladder-snapshot")
    )
    database.query(*pairs[0])
    service = QueryService(database)

    def admitted(payload):
        with service.admit():
            return service.v1(payload)

    admitted(payloads[0])
    v1_d, bodies = [], []
    for payload in payloads:
        t0 = pc()
        bodies.append(admitted(payload))
        v1_d.append(pc() - t0)
    tally.check([b["answer"] for b in bodies], truth, "ladder service.v1")
    reach_d, _ = time_calls(database.range_reach, pairs)
    m["serve.service.self_us"] = us(median(v1_d) - median(reach_d))
    batch_payload = v1_batch(pairs[:64])
    batch_d = []
    for _ in range(5):
        t0 = pc()
        admitted(batch_payload)
        batch_d.append(pc() - t0)

    started_here = server is None
    if started_here:
        server = Server(
            ["--snapshot-dir", str(cfg.work / "ladder-snapshot")], cfg.work
        )
        server.start((*pairs[0], truth[0]))
    plain = Server(
        ["--snapshot-dir", str(cfg.work / "ladder-snapshot"), "--no-tracing"],
        cfg.work,
    )
    non200 = 0
    try:
        plain.start((*pairs[0], truth[0]))
        # Keep-alive: the request path alone.
        few = 6 if smoke else 24
        conn = HTTPConnection("127.0.0.1", server.port, timeout=30.0)
        try:
            post(conn, payloads[0])
            keep_d, answers = [], []
            for payload in payloads[:few]:
                t0 = pc()
                status, body = post(conn, payload)
                keep_d.append(pc() - t0)
                non200 += status != 200
                answers.append(body.get("answer"))
            tally.check(answers, truth[:few], "ladder keep-alive read")
            keep_batch_d = []
            for _ in range(3 if smoke else 8):
                t0 = pc()
                status, body = post(conn, batch_payload)
                keep_batch_d.append(pc() - t0)
                non200 += status != 200
            tally.check(body.get("answers"), truth[:64], "ladder batch of 64")
        finally:
            conn.close()
        # A connection per request, against the default and the
        # --no-tracing server alternately.
        fresh_d, plain_d, answers = [], [], []
        for payload in payloads[: 30 if smoke else 150]:
            t0 = pc()
            status, body = post_fresh(server.port, payload)
            fresh_d.append(pc() - t0)
            non200 += status != 200
            answers.append(body.get("answer"))
            t0 = pc()
            status, _ = post_fresh(plain.port, payload)
            plain_d.append(pc() - t0)
            non200 += status != 200
        tally.check(answers, truth[: len(answers)], "ladder fresh-connection read")
        _, recent = get_json(server.port, "/debug/traces?n=256")
        _, stats = get_json(server.port, "/stats")
    finally:
        plain.stop()
        if started_here:
            server.stop()
    stages: dict[str, list[float]] = {}
    for entry in recent.get("recent", []):
        if entry.get("endpoint") == "/v1" and entry.get("status") == 200:
            for stage, seconds in entry.get("stages_s", {}).items():
                stages.setdefault(stage, []).append(seconds)
    for stage, key in (
        ("parse", "parse_us"), ("admit", "admit_us"),
        ("queue.wait", "queue_wait_us"), ("exec", "exec_us"),
        ("encode", "encode_us"),
    ):
        m[f"serve.service.{key}"] = us(median(stages.get(stage, [0.0])))
    m["serve.service.rejected_429"] = stats["serve"]["rejected"]
    m["serve.http.self_us"] = us(median(keep_d) - median(v1_d))
    m["serve.http.conn_setup_us"] = us(median(fresh_d) - median(keep_d))
    m["serve.http.batch64_self_us"] = us(median(keep_batch_d) - median(batch_d))
    m["serve.http.non200"] = non200
    m["serve.http.tracing_overhead_pct"] = (
        100.0 * (median(fresh_d) - median(plain_d)) / median(plain_d)
    )


def run(cfg, datasets: list[Dataset], tally: Tally, server=None) -> dict:
    """Climb the ladder on ``datasets[0]`` (method costs over all of
    ``datasets``); returns ``{per-layer metric name: value}``."""
    m: dict[str, float] = {}
    dataset, context, _methods = _core(m, datasets, tally)
    _labeling_and_reach(m, context, cfg.seed)
    _kernels(m, dataset, context)
    _spatial(m, dataset, context)
    mono_single, mono_batch = _engine_system_exec(
        m, dataset, context, tally, cfg.seed
    )
    _shard(m, dataset, tally, mono_single, mono_batch)
    _store(m, dataset, context, cfg.work)
    _serve(m, cfg, dataset, tally, server)
    return m

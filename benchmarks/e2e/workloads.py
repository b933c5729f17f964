"""The five workloads.

Each ``run_<name>(cfg)`` sets its system up (``setup_repeats`` times,
for a median), measures for ``cfg.seconds`` and checks every answer it
got.  Untraced, it returns the end-to-end metrics; traced, it records
benchmark-side spans around the same calls, runs the layer ladder on
the workload's own data and returns the per-layer metrics.
"""

from __future__ import annotations

import gc
import random
import statistics
import threading
import time
import uuid
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from pathlib import Path

from e2elib import (
    CLIENT_TIMEOUT,
    METHODS,
    ChurnStream,
    Dataset,
    DatasetSpec,
    Oracle,
    Server,
    Tally,
    Tracer,
    across_passes,
    closed_loop,
    get_json,
    median_start,
    pc,
    peak_rss_mb,
    percentile,
    pin_load_generator,
    post,
    post_fresh,
    run_threads,
    shuffled,
    tail_mean,
    time_calls,
    us,
    v1_batch,
    v1_query,
)
from repro.core import GeosocialQueryEngine, build_methods
from repro.pipeline import BuildContext
from repro.shard import ShardedDatabase
from repro.system import GeosocialDatabase

import ladder

SLO_MS = 10.0
BATCH = 64


@dataclass
class Config:
    workload: str
    seed: int
    seconds: float
    traced: bool
    smoke: bool
    work: Path
    results: Path
    setup_repeats: int = 3

    @property
    def cheap_setup_repeats(self) -> int:
        """Repeats for a set-up of ~0.15 s, where 3 would be too few."""
        return 7 if self.setup_repeats > 1 else 1

    def dataset(self, profile: str, scale: float, smoke_scale: float) -> Dataset:
        """The frozen dataset (a tenth of it in smoke mode); its query
        set is dumped next to the results with ``save_workload``."""
        if self.smoke:
            dataset = Dataset(
                DatasetSpec(profile, smoke_scale), per_extent=30, per_bucket=6
            )
        else:
            dataset = Dataset(DatasetSpec(profile, scale))
        dataset.dump(self.results)
        return dataset


@dataclass
class Outcome:
    """What one run of one workload produced."""

    metrics: dict[str, float]
    tally: Tally
    detail: dict = field(default_factory=dict)   # quartiles, sample counts
    extra: dict = field(default_factory=dict)    # workload-only numbers
    tracer: Tracer | None = None


def _rounds(cfg: Config, one_round, minimum: int = 3) -> int:
    """Run ``one_round(k)`` until ``cfg.seconds`` are used (at least
    ``minimum`` times; once in smoke mode)."""
    begin = pc()
    k = 0
    while True:
        t0 = pc()
        one_round(k)
        k += 1
        took = pc() - t0
        if cfg.smoke or (k >= minimum and pc() - begin + took > cfg.seconds):
            return k


def _overhead_pct(traced_us: float, plain_us: float) -> float:
    return 100.0 * (traced_us - plain_us) / plain_us


def _cold_starts(make, dataset: Dataset, tally: Tally, repeats: int):
    """``make(network)`` -> first correct answer, ``repeats`` times.
    Returns the last database and the seconds each start took."""
    setups = []
    for _ in range(repeats):
        t0 = pc()
        database = make(dataset.network)
        answer = database.query(*dataset.pairs[0])
        setups.append(pc() - t0)
        tally.check([answer], [dataset.truth[0]], "setup")
    return database, setups


# ----------------------------------------------------------------------
# paper_fig7
# ----------------------------------------------------------------------
#: GeoReach and SpaReach-BFL cost milliseconds per query, so they run a
#: fixed stride of the frozen set; the three labeling methods run all of it.
BASELINE_STRIDE = {"spareach-bfl": 4, "georeach": 16}
LABELING_PASSES = 2
DB_PASSES = 2
BATCH_PASSES = 2


def _build_five(dataset: Dataset):
    """Cold build: network in hand -> five methods and the database
    each answering the first query correctly."""
    t0 = pc()
    context = BuildContext(dataset.network)
    methods = build_methods(METHODS, context=context)
    database = GeosocialDatabase.from_network(dataset.network)
    v, region = dataset.pairs[0]
    answers = [m.query(v, region) for m in methods.values()]
    answers.append(database.query(v, region))
    elapsed = pc() - t0
    return elapsed, answers, (dataset, context, methods, database)


def run_paper_fig7(cfg: Config) -> Outcome:
    tally = Tally()
    datasets = [
        cfg.dataset("gowalla", 0.01, 0.001),
        cfg.dataset("yelp", 0.01, 0.002),
    ]
    if cfg.traced:
        database, _ = _cold_starts(
            GeosocialDatabase.from_network, datasets[0], tally, 1
        )
        return _trace_in_process(
            cfg, tally, datasets, database.query, "db.query"
        )
    setups = []
    for _ in range(cfg.setup_repeats):
        total, stacks = 0.0, []
        for dataset in datasets:
            elapsed, answers, stack = _build_five(dataset)
            tally.check(answers, [dataset.truth[0]] * len(answers), "setup")
            total += elapsed
            stacks.append(stack)
        setups.append(total)
    for dataset, _, methods, database in stacks:
        warm = dataset.pairs[:50]
        for method in methods.values():
            method.query_batch(warm)
        database.query_batch(warm)

    q_passes: dict[str, list[float]] = {m: [] for m in METHODS}
    p50s, tails, batch_rates, round_rates = [], [], [], []
    all_reads: list[float] = []

    def one_round(k: int) -> None:
        ops, busy = 0, 0.0
        for name in METHODS:
            stride = BASELINE_STRIDE.get(name, 1)
            for p in range(LABELING_PASSES if stride == 1 else 1):
                total, calls = 0.0, 0
                for dataset, _, methods, _db in stacks:
                    order = shuffled(
                        range(0, len(dataset.pairs), stride), cfg.seed,
                        f"{k}|{p}|{name}|{dataset.spec.name}",
                    )
                    durations, answers = time_calls(
                        methods[name].query, [dataset.pairs[i] for i in order]
                    )
                    tally.check(
                        answers, [dataset.truth[i] for i in order], name
                    )
                    total += sum(durations)
                    calls += len(durations)
                q_passes[name].append(us(total / calls))
                ops += calls
                busy += total
        for p in range(DB_PASSES):
            pooled: list[float] = []
            for dataset, _, _m, database in stacks:
                order = shuffled(
                    range(len(dataset.pairs)), cfg.seed,
                    f"{k}|{p}|db|{dataset.spec.name}",
                )
                durations, answers = time_calls(
                    database.query, [dataset.pairs[i] for i in order]
                )
                tally.check(answers, [dataset.truth[i] for i in order], "db.query")
                pooled += durations
            p50s.append(us(percentile(pooled, 50)))
            tails.append(us(tail_mean(pooled)))
            all_reads.extend(pooled)
            ops += len(pooled)
            busy += sum(pooled)
        for _ in range(BATCH_PASSES):
            t0 = pc()
            answered = [
                database.query_batch(dataset.pairs)
                for dataset, _, _m, database in stacks
            ]
            elapsed = pc() - t0
            for (dataset, *_), answers in zip(stacks, answered):
                tally.check(answers, dataset.truth, "db.query_batch")
            count = sum(len(a) for a in answered)
            batch_rates.append(count / elapsed)
            ops += count
            busy += elapsed
        round_rates.append(ops / busy)

    rounds = _rounds(cfg, one_round)
    detail = {
        "setup_s": across_passes(setups),
        "read_p50_us": across_passes(p50s),
        "read_tail_us": across_passes(tails),
        "throughput_ops_s": across_passes(round_rates),
        "batch_qps": across_passes(batch_rates),
    }
    metrics = {name: block["value"] for name, block in detail.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    q_us = {f"q_us.{m}": across_passes(v) for m, v in q_passes.items()}
    return Outcome(
        metrics, tally, detail,
        extra={
            "rounds": rounds,
            "datasets": [d.spec.name for d in datasets],
            "queries_per_dataset": len(datasets[0].pairs),
            "reads_per_pass": sum(len(d.pairs) for d in datasets),
            "read_p99_pooled_us": us(percentile(all_reads, 99)),
            "positives": {
                d.spec.name: sum(d.truth) / len(d.truth) for d in datasets
            },
            **q_us,
        },
    )


def _trace_in_process(cfg, tally, datasets, read, read_name) -> Outcome:
    """The traced run of an in-process workload.

    Alternates plain passes of the workload's read call with passes
    that record a span around each call (the difference in the median
    is ``bench.tracing_overhead_pct``).  Each recorded read is followed
    by a replay of the same query against an engine built from the same
    network, linked under it, because the engine inside the database
    cannot be wrapped from outside.  Then the layer ladder runs on the
    workload's data.
    """
    tracer = Tracer()
    dataset = datasets[0]
    engine = GeosocialQueryEngine(BuildContext(dataset.network).condensed())
    step = max(1, len(dataset.pairs) // (40 if cfg.smoke else 400))
    pairs, truth = dataset.pairs[::step], dataset.truth[::step]
    plain, recorded = [], []
    for k in range(1 if cfg.smoke else 5):
        durations, answers = time_calls(read, pairs)
        tally.check(answers, truth, read_name)
        plain.append(percentile(durations, 50))
        costs, answers = [], []
        for i, (v, region) in enumerate(pairs):
            rid = f"{cfg.workload}-{k}-{i}"
            t0 = pc()
            answer, span = tracer.timed(read_name, read, v, region,
                                        request_id=rid)
            costs.append(pc() - t0)
            answers.append(answer)
            tracer.timed("core.engine.query", engine.query, v, region,
                         parent=span, request_id=rid, replay=True)
        tally.check(answers, truth, f"recorded {read_name}")
        recorded.append(percentile(costs, 50))
    metrics = ladder.run(cfg, datasets, tally)
    metrics["bench.tracing_overhead_pct"] = _overhead_pct(
        statistics.median(recorded), statistics.median(plain)
    )
    return Outcome(metrics, tally, tracer=tracer)


# ----------------------------------------------------------------------
# embedded_churn
# ----------------------------------------------------------------------
BLOCK_OPS = 1000          # 900 reads, 99 adds, 1 removal of a seed edge
CHECK_EVERY = 50          # every 50th read is checked against the live BFS


def run_embedded_churn(cfg: Config) -> Outcome:
    tally = Tally()
    dataset = cfg.dataset("foursquare", 0.005, 0.001)
    database, setups = _cold_starts(
        GeosocialDatabase.from_network, dataset, tally, cfg.cheap_setup_repeats
    )

    if cfg.traced:
        return _trace_in_process(
            cfg, tally, [dataset], database.query, "db.query"
        )

    stream = ChurnStream(dataset, cfg.seed, 100 if cfg.smoke else BLOCK_OPS)
    calls = {
        "read": database.query,
        "add_follow": database.add_follow,
        "add_checkin": database.add_checkin,
        "remove_follow": database.remove_follow,
        "remove_checkin": database.remove_checkin,
    }
    # The batch entry is measured over a pending delta of 32 adds on a
    # database of its own, one call every third block, so its passes are
    # spread over the run like everything else.
    fresh = GeosocialDatabase.from_network(dataset.network)
    fresh.query(*dataset.pairs[0])
    delta = Oracle(dataset.network)
    for kind, a, b in ChurnStream(dataset, cfg.seed, 330).next_block():
        if kind.startswith("add"):
            getattr(fresh, kind)(a, b)
            delta.add_edge(a, b)
    five = [dataset.pairs[i] for i in dataset.indices_with_extent(5.0)]
    expected = [delta.query(v, region) for v, region in five]
    batch_rates: list[float] = []
    reads: list[float] = []
    writes: dict[str, list[float]] = {k: [] for k in calls if k != "read"}
    log: list[tuple] = []          # writes and checked reads, in op order
    block_rates, p50s, tails = [], [], []

    def one_block(k: int) -> None:
        ops = stream.next_block()
        first = len(reads)
        t_block = pc()
        for kind, a, b in ops:
            call = calls[kind]
            t0 = pc()
            result = call(a, b)
            took = pc() - t0
            if kind == "read":
                reads.append(took)
                if len(reads) % CHECK_EVERY == 0:
                    log.append((kind, a, b, result))
            else:
                writes[kind].append(took)
                log.append((kind, a, b, result))
        block_rates.append(len(ops) / (pc() - t_block))
        p50s.append(us(percentile(reads[first:], 50)))
        tails.append(us(tail_mean(reads[first:])))
        if k % 3 == 0:
            t0 = pc()
            answers = fresh.query_batch(five)
            batch_rates.append(len(five) / (pc() - t0))
            tally.check(answers, expected, "query_batch over a delta")

    _rounds(cfg, one_block)
    # Replay the writes on the benchmark's own edge set and BFS each
    # checked read at the point in the stream where it was answered.
    live = Oracle(dataset.network)
    checked = 0
    for kind, a, b, result in log:
        if kind == "read":
            checked += 1
            tally.check([result], [live.query(a, b)], "read vs live BFS")
        elif kind.startswith("add"):
            tally.check([result], [True], kind)
            live.add_edge(a, b)
        else:
            tally.attempted += 1
            live.remove_edge(a, b)
    tally.attempted += len(reads) - checked   # completed without raising

    stats = database.stats()
    all_writes = [d for v in writes.values() for d in v]
    detail = {
        "setup_s": across_passes(setups),
        "read_p50_us": across_passes(p50s),
        "read_tail_us": across_passes(tails),
        "throughput_ops_s": across_passes(block_rates),
        "batch_qps": across_passes(batch_rates),
    }
    metrics = {name: block["value"] for name, block in detail.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return Outcome(
        metrics, tally, detail,
        extra={
            "dataset": dataset.spec.name,
            "ops": stream.blocks * stream.block_ops,
            "reads_per_block": stream.block_ops - stream.block_ops // 10,
            "reads": len(reads),
            "reads_checked_live": checked,
            "read_p99_pooled_us": us(percentile(reads, 99)),
            "writes": len(all_writes),
            "write_p50_us": us(percentile(all_writes, 50)),
            "write_p99_us": us(percentile(all_writes, 99)),
            "rebuilds": stats["rebuilds"],
            "removal_refreshes": stats["removal_refreshes"],
            "threshold_refreshes": stats["threshold_refreshes"],
            "overlay_query_ratio": stats["overlay_queries"] / len(reads),
        },
    )


# ----------------------------------------------------------------------
# sharded_scatter
# ----------------------------------------------------------------------
SHARDS = 4


def run_sharded_scatter(cfg: Config) -> Outcome:
    tally = Tally()
    dataset = cfg.dataset("gowalla", 0.002, 0.001)
    sharded, setups = _cold_starts(
        lambda network: ShardedDatabase.from_network(network, shards=SHARDS),
        dataset, tally, cfg.cheap_setup_repeats,
    )
    every = range(0, len(dataset.pairs), 3)           # 400 of the 1 200
    pairs = [dataset.pairs[i] for i in every]
    truth = [dataset.truth[i] for i in every]

    if cfg.traced:
        return _trace_in_process(
            cfg, tally, [dataset], sharded.query, "sharded.query"
        )

    mono = GeosocialDatabase.from_network(dataset.network)
    tally.check(mono.query_batch(pairs), truth, "monolithic parity")
    mono_single = statistics.median(time_calls(mono.query, pairs)[0])
    t0 = pc()
    mono.query_batch(pairs)
    mono_batch = (pc() - t0) / len(pairs)

    pooled: list[float] = []
    p50s, tails, single_rates, batch_rates = [], [], [], []

    def one_round(k: int) -> None:
        order = shuffled(range(len(pairs)), cfg.seed, f"{k}|sharded")
        durations, answers = time_calls(
            sharded.query, [pairs[i] for i in order]
        )
        tally.check(answers, [truth[i] for i in order], "sharded.query")
        pooled.extend(durations)
        p50s.append(us(percentile(durations, 50)))
        tails.append(us(tail_mean(durations)))
        single_rates.append(len(durations) / sum(durations))
        # Half the pairs per batch call, alternating halves, so that
        # more rounds (and their medians) fit into the run.
        half = slice(k % 2, None, 2)
        t0 = pc()
        answers = sharded.query_batch(pairs[half])
        batch_rates.append(len(answers) / (pc() - t0))
        tally.check(answers, truth[half], "sharded.query_batch")

    rounds = _rounds(cfg, one_round)
    detail = {
        "setup_s": across_passes(setups),
        "read_p50_us": across_passes(p50s),
        "read_tail_us": across_passes(tails),
        "throughput_ops_s": across_passes(single_rates),
        "batch_qps": across_passes(batch_rates),
    }
    metrics = {name: block["value"] for name, block in detail.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    scatter = sharded.stats()["scatter"]
    return Outcome(
        metrics, tally, detail,
        extra={
            "dataset": dataset.spec.name,
            "rounds": rounds,
            "reads_per_pass": len(pairs),
            "read_p99_pooled_us": us(percentile(pooled, 99)),
            "vs_mono_single_ratio":
                statistics.median(pooled) / mono_single,
            "vs_mono_batch_ratio":
                (1.0 / statistics.median(batch_rates)) / mono_batch,
            "boundary_probes_per_plan":
                scatter["boundary_probes"] / max(1, scatter["plans"]),
        },
    )


# ----------------------------------------------------------------------
# The two HTTP workloads
# ----------------------------------------------------------------------
def _check_http(tally: Tally, outcomes, expected_of, what: str) -> list[float]:
    """Count every exchange; return the latencies of the good ones."""
    latencies = []
    for index, started, finished, status, body in outcomes:
        tally.attempted += 1
        if status != 200:
            tally.fail(1, f"{what}: status {status} {body}")
        elif not expected_of(index, body):
            tally.fail(1, f"{what}: answer differs from the oracle")
        else:
            latencies.append(finished - started)
    return latencies


def _batches(dataset: Dataset, seed: int):
    order = shuffled(range(len(dataset.pairs)), seed, "batches")
    # At least one batch per client, wrapping round a short (smoke) set.
    chunks = [
        [order[(k * BATCH + j) % len(order)] for j in range(BATCH)]
        for k in range(max(2, len(order) // BATCH))
    ]
    payloads = [v1_batch([dataset.pairs[i] for i in chunk]) for chunk in chunks]
    truths = [[dataset.truth[i] for i in chunk] for chunk in chunks]
    return payloads, truths


def _warm_server(cfg: Config, port: int, payloads: list[dict]) -> None:
    """About a second of back-to-back requests before anything is
    timed: a freshly started server stalls once for ~50 ms somewhere in
    its first ~1 000 requests (first full garbage collection), and a
    tail percentile should not depend on which phase that lands in.

    The load generator's own heap (networks, oracle, payloads) is then
    frozen out of this process's garbage collector, so a full collection
    here cannot pause the senders and pass for server latency.
    """
    closed_loop(port, payloads, 0.1 if cfg.smoke else 1.0, keepalive=False)
    gc.collect()
    gc.freeze()


def _serve_snapshot(cfg: Config, dataset: Dataset) -> Path:
    """Persist a built snapshot of the dataset for warm starts."""
    directory = cfg.work / "snapshot"
    database = GeosocialDatabase.from_network(
        dataset.network, snapshot_dir=str(directory)
    )
    database.query(*dataset.pairs[0])
    return directory


def run_http_keepalive(cfg: Config) -> Outcome:
    tally = Tally()
    pin_load_generator()
    dataset = cfg.dataset("gowalla", 0.01, 0.001)
    snapshot = _serve_snapshot(cfg, dataset)
    first = (*dataset.pairs[0], dataset.truth[0])
    server, setups = median_start(
        lambda: Server(["--snapshot-dir", str(snapshot)], cfg.work),
        first, cfg.setup_repeats,
    )
    with server:
        if cfg.traced:
            return _trace_http(cfg, tally, dataset, server, keepalive=True)
        order = shuffled(range(len(dataset.pairs)), cfg.seed, "keepalive")
        singles = [v1_query(*dataset.pairs[i]) for i in order]
        _warm_server(cfg, server.port, singles)
        outcomes, wall_a = closed_loop(
            server.port, singles, 0.6 * cfg.seconds, keepalive=True
        )
        latencies = _check_http(
            tally, outcomes,
            lambda i, body: body.get("answer") == dataset.truth[order[i]],
            "keep-alive read",
        )
        payloads, truths = _batches(dataset, cfg.seed)
        batches, wall_b = closed_loop(
            server.port, payloads, 0.4 * cfg.seconds, keepalive=True
        )
        good_b = _check_http(
            tally, batches,
            lambda i, body: body.get("answers") == truths[i],
            "keep-alive batch",
        )
        rss = server.peak_rss_mb()
    metrics = {
        "setup_s": statistics.median(setups),
        "read_p50_us": us(percentile(latencies, 50)),
        "read_tail_us": us(tail_mean(latencies)),
        "throughput_ops_s": len(latencies) / wall_a,
        "batch_qps": len(good_b) * BATCH / wall_b,
        "peak_rss_mb": rss,
    }
    return Outcome(
        metrics, tally, {"setup_s": across_passes(setups)},
        extra={
            "dataset": dataset.spec.name,
            "loop": "closed, 2 persistent connections",
            "reads": len(latencies),
            "batches": len(good_b),
            "batch_p50_us": us(percentile(good_b, 50)) if good_b else None,
        },
    )


#: The rate ``read_p50_us``/``read_tail_us`` come from, and the rates
#: run once around it for the SLO ladder (``extra``).  1 600 rps is there
#: because the pinned server holds the 10 ms SLO at 1 200.
REPORT_RATE = 400
CONTEXT_RATES = (200, 800, 1200, 1600)
CONTEXT_SHARE = 0.04          # of ``--seconds``, per context rate
#: The measured phases are cut into rounds spread over the run, and
#: every reported metric is the median across rounds: this host slows
#: down for a second or two at a time (a stolen CPU), which inflates the
#: tail of whichever phase it lands in.  One long 400 rps step moved
#: ``read_tail_us`` 15 % between runs of the same code when quiet and
#: 30 % when not; a median over rounds leaves the hit rounds out.
ROUNDS = 6
REPORT_SHARE = 0.075          # per round: ~450 requests at 15 s
SATURATION_SHARE = 0.035      # per round
BATCH_SHARE = 0.03            # per round


def open_loop(port: int, payloads: list[dict], arrivals: list[float],
              clients: int = 2):
    """Send request ``i`` at ``arrivals[i]`` seconds from now, each on a
    connection of its own, whether or not earlier ones have finished.

    Returns ``(index, due, sent, finished, status, body)`` per request.
    With ``clients`` sender threads at most that many requests are in
    flight; how late a request left is ``sent - due``.
    """
    results: list[tuple] = [None] * len(arrivals)
    cursor = iter(range(len(arrivals)))
    lock = threading.Lock()
    begin = pc() + 0.01

    def sender(_slot: int) -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = begin + arrivals[i]
            wait = due - pc()
            if wait > 0:
                time.sleep(wait)
            sent = pc()
            try:
                status, body = post_fresh(port, payloads[i % len(payloads)])
            except (OSError, HTTPException, ValueError) as exc:
                status, body = 0, {"error": repr(exc)}
            results[i] = (i, due, sent, pc(), status, body)

    run_threads(sender, clients)
    return results


def poisson_arrivals(rng: random.Random, rate: float, seconds: float):
    out, t = [], rng.expovariate(rate)
    while t < seconds:
        out.append(t)
        t += rng.expovariate(rate)
    return out or [seconds / 2]     # a smoke window may draw none


def run_http_open_loop(cfg: Config) -> Outcome:
    tally = Tally()
    pin_load_generator()
    dataset = cfg.dataset("gowalla", 0.01, 0.001)
    saved = cfg.work / "network"
    dataset.network.save(saved)
    first = (*dataset.pairs[0], dataset.truth[0])
    server, setups = median_start(
        lambda: Server(["--network", str(saved)], cfg.work),
        first, cfg.setup_repeats,
    )
    with server:
        if cfg.traced:
            return _trace_http(cfg, tally, dataset, server, keepalive=False)
        order = shuffled(range(len(dataset.pairs)), cfg.seed, "open-loop")
        singles = [v1_query(*dataset.pairs[i]) for i in order]
        _warm_server(cfg, server.port, singles)

        def right(i, body):
            return body.get("answer") == dataset.truth[order[i % len(order)]]

        rng = random.Random(f"{cfg.seed}|arrivals")
        payloads, truths = _batches(dataset, cfg.seed)

        def right_batch(i, body):
            return body.get("answers") == truths[i]

        def step(rate: int, share: float) -> dict:
            """One open-loop window at ``rate``; its latencies checked."""
            arrivals = poisson_arrivals(rng, rate, share * cfg.seconds)
            results = open_loop(server.port, singles, arrivals)
            before = tally.failed
            good = _check_http(
                tally,
                [(i, due, fin, st, body) for i, due, _s, fin, st, body in results],
                right, f"open loop {rate} rps",
            )
            late = [sent - due for _i, due, sent, *_ in results]
            return {
                "good": good, "late": late, "failed": tally.failed - before,
                "late_last_tenth": statistics.mean(
                    late[-max(1, len(late) // 10):]
                ),
            }

        windows = {CONTEXT_RATES[0]: [step(CONTEXT_RATES[0], CONTEXT_SHARE)]}
        windows[REPORT_RATE] = []
        saturation_rates, batch_rates = [], []
        saturation_reads = 0
        for _ in range(1 if cfg.smoke else ROUNDS):
            windows[REPORT_RATE].append(step(REPORT_RATE, REPORT_SHARE))
            # What bounds the ladder: 2 callers, a connection per
            # request, each sending as soon as its last reply arrived.
            outcomes, wall = closed_loop(
                server.port, singles, SATURATION_SHARE * cfg.seconds,
                keepalive=False,
            )
            good = _check_http(tally, outcomes, right, "saturation read")
            saturation_rates.append(len(good) / wall)
            saturation_reads += len(good)
            batches, wall = closed_loop(
                server.port, payloads, BATCH_SHARE * cfg.seconds,
                keepalive=False,
            )
            good = _check_http(
                tally, batches, right_batch, "batch on a fresh connection"
            )
            batch_rates.append(len(good) * BATCH / wall)
        for rate in CONTEXT_RATES[1:]:
            windows[rate] = [step(rate, CONTEXT_SHARE)]
        rss = server.peak_rss_mb()

    steps = []
    for rate in sorted(windows):
        rounds = windows[rate]
        pooled = [d for w in rounds for d in w["good"]]
        late = [d for w in rounds for d in w["late"]]
        summary = {
            "rate_rps": rate,
            "windows": len(rounds),
            "sent": len(late),
            "failed": sum(w["failed"] for w in rounds),
            "p50_us": [us(percentile(w["good"], 50)) for w in rounds],
            "tail_us": [us(tail_mean(w["good"])) for w in rounds],
            "p99_us": us(percentile(pooled, 99)),
            "gen_late_p99_ms": 1e3 * percentile(late, 99),
            "late_last_tenth_ms": 1e3 * statistics.median(
                w["late_last_tenth"] for w in rounds
            ),
        }
        summary["in_slo"] = (
            summary["failed"] == 0
            and summary["p99_us"] <= SLO_MS * 1e3
            and summary["late_last_tenth_ms"] <= SLO_MS
        )
        steps.append(summary)
    reported = next(s for s in steps if s["rate_rps"] == REPORT_RATE)
    in_slo = [s["rate_rps"] for s in steps if s["in_slo"]]
    detail = {
        "setup_s": across_passes(setups),
        "read_p50_us": across_passes(reported["p50_us"]),
        "read_tail_us": across_passes(reported["tail_us"]),
        "throughput_ops_s": across_passes(saturation_rates),
        "batch_qps": across_passes(batch_rates),
    }
    metrics = {name: block["value"] for name, block in detail.items()}
    metrics["peak_rss_mb"] = rss
    return Outcome(
        metrics, tally, detail,
        extra={
            "dataset": dataset.spec.name,
            "loop": "open, Poisson, 2 senders, a connection per request",
            "slo_ms": SLO_MS,
            "steps": steps,
            "max_rate_in_slo_rps": max(in_slo, default=0),
            "gen_late_p99_ms": max(s["gen_late_p99_ms"] for s in steps),
            "saturation_reads": saturation_reads,
        },
    )


STAGES = ("parse", "admit", "queue.wait", "exec", "encode")


def _trace_http(cfg, tally, dataset, server, *, keepalive: bool) -> Outcome:
    """The traced run of an HTTP workload, against the same server.

    Each sampled read is sent twice: plainly, and with a request id
    under which a client span is recorded (the difference in the median
    is ``bench.tracing_overhead_pct``).  Under the client span go the
    server's own stage times for that id, read back from
    ``/debug/traces?id=`` (durations are the server's, offsets are laid
    end to end); under ``server.exec`` a replay of the same query
    against a database, and under that against an engine, built in this
    process from the same network.
    """
    tracer = Tracer()
    database = GeosocialDatabase.from_network(dataset.network)
    engine = GeosocialQueryEngine(BuildContext(dataset.network).condensed())
    database.query(*dataset.pairs[0])
    engine.query(*dataset.pairs[0])
    count = 8 if cfg.smoke else (40 if keepalive else 300)
    conn = HTTPConnection("127.0.0.1", server.port, timeout=CLIENT_TIMEOUT)

    def send(payload, rid=None):
        if keepalive:
            return post(conn, payload, rid)
        return post_fresh(server.port, payload, rid)

    plain, recorded = [], []
    try:
        for i in range(0, len(dataset.pairs), len(dataset.pairs) // count):
            v, region = dataset.pairs[i]
            payload = v1_query(v, region)
            t0 = pc()
            status, body = send(payload)
            plain.append(pc() - t0)
            tally.check([status, body.get("answer")],
                        [200, dataset.truth[i]], "plain read")
            rid = uuid.uuid4().hex
            t0 = pc()
            root = tracer.begin("client.roundtrip", request_id=rid)
            status, body = send(payload, rid)
            tracer.end(root)
            recorded.append(pc() - t0)
            tally.check([status, body.get("answer")],
                        [200, dataset.truth[i]], "recorded read")
            _, found = get_json(server.port, f"/debug/traces?id={rid}")
            stages = found.get("trace", {}).get("stages_s", {})
            at = tracer.spans[root]["start"]
            parent = root
            for stage in STAGES:
                seconds = stages.get(stage, 0.0)
                span = tracer.add(f"server.{stage}", at, at + seconds,
                                  parent=root, request_id=rid)
                at += seconds
                if stage == "exec":
                    parent = span
            _, parent = tracer.timed(
                "system.db.range_reach", database.range_reach, v, region,
                parent=parent, request_id=rid, replay=True,
            )
            tracer.timed("core.engine.query", engine.query, v, region,
                         parent=parent, request_id=rid, replay=True)
    finally:
        conn.close()
    metrics = ladder.run(cfg, [dataset], tally, server=server)
    metrics["bench.tracing_overhead_pct"] = _overhead_pct(
        statistics.median(recorded), statistics.median(plain)
    )
    return Outcome(metrics, tally, tracer=tracer)


WORKLOADS = {
    "paper_fig7": run_paper_fig7,
    "embedded_churn": run_embedded_churn,
    "sharded_scatter": run_sharded_scatter,
    "http_keepalive": run_http_keepalive,
    "http_open_loop": run_http_open_loop,
}

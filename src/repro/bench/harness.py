"""Shared benchmark infrastructure: dataset caches, timing, method bundles."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core import (
    GeoReach,
    SocReach,
    SpaReach,
    ThreeDReach,
    ThreeDReachRev,
)
from repro.core.base import RangeReachMethod
from repro.datasets import make_network
from repro.geosocial import CondensedNetwork, GeosocialNetwork, condense_network
from repro.pipeline import BuildContext
from repro.workloads import Query

ALL_DATASETS = ("foursquare", "gowalla", "weeplaces", "yelp")


# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------
def bench_scale() -> float:
    """Dataset scale relative to the paper's sizes (env ``REPRO_SCALE``)."""
    return float(os.environ.get("REPRO_SCALE", "0.002"))


def bench_num_queries() -> int:
    """Queries per configuration (env ``REPRO_QUERIES``; paper used 1000)."""
    return int(os.environ.get("REPRO_QUERIES", "50"))


def bench_datasets() -> tuple[str, ...]:
    """Datasets to run (env ``REPRO_DATASETS``, comma-separated)."""
    raw = os.environ.get("REPRO_DATASETS")
    if not raw:
        return ALL_DATASETS
    names = tuple(s.strip().lower() for s in raw.split(",") if s.strip())
    unknown = [n for n in names if n not in ALL_DATASETS]
    if unknown:
        raise ValueError(f"unknown datasets in REPRO_DATASETS: {unknown}")
    return names


# ----------------------------------------------------------------------
# Cached dataset construction
# ----------------------------------------------------------------------
_NETWORKS: dict[tuple[str, float, int], GeosocialNetwork] = {}
_CONDENSED: dict[tuple[str, float, int], CondensedNetwork] = {}


def get_network(name: str, scale: float | None = None, seed: int = 1) -> GeosocialNetwork:
    """Return the (cached) synthetic replica of a dataset."""
    scale = bench_scale() if scale is None else scale
    key = (name, scale, seed)
    if key not in _NETWORKS:
        _NETWORKS[key] = make_network(name, scale=scale, seed=seed)
    return _NETWORKS[key]


def get_condensed(name: str, scale: float | None = None, seed: int = 1) -> CondensedNetwork:
    """Return the (cached) condensation of a dataset replica."""
    scale = bench_scale() if scale is None else scale
    key = (name, scale, seed)
    if key not in _CONDENSED:
        _CONDENSED[key] = condense_network(get_network(name, scale, seed))
    return _CONDENSED[key]


_CONTEXTS: dict[tuple[str, float, int], BuildContext] = {}


def get_context(name: str, scale: float | None = None, seed: int = 1) -> BuildContext:
    """Return the (cached) shared build context of a dataset replica.

    Bundles built over the same ``(dataset, scale, seed)`` share one
    context, so artifacts carry over between benchmark files in a single
    process.
    """
    scale = bench_scale() if scale is None else scale
    key = (name, scale, seed)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = BuildContext(get_condensed(name, scale, seed))
    return _CONTEXTS[key]


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def build_timed(factory: Callable[[], RangeReachMethod]) -> tuple[RangeReachMethod, float]:
    """Build an index, returning it with the wall-clock build time."""
    start = time.perf_counter()
    method = factory()
    return method, time.perf_counter() - start


def time_queries(
    method: RangeReachMethod, queries: Sequence[Query]
) -> tuple[float, int]:
    """Run a query batch; return (average seconds per query, #TRUE answers)."""
    if not queries:
        raise ValueError("empty query batch")
    positives = 0
    start = time.perf_counter()
    for query in queries:
        if method.query(query.vertex, query.region):
            positives += 1
    elapsed = time.perf_counter() - start
    return elapsed / len(queries), positives


def time_queries_counted(
    method: RangeReachMethod, queries: Sequence[Query]
) -> tuple[float, int, dict[str, float]]:
    """Like :func:`time_queries`, but also attach per-query work counters.

    Returns ``(average seconds, positives, work)`` where ``work`` maps the
    counter deltas observed over the batch — normalized to *per query* —
    under short column-friendly keys: ``label_probes``, ``rtree_nodes``,
    ``candidates_verified``.  Requires observability to be enabled (the
    default); with it disabled the work dict is all zeros.
    """
    from repro import obs

    if not queries:
        raise ValueError("empty query batch")
    with obs.measure() as delta:
        avg, positives = time_queries(method, queries)
    label = f'{{method="{method.name}"}}'
    n = len(queries)
    work = {
        "label_probes":
            delta.get(f"repro_method_label_probes_total{label}", 0) / n,
        "rtree_nodes":
            delta.get("repro_rtree_nodes_visited_total", 0) / n,
        "candidates_verified":
            delta.get(f"repro_method_candidates_verified_total{label}", 0) / n,
    }
    return avg, positives, work


@dataclass(frozen=True, slots=True)
class SplitTiming:
    """Per-answer-class timing of one query batch.

    The paper repeatedly stresses that SpaReach and GeoReach "may perform
    poorly for RangeReach queries with a negative answer"; this split
    makes that effect directly measurable.
    """

    positive_avg: float | None
    negative_avg: float | None
    positives: int
    negatives: int


def time_queries_split(
    method: RangeReachMethod, queries: Sequence[Query]
) -> SplitTiming:
    """Time a batch separately for TRUE- and FALSE-answer queries."""
    if not queries:
        raise ValueError("empty query batch")
    pos_time = neg_time = 0.0
    positives = negatives = 0
    for query in queries:
        start = time.perf_counter()
        answer = method.query(query.vertex, query.region)
        elapsed = time.perf_counter() - start
        if answer:
            positives += 1
            pos_time += elapsed
        else:
            negatives += 1
            neg_time += elapsed
    return SplitTiming(
        positive_avg=pos_time / positives if positives else None,
        negative_avg=neg_time / negatives if negatives else None,
        positives=positives,
        negatives=negatives,
    )


# ----------------------------------------------------------------------
# Method bundles
# ----------------------------------------------------------------------
@dataclass(slots=True)
class MethodBundle:
    """All evaluation methods built over one dataset, with build times."""

    dataset: str
    methods: dict[str, RangeReachMethod]
    build_seconds: dict[str, float]

    def __getitem__(self, name: str) -> RangeReachMethod:
        return self.methods[name]


# Factories accept an optional shared BuildContext; callers that only
# pass the condensation (the per-method benchmark files) keep working.
_METHOD_FACTORIES: dict[str, Callable[..., RangeReachMethod]] = {
    "spareach-bfl": lambda cn, ctx=None: SpaReach(cn, reach_index="bfl", context=ctx),
    "spareach-int": lambda cn, ctx=None: SpaReach(cn, reach_index="interval", context=ctx),
    "georeach": lambda cn, ctx=None: GeoReach(cn, context=ctx),
    "socreach": lambda cn, ctx=None: SocReach(cn, context=ctx),
    "3dreach": lambda cn, ctx=None: ThreeDReach(cn, context=ctx),
    "3dreach-rev": lambda cn, ctx=None: ThreeDReachRev(cn, context=ctx),
    # MBR SCC-handling variants (Section 5 / Figure 5 & the Table 4/5
    # parenthesised numbers).
    "spareach-bfl-mbr": lambda cn, ctx=None: SpaReach(cn, reach_index="bfl", scc_mode="mbr", context=ctx),
    "spareach-int-mbr": lambda cn, ctx=None: SpaReach(cn, reach_index="interval", scc_mode="mbr", context=ctx),
    "3dreach-mbr": lambda cn, ctx=None: ThreeDReach(cn, scc_mode="mbr", context=ctx),
    "3dreach-rev-mbr": lambda cn, ctx=None: ThreeDReachRev(cn, scc_mode="mbr", context=ctx),
}

PAPER_METHODS = ("spareach-bfl", "georeach", "socreach", "3dreach", "3dreach-rev")

_BUNDLES: dict[tuple[str, float, int, tuple[str, ...]], MethodBundle] = {}


def get_bundle(
    dataset: str,
    method_names: Sequence[str] = PAPER_METHODS,
    scale: float | None = None,
    seed: int = 1,
) -> MethodBundle:
    """Build (and cache) the requested methods over one dataset."""
    scale = bench_scale() if scale is None else scale
    key = (dataset, scale, seed, tuple(method_names))
    if key in _BUNDLES:
        return _BUNDLES[key]
    condensed = get_condensed(dataset, scale, seed)
    context = get_context(dataset, scale, seed)
    methods: dict[str, RangeReachMethod] = {}
    build_seconds: dict[str, float] = {}
    for name in method_names:
        factory = _METHOD_FACTORIES[name]
        method, seconds = build_timed(lambda f=factory: f(condensed, context))
        methods[name] = method
        build_seconds[name] = seconds
    bundle = MethodBundle(dataset, methods, build_seconds)
    _BUNDLES[key] = bundle
    return bundle


def method_names_available() -> tuple[str, ...]:
    """All method keys usable with :func:`get_bundle`."""
    return tuple(_METHOD_FACTORIES)

"""The shared build pipeline: a keyed artifact cache for index builds.

Every RangeReach method factory used to rebuild its own artifacts from
the raw :class:`~repro.geosocial.CondensedNetwork` — SocReach, 3DReach
and the SpaReach variants each ran ``build_labeling`` /
``build_reversed_labeling`` and bulk-loaded their own R-trees, so a
compare-all-methods run recomputed the same DFS forests and spatial
loads once per method.  :class:`BuildContext` separates *index
construction* from *query serving* (the build-once/query-many split of
the reachability-indexing literature): methods constructed through one
context share

* the **condensation** (built at most once per context);
* the **interval labelings**, keyed by ``(direction, mode, stride)``;
* the **spatial feeds** (replicate / MBR bulk-load entry lists);
* the **bulk-loaded R-trees**, keyed by ``(feed, dims, capacity)``;
* the **columnar snapshot artifacts** (CSR coordinate columns and
  post-order slabs).

Each cache access is counted (``repro_pipeline_cache_{hits,misses}_total``
by artifact kind) and each construction is timed into a per-kind
build-seconds histogram, so "how much did sharing save?" is a metrics
query, not a guess.  Per-context numbers are also kept locally
(:meth:`BuildContext.stats`, :meth:`BuildContext.labeling_builds`) so
they work with observability disabled.

Sharing is safe because every cached artifact is immutable once built:
methods only read labels, columns and R-tree nodes at query time.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from repro.geosocial.columnar import (
    PostOrderSlabs,
    SpatialColumns,
    build_post_slabs,
)
from repro.geosocial.network import GeosocialNetwork
from repro.geosocial.scc_handling import (
    CondensedNetwork,
    SccMode,
    condense_network,
)
from repro.kernels import (
    make_bfl_kernel,
    make_label_kernel,
    make_point_kernel,
    make_segment_kernel,
    make_slab_kernel,
    resolve_backend,
)
from repro.labeling import (
    IntervalLabeling,
    build_labeling,
    build_reversed_labeling,
)
from repro.obs import instruments as _inst
from repro.obs.metrics import enabled as _obs_enabled
from repro.spatial import RTree

#: Cache keys are flat tuples whose first element names the artifact kind.
ArtifactKey = tuple


class BuildContext:
    """Keyed artifact cache shared by all method builds over one network.

    Args:
        source: the network to build over — either a raw
            :class:`GeosocialNetwork` (condensed lazily, at most once) or
            a pre-built :class:`CondensedNetwork` (seeded into the cache;
            accessing it counts as a hit, never a rebuild).
        kernels: inner-loop backend, ``"numpy"`` or ``"python"``
            (default: :func:`repro.kernels.resolve_backend` — the
            ``REPRO_KERNELS`` env var, falling back to numpy when
            importable).  Methods built through this context inherit it
            unless they pass their own ``kernels=``.
    """

    def __init__(
        self,
        source: GeosocialNetwork | CondensedNetwork,
        kernels: str | None = None,
    ) -> None:
        if isinstance(source, CondensedNetwork):
            self._network = source.network
            seed: CondensedNetwork | None = source
        elif isinstance(source, GeosocialNetwork):
            self._network = source
            seed = None
        else:
            raise TypeError(
                "BuildContext wraps a GeosocialNetwork or a CondensedNetwork, "
                f"not {type(source).__name__}"
            )
        self._artifacts: dict[ArtifactKey, object] = {}
        self._hits: dict[ArtifactKey, int] = {}
        self._misses: dict[ArtifactKey, int] = {}
        self._build_seconds: dict[ArtifactKey, float] = {}
        # Kernels are *derived* accelerators over cached artifacts, not
        # artifacts themselves: they never enter ``_artifacts`` (the
        # snapshot writer rejects unknown kinds) so snapshots stay
        # backend-independent by construction.
        self._kernel_backend = resolve_backend(kernels)
        self._kernel_cache: dict[tuple, object] = {}
        if seed is not None:
            self._artifacts[("condense",)] = seed

    # ------------------------------------------------------------------
    # Cache core
    # ------------------------------------------------------------------
    def _get(self, key: ArtifactKey, build: Callable[[], object]):
        artifact = self._artifacts.get(key)
        kind = key[0]
        if artifact is not None:
            self._hits[key] = self._hits.get(key, 0) + 1
            if _obs_enabled():
                _inst.PIPELINE_CACHE_HITS.labels(artifact=kind).inc()
            return artifact
        self._misses[key] = self._misses.get(key, 0) + 1
        if _obs_enabled():
            _inst.PIPELINE_CACHE_MISSES.labels(artifact=kind).inc()
        started = time.perf_counter()
        artifact = build()
        elapsed = time.perf_counter() - started
        self._artifacts[key] = artifact
        self._build_seconds[key] = elapsed
        if _obs_enabled():
            _inst.pipeline_build_seconds(kind).observe(elapsed)
        return artifact

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    @property
    def network(self) -> GeosocialNetwork:
        return self._network

    def condensed(self) -> CondensedNetwork:
        """The condensation; built at most once per context."""
        return self._get(
            ("condense",), lambda: condense_network(self._network)
        )

    def labeling(
        self, mode: str = "subtree", stride: int = 1
    ) -> IntervalLabeling:
        """The forward interval labeling for one ``(mode, stride)``."""
        dag = self.condensed().dag
        return self._get(
            ("labeling", "forward", mode, stride),
            lambda: build_labeling(dag, mode=mode, post_stride=stride),
        )

    def reversed_labeling(self, mode: str = "subtree") -> IntervalLabeling:
        """The reversed interval labeling (3DReach-Rev's scheme)."""
        dag = self.condensed().dag
        return self._get(
            ("labeling", "reversed", mode, 1),
            lambda: build_reversed_labeling(dag, mode=mode),
        )

    def columns(self) -> SpatialColumns:
        """The condensation's CSR coordinate columns."""
        condensed = self.condensed()
        return self._get(("columns",), condensed.columns)

    def post_slabs(
        self, mode: str = "subtree", stride: int = 1
    ) -> PostOrderSlabs:
        """Post-order-aligned coordinate slabs over one labeling."""
        condensed = self.condensed()
        labeling = self.labeling(mode=mode, stride=stride)
        return self._get(
            ("slabs", mode, stride),
            lambda: build_post_slabs(condensed, labeling),
        )

    def replicate_feed(self) -> list:
        """2-D bulk-load entries, one degenerate box per member point."""
        condensed = self.condensed()
        return self._get(
            ("feed", "replicate-2d"),
            lambda: [
                ((p.x, p.y, p.x, p.y), component)
                for p, component in condensed.replicate_entries()
            ],
        )

    def mbr_feed(self) -> list:
        """2-D bulk-load entries, one MBR per spatial super-vertex."""
        condensed = self.condensed()
        return self._get(
            ("feed", "mbr-2d"),
            lambda: [
                (mbr.as_tuple(), component)
                for mbr, component in condensed.mbr_entries()
            ],
        )

    # ------------------------------------------------------------------
    # R-trees (keyed by feed identity, dims and capacity)
    # ------------------------------------------------------------------
    def rtree(
        self,
        feed: str | tuple,
        dims: int,
        capacity: int,
        entries: Callable[[], Iterable],
    ) -> RTree:
        """Generic keyed R-tree cache.

        ``feed`` names the entry feed (a string or tuple making the key
        unique); ``entries`` is a zero-argument callable producing the
        bulk-load feed — only invoked on a cache miss.
        """
        feed_key = feed if isinstance(feed, tuple) else (feed,)
        key = ("rtree", *feed_key, int(dims), int(capacity))
        return self._get(
            key,
            lambda: RTree.bulk_load(entries(), dims=dims, capacity=capacity),
        )

    def spatial_rtree(self, scc_mode: SccMode, capacity: int = 16) -> RTree:
        """The 2-D R-tree over the replicate or MBR feed (SpaReach)."""
        feed = (
            self.replicate_feed()
            if scc_mode == "replicate"
            else self.mbr_feed()
        )
        return self.rtree(("2d", scc_mode), 2, capacity, lambda: feed)

    def point_rtree_3d(
        self,
        scc_mode: SccMode,
        mode: str = "subtree",
        stride: int = 1,
        capacity: int = 16,
    ) -> RTree:
        """The 3-D ``(x, y, post)`` R-tree of 3DReach, values = components."""
        condensed = self.condensed()
        post = self.labeling(mode=mode, stride=stride).post
        if scc_mode == "replicate":
            def entries():
                return (
                    ((p.x, p.y, post[c], p.x, p.y, post[c]), c)
                    for p, c in condensed.replicate_entries()
                )
        else:
            def entries():
                return (
                    ((m.xlo, m.ylo, post[c], m.xhi, m.yhi, post[c]), c)
                    for m, c in condensed.mbr_entries()
                )
        return self.rtree(
            ("3d-points", scc_mode, mode, stride), 3, capacity, entries
        )

    def segment_rtree_3d(
        self,
        scc_mode: SccMode,
        mode: str = "subtree",
        capacity: int = 16,
    ) -> RTree:
        """The 3-D segment R-tree of 3DReach-Rev (reversed labels)."""
        condensed = self.condensed()
        labels = self.reversed_labeling(mode=mode).labels

        def entries():
            if scc_mode == "replicate":
                for point, component in condensed.replicate_entries():
                    for lo, hi in labels[component]:
                        yield (
                            (point.x, point.y, lo, point.x, point.y, hi),
                            component,
                        )
            else:
                for mbr, component in condensed.mbr_entries():
                    for lo, hi in labels[component]:
                        yield (
                            (mbr.xlo, mbr.ylo, lo, mbr.xhi, mbr.yhi, hi),
                            component,
                        )

        return self.rtree(
            ("3d-segments", scc_mode, mode), 3, capacity, entries
        )

    def vertex_rtree_3d(
        self, mode: str = "subtree", stride: int = 1, capacity: int = 16
    ) -> RTree:
        """The 3-D point R-tree keyed by *original* spatial vertex ids.

        Used by :class:`~repro.core.GeosocialQueryEngine`, whose extended
        queries (witnesses, nearest) must report original vertices.
        """
        condensed = self.condensed()
        post = self.labeling(mode=mode, stride=stride).post

        def entries():
            return (
                ((p.x, p.y, post[c], p.x, p.y, post[c]), vertex)
                for p, c, vertex in condensed.vertex_entries()
            )

        return self.rtree(("3d-vertices", mode, stride), 3, capacity, entries)

    # ------------------------------------------------------------------
    # Derived reachability artifacts (SpaGraph, BFL)
    # ------------------------------------------------------------------
    def spa_graph(self, params=None):
        """GeoReach's materialized SPA-graph for one parameter set.

        The dominant single-artifact build cost of a five-method run, so
        caching (and persisting) it is what makes warm starts fast.
        """
        from repro.core.georeach import GeoReachParams, build_spa_graph

        params = params or GeoReachParams()
        condensed = self.condensed()
        key = (
            "spa",
            params.grid_levels,
            params.merge_count,
            params.max_reach_grids,
            params.max_rmbr_ratio,
        )
        return self._get(key, lambda: build_spa_graph(condensed, params))

    def bfl_reach(self, filter_bits: int = 256, seed: int = 7):
        """The Bloom-filter-labeling reachability index over the DAG."""
        from repro.reach.bfl import BflReach

        dag = self.condensed().dag
        return self._get(
            ("reach", "bfl", int(filter_bits), int(seed)),
            lambda: BflReach(dag, filter_bits=filter_bits, seed=seed),
        )

    # ------------------------------------------------------------------
    # Kernels (derived, non-persisted accelerators)
    # ------------------------------------------------------------------
    @property
    def kernels(self) -> str:
        """The resolved kernel backend methods inherit from this context."""
        return self._kernel_backend

    def set_kernels(self, kernels: str | None) -> None:
        """Re-resolve the backend (used by warm starts); clears kernel cache."""
        backend = resolve_backend(kernels)
        if backend != self._kernel_backend:
            self._kernel_backend = backend
            self._kernel_cache.clear()

    def _kernel(self, key: tuple, build: Callable[[], object]):
        kernel = self._kernel_cache.get(key)
        if kernel is None:
            kernel = self._kernel_cache[key] = build()
        return kernel

    def _backend(self, backend: str | None) -> str:
        return self._kernel_backend if backend is None else resolve_backend(backend)

    def slab_kernel(
        self,
        mode: str = "subtree",
        stride: int = 1,
        backend: str | None = None,
    ):
        """Slab-scan kernel over :meth:`post_slabs` (SocReach, 3DReach and
        the engine's cuboid sweeps — the one kernel queries route through)."""
        backend = self._backend(backend)
        return self._kernel(
            ("slab", backend, mode, stride),
            lambda: make_slab_kernel(
                backend, self.post_slabs(mode=mode, stride=stride), stride
            ),
        )

    def point_kernel(self, backend: str | None = None):
        """Point-probe kernel over :meth:`columns`.

        No method routes through it (SpaReach and GeoReach scan the
        columns directly); kept for the benchmark ladder and the parity
        suite, like :meth:`bfl_kernel` and :meth:`segment_kernel`.
        """
        backend = self._backend(backend)
        return self._kernel(
            ("points", backend), lambda: make_point_kernel(backend, self.columns())
        )

    def bfl_kernel(
        self,
        filter_bits: int = 256,
        seed: int = 7,
        backend: str | None = None,
    ):
        """Batched BFL kernel over :meth:`bfl_reach` (no method routes
        through it; see :meth:`point_kernel`)."""
        backend = self._backend(backend)
        return self._kernel(
            ("bfl", backend, int(filter_bits), int(seed)),
            lambda: make_bfl_kernel(
                backend, self.bfl_reach(filter_bits=filter_bits, seed=seed)
            ),
        )

    def label_kernel(
        self,
        mode: str = "subtree",
        stride: int = 1,
        backend: str | None = None,
    ):
        """Batched interval-coverage kernel over :meth:`labeling`."""
        backend = self._backend(backend)
        return self._kernel(
            ("labels", backend, mode, stride),
            lambda: make_label_kernel(
                backend, self.labeling(mode=mode, stride=stride)
            ),
        )

    def segment_kernel(self, mode: str = "subtree", backend: str | None = None):
        """Segment-sweep kernel over :meth:`reversed_labeling` (no method
        routes through it; see :meth:`point_kernel`)."""
        backend = self._backend(backend)
        return self._kernel(
            ("segments", backend, mode),
            lambda: make_segment_kernel(
                backend, self.condensed(), self.reversed_labeling(mode=mode)
            ),
        )

    # ------------------------------------------------------------------
    # Persistence (repro.store)
    # ------------------------------------------------------------------
    def seed_artifact(self, key: ArtifactKey, artifact: object) -> None:
        """Install a pre-built artifact under ``key`` without counting.

        Used by the snapshot loader: seeded artifacts behave exactly like
        cache contents (every subsequent ``_get`` is a hit), so a warm
        start shows zero misses and ``labeling_builds() == []``.
        """
        self._artifacts[tuple(key)] = artifact

    def artifact_items(self) -> list[tuple[ArtifactKey, object]]:
        """All cached ``(key, artifact)`` pairs, for the snapshot writer."""
        return list(self._artifacts.items())

    def save(self, directory) -> dict:
        """Persist every cached artifact as a snapshot at ``directory``.

        Returns the save summary of :func:`repro.store.save_context`.
        """
        from repro.store import save_context

        return save_context(self, directory)

    @classmethod
    def load(cls, directory, kernels: str | None = None) -> "BuildContext":
        """Rebuild a context from a snapshot written by :meth:`save`.

        Snapshots are backend-independent (kernels are derived, never
        persisted), so ``kernels=`` freely re-targets a snapshot saved
        under the other backend.

        Raises:
            repro.store.SnapshotError: on a missing, malformed or
                corrupted snapshot.
        """
        from repro.store import load_context

        context = load_context(directory)
        if kernels is not None:
            context.set_kernels(kernels)
        return context

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-artifact-kind hit/miss/build-time totals for this context."""
        hits: dict[str, int] = {}
        misses: dict[str, int] = {}
        seconds: dict[str, float] = {}
        for key, n in self._hits.items():
            hits[key[0]] = hits.get(key[0], 0) + n
        for key, n in self._misses.items():
            misses[key[0]] = misses.get(key[0], 0) + n
        for key, s in self._build_seconds.items():
            seconds[key[0]] = seconds.get(key[0], 0.0) + s
        return {
            "hits": hits,
            "misses": misses,
            "build_seconds": seconds,
            "artifacts": len(self._artifacts),
        }

    def miss_keys(self) -> list[ArtifactKey]:
        """The full keys actually constructed (each at most once)."""
        return sorted(self._misses)

    def labeling_builds(self) -> list[tuple]:
        """Distinct ``(direction, mode, stride)`` labelings constructed.

        The acceptance check of the shared pipeline: building N methods
        through one context must run at most one labeling construction
        per distinct key, i.e. the labeling-miss count always equals
        ``len(context.labeling_builds())``.
        """
        return sorted(
            key[1:] for key in self._misses if key[0] == "labeling"
        )

"""SpaReach: the spatial-first baseline (Section 2.2.1).

Evaluate the spatial range query first (via a 2-D R-tree over the spatial
vertices), then issue one graph-reachability query per candidate until a
positive answer terminates the search.  The paper's two instantiations
are:

* **SpaReach-BFL** — ``reach_index="bfl"`` (default), and
* **SpaReach-INT** — ``reach_index="interval"``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.base import RangeReachBase, register_method
from repro.geometry import Rect
from repro.obs import instruments as _inst
from repro.obs.metrics import enabled as _obs_enabled
from repro.obs.trace import span as _span
from repro.geosocial.scc_handling import SCC_MODES, CondensedNetwork, SccMode
from repro.reach import IntervalReach
from repro.reach.base import ReachabilityIndex
from repro.pipeline import BuildContext
from repro.spatial import RTree

_REACH_INDEXES = ("bfl", "interval")


class SpaReach(RangeReachBase):
    """Spatial-first RangeReach evaluation.

    Args:
        network: the condensed geosocial network.
        reach_index: ``"bfl"`` (SpaReach-BFL, the context's shared BFL
            index) or ``"interval"`` (SpaReach-INT, over the context's
            forward interval labeling).
        scc_mode: ``"replicate"`` indexes every member point of a spatial
            SCC individually; ``"mbr"`` indexes one MBR per spatial SCC and
            verifies member points on candidate hits (Section 5).
        rtree_capacity: R-tree node fan-out.
        context: shared :class:`BuildContext` to construct through.  Both
            SpaReach variants draw the same R-tree from it, and
            SpaReach-INT shares the context's forward interval labeling
            with SocReach/3DReach.
        kernels: validated and exposed as ``.kernels``; selects no code
            here — SpaReach always runs the R-tree range query and the
            scalar, early-exit series of ``GReach`` tests.
    """

    def __init__(
        self,
        network: CondensedNetwork,
        reach_index: str = "bfl",
        scc_mode: SccMode = "replicate",
        rtree_capacity: int = 16,
        context: BuildContext | None = None,
        kernels: str | None = None,
    ) -> None:
        if scc_mode not in SCC_MODES:
            raise ValueError(f"scc_mode must be one of {SCC_MODES}")
        if reach_index not in _REACH_INDEXES:
            raise ValueError(
                f"unknown reachability index {reach_index!r}; "
                f"known: {', '.join(_REACH_INDEXES)}"
            )
        context = self._build_context(network, context, kernels)
        self._network = network
        self._scc_mode = scc_mode
        if reach_index == "interval":
            # SpaReach-INT's reachability labels are the same forward
            # interval labeling SocReach/3DReach use — share it.
            self._reach = IntervalReach(
                network.dag, labeling=context.labeling()
            )
        else:
            # Shared (and snapshot-persisted) BFL index.
            self._reach = context.bfl_reach()
        self.name = f"spareach-{self._reach.name}"
        if scc_mode == "mbr":
            self.name += "-mbr"
        self._rtree = context.spatial_rtree(scc_mode, rtree_capacity)

        self._bind_counters()
        self._m_candidates = _inst.SPAREACH_CANDIDATES.labels(method=self.name)

    # ------------------------------------------------------------------
    def query(self, v: int, region: Rect) -> bool:
        with _span(f"{self.name}.query"):
            # Evaluate SRange(P, R) in full, *then* run the series of
            # GReach tests (Section 2.2.1).
            candidates = self._rtree.search_all(region.as_tuple())
            return self._greach_series(
                self._network.super_of(v), region, candidates,
                len(candidates), self._scc_mode == "mbr",
            )

    def _greach_series(
        self,
        source: int,
        region: Rect,
        candidates: Sequence[int],
        seen: int,
        verify: bool,
    ) -> bool:
        """One ``GReach`` test per distinct candidate until one succeeds.

        ``seen`` is the SRange result size this query is charged with.
        ``verify`` says whether the candidates still need the MBR-mode
        spatial verification — an intersecting MBR does not prove a
        member point lies inside the region.
        """
        reaches = self._reach.reaches
        hits_region = self._network.component_hits_region
        reach_tests = verified = 0
        answer = False
        # Candidates arrive per point; distinct points of one SCC map to
        # the same super-vertex, so each is tested once.
        tested: set[int] = set()
        for component in candidates:
            if component in tested:
                continue
            tested.add(component)
            if verify:
                verified += 1
                if not hits_region(component, region):
                    continue
            reach_tests += 1
            if reaches(source, component):
                answer = True
                break
        if _obs_enabled():
            self._m_queries.inc()
            if answer:
                self._m_positives.inc()
            self._m_candidates.inc(seen)
            self._m_probes.inc(reach_tests)
            self._m_verified.inc(
                verified if self._scc_mode == "mbr" else reach_tests
            )
        return answer

    # ------------------------------------------------------------------
    def query_batch(self, pairs: Sequence[tuple[int, Rect]]) -> list[bool]:
        """Answer many queries with one SRange evaluation per region.

        SpaReach's dominant cost is the spatial range query, and it
        depends on the region alone — so the batch groups queries by
        region: each distinct region hits the R-tree exactly **once**
        (in MBR mode the spatial verification of its candidates also
        runs once), and every query over that region reuses the
        candidate list for its reachability tests.  Distinct
        ``(source, region)`` pairs likewise memoize their final answer.
        """
        if not pairs:
            return []
        with _span(f"{self.name}.query_batch"):
            hits_region = self._network.component_hits_region
            mbr_mode = self._scc_mode == "mbr"
            # One SRange (plus MBR-mode spatial verification) per region.
            candidates_of: dict[tuple, list[int]] = {}
            candidates_seen = 0
            verified = 0

            def series(source: int, region: Rect) -> bool:
                nonlocal candidates_seen, verified
                rkey = region.as_tuple()
                distinct = candidates_of.get(rkey)
                if distinct is None:
                    raw = self._rtree.search_all(rkey)
                    candidates_seen += len(raw)
                    distinct = list(dict.fromkeys(raw))
                    if mbr_mode:
                        verified += len(distinct)
                        distinct = [
                            c for c in distinct if hits_region(c, region)
                        ]
                    candidates_of[rkey] = distinct
                return self._greach_series(source, region, distinct, 0, False)

            answers = self._batch_distinct(pairs, series)
            if _obs_enabled():
                self._m_candidates.inc(candidates_seen)
                self._m_verified.inc(verified)
            return answers

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Reachability labels plus the R-tree (Table 4 accounting).

        Point entries cost ``dims`` floats, MBR entries ``2 * dims`` — the
        representational gap behind the paper's observation that the MBR
        SCC variant inflates the index by tens of percent.
        """
        entry_floats = 2 if self._scc_mode == "replicate" else 4
        return self._reach.size_bytes() + _rtree_size_bytes(
            self._rtree, entry_floats
        )

    @property
    def reach_index(self) -> ReachabilityIndex:
        return self._reach

    @property
    def rtree(self) -> RTree:
        return self._rtree


def _rtree_size_bytes(rtree: RTree, entry_floats: int | None = None) -> int:
    """Analytic R-tree size mirroring a C++ layout.

    Args:
        rtree: the tree to account for.
        entry_floats: number of 8-byte floats one leaf entry's geometry
            occupies — ``dims`` for points, ``2 * dims`` for boxes and
            segments (the default).
    """
    stats = rtree.stats()
    if entry_floats is None:
        entry_floats = 2 * rtree.dims
    per_node_box = 8 * rtree.dims * 2
    entry_bytes = stats.num_items * (8 * entry_floats + 8)
    node_bytes = stats.num_nodes * (per_node_box + 16)
    return entry_bytes + node_bytes


@register_method("spareach-bfl")
def _build_spareach_bfl(network: CondensedNetwork, **options) -> SpaReach:
    return SpaReach(network, reach_index="bfl", **options)


@register_method("spareach-int")
def _build_spareach_int(network: CondensedNetwork, **options) -> SpaReach:
    return SpaReach(network, reach_index="interval", **options)

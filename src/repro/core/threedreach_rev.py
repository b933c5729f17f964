"""3DReach-Rev: the line-based 3DReach variant (Section 4.2).

Built on the *reversed* interval labeling, whose labels of a vertex cover
the post-order numbers of its *ancestors*.  Every spatial vertex ``u``
becomes a set of vertical segments at ``(u.x, u.y)``, one per reversed
label ``[l, h] ∈ L_rev(u)``.  A query is then a *single* 3-D slab query:
the plane with base ``R`` at height ``z = post_rev(v)``.  The plane cuts a
segment of ``u`` iff ``v`` is an ancestor of ``u`` (reachability) and
``u``'s point lies in ``R`` (spatial predicate).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.base import RangeReachBase, register_method
from repro.geometry import Rect
from repro.geosocial.scc_handling import SCC_MODES, CondensedNetwork, SccMode
from repro.labeling import IntervalLabeling
from repro.obs import instruments as _inst
from repro.obs.metrics import enabled as _obs_enabled
from repro.obs.trace import span as _span
from repro.pipeline import BuildContext
from repro.spatial import RTree


class ThreeDReachRev(RangeReachBase):
    """Line-based 3DReach over the reversed labeling.

    ``labeling=`` takes the *reversed* labeling (the canonical keyword
    shared by every method class).  Every query is one slab query on the
    3-D segment R-tree under both kernel backends: ``kernels=`` is
    validated and exposed as ``.kernels`` but selects no code here.
    """

    def __init__(
        self,
        network: CondensedNetwork,
        labeling: IntervalLabeling | None = None,
        scc_mode: SccMode = "replicate",
        mode: str = "subtree",
        rtree_capacity: int = 16,
        context: BuildContext | None = None,
        kernels: str | None = None,
    ) -> None:
        if scc_mode not in SCC_MODES:
            raise ValueError(f"scc_mode must be one of {SCC_MODES}")
        self._network = network
        self._scc_mode = scc_mode
        self.name = "3dreach-rev" if scc_mode == "replicate" else "3dreach-rev-mbr"
        context = self._build_context(
            network, context, kernels,
            ("labeling", "reversed", mode, 1), labeling,
        )
        self._labeling = context.reversed_labeling(mode=mode)
        self._rtree = context.segment_rtree_3d(
            scc_mode, mode=mode, capacity=rtree_capacity
        )
        self._bind_counters()

    # ------------------------------------------------------------------
    def query(self, v: int, region: Rect) -> bool:
        with _span(f"{self.name}.query"):
            return self._slab(self._network.super_of(v), region)

    def _slab(self, source: int, region: Rect) -> bool:
        """The single slab query: base ``region`` at ``z = post_rev(source)``."""
        z = float(self._labeling.post_of(source))
        slab = (region.xlo, region.ylo, z, region.xhi, region.yhi, z)
        verified = 0
        if self._scc_mode == "replicate":
            # Segments are degenerate in x/y, so box intersection with
            # the slab is exact: any hit is a witness.
            answer = self._rtree.any_intersecting(slab) is not None
        else:
            # An intersecting box only proves the super-vertex is an
            # ancestor-reachable one whose MBR overlaps R; verify points.
            answer = False
            hits_region = self._network.component_hits_region
            for component in self._rtree.search(slab):
                verified += 1
                if hits_region(component, region):
                    answer = True
                    break
        if _obs_enabled():
            self._m_queries.inc()
            if answer:
                self._m_positives.inc()
            # The single slab query plays the role of the label probe.
            self._m_probes.inc()
            self._m_verified.inc(verified)
            _inst.THREEDREACH_REV_SLABS.inc()
        return answer

    def query_batch(self, pairs: Sequence[tuple[int, Rect]]) -> list[bool]:
        """Answer many queries as a z-sorted sweep of slab queries.

        The answer is a pure function of ``(post_rev(source), region)``,
        so distinct slabs are evaluated once, in ascending slab height:
        consecutive slab queries cut overlapping R-tree subtrees while
        those nodes are hot, and duplicated queries reuse the memoized
        answer without a second R-tree descent.
        """
        if not pairs:
            return []
        with _span(f"{self.name}.query_batch"):
            return self._batch_distinct(
                pairs, self._slab, self._labeling.post_of
            )

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Reversed labels plus the 3-D R-tree (Table 4 accounting).

        The R-tree stores one box-shaped entry per (point, label) pair —
        matching the paper's remark that Boost stores segments and boxes
        alike, which is why the MBR variant costs no extra space here.
        """
        from repro.core.spareach import _rtree_size_bytes

        # Segments and boxes both occupy two 3-D endpoints, so replicate
        # and MBR variants cost the same here (as in the paper).
        return self._labeling.size_bytes() + _rtree_size_bytes(self._rtree, 6)

    @property
    def labeling(self) -> IntervalLabeling:
        """The *reversed* interval labeling."""
        return self._labeling

    @property
    def rtree(self) -> RTree:
        return self._rtree


@register_method("3dreach-rev")
def _build_3dreach_rev(network: CondensedNetwork, **options) -> ThreeDReachRev:
    return ThreeDReachRev(network, **options)

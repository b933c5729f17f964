"""3DReach: the paper's point-based 3-D transformation (Section 4.2).

Every spatial vertex ``u`` becomes the 3-D point
``(u.x, u.y, post(u))`` where ``post`` is its post-order number in the
interval labeling.  A ``RangeReach(G, v, R)`` query is rewritten into one
3-D range query (cuboid) per label ``[l, h] ∈ L(v)``: base ``R``,
z-extent ``[l, h]``.  The answer is TRUE iff any cuboid contains an
indexed point — that point simultaneously satisfies the spatial predicate
(x/y inside ``R``) and the reachability predicate (``l <= post <= h``).
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


class CuboidSweep(RangeReachBase):
    """The 3DReach evaluation: one cuboid per label of ``L(v)``.

    Shared by :class:`ThreeDReach` and the extended
    :class:`~repro.core.GeosocialQueryEngine`, whose boolean query is the
    same loop over the same labels.  Each cuboid ``R x [lo, hi]`` is
    answered by the slab kernel of the ``kernels=`` backend: the indexed
    ``(x, y, post)`` points ordered by ``post`` are exactly the
    post-order slabs, so the cuboid holds a point iff the slab sweep
    over ``[lo, hi]`` hits ``R`` — in both SCC modes the witness is a
    member point.
    """

    def _build_sweep(
        self,
        network: CondensedNetwork,
        labeling: IntervalLabeling | None,
        mode: str,
        stride: int,
        context: BuildContext | None,
        kernels: str | None,
    ) -> tuple[BuildContext, int]:
        """Set the labeling and slab kernel; the subclass adds its R-tree."""
        self._network = network
        context, stride = self._build_forward(
            network, labeling, mode, stride, context, kernels
        )
        self._skernel = context.slab_kernel(
            mode=mode, stride=stride, backend=self.kernels
        )
        return context, stride

    def _sweep(self, source: int, region: Rect) -> bool:
        any_in_zrange = self._skernel.any_in_zrange
        cuboids = 0
        answer = False
        for lo, hi in self._labeling.labels_of(source):
            cuboids += 1
            if any_in_zrange(region, lo, hi):
                answer = True
                break
        if self._m_queries is not None and _obs_enabled():
            self._m_queries.inc()
            if answer:
                self._m_positives.inc()
            # One cuboid per interval label probed (up to early exit).
            self._m_probes.inc(cuboids)
            _inst.THREEDREACH_CUBOIDS.inc(cuboids)
        return answer

    def _first_z(self, source: int) -> float:
        """Batch order: the height of the source's first cuboid."""
        labels = self._labeling.labels_of(source)
        return labels[0][0] if labels else -1.0


class ThreeDReach(CuboidSweep):
    """Point-based 3DReach over a 3-D R-tree.

    The R-tree over the ``(x, y, post)`` points is the paper's index —
    built, sized (Table 4) and exposed as :attr:`rtree` — while queries
    take the :class:`CuboidSweep` path over the same points.
    """

    def __init__(
        self,
        network: CondensedNetwork,
        labeling: IntervalLabeling | None = None,
        scc_mode: SccMode = "replicate",
        mode: str = "subtree",
        stride: int = 1,
        rtree_capacity: int = 16,
        context: BuildContext | None = None,
        kernels: str | None = None,
    ) -> None:
        if scc_mode not in SCC_MODES:
            raise ValueError(f"scc_mode must be one of {SCC_MODES}")
        self._scc_mode = scc_mode
        self.name = "3dreach" if scc_mode == "replicate" else "3dreach-mbr"
        context, stride = self._build_sweep(
            network, labeling, mode, stride, context, kernels
        )
        self._rtree = context.point_rtree_3d(
            scc_mode, mode=mode, stride=stride, capacity=rtree_capacity
        )
        self._bind_counters()

    # ------------------------------------------------------------------
    def query(self, v: int, region: Rect) -> bool:
        with _span(f"{self.name}.query"):
            return self._sweep(self._network.super_of(v), region)

    def query_batch(self, pairs: Sequence[tuple[int, Rect]]) -> list[bool]:
        """Answer many queries, one z-ordered sweep per distinct pair.

        Distinct ``(source, region)`` work items are evaluated once, in
        ascending order of the source's first label ``z``-extent; sources
        with no labels answer FALSE without touching the slabs.
        """
        if not pairs:
            return []
        with _span(f"{self.name}.query_batch"):
            return self._batch_distinct(pairs, self._sweep, self._first_z)

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Interval labels plus the 3-D R-tree (Table 4 accounting).

        Point entries cost 3 floats; MBR-variant entries are flat boxes
        (6 floats) — matching the paper's observation that the MBR SCC
        variant inflates the 3-D index.
        """
        from repro.core.spareach import _rtree_size_bytes

        entry_floats = 3 if self._scc_mode == "replicate" else 6
        return self._labeling.size_bytes() + _rtree_size_bytes(
            self._rtree, entry_floats
        )

    @property
    def labeling(self) -> IntervalLabeling:
        return self._labeling

    @property
    def rtree(self) -> RTree:
        return self._rtree


@register_method("3dreach")
def _build_3dreach(network: CondensedNetwork, **options) -> ThreeDReach:
    return ThreeDReach(network, **options)

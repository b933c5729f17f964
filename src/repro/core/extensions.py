"""Extended geosocial reachability queries.

The paper's conclusions list "the computation of other types of geosocial
queries" as future work.  This module builds the natural family on top of
the 3DReach transformation — the same 3-D R-tree over ``(x, y, post)``
points answers all of them:

* :meth:`GeosocialQueryEngine.query` — the boolean query (3DReach);
* :meth:`GeosocialQueryEngine.count` — how many reachable spatial
  vertices lie inside ``R``;
* :meth:`GeosocialQueryEngine.witnesses` — enumerate them;
* :meth:`GeosocialQueryEngine.at_least` — early-exit threshold test;
* :meth:`GeosocialQueryEngine.nearest` — the nearest reachable spatial
  vertex to a point (expanding-search, exact).

Counting relies on the compressed labels being *disjoint* in post-order
space: the per-label cuboids never overlap, so summing their counts never
double-counts a vertex.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.threedreach import CuboidSweep
from repro.geometry import Point, Rect, as_rect
from repro.geosocial.scc_handling import CondensedNetwork
from repro.labeling import IntervalLabeling
from repro.obs.trace import span as _span
from repro.pipeline import BuildContext


class GeosocialQueryEngine(CuboidSweep):
    """Answers the extended RangeReach query family over one network.

    The boolean query speaks the same protocol as the method classes —
    :meth:`query` / :meth:`query_batch` /
    :meth:`~repro.core.base.RangeReachBase.execute` — and is 3DReach's
    :class:`~repro.core.threedreach.CuboidSweep` evaluation (the slabs
    index every member point, so existence matches the vertex R-tree).
    Extended queries (count, witnesses, nearest) need vertex identities
    and run on the R-tree under both kernel backends.
    """

    name = "engine"

    def __init__(
        self,
        network: CondensedNetwork,
        labeling: IntervalLabeling | None = None,
        mode: str = "subtree",
        stride: int = 1,
        rtree_capacity: int = 16,
        context: BuildContext | None = None,
        kernels: str | None = None,
    ) -> None:
        context, stride = self._build_sweep(
            network, labeling, mode, stride, context, kernels
        )
        self._rtree = context.vertex_rtree_3d(
            mode=mode, stride=stride, capacity=rtree_capacity
        )
        # ``reaches_many`` batches its probes through the label kernel.
        self._lkernel = context.label_kernel(
            mode=mode, stride=stride, backend=self.kernels
        )

    # ------------------------------------------------------------------
    def _cuboids(self, v: int, region: Rect):
        source = self._network.super_of(v)
        for lo, hi in self._labeling.labels_of(source):
            yield (region.xlo, region.ylo, lo, region.xhi, region.yhi, hi)

    def query(self, v: int, region: Rect) -> bool:
        """The paper's boolean RangeReach query (3DReach evaluation)."""
        if not isinstance(region, Rect):
            # The database hands over a Rect on every read; only foreign
            # forms pay for the coercion call.
            region = as_rect(region)
        with _span("engine.query"):
            return self._sweep(self._network.super_of(v), region)

    def query_batch(self, pairs: Sequence[tuple[int, Rect]]) -> list[bool]:
        """Batched boolean queries; distinct ``(source, region)`` pairs
        evaluate once, in ascending first-label height."""
        if not pairs:
            return []
        with _span("engine.query_batch"):
            return self._batch_distinct(
                [(v, as_rect(region)) for v, region in pairs],
                self._sweep,
                self._first_z,
            )

    def reaches(self, u: int, v: int) -> bool:
        """Vertex-to-vertex reachability over the snapshot (Lemma 3.1).

        Both arguments are *original* vertex ids; the test runs on the
        condensation's interval labels, so it costs one label lookup.
        Used by the delta overlay to decide whether a snapshot vertex can
        reach the source of an edge added after the snapshot was built.
        """
        su = self._network.super_of(u)
        sv = self._network.super_of(v)
        return su == sv or self._labeling.greach(su, sv)

    def reaches_many(self, u: int, targets: Sequence[int]) -> list[bool]:
        """Batched :meth:`reaches`: one source, many target vertices.

        Under the numpy backend the whole batch resolves with a single
        ``searchsorted`` over the source's sorted, disjoint labels; the
        python kernel runs the scalar probes.  Answers are identical.
        """
        super_of = self._network.super_of
        return self._lkernel.covers_many(
            super_of(u), [super_of(t) for t in targets]
        )

    @property
    def num_vertices(self) -> int:
        """Number of original vertices covered by this snapshot."""
        return len(self._network.component_of)

    def count(self, v: int, region: Rect) -> int:
        """Count the spatial vertices inside ``region`` reachable from ``v``.

        Compressed labels are disjoint, so per-cuboid counts add up
        exactly.
        """
        region = as_rect(region)
        with _span("engine.count"):
            return sum(
                self._rtree.count_intersecting(cuboid)
                for cuboid in self._cuboids(v, region)
            )

    def witnesses(self, v: int, region: Rect) -> list[int]:
        """Return the original ids of all reachable spatial vertices in
        ``region``."""
        region = as_rect(region)
        with _span("engine.witnesses"):
            out: list[int] = []
            for cuboid in self._cuboids(v, region):
                out.extend(self._rtree.search(cuboid))
            return out

    def at_least(self, v: int, region: Rect, k: int) -> bool:
        """Return True iff at least ``k`` reachable spatial vertices lie
        in ``region`` (early exit as soon as the threshold is met)."""
        region = as_rect(region)
        with _span("engine.at_least"):
            if k <= 0:
                return True
            found = 0
            for cuboid in self._cuboids(v, region):
                for _ in self._rtree.search(cuboid):
                    found += 1
                    if found >= k:
                        return True
            return False

    def nearest(self, v: int, location: Point) -> tuple[int, float] | None:
        """Return ``(vertex, distance)`` of the reachable spatial vertex
        closest to ``location``, or None if ``v`` reaches no spatial vertex.

        Exact: an expanding square search finds a first candidate at
        distance ``d``; a final square of half-side ``d`` (which fully
        contains the radius-``d`` disc boundary candidates) settles the
        minimum.
        """
        with _span("engine.nearest"):
            space = self._network.network.space()
            # The search must be able to cover the entire indexed space
            # even when the query point lies far outside it: the stopping
            # radius is the farthest space corner, not the space diagonal.
            reach_limit = max(
                abs(location.x - space.xlo), abs(location.x - space.xhi),
                abs(location.y - space.ylo), abs(location.y - space.yhi),
                1e-9,
            )
            # Inflate past floating-point cancellation: the final square
            # must strictly contain the farthest corner, not meet it to
            # the ulp.
            reach_limit *= 1.0 + 1e-9
            reach_limit += 1e-12
            half = reach_limit / 1024.0
            best: tuple[int, float] | None = None
            while True:
                region = Rect(
                    location.x - half, location.y - half,
                    location.x + half, location.y + half,
                )
                best = self._closest_in(v, region, location)
                if best is not None or half >= reach_limit:
                    break
                half = min(half * 2.0, reach_limit)
            if best is None:
                return None
            # Points outside the square but within distance best[1] may
            # exist; one more query over the tight square catches them.
            d = best[1]
            region = Rect(
                location.x - d, location.y - d, location.x + d, location.y + d
            )
            refined = self._closest_in(v, region, location)
            return refined if refined is not None else best

    def _closest_in(
        self, v: int, region: Rect, location: Point
    ) -> tuple[int, float] | None:
        best_vertex = -1
        best_distance = math.inf
        points = self._network.network.points
        for vertex in self.witnesses(v, region):
            point = points[vertex]
            d = location.distance_to(point)
            if d < best_distance:
                best_vertex, best_distance = vertex, d
        if best_vertex < 0:
            return None
        return best_vertex, best_distance

    # ------------------------------------------------------------------
    @property
    def labeling(self) -> IntervalLabeling:
        return self._labeling

    def size_bytes(self) -> int:
        from repro.core.spareach import _rtree_size_bytes

        return self._labeling.size_bytes() + _rtree_size_bytes(self._rtree, 3)

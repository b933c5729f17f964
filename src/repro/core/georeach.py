"""GeoReach (Sarwat & Sun): the prior state of the art (Section 2.2.2).

GeoReach augments every vertex of the (condensed) network with partially
materialized spatio-reachability information — the *SPA-graph*:

* **G-vertices** store ``ReachGrid(v)``: the hierarchical-grid cells that
  contain all spatial vertices reachable from ``v``;
* **R-vertices** store ``RMBR(v)``: the MBR of those spatial vertices;
* **B-vertices** store one bit ``GeoB(v)``: can ``v`` reach *any* spatial
  vertex at all?

Three construction parameters control the classification:
``MAX_REACH_GRIDS`` caps ``|ReachGrid|`` (overflow downgrades G -> R),
``MAX_RMBR`` caps the RMBR's area relative to the whole space (overflow
downgrades R -> B), and ``MERGE_COUNT`` triggers replacing sibling quad
cells by their parent cell.

Queries traverse the SPA-graph breadth-first from the query vertex and use
the per-class information to prune (no overlap with ``R``), to terminate
early (a cell or RMBR fully inside ``R``), or to keep expanding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.base import RangeReachBase, register_method
from repro.geometry import Rect
from repro.geosocial.scc_handling import CondensedNetwork
from repro.graph.traversal import topological_order
from repro.obs import instruments as _inst
from repro.obs.metrics import enabled as _obs_enabled
from repro.obs.trace import span as _span
from repro.pipeline import BuildContext
from repro.spatial.grid import Cell, HierarchicalGrid

# Vertex classes of the SPA-graph.
_B_VERTEX = 0
_R_VERTEX = 1
_G_VERTEX = 2


@dataclass(frozen=True, slots=True)
class GeoReachParams:
    """SPA-graph construction parameters.

    Attributes:
        max_rmbr_ratio: ``MAX_RMBR`` as a fraction of the space's area; an
            RMBR larger than this downgrades the vertex to a B-vertex.
        max_reach_grids: ``MAX_REACH_GRIDS``; a larger ReachGrid set
            downgrades the vertex to an R-vertex.
        merge_count: ``MERGE_COUNT``; more than this many sibling quads in
            a ReachGrid are merged into their parent cell.
        grid_levels: number of levels of the hierarchical grid (level 0 has
            ``2^(grid_levels - 1)`` cells per side).
    """

    max_rmbr_ratio: float = 0.8
    max_reach_grids: int = 128
    merge_count: int = 3
    grid_levels: int = 8

    def __post_init__(self) -> None:
        if not (0.0 < self.max_rmbr_ratio <= 1.0):
            raise ValueError("max_rmbr_ratio must be in (0, 1]")
        if self.max_reach_grids < 1:
            raise ValueError("max_reach_grids must be positive")
        if self.merge_count < 1:
            raise ValueError("merge_count must be positive")
        if self.grid_levels < 1:
            raise ValueError("grid_levels must be positive")


def _padded(space: Rect) -> Rect:
    """Give a degenerate space MBR (single point / collinear venues) a
    positive extent so the hierarchical grid can partition it."""
    pad_x = 0.5 if space.width == 0 else 0.0
    pad_y = 0.5 if space.height == 0 else 0.0
    if pad_x == 0.0 and pad_y == 0.0:
        return space
    return Rect(
        space.xlo - pad_x, space.ylo - pad_y,
        space.xhi + pad_x, space.yhi + pad_y,
    )


@dataclass(frozen=True, slots=True)
class SpaGraph:
    """The materialized SPA-graph: GeoReach's whole build product.

    A pure-data artifact (no behaviour) so it can live in the shared
    :class:`BuildContext` cache — GeoReach's construction dominates a
    full five-method build — and be persisted by ``repro.store``.

    Attributes:
        params: the construction parameters the sweep ran with.
        space: the (padded) space the hierarchical grid partitions.
        vertex_class: per super-vertex B/R/G class tag.
        geo_bit: per super-vertex ``GeoB`` bit (meaningful for B).
        rmbr: per super-vertex RMBR (R and G vertices).
        reach_grid: per super-vertex ReachGrid cell set (G vertices).
    """

    params: GeoReachParams
    space: Rect
    vertex_class: list[int]
    geo_bit: list[bool]
    rmbr: list[Rect | None]
    reach_grid: list[frozenset[Cell] | None]


def build_spa_graph(
    network: CondensedNetwork, params: GeoReachParams | None = None
) -> SpaGraph:
    """Run the SPA-graph construction: one reverse-topological sweep."""
    params = params or GeoReachParams()
    space = _padded(network.network.space())
    grid = HierarchicalGrid(space, num_levels=params.grid_levels)
    max_rmbr_area = params.max_rmbr_ratio * space.area
    dag = network.dag
    n = dag.num_vertices

    vertex_class = [_B_VERTEX] * n
    geo_bit = [False] * n
    rmbr: list[Rect | None] = [None] * n
    reach_grid: list[frozenset[Cell] | None] = [None] * n

    for v in reversed(topological_order(dag)):
        own_points = network.points_of(v)
        # Gather the exact RMBR first: it is needed for both the R and
        # the downgrade-to-B decision, and it composes exactly
        # (union of children RMBRs and own points).
        boxes: list[Rect] = []
        cells: set[Cell] = set()
        cells_exact = True
        reaches_spatial = bool(own_points)
        for point in own_points:
            cells.add(grid.locate(point))
        if own_points:
            boxes.append(Rect.from_points(own_points))
        for u in dag.successors(v):
            u_class = vertex_class[u]
            if u_class == _B_VERTEX:
                if geo_bit[u]:
                    # The child only knows "reaches something, somewhere";
                    # no better summary can be derived for the parent.
                    reaches_spatial = True
                    cells_exact = False
                    boxes = []  # RMBR unknown too
                    break
                continue  # child reaches nothing: contributes nothing
            reaches_spatial = True
            child_rmbr = rmbr[u]
            assert child_rmbr is not None
            boxes.append(child_rmbr)
            if u_class == _G_VERTEX:
                cells.update(reach_grid[u])
            else:
                cells_exact = False

        if not reaches_spatial:
            vertex_class[v] = _B_VERTEX
            geo_bit[v] = False
            continue
        if not boxes:
            # A TRUE B-child erased all summaries.
            vertex_class[v] = _B_VERTEX
            geo_bit[v] = True
            continue

        full = boxes[0]
        for box in boxes[1:]:
            full = full.union(box)

        if cells_exact:
            merged = grid.merge_cells(cells, params.merge_count)
            if len(merged) <= params.max_reach_grids:
                vertex_class[v] = _G_VERTEX
                reach_grid[v] = frozenset(merged)
                rmbr[v] = full
                continue
        # G failed (inexact or too many cells): try R, else B.
        if full.area <= max_rmbr_area:
            vertex_class[v] = _R_VERTEX
            rmbr[v] = full
        else:
            vertex_class[v] = _B_VERTEX
            geo_bit[v] = True

    return SpaGraph(
        params=params,
        space=space,
        vertex_class=vertex_class,
        geo_bit=geo_bit,
        rmbr=rmbr,
        reach_grid=reach_grid,
    )


class GeoReach(RangeReachBase):
    """The SPA-graph method, reimplemented from the paper's description.

    ``kernels=`` is validated and exposed as ``.kernels`` but selects no
    code here: member points are always verified with the columnar
    ``Rect.first_contained`` scan.
    """

    name = "georeach"

    def __init__(
        self,
        network: CondensedNetwork,
        params: GeoReachParams | None = None,
        context: BuildContext | None = None,
        kernels: str | None = None,
    ) -> None:
        self._network = network
        self._params = params or GeoReachParams()
        # GeoReach shares no labeling or R-tree, but its SPA-graph (the
        # dominant build cost of a compare-all-methods run) and the
        # condensation's coordinate columns are context artifacts —
        # shared across instances and persisted by the snapshot store.
        context = self._build_context(network, context, kernels)
        self._columns = context.columns()
        spa = context.spa_graph(self._params)
        self._m_queries = _inst.METHOD_QUERIES.labels(method=self.name)
        self._m_positives = _inst.METHOD_POSITIVES.labels(method=self.name)
        self._m_verified = _inst.METHOD_CANDIDATES_VERIFIED.labels(
            method=self.name
        )
        self._grid = HierarchicalGrid(
            spa.space, num_levels=self._params.grid_levels
        )
        self._class = spa.vertex_class
        self._geo_bit = spa.geo_bit
        self._rmbr = spa.rmbr
        self._reach_grid = spa.reach_grid

    # ------------------------------------------------------------------
    # Query: pruned BFS over the SPA-graph.
    # ------------------------------------------------------------------
    def query(self, v: int, region: Rect) -> bool:
        with _span("georeach.query"):
            return self._query(v, region)

    def _query(self, v: int, region: Rect) -> bool:
        network = self._network
        dag = network.dag
        grid = self._grid
        vertex_class = self._class
        source = network.super_of(v)
        columns = self._columns
        offsets, xs, ys = columns.offsets, columns.xs, columns.ys
        first_contained = region.first_contained

        expanded = 0
        pruned = 0
        cell_tests = 0
        point_tests = 0
        answer = False
        visited = [False] * dag.num_vertices
        visited[source] = True
        queue: deque[int] = deque([source])
        while queue:
            u = queue.popleft()
            expanded += 1
            # A spatial vertex inside R answers the query immediately;
            # the member points are scanned as flat coordinate columns.
            lo, hi = offsets[u], offsets[u + 1]
            if hi > lo:
                idx = first_contained(xs, ys, lo, hi)
                if idx >= 0:
                    point_tests += idx - lo + 1
                    answer = True
                    break
                point_tests += hi - lo
            u_class = vertex_class[u]
            if u_class == _B_VERTEX:
                if not self._geo_bit[u]:
                    pruned += 1
                    continue  # u reaches no spatial vertex: prune
                # Bit TRUE: nothing else is known; expand blindly.
            elif u_class == _R_VERTEX:
                u_rmbr = self._rmbr[u]
                if not u_rmbr.intersects(region):
                    pruned += 1
                    continue  # no reachable spatial vertex can be in R
                if region.contains_rect(u_rmbr):
                    answer = True  # every reachable spatial vertex is in R
                    break
            else:  # G-vertex
                overlapping = False
                for cell in self._reach_grid[u]:
                    cell_tests += 1
                    cell_rect = grid.cell_rect(cell)
                    if region.contains_rect(cell_rect):
                        # The cell holds >= 1 reachable spatial vertex
                        # and lies fully inside R: definite TRUE.
                        answer = True
                        break
                    if cell_rect.intersects(region):
                        overlapping = True
                if answer:
                    break
                if not overlapping:
                    pruned += 1
                    continue
            for w in dag.successors(u):
                if not visited[w]:
                    visited[w] = True
                    queue.append(w)
        if _obs_enabled():
            self._m_queries.inc()
            if answer:
                self._m_positives.inc()
            self._m_verified.inc(point_tests)
            _inst.GEOREACH_EXPANDED.inc(expanded)
            _inst.GEOREACH_PRUNED.inc(pruned)
            _inst.GEOREACH_CELL_TESTS.inc(cell_tests)
        return answer

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Analytic SPA-graph payload size (Table 4 accounting).

        Per vertex: 1-byte class tag + 8-byte payload reference; B adds a
        bit (1 byte), R adds 4 floats (16 bytes with float32), G adds 8
        bytes per stored cell.
        """
        total = 0
        for v, v_class in enumerate(self._class):
            total += 9
            if v_class == _B_VERTEX:
                total += 1
            elif v_class == _R_VERTEX:
                total += 16
            else:
                total += 8 * len(self._reach_grid[v])
        return total

    def class_counts(self) -> dict[str, int]:
        """Return how many vertices fell into each SPA-graph class."""
        counts = {"B": 0, "R": 0, "G": 0}
        for v_class in self._class:
            if v_class == _B_VERTEX:
                counts["B"] += 1
            elif v_class == _R_VERTEX:
                counts["R"] += 1
            else:
                counts["G"] += 1
        return counts

    @property
    def params(self) -> GeoReachParams:
        return self._params

    @property
    def grid(self) -> HierarchicalGrid:
        return self._grid


@register_method("georeach")
def _build_georeach(network: CondensedNetwork, **options) -> GeoReach:
    params = options.pop("params", None)
    context = options.pop("context", None)
    kernels = options.pop("kernels", None)
    if params is None and options:
        params = GeoReachParams(**options)
        options = {}
    return GeoReach(network, params=params, context=context, kernels=kernels)

"""Spatial indexing substrate.

The paper evaluates its methods on top of Boost's R-tree; here we provide
our own generic k-dimensional R-tree (:class:`~repro.spatial.rtree.RTree`),
built once by sort-tile-recursive bulk loading and never edited in place.
It serves as the 2-D point index of SpaReach and as the 3-D point/segment/box
index of the 3DReach methods.  GeoReach's SPA-graph uses the hierarchical
quad grid (:class:`~repro.spatial.grid.HierarchicalGrid`).  A linear-scan
index is included as the correctness reference for tests.
"""

from repro.spatial.rtree import RTree, RTreeStats
from repro.spatial.grid import Cell, HierarchicalGrid
from repro.spatial.linear import LinearScanIndex

__all__ = [
    "RTree",
    "RTreeStats",
    "Cell",
    "HierarchicalGrid",
    "LinearScanIndex",
]

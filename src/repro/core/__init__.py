"""RangeReach evaluation methods (the paper's primary contribution).

Every class answers ``RangeReach(G, v, R)`` — "can vertex ``v`` reach any
spatial vertex located inside region ``R``?" — over a condensed geosocial
network:

* :class:`SpaReach` — spatial-first baseline (Section 2.2.1): R-tree range
  query, then one ``GReach`` test per candidate.  Plug in
  :class:`repro.reach.BflReach` for SpaReach-BFL or
  :class:`repro.reach.IntervalReach` for SpaReach-INT.
* :class:`GeoReach` — the prior state of the art (Sarwat & Sun; Section
  2.2.2): SPA-graph with B/R/G-vertex classification, pruned traversal.
* :class:`SocReach` — the paper's social-first method (Section 4.1).
* :class:`ThreeDReach` — the paper's 3-D transformation (Section 4.2),
  point-based: one cuboid query per interval label.
* :class:`ThreeDReachRev` — the line-based variant: reversed labeling,
  vertical segments, a single slab query per RangeReach.
* :class:`RangeReachOracle` — index-free BFS ground truth.

All methods accept *original* vertex ids and a :class:`repro.geometry.Rect`
region, and share the ``scc_mode`` choice of Section 5 ("replicate" or
"mbr").
"""

from repro.core.base import (
    METHOD_REGISTRY,
    QueryRequest,
    QueryResult,
    RangeReachBase,
    RangeReachMethod,
    build_method,
    build_methods,
    sync_known_names_doc,
)
from repro.core.extensions import GeosocialQueryEngine
from repro.core.oracle import RangeReachOracle
from repro.core.spareach import SpaReach
from repro.core.socreach import SocReach
from repro.core.georeach import GeoReach, GeoReachParams
from repro.core.threedreach import ThreeDReach
from repro.core.threedreach_rev import ThreeDReachRev
from repro.core.verify import Disagreement, assert_agreement, cross_check

# The built-in registrations above are complete: freeze them into the
# factory's documented name list.
sync_known_names_doc()

__all__ = [
    "QueryRequest",
    "QueryResult",
    "RangeReachBase",
    "RangeReachMethod",
    "build_method",
    "build_methods",
    "METHOD_REGISTRY",
    "sync_known_names_doc",
    "GeosocialQueryEngine",
    "RangeReachOracle",
    "SpaReach",
    "SocReach",
    "GeoReach",
    "GeoReachParams",
    "ThreeDReach",
    "ThreeDReachRev",
    "Disagreement",
    "assert_agreement",
    "cross_check",
]

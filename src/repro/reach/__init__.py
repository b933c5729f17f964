"""Graph-reachability indexes.

``GReach(G, v, u)`` indexes behind the paper's two SpaReach variants:

* :class:`BflReach` — Bloom-Filter Labeling (Su et al. 2017), the
  reachability index behind SpaReach-BFL;
* :class:`IntervalReach` — adapter exposing the paper's interval-based
  labeling through the same protocol (SpaReach-INT).

Both implement :class:`ReachabilityIndex`.
"""

from repro.reach.base import ReachabilityIndex
from repro.reach.bfl import BflReach
from repro.reach.interval_adapter import IntervalReach

__all__ = [
    "ReachabilityIndex",
    "BflReach",
    "IntervalReach",
]

"""Graph-reachability indexes.

``GReach(G, v, u)`` baselines used by the spatial-first methods:

* :class:`BfsReach` — no index, plain BFS (the correctness reference);
* :class:`BflReach` — Bloom-Filter Labeling (Su et al. 2017), the
  reachability index behind SpaReach-BFL;
* :class:`IntervalReach` — adapter exposing the paper's interval-based
  labeling through the same protocol (SpaReach-INT);
* :class:`PllReach` — pruned 2-hop landmark labeling (Label-Only family);
* :class:`GrailReach` — GRAIL-style multi-tree interval labels with a
  pruned-DFS fallback (Label+G family);
* :class:`FelineReach` — two topological orders + pruned DFS, the second
  scheme the original GeoReach paper plugged into SpaReach;
* :class:`ChainCoverReach` — greedy chain decomposition with per-chain
  first-reach positions (the classic compressed-closure scheme).

All of them implement :class:`ReachabilityIndex` and are interchangeable
inside :class:`repro.core.SpaReach`.
"""

from repro.reach.base import ReachabilityIndex
from repro.reach.bfs import BfsReach
from repro.reach.bfl import BflReach
from repro.reach.chain_cover import ChainCoverReach
from repro.reach.feline import FelineReach
from repro.reach.interval_adapter import IntervalReach
from repro.reach.pll import PllReach
from repro.reach.grail import GrailReach

__all__ = [
    "ReachabilityIndex",
    "BfsReach",
    "BflReach",
    "ChainCoverReach",
    "FelineReach",
    "IntervalReach",
    "PllReach",
    "GrailReach",
]

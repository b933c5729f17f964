"""Interval-based reachability labeling (Agrawal et al., adapted).

This package implements Section 3 of the paper: the construction of an
interval-based labeling for a (geo)social network DAG via a *spanning
forest* (Algorithm 1), label compression (absorbing subsumed and merging
adjacent intervals), the reversed labeling used by 3DReach-Rev, and the
query API (``GReach`` membership tests and descendant enumeration).
"""

from repro.labeling.intervals import (
    compress_intervals,
    intervals_cover,
    intervals_covered_count,
)
from repro.labeling.labeling import IntervalLabeling, LabelingStats
from repro.labeling.construction import build_labeling, build_reversed_labeling
from repro.labeling.dynamic import DynamicIntervalLabeling
from repro.labeling.io import (
    labeling_from_state,
    labeling_state,
    load_labeling,
    save_labeling,
)

__all__ = [
    "compress_intervals",
    "intervals_cover",
    "intervals_covered_count",
    "IntervalLabeling",
    "LabelingStats",
    "build_labeling",
    "build_reversed_labeling",
    "DynamicIntervalLabeling",
    "labeling_from_state",
    "labeling_state",
    "load_labeling",
    "save_labeling",
]

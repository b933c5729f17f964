"""Unit tests for all reachability indexes (repro.reach)."""

import random

import pytest

from helpers import fig1_graph, random_dag
from repro.graph import DiGraph
from repro.graph.traversal import all_reachable_sets
from repro.reach import BflReach, IntervalReach
from repro.reach.base import ReachabilityIndex

ALL_INDEXES = [BflReach, IntervalReach]


@pytest.mark.parametrize("factory", ALL_INDEXES)
def test_satisfies_protocol(factory):
    index = factory(DiGraph(2))
    assert isinstance(index, ReachabilityIndex)
    assert isinstance(index.name, str)


@pytest.mark.parametrize("factory", ALL_INDEXES)
def test_reflexive(factory):
    index = factory(DiGraph(3))
    for v in range(3):
        assert index.reaches(v, v)


@pytest.mark.parametrize("factory", ALL_INDEXES)
def test_chain(factory):
    g = DiGraph.from_edges(5, [(i, i + 1) for i in range(4)])
    index = factory(g)
    for u in range(5):
        for v in range(5):
            assert index.reaches(u, v) == (u <= v)


@pytest.mark.parametrize("factory", ALL_INDEXES)
def test_fig1_matches_truth(factory):
    g = fig1_graph()
    truth = all_reachable_sets(g)
    index = factory(g)
    for u in range(g.num_vertices):
        for v in range(g.num_vertices):
            assert index.reaches(u, v) == (v in truth[u]), (u, v)


@pytest.mark.parametrize("factory", ALL_INDEXES)
def test_random_dags_match_truth(factory):
    rng = random.Random(101)
    for _ in range(8):
        g = random_dag(rng, 20, edge_probability=0.18)
        truth = all_reachable_sets(g)
        index = factory(g)
        for u in range(20):
            for v in range(20):
                assert index.reaches(u, v) == (v in truth[u]), (u, v)


@pytest.mark.parametrize("factory", ALL_INDEXES)
def test_disconnected_graph(factory):
    g = DiGraph.from_edges(4, [(0, 1), (2, 3)])
    index = factory(g)
    assert index.reaches(0, 1)
    assert not index.reaches(0, 2)
    assert not index.reaches(1, 3)


@pytest.mark.parametrize("factory", ALL_INDEXES)
def test_size_bytes_positive(factory):
    g = random_dag(random.Random(2), 30, 0.1)
    assert factory(g).size_bytes() > 0


# ----------------------------------------------------------------------
# Index-specific behaviour
# ----------------------------------------------------------------------
def test_bfl_filter_bits_validation():
    with pytest.raises(ValueError):
        BflReach(DiGraph(1), filter_bits=4)


def test_bfl_small_filters_stay_correct():
    # Tiny filters force many inconclusive queries through the pruned-DFS
    # fallback; answers must remain exact.
    rng = random.Random(55)
    g = random_dag(rng, 25, edge_probability=0.15)
    truth = all_reachable_sets(g)
    index = BflReach(g, filter_bits=8)
    for u in range(25):
        for v in range(25):
            assert index.reaches(u, v) == (v in truth[u])


def test_bfl_deterministic_given_seed():
    g = random_dag(random.Random(7), 15, 0.2)
    a = BflReach(g, seed=3)
    b = BflReach(g, seed=3)
    assert a._out == b._out and a._in == b._in


def test_interval_reach_exposes_labeling():
    g = fig1_graph()
    index = IntervalReach(g)
    assert index.labeling.num_vertices == g.num_vertices

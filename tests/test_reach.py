"""Unit tests for all reachability indexes (repro.reach)."""

import random

import pytest

from helpers import fig1_graph, random_dag
from repro.graph import DiGraph
from repro.graph.traversal import all_reachable_sets
from repro.reach import (
    BfsReach,
    BflReach,
    ChainCoverReach,
    FelineReach,
    GrailReach,
    IntervalReach,
    PllReach,
)
from repro.reach.base import ReachabilityIndex

ALL_INDEXES = [
    BfsReach,
    BflReach,
    IntervalReach,
    PllReach,
    GrailReach,
    FelineReach,
    ChainCoverReach,
]


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


@pytest.mark.parametrize(
    "factory", [BflReach, IntervalReach, PllReach, GrailReach, FelineReach]
)
def test_size_bytes_positive(factory):
    g = random_dag(random.Random(2), 30, 0.1)
    assert factory(g).size_bytes() > 0


def test_bfs_reach_reports_zero_size():
    assert BfsReach(DiGraph(5)).size_bytes() == 0


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


def test_pll_rejects_cyclic_graph():
    g = DiGraph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        PllReach(g)


def test_pll_label_count_bounded_by_square():
    g = random_dag(random.Random(8), 20, 0.2)
    pll = PllReach(g)
    assert 2 * 20 <= pll.num_labels() <= 2 * 20 * 20


def test_grail_requires_traversals():
    with pytest.raises(ValueError):
        GrailReach(DiGraph(1), num_traversals=0)


def test_grail_more_traversals_still_exact():
    rng = random.Random(66)
    g = random_dag(rng, 18, 0.2)
    truth = all_reachable_sets(g)
    for k in (1, 5):
        index = GrailReach(g, num_traversals=k)
        for u in range(18):
            for v in range(18):
                assert index.reaches(u, v) == (v in truth[u])


def test_interval_reach_exposes_labeling():
    g = fig1_graph()
    index = IntervalReach(g)
    assert index.labeling.num_vertices == g.num_vertices


def test_chain_cover_chain_count_bounded():
    # A single path is one chain; an antichain is n chains.
    path = DiGraph.from_edges(6, [(i, i + 1) for i in range(5)])
    assert ChainCoverReach(path).num_chains == 1
    antichain = DiGraph(5)
    assert ChainCoverReach(antichain).num_chains == 5


def test_chain_cover_rejects_cyclic_graph():
    g = DiGraph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        ChainCoverReach(g)


def test_chain_cover_chains_partition_vertices():
    rng = random.Random(93)
    g = random_dag(rng, 20, edge_probability=0.2)
    index = ChainCoverReach(g)
    seen = {}
    for v in range(20):
        key = (index._chain_of[v], index._pos[v])
        assert key not in seen, "two vertices share a chain slot"
        seen[key] = v


def test_feline_rejects_cyclic_graph():
    g = DiGraph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        FelineReach(g)


def test_feline_dominance_is_necessary_condition():
    rng = random.Random(91)
    g = random_dag(rng, 20, edge_probability=0.2)
    index = FelineReach(g)
    truth = all_reachable_sets(g)
    for u in range(20):
        for v in truth[u]:
            # every reachable pair must pass the dominance filter
            assert index._dominates(u, v)


def test_feline_orders_are_both_topological():
    rng = random.Random(92)
    g = random_dag(rng, 20, edge_probability=0.2)
    index = FelineReach(g)
    for s, t in g.edges():
        assert index._x[s] < index._x[t]
        assert index._y[s] < index._y[t]

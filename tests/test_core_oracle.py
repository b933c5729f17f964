"""Unit tests for repro.core.oracle."""

from helpers import FIG1_INDEX, FIG1_REGION, fig1_network
from repro.core import RangeReachOracle
from repro.geometry import Point, Rect
from repro.geosocial import GeosocialNetwork
from repro.graph import DiGraph


def test_paper_example():
    oracle = RangeReachOracle(fig1_network())
    assert oracle.query(FIG1_INDEX["a"], FIG1_REGION) is True
    assert oracle.query(FIG1_INDEX["c"], FIG1_REGION) is False


def test_query_vertex_itself_counts():
    # A spatial query vertex inside R answers TRUE via the empty path.
    oracle = RangeReachOracle(fig1_network())
    e = FIG1_INDEX["e"]
    assert oracle.query(e, FIG1_REGION) is True


def test_witnesses_lists_all_reachable_in_region():
    oracle = RangeReachOracle(fig1_network())
    witnesses = oracle.witnesses(FIG1_INDEX["a"], FIG1_REGION)
    assert sorted(witnesses) == sorted([FIG1_INDEX["e"], FIG1_INDEX["h"]])
    assert oracle.witnesses(FIG1_INDEX["c"], FIG1_REGION) == []


def test_region_with_no_points():
    oracle = RangeReachOracle(fig1_network())
    empty = Rect(100, 100, 101, 101)
    assert oracle.query(FIG1_INDEX["a"], empty) is False


def test_cyclic_network_supported():
    # The oracle works on the original (possibly cyclic) network.
    g = DiGraph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
    net = GeosocialNetwork(g, [None, None, Point(5, 5)])
    oracle = RangeReachOracle(net)
    assert oracle.query(0, Rect(4, 4, 6, 6)) is True
    assert oracle.query(2, Rect(0, 0, 1, 1)) is False


def test_size_bytes_zero():
    assert RangeReachOracle(fig1_network()).size_bytes() == 0


def test_tuple_regions_accepted():
    g = DiGraph.from_edges(2, [(0, 1)])
    oracle = RangeReachOracle(GeosocialNetwork(g, [None, Point(0.5, 0.5)]))
    assert oracle.query(0, (0, 0, 1, 1)) is True
    assert oracle.witnesses(0, [0, 0, 1, 1]) == [1]

"""Unit tests for repro.spatial.rtree."""

import random

import pytest

from repro.spatial import LinearScanIndex, RTree
from repro.spatial.rtree import bounds_contain, bounds_intersect


def random_points(rng, n, dims=2):
    return [tuple(rng.random() for _ in range(dims)) for _ in range(n)]


def point_bounds(coords):
    return tuple(coords) + tuple(coords)


# ----------------------------------------------------------------------
# Bounds helpers
# ----------------------------------------------------------------------
def test_bounds_intersect_2d():
    a = (0, 0, 2, 2)
    assert bounds_intersect(a, (1, 1, 3, 3), 2)
    assert bounds_intersect(a, (2, 2, 3, 3), 2)  # touching
    assert not bounds_intersect(a, (2.1, 0, 3, 2), 2)


def test_bounds_contain():
    outer = (0, 0, 0, 4, 4, 4)
    assert bounds_contain(outer, (1, 1, 1, 2, 2, 2), 3)
    assert bounds_contain(outer, outer, 3)
    assert not bounds_contain(outer, (1, 1, 1, 5, 2, 2), 3)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_empty_tree():
    tree = RTree(dims=2)
    assert len(tree) == 0
    assert tree.search_all((0, 0, 1, 1)) == []
    assert tree.any_intersecting((0, 0, 1, 1)) is None
    tree.check_invariants()


def test_bulk_load_empty():
    tree = RTree.bulk_load([], dims=3)
    assert len(tree) == 0
    assert tree.stats().height == 0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        RTree(dims=0)
    with pytest.raises(ValueError):
        RTree(capacity=1)
    with pytest.raises(TypeError):
        RTree(dims=2, capacity=16, split="rstar")


def test_bulk_load_single_item():
    tree = RTree.bulk_load([((1, 1, 1, 1), "a")], dims=2)
    assert tree.search_all((0, 0, 2, 2)) == ["a"]
    tree.check_invariants()


def test_bulk_load_respects_capacity():
    rng = random.Random(1)
    entries = [(point_bounds(p), i) for i, p in enumerate(random_points(rng, 500))]
    tree = RTree.bulk_load(entries, dims=2, capacity=8)
    tree.check_invariants()
    stats = tree.stats()
    assert stats.num_items == 500
    assert stats.height >= 2


# ----------------------------------------------------------------------
# Queries vs. linear scan reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dims", [2, 3])
def test_range_query_matches_linear_scan(dims):
    rng = random.Random(42 + dims)
    entries = [
        (point_bounds(p), i)
        for i, p in enumerate(random_points(rng, 300, dims))
    ]
    tree = RTree.bulk_load(entries, dims=dims, capacity=8)
    tree.check_invariants()
    reference = LinearScanIndex.bulk_load(entries, dims=dims)
    for _ in range(40):
        lows = [rng.random() * 0.8 for _ in range(dims)]
        query = tuple(lows) + tuple(lo + rng.random() * 0.4 for lo in lows)
        assert sorted(tree.search_all(query)) == sorted(
            reference.search_all(query)
        )


def test_box_entries_query():
    rng = random.Random(7)
    entries = []
    for i in range(200):
        x, y = rng.random(), rng.random()
        entries.append(((x, y, x + 0.05, y + 0.05), i))
    tree = RTree.bulk_load(entries, dims=2, capacity=6)
    reference = LinearScanIndex.bulk_load(entries, dims=2)
    for _ in range(30):
        x, y = rng.random() * 0.7, rng.random() * 0.7
        query = (x, y, x + 0.3, y + 0.3)
        assert sorted(tree.search_all(query)) == sorted(
            reference.search_all(query)
        )


def test_any_intersecting_finds_witness():
    entries = [((i, i, i, i), i) for i in range(100)]
    tree = RTree.bulk_load(entries, dims=2)
    hit = tree.any_intersecting((40, 40, 60, 60))
    assert hit is not None and 40 <= hit <= 60
    assert tree.any_intersecting((200, 200, 300, 300)) is None


def test_count_intersecting():
    entries = [((i, 0, i, 0), i) for i in range(10)]
    tree = RTree.bulk_load(entries, dims=2)
    assert tree.count_intersecting((2, 0, 5, 0)) == 4


def test_items_iterates_everything():
    entries = [(point_bounds((i, i)), i) for i in range(37)]
    tree = RTree.bulk_load(entries, dims=2, capacity=4)
    assert sorted(item for _, item in tree.items()) == list(range(37))


def test_stats_counts():
    entries = [(point_bounds((i / 100, i / 100)), i) for i in range(100)]
    tree = RTree.bulk_load(entries, dims=2, capacity=10)
    stats = tree.stats()
    assert stats.num_items == 100
    assert stats.num_leaves >= 10
    assert stats.num_nodes == stats.num_leaves + stats.num_inner

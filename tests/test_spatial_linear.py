"""Unit tests for repro.spatial.linear."""

import pytest

from repro.spatial import LinearScanIndex


def test_empty_index():
    index = LinearScanIndex(dims=2)
    assert len(index) == 0
    assert index.search_all((0, 0, 1, 1)) == []
    assert index.any_intersecting((0, 0, 1, 1)) is None


def test_search_points_and_boxes():
    index = LinearScanIndex.bulk_load(
        [((0.5, 0.5, 0.5, 0.5), "a"), ((0.9, 0.9, 1.5, 1.5), "b")], dims=2
    )
    assert index.search_all((0, 0, 1, 1)) == ["a", "b"]
    assert index.search_all((1.2, 1.2, 2, 2)) == ["b"]
    assert index.count_intersecting((0, 0, 2, 2)) == 2


def test_bulk_load():
    entries = [((i, i, i, i), i) for i in range(5)]
    index = LinearScanIndex.bulk_load(entries, dims=2)
    assert len(index) == 5
    assert index.any_intersecting((3, 3, 10, 10)) == 3


def test_dims_validation():
    with pytest.raises(ValueError):
        LinearScanIndex(dims=0)

"""Unit tests for repro.workloads."""

import random

import pytest

from helpers import fig1_network
from repro.datasets import make_network
from repro.geosocial import GeosocialNetwork
from repro.graph import DiGraph
from repro.workloads import (
    DEFAULT_DEGREE_BUCKETS,
    DEFAULT_EXTENTS,
    DEFAULT_SELECTIVITIES,
    QueryWorkload,
)


@pytest.fixture(scope="module")
def network():
    return make_network("gowalla", scale=0.001, seed=5)


@pytest.fixture(scope="module")
def workload(network):
    return QueryWorkload(network, seed=1)


def test_defaults_match_paper():
    assert DEFAULT_EXTENTS == (1.0, 2.0, 5.0, 10.0, 20.0)
    assert DEFAULT_SELECTIVITIES == (0.001, 0.01, 0.1, 1.0)
    assert len(DEFAULT_DEGREE_BUCKETS) == 5


def test_requires_spatial_vertices():
    net = GeosocialNetwork(DiGraph(2), [None, None])
    with pytest.raises(ValueError):
        QueryWorkload(net)


def test_invalid_center_mode(network):
    with pytest.raises(ValueError):
        QueryWorkload(network, center_mode="bermuda")


def test_region_extent_area(network, workload):
    rng = random.Random(0)
    space = network.space()
    for extent in DEFAULT_EXTENTS:
        region = workload.region_with_extent(extent, rng)
        assert region.area == pytest.approx(space.area * extent / 100, rel=1e-6)
        assert space.contains_rect(region)


def test_region_extent_validation(workload):
    rng = random.Random(0)
    with pytest.raises(ValueError):
        workload.region_with_extent(0, rng)
    with pytest.raises(ValueError):
        workload.region_with_extent(150, rng)


def test_region_selectivity_contains_target_fraction(network, workload):
    rng = random.Random(3)
    points = [network.point_of(v) for v in network.spatial_vertices()]
    for sel in (1.0, 5.0, 20.0):
        target = max(1, round(len(points) * sel / 100))
        region = workload.region_with_selectivity(sel, rng)
        count = sum(1 for p in points if region.contains_point(p))
        # generous tolerance: the search is approximate by design
        assert count >= 1
        assert count <= max(4 * target, target + 10)


def test_vertices_in_degree_bucket(network, workload):
    graph = network.graph
    for lo, hi in DEFAULT_DEGREE_BUCKETS:
        for v in workload.vertices_in_degree_bucket(lo, hi):
            assert lo <= graph.out_degree(v) <= hi


def test_sample_vertices_fallback_for_empty_bucket(workload, network):
    # absurd bucket: falls back to any vertex with out-degree >= 1
    vertices = workload.sample_vertices(10, (10**6, 10**7), random.Random(1))
    assert len(vertices) == 10
    for v in vertices:
        assert network.graph.out_degree(v) >= 1


def test_batches_are_reproducible(workload):
    a = workload.batch_by_extent(5.0, (1, 4), 20)
    b = workload.batch_by_extent(5.0, (1, 4), 20)
    assert a == b
    c = workload.batch_by_selectivity(0.1, (1, 4), 5)
    d = workload.batch_by_selectivity(0.1, (1, 4), 5)
    assert c == d


def test_batches_differ_across_configs(workload):
    a = workload.batch_by_extent(5.0, (1, 4), 10)
    b = workload.batch_by_extent(10.0, (1, 4), 10)
    assert a != b


def test_batch_queries_are_well_formed(workload, network):
    batch = workload.batch_by_extent(5.0, DEFAULT_DEGREE_BUCKETS[0], 15)
    assert len(batch) == 15
    space = network.space()
    for query in batch:
        assert 0 <= query.vertex < network.num_vertices
        assert space.intersects(query.region)


def test_venue_center_mode_regions_contain_points():
    net = fig1_network()
    workload = QueryWorkload(net, seed=0, center_mode="venue")
    rng = random.Random(2)
    region = workload.region_with_extent(5.0, rng)
    # centered on some venue: region must be inside the space
    assert net.space().intersects(region)

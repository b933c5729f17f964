"""Cross-method tests: every RangeReach method must match the BFS oracle.

This is the library's central integration test: all six method/variant
combinations are exercised on the paper's example, on random geosocial
networks (including ones with spatial SCCs), and on small instances of
all four dataset profiles.
"""

import random

import pytest

from helpers import (
    FIG1_INDEX,
    FIG1_REGION,
    fig1_network,
    random_geosocial_network,
    random_region,
)
from repro.core import (
    GeoReach,
    GeoReachParams,
    RangeReachOracle,
    SocReach,
    SpaReach,
    ThreeDReach,
    ThreeDReachRev,
)
from repro.geosocial import condense_network

METHOD_FACTORIES = {
    "spareach-bfl": lambda cn: SpaReach(cn, reach_index="bfl"),
    "spareach-int": lambda cn: SpaReach(cn, reach_index="interval"),
    "spareach-bfl-mbr": lambda cn: SpaReach(cn, reach_index="bfl", scc_mode="mbr"),
    "georeach": lambda cn: GeoReach(cn),
    "georeach-tight": lambda cn: GeoReach(
        cn, GeoReachParams(max_reach_grids=2, merge_count=1, grid_levels=4)
    ),
    "socreach": lambda cn: SocReach(cn),
    "3dreach": lambda cn: ThreeDReach(cn),
    "3dreach-mbr": lambda cn: ThreeDReach(cn, scc_mode="mbr"),
    "3dreach-rev": lambda cn: ThreeDReachRev(cn),
    "3dreach-rev-mbr": lambda cn: ThreeDReachRev(cn, scc_mode="mbr"),
}


@pytest.mark.parametrize("name", sorted(METHOD_FACTORIES))
def test_paper_example(name):
    net = fig1_network()
    method = METHOD_FACTORIES[name](condense_network(net))
    assert method.query(FIG1_INDEX["a"], FIG1_REGION) is True
    assert method.query(FIG1_INDEX["c"], FIG1_REGION) is False


@pytest.mark.parametrize("name", sorted(METHOD_FACTORIES))
def test_agrees_with_oracle_on_random_networks(name):
    rng = random.Random(hash(name) & 0xFFFF)
    factory = METHOD_FACTORIES[name]
    for round_ in range(6):
        net = random_geosocial_network(rng, num_vertices=35, num_edges=80)
        oracle = RangeReachOracle(net)
        method = factory(condense_network(net))
        for _ in range(25):
            v = rng.randrange(net.num_vertices)
            region = random_region(rng)
            expected = oracle.query(v, region)
            assert method.query(v, region) == expected, (
                f"{name} disagrees on vertex {v}, region {region} "
                f"(round {round_})"
            )


@pytest.mark.parametrize("name", sorted(METHOD_FACTORIES))
def test_agrees_with_oracle_on_dataset_profiles(name, small_datasets):
    factory = METHOD_FACTORIES[name]
    rng = random.Random(4321)
    for dataset_name, net in small_datasets.items():
        oracle = RangeReachOracle(net)
        method = factory(condense_network(net))
        space = net.space()
        for _ in range(15):
            v = rng.randrange(net.num_vertices)
            x1, x2 = sorted((rng.random(), rng.random()))
            y1, y2 = sorted((rng.random(), rng.random()))
            from repro.geometry import Rect

            region = Rect(
                space.xlo + x1 * space.width,
                space.ylo + y1 * space.height,
                space.xlo + x2 * space.width,
                space.ylo + y2 * space.height,
            )
            expected = oracle.query(v, region)
            assert method.query(v, region) == expected, (
                f"{name} disagrees on {dataset_name}: vertex {v}"
            )


@pytest.mark.parametrize("name", sorted(METHOD_FACTORIES))
def test_size_bytes_positive(name):
    method = METHOD_FACTORIES[name](condense_network(fig1_network()))
    assert method.size_bytes() >= 0

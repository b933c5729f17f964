"""repro.shard: partitioning, boundary graph, and ShardedDatabase.

Unit coverage for the scatter-gather subsystem; the randomized
equivalence tests live in ``test_property_shard.py``.
"""

import math
import random

import pytest

from repro.core.base import RangeReachMethod
from repro.core.oracle import RangeReachOracle
from repro.exec import BatchTimeoutError
from repro.geometry import Point, Rect
from repro.geosocial.network import GeosocialNetwork
from repro.graph.digraph import DiGraph
from repro.shard import (
    BoundaryGraph,
    GridSpec,
    ShardedDatabase,
    has_layout,
    partition_network,
)
from repro.system import GeosocialDatabase
from tests.helpers import stall_second_call, weeplaces_batch

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def _network(num_vertices, venue_points, edges, name="test"):
    """Build a network: ``venue_points`` maps vertex -> (x, y)."""
    points = [None] * num_vertices
    for vertex, (x, y) in venue_points.items():
        points[vertex] = Point(x, y)
    kinds = ["venue" if p is not None else "user" for p in points]
    return GeosocialNetwork(
        DiGraph.from_edges(num_vertices, sorted(edges)),
        points, kinds=kinds, name=name,
    )


# ----------------------------------------------------------------------
# GridSpec
# ----------------------------------------------------------------------
def test_grid_for_shards_covers_requested_count():
    for shards in range(1, 20):
        grid = GridSpec.for_shards(UNIT, shards)
        assert grid.num_tiles >= shards
        assert grid.nx >= 1 and grid.ny >= 1


def test_grid_tile_of_is_row_major_and_clamped():
    grid = GridSpec(bounds=UNIT, nx=2, ny=2)
    assert grid.tile_of(0.1, 0.1) == 0
    assert grid.tile_of(0.9, 0.1) == 1
    assert grid.tile_of(0.1, 0.9) == 2
    assert grid.tile_of(0.9, 0.9) == 3
    # Out-of-bounds points clamp to border tiles instead of raising.
    assert grid.tile_of(-5.0, -5.0) == 0
    assert grid.tile_of(5.0, 5.0) == 3


def test_grid_degenerate_bounds():
    grid = GridSpec(bounds=Rect(0.5, 0.5, 0.5, 0.5), nx=2, ny=2)
    assert grid.tile_of(0.5, 0.5) == 0


def test_grid_shard_of_tile_round_robin():
    grid = GridSpec(bounds=UNIT, nx=3, ny=3)
    shards = 4
    owners = {grid.shard_of_tile(t, shards) for t in range(grid.num_tiles)}
    assert owners == set(range(shards))


# ----------------------------------------------------------------------
# partition_network
# ----------------------------------------------------------------------
def test_partition_requires_venues_and_positive_shards():
    social_only = _network(2, {}, {(0, 1)})
    with pytest.raises(ValueError):
        partition_network(social_only, 2)
    spatial = _network(1, {0: (0.5, 0.5)}, set())
    with pytest.raises(ValueError):
        partition_network(spatial, 0)


def test_partition_never_splits_an_scc():
    # 0 <-> 1 form an SCC with venues in opposite grid corners; they
    # must land on one shard regardless.
    net = _network(
        4,
        {2: (0.1, 0.1), 3: (0.9, 0.9)},
        {(0, 1), (1, 0), (0, 2), (1, 3)},
    )
    assignment = partition_network(net, 4)
    assert assignment.shard_of[0] == assignment.shard_of[1]


def test_partition_spatial_majority_wins():
    # An SCC of venues: two in the lower-left tile, one upper-right.
    net = _network(
        3,
        {0: (0.1, 0.1), 1: (0.2, 0.2), 2: (0.9, 0.9)},
        {(0, 1), (1, 2), (2, 0)},
    )
    assignment = partition_network(net, 4)
    expected = assignment.grid.shard_of_point(0.1, 0.1, 4)
    assert set(assignment.shard_of) == {expected}


def test_partition_social_component_follows_successors():
    # User 0 only checks into venue 1: co-locate them.
    net = _network(2, {1: (0.8, 0.2)}, {(0, 1)})
    assignment = partition_network(net, 4)
    assert assignment.shard_of[0] == assignment.shard_of[1]


def test_partition_members_of_partitions_all_vertices():
    rng = random.Random(9)
    venue_points = {v: (rng.random(), rng.random()) for v in range(0, 20, 2)}
    edges = {(rng.randrange(20), rng.randrange(20)) for _ in range(40)}
    net = _network(20, venue_points, {e for e in edges if e[0] != e[1]})
    assignment = partition_network(net, 3)
    members = [assignment.members_of(s) for s in range(3)]
    assert sorted(v for shard in members for v in shard) == list(range(20))


# ----------------------------------------------------------------------
# BoundaryGraph
# ----------------------------------------------------------------------
def test_boundary_add_remove_and_edges():
    boundary = BoundaryGraph()
    boundary.add_edge(0, 5, shard_u=0)
    boundary.add_edge(0, 7, shard_u=0)
    boundary.add_edge(3, 5, shard_u=1)
    assert boundary.num_edges == 3
    assert list(boundary.edges()) == [(0, 5), (0, 7), (3, 5)]
    boundary.remove_edge(0, 5, shard_u=0)
    assert boundary.num_edges == 2
    with pytest.raises(ValueError, match="not present"):
        boundary.remove_edge(0, 5, shard_u=0)


def test_boundary_frontier_follows_cross_edges():
    # Vertices 0,1 in shard 0; 2,3 in shard 1; 4 in shard 2.
    shard_of = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2}.__getitem__
    intra = {(0, 1), (2, 3)}

    def reaches(shard, u, v):
        return u == v or (u, v) in intra

    boundary = BoundaryGraph()
    boundary.add_edge(1, 2, shard_u=0)  # shard 0 -> 1
    boundary.add_edge(3, 4, shard_u=1)  # shard 1 -> 2
    frontier = boundary.frontier(0, shard_of, reaches)
    assert frontier == {0: {0}, 1: {2}, 2: {4}}
    # Starting past the cross edge, shard 0 is never activated.
    frontier = boundary.frontier(2, shard_of, reaches)
    assert frontier == {1: {2}, 2: {4}}


def test_boundary_memo_invalidated_by_bump():
    shard_of = {0: 0, 1: 0, 2: 1}.__getitem__
    live = {"edge": False}

    def reaches(shard, u, v):
        return u == v or ((u, v) == (0, 1) and live["edge"])

    boundary = BoundaryGraph()
    boundary.add_edge(1, 2, shard_u=0)
    assert boundary.frontier(0, shard_of, reaches) == {0: {0}}
    live["edge"] = True  # an intra-shard write happened...
    # ...without a bump the stale memo still answers:
    assert boundary.frontier(0, shard_of, reaches) == {0: {0}}
    boundary.bump(0)
    assert boundary.frontier(0, shard_of, reaches) == {0: {0}, 1: {2}}


# ----------------------------------------------------------------------
# ShardedDatabase
# ----------------------------------------------------------------------
@pytest.fixture
def small_net():
    # users 0-3, venues 4-7 spread across the grid corners.
    return _network(
        8,
        {4: (0.1, 0.1), 5: (0.9, 0.1), 6: (0.1, 0.9), 7: (0.9, 0.9)},
        {(0, 4), (1, 5), (2, 6), (0, 1), (3, 7), (1, 2)},
    )


def test_sharded_database_is_a_range_reach_method(small_net):
    database = ShardedDatabase.from_network(small_net, shards=4)
    assert isinstance(database, RangeReachMethod)
    assert database.name == "sharded"
    assert database.size_bytes() == 0  # nothing built yet
    assert database.query(0, UNIT) is True
    assert database.size_bytes() > 0


def test_sharded_matches_oracle_on_small_net(small_net):
    oracle = RangeReachOracle(small_net)
    database = ShardedDatabase.from_network(small_net, shards=4)
    regions = [
        UNIT,
        Rect(0.0, 0.0, 0.5, 0.5),
        Rect(0.5, 0.0, 1.0, 0.5),
        Rect(0.0, 0.5, 0.5, 1.0),
        Rect(0.5, 0.5, 1.0, 1.0),
        Rect(0.4, 0.4, 0.6, 0.6),  # touches no venue: every shard empty
    ]
    for vertex in range(8):
        for region in regions:
            assert database.range_reach(vertex, region) == oracle.query(
                vertex, region
            ), (vertex, region)
            assert database.reachable_venues(vertex, region) == sorted(
                oracle.witnesses(vertex, region)
            )
    pairs = [(v, r) for v in range(8) for r in regions]
    expected = [oracle.query(v, r) for v, r in pairs]
    assert database.range_reach_many(pairs) == expected
    assert database.range_reach_many(pairs, timeout=60.0) == expected


def test_sharded_accepts_tuple_regions(small_net):
    database = ShardedDatabase.from_network(small_net, shards=2)
    assert database.range_reach(0, (0.0, 0.0, 1.0, 1.0)) is True
    assert database.range_reach_many([(0, (0.0, 0.0, 1.0, 1.0))]) == [True]


def test_sharded_region_pruning_skips_far_shards(small_net):
    database = ShardedDatabase.from_network(small_net, shards=4)
    database.range_reach(3, Rect(0.85, 0.85, 0.95, 0.95))
    scatter = database.stats()["scatter"]
    assert scatter["region_pruned"] > 0
    assert scatter["subqueries"] >= 1


def test_sharded_source_pruning_skips_unreachable_shards(small_net):
    database = ShardedDatabase.from_network(small_net, shards=4)
    # Vertex 3 only reaches venue 7; shards owning other venues are
    # source-pruned even under a full-space region.
    before = database.stats()["scatter"]["source_pruned"]
    assert database.range_reach(3, UNIT) is True
    after = database.stats()["scatter"]["source_pruned"]
    assert after > before


def test_sharded_shard_hint_orders_but_never_changes_answers(small_net):
    database = ShardedDatabase.from_network(small_net, shards=4)
    for hint in range(4):
        assert database.range_reach(0, UNIT, shard_hint=hint) is True
    with pytest.raises(ValueError, match="out of range"):
        database.mbr_of(4)


def test_sharded_writes_route_to_owning_shard(small_net):
    database = ShardedDatabase.from_network(small_net, shards=4)
    venue = database.add_venue(0.9, 0.9)
    assert database.shard_of(venue) == database.shard_of(7)
    hinted = database.add_user(shard_hint=2)
    assert database.shard_of(hinted) == 2
    with pytest.raises(ValueError, match="out of range"):
        database.add_user(shard_hint=4)
    # Round-robin placement cycles all shards.
    owners = {database.shard_of(database.add_user()) for _ in range(4)}
    assert owners == {0, 1, 2, 3}


def test_sharded_write_validation_mirrors_monolithic(small_net):
    database = ShardedDatabase.from_network(small_net, shards=2)
    with pytest.raises(ValueError, match="follow edges connect users"):
        database.add_follow(0, 4)
    with pytest.raises(ValueError, match="is not a venue"):
        database.add_checkin(0, 1)
    with pytest.raises(ValueError, match="is not a user"):
        database.add_checkin(4, 5)
    with pytest.raises(IndexError, match="out of range"):
        database.range_reach(99, UNIT)
    with pytest.raises(ValueError, match="not present"):
        database.remove_follow(2, 3)
    assert database.add_follow(0, 0) is False  # self loop
    assert database.add_checkin(0, 4) is False  # duplicate


def test_sharded_cross_shard_edge_updates_answers(small_net):
    database = ShardedDatabase.from_network(small_net, shards=4)
    source = database.shard_of(3)
    target = database.shard_of(4)
    assert source != target  # venues 7 and 4 sit in opposite corners
    lower_left = Rect(0.0, 0.0, 0.3, 0.3)
    assert database.range_reach(3, lower_left) is False
    assert database.add_follow(3, 0) is True
    assert database.range_reach(3, lower_left) is True
    database.remove_follow(3, 0)
    assert database.range_reach(3, lower_left) is False


def test_sharded_intra_removal_rebuilds_only_owner(small_net):
    database = ShardedDatabase.from_network(small_net, shards=4)
    database.refresh()  # build everything
    rebuilds_before = [s["rebuilds"] for s in database.stats()["per_shard"]]
    owner = database.shard_of(2)
    assert database.shard_of(6) == owner  # 2 -> 6 is intra-shard
    database.remove_checkin(2, 6)
    database.refresh()
    rebuilds_after = [s["rebuilds"] for s in database.stats()["per_shard"]]
    bumped = [
        i for i, (a, b) in enumerate(zip(rebuilds_before, rebuilds_after))
        if b > a
    ]
    assert bumped == [owner]


def test_sharded_reaches_and_nearest(small_net):
    database = ShardedDatabase.from_network(small_net, shards=4)
    monolithic = GeosocialDatabase.from_network(small_net)
    for u in range(8):
        for v in range(8):
            assert database.reaches(u, v) == monolithic.reaches(u, v), (u, v)
        # Distance ties may resolve to different (equally valid) venues.
        got = database.nearest_reachable(u, 0.5, 0.5)
        want = monolithic.nearest_reachable(u, 0.5, 0.5)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert math.isclose(got[1], want[1])
            assert database.reaches(u, got[0])
        assert database.count_reachable(u, UNIT) == monolithic.count_reachable(
            u, UNIT
        )
        for k in (0, 1, 2, 5):
            assert database.reaches_at_least(
                u, UNIT, k
            ) == monolithic.reaches_at_least(u, UNIT, k)


def test_sharded_persistence_roundtrip(small_net, tmp_path):
    directory = str(tmp_path / "layout")
    database = ShardedDatabase.from_network(
        small_net, shards=4, snapshot_dir=directory
    )
    assert has_layout(directory)
    database.add_venue(0.25, 0.75)
    added = database.add_user()
    database.add_checkin(added, 8)
    database.refresh()
    assert database.delta_size == 0

    loaded = ShardedDatabase.load(directory)
    assert loaded.num_shards == 4
    assert loaded.num_users == database.num_users
    assert loaded.num_venues == database.num_venues
    assert loaded.num_edges == database.num_edges
    # Every shard that persisted a snapshot warm-starts from it.
    scatter = loaded.stats()["scatter"]
    built = sum(1 for s in database.stats()["per_shard"] if s["rebuilds"])
    assert scatter["layout_warm_starts"] == built
    for vertex in range(loaded.num_users + loaded.num_venues):
        assert loaded.range_reach(vertex, UNIT) == database.range_reach(
            vertex, UNIT
        )


def test_sharded_load_reseeds_on_fingerprint_mismatch(small_net, tmp_path):
    directory = str(tmp_path / "layout")
    database = ShardedDatabase.from_network(
        small_net, shards=2, snapshot_dir=directory
    )
    database.refresh()
    # Writes after the last layout save leave shard snapshots ahead of
    # the layout: the loader must fall back to the layout's state.
    database.add_follow(0, 3)
    database._shards[database.shard_of(0)].refresh()  # persist ahead

    loaded = ShardedDatabase.load(directory)
    assert loaded.num_edges == 6  # the layout's state, not the newer one
    oracle = RangeReachOracle(small_net)
    for vertex in range(8):
        assert loaded.range_reach(vertex, UNIT) == oracle.query(vertex, UNIT)


def test_sharded_from_network_refuses_existing_layout(small_net, tmp_path):
    directory = str(tmp_path / "layout")
    ShardedDatabase.from_network(small_net, shards=2, snapshot_dir=directory)
    with pytest.raises(ValueError, match="ShardedDatabase.load"):
        ShardedDatabase.from_network(
            small_net, shards=2, snapshot_dir=directory
        )


def test_sharded_load_errors(tmp_path):
    with pytest.raises(ValueError, match="no shard layout"):
        ShardedDatabase.load(str(tmp_path))
    bad = tmp_path / "layout.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="corrupt shard layout"):
        ShardedDatabase.load(str(tmp_path))
    bad.write_text('{"format": "other", "version": 9}')
    with pytest.raises(ValueError, match="unsupported shard layout"):
        ShardedDatabase.load(str(tmp_path))


def test_sharded_stats_aggregate(small_net):
    database = ShardedDatabase.from_network(small_net, shards=4)
    database.range_reach_many([(0, UNIT), (1, UNIT)])
    stats = database.stats()
    assert stats["shards"] == 4
    assert len(stats["per_shard"]) == 4
    assert stats["rebuilds"] == sum(
        s["rebuilds"] for s in stats["per_shard"]
    )
    scatter = stats["scatter"]
    assert scatter["batches"] == 1
    assert scatter["plans"] == 2
    assert scatter["region_checks"] == 8


def test_sharded_timeout_propagates(small_net):
    database = ShardedDatabase.from_network(small_net, shards=2)
    database.range_reach(0, UNIT)  # build indexes outside the deadline

    original = database._scatter_batch

    def slow_batch(chunk):
        import time

        time.sleep(0.05)
        return original(chunk)

    database._scatter_batch = slow_batch
    pairs = [(v % 8, UNIT) for v in range(64)]
    with pytest.raises(BatchTimeoutError):
        database.range_reach_many(pairs, timeout=0.01)


def test_sharded_timeout_answers_are_a_caller_prefix():
    # Each query scatters into many (shard, entry) sub-queries; a
    # timed-out batch must report the caller's answers, not the
    # sub-queries'.
    network, _, pairs = weeplaces_batch()
    database = ShardedDatabase.from_network(network, shards=4)
    full = database.range_reach_many(pairs)
    database._scatter_batch = stall_second_call(database._scatter_batch, 1.1)
    with pytest.raises(BatchTimeoutError) as info:
        database.range_reach_many(pairs, timeout=1.0)
    exc = info.value
    assert exc.completed == 2 and exc.total == 4
    assert 0 < len(exc.answers) < len(pairs)
    assert exc.answers == full[: len(exc.answers)]
    assert True in exc.answers


def test_sharded_empty_start_supports_writes():
    database = ShardedDatabase(shards=2)
    user = database.add_user()
    venue = database.add_venue(0.5, 0.5)
    assert database.range_reach(user, UNIT) is False
    database.add_checkin(user, venue)
    assert database.range_reach(user, UNIT) is True
    assert database.num_users == 1 and database.num_venues == 1

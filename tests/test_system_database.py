"""Unit tests for repro.system.database (the integration facade)."""

import pytest

from repro.geometry import Rect
from repro.system import GeosocialDatabase


@pytest.fixture
def db():
    """Two users, mutual follows, two venues; u0 checks into v0 only."""
    database = GeosocialDatabase()
    u0 = database.add_user()
    u1 = database.add_user()
    v0 = database.add_venue(0.1, 0.1)
    v1 = database.add_venue(0.9, 0.9)
    database.add_follow(u0, u1)
    database.add_follow(u1, u0)  # mutual: u0 and u1 form an SCC
    database.add_checkin(u0, v0)
    return database, u0, u1, v0, v1


NEAR_V0 = Rect(0.0, 0.0, 0.2, 0.2)
NEAR_V1 = Rect(0.8, 0.8, 1.0, 1.0)


def test_counts(db):
    database, *_ = db
    assert database.num_users == 2
    assert database.num_venues == 2
    assert database.num_edges == 3


def test_range_reach_through_social_cycle(db):
    database, u0, u1, v0, v1 = db
    # u1 reaches v0 through the mutual follow (a cycle the condensation
    # collapses).
    assert database.range_reach(u1, NEAR_V0) is True
    assert database.range_reach(u1, NEAR_V1) is False
    assert database.range_reach(v1, NEAR_V0) is False


def test_counting_and_enumeration(db):
    database, u0, _, v0, _ = db
    assert database.count_reachable(u0, NEAR_V0) == 1
    assert database.reachable_venues(u0, NEAR_V0) == [v0]
    assert database.reaches_at_least(u0, NEAR_V0, 1)
    assert not database.reaches_at_least(u0, NEAR_V0, 2)


def test_nearest_reachable(db):
    database, u0, _, v0, _ = db
    venue, distance = database.nearest_reachable(u0, 0.0, 0.0)
    assert venue == v0
    assert distance == pytest.approx((0.1**2 + 0.1**2) ** 0.5)


def test_writes_served_by_overlay_without_rebuild(db):
    database, u0, u1, v0, v1 = db
    assert database.range_reach(u1, NEAR_V1) is False
    rebuilds = database.num_rebuilds
    assert not database.is_stale
    database.add_checkin(u1, v1)
    # The write lands in the delta log; the snapshot is still serving.
    assert not database.is_stale
    assert database.delta_size == 1
    assert database.range_reach(u0, NEAR_V1) is True  # via u0 -> u1 -> v1
    assert database.num_rebuilds == rebuilds
    assert database.stats()["overlay_queries"] >= 1


def test_zero_threshold_rebuilds_per_write():
    rebuild_per_write = GeosocialDatabase(refresh_threshold=0)
    a = rebuild_per_write.add_user()
    v = rebuild_per_write.add_venue(0.5, 0.5)
    rebuild_per_write.add_checkin(a, v)
    assert rebuild_per_write.range_reach(a, Rect(0.4, 0.4, 0.6, 0.6))
    rebuilds = rebuild_per_write.num_rebuilds
    rebuild_per_write.add_venue(0.9, 0.9)
    assert rebuild_per_write.is_stale
    assert rebuild_per_write.range_reach(a, Rect(0.4, 0.4, 0.6, 0.6))
    assert rebuild_per_write.num_rebuilds == rebuilds + 1
    assert rebuild_per_write.stats()["overlay_queries"] == 0


def test_threshold_exceeded_triggers_refresh():
    database = GeosocialDatabase(refresh_threshold=2)
    u = database.add_user()
    v = database.add_venue(0.1, 0.1)
    database.add_checkin(u, v)
    database.range_reach(u, NEAR_V0)
    database.add_venue(0.2, 0.2)   # delta op 1
    database.add_venue(0.3, 0.3)   # delta op 2 (= threshold)
    assert not database.is_stale
    database.add_venue(0.4, 0.4)   # exceeds the threshold
    assert database.is_stale
    assert database.stats()["threshold_refreshes"] == 1
    assert database.delta_size == 0


def test_negative_threshold_rejected():
    with pytest.raises(ValueError):
        GeosocialDatabase(refresh_threshold=-1)


def test_removing_snapshot_edge_forces_rebuild(db):
    database, u0, u1, v0, v1 = db
    database.range_reach(u0, NEAR_V0)
    assert not database.is_stale
    database.remove_follow(u0, u1)
    assert database.is_stale  # snapshot edges cannot be patched
    assert database.stats()["removal_refreshes"] == 1


def test_removing_delta_edge_avoids_rebuild(db):
    database, u0, u1, v0, v1 = db
    database.range_reach(u0, NEAR_V0)
    database.add_checkin(u1, v1)
    assert database.range_reach(u0, NEAR_V1) is True
    database.remove_checkin(u1, v1)  # the edge only exists in the delta
    assert not database.is_stale
    assert database.stats()["removal_refreshes"] == 0
    assert database.range_reach(u0, NEAR_V1) is False


def test_new_vertices_served_by_overlay(db):
    database, u0, u1, v0, v1 = db
    database.range_reach(u0, NEAR_V0)
    rebuilds = database.num_rebuilds
    u2 = database.add_user()
    v2 = database.add_venue(0.5, 0.5)
    database.add_follow(u0, u2)
    database.add_checkin(u2, v2)
    center = Rect(0.45, 0.45, 0.55, 0.55)
    # Old vertex reaching a post-snapshot venue through a new user.
    assert database.range_reach(u0, center) is True
    assert database.count_reachable(u0, center) == 1
    assert database.reachable_venues(u0, center) == [v2]
    # The new venue reaches itself; the new user reaches it directly.
    assert database.range_reach(v2, center) is True
    assert database.range_reach(u2, center) is True
    # u1 reaches v2 through the mutual follow with u0; v1 reaches nothing.
    assert database.range_reach(u1, center) is True
    assert database.range_reach(v1, center) is False
    venue, distance = database.nearest_reachable(u2, 0.5, 0.5)
    assert venue == v2 and distance == pytest.approx(0.0)
    assert database.num_rebuilds == rebuilds


def test_queries_between_writes_reuse_snapshot(db):
    database, u0, *_ = db
    database.range_reach(u0, NEAR_V0)
    rebuilds = database.num_rebuilds
    for _ in range(5):
        database.range_reach(u0, NEAR_V1)
    assert database.num_rebuilds == rebuilds


def test_remove_follow(db):
    database, u0, u1, v0, v1 = db
    database.add_checkin(u1, v1)
    assert database.range_reach(u0, NEAR_V1) is True
    database.remove_follow(u0, u1)
    assert database.range_reach(u0, NEAR_V1) is False
    # the mutual back-edge still lets u1 reach v0
    assert database.range_reach(u1, NEAR_V0) is True
    with pytest.raises(ValueError):
        database.remove_follow(u0, u1)


def test_remove_follow_rejects_checkin_edges(db):
    # Regression: remove_follow used to silently delete a check-in edge
    # because it only checked edge presence, not vertex kinds.
    database, u0, u1, v0, v1 = db
    with pytest.raises(ValueError, match="follow edges connect users"):
        database.remove_follow(u0, v0)
    assert database.num_edges == 3  # the check-in survived


def test_remove_checkin(db):
    database, u0, u1, v0, v1 = db
    assert database.range_reach(u0, NEAR_V0) is True
    database.remove_checkin(u0, v0)
    assert database.range_reach(u0, NEAR_V0) is False
    assert database.num_edges == 2
    with pytest.raises(ValueError):
        database.remove_checkin(u0, v0)  # already gone
    with pytest.raises(ValueError):
        database.remove_checkin(u0, u1)  # not a venue
    with pytest.raises(ValueError):
        database.remove_checkin(v0, v1)  # not a user


def test_duplicate_edges_ignored(db):
    database, u0, u1, v0, _ = db
    assert database.add_follow(u0, u1) is False
    assert database.add_checkin(u0, v0) is False
    assert database.num_edges == 3


def test_type_checking(db):
    database, u0, u1, v0, v1 = db
    with pytest.raises(ValueError):
        database.add_follow(u0, v0)      # venues cannot be followed
    with pytest.raises(ValueError):
        database.add_checkin(v0, v1)     # venues cannot check in
    with pytest.raises(ValueError):
        database.add_checkin(u0, u1)     # users are not venues
    with pytest.raises(IndexError):
        database.range_reach(99, NEAR_V0)


def test_tuple_and_list_regions_accepted_uniformly():
    database = GeosocialDatabase()
    user = database.add_user()
    database.add_checkin(user, database.add_venue(0.5, 0.5))
    for region in (Rect(0, 0, 1, 1), (0, 0, 1, 1), [0, 0, 1, 1]):
        assert database.range_reach(user, region) is True
        assert database.count_reachable(user, region) == 1
        assert database.reachable_venues(user, region) == [1]
        assert database.reaches_at_least(user, region, 1) is True
    assert database.range_reach_many(
        [(user, (0, 0, 1, 1)), (user, Rect(0.6, 0.6, 1, 1))]
    ) == [True, False]


def test_query_without_venues_rejected():
    database = GeosocialDatabase()
    database.add_user()
    with pytest.raises(ValueError, match="no venues"):
        database.range_reach(0, NEAR_V0)


def test_refresh_eagerly_rebuilds(db):
    database, *_ = db
    assert database.is_stale
    database.refresh()
    assert not database.is_stale
    assert database.num_rebuilds == 1


def test_self_follow_rejected_quietly(db):
    database, u0, *_ = db
    assert database.add_follow(u0, u0) is False


# ----------------------------------------------------------------------
# Persistent snapshots and warm starts
# ----------------------------------------------------------------------
def _populate(database):
    u0 = database.add_user()
    u1 = database.add_user()
    v0 = database.add_venue(0.1, 0.1)
    v1 = database.add_venue(0.9, 0.9)
    database.add_follow(u0, u1)
    database.add_checkin(u1, v0)
    return u0, u1, v0, v1


def test_cold_start_persists_snapshot(tmp_path):
    snap = tmp_path / "snap"
    database = GeosocialDatabase(snapshot_dir=str(snap))
    u0, *_ = _populate(database)
    assert database.range_reach(u0, NEAR_V0) is True
    assert (snap / "manifest.json").exists()
    assert database.stats()["snapshot_saves"] == 1
    assert database.stats()["warm_starts"] == 0


def test_warm_start_serves_without_rebuild(tmp_path):
    snap = tmp_path / "snap"
    database = GeosocialDatabase(snapshot_dir=str(snap))
    u0, u1, v0, v1 = _populate(database)
    expected = {
        (v, r.as_tuple()): database.range_reach(v, r)
        for v in (u0, u1, v0, v1)
        for r in (NEAR_V0, NEAR_V1)
    }
    warm = GeosocialDatabase(snapshot_dir=str(snap))
    assert warm.stats()["warm_starts"] == 1
    assert not warm.is_stale
    for (v, r), answer in expected.items():
        assert warm.range_reach(v, Rect(*r)) == answer
    assert warm.stats()["rebuilds"] == 0
    assert warm.num_users == database.num_users
    assert warm.num_venues == database.num_venues
    assert warm.num_edges == database.num_edges


def test_warm_start_accepts_new_writes_through_overlay(tmp_path):
    snap = tmp_path / "snap"
    database = GeosocialDatabase(snapshot_dir=str(snap))
    _populate(database)
    database.range_reach(0, NEAR_V0)  # build + persist

    warm = GeosocialDatabase(snapshot_dir=str(snap))
    u = warm.add_user()
    v = warm.add_venue(0.5, 0.5)
    warm.add_checkin(u, v)
    assert warm.range_reach(u, Rect(0.4, 0.4, 0.6, 0.6)) is True
    assert warm.stats()["rebuilds"] == 0
    assert warm.stats()["overlay_queries"] >= 1


def test_missing_snapshot_dir_is_cold_start(tmp_path):
    database = GeosocialDatabase(snapshot_dir=str(tmp_path / "never"))
    assert database.stats()["warm_starts"] == 0
    u0, *_ = _populate(database)
    assert database.range_reach(u0, NEAR_V0) is True


def test_corrupt_snapshot_raises(tmp_path):
    from repro.store import SnapshotError

    snap = tmp_path / "snap"
    database = GeosocialDatabase(snapshot_dir=str(snap))
    _populate(database)
    database.range_reach(0, NEAR_V0)
    part = sorted((snap / "parts").iterdir())[0]
    data = bytearray(part.read_bytes())
    data[-1] ^= 0xFF
    part.write_bytes(bytes(data))
    with pytest.raises(SnapshotError):
        GeosocialDatabase(snapshot_dir=str(snap))


def test_rebuild_after_threshold_repersists(tmp_path):
    snap = tmp_path / "snap"
    database = GeosocialDatabase(refresh_threshold=1, snapshot_dir=str(snap))
    u0, u1, v0, v1 = _populate(database)
    database.range_reach(u0, NEAR_V0)
    first = (snap / "manifest.json").read_text()
    # Exceed the threshold, forcing a rebuild on the next query.
    database.add_checkin(u0, v1)
    database.add_follow(u1, u0)
    assert database.range_reach(u0, NEAR_V1) is True
    assert database.stats()["snapshot_saves"] == 2
    assert (snap / "manifest.json").read_text() != first

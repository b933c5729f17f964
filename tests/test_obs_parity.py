"""Observability must never change answers: enabled vs disabled parity."""

import random
import re
from pathlib import Path

import pytest

from helpers import (
    FIG1_INDEX,
    FIG1_REGION,
    fig1_network,
    random_geosocial_network,
    random_region,
)
from repro import obs
import repro
from repro.core import METHOD_REGISTRY, RangeReachOracle, build_method
from repro.geosocial import condense_network


@pytest.fixture(autouse=True)
def restore_obs_state():
    yield
    obs.enable()


def _answers(methods, queries):
    return [
        [m.query(v, region) for v, region in queries] for m in methods
    ]


@pytest.mark.parametrize("method_name", sorted(METHOD_REGISTRY))
def test_identical_answers_fig1(method_name):
    condensed = condense_network(fig1_network())
    method = build_method(method_name, condensed)
    queries = [(FIG1_INDEX[n], FIG1_REGION) for n in "abcdefghijkl"]
    with obs.observability(True):
        on = [method.query(v, r) for v, r in queries]
    with obs.observability(False):
        off = [method.query(v, r) for v, r in queries]
    assert on == off


def test_identical_answers_random_networks():
    rng = random.Random(20250805)
    for _ in range(3):
        network = random_geosocial_network(rng)
        condensed = condense_network(network)
        methods = [
            build_method(name, condensed) for name in sorted(METHOD_REGISTRY)
        ]
        queries = [
            (rng.randrange(network.num_vertices), random_region(rng))
            for _ in range(15)
        ]
        with obs.observability(True):
            on = _answers(methods, queries)
        with obs.observability(False):
            off = _answers(methods, queries)
        assert on == off
        # All methods agree with each other too.
        for answers in on[1:]:
            assert answers == on[0]


@pytest.mark.parametrize("method_name", sorted(METHOD_REGISTRY))
@pytest.mark.parametrize("enabled", [True, False])
def test_query_and_batch_match_oracle(method_name, enabled):
    """One evaluation serves ``query`` and ``query_batch``: both agree
    with the BFS oracle, observability on or off."""
    rng = random.Random(20260928)
    for _ in range(3):
        network = random_geosocial_network(rng)
        oracle = RangeReachOracle(network)
        method = build_method(method_name, condense_network(network))
        queries = [
            (rng.randrange(network.num_vertices), random_region(rng))
            for _ in range(12)
        ]
        queries += queries[:3]  # duplicates take the memoized answer
        expected = [oracle.query(v, region) for v, region in queries]
        with obs.observability(enabled):
            assert [method.query(v, r) for v, r in queries] == expected
            assert method.query_batch(queries) == expected


def test_no_plain_counted_twins_in_source():
    """Every evaluation is written once; the obs-off twins stay deleted."""
    twins = re.compile(r"_query_plain|_query_counted|_search_counted")
    offenders = [
        str(path)
        for path in Path(repro.__file__).parent.rglob("*.py")
        if twins.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_disabled_mode_flushes_nothing():
    condensed = condense_network(fig1_network())
    methods = [
        build_method(name, condensed) for name in sorted(METHOD_REGISTRY)
    ]
    with obs.observability(False):
        with obs.measure() as delta:
            for method in methods:
                method.query(FIG1_INDEX["a"], FIG1_REGION)
    assert delta == {}


def test_disabled_database_keeps_instance_stats():
    """stats() stays correct per instance even with the registry off."""
    from repro.system import GeosocialDatabase

    with obs.observability(False):
        db = GeosocialDatabase(refresh_threshold=8)
        users = [db.add_user() for _ in range(3)]
        venue = db.add_venue(1.0, 1.0)
        db.add_follow(users[0], users[1])
        db.add_checkin(users[1], venue)
        from repro.geometry import Rect

        region = Rect(0.0, 0.0, 2.0, 2.0)
        assert db.range_reach(users[0], region) is True
        db.add_follow(users[1], users[2])
        assert db.range_reach(users[0], region) is True
        stats = db.stats()
    assert stats["rebuilds"] == 1
    assert stats["overlay_queries"] == 1

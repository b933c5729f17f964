"""Unit tests for repro.bench (harness, tables, experiments)."""

import pytest

from repro.bench import format_table
from repro.bench.harness import (
    ALL_DATASETS,
    bench_datasets,
    bench_num_queries,
    bench_scale,
    build_timed,
    get_bundle,
    get_condensed,
    get_network,
    method_names_available,
    time_queries,
)
from repro.bench.tables import mb, us
from repro.core import SocReach
from repro.workloads import Query
from repro.geometry import Rect


SMALL = 0.0005


def test_format_table_alignment():
    out = format_table(
        ["name", "value"], [["a", 1.5], ["longer", 12345.0]], title="T"
    )
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5


def test_unit_helpers():
    assert mb(1024 * 1024) == 1.0
    assert us(0.001) == pytest.approx(1000.0)


def test_env_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.01")
    monkeypatch.setenv("REPRO_QUERIES", "7")
    monkeypatch.setenv("REPRO_DATASETS", "yelp, gowalla")
    assert bench_scale() == 0.01
    assert bench_num_queries() == 7
    assert bench_datasets() == ("yelp", "gowalla")


def test_env_datasets_validation(monkeypatch):
    monkeypatch.setenv("REPRO_DATASETS", "nope")
    with pytest.raises(ValueError):
        bench_datasets()


def test_default_datasets(monkeypatch):
    monkeypatch.delenv("REPRO_DATASETS", raising=False)
    assert bench_datasets() == ALL_DATASETS


def test_network_and_condensed_caching():
    a = get_network("weeplaces", SMALL)
    b = get_network("weeplaces", SMALL)
    assert a is b
    ca = get_condensed("weeplaces", SMALL)
    cb = get_condensed("weeplaces", SMALL)
    assert ca is cb
    assert ca.network is a


def test_build_timed():
    condensed = get_condensed("weeplaces", SMALL)
    method, seconds = build_timed(lambda: SocReach(condensed))
    assert isinstance(method, SocReach)
    assert seconds >= 0.0


def test_time_queries_counts_positives():
    condensed = get_condensed("weeplaces", SMALL)
    method = SocReach(condensed)
    net = condensed.network
    whole_space = net.space()
    region = Rect(*whole_space.as_tuple())
    user = 0  # users come first and are connected in weeplaces
    queries = [Query(user, region)] * 5
    avg, positives = time_queries(method, queries)
    assert avg > 0
    assert positives == 5


def test_time_queries_empty_batch_rejected():
    condensed = get_condensed("weeplaces", SMALL)
    with pytest.raises(ValueError):
        time_queries(SocReach(condensed), [])


def test_get_bundle_builds_and_caches():
    bundle = get_bundle("weeplaces", ("socreach", "3dreach"), SMALL)
    assert set(bundle.methods) == {"socreach", "3dreach"}
    assert all(s >= 0 for s in bundle.build_seconds.values())
    again = get_bundle("weeplaces", ("socreach", "3dreach"), SMALL)
    assert again is bundle


def test_method_names_available():
    names = method_names_available()
    assert "spareach-bfl" in names
    assert "3dreach-rev-mbr" in names


def test_experiments_run_end_to_end(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", str(SMALL))
    monkeypatch.setenv("REPRO_QUERIES", "3")
    monkeypatch.setenv("REPRO_DATASETS", "weeplaces")
    from repro.bench import experiments

    for run in (
        experiments.run_table3, experiments.run_table4,
        experiments.run_table5, experiments.run_table6,
        experiments.run_fig5, experiments.run_fig6, experiments.run_fig7,
    ):
        title, headers, rows = run()
        assert isinstance(title, str)
        assert rows, f"{run.__name__} produced no rows"
        text = format_table(headers, rows, title=title)
        assert title in text

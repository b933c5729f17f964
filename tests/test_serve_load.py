"""Open-loop load generation: schedule, reconstruction, verification."""

import pytest

from repro.datasets import make_network
from repro.serve import QueryService, start_server
from repro.serve.loadgen import (
    Stage,
    _Op,
    _Outcome,
    build_schedule,
    final_network,
    overload_probe,
    parse_stages,
    reconcile_traces,
    run_schedule,
    summarize,
    verify_reads,
)
from repro.system import GeosocialDatabase


@pytest.fixture(scope="module")
def tiny_net():
    return make_network("gowalla", scale=0.0005, seed=3)


def test_parse_stages():
    assert parse_stages("50x2") == [Stage(50.0, 2.0)]
    assert parse_stages("50x2, 200x0.5") == [
        Stage(50.0, 2.0), Stage(200.0, 0.5)
    ]
    for bad in ("", "50", "x2", "0x2", "50x0", "fast"):
        with pytest.raises(ValueError):
            parse_stages(bad)


def test_schedule_is_deterministic_and_ordered(tiny_net):
    stages = parse_stages("80x1,160x0.5")
    first = build_schedule(tiny_net, stages, seed=9)
    second = build_schedule(tiny_net, stages, seed=9)
    assert [(op.at, op.kind, op.payload) for op in first.ops] == [
        (op.at, op.kind, op.payload) for op in second.ops
    ]
    # Every request is a /v1 envelope whose op is the schedule's kind.
    assert all(op.payload["op"] == op.kind for op in first.ops)
    times = [op.at for op in first.ops]
    assert times == sorted(times)
    assert times[-1] < 1.5
    kinds = {op.kind for op in first.ops}
    assert kinds == {"query", "batch", "write"}
    assert build_schedule(tiny_net, stages, seed=10).ops[0].payload != \
        first.ops[0].payload or True  # different seeds may still collide


def test_final_network_applies_only_acknowledged_writes(tiny_net):
    edges = set(tiny_net.graph.edges())
    follow = next(
        (u, v) for u, v in edges
        if tiny_net.kinds[u] == "user" and tiny_net.kinds[v] == "user"
    )
    users = [v for v, k in enumerate(tiny_net.kinds) if k == "user"]
    non_edges = (
        (u, v) for u in users for v in users
        if u != v and (u, v) not in edges and (u, v) != follow
    )
    new_pair = next(non_edges)
    rejected_pair = next(non_edges)

    def outcome(effect, code=200, body=None):
        op = _Op(0.0, 0, "write", {}, effect)
        return _Outcome(op, code, body or {}, 0.0, 0.0)

    outcomes = [
        outcome(("add", "follow", *new_pair)),
        outcome(("remove", "follow", *follow)),
        outcome(("new", "venue", 5.0, 6.0), body={"vertex":
                                                  tiny_net.num_vertices}),
        # Rejected write: must NOT be applied.
        outcome(("add", "follow", *rejected_pair), code=429),
    ]
    result = final_network(tiny_net, outcomes)
    result_edges = set(result.graph.edges())
    assert new_pair in result_edges
    assert follow not in result_edges
    assert rejected_pair not in result_edges
    assert result.num_vertices == tiny_net.num_vertices + 1
    assert result.kinds[-1] == "venue"
    assert result.points[-1].x == 5.0


def test_open_loop_run_verifies_against_oracle(tiny_net):
    database = GeosocialDatabase.from_network(tiny_net)
    service = QueryService(database)
    service.warm_up()
    server = start_server(service)
    base = f"http://127.0.0.1:{server.port}"
    try:
        schedule = build_schedule(
            tiny_net, parse_stages("60x1"), seed=13, write_fraction=0.3
        )
        outcomes = run_schedule(base, schedule)
        assert len(outcomes) == len(schedule.ops)
        report = summarize(schedule, outcomes)
        assert report["requests"] == len(schedule.ops)
        assert report["codes"].get("200", 0) == len(schedule.ops)
        assert report["latency"]["count"] > 0
        assert report["latency"]["p50_ms"] <= report["latency"]["p99_ms"]
        assert len(report["stages"]) == 1
        # Zero incorrect answers vs. the BFS oracle on the reconstructed
        # final network — the acceptance bar.
        network = final_network(tiny_net, outcomes)
        verdict = verify_reads(base, network, schedule.read_pairs)
        assert verdict["mismatches"] == 0
        assert verdict["queries"] > 0
    finally:
        server.drain(persist=False)


def test_overload_probe_triggers_429(tiny_net):
    database = GeosocialDatabase.from_network(tiny_net)
    service = QueryService(database, max_inflight=2)
    service.warm_up()
    server = start_server(service)
    base = f"http://127.0.0.1:{server.port}"
    try:
        verdict = overload_probe(
            base, service.max_inflight, network=tiny_net,
            batch_queries=4096, rounds=8,
        )
        assert verdict["rejected"] > 0
        assert verdict["attempted"] >= 4
    finally:
        server.drain(persist=False)
    assert service.stats()["serve"]["rejected"] >= verdict["rejected"]


def test_summarize_empty_schedule(tiny_net):
    schedule = build_schedule(tiny_net, [Stage(10.0, 0.001)], seed=1)
    report = summarize(schedule, [])
    assert report["requests"] == 0
    assert report["latency"]["p99_ms"] == 0.0


def test_reconcile_traces_matches_server_recorder(tiny_net):
    database = GeosocialDatabase.from_network(tiny_net)
    service = QueryService(database)
    service.warm_up()
    server = start_server(service)
    base = f"http://127.0.0.1:{server.port}"
    try:
        schedule = build_schedule(
            tiny_net, parse_stages("50x1"), seed=21, write_fraction=0.2
        )
        # Every op got a deterministic request id at build time.
        rids = [op.rid for op in schedule.ops]
        assert all(rids) and len(set(rids)) == len(rids)
        assert rids[0].startswith("load-21-")
        outcomes = run_schedule(base, schedule)
        recon = reconcile_traces(base, outcomes, limit=10)
        assert recon["sampled"] > 0
        assert recon["missing"] == 0
        # The server-side trace fits inside the client-observed service
        # time for every sample, and stages cover most of it.
        assert recon["server_within_client"] == recon["sampled"]
        assert recon["attributed_fraction_min"] > 0.5
        assert recon["attributed_fraction_mean"] > 0.8
        assert recon["transport_gap_ms_max"] >= 0.0
        for row in recon["samples"]:
            assert row["kind"] in ("query", "batch")
            assert row["server_trace_ms"] <= row["client_service_ms"]
            assert 0.0 <= row["attributed_fraction"] <= 1.0
    finally:
        server.drain(persist=False)

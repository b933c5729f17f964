"""The /v1 unified envelope and its strict field validation.

Covers the versioned query API over both transports (QueryService.v1
directly and HTTP), the strict-envelope 400s (unknown op/method/field,
duplicate JSON keys at any depth — all naming the offending fields and
echoing ``X-Request-Id``), and /v1 serving against a
:class:`~repro.shard.ShardedDatabase` with ``shard_hint`` routing.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core import RangeReachOracle
from repro.datasets import make_network
from repro.geometry import Rect
from repro.serve import QueryService, start_server
from repro.shard import ShardedDatabase
from repro.system import GeosocialDatabase


@pytest.fixture(scope="module")
def tiny_net():
    return make_network("gowalla", scale=0.0005, seed=3)


@pytest.fixture
def service(tiny_net):
    database = GeosocialDatabase.from_network(tiny_net)
    service = QueryService(database)
    service.warm_up()
    yield service
    service.close(persist=False)


@pytest.fixture
def server(service):
    server = start_server(service)
    yield server, f"http://127.0.0.1:{server.port}"
    if not server.draining:
        server.drain(persist=False)


@pytest.fixture
def sharded_server(tiny_net):
    database = ShardedDatabase.from_network(tiny_net, shards=4)
    service = QueryService(database)
    service.warm_up()
    server = start_server(service)
    yield server, f"http://127.0.0.1:{server.port}"
    if not server.draining:
        server.drain(persist=False)
    service.close(persist=False)


def _post(base, path, payload, *, raw=None, headers=None):
    data = raw if raw is not None else json.dumps(payload).encode()
    all_headers = {"Content-Type": "application/json"}
    all_headers.update(headers or {})
    request = urllib.request.Request(
        base + path, data=data, headers=all_headers, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return resp.status, resp.read().decode()


def _space_region(net):
    space = net.space()
    return [space.xlo, space.ylo, space.xhi, space.yhi]


# ----------------------------------------------------------------------
# The envelope: queries, batches, writes
# ----------------------------------------------------------------------
def test_v1_query_methods_match_oracle(server, tiny_net):
    _, base = server
    oracle = RangeReachOracle(tiny_net)
    region = _space_region(tiny_net)
    rect = Rect(*region)
    for vertex in range(0, tiny_net.num_vertices, 9):
        code, body, _ = _post(base, "/v1", {
            "op": "query", "method": "reach",
            "vertex": vertex, "region": region,
        })
        assert (code, body) == (200, {
            "op": "query", "method": "reach",
            "answer": oracle.query(vertex, rect),
        })
    code, body, _ = _post(base, "/v1", {
        "op": "query", "method": "count", "vertex": 0, "region": region,
    })
    assert (code, body["answer"]) == (200, oracle.count(0, rect))
    code, body, _ = _post(base, "/v1", {
        "op": "query", "method": "witnesses", "vertex": 0, "region": region,
    })
    assert code == 200
    assert sorted(body["answer"]) == sorted(oracle.witnesses(0, rect))


def test_v1_method_defaults_to_reach(server, tiny_net):
    _, base = server
    region = _space_region(tiny_net)
    code, body, _ = _post(
        base, "/v1", {"op": "query", "vertex": 0, "region": region}
    )
    assert code == 200
    assert body["method"] == "reach"


def test_v1_batch_with_deadline(server, tiny_net):
    _, base = server
    oracle = RangeReachOracle(tiny_net)
    region = _space_region(tiny_net)
    rect = Rect(*region)
    queries = [[v, region] for v in range(0, tiny_net.num_vertices, 5)]
    code, body, _ = _post(base, "/v1", {
        "op": "batch", "queries": queries, "deadline_ms": 30000,
    })
    assert code == 200
    assert body["op"] == "batch" and body["count"] == len(queries)
    assert body["answers"] == [oracle.query(v, rect) for v, _ in queries]


def test_v1_write_lifecycle(server):
    _, base = server

    def v1(payload):
        return _post(base, "/v1", payload)

    code, user, _ = v1({"op": "write", "method": "add_user"})
    assert code == 200 and user["op"] == "write"
    assert user["method"] == "add_user"
    code, venue, _ = v1({
        "op": "write", "method": "add_venue", "x": 0.5, "y": 0.5,
    })
    assert code == 200
    code, body, _ = v1({
        "op": "write", "method": "add_checkin",
        "user": user["vertex"], "venue": venue["vertex"],
    })
    assert (code, body["added"]) == (200, True)
    code, body, _ = v1({
        "op": "query", "vertex": user["vertex"],
        "region": [0.4, 0.4, 0.6, 0.6],
    })
    assert (code, body["answer"]) == (200, True)
    code, body, _ = v1({
        "op": "write", "method": "remove_checkin",
        "user": user["vertex"], "venue": venue["vertex"],
    })
    assert (code, body["removed"]) == (200, True)
    code, body, _ = v1({
        "op": "query", "vertex": user["vertex"],
        "region": [0.4, 0.4, 0.6, 0.6],
    })
    assert (code, body["answer"]) == (200, False)


def test_v1_accepts_tuple_and_list_regions(server, tiny_net):
    _, base = server
    region = _space_region(tiny_net)
    for form in (region, tuple(region)):
        code, body, _ = _post(base, "/v1", {
            "op": "query", "vertex": 0, "region": list(form),
        })
        assert code == 200


# ----------------------------------------------------------------------
# Strict envelope: 400s that name the problem
# ----------------------------------------------------------------------
def test_v1_unknown_op_400(server):
    _, base = server
    code, body, _ = _post(base, "/v1", {"op": "nope"})
    assert code == 400
    assert "unknown op 'nope'" in body["error"]
    assert "query" in body["error"] and "write" in body["error"]


def test_v1_unknown_method_400(server):
    _, base = server
    code, body, _ = _post(
        base, "/v1", {"op": "write", "method": "drop_table"}
    )
    assert code == 400
    assert "unknown method 'drop_table'" in body["error"]
    assert "add_user" in body["error"]


def test_v1_unknown_fields_400_names_them(server, tiny_net):
    _, base = server
    code, body, headers = _post(base, "/v1", {
        "op": "query", "vertex": 0, "region": _space_region(tiny_net),
        "regoin": [0, 0, 1, 1], "turbo": True,
    }, headers={"X-Request-Id": "v1-unknown-1"})
    assert code == 400
    assert "unknown field(s) for query/reach" in body["error"]
    assert "regoin" in body["error"] and "turbo" in body["error"]
    assert headers.get("X-Request-Id") == "v1-unknown-1"
    assert body["request_id"] == "v1-unknown-1"


def test_v1_duplicate_fields_400_names_them(server):
    _, base = server
    raw = (
        b'{"op": "query", "vertex": 1, "vertex": 2,'
        b' "region": [0, 0, 1, 1]}'
    )
    code, body, headers = _post(
        base, "/v1", None, raw=raw, headers={"X-Request-Id": "v1-dup-1"}
    )
    assert code == 400
    assert "duplicate field(s): vertex" in body["error"]
    assert headers.get("X-Request-Id") == "v1-dup-1"
    assert body["request_id"] == "v1-dup-1"


def test_v1_duplicate_fields_detected_at_any_depth(server):
    _, base = server
    raw = (
        b'{"op": "batch", "queries": [[0, [0, 0, 1, 1]]],'
        b' "deadline_ms": 100, "deadline_ms": 200}'
    )
    code, body, _ = _post(base, "/v1", None, raw=raw)
    assert code == 400
    assert "duplicate field(s): deadline_ms" in body["error"]


def test_v1_malformed_json_400_echoes_request_id(server):
    _, base = server
    code, body, headers = _post(
        base, "/v1", None, raw=b"{not json",
        headers={"X-Request-Id": "v1-bad-json-1"},
    )
    assert code == 400
    assert headers.get("X-Request-Id") == "v1-bad-json-1"
    assert body["request_id"] == "v1-bad-json-1"


def test_v1_validation_errors(server, tiny_net):
    _, base = server
    region = _space_region(tiny_net)
    cases = [
        ({"vertex": 0, "region": region}, "op"),  # missing op
        ({"op": "query", "region": region}, "vertex"),
        ({"op": "query", "vertex": 0, "region": region,
          "deadline_ms": -5}, "deadline_ms"),
        ({"op": "query", "vertex": 10**9, "region": region}, "range"),
        ({"op": "batch", "queries": "nope"}, "queries"),
        ({"op": "batch", "queries": [[0]]}, "queries[0]"),
    ]
    for payload, needle in cases:
        code, body, _ = _post(base, "/v1", payload)
        assert code == 400, payload
        assert needle in body["error"], (payload, body)


# ----------------------------------------------------------------------
# /v1 over a sharded database
# ----------------------------------------------------------------------
def test_v1_sharded_matches_oracle(sharded_server, tiny_net):
    _, base = sharded_server
    oracle = RangeReachOracle(tiny_net)
    region = _space_region(tiny_net)
    rect = Rect(*region)
    for vertex in range(0, tiny_net.num_vertices, 11):
        code, body, _ = _post(base, "/v1", {
            "op": "query", "vertex": vertex, "region": region,
        })
        assert (code, body["answer"]) == (200, oracle.query(vertex, rect))
    queries = [[v, region] for v in range(0, tiny_net.num_vertices, 7)]
    code, body, _ = _post(base, "/v1", {"op": "batch", "queries": queries})
    assert code == 200
    assert body["answers"] == [oracle.query(v, rect) for v, _ in queries]


def test_v1_sharded_shard_hint(sharded_server, tiny_net):
    _, base = sharded_server
    region = _space_region(tiny_net)
    for hint in range(4):
        code, body, _ = _post(base, "/v1", {
            "op": "query", "vertex": 0, "region": region,
            "shard_hint": hint,
        })
        assert code == 200
    code, body, _ = _post(base, "/v1", {
        "op": "query", "vertex": 0, "region": region, "shard_hint": 9,
    })
    assert code == 400
    assert "shard_hint 9 out of range" in body["error"]
    code, body, _ = _post(base, "/v1", {
        "op": "write", "method": "add_user", "shard_hint": 2,
    })
    assert code == 200 and body["method"] == "add_user"
    code, text = _get(base, "/stats")
    stats = json.loads(text)
    assert stats["database"]["shards"] == 4


def test_v1_shard_hint_advisory_on_monolithic(server, tiny_net):
    _, base = server
    code, body, _ = _post(base, "/v1", {
        "op": "query", "vertex": 0, "region": _space_region(tiny_net),
        "shard_hint": 99,
    })
    assert code == 200  # no shards to validate against: advisory no-op

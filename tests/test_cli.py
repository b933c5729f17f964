"""Unit tests for the library CLI (python -m repro)."""

import pytest

from repro.cli import main


@pytest.fixture
def dataset_dir(tmp_path):
    directory = tmp_path / "net"
    code = main([
        "generate", "weeplaces", str(directory),
        "--scale", "0.0005", "--seed", "3",
    ])
    assert code == 0
    return directory


def test_generate_writes_files(dataset_dir, capsys):
    assert (dataset_dir / "edges.txt").exists()
    assert (dataset_dir / "points.txt").exists()


def test_generate_output_mentions_sizes(tmp_path, capsys):
    main(["generate", "yelp", str(tmp_path / "y"), "--scale", "0.0005"])
    out = capsys.readouterr().out
    assert "|V|=" in out and "|E|=" in out


def test_stats_prints_table3_fields(dataset_dir, capsys):
    assert main(["stats", str(dataset_dir)]) == 0
    out = capsys.readouterr().out
    for field in ("#users", "#venues", "|V|", "#SCCs", "largest SCC"):
        assert field in out


def test_label_builds_and_saves(dataset_dir, tmp_path, capsys):
    out_file = tmp_path / "fwd.labels"
    assert main(["label", str(dataset_dir), str(out_file)]) == 0
    assert out_file.exists()
    out = capsys.readouterr().out
    assert "labels" in out

    from repro.labeling import load_labeling

    labeling = load_labeling(out_file)
    assert labeling.num_vertices > 0


def test_label_reversed(dataset_dir, tmp_path):
    out_file = tmp_path / "rev.labels"
    assert main(["label", str(dataset_dir), str(out_file), "--reversed"]) == 0
    assert out_file.exists()


@pytest.mark.parametrize("method", ["3dreach", "socreach", "georeach"])
def test_query_runs(dataset_dir, capsys, method):
    code = main([
        "query", str(dataset_dir),
        "--vertex", "0",
        "--region", "0,0,1,1",
        "--method", method,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "RangeReach(G, 0," in out
    assert f"method={method}" in out


def test_query_whole_space_from_user_is_true(dataset_dir, capsys):
    # weeplaces users are all in the social SCC and check in somewhere.
    main([
        "query", str(dataset_dir),
        "--vertex", "0", "--region=-1,-1,2,2",
    ])
    out = capsys.readouterr().out
    assert "= True" in out


def test_query_vertex_out_of_range(dataset_dir, capsys):
    code = main([
        "query", str(dataset_dir),
        "--vertex", "999999", "--region", "0,0,1,1",
    ])
    assert code == 2
    assert "outside" in capsys.readouterr().err


def test_query_malformed_region(dataset_dir):
    with pytest.raises(SystemExit):
        main([
            "query", str(dataset_dir),
            "--vertex", "0", "--region", "0,0,1",
        ])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.fixture
def batch_file(tmp_path):
    path = tmp_path / "queries.txt"
    path.write_text(
        "# hot-area batch\n"
        "0 -1,-1,2,2\n"
        "\n"
        "1 0,0,1,1   # trailing comment\n"
        "2 -1,-1,2,2\n"
    )
    return path


def test_query_batch_file(dataset_dir, batch_file, capsys):
    code = main([
        "query", str(dataset_dir),
        "--batch", str(batch_file), "--method", "socreach",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("RangeReach(G, ") == 3
    assert "batch=3 workers=1" in out
    assert "q/s" in out


def test_query_batch_with_workers(dataset_dir, batch_file, capsys):
    code = main([
        "query", str(dataset_dir),
        "--batch", str(batch_file), "--workers", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "batch=3 workers=4" in out


def test_query_batch_mutually_exclusive_with_vertex(
    dataset_dir, batch_file, capsys
):
    code = main([
        "query", str(dataset_dir),
        "--batch", str(batch_file), "--vertex", "0",
    ])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_query_requires_vertex_and_region_or_batch(dataset_dir, capsys):
    code = main(["query", str(dataset_dir), "--vertex", "0"])
    assert code == 2
    assert "--batch" in capsys.readouterr().err


def test_query_batch_malformed_line(dataset_dir, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 -1,-1,2,2\nnot-a-vertex 0,0,1,1\n")
    code = main(["query", str(dataset_dir), "--batch", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.txt:2" in err


def test_query_batch_missing_file(dataset_dir, capsys):
    code = main([
        "query", str(dataset_dir), "--batch", "/no/such/file.txt",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_query_batch_vertex_out_of_range(dataset_dir, tmp_path, capsys):
    path = tmp_path / "oob.txt"
    path.write_text("999999 0,0,1,1\n")
    code = main(["query", str(dataset_dir), "--batch", str(path)])
    assert code == 2
    assert "outside" in capsys.readouterr().err


def test_query_batch_matches_single_queries(dataset_dir, batch_file, capsys):
    assert main([
        "query", str(dataset_dir),
        "--batch", str(batch_file), "--method", "3dreach",
    ]) == 0
    batch_out = capsys.readouterr().out
    batch_lines = [
        line for line in batch_out.splitlines()
        if line.startswith("RangeReach(")
    ]
    singles = []
    for vertex, region in (("0", "-1,-1,2,2"), ("1", "0,0,1,1"),
                           ("2", "-1,-1,2,2")):
        assert main([
            "query", str(dataset_dir),
            "--vertex", vertex, f"--region={region}",
            "--method", "3dreach",
        ]) == 0
        out = capsys.readouterr().out
        singles.extend(
            line for line in out.splitlines()
            if line.startswith("RangeReach(")
        )
    assert batch_lines == singles


def test_query_batch_trace_prints_batch_span(dataset_dir, batch_file, capsys):
    code = main([
        "query", str(dataset_dir),
        "--batch", str(batch_file), "--workers", "2", "--trace",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "exec.batch" in out
    assert "exec.chunk[" in out


def test_query_prints_work_counters(dataset_dir, capsys):
    code = main([
        "query", str(dataset_dir),
        "--vertex", "0", "--region=-1,-1,2,2",
        "--method", "spareach-bfl",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "work:" in out
    assert 'repro_method_queries_total{method="spareach-bfl"}=1' in out


def test_query_trace_prints_span_tree(dataset_dir, capsys):
    code = main([
        "query", str(dataset_dir),
        "--vertex", "0", "--region=-1,-1,2,2",
        "--method", "3dreach", "--trace",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "query" in out
    assert "3dreach.query" in out
    assert "us" in out


def test_stats_obs_json(dataset_dir, capsys):
    import json

    code = main([
        "stats", str(dataset_dir), "--obs", "json", "--obs-queries", "3",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    counters = payload["counters"]
    # Every registered method ran the batch.
    from repro.core import METHOD_REGISTRY, build_method
    from repro.geosocial import GeosocialNetwork, condense_network

    condensed = condense_network(GeosocialNetwork.load(dataset_dir))
    for name in METHOD_REGISTRY:
        display = build_method(name, condensed).name
        key = f'repro_method_queries_total{{method="{display}"}}'
        assert counters[key] == 3


def test_stats_obs_prometheus(dataset_dir, capsys):
    code = main([
        "stats", str(dataset_dir), "--obs", "prom", "--obs-queries", "2",
        "--obs-methods", "3dreach",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_method_queries_total counter" in out
    assert 'repro_method_queries_total{method="3dreach"} 2' in out


def test_stats_obs_unknown_method(dataset_dir, capsys):
    code = main([
        "stats", str(dataset_dir), "--obs", "json",
        "--obs-methods", "no-such-method",
    ])
    assert code == 2
    assert "unknown method" in capsys.readouterr().err


# ----------------------------------------------------------------------
# snapshot save / load / inspect
# ----------------------------------------------------------------------
@pytest.fixture
def snapshot_dir(dataset_dir, tmp_path):
    directory = tmp_path / "snap"
    assert main(["snapshot", "save", str(dataset_dir), str(directory)]) == 0
    return directory


def test_snapshot_save_writes_manifest_and_parts(dataset_dir, tmp_path, capsys):
    directory = tmp_path / "fresh-snap"
    assert main(["snapshot", "save", str(dataset_dir), str(directory)]) == 0
    assert (directory / "manifest.json").exists()
    assert any((directory / "parts").iterdir())
    out = capsys.readouterr().out
    assert "parts" in out and "bytes" in out


def test_snapshot_save_unknown_method(dataset_dir, tmp_path, capsys):
    code = main([
        "snapshot", "save", str(dataset_dir), str(tmp_path / "s"),
        "--methods", "no-such-method",
    ])
    assert code == 2
    assert "unknown method" in capsys.readouterr().err


def test_snapshot_load_reports_zero_builds(snapshot_dir, capsys):
    assert main(["snapshot", "load", str(snapshot_dir)]) == 0
    out = capsys.readouterr().out
    assert "misses=0" in out
    assert "labeling_builds=0" in out


def test_snapshot_load_missing_directory(tmp_path, capsys):
    code = main(["snapshot", "load", str(tmp_path / "absent")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_snapshot_inspect_clean(snapshot_dir, capsys):
    assert main(["snapshot", "inspect", str(snapshot_dir)]) == 0
    out = capsys.readouterr().out
    assert "format=repro-snapshot" in out
    assert "ok" in out


def test_snapshot_inspect_reports_corruption(snapshot_dir, capsys):
    part = sorted((snapshot_dir / "parts").iterdir())[0]
    data = bytearray(part.read_bytes())
    data[-1] ^= 0xFF
    part.write_bytes(bytes(data))
    code = main(["snapshot", "inspect", str(snapshot_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert "checksum mismatch" in captured.out
    assert "failed verification" in captured.err


def test_snapshot_inspect_missing_manifest(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code = main(["snapshot", "inspect", str(tmp_path / "empty")])
    assert code == 2
    assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro slo — SLO status against a live server
# ----------------------------------------------------------------------
def test_slo_subcommand_reports_burn_rates(capsys):
    import json
    import urllib.request

    from repro.datasets import make_network
    from repro.serve import QueryService, start_server
    from repro.system import GeosocialDatabase

    network = make_network("gowalla", scale=0.0005, seed=3)
    service = QueryService(GeosocialDatabase.from_network(network))
    service.warm_up()
    server = start_server(service)
    base = f"http://127.0.0.1:{server.port}"
    try:
        request = urllib.request.Request(
            base + "/v1",
            data=json.dumps(
                {"op": "query", "vertex": 0, "region": [0, 0, 1, 1]}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            assert resp.status == 200
        assert main(["slo", "--url", base]) == 0
        out = capsys.readouterr().out
        assert "/v1:query" in out and "burn" in out and "budget" in out
        assert main(["slo", "--url", base, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "/v1:query" in payload["endpoints"]
    finally:
        server.drain(persist=False)


def test_slo_subcommand_unreachable_server(capsys):
    assert main(["slo", "--url", "http://127.0.0.1:1", "--timeout", "1"]) == 2
    assert "error" in capsys.readouterr().err

"""CLI error paths: exit code 2, one-line stderr, never a traceback.

These run the real ``python -m repro`` in a subprocess — an in-process
``main()`` call cannot prove that no traceback escapes to the user.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import fig1_network

import repro


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _assert_clean_failure(result: subprocess.CompletedProcess) -> None:
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    diagnostics = [line for line in result.stderr.splitlines() if line]
    assert len(diagnostics) == 1
    assert diagnostics[0].startswith("error:")


@pytest.fixture(scope="module")
def net_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("net") / "fig1"
    fig1_network().save(directory)
    return directory


def test_batch_file_malformed_line(tmp_path, net_dir):
    batch = tmp_path / "queries.txt"
    batch.write_text("0 0,0,5,5\nnot a query line\n")
    result = _run("query", str(net_dir), "--batch", str(batch))
    _assert_clean_failure(result)
    assert "queries.txt:2" in result.stderr


def test_batch_file_missing(net_dir):
    result = _run("query", str(net_dir), "--batch", "/nonexistent/q.txt")
    _assert_clean_failure(result)


def test_missing_network_directory():
    result = _run("stats", "/nonexistent/network")
    _assert_clean_failure(result)


def test_snapshot_load_missing_directory():
    result = _run("snapshot", "load", "/nonexistent/snapshot")
    _assert_clean_failure(result)


def test_snapshot_load_corrupt_manifest(tmp_path):
    snapshot = tmp_path / "snap"
    snapshot.mkdir()
    (snapshot / "manifest.json").write_text("{ not json")
    result = _run("snapshot", "load", str(snapshot))
    _assert_clean_failure(result)


def test_snapshot_inspect_missing_manifest(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = _run("snapshot", "inspect", str(empty))
    _assert_clean_failure(result)


def test_serve_requires_network_or_snapshot():
    result = _run("serve")
    _assert_clean_failure(result)


def test_serve_snapshot_only_with_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = _run("serve", "--snapshot-dir", str(empty))
    _assert_clean_failure(result)
    assert "no snapshot" in result.stderr


def test_serve_missing_network_directory():
    result = _run("serve", "--network", "/nonexistent/network")
    _assert_clean_failure(result)


@pytest.mark.parametrize("command", ["query", "serve"])
def test_nonpositive_timeout(tmp_path, net_dir, command):
    batch = tmp_path / "queries.txt"
    batch.write_text("0 0,0,5,5\n")
    args = (
        ["query", str(net_dir), "--batch", str(batch)]
        if command == "query"
        else ["serve", "--network", str(net_dir), "--port", "0"]
    )
    result = _run(*args, "--timeout", "0")
    _assert_clean_failure(result)
    assert "--timeout must be positive" in result.stderr

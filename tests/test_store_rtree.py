"""Regression tests: flattened R-trees reload with identical behaviour.

The snapshot store persists R-trees as preorder node arrays rather than
pickled objects, so the rebuilt tree must not just contain the same
entries — it must *traverse* the same way.  Methods that stop at the
first hit (``any_intersecting``) and callers that consume ``search``
lazily depend on the canonical result order, so the saved/loaded tree
must yield results in exactly the order the freshly built tree does.
"""

import hashlib
import json
import random
from array import array

import pytest

from helpers import random_geosocial_network, random_region
from repro.core import build_methods
from repro.pipeline import BuildContext
from repro.spatial import RTree
from repro.store import SnapshotError
from repro.store.codec import decode_record, encode_record
from repro.store.snapshot import _decode_rtree, _encode_rtree


def _random_boxes(rng, n, dims=2):
    entries = []
    for item in range(n):
        lo = [rng.uniform(0, 100) for _ in range(dims)]
        hi = [c + rng.uniform(0, 10) for c in lo]
        entries.append((tuple(lo + hi), item))
    return entries


def _queries(rng, n, dims=2):
    out = []
    for _ in range(n):
        lo = [rng.uniform(-10, 90) for _ in range(dims)]
        hi = [c + rng.uniform(0, 40) for c in lo]
        out.append(tuple(lo + hi))
    out.append(tuple([-1000.0] * dims + [1000.0] * dims))  # everything
    out.append(tuple([2000.0] * dims + [2001.0] * dims))  # nothing
    return out


def _round_trip(tree):
    flat = tree.flatten()
    return RTree.from_flat(**flat)


@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 5, 40, 300])
def test_search_order_preserved(dims, n):
    rng = random.Random(dims * 1000 + n)
    tree = RTree.bulk_load(_random_boxes(rng, n, dims), dims=dims)
    reloaded = _round_trip(tree)
    for query in _queries(rng, 25, dims):
        assert list(reloaded.search(query)) == list(tree.search(query))
        assert reloaded.search_all(query) == tree.search_all(query)
        assert reloaded.any_intersecting(query) == tree.any_intersecting(query)


def test_flatten_shape_is_consistent():
    rng = random.Random(1)
    tree = RTree.bulk_load(_random_boxes(rng, 50), dims=2)
    flat = tree.flatten()
    assert flat["dims"] == 2
    assert flat["size"] == 50
    assert len(flat["node_kinds"]) == len(flat["child_counts"])
    assert len(flat["node_kinds"]) == len(flat["entry_counts"])
    assert len(flat["entry_bounds"]) == 2 * flat["dims"] * sum(
        flat["entry_counts"]
    )
    assert sum(flat["entry_counts"]) == len(flat["entry_items"]) == 50


def test_flatten_rejects_non_integer_items():
    tree = RTree.bulk_load([((0.0, 0.0, 1.0, 1.0), "a-string")], dims=2)
    with pytest.raises(ValueError, match="integer"):
        tree.flatten()


def test_from_flat_rejects_inconsistent_arrays():
    rng = random.Random(2)
    tree = RTree.bulk_load(_random_boxes(rng, 30), dims=2)
    flat = tree.flatten()

    broken = dict(flat)
    broken["entry_items"] = flat["entry_items"][:-1]
    with pytest.raises(ValueError):
        RTree.from_flat(**broken)

    broken = dict(flat)
    broken["size"] = flat["size"] + 1
    with pytest.raises(ValueError):
        RTree.from_flat(**broken)

    broken = dict(flat)
    broken["node_kinds"] = flat["node_kinds"][:-1]
    with pytest.raises(ValueError):
        RTree.from_flat(**broken)


def test_store_codec_wraps_rtree_errors():
    rng = random.Random(3)
    tree = RTree.bulk_load(_random_boxes(rng, 20), dims=2)
    fields = _encode_rtree(tree)
    fields["entry_items"] = fields["entry_items"][:-1]
    with pytest.raises(SnapshotError):
        _decode_rtree(fields)


def test_store_codec_round_trip_preserves_order():
    rng = random.Random(4)
    tree = RTree.bulk_load(_random_boxes(rng, 80, 3), dims=3)
    reloaded = _decode_rtree(_encode_rtree(tree))
    for query in _queries(rng, 20, 3):
        assert list(reloaded.search(query)) == list(tree.search(query))


def test_from_flat_rejects_empty_leaf():
    flat = RTree.bulk_load([((0.0, 0.0, 1.0, 1.0), 7)], dims=2).flatten()
    flat.update(
        size=0,
        entry_counts=array("q", [0]),
        entry_bounds=array("d"),
        entry_items=array("q"),
    )
    with pytest.raises(ValueError, match="no entries"):
        RTree.from_flat(**flat)
    with pytest.raises(SnapshotError):
        _decode_rtree(flat)


def test_snapshot_with_legacy_split_field_warm_starts(tmp_path):
    """Version-1 snapshots from before the static tree carry ``"split"``.

    Those R-tree parts are the current record plus a ``"split"`` string
    field; re-encode every R-tree part that way (fixing the manifest's
    size and checksum) and the directory must still load and answer
    exactly like the tree that was saved.
    """
    rng = random.Random(11)
    network = random_geosocial_network(rng, num_vertices=40, num_edges=90)
    context = BuildContext(network)
    cold = build_methods(["spareach-bfl", "3dreach"], network, context=context)
    snap = tmp_path / "snap"
    context.save(snap)

    manifest_path = snap / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    rtree_parts = [e for e in manifest["parts"] if e["kind"] == "rtree"]
    assert rtree_parts
    for entry in rtree_parts:
        path = snap / "parts" / entry["file"]
        fields = decode_record(path.read_bytes())
        fields["split"] = "quadratic"
        data = encode_record(fields)
        path.write_bytes(data)
        entry["bytes"] = len(data)
        entry["sha256"] = hashlib.sha256(data).hexdigest()
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2))

    warm_context = BuildContext.load(snap)
    loaded_trees = dict(warm_context.artifact_items())
    for key, tree in context.artifact_items():
        if key[0] == "rtree":
            loaded = loaded_trees[key]
            loaded.check_invariants()
            for query in _queries(rng, 20, tree.dims):
                assert list(loaded.search(query)) == list(tree.search(query))
    warm = build_methods(["spareach-bfl", "3dreach"], context=warm_context)
    assert warm_context.miss_keys() == []
    for _ in range(40):
        vertex = rng.randrange(network.num_vertices)
        region = random_region(rng)
        for name, method in cold.items():
            assert warm[name].query(vertex, region) == method.query(
                vertex, region
            )

"""The versioned on-disk snapshot format and its (de)serializers.

A snapshot is a directory::

    <dir>/
      manifest.json          # format id, version, part table (written last)
      parts/<nnn>-<slug>.bin # one canonical binary record per artifact

The manifest lists every part with its artifact kind, full
:class:`~repro.pipeline.BuildContext` cache key, byte size and SHA-256
checksum.  Loading verifies each checksum before decoding; any mismatch,
truncation, unknown format version or missing manifest raises
:class:`~repro.store.errors.SnapshotError`.

**Atomicity** — :func:`save_context` stages everything into a ``.tmp``
sibling directory (manifest last) and renames it into place, so a crash
mid-save leaves either the old snapshot or none, never a torn one.

**Byte-stability** — every serializer is canonical (parts sorted by key,
record fields sorted by name, cell sets sorted, no timestamps), so
saving a freshly *loaded* context reproduces bit-identical parts and an
identical manifest.

Artifact kinds covered (the first element of each cache key):
``network`` (the raw geosocial network, so a snapshot is self-contained),
``condense``, ``labeling``, ``columns``, ``slabs``, ``feed``, ``rtree``
(flattened node arrays — never pickled objects), ``spa`` (GeoReach's
SPA-graph) and ``reach`` (the BFL filters).
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import time
from array import array
from pathlib import Path
from typing import TYPE_CHECKING

from repro.store.codec import decode_record, encode_record, require
from repro.store.errors import SnapshotError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline import BuildContext

FORMAT = "repro-snapshot"
VERSION = 1
MANIFEST_NAME = "manifest.json"
PARTS_DIR = "parts"

#: Decode order: later kinds may depend on earlier ones (everything needs
#: the network; reach needs the condensation DAG).
_KIND_ORDER = (
    "network",
    "condense",
    "labeling",
    "columns",
    "slabs",
    "feed",
    "rtree",
    "spa",
    "reach",
)


def _key_json(key: tuple) -> str:
    """Canonical JSON form of a cache key (the manifest/sort identity)."""
    return json.dumps(list(key), sort_keys=True, separators=(",", ":"))


def _key_from_json(raw: list) -> tuple:
    if not isinstance(raw, list) or not raw or not isinstance(raw[0], str):
        raise SnapshotError(f"malformed part key in manifest: {raw!r}")
    return tuple(raw)


_SLUG_RE = re.compile(r"[^A-Za-z0-9_.-]+")


def _slug(key: tuple) -> str:
    return "-".join(_SLUG_RE.sub("_", str(element)) for element in key)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# The three bulk builders below construct the geometry dataclasses with
# ``__new__`` + ``object.__setattr__`` instead of their constructors.
# Part payloads are checksum-verified before any decoder sees them, so
# the per-object validation round (``__post_init__``) is redundant on
# this path — and skipping it roughly halves the decode cost of the
# object-heavy artifacts, which is what makes warm starts cheap.
def _build_rects(bounds) -> list:
    """``[xlo, ylo, xhi, yhi, ...]`` column -> list of ``Rect``."""
    from repro.geometry import Rect

    new = Rect.__new__
    set_ = object.__setattr__
    out: list = []
    append = out.append
    it = iter(bounds)
    for xlo, ylo, xhi, yhi in zip(it, it, it, it):
        rect = new(Rect)
        set_(rect, "xlo", xlo)
        set_(rect, "ylo", ylo)
        set_(rect, "xhi", xhi)
        set_(rect, "yhi", yhi)
        append(rect)
    return out


def _build_points(xs, ys) -> list:
    """Parallel coordinate columns -> list of ``Point``."""
    from repro.geometry import Point

    new = Point.__new__
    set_ = object.__setattr__
    out: list = []
    append = out.append
    for x, y in zip(xs, ys):
        point = new(Point)
        set_(point, "x", x)
        set_(point, "y", y)
        append(point)
    return out


# ======================================================================
# Per-kind serializers.  Each encoder reduces an artifact to flat codec
# fields; each decoder rebuilds the exact in-memory object.  Decoders
# receive the artifacts already loaded (dependency kinds come first).
# ======================================================================
def _encode_graph(graph) -> dict:
    """Reduce a :class:`DiGraph` to the four adjacency columns."""
    out_counts = array("q")
    out_targets = array("q")
    in_counts = array("q")
    in_sources = array("q")
    for v in range(graph.num_vertices):
        row = graph.successors(v)
        out_counts.append(len(row))
        out_targets.extend(row)
        row = graph.predecessors(v)
        in_counts.append(len(row))
        in_sources.extend(row)
    return {
        "out_counts": out_counts,
        "out_targets": out_targets,
        "in_counts": in_counts,
        "in_sources": in_sources,
    }


def _decode_graph(fields: dict, num_vertices: int, what: str):
    from repro.graph.digraph import DiGraph

    try:
        return DiGraph.from_adjacency(
            num_vertices,
            require(fields, "out_counts", array),
            require(fields, "out_targets", array),
            require(fields, "in_counts", array),
            require(fields, "in_sources", array),
        )
    except (ValueError, IndexError) as exc:
        raise SnapshotError(f"corrupt {what} adjacency: {exc}") from None


def _encode_network(network) -> dict:
    spatial = array("q")
    xs = array("d")
    ys = array("d")
    for v, point in enumerate(network.points):
        if point is not None:
            spatial.append(v)
            xs.append(point.x)
            ys.append(point.y)
    fields = {
        "name": network.name,
        "num_vertices": network.num_vertices,
        "spatial_ids": spatial,
        "xs": xs,
        "ys": ys,
        "has_kinds": network.kinds is not None,
        **_encode_graph(network.graph),
    }
    if network.kinds is not None:
        fields["kinds"] = ",".join(network.kinds)
    return fields


def _decode_network(fields: dict):
    from repro.geosocial.network import GeosocialNetwork

    n = require(fields, "num_vertices", int)
    graph = _decode_graph(fields, n, "network")
    points: list = [None] * n
    spatial = require(fields, "spatial_ids", array)
    xs = require(fields, "xs", array)
    ys = require(fields, "ys", array)
    if not (len(spatial) == len(xs) == len(ys)):
        raise SnapshotError("network point columns disagree in length")
    if len(spatial) and not (0 <= min(spatial) and max(spatial) < n):
        raise SnapshotError("network spatial index out of range")
    for v, point in zip(spatial, _build_points(xs, ys)):
        points[v] = point
    kinds = None
    if require(fields, "has_kinds", int):
        raw = require(fields, "kinds", str)
        kinds = raw.split(",") if n else []
    return GeosocialNetwork(
        graph, points, kinds=kinds, name=require(fields, "name", str)
    )


def _encode_condense(condensed) -> dict:
    members_offsets = array("q", [0])
    members_flat = array("q")
    for members in condensed.members:
        members_flat.extend(members)
        members_offsets.append(len(members_flat))
    return {
        "component_of": array("q", condensed.component_of),
        "members_offsets": members_offsets,
        "members_flat": members_flat,
        "num_components": condensed.dag.num_vertices,
        **_encode_graph(condensed.dag),
    }


def _decode_condense(fields: dict, network):
    from repro.geosocial.scc_handling import CondensedNetwork
    from repro.graph.condensation import Condensation

    num_components = require(fields, "num_components", int)
    dag = _decode_graph(fields, num_components, "condensation")
    offsets = require(fields, "members_offsets", array)
    flat = require(fields, "members_flat", array)
    if len(offsets) != num_components + 1:
        raise SnapshotError("condensation member offsets disagree with DAG")
    members_flat = list(flat)
    members = [
        members_flat[a:b] for a, b in zip(offsets, offsets[1:])
    ]
    condensation = Condensation(
        dag=dag,
        component_of=list(require(fields, "component_of", array)),
        members=members,
    )
    return CondensedNetwork(network, condensation)


def _encode_labeling(labeling) -> dict:
    from repro.labeling.io import labeling_state

    return labeling_state(labeling)


def _decode_labeling(fields: dict):
    from repro.labeling.io import labeling_from_state

    return labeling_from_state(
        {
            "post": require(fields, "post", array),
            "parent": require(fields, "parent", array),
            "roots": require(fields, "roots", array),
            "stride": require(fields, "stride", int),
            "uncompressed": require(fields, "uncompressed", int),
            "label_counts": require(fields, "label_counts", array),
            "label_lo": require(fields, "label_lo", array),
            "label_hi": require(fields, "label_hi", array),
        }
    )


def _encode_columns(columns) -> dict:
    return {
        "xs": columns.xs,
        "ys": columns.ys,
        "offsets": columns.offsets,
        "vertices": columns.vertices,
    }


def _decode_columns(fields: dict):
    from repro.geosocial.columnar import SpatialColumns

    xs = require(fields, "xs", array)
    ys = require(fields, "ys", array)
    vertices = require(fields, "vertices", array)
    offsets = require(fields, "offsets", array)
    if not (len(xs) == len(ys) == len(vertices)):
        raise SnapshotError("column arrays disagree in length")
    return SpatialColumns(xs, ys, offsets, vertices)


def _encode_slabs(slabs) -> dict:
    return {"offsets": slabs.offsets, "xs": slabs.xs, "ys": slabs.ys}


def _decode_slabs(fields: dict):
    from repro.geosocial.columnar import PostOrderSlabs

    xs = require(fields, "xs", array)
    ys = require(fields, "ys", array)
    if len(xs) != len(ys):
        raise SnapshotError("slab coordinate arrays disagree in length")
    return PostOrderSlabs(require(fields, "offsets", array), xs, ys)


def _encode_feed(feed: list) -> dict:
    bounds = array("d")
    items = array("q")
    width = None
    for box, item in feed:
        if width is None:
            width = len(box)
        elif len(box) != width:
            raise SnapshotError("feed entries have inconsistent bounds width")
        if not isinstance(item, int):
            raise SnapshotError("feed items must be integers")
        bounds.extend(box)
        items.append(item)
    return {"width": width or 4, "bounds": bounds, "items": items}


def _decode_feed(fields: dict) -> list:
    width = require(fields, "width", int)
    bounds = require(fields, "bounds", array)
    items = require(fields, "items", array)
    if width < 2 or len(bounds) != width * len(items):
        raise SnapshotError("feed columns disagree in length")
    bounds_it = iter(bounds)
    return list(zip(zip(*([bounds_it] * width)), items))


def _encode_rtree(rtree) -> dict:
    return rtree.flatten()


def _decode_rtree(fields: dict):
    # Version-1 parts written before the tree became bulk-load-only also
    # carry a ``"split"`` string; it is ignored.
    from repro.spatial import RTree

    try:
        return RTree.from_flat(
            dims=require(fields, "dims", int),
            capacity=require(fields, "capacity", int),
            size=require(fields, "size", int),
            node_kinds=require(fields, "node_kinds", array),
            child_counts=require(fields, "child_counts", array),
            entry_counts=require(fields, "entry_counts", array),
            node_bounds=require(fields, "node_bounds", array),
            entry_bounds=require(fields, "entry_bounds", array),
            entry_items=require(fields, "entry_items", array),
        )
    except ValueError as exc:
        raise SnapshotError(f"corrupt R-tree part: {exc}") from None


def _encode_spa(spa) -> dict:
    classes = array("q", spa.vertex_class)
    geo_bits = array("q", (1 if bit else 0 for bit in spa.geo_bit))
    rmbr_index = array("q")
    rmbr_bounds = array("d")
    for v, box in enumerate(spa.rmbr):
        if box is not None:
            rmbr_index.append(v)
            rmbr_bounds.extend((box.xlo, box.ylo, box.xhi, box.yhi))
    rg_index = array("q")
    rg_counts = array("q")
    rg_cells = array("q")
    for v, cells in enumerate(spa.reach_grid):
        if cells is None:
            continue
        rg_index.append(v)
        rg_counts.append(len(cells))
        for cell in sorted(cells, key=lambda c: (c.level, c.row, c.col)):
            rg_cells.extend((cell.level, cell.row, cell.col))
    params = spa.params
    return {
        "max_rmbr_ratio": params.max_rmbr_ratio,
        "max_reach_grids": params.max_reach_grids,
        "merge_count": params.merge_count,
        "grid_levels": params.grid_levels,
        "space_xlo": spa.space.xlo,
        "space_ylo": spa.space.ylo,
        "space_xhi": spa.space.xhi,
        "space_yhi": spa.space.yhi,
        "classes": classes,
        "geo_bits": geo_bits,
        "rmbr_index": rmbr_index,
        "rmbr_bounds": rmbr_bounds,
        "rg_index": rg_index,
        "rg_counts": rg_counts,
        "rg_cells": rg_cells,
    }


def _decode_spa(fields: dict):
    from repro.core.georeach import GeoReachParams, SpaGraph
    from repro.geometry import Rect

    classes = require(fields, "classes", array)
    geo_bits = require(fields, "geo_bits", array)
    n = len(classes)
    if len(geo_bits) != n:
        raise SnapshotError("SPA-graph per-vertex arrays disagree in length")
    rmbr: list = [None] * n
    rmbr_index = require(fields, "rmbr_index", array)
    rmbr_bounds = require(fields, "rmbr_bounds", array)
    if len(rmbr_bounds) != 4 * len(rmbr_index):
        raise SnapshotError("SPA-graph RMBR columns disagree in length")
    if len(rmbr_index) and not (
        0 <= min(rmbr_index) and max(rmbr_index) < n
    ):
        raise SnapshotError("SPA-graph RMBR index out of range")
    for v, box in zip(rmbr_index, _build_rects(rmbr_bounds)):
        rmbr[v] = box
    reach_grid: list = [None] * n
    rg_index = require(fields, "rg_index", array)
    rg_counts = require(fields, "rg_counts", array)
    rg_cells = require(fields, "rg_cells", array)
    if len(rg_counts) != len(rg_index) or len(rg_cells) != 3 * sum(rg_counts):
        raise SnapshotError("SPA-graph ReachGrid columns disagree in length")
    if len(rg_index) and not (0 <= min(rg_index) and max(rg_index) < n):
        raise SnapshotError("SPA-graph ReachGrid index out of range")
    # Reach-grid cells repeat heavily across vertices (nearby components
    # see the same popular areas), so intern both the ``Cell`` objects
    # and the per-vertex grid sets.  The encoder emits each grid's cells
    # in canonical sorted order, which makes the raw byte slice a stable
    # identity key for an entire grid.
    from repro.spatial.grid import Cell

    new = Cell.__new__
    set_ = object.__setattr__
    cell_of: dict = {}
    all_cells: list = []
    cell_append = all_cells.append
    it = iter(rg_cells)
    for triple in zip(it, it, it):
        cell = cell_of.get(triple)
        if cell is None:
            level, row, col = triple
            cell = new(Cell)
            set_(cell, "level", level)
            set_(cell, "row", row)
            set_(cell, "col", col)
            cell_of[triple] = cell
        cell_append(cell)
    grid_of: dict = {}
    cursor = 0
    for v, count in zip(rg_index, rg_counts):
        nxt = cursor + count
        key = rg_cells[3 * cursor : 3 * nxt].tobytes()
        grid = grid_of.get(key)
        if grid is None:
            grid = grid_of[key] = frozenset(all_cells[cursor:nxt])
        reach_grid[v] = grid
        cursor = nxt
    return SpaGraph(
        params=GeoReachParams(
            max_rmbr_ratio=require(fields, "max_rmbr_ratio", float),
            max_reach_grids=require(fields, "max_reach_grids", int),
            merge_count=require(fields, "merge_count", int),
            grid_levels=require(fields, "grid_levels", int),
        ),
        space=Rect(
            require(fields, "space_xlo", float),
            require(fields, "space_ylo", float),
            require(fields, "space_xhi", float),
            require(fields, "space_yhi", float),
        ),
        vertex_class=list(classes),
        geo_bit=[bool(bit) for bit in geo_bits],
        rmbr=rmbr,
        reach_grid=reach_grid,
    )


def _encode_reach(reach) -> dict:
    state = reach.state()
    width = state["filter_bits"] // 8
    return {
        "filter_bits": state["filter_bits"],
        "post": array("q", state["post"]),
        "min_post": array("q", state["min_post"]),
        "out_filters": b"".join(
            f.to_bytes(width, "little") for f in state["out_filters"]
        ),
        "in_filters": b"".join(
            f.to_bytes(width, "little") for f in state["in_filters"]
        ),
    }


def _decode_reach(fields: dict, dag):
    from repro.reach import BflReach

    bits = require(fields, "filter_bits", int)
    if bits < 8 or bits % 8:
        raise SnapshotError(f"bad BFL filter width: {bits}")
    width = bits // 8
    post = list(require(fields, "post", array))
    min_post = list(require(fields, "min_post", array))
    n = dag.num_vertices
    if len(post) != n or len(min_post) != n:
        raise SnapshotError("BFL interval arrays disagree with the DAG")
    out_blob = require(fields, "out_filters", bytes)
    in_blob = require(fields, "in_filters", bytes)
    if len(out_blob) != n * width or len(in_blob) != n * width:
        raise SnapshotError("BFL filter blobs disagree with the DAG")
    out_filters = [
        int.from_bytes(out_blob[i * width : (i + 1) * width], "little")
        for i in range(n)
    ]
    in_filters = [
        int.from_bytes(in_blob[i * width : (i + 1) * width], "little")
        for i in range(n)
    ]
    return BflReach.from_state(
        dag,
        filter_bits=bits,
        post=post,
        min_post=min_post,
        out_filters=out_filters,
        in_filters=in_filters,
    )


def _encode_artifact(key: tuple, artifact) -> bytes:
    kind = key[0]
    if kind == "network":
        fields = _encode_network(artifact)
    elif kind == "condense":
        fields = _encode_condense(artifact)
    elif kind == "labeling":
        fields = _encode_labeling(artifact)
    elif kind == "columns":
        fields = _encode_columns(artifact)
    elif kind == "slabs":
        fields = _encode_slabs(artifact)
    elif kind == "feed":
        fields = _encode_feed(artifact)
    elif kind == "rtree":
        fields = _encode_rtree(artifact)
    elif kind == "spa":
        fields = _encode_spa(artifact)
    elif kind == "reach":
        fields = _encode_reach(artifact)
    else:
        raise SnapshotError(f"cannot serialize artifact kind {kind!r}")
    return encode_record(fields)


# ======================================================================
# Manifest + part I/O
# ======================================================================
def _load_manifest(directory: Path) -> dict:
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise SnapshotError(f"no snapshot manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"unreadable snapshot manifest: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
        raise SnapshotError(f"{manifest_path} is not a {FORMAT} manifest")
    version = manifest.get("version")
    if version != VERSION:
        raise SnapshotError(
            f"unsupported snapshot format version {version!r} "
            f"(this build reads version {VERSION})"
        )
    parts = manifest.get("parts")
    if not isinstance(parts, list):
        raise SnapshotError("snapshot manifest has no part table")
    return manifest


def _read_part(directory: Path, entry: dict) -> bytes:
    for field in ("file", "kind", "key", "bytes", "sha256"):
        if field not in entry:
            raise SnapshotError(f"manifest part entry missing {field!r}")
    path = directory / PARTS_DIR / entry["file"]
    if not path.is_file():
        raise SnapshotError(f"missing snapshot part {entry['file']}")
    data = path.read_bytes()
    if len(data) != entry["bytes"]:
        raise SnapshotError(
            f"part {entry['file']} is {len(data)} bytes, "
            f"manifest says {entry['bytes']} (truncated or padded)"
        )
    digest = _sha256(data)
    if digest != entry["sha256"]:
        raise SnapshotError(
            f"part {entry['file']} checksum mismatch: "
            f"{digest[:12]}… != {entry['sha256'][:12]}…"
        )
    return data


# ======================================================================
# Public API
# ======================================================================
def save_context(context: "BuildContext", directory: str | Path) -> dict:
    """Persist every built artifact of ``context`` (plus its network).

    Writes into a ``.tmp`` sibling and renames atomically; an existing
    snapshot at ``directory`` is replaced only after the new one is fully
    on disk.  Returns ``{"path", "parts", "bytes", "seconds"}``.
    """
    from repro.obs import instruments as _inst
    from repro.obs.metrics import enabled as _obs_enabled

    directory = Path(directory)
    if directory.name in ("", ".", ".."):
        raise SnapshotError(f"bad snapshot directory {str(directory)!r}")
    started = time.perf_counter()
    items: list[tuple[tuple, object]] = [(("network",), context.network)]
    items.extend(context.artifact_items())
    items.sort(key=lambda kv: _key_json(kv[0]))

    staging = directory.with_name(directory.name + ".tmp")
    if staging.exists():
        shutil.rmtree(staging)
    (staging / PARTS_DIR).mkdir(parents=True)
    part_entries = []
    total = 0
    for index, (key, artifact) in enumerate(items):
        data = _encode_artifact(key, artifact)
        filename = f"{index:03d}-{_slug(key)}.bin"
        (staging / PARTS_DIR / filename).write_bytes(data)
        total += len(data)
        part_entries.append(
            {
                "file": filename,
                "kind": key[0],
                "key": list(key),
                "bytes": len(data),
                "sha256": _sha256(data),
            }
        )
    manifest = {
        "format": FORMAT,
        "version": VERSION,
        "network": context.network.name,
        "parts": part_entries,
    }
    (staging / MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    if directory.exists():
        retired = directory.with_name(directory.name + ".old")
        if retired.exists():
            shutil.rmtree(retired)
        directory.rename(retired)
        staging.rename(directory)
        shutil.rmtree(retired)
    else:
        directory.parent.mkdir(parents=True, exist_ok=True)
        staging.rename(directory)
    elapsed = time.perf_counter() - started
    if _obs_enabled():
        _inst.STORE_SAVES.inc()
        _inst.STORE_SAVE_BYTES.inc(total)
        _inst.STORE_SAVE_SECONDS.observe(elapsed)
    return {
        "path": str(directory),
        "parts": len(part_entries),
        "bytes": total,
        "seconds": elapsed,
    }


def load_context(directory: str | Path) -> "BuildContext":
    """Rebuild a :class:`BuildContext` from a saved snapshot.

    Every persisted artifact is verified (size + checksum), decoded and
    seeded into the fresh context's cache, so subsequent method builds
    are 100% cache hits — a warm start performs zero labeling (or any
    other artifact) constructions.
    """
    from repro.obs import instruments as _inst
    from repro.obs.metrics import enabled as _obs_enabled
    from repro.pipeline import BuildContext

    directory = Path(directory)
    started = time.perf_counter()
    manifest = _load_manifest(directory)
    by_kind: dict[str, list[tuple[tuple, dict]]] = {}
    total = 0
    for entry in manifest["parts"]:
        key = _key_from_json(entry["key"])
        if key[0] != entry["kind"]:
            raise SnapshotError(
                f"part {entry['file']}: kind {entry['kind']!r} disagrees "
                f"with key {key!r}"
            )
        if key[0] not in _KIND_ORDER:
            raise SnapshotError(f"unknown artifact kind {key[0]!r}")
        data = _read_part(directory, entry)
        total += len(data)
        by_kind.setdefault(key[0], []).append((key, decode_record(data)))

    network_parts = by_kind.get("network")
    if not network_parts:
        raise SnapshotError("snapshot has no network part")
    try:
        network = _decode_network(network_parts[0][1])
        context = BuildContext(network)
        condensed = None
        for key, fields in by_kind.get("condense", ()):
            condensed = _decode_condense(fields, network)
            context.seed_artifact(key, condensed)
        for key, fields in by_kind.get("labeling", ()):
            context.seed_artifact(key, _decode_labeling(fields))
        for key, fields in by_kind.get("columns", ()):
            columns = _decode_columns(fields)
            context.seed_artifact(key, columns)
            if condensed is not None:
                # The condensation lazily compiles its own columns; seed
                # them so direct CondensedNetwork.columns() calls reuse
                # the loaded artifact too.
                condensed._columns = columns
        for key, fields in by_kind.get("slabs", ()):
            context.seed_artifact(key, _decode_slabs(fields))
        for key, fields in by_kind.get("feed", ()):
            context.seed_artifact(key, _decode_feed(fields))
        for key, fields in by_kind.get("rtree", ()):
            context.seed_artifact(key, _decode_rtree(fields))
        for key, fields in by_kind.get("spa", ()):
            context.seed_artifact(key, _decode_spa(fields))
        reach_parts = by_kind.get("reach", ())
        if reach_parts:
            if condensed is None:
                raise SnapshotError(
                    "snapshot has reachability filters but no condensation"
                )
            for key, fields in reach_parts:
                context.seed_artifact(key, _decode_reach(fields, condensed.dag))
    except SnapshotError:
        raise
    except (ValueError, IndexError, TypeError, OverflowError) as exc:
        raise SnapshotError(f"corrupt snapshot artifact: {exc}") from None
    elapsed = time.perf_counter() - started
    if _obs_enabled():
        _inst.STORE_LOADS.inc()
        _inst.STORE_LOAD_BYTES.inc(total)
        _inst.STORE_LOAD_SECONDS.observe(elapsed)
    return context


def inspect_snapshot(directory: str | Path) -> dict:
    """Verify a snapshot without decoding artifacts.

    Reads the manifest (raising :class:`SnapshotError` when it is
    missing, malformed or version-gated) and checks every part's
    existence, size and checksum, reporting per-part status instead of
    failing on the first damaged part.
    """
    directory = Path(directory)
    manifest = _load_manifest(directory)
    parts = []
    total = 0
    ok = True
    for entry in manifest["parts"]:
        status = "ok"
        try:
            data = _read_part(directory, entry)
            decode_record(data)
            total += len(data)
        except SnapshotError as exc:
            status = f"error: {exc}"
            ok = False
        parts.append(
            {
                "file": entry.get("file"),
                "kind": entry.get("kind"),
                "key": entry.get("key"),
                "bytes": entry.get("bytes"),
                "sha256": entry.get("sha256"),
                "status": status,
            }
        )
    return {
        "path": str(directory),
        "format": manifest["format"],
        "version": manifest["version"],
        "network": manifest.get("network"),
        "parts": parts,
        "total_bytes": total,
        "ok": ok,
    }

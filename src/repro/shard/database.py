"""`ShardedDatabase`: scatter-gather RangeReach over N shard databases.

Each shard is a full :class:`~repro.system.GeosocialDatabase` — its own
snapshot (optionally persisted under ``<snapshot_dir>/shard-NNN``), its
own delta overlay, its own rebuild — over the *intra-shard* subgraph in
shard-local dense vertex ids.  Cross-shard edges live in a
:class:`~repro.shard.boundary.BoundaryGraph` at the planner.

A query plans in two pruning steps before any shard is touched:

* **source pruning** — the boundary BFS finds the shards reachable from
  the query vertex, with the entry vertices to query them from;
* **region pruning** — shards whose venue MBR misses ``R`` are dropped
  (venue MBRs only ever grow, so the test is conservative in the safe
  direction and exact while venues are never deleted).

Surviving ``(shard, entry)`` pairs become per-shard sub-batches merged
with ``any()`` per original query; a batch deadline goes through the
same :func:`repro.exec.run_flattened` helper the monolithic path uses,
so chunk deadlines (:class:`~repro.exec.BatchTimeoutError` → HTTP 504)
and ``shard[i]`` spans inside ``exec.chunk[j]`` come from one place.

Writes route to the owning shard: removing a snapshot edge invalidates
(and later re-persists) *only that shard's* snapshot — the whole point
of the refactor (see ``docs/SHARDING.md`` on blast radius).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.core.base import RangeReachBase
from repro.exec import run_flattened
from repro.geometry import Point, Rect, as_rect
from repro.geosocial.network import GeosocialNetwork
from repro.graph.digraph import DiGraph
from repro.obs import instruments as _inst
from repro.obs.metrics import enabled as _obs_enabled
from repro.obs.trace import span as _span
from repro.shard.boundary import BoundaryGraph
from repro.shard.partition import GridSpec, partition_network
from repro.system.database import DEFAULT_REFRESH_THRESHOLD, GeosocialDatabase

LAYOUT_NAME = "layout.json"
_LAYOUT_FORMAT = "repro-shard-layout"
_LAYOUT_VERSION = 1

#: Grid bounds used when a sharded database starts empty (no network to
#: take SPACE from); out-of-bounds venues clamp to border tiles.
_DEFAULT_BOUNDS = Rect(0.0, 0.0, 1.0, 1.0)


def has_layout(directory: str | os.PathLike) -> bool:
    """True iff ``directory`` holds a sharded layout manifest."""
    return (Path(directory) / LAYOUT_NAME).is_file()


class ShardedDatabase(RangeReachBase):
    """N shard databases behind one ``RangeReachMethod`` surface.

    Speaks the same query *and* write vocabulary as
    :class:`~repro.system.GeosocialDatabase` (global vertex ids
    everywhere), so :class:`~repro.serve.QueryService` serves either
    transparently.

    Args:
        shards: number of shards (>= 1).
        refresh_threshold: per-shard delta threshold, passed through to
            every shard database.
        snapshot_dir: base directory for persistence; each shard
            persists under ``shard-NNN/`` and the global layout manifest
            (vertex placement, cross edges, shard fingerprints) is
            written to ``layout.json`` by :meth:`refresh`.  A directory
            already holding a layout must be opened with :meth:`load`.
        bounds: grid bounds for an empty start (defaults to the unit
            square; :meth:`from_network` uses the network's SPACE).
        kernels: inner-loop backend (``"numpy"``/``"python"``) passed to
            every shard database; boundary-graph exit-set probes resolve
            through each shard's batched ``reaches_many`` so the knob
            reaches the planner too.
    """

    name = "sharded"

    def __init__(
        self,
        shards: int = 4,
        refresh_threshold: int = DEFAULT_REFRESH_THRESHOLD,
        snapshot_dir: str | None = None,
        *,
        bounds: Rect | None = None,
        kernels: str | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if refresh_threshold < 0:
            raise ValueError("refresh_threshold must be non-negative")
        if snapshot_dir is not None and has_layout(snapshot_dir):
            raise ValueError(
                f"{snapshot_dir!r} already holds a shard layout; "
                "open it with ShardedDatabase.load()"
            )
        self._num_shards = shards
        self._refresh_threshold = refresh_threshold
        self._snapshot_dir = snapshot_dir
        self._kernels = kernels
        self._grid = GridSpec.for_shards(
            bounds if bounds is not None else _DEFAULT_BOUNDS, shards
        )
        # Global vertex tables.
        self._shard_of: list[int] = []
        self._local_of: list[int] = []
        self._global_of: list[list[int]] = [[] for _ in range(shards)]
        self._kinds: list[str] = []
        self._points: list[Point | None] = []
        self._edges: set[tuple[int, int]] = set()
        self._boundary = BoundaryGraph()
        self._mbr: list[Rect | None] = [None] * shards
        self._shards: list[GeosocialDatabase] = [
            self._fresh_shard(i) for i in range(shards)
        ]
        self._next_user_shard = 0
        # Planner counters surfaced by stats().
        self._plans = 0
        self._scatter_batches = 0
        self._scatter_subqueries = 0
        self._region_checks = 0
        self._region_pruned = 0
        self._source_pruned = 0
        self._boundary_probes = 0
        self._layout_saves = 0
        self._layout_warm_starts = 0
        self._ops_since_save = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_network(
        cls,
        network: GeosocialNetwork,
        *,
        shards: int = 4,
        refresh_threshold: int = DEFAULT_REFRESH_THRESHOLD,
        snapshot_dir: str | None = None,
        kernels: str | None = None,
    ) -> "ShardedDatabase":
        """Partition ``network`` into ``shards`` shards and serve it.

        With ``snapshot_dir`` set, the layout manifest is written
        immediately (shard snapshots follow lazily, on each shard's
        first build).  A directory that already holds a layout raises —
        use :meth:`load` for restarts.
        """
        database = cls(
            shards=shards,
            refresh_threshold=refresh_threshold,
            snapshot_dir=snapshot_dir,
            bounds=network.space() if network.num_spatial else None,
            kernels=kernels,
        )
        assignment = partition_network(network, shards)
        database._grid = assignment.grid
        database._adopt(network, assignment.shard_of)
        database._save_layout()
        return database

    @classmethod
    def load(
        cls,
        snapshot_dir: str,
        *,
        refresh_threshold: int = DEFAULT_REFRESH_THRESHOLD,
        kernels: str | None = None,
    ) -> "ShardedDatabase":
        """Warm-start a sharded database from a saved layout.

        ``layout.json`` is authoritative for the global state (vertex
        placement, kinds, points, every edge).  A shard whose persisted
        snapshot still matches the fingerprint recorded at the last
        layout save warm-starts from it (no labeling builds); any shard
        whose snapshot is missing, stale or ahead of the layout is
        reseeded cold from the layout instead — the maps must never
        disagree with the shard's local ids.
        """
        path = Path(snapshot_dir) / LAYOUT_NAME
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ValueError(
                f"no shard layout in {snapshot_dir!r}"
            ) from None
        except ValueError as exc:
            raise ValueError(f"corrupt shard layout {path}: {exc}") from None
        if (
            data.get("format") != _LAYOUT_FORMAT
            or data.get("version") != _LAYOUT_VERSION
        ):
            raise ValueError(
                f"unsupported shard layout {path}: "
                f"format={data.get('format')!r} version={data.get('version')!r}"
            )
        shards = int(data["shards"])
        grid = data["grid"]
        database = cls.__new__(cls)
        ShardedDatabase.__init__(
            database,
            shards=shards,
            refresh_threshold=refresh_threshold,
            snapshot_dir=None,
            bounds=Rect(*grid["bounds"]),
            kernels=kernels,
        )
        database._snapshot_dir = snapshot_dir
        database._grid = GridSpec(
            bounds=Rect(*grid["bounds"]), nx=int(grid["nx"]), ny=int(grid["ny"])
        )
        shard_of: list[int] = []
        points: list[Point | None] = []
        kinds: list[str] = []
        for shard, x, y in data["vertices"]:
            shard_of.append(int(shard))
            if x is None:
                points.append(None)
                kinds.append("user")
            else:
                points.append(Point(float(x), float(y)))
                kinds.append("venue")
        graph = DiGraph(len(shard_of))
        for u, v in data["edges"]:
            graph.add_edge(int(u), int(v))
        network = GeosocialNetwork(graph, points, kinds=kinds, name="layout")
        fingerprints = data.get("shard_fingerprints") or [None] * shards
        database._adopt(network, shard_of, fingerprints=fingerprints)
        database._next_user_shard = int(data.get("next_user_shard", 0))
        database._ops_since_save = 0
        return database

    def _adopt(
        self,
        network: GeosocialNetwork,
        shard_of: list[int],
        *,
        fingerprints: list[str | None] | None = None,
    ) -> None:
        """Install a partitioned network: maps, shard databases, MBRs."""
        n = network.num_vertices
        shards = self._num_shards
        self._shard_of = list(shard_of)
        self._points = list(network.points)
        if network.kinds is not None:
            self._kinds = list(network.kinds)
        else:
            self._kinds = [
                "venue" if p is not None else "user" for p in network.points
            ]
        self._local_of = [0] * n
        self._global_of = [[] for _ in range(shards)]
        for v in range(n):
            members = self._global_of[self._shard_of[v]]
            self._local_of[v] = len(members)
            members.append(v)
        self._edges = set(network.graph.edges())
        self._boundary = BoundaryGraph()
        local_edges: list[list[tuple[int, int]]] = [[] for _ in range(shards)]
        local_of = self._local_of
        for u, v in self._edges:
            su, sv = self._shard_of[u], self._shard_of[v]
            if su == sv:
                local_edges[su].append((local_of[u], local_of[v]))
            else:
                self._boundary.add_edge(u, v, su)
        self._mbr = [None] * shards
        for v, point in enumerate(self._points):
            if point is not None:
                self._expand_mbr(self._shard_of[v], point)
        self._shards = []
        for i in range(shards):
            members = self._global_of[i]
            local_net = GeosocialNetwork(
                DiGraph.from_edges(len(members), local_edges[i]),
                [self._points[g] for g in members],
                kinds=[self._kinds[g] for g in members],
                name=f"shard-{i}",
            )
            self._shards.append(
                self._seeded_shard(
                    i,
                    local_net,
                    fingerprint=(
                        fingerprints[i] if fingerprints is not None else None
                    ),
                )
            )

    def _shard_dir(self, index: int) -> str | None:
        if self._snapshot_dir is None:
            return None
        return os.path.join(self._snapshot_dir, f"shard-{index:03d}")

    def _fresh_shard(self, index: int) -> GeosocialDatabase:
        empty = GeosocialNetwork(
            DiGraph(0), [], kinds=[], name=f"shard-{index}"
        )
        return GeosocialDatabase.from_network(
            empty,
            refresh_threshold=self._refresh_threshold,
            snapshot_dir=self._shard_dir(index),
            prefer_snapshot=False,
            kernels=self._kernels,
        )

    def _seeded_shard(
        self,
        index: int,
        local_net: GeosocialNetwork,
        *,
        fingerprint: str | None,
    ) -> GeosocialDatabase:
        directory = self._shard_dir(index)
        if (
            fingerprint is not None
            and directory is not None
            and self._manifest_fingerprint(directory) == fingerprint
        ):
            # The persisted snapshot is byte-identical to what the layout
            # recorded: warm-start from it (it embeds the same network).
            self._layout_warm_starts += 1
            return GeosocialDatabase.from_network(
                local_net,
                refresh_threshold=self._refresh_threshold,
                snapshot_dir=directory,
                prefer_snapshot=True,
                kernels=self._kernels,
            )
        return GeosocialDatabase.from_network(
            local_net,
            refresh_threshold=self._refresh_threshold,
            snapshot_dir=directory,
            prefer_snapshot=False,
            kernels=self._kernels,
        )

    @staticmethod
    def _manifest_fingerprint(directory: str) -> str | None:
        from repro.store import MANIFEST_NAME

        manifest = Path(directory) / MANIFEST_NAME
        try:
            return hashlib.sha256(manifest.read_bytes()).hexdigest()
        except FileNotFoundError:
            return None

    # ------------------------------------------------------------------
    # Writes (routed to the owning shard)
    # ------------------------------------------------------------------
    def add_user(self, *, shard_hint: int | None = None) -> int:
        """Register a user; round-robin placement unless hinted."""
        if shard_hint is not None:
            shard = self._check_shard(shard_hint)
        else:
            shard = self._next_user_shard
            self._next_user_shard = (shard + 1) % self._num_shards
        local = self._shards[shard].add_user()
        return self._register_vertex(shard, local, "user", None)

    def add_venue(self, x: float, y: float) -> int:
        """Register a venue; placed by its grid tile."""
        shard = self._grid.shard_of_point(x, y, self._num_shards)
        local = self._shards[shard].add_venue(x, y)
        point = Point(x, y)
        self._expand_mbr(shard, point)
        return self._register_vertex(shard, local, "venue", point)

    def _register_vertex(
        self, shard: int, local: int, kind: str, point: Point | None
    ) -> int:
        global_id = len(self._kinds)
        self._shard_of.append(shard)
        self._local_of.append(local)
        self._global_of[shard].append(global_id)
        self._kinds.append(kind)
        self._points.append(point)
        self._note_write()
        return global_id

    def _expand_mbr(self, shard: int, point: Point) -> None:
        mbr = self._mbr[shard]
        self._mbr[shard] = (
            Rect(point.x, point.y, point.x, point.y)
            if mbr is None
            else mbr.expanded_to(point)
        )

    def add_follow(self, follower: int, followee: int) -> bool:
        """Record ``follower -> followee``; returns False if duplicate."""
        self._check_follow_edge(follower, followee)
        return self._add_edge(follower, followee)

    def add_checkin(self, user: int, venue: int) -> bool:
        """Record a check-in; repeat check-ins deduplicate."""
        self._check_checkin_edge(user, venue)
        return self._add_edge(user, venue)

    def remove_follow(self, follower: int, followee: int) -> None:
        """Remove a follow edge (raises if absent or not a follow edge)."""
        self._check_follow_edge(follower, followee)
        self._remove_edge(follower, followee)

    def remove_checkin(self, user: int, venue: int) -> None:
        """Remove a check-in edge (raises if absent or not a check-in)."""
        self._check_checkin_edge(user, venue)
        self._remove_edge(user, venue)

    def _add_edge(self, source: int, target: int) -> bool:
        if source == target or (source, target) in self._edges:
            return False
        su, st = self._shard_of[source], self._shard_of[target]
        if su == st:
            self._apply_local_edge(su, source, target, add=True)
            self._boundary.bump(su)
        else:
            self._boundary.add_edge(source, target, su)
        self._edges.add((source, target))
        self._note_write()
        return True

    def _remove_edge(self, source: int, target: int) -> None:
        if (source, target) not in self._edges:
            raise ValueError(f"edge ({source}, {target}) not present")
        su, st = self._shard_of[source], self._shard_of[target]
        if su == st:
            self._apply_local_edge(su, source, target, add=False)
            self._boundary.bump(su)
        else:
            self._boundary.remove_edge(source, target, su)
        self._edges.discard((source, target))
        self._note_write()

    def _apply_local_edge(
        self, shard: int, source: int, target: int, *, add: bool
    ) -> None:
        db = self._shards[shard]
        lu, lv = self._local_of[source], self._local_of[target]
        if self._kinds[target] == "venue":
            db.add_checkin(lu, lv) if add else db.remove_checkin(lu, lv)
        else:
            db.add_follow(lu, lv) if add else db.remove_follow(lu, lv)

    def _note_write(self) -> None:
        self._ops_since_save += 1
        if _obs_enabled():
            for i, db in enumerate(self._shards):
                _inst.SHARD_DELTA_OPS.labels(shard=str(i)).set(db.delta_size)

    # -- validation (global-id mirrors of the monolithic checks) --------
    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < len(self._kinds)):
            raise IndexError(f"vertex {v} out of range")

    def _check_shard(self, shard: int) -> int:
        if isinstance(shard, bool) or not isinstance(shard, int):
            raise ValueError(f"shard must be an integer, got {shard!r}")
        if not (0 <= shard < self._num_shards):
            raise ValueError(
                f"shard {shard} out of range (0..{self._num_shards - 1})"
            )
        return shard

    def _check_follow_edge(self, follower: int, followee: int) -> None:
        self._check_vertex(follower)
        self._check_vertex(followee)
        if self._kinds[followee] != "user" or self._kinds[follower] != "user":
            raise ValueError("follow edges connect users")

    def _check_checkin_edge(self, user: int, venue: int) -> None:
        self._check_vertex(user)
        self._check_vertex(venue)
        if self._kinds[user] != "user":
            raise ValueError(f"vertex {user} is not a user")
        if self._kinds[venue] != "venue":
            raise ValueError(f"vertex {venue} is not a venue")

    # ------------------------------------------------------------------
    # Scatter-gather planning
    # ------------------------------------------------------------------
    def _shard_reaches(self, shard: int, u: int, v: int) -> bool:
        self._count_boundary_probes(1)
        local_of = self._local_of
        return self._shards[shard].reaches(local_of[u], local_of[v])

    def _shard_reaches_many(
        self, shard: int, u: int, candidates
    ) -> list[bool]:
        """Batched exit-set probe: one shard call for all candidates."""
        self._count_boundary_probes(len(candidates))
        local_of = self._local_of
        return self._shards[shard].reaches_many(
            local_of[u], [local_of[c] for c in candidates]
        )

    def _count_boundary_probes(self, count: int) -> None:
        self._boundary_probes += count
        if count and _obs_enabled():
            _inst.SHARD_BOUNDARY_PROBES.inc(count)

    def _frontier(self, vertex: int) -> dict[int, set[int]]:
        return self._boundary.frontier(
            vertex,
            self._shard_of.__getitem__,
            self._shard_reaches,
            reaches_many=self._shard_reaches_many,
        )

    def _plan(
        self,
        vertex: int,
        region: Rect,
        frontier_cache: dict[int, dict[int, set[int]]],
        shard_hint: int | None = None,
    ) -> tuple[list[int], dict[int, set[int]]]:
        """One query's plan: the shards to touch, with entry vertices.

        Region pruning (venue-MBR ∩ R) and source pruning (boundary
        BFS) both run here, on the calling thread, so the scatter only
        ever ships sub-batches that can contribute to the answer.
        """
        frontier = frontier_cache.get(vertex)
        if frontier is None:
            frontier = frontier_cache[vertex] = self._frontier(vertex)
        shards = self._num_shards
        touched: list[int] = []
        region_pruned = 0
        source_pruned = 0
        for shard in range(shards):
            mbr = self._mbr[shard]
            if mbr is None or not mbr.intersects(region):
                region_pruned += 1
                continue
            if not frontier.get(shard):
                source_pruned += 1
                continue
            touched.append(shard)
        if shard_hint is not None and shard_hint in touched:
            touched.remove(shard_hint)
            touched.insert(0, shard_hint)
        self._plans += 1
        self._region_checks += shards
        self._region_pruned += region_pruned
        self._source_pruned += source_pruned
        if _obs_enabled():
            _inst.SHARD_PLANS.inc()
            _inst.SHARD_REGION_PRUNED.inc(region_pruned)
            _inst.SHARD_SOURCE_PRUNED.inc(source_pruned)
            _inst.SHARD_TOUCHED.inc(len(touched))
        return touched, frontier

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_reach(
        self, vertex: int, region: Rect, *, shard_hint: int | None = None
    ) -> bool:
        """Can ``vertex`` geosocially reach ``region``? (scatter-gather)

        ``shard_hint`` is advisory: a valid hinted shard is probed
        first, which pays off when the caller knows where the answer
        likely lives (it never changes the answer).
        """
        self._check_vertex(vertex)
        region = as_rect(region)
        with _span("shard.plan"):
            touched, frontier = self._plan(vertex, region, {}, shard_hint)
        local_of = self._local_of
        for shard in touched:
            pairs = [
                (local_of[g], region) for g in sorted(frontier[shard])
            ]
            self._count_scatter(shard, len(pairs))
            with _span(f"shard[{shard}]"):
                if any(self._shards[shard].range_reach_many(pairs)):
                    return True
        return False

    def query(self, vertex: int, region: Rect) -> bool:
        """Protocol alias of :meth:`range_reach` (the unified name)."""
        return self.range_reach(vertex, region)

    def range_reach_many(
        self,
        pairs,
        *,
        timeout: float | None = None,
        shard_hint: int | None = None,
    ) -> list[bool]:
        """Answer many ``(vertex, region)`` queries via scatter-gather.

        Every query is planned (region + source pruning, one boundary
        frontier per distinct vertex), the surviving ``(shard, entry)``
        sub-queries are flattened into one tagged batch, and the batch
        runs under the deadline ``timeout`` (seconds, checked between
        chunks by :func:`repro.exec.run_batch`).  Answers merge back
        with ``any()`` over each query's slice; a timed-out batch's
        :class:`~repro.exec.BatchTimeoutError` carries a prefix of this
        batch's answers.
        """
        pairs = [(vertex, as_rect(region)) for vertex, region in pairs]
        if not pairs:
            return []
        for vertex, _ in pairs:
            self._check_vertex(vertex)
        with _span("shard.batch"):
            self._scatter_batches += 1
            if _obs_enabled():
                _inst.SHARD_SCATTER_BATCHES.inc()
            frontier_cache: dict[int, dict[int, set[int]]] = {}
            local_of = self._local_of
            tagged: list[tuple[tuple[int, int], Rect]] = []
            plans: list[tuple[int, int, bool]] = []
            per_shard: dict[int, int] = {}
            with _span("shard.plan"):
                for vertex, region in pairs:
                    touched, frontier = self._plan(
                        vertex, region, frontier_cache, shard_hint
                    )
                    start = len(tagged)
                    for shard in touched:
                        entries = sorted(frontier[shard])
                        per_shard[shard] = per_shard.get(shard, 0) + len(
                            entries
                        )
                        tagged.extend(
                            ((shard, local_of[g]), region) for g in entries
                        )
                    plans.append((start, len(tagged), False))
            for shard, count in per_shard.items():
                self._count_scatter(shard, count)
            return run_flattened(self._scatter_batch, tagged, plans, timeout)

    def _scatter_batch(self, chunk) -> list[bool]:
        """Answer ``((shard, local_vertex), region)`` sub-queries, in order.

        The chunk is grouped by shard and each group runs as one
        vectorized ``range_reach_many`` under a ``shard[i]`` span.
        """
        out: list[bool] = [False] * len(chunk)
        groups: dict[int, tuple[list[int], list[tuple[int, Rect]]]] = {}
        for i, ((shard, local), region) in enumerate(chunk):
            indexes, pairs = groups.setdefault(shard, ([], []))
            indexes.append(i)
            pairs.append((local, region))
        for shard in sorted(groups):
            indexes, pairs = groups[shard]
            with _span(f"shard[{shard}]"):
                answers = self._shards[shard].range_reach_many(pairs)
            for i, answer in zip(indexes, answers):
                out[i] = answer
        return out

    def query_batch(self, pairs) -> list[bool]:
        """Protocol alias of :meth:`range_reach_many` (no deadline)."""
        return self.range_reach_many(pairs)

    def _count_scatter(self, shard: int, count: int) -> None:
        self._scatter_subqueries += count
        if count and _obs_enabled():
            _inst.SHARD_SUBQUERIES.labels(shard=str(shard)).inc(count)

    # -- extended query family (global ids in, global ids out) ----------
    def _gathered_witnesses(self, vertex: int, region: Rect) -> set[int]:
        touched, frontier = self._plan(vertex, region, {})
        local_of = self._local_of
        out: set[int] = set()
        for shard in touched:
            db = self._shards[shard]
            members = self._global_of[shard]
            found: set[int] = set()
            for g in sorted(frontier[shard]):
                found.update(db.reachable_venues(local_of[g], region))
            out.update(members[local] for local in found)
        return out

    def count_reachable(self, vertex: int, region: Rect) -> int:
        self._check_vertex(vertex)
        return len(self._gathered_witnesses(vertex, as_rect(region)))

    def reachable_venues(self, vertex: int, region: Rect) -> list[int]:
        """All reachable venues inside ``region`` (sorted global ids)."""
        self._check_vertex(vertex)
        return sorted(self._gathered_witnesses(vertex, as_rect(region)))

    def reaches_at_least(self, vertex: int, region: Rect, k: int) -> bool:
        self._check_vertex(vertex)
        if k <= 0:
            return True
        region = as_rect(region)
        touched, frontier = self._plan(vertex, region, {})
        local_of = self._local_of
        found: set[int] = set()
        for shard in touched:
            db = self._shards[shard]
            members = self._global_of[shard]
            for g in sorted(frontier[shard]):
                for local in db.reachable_venues(local_of[g], region):
                    found.add(members[local])
                    if len(found) >= k:
                        return True
        return False

    def nearest_reachable(self, vertex: int, x: float, y: float):
        """Return ``(venue, distance)`` or None — min over shards."""
        self._check_vertex(vertex)
        frontier = self._frontier(vertex)
        local_of = self._local_of
        best: tuple[float, int] | None = None
        for shard, entries in frontier.items():
            if self._mbr[shard] is None:
                continue
            db = self._shards[shard]
            members = self._global_of[shard]
            for g in sorted(entries):
                hit = db.nearest_reachable(local_of[g], x, y)
                if hit is not None:
                    candidate = (hit[1], members[hit[0]])
                    if best is None or candidate < best:
                        best = candidate
        if best is None:
            return None
        return best[1], best[0]

    def reaches(self, u: int, v: int) -> bool:
        """Exact vertex-to-vertex reachability across shards."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return True
        frontier = self._frontier(u)
        entries = frontier.get(self._shard_of[v])
        if not entries:
            return False
        return any(
            self._shard_reaches(self._shard_of[v], g, v) for g in entries
        )

    def size_bytes(self) -> int:
        """Summed index footprint of the built shard snapshots."""
        return sum(db.size_bytes() for db in self._shards)

    # ------------------------------------------------------------------
    # Persistence (layout manifest + per-shard snapshots)
    # ------------------------------------------------------------------
    def _save_layout(self) -> None:
        if self._snapshot_dir is None:
            return
        directory = Path(self._snapshot_dir)
        directory.mkdir(parents=True, exist_ok=True)
        vertices = [
            [shard, point.x if point is not None else None,
             point.y if point is not None else None]
            for shard, point in zip(self._shard_of, self._points)
        ]
        payload = {
            "format": _LAYOUT_FORMAT,
            "version": _LAYOUT_VERSION,
            "shards": self._num_shards,
            "grid": {
                "bounds": list(self._grid.bounds.as_tuple()),
                "nx": self._grid.nx,
                "ny": self._grid.ny,
            },
            "vertices": vertices,
            "edges": sorted([u, v] for u, v in self._edges),
            "next_user_shard": self._next_user_shard,
            "shard_fingerprints": [
                self._manifest_fingerprint(self._shard_dir(i))
                for i in range(self._num_shards)
            ],
        }
        staged = directory / (LAYOUT_NAME + ".tmp")
        staged.write_text(json.dumps(payload), encoding="utf-8")
        staged.replace(directory / LAYOUT_NAME)
        self._ops_since_save = 0
        self._layout_saves += 1

    def refresh(self) -> None:
        """Rebuild every dirty shard and persist layout + snapshots.

        A shard is dirty when its snapshot is stale or carries a delta;
        venue-less shards (nothing to index) are skipped.  The layout
        manifest is saved afterwards so its shard fingerprints match the
        snapshots just written.
        """
        for db in self._shards:
            if db.num_venues == 0:
                continue
            if db.is_stale or db.delta_size > 0:
                db.refresh()
        self._save_layout()

    @property
    def is_stale(self) -> bool:
        """True iff some shard would rebuild on its next query."""
        return any(
            db.is_stale and db.num_venues > 0 for db in self._shards
        )

    @property
    def delta_size(self) -> int:
        """Write operations since the last layout save."""
        return self._ops_since_save

    @property
    def refresh_threshold(self) -> int:
        return self._refresh_threshold

    @property
    def snapshot_dir(self) -> str | None:
        return self._snapshot_dir

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def kernels(self) -> str:
        """Resolved inner-loop backend (uniform across every shard)."""
        return self._shards[0].kernels

    def shard_of(self, vertex: int) -> int:
        """The shard owning ``vertex`` (global id)."""
        self._check_vertex(vertex)
        return self._shard_of[vertex]

    def mbr_of(self, shard: int) -> Rect | None:
        """The venue MBR of one shard (None while it has no venues)."""
        return self._mbr[self._check_shard(shard)]

    @property
    def num_users(self) -> int:
        return sum(1 for k in self._kinds if k == "user")

    @property
    def num_venues(self) -> int:
        return sum(1 for k in self._kinds if k == "venue")

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def num_rebuilds(self) -> int:
        return sum(db.num_rebuilds for db in self._shards)

    def stats(self) -> dict:
        """Aggregated shard counters plus the scatter-gather planner's."""
        per_shard = [db.stats() for db in self._shards]
        aggregated = {
            key: sum(s[key] for s in per_shard)
            for key in (
                "rebuilds",
                "overlay_queries",
                "delta_size",
                "delta_edges",
                "removal_refreshes",
                "threshold_refreshes",
                "warm_starts",
                "snapshot_saves",
            )
        }
        aggregated["refresh_threshold"] = self._refresh_threshold
        aggregated["shards"] = self._num_shards
        aggregated["scatter"] = {
            "plans": self._plans,
            "batches": self._scatter_batches,
            "subqueries": self._scatter_subqueries,
            "region_checks": self._region_checks,
            "region_pruned": self._region_pruned,
            "source_pruned": self._source_pruned,
            "boundary_probes": self._boundary_probes,
            "cross_edges": self._boundary.num_edges,
            "layout_saves": self._layout_saves,
            "layout_warm_starts": self._layout_warm_starts,
        }
        aggregated["per_shard"] = per_shard
        return aggregated

"""An updatable geosocial store with snapshot + delta-overlay serving.

Design: the raw adjacency structure is the source of truth; the expensive
reachability/spatial indexes are built per *snapshot*.  Instead of
discarding the snapshot on every write (the worst case for interleaved
update/query workloads), writes that arrive after a snapshot was built
are appended to a **delta log** and queries are answered as *base ∪
delta*:

* the indexed base query runs against the (possibly stale) snapshot from
  every union-graph-reachable snapshot vertex ("root");
* a bounded BFS over the delta edges — with the snapshot's interval
  labels deciding in O(1) whether a root reaches a delta-edge source —
  catches everything the stale snapshot misses, including venues created
  after the build, which are matched against the region by a linear scan.

Edge *removals* are absorbed exactly when the removed edge lives only in
the delta log; removing a snapshot edge invalidates the snapshot
(correctness first — no known interval labeling maintains deletions
incrementally).  The overlay BFS costs grow with the delta, so once the
logged operations exceed ``refresh_threshold`` the snapshot is dropped
and the next query rebuilds — the rebuild is thereby amortized over at
least ``refresh_threshold`` writes.  ``refresh_threshold=0`` restores the
old rebuild-per-write behavior.

The snapshot's query engine is the 3DReach transformation
(:class:`repro.core.GeosocialQueryEngine`), so besides the boolean
RangeReach the database answers counting, enumeration, thresholds and
nearest-reachable queries — all with base ∪ delta semantics.
"""

from __future__ import annotations

import time
from collections import deque

from repro.core.base import RangeReachBase
from repro.core.extensions import GeosocialQueryEngine
from repro.exec import run_batch, run_flattened
from repro.geometry import Point, Rect, as_rect
from repro.geosocial.network import GeosocialNetwork
from repro.graph.digraph import DiGraph
from repro.kernels import resolve_backend
from repro.obs import instruments as _inst
from repro.obs.metrics import enabled as _obs_enabled
from repro.obs.trace import span as _span
from repro.pipeline import BuildContext

DEFAULT_REFRESH_THRESHOLD = 64


class GeosocialDatabase(RangeReachBase):
    """A mutable geosocial network serving indexed RangeReach queries.

    Args:
        refresh_threshold: how many delta operations (new vertices and
            edges) a snapshot may accumulate before it is dropped and
            rebuilt on the next query.  ``0`` disables the overlay and
            rebuilds after every write.
        snapshot_dir: optional directory for persistent warm starts.  When
            it holds a snapshot written by ``repro.store``, the database
            loads it on construction and serves immediately — no labeling
            or R-tree construction — with later writes overlaid as usual.
            Every snapshot rebuild is then persisted back to the same
            directory (atomically), so a restarted process warm-starts
            from the latest built state.  A corrupt or incompatible
            snapshot raises :class:`repro.store.SnapshotError`.
        kernels: inner-loop backend (``"numpy"``/``"python"``) threaded
            into every snapshot build and warm start; ``None`` uses the
            process default (see :func:`repro.kernels.resolve_backend`).
            Snapshots on disk are backend-independent, so a snapshot
            saved under one backend warm-starts under the other.
    """

    def __init__(
        self,
        refresh_threshold: int = DEFAULT_REFRESH_THRESHOLD,
        snapshot_dir: str | None = None,
        kernels: str | None = None,
    ) -> None:
        if refresh_threshold < 0:
            raise ValueError("refresh_threshold must be non-negative")
        self._refresh_threshold = refresh_threshold
        self._snapshot_dir = snapshot_dir
        self.kernels = resolve_backend(kernels)
        self._graph = DiGraph(0)
        self._points: list[Point | None] = []
        self._kinds: list[str] = []
        self._edges: set[tuple[int, int]] = set()
        # Snapshot + delta state.
        self._engine: GeosocialQueryEngine | None = None
        self._snapshot_vertices = 0
        self._delta_succ: dict[int, list[int]] = {}
        self._delta_ops = 0
        # Counters surfaced by stats().
        self._rebuilds = 0
        self._overlay_queries = 0
        self._removal_refreshes = 0
        self._threshold_refreshes = 0
        self._warm_starts = 0
        self._snapshot_saves = 0
        if snapshot_dir is not None:
            self._try_warm_start(snapshot_dir)

    @classmethod
    def from_network(
        cls,
        network: GeosocialNetwork,
        *,
        refresh_threshold: int = DEFAULT_REFRESH_THRESHOLD,
        snapshot_dir: str | None = None,
        prefer_snapshot: bool = True,
        kernels: str | None = None,
    ) -> "GeosocialDatabase":
        """Create a database pre-populated from a saved network.

        When ``snapshot_dir`` already holds a persisted snapshot, the
        warm start wins and ``network`` is ignored (the snapshot embeds
        its own network); otherwise the adjacency, points and kinds are
        seeded from ``network`` and the first query builds (and, with
        ``snapshot_dir`` set, persists) the index snapshot.

        ``prefer_snapshot=False`` inverts the tie-break: ``network`` is
        authoritative and any snapshot in ``snapshot_dir`` is ignored on
        construction (the directory is still used for future persists).
        The sharded loader uses this when a shard's on-disk snapshot is
        known to disagree with the layout manifest.
        """
        if prefer_snapshot:
            database = cls(
                refresh_threshold=refresh_threshold,
                snapshot_dir=snapshot_dir,
                kernels=kernels,
            )
            if database._engine is None:
                database._seed_from_network(network)
            return database
        database = cls(refresh_threshold=refresh_threshold, kernels=kernels)
        database._snapshot_dir = snapshot_dir
        database._seed_from_network(network)
        return database

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_user(self) -> int:
        """Register a user; returns its vertex id."""
        v = self._graph.add_vertex()
        self._points.append(None)
        self._kinds.append("user")
        self._note_delta()
        return v

    def add_venue(self, x: float, y: float) -> int:
        """Register a venue at ``(x, y)``; returns its vertex id."""
        v = self._graph.add_vertex()
        self._points.append(Point(x, y))
        self._kinds.append("venue")
        self._note_delta()
        return v

    def add_follow(self, follower: int, followee: int) -> bool:
        """Record ``follower -> followee``; returns False if duplicate.

        Mutual follows are fine — the snapshot condensation collapses the
        resulting strongly connected components (delta edges may close
        cycles too; the overlay BFS does not require acyclicity).
        """
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

    def _add_edge(self, source: int, target: int) -> bool:
        if source == target or (source, target) in self._edges:
            return False
        self._graph.add_edge(source, target)
        self._edges.add((source, target))
        if self._engine is not None:
            self._delta_succ.setdefault(source, []).append(target)
        self._note_delta()
        return True

    def _remove_edge(self, source: int, target: int) -> None:
        if (source, target) not in self._edges:
            raise ValueError(f"edge ({source}, {target}) not present")
        self._graph.remove_edge(source, target)
        self._edges.discard((source, target))
        if self._engine is None:
            return
        targets = self._delta_succ.get(source)
        if targets is not None and target in targets:
            # The edge never made it into the snapshot; dropping it from
            # the delta log restores the exact pre-insert state.
            targets.remove(target)
            if not targets:
                del self._delta_succ[source]
        else:
            # Deleting a snapshot edge cannot be patched incrementally:
            # force a rebuild on the next query (correctness first).
            self._removal_refreshes += 1
            if _obs_enabled():
                _inst.DB_REMOVAL_REFRESHES.inc()
            self._drop_snapshot()
            return
        self._sync_delta_gauges()

    def _note_delta(self) -> None:
        if self._engine is None:
            return
        self._delta_ops += 1
        if self._delta_ops > self._refresh_threshold:
            self._threshold_refreshes += 1
            if _obs_enabled():
                _inst.DB_THRESHOLD_REFRESHES.inc()
            self._drop_snapshot()
            return
        self._sync_delta_gauges()

    def _drop_snapshot(self) -> None:
        self._engine = None
        self._delta_succ = {}
        self._delta_ops = 0
        self._snapshot_vertices = 0
        self._sync_delta_gauges()

    def _sync_delta_gauges(self) -> None:
        if _obs_enabled():
            _inst.DB_DELTA_OPS.set(self._delta_ops)
            _inst.DB_DELTA_EDGES.set(
                sum(len(t) for t in self._delta_succ.values())
            )

    def _note_query(self, *, overlay: bool) -> None:
        if overlay:
            self._overlay_queries += 1
        if _obs_enabled():
            if overlay:
                _inst.DB_OVERLAY_QUERIES.inc()
            else:
                _inst.DB_SNAPSHOT_QUERIES.inc()

    # ------------------------------------------------------------------
    # Queries (base snapshot ∪ delta overlay)
    # ------------------------------------------------------------------
    name = "database"

    def range_reach(self, vertex: int, region: Rect) -> bool:
        """Can ``vertex`` geosocially reach ``region``?"""
        self._check_vertex(vertex)
        region = as_rect(region)
        engine = self._snapshot()
        if not self._has_delta():
            self._note_query(overlay=False)
            return engine.query(vertex, region)
        self._note_query(overlay=True)
        roots, delta_spatial, _ = self._overlay_frontier(vertex)
        for root in roots:
            if engine.query(root, region):
                return True
        points = self._points
        return any(region.contains_point(points[v]) for v in delta_spatial)

    def query(self, vertex: int, region: Rect) -> bool:
        """Protocol alias of :meth:`range_reach` (the unified name)."""
        return self.range_reach(vertex, region)

    def range_reach_many(
        self, pairs, *, timeout: float | None = None
    ) -> list[bool]:
        """Answer many ``(vertex, region)`` queries, delta-overlay aware.

        With no pending delta the whole batch goes straight to the
        snapshot engine's vectorized ``query_batch``.  With a delta,
        each query is rewritten into its overlay form — the
        delta-spatial check plus one snapshot sub-query per overlay
        root, with the per-vertex frontier computed once per distinct
        vertex — and the flattened sub-queries run as one snapshot
        batch.

        ``timeout`` (seconds) is the batch deadline, checked between
        chunks (:func:`repro.exec.run_batch`); an expired one raises
        :class:`~repro.exec.BatchTimeoutError` whose ``answers`` are a
        prefix of this batch's answers.
        """
        pairs = [(vertex, as_rect(region)) for vertex, region in pairs]
        if not pairs:
            return []
        for vertex, _ in pairs:
            self._check_vertex(vertex)
        with _span("db.batch"):
            engine = self._snapshot()
            if not self._has_delta():
                for _ in pairs:
                    self._note_query(overlay=False)
                return run_batch(engine.query_batch, pairs, timeout)
            for _ in pairs:
                self._note_query(overlay=True)
            points = self._points
            frontier: dict[int, tuple[set[int], set[int], set[int]]] = {}
            sub_pairs: list[tuple[int, Rect]] = []
            plans: list[tuple[int, int, bool]] = []
            with _span("db.overlay_plan"):
                for vertex, region in pairs:
                    front = frontier.get(vertex)
                    if front is None:
                        front = frontier[vertex] = self._overlay_frontier(
                            vertex
                        )
                    roots, delta_spatial, _ = front
                    delta_hit = any(
                        region.contains_point(points[v])
                        for v in delta_spatial
                    )
                    start = len(sub_pairs)
                    if not delta_hit:
                        sub_pairs.extend((root, region) for root in roots)
                    plans.append((start, len(sub_pairs), delta_hit))
            return run_flattened(engine.query_batch, sub_pairs, plans, timeout)

    def query_batch(self, pairs) -> list[bool]:
        """Protocol alias of :meth:`range_reach_many` (no deadline)."""
        return self.range_reach_many(pairs)

    def count_reachable(self, vertex: int, region: Rect) -> int:
        self._check_vertex(vertex)
        region = as_rect(region)
        engine = self._snapshot()
        if not self._has_delta():
            self._note_query(overlay=False)
            return engine.count(vertex, region)
        self._note_query(overlay=True)
        return len(self._overlay_witnesses(engine, vertex, region))

    def reachable_venues(self, vertex: int, region: Rect) -> list[int]:
        """All reachable spatial vertices inside ``region`` (sorted)."""
        self._check_vertex(vertex)
        region = as_rect(region)
        engine = self._snapshot()
        if not self._has_delta():
            self._note_query(overlay=False)
            return sorted(engine.witnesses(vertex, region))
        self._note_query(overlay=True)
        return sorted(self._overlay_witnesses(engine, vertex, region))

    def reaches_at_least(self, vertex: int, region: Rect, k: int) -> bool:
        self._check_vertex(vertex)
        region = as_rect(region)
        engine = self._snapshot()
        if not self._has_delta():
            self._note_query(overlay=False)
            return engine.at_least(vertex, region, k)
        self._note_query(overlay=True)
        if k <= 0:
            return True
        # Witness sets of different roots may overlap, so the early-exit
        # threshold counts distinct venues.
        found: set[int] = set()
        roots, delta_spatial, _ = self._overlay_frontier(vertex)
        points = self._points
        for root in roots:
            for witness in engine.witnesses(root, region):
                found.add(witness)
                if len(found) >= k:
                    return True
        for v in delta_spatial:
            if region.contains_point(points[v]):
                found.add(v)
                if len(found) >= k:
                    return True
        return False

    def nearest_reachable(self, vertex: int, x: float, y: float):
        """Return ``(venue, distance)`` or None."""
        self._check_vertex(vertex)
        engine = self._snapshot()
        location = Point(x, y)
        if not self._has_delta():
            self._note_query(overlay=False)
            return engine.nearest(vertex, location)
        self._note_query(overlay=True)
        roots, delta_spatial, _ = self._overlay_frontier(vertex)
        best: tuple[float, int] | None = None
        for root in roots:
            hit = engine.nearest(root, location)
            if hit is not None:
                candidate = (hit[1], hit[0])
                if best is None or candidate < best:
                    best = candidate
        points = self._points
        for v in delta_spatial:
            candidate = (location.distance_to(points[v]), v)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            return None
        return best[1], best[0]

    def reaches(self, u: int, v: int) -> bool:
        """Exact vertex-to-vertex reachability over the live graph.

        Base ∪ delta semantics like every query: with a clean snapshot
        this is one interval-label probe; with a pending delta the
        overlay frontier settles post-snapshot targets and the labels
        settle snapshot targets.  A database that cannot build a
        snapshot yet (no venues) falls back to a plain BFS — the
        cross-shard boundary planner relies on this to traverse
        venue-less shards.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return True
        if self._engine is None:
            if not any(p is not None for p in self._points):
                return self._bfs_reaches(u, v)
            self._snapshot()
        engine = self._engine
        assert engine is not None
        if not self._has_delta():
            return engine.reaches(u, v)
        roots, _, visited = self._overlay_frontier(u)
        if v in visited:
            return True
        if v < self._snapshot_vertices:
            return any(engine.reaches(root, v) for root in roots)
        return False

    def reaches_many(self, u: int, targets) -> list[bool]:
        """Batched :meth:`reaches`: one source, many targets.

        The boundary-graph planner resolves a shard's whole exit set in
        one call; with a clean snapshot the batch collapses into a
        single vectorized label sweep (numpy backend) instead of one
        python probe per exit candidate.
        """
        self._check_vertex(u)
        targets = list(targets)
        for target in targets:
            self._check_vertex(target)
        if not targets:
            return []
        if self._engine is None:
            if not any(p is not None for p in self._points):
                visited = self._bfs_visited(u)
                return [t == u or t in visited for t in targets]
            self._snapshot()
        engine = self._engine
        assert engine is not None
        if not self._has_delta():
            return engine.reaches_many(u, targets)
        roots, _, visited = self._overlay_frontier(u)
        snapshot_n = self._snapshot_vertices
        answers = []
        for t in targets:
            if t == u or t in visited:
                answers.append(True)
            elif t < snapshot_n:
                answers.append(any(engine.reaches(root, t) for root in roots))
            else:
                answers.append(False)
        return answers

    def _bfs_reaches(self, u: int, v: int) -> bool:
        graph = self._graph
        visited = {u}
        queue: deque[int] = deque([u])
        while queue:
            w = queue.popleft()
            for t in graph.successors(w):
                if t == v:
                    return True
                if t not in visited:
                    visited.add(t)
                    queue.append(t)
        return False

    def _bfs_visited(self, u: int) -> set[int]:
        """Every vertex reachable from ``u`` over the live graph."""
        graph = self._graph
        visited = {u}
        queue: deque[int] = deque([u])
        while queue:
            w = queue.popleft()
            for t in graph.successors(w):
                if t not in visited:
                    visited.add(t)
                    queue.append(t)
        return visited

    def size_bytes(self) -> int:
        """Index footprint of the current snapshot (0 while stale)."""
        return 0 if self._engine is None else self._engine.size_bytes()

    # ------------------------------------------------------------------
    # Delta overlay
    # ------------------------------------------------------------------
    def _has_delta(self) -> bool:
        return bool(self._delta_succ) or (
            self._graph.num_vertices > self._snapshot_vertices
        )

    def _overlay_frontier(
        self, vertex: int
    ) -> tuple[set[int], set[int], set[int]]:
        """Traverse the union graph from ``vertex`` without expanding the
        snapshot.

        Returns ``(roots, delta_spatial, visited)``: the snapshot
        vertices whose *indexed* base reach covers everything reachable
        through snapshot edges, the post-snapshot spatial vertices
        reached, and every vertex the delta BFS touched directly (used
        by :meth:`reaches` to settle post-snapshot targets).  The BFS
        only ever walks delta edges; reachability *within* the snapshot is
        decided by the interval labels (``engine.reaches``), so the cost
        is bounded by the delta size, not the graph size.
        """
        engine = self._engine
        assert engine is not None
        snapshot_n = self._snapshot_vertices
        adjacency = self._delta_succ
        # Delta edges can also start at snapshot vertices; those sources
        # are "activated" once any root is known to reach them.
        pending = {s for s in adjacency if s < snapshot_n}
        roots: set[int] = set()
        delta_spatial: set[int] = set()
        visited = {vertex}
        queue: deque[int] = deque([vertex])
        expanded = 0
        with _span("db.overlay_frontier"):
            while queue:
                u = queue.popleft()
                expanded += 1
                if u < snapshot_n:
                    roots.add(u)
                    activated = [
                        s for s in pending if s == u or engine.reaches(u, s)
                    ]
                    for s in activated:
                        pending.discard(s)
                        for t in adjacency[s]:
                            if t not in visited:
                                visited.add(t)
                                queue.append(t)
                else:
                    if self._points[u] is not None:
                        delta_spatial.add(u)
                    for t in adjacency.get(u, ()):
                        if t not in visited:
                            visited.add(t)
                            queue.append(t)
        if _obs_enabled():
            _inst.DB_DELTA_EXPANSIONS.inc(expanded)
        return roots, delta_spatial, visited

    def _overlay_witnesses(
        self, engine: GeosocialQueryEngine, vertex: int, region: Rect
    ) -> set[int]:
        roots, delta_spatial, _ = self._overlay_frontier(vertex)
        out: set[int] = set()
        for root in roots:
            out.update(engine.witnesses(root, region))
        points = self._points
        out.update(
            v for v in delta_spatial if region.contains_point(points[v])
        )
        return out

    # ------------------------------------------------------------------
    # Snapshot management
    # ------------------------------------------------------------------
    def _try_warm_start(self, snapshot_dir: str) -> None:
        """Load a persisted snapshot, if one exists, and serve from it.

        An empty/absent directory is a normal cold start; a present but
        unreadable snapshot raises ``SnapshotError`` (a corrupt store
        should be loud, not silently rebuilt over).
        """
        from pathlib import Path

        from repro.store import MANIFEST_NAME

        if not (Path(snapshot_dir) / MANIFEST_NAME).exists():
            return
        with _span("db.warm_start"):
            context = BuildContext.load(snapshot_dir, kernels=self.kernels)
            self._seed_from_network(context.network)
            self._engine = GeosocialQueryEngine(
                context.condensed(), context=context
            )
            self._snapshot_vertices = context.network.num_vertices
        self._warm_starts += 1

    def _seed_from_network(self, network: GeosocialNetwork) -> None:
        """Adopt a network's vertices, points, kinds and edges.

        The live adjacency is mutable; it is rebuilt as a fresh copy so
        later writes never alias an immutable snapshot artifact.
        """
        n = network.num_vertices
        self._graph = DiGraph.from_edges(n, list(network.graph.edges()))
        self._points = list(network.points)
        if network.kinds is not None:
            self._kinds = list(network.kinds)
        else:
            self._kinds = [
                "venue" if p is not None else "user"
                for p in network.points
            ]
        self._edges = set(self._graph.edges())

    def _persist_snapshot(self, context: BuildContext) -> None:
        if self._snapshot_dir is None:
            return
        context.save(self._snapshot_dir)
        self._snapshot_saves += 1

    def _snapshot(self) -> GeosocialQueryEngine:
        if self._engine is None:
            if not any(p is not None for p in self._points):
                raise ValueError("database has no venues yet")
            with _span("db.rebuild"):
                started = time.perf_counter()
                network = GeosocialNetwork(
                    self._graph, list(self._points), kinds=list(self._kinds),
                    name="live",
                )
                # Build through the shared pipeline so the rebuild's
                # condensation/labeling land in the pipeline metrics and
                # future snapshot artifacts can be shared.
                context = BuildContext(network, kernels=self.kernels)
                self._engine = GeosocialQueryEngine(
                    context.condensed(), context=context
                )
                elapsed = time.perf_counter() - started
            self._snapshot_vertices = self._graph.num_vertices
            self._delta_succ = {}
            self._delta_ops = 0
            self._rebuilds += 1
            if _obs_enabled():
                _inst.DB_REBUILDS.inc()
                _inst.DB_REBUILD_SECONDS.observe(elapsed)
            self._sync_delta_gauges()
            self._persist_snapshot(context)
        return self._engine

    def refresh(self) -> None:
        """Eagerly rebuild the snapshot (e.g. during an idle period)."""
        self._drop_snapshot()
        self._snapshot()

    @property
    def is_stale(self) -> bool:
        """True iff the next query will rebuild the snapshot.

        A pending delta does *not* make the database stale: the overlay
        serves exact answers without a rebuild (see :attr:`delta_size`).
        """
        return self._engine is None

    @property
    def delta_size(self) -> int:
        """Operations logged against the current snapshot."""
        return self._delta_ops

    @property
    def refresh_threshold(self) -> int:
        return self._refresh_threshold

    @property
    def snapshot_dir(self) -> str | None:
        """Directory persisted snapshots go to (None = in-memory only)."""
        return self._snapshot_dir

    @property
    def num_rebuilds(self) -> int:
        return self._rebuilds

    def stats(self) -> dict[str, int]:
        """Serving counters: rebuilds, overlay usage and delta sizes."""
        return {
            "rebuilds": self._rebuilds,
            "overlay_queries": self._overlay_queries,
            "delta_size": self._delta_ops,
            "delta_edges": sum(len(t) for t in self._delta_succ.values()),
            "removal_refreshes": self._removal_refreshes,
            "threshold_refreshes": self._threshold_refreshes,
            "refresh_threshold": self._refresh_threshold,
            "warm_starts": self._warm_starts,
            "snapshot_saves": self._snapshot_saves,
            "kernels": self.kernels,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return sum(1 for k in self._kinds if k == "user")

    @property
    def num_venues(self) -> int:
        return sum(1 for k in self._kinds if k == "venue")

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._graph.num_vertices):
            raise IndexError(f"vertex {v} out of range")

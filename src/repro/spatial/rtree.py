"""A generic k-dimensional R-tree.

Bounds are flat tuples ``(lo_0, ..., lo_{d-1}, hi_0, ..., hi_{d-1})``;
points are stored as degenerate boxes.  The tree supports:

* sort-tile-recursive (STR) bulk loading — how every RangeReach index is
  built in the benchmarks, matching the paper's offline construction;
* quadratic-split insertion (Guttman) for incremental updates;
* full range enumeration plus an early-terminating *exists* search, which
  is what RangeReach actually needs ("is there at least one result?").

Dimensions 2 and 3 are exercised by the library (SpaReach and 3DReach),
but the implementation is dimension-generic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.obs import instruments as _inst
from repro.obs.metrics import enabled as _obs_enabled

Bounds = tuple[float, ...]


def bounds_intersect(a: Bounds, b: Bounds, dims: int) -> bool:
    """Return True iff the two k-dim boxes share at least one point."""
    for i in range(dims):
        if a[i] > b[dims + i] or b[i] > a[dims + i]:
            return False
    return True


def bounds_contain(outer: Bounds, inner: Bounds, dims: int) -> bool:
    """Return True iff ``inner`` lies fully inside ``outer``."""
    for i in range(dims):
        if inner[i] < outer[i] or inner[dims + i] > outer[dims + i]:
            return False
    return True


def bounds_union(a: Bounds, b: Bounds, dims: int) -> Bounds:
    """Return the smallest box enclosing both operands."""
    return tuple(
        [min(a[i], b[i]) for i in range(dims)]
        + [max(a[dims + i], b[dims + i]) for i in range(dims)]
    )


def bounds_margin(a: Bounds, dims: int) -> float:
    """Return the sum of side lengths (used by the quadratic split)."""
    return sum(a[dims + i] - a[i] for i in range(dims))


def bounds_volume(a: Bounds, dims: int) -> float:
    """Return the k-dimensional volume of the box."""
    volume = 1.0
    for i in range(dims):
        volume *= a[dims + i] - a[i]
    return volume


def _union_many(items: Sequence[Bounds], dims: int) -> Bounds:
    lows = [min(b[i] for b in items) for i in range(dims)]
    highs = [max(b[dims + i] for b in items) for i in range(dims)]
    return tuple(lows + highs)


class _Node:
    """An R-tree node; leaves hold ``(bounds, item)``, inner nodes hold children."""

    __slots__ = ("is_leaf", "bounds", "entries", "children")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.bounds: Bounds | None = None
        self.entries: list[tuple[Bounds, Any]] = [] if is_leaf else None
        self.children: list["_Node"] = None if is_leaf else []

    def recompute_bounds(self, dims: int) -> None:
        if self.is_leaf:
            boxes = [b for b, _ in self.entries]
        else:
            boxes = [c.bounds for c in self.children]
        self.bounds = _union_many(boxes, dims) if boxes else None


@dataclass(frozen=True, slots=True)
class RTreeStats:
    """Structural statistics, used for the Table 4 size accounting."""

    dims: int
    height: int
    num_items: int
    num_leaves: int
    num_inner: int

    @property
    def num_nodes(self) -> int:
        return self.num_leaves + self.num_inner


class RTree:
    """A k-dimensional R-tree over ``(bounds, item)`` entries.

    ``split`` selects the overflow policy: Guttman's ``"quadratic"``
    (default) or the R*-tree's margin/overlap-driven ``"rstar"`` split
    (Beckmann et al.), the popular variant the paper's related work
    mentions.  Bulk loading (STR) is unaffected by the choice.
    """

    def __init__(
        self, dims: int = 2, capacity: int = 16, split: str = "quadratic"
    ) -> None:
        if dims < 1:
            raise ValueError("dims must be positive")
        if capacity < 2:
            raise ValueError("node capacity must be at least 2")
        if split not in ("quadratic", "rstar"):
            raise ValueError("split must be 'quadratic' or 'rstar'")
        self._dims = dims
        self._capacity = capacity
        self._split_policy = split
        self._min_fill = max(1, capacity * 2 // 5)
        self._root: _Node | None = None
        self._size = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        entries: Iterable[tuple[Bounds, Any]],
        dims: int = 2,
        capacity: int = 16,
    ) -> "RTree":
        """Build a tree from all entries at once via sort-tile-recursive.

        STR produces nearly square, fully packed leaves; this is the
        offline build path used for every benchmark index.
        """
        tree = cls(dims=dims, capacity=capacity)
        items = list(entries)
        tree._size = len(items)
        if not items:
            return tree
        leaves = [
            tree._make_leaf(group)
            for group in _str_partition(items, capacity, dims, key_offset=0)
        ]
        level = leaves
        while len(level) > 1:
            pseudo = [(node.bounds, node) for node in level]
            level = [
                tree._make_inner([node for _, node in group])
                for group in _str_partition(pseudo, capacity, dims, key_offset=0)
            ]
        tree._root = level[0]
        return tree

    @classmethod
    def from_points(
        cls,
        points: Iterable[tuple[Sequence[float], Any]],
        dims: int = 2,
        capacity: int = 16,
    ) -> "RTree":
        """Bulk-load from ``(coordinates, item)`` pairs (degenerate boxes)."""
        entries = [
            (tuple(coords) + tuple(coords), item) for coords, item in points
        ]
        return cls.bulk_load(entries, dims=dims, capacity=capacity)

    def _make_leaf(self, group: list[tuple[Bounds, Any]]) -> _Node:
        node = _Node(is_leaf=True)
        node.entries = list(group)
        node.recompute_bounds(self._dims)
        return node

    def _make_inner(self, children: list[_Node]) -> _Node:
        node = _Node(is_leaf=False)
        node.children = children
        node.recompute_bounds(self._dims)
        return node

    # ------------------------------------------------------------------
    # Insertion (Guttman, quadratic split)
    # ------------------------------------------------------------------
    def insert(self, bounds: Bounds, item: Any) -> None:
        """Insert one entry; splits overflowing nodes quadratically."""
        if len(bounds) != 2 * self._dims:
            raise ValueError(
                f"bounds must have {2 * self._dims} values, got {len(bounds)}"
            )
        self._size += 1
        if self._root is None:
            self._root = self._make_leaf([(bounds, item)])
            return
        split = self._insert_into(self._root, bounds, item)
        if split is not None:
            self._root = self._make_inner([self._root, split])

    def insert_point(self, coords: Sequence[float], item: Any) -> None:
        """Insert a point entry (degenerate box)."""
        self.insert(tuple(coords) + tuple(coords), item)

    def _insert_into(self, node: _Node, bounds: Bounds, item: Any) -> _Node | None:
        dims = self._dims
        if node.is_leaf:
            node.entries.append((bounds, item))
            node.bounds = (
                bounds if node.bounds is None
                else bounds_union(node.bounds, bounds, dims)
            )
            if len(node.entries) > self._capacity:
                return self._split_leaf(node)
            return None
        child = self._choose_subtree(node, bounds)
        split = self._insert_into(child, bounds, item)
        node.bounds = bounds_union(node.bounds, bounds, dims)
        if split is not None:
            node.children.append(split)
            node.bounds = bounds_union(node.bounds, split.bounds, dims)
            if len(node.children) > self._capacity:
                return self._split_inner(node)
        return None

    def _choose_subtree(self, node: _Node, bounds: Bounds) -> _Node:
        # Volume enlargement alone degenerates on point-heavy workloads:
        # collinear or coordinate-sharing entries make every volume 0, so
        # the choice falls through to margin (perimeter) enlargement, which
        # stays discriminating for degenerate boxes.
        dims = self._dims
        best: _Node | None = None
        best_key: tuple[float, float, float, float] | None = None
        for child in node.children:
            volume = bounds_volume(child.bounds, dims)
            margin = bounds_margin(child.bounds, dims)
            union = bounds_union(child.bounds, bounds, dims)
            key = (
                bounds_volume(union, dims) - volume,
                bounds_margin(union, dims) - margin,
                volume,
                margin,
            )
            if best_key is None or key < best_key:
                best = child
                best_key = key
        assert best is not None
        return best

    def _split_entries(self, items: list, get_bounds):
        if self._split_policy == "rstar":
            return _rstar_split(items, get_bounds, self._dims, self._min_fill)
        return _quadratic_split(items, get_bounds, self._dims, self._min_fill)

    def _split_leaf(self, node: _Node) -> _Node:
        group_a, group_b = self._split_entries(node.entries, lambda e: e[0])
        node.entries = group_a
        node.recompute_bounds(self._dims)
        sibling = _Node(is_leaf=True)
        sibling.entries = group_b
        sibling.recompute_bounds(self._dims)
        return sibling

    def _split_inner(self, node: _Node) -> _Node:
        group_a, group_b = self._split_entries(node.children, lambda c: c.bounds)
        node.children = group_a
        node.recompute_bounds(self._dims)
        sibling = _Node(is_leaf=False)
        sibling.children = group_b
        sibling.recompute_bounds(self._dims)
        return sibling

    # ------------------------------------------------------------------
    # Deletion (find leaf, remove, condense-tree with reinsertion)
    # ------------------------------------------------------------------
    def delete(self, bounds: Bounds, item: Any) -> bool:
        """Remove one entry matching ``(bounds, item)``.

        Returns True iff an entry was removed.  Underflowing nodes are
        dissolved and their surviving entries reinserted (Guttman's
        condense-tree), so the tree stays balanced under churn.
        """
        if self._root is None:
            return False
        dims = self._dims
        orphans: list[tuple[Bounds, Any]] = []

        def remove_from(node: _Node) -> bool:
            if node.is_leaf:
                for i, (b, it) in enumerate(node.entries):
                    if it == item and b == bounds:
                        node.entries.pop(i)
                        node.recompute_bounds(dims)
                        return True
                return False
            for child in node.children:
                if child.bounds is not None and bounds_contain(
                    child.bounds, bounds, dims
                ):
                    if remove_from(child):
                        if (
                            (child.is_leaf and len(child.entries) < self._min_fill)
                            or (not child.is_leaf and len(child.children) < 2)
                        ):
                            node.children.remove(child)
                            orphans.extend(_collect_entries(child))
                        node.recompute_bounds(dims)
                        return True
            return False

        if not remove_from(self._root):
            return False
        self._size -= 1
        # Normalize the root *before* reinsertion: shrink a root that lost
        # all but one child, and drop an emptied leaf root unconditionally
        # (insert() rebuilds from None), so no empty leaf can survive as
        # the root while orphans are pending and show up in stats().
        while (
            not self._root.is_leaf and len(self._root.children) == 1
        ):
            self._root = self._root.children[0]
        if self._root.is_leaf and not self._root.entries:
            self._root = None
        self._size -= len(orphans)
        for orphan_bounds, orphan_item in orphans:
            self.insert(orphan_bounds, orphan_item)
        return True

    def delete_point(self, coords: Sequence[float], item: Any) -> bool:
        """Remove a point entry (degenerate box)."""
        return self.delete(tuple(coords) + tuple(coords), item)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search(self, query: Bounds) -> Iterator[Any]:
        """Yield every item whose bounds intersect ``query``.

        Traversal work (``repro_rtree_*``: nodes visited, leaves scanned,
        entries tested) accumulates in locals and flushes once in
        ``finally``, which also runs when an early-terminating consumer
        (``any_intersecting``) closes the generator after the first hit —
        so per-query work is attributed even for abandoned searches.
        Entries are tallied per leaf: an abandoned search is charged the
        whole leaf it stopped in.
        """
        if self._root is None:
            return
        dims = self._dims
        nodes = leaves = items = 0
        stack = [self._root]
        try:
            while stack:
                node = stack.pop()
                nodes += 1
                if node.bounds is None or not bounds_intersect(
                    node.bounds, query, dims
                ):
                    continue
                if node.is_leaf:
                    leaves += 1
                    items += len(node.entries)
                    for bounds, item in node.entries:
                        if bounds_intersect(bounds, query, dims):
                            yield item
                else:
                    stack.extend(node.children)
        finally:
            if _obs_enabled():
                _inst.RTREE_SEARCHES.inc()
                _inst.RTREE_NODES_VISITED.inc(nodes)
                _inst.RTREE_LEAVES_SCANNED.inc(leaves)
                _inst.RTREE_ITEMS_TESTED.inc(items)

    def search_all(self, query: Bounds) -> list[Any]:
        """Return all items intersecting ``query`` as a list."""
        return list(self.search(query))

    def any_intersecting(self, query: Bounds) -> Any | None:
        """Return one item intersecting ``query``, or None.

        The early-terminating variant used by the RangeReach methods: a
        positive answer only needs *one* witness.
        """
        for item in self.search(query):
            return item
        return None

    def count_intersecting(self, query: Bounds) -> int:
        """Return the number of items intersecting ``query``."""
        return sum(1 for _ in self.search(query))

    def nearest(
        self,
        coords: Sequence[float],
        k: int = 1,
        item_filter: Callable[[Any], bool] | None = None,
    ) -> list[tuple[float, Any]]:
        """Return the ``k`` entries nearest to ``coords`` (best-first).

        Classic incremental nearest-neighbor over the R-tree: a priority
        queue ordered by MINDIST expands the most promising node first,
        so the search touches only the neighborhood of the query point.
        Returns ``(distance, item)`` pairs, nearest first; distance to a
        box is the distance to its closest face (0 if inside).

        Args:
            coords: query point, one value per dimension.
            k: how many neighbors.
            item_filter: optional predicate; entries failing it are
                skipped (but still guide the traversal).
        """
        if len(coords) != self._dims:
            raise ValueError(f"query point must have {self._dims} coordinates")
        if k < 1:
            raise ValueError("k must be positive")
        if self._root is None:
            return []
        dims = self._dims

        def mindist(bounds: Bounds) -> float:
            total = 0.0
            for i in range(dims):
                c = coords[i]
                if c < bounds[i]:
                    d = bounds[i] - c
                elif c > bounds[dims + i]:
                    d = c - bounds[dims + i]
                else:
                    continue
                total += d * d
            return math.sqrt(total)

        results: list[tuple[float, Any]] = []
        nodes = leaves = items = 0
        counter = 0  # tie-breaker: Python can't compare nodes/items
        heap: list[tuple[float, int, bool, Any]] = [
            (mindist(self._root.bounds), counter, False, self._root)
        ]
        while heap:
            distance, _, is_entry, payload = heapq.heappop(heap)
            if len(results) == k and distance > results[-1][0]:
                break
            if is_entry:
                results.append((distance, payload))
                results.sort(key=lambda pair: pair[0])
                if len(results) > k:
                    results.pop()
            elif payload.is_leaf:
                nodes += 1
                leaves += 1
                for bounds, item in payload.entries:
                    if item_filter is not None and not item_filter(item):
                        continue
                    counter += 1
                    items += 1
                    heapq.heappush(
                        heap, (mindist(bounds), counter, True, item)
                    )
            else:
                nodes += 1
                for child in payload.children:
                    counter += 1
                    heapq.heappush(
                        heap, (mindist(child.bounds), counter, False, child)
                    )
        if _obs_enabled():
            _inst.RTREE_SEARCHES.inc()
            _inst.RTREE_NODES_VISITED.inc(nodes)
            _inst.RTREE_LEAVES_SCANNED.inc(leaves)
            _inst.RTREE_ITEMS_TESTED.inc(items)
        return results

    # ------------------------------------------------------------------
    # Flattened form (persistence)
    # ------------------------------------------------------------------
    def flatten(self) -> dict:
        """Reduce the tree to flat preorder arrays (no object graph).

        Children and leaf entries are emitted in their in-node order, so
        a tree rebuilt by :meth:`from_flat` traverses — and therefore
        answers :meth:`search` — in exactly the same order as this one.
        Node bounds are stored too (``node_bounds``, ``2 * dims`` per
        node), so the rebuild is a straight array walk with no bound
        recomputation.  Items must be integers (every index in this
        library stores component or vertex ids).
        """
        from array import array

        node_kinds = array("q")
        child_counts = array("q")
        entry_counts = array("q")
        node_bounds = array("d")
        entry_bounds = array("d")
        entry_items = array("q")

        width = 2 * self._dims

        def visit(node: _Node) -> None:
            node_kinds.append(1 if node.is_leaf else 0)
            # Only an emptied root leaf has no bounds; store zeros and
            # restore None from the zero entry count on rebuild.
            node_bounds.extend(
                node.bounds if node.bounds is not None else (0.0,) * width
            )
            if node.is_leaf:
                child_counts.append(0)
                entry_counts.append(len(node.entries))
                for bounds, item in node.entries:
                    if not isinstance(item, int):
                        raise ValueError(
                            "only integer-item R-trees can be flattened, "
                            f"got {type(item).__name__}"
                        )
                    entry_bounds.extend(bounds)
                    entry_items.append(item)
            else:
                child_counts.append(len(node.children))
                entry_counts.append(0)
                for child in node.children:
                    visit(child)

        if self._root is not None:
            visit(self._root)
        return {
            "dims": self._dims,
            "capacity": self._capacity,
            "split": self._split_policy,
            "size": self._size,
            "node_kinds": node_kinds,
            "child_counts": child_counts,
            "entry_counts": entry_counts,
            "node_bounds": node_bounds,
            "entry_bounds": entry_bounds,
            "entry_items": entry_items,
        }

    @classmethod
    def from_flat(
        cls,
        *,
        dims: int,
        capacity: int,
        split: str,
        size: int,
        node_kinds: Sequence[int],
        child_counts: Sequence[int],
        entry_counts: Sequence[int],
        node_bounds: Sequence[float],
        entry_bounds: Sequence[float],
        entry_items: Sequence[int],
    ) -> "RTree":
        """Rebuild a tree from :meth:`flatten` arrays.

        Raises ``ValueError`` when the arrays are structurally
        inconsistent (wrong lengths, dangling cursors, bad counts).
        """
        tree = cls(dims=dims, capacity=capacity, split=split)
        num_nodes = len(node_kinds)
        if len(child_counts) != num_nodes or len(entry_counts) != num_nodes:
            raise ValueError("flattened node arrays disagree in length")
        width = 2 * dims
        if len(node_bounds) != num_nodes * width:
            raise ValueError("flattened node bounds disagree with node count")
        total_entries = sum(entry_counts)
        if len(entry_items) != total_entries:
            raise ValueError("flattened entry items disagree with counts")
        if len(entry_bounds) != total_entries * width:
            raise ValueError("flattened entry bounds disagree with counts")
        if num_nodes == 0:
            if size != 0:
                raise ValueError("empty flattened tree declares a size")
            return tree
        if size != total_entries:
            raise ValueError(
                f"flattened tree declares {size} items but carries "
                f"{total_entries}"
            )
        # Pre-zip the flat float columns into per-node/per-entry tuples
        # (C-speed); the pre-order walk below only slices lists.
        bounds_it = iter(node_bounds)
        per_node_bounds = list(zip(*([bounds_it] * width)))
        entries_it = iter(entry_bounds)
        per_entry_bounds = list(zip(*([entries_it] * width)))
        entries = list(zip(per_entry_bounds, entry_items))

        # Iterative pre-order reconstruction.  ``stack`` holds the inner
        # nodes still owed children; nodes were flattened parent-first, so
        # each new node attaches to the deepest unsatisfied parent.  The
        # nodes come from checksummed snapshot payloads, so construction
        # bypasses ``_Node.__init__`` and assigns the slots directly.
        new = _Node.__new__
        entry_cursor = 0
        root = None
        stack: list[tuple[_Node, int]] = []  # (inner node, children owed)
        for i in range(num_nodes):
            if root is not None and not stack:
                raise ValueError(
                    f"{num_nodes - i} flattened nodes unreachable from the "
                    "root"
                )
            node = new(_Node)
            if node_kinds[i]:
                node.is_leaf = True
                node.children = None
                e = entry_cursor
                entry_cursor = e + entry_counts[i]
                node.entries = entries[e:entry_cursor]
                node.bounds = per_node_bounds[i] if node.entries else None
            else:
                count = child_counts[i]
                if count < 1:
                    raise ValueError("flattened inner node has no children")
                node.is_leaf = False
                node.entries = None
                node.children = []
                node.bounds = per_node_bounds[i]
            if root is None:
                root = node
            else:
                parent, owed = stack[-1]
                parent.children.append(node)
                if owed == 1:
                    stack.pop()
                else:
                    stack[-1] = (parent, owed - 1)
            if not node.is_leaf:
                stack.append((node, child_counts[i]))
        if stack:
            raise ValueError("flattened node cursor ran past the end")
        tree._root = root
        tree._size = size
        return tree

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def dims(self) -> int:
        return self._dims

    @property
    def capacity(self) -> int:
        return self._capacity

    def stats(self) -> RTreeStats:
        """Return structural statistics (height, node counts)."""
        if self._root is None:
            return RTreeStats(self._dims, 0, 0, 0, 0)
        height = 0
        leaves = 0
        inner = 0
        stack = [(self._root, 1)]
        while stack:
            node, depth = stack.pop()
            height = max(height, depth)
            if node.is_leaf:
                leaves += 1
            else:
                inner += 1
                stack.extend((c, depth + 1) for c in node.children)
        return RTreeStats(self._dims, height, self._size, leaves, inner)

    def items(self) -> Iterator[tuple[Bounds, Any]]:
        """Iterate over all stored ``(bounds, item)`` entries."""
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.children)

    def check_invariants(self) -> None:
        """Validate structural invariants; raises AssertionError on failure.

        Used by the property-based tests after random insert workloads.
        """
        if self._root is None:
            assert self._size == 0
            return
        dims = self._dims
        count = 0
        stack: list[tuple[_Node, int]] = [(self._root, 0)]
        leaf_depths: set[int] = set()
        while stack:
            node, depth = stack.pop()
            if node.is_leaf:
                leaf_depths.add(depth)
                count += len(node.entries)
                for bounds, _ in node.entries:
                    assert bounds_contain(node.bounds, bounds, dims)
            else:
                assert node.children, "inner node with no children"
                for child in node.children:
                    assert bounds_contain(node.bounds, child.bounds, dims)
                    stack.append((child, depth + 1))
        assert count == self._size, f"item count {count} != size {self._size}"
        assert len(leaf_depths) == 1, f"leaves at multiple depths: {leaf_depths}"


def _collect_entries(node: _Node) -> list[tuple[Bounds, Any]]:
    """Gather every leaf entry under a node (for reinsertion)."""
    out: list[tuple[Bounds, Any]] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            out.extend(current.entries)
        else:
            stack.extend(current.children)
    return out


# ----------------------------------------------------------------------
# Packing / splitting helpers
# ----------------------------------------------------------------------
def _str_partition(
    entries: list[tuple[Bounds, Any]],
    capacity: int,
    dims: int,
    key_offset: int,
) -> list[list[tuple[Bounds, Any]]]:
    """Partition entries into groups of <= capacity via sort-tile-recursive."""

    def center(bounds: Bounds, axis: int) -> float:
        return (bounds[axis] + bounds[dims + axis]) / 2.0

    def tile(block: list[tuple[Bounds, Any]], axis: int) -> list[list[tuple[Bounds, Any]]]:
        if len(block) <= capacity:
            return [block]
        block.sort(key=lambda e: center(e[0], axis))
        if axis == dims - 1:
            return [
                block[i : i + capacity] for i in range(0, len(block), capacity)
            ]
        # Number of slabs along this axis so the remaining axes tile evenly.
        num_leaves = math.ceil(len(block) / capacity)
        slabs = math.ceil(num_leaves ** (1.0 / (dims - axis)))
        slab_size = math.ceil(len(block) / slabs)
        groups: list[list[tuple[Bounds, Any]]] = []
        for i in range(0, len(block), slab_size):
            groups.extend(tile(block[i : i + slab_size], axis + 1))
        return groups

    return tile(list(entries), key_offset)


def _overlap_volume(a: Bounds, b: Bounds, dims: int) -> float:
    """Volume of the intersection of two boxes (0 when disjoint)."""
    volume = 1.0
    for i in range(dims):
        lo = max(a[i], b[i])
        hi = min(a[dims + i], b[dims + i])
        if hi <= lo:
            return 0.0
        volume *= hi - lo
    return volume


def _rstar_split(items: list, get_bounds, dims: int, min_fill: int):
    """R*-tree split: choose the axis with minimal margin sum, then the
    distribution along it with minimal overlap (ties: minimal volume)."""
    assert len(items) >= 2
    min_fill = max(1, min_fill)
    best_axis = 0
    best_margin = math.inf
    for axis in range(dims):
        margin_sum = 0.0
        ordered = sorted(items, key=lambda it: (
            get_bounds(it)[axis], get_bounds(it)[dims + axis]
        ))
        for k in range(min_fill, len(ordered) - min_fill + 1):
            left = _union_many([get_bounds(it) for it in ordered[:k]], dims)
            right = _union_many([get_bounds(it) for it in ordered[k:]], dims)
            margin_sum += bounds_margin(left, dims) + bounds_margin(right, dims)
        if margin_sum < best_margin:
            best_margin = margin_sum
            best_axis = axis
    ordered = sorted(items, key=lambda it: (
        get_bounds(it)[best_axis], get_bounds(it)[dims + best_axis]
    ))
    best_k = min_fill
    best_score = (math.inf, math.inf)
    for k in range(min_fill, len(ordered) - min_fill + 1):
        left = _union_many([get_bounds(it) for it in ordered[:k]], dims)
        right = _union_many([get_bounds(it) for it in ordered[k:]], dims)
        score = (
            _overlap_volume(left, right, dims),
            bounds_volume(left, dims) + bounds_volume(right, dims),
        )
        if score < best_score:
            best_score = score
            best_k = k
    return ordered[:best_k], ordered[best_k:]


def _quadratic_split(items: list, get_bounds, dims: int, min_fill: int):
    """Guttman's quadratic split: returns the two groups.

    Waste and growth compare ``(volume, margin)`` lexicographically: on
    point datasets with shared coordinates (collinear venues, grid-aligned
    check-ins) every volume is 0 and a volume-only comparison degenerates
    to "always pick the first pair", so margin breaks those ties.
    """
    assert len(items) >= 2
    # Pick the pair of seeds wasting the most (volume, margin) if grouped.
    worst = (-math.inf, -math.inf)
    seed_a = seed_b = 0
    for i in range(len(items)):
        bi = get_bounds(items[i])
        for j in range(i + 1, len(items)):
            bj = get_bounds(items[j])
            union = bounds_union(bi, bj, dims)
            waste = (
                bounds_volume(union, dims)
                - bounds_volume(bi, dims)
                - bounds_volume(bj, dims),
                bounds_margin(union, dims)
                - bounds_margin(bi, dims)
                - bounds_margin(bj, dims),
            )
            if waste > worst:
                worst = waste
                seed_a, seed_b = i, j
    group_a = [items[seed_a]]
    group_b = [items[seed_b]]
    bounds_a = get_bounds(items[seed_a])
    bounds_b = get_bounds(items[seed_b])
    rest = [it for k, it in enumerate(items) if k not in (seed_a, seed_b)]
    for idx, item in enumerate(rest):
        remaining = len(rest) - idx
        # Force assignment when a group must absorb all leftovers to
        # reach the minimum fill.
        if len(group_a) + remaining <= min_fill:
            group_a.append(item)
            bounds_a = bounds_union(bounds_a, get_bounds(item), dims)
            continue
        if len(group_b) + remaining <= min_fill:
            group_b.append(item)
            bounds_b = bounds_union(bounds_b, get_bounds(item), dims)
            continue
        b = get_bounds(item)
        union_a = bounds_union(bounds_a, b, dims)
        union_b = bounds_union(bounds_b, b, dims)
        grow_a = (
            bounds_volume(union_a, dims) - bounds_volume(bounds_a, dims),
            bounds_margin(union_a, dims) - bounds_margin(bounds_a, dims),
        )
        grow_b = (
            bounds_volume(union_b, dims) - bounds_volume(bounds_b, dims),
            bounds_margin(union_b, dims) - bounds_margin(bounds_b, dims),
        )
        if grow_a < grow_b or (grow_a == grow_b and len(group_a) <= len(group_b)):
            group_a.append(item)
            bounds_a = union_a
        else:
            group_b.append(item)
            bounds_b = union_b
    return group_a, group_b

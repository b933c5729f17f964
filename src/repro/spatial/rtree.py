"""A generic k-dimensional, bulk-loaded R-tree.

Bounds are flat tuples ``(lo_0, ..., lo_{d-1}, hi_0, ..., hi_{d-1})``;
points are stored as degenerate boxes.  The tree is static, like the
paper's offline index construction:

* sort-tile-recursive (STR) bulk loading is the only way to build one —
  writes ride the database's delta overlay and a rebuild re-bulk-loads;
* full range enumeration plus an early-terminating *exists* search, which
  is what RangeReach actually needs ("is there at least one result?");
* a flat preorder form (:meth:`RTree.flatten` / :meth:`RTree.from_flat`)
  for the snapshot store.

Dimensions 2 and 3 are exercised by the library (SpaReach and 3DReach),
but the implementation is dimension-generic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

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


def _union_many(items: Sequence[Bounds], dims: int) -> Bounds:
    lows = [min(b[i] for b in items) for i in range(dims)]
    highs = [max(b[dims + i] for b in items) for i in range(dims)]
    return tuple(lows + highs)


class _Node:
    """An R-tree node; leaves hold ``(bounds, item)``, inner nodes hold children."""

    __slots__ = ("is_leaf", "bounds", "entries", "children")


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
    """A static k-dimensional R-tree over ``(bounds, item)`` entries.

    Build one with :meth:`bulk_load` (or :meth:`from_flat` from a
    snapshot); ``RTree(dims, capacity)`` alone is the empty tree.  Every
    node is non-empty, so every node has bounds.
    """

    def __init__(self, dims: int = 2, capacity: int = 16) -> None:
        if dims < 1:
            raise ValueError("dims must be positive")
        if capacity < 2:
            raise ValueError("node capacity must be at least 2")
        self._dims = dims
        self._capacity = capacity
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
        level = [
            _make_node(group, dims, is_leaf=True)
            for group in _str_partition(items, capacity, dims)
        ]
        while len(level) > 1:
            pseudo = [(node.bounds, node) for node in level]
            level = [
                _make_node(group, dims, is_leaf=False)
                for group in _str_partition(pseudo, capacity, dims)
            ]
        tree._root = level[0]
        return tree

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
                if not bounds_intersect(node.bounds, query, dims):
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

        def visit(node: _Node) -> None:
            node_kinds.append(1 if node.is_leaf else 0)
            node_bounds.extend(node.bounds)
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
        inconsistent (wrong lengths, dangling cursors, bad counts, an
        empty node).
        """
        tree = cls(dims=dims, capacity=capacity)
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
        # each new node attaches to the deepest unsatisfied parent.
        entry_cursor = 0
        root = None
        stack: list[tuple[_Node, int]] = []  # (inner node, children owed)
        for i in range(num_nodes):
            if root is not None and not stack:
                raise ValueError(
                    f"{num_nodes - i} flattened nodes unreachable from the "
                    "root"
                )
            node = _Node()
            if node_kinds[i]:
                if entry_counts[i] < 1:
                    raise ValueError("flattened leaf has no entries")
                node.is_leaf = True
                node.children = None
                e = entry_cursor
                entry_cursor = e + entry_counts[i]
                node.entries = entries[e:entry_cursor]
                node.bounds = per_node_bounds[i]
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

        Used by the property-based tests after ``bulk_load`` and after a
        ``flatten`` / ``from_flat`` round trip.
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


# ----------------------------------------------------------------------
# Packing helpers
# ----------------------------------------------------------------------
def _make_node(group: list[tuple[Bounds, Any]], dims: int, is_leaf: bool) -> _Node:
    """Pack one STR group of ``(bounds, entry-or-child)`` pairs into a node."""
    node = _Node()
    node.is_leaf = is_leaf
    node.bounds = _union_many([b for b, _ in group], dims)
    if is_leaf:
        node.entries = group
        node.children = None
    else:
        node.entries = None
        node.children = [child for _, child in group]
    return node


def _str_partition(
    entries: list[tuple[Bounds, Any]],
    capacity: int,
    dims: int,
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

    return tile(list(entries), 0)

"""Linear-scan spatial index.

The correctness reference for the R-tree in tests, and the "no index"
baseline for the indexing-ablation benchmark: a flat list of entries that
answers every query by a full scan.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.spatial.rtree import Bounds, bounds_intersect


class LinearScanIndex:
    """A flat ``(bounds, item)`` store answering queries by full scan."""

    def __init__(self, dims: int = 2) -> None:
        if dims < 1:
            raise ValueError("dims must be positive")
        self._dims = dims
        self._entries: list[tuple[Bounds, Any]] = []

    @classmethod
    def bulk_load(
        cls, entries: Iterable[tuple[Bounds, Any]], dims: int = 2
    ) -> "LinearScanIndex":
        index = cls(dims=dims)
        index._entries = list(entries)
        return index

    def search(self, query: Bounds) -> Iterator[Any]:
        """Yield every item whose bounds intersect ``query``."""
        dims = self._dims
        for bounds, item in self._entries:
            if bounds_intersect(bounds, query, dims):
                yield item

    def search_all(self, query: Bounds) -> list[Any]:
        return list(self.search(query))

    def any_intersecting(self, query: Bounds) -> Any | None:
        for item in self.search(query):
            return item
        return None

    def count_intersecting(self, query: Bounds) -> int:
        return sum(1 for _ in self.search(query))

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def dims(self) -> int:
        return self._dims

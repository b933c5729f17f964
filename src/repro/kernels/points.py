"""Point-probe kernels over :class:`~repro.geosocial.columnar.SpatialColumns`.

These batch the ``Rect.any_contained`` / ``Rect.first_contained`` scans
that back SpaReach-MBR / 3DReach-MBR candidate verification
(``component_hits_region``) and GeoReach's member-point checks.  The
MBR short-circuits stay scalar (they are O(1)); only the coordinate
scan itself is dispatched to the backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.geometry import Rect
from repro.geosocial.columnar import SpatialColumns
from repro.kernels.backend import KernelBase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.geosocial.scc_handling import CondensedNetwork


class _PointKernelBase(KernelBase):
    __slots__ = ("_columns",)

    def __init__(self, backend: str, columns: SpatialColumns) -> None:
        super().__init__("points", backend)
        self._columns = columns

    @property
    def columns(self) -> SpatialColumns:
        return self._columns

    def component_hits_region(
        self, network: "CondensedNetwork", component: int, region: Rect
    ) -> bool:
        """Backend-routed twin of ``CondensedNetwork.component_hits_region``."""
        mbr = network.mbr_of(component)
        if mbr is None or not region.intersects(mbr):
            return False
        if region.contains_rect(mbr):
            return True
        lo, hi = self._columns.slice_of(component)
        return self.any_contained(region, lo, hi)

    def any_contained(self, region: Rect, lo: int, hi: int) -> bool:
        raise NotImplementedError

    def first_contained(self, region: Rect, lo: int, hi: int) -> int:
        raise NotImplementedError


class PythonPointKernel(_PointKernelBase):
    """Oracle twin: the pure-python ``Rect`` scans, unchanged."""

    __slots__ = ()

    def __init__(self, columns: SpatialColumns) -> None:
        super().__init__("python", columns)

    def any_contained(self, region: Rect, lo: int, hi: int) -> bool:
        self._count()
        return region.any_contained(self._columns.xs, self._columns.ys, lo, hi)

    def first_contained(self, region: Rect, lo: int, hi: int) -> int:
        self._count()
        return region.first_contained(self._columns.xs, self._columns.ys, lo, hi)


class NumpyPointKernel(_PointKernelBase):
    __slots__ = ("_np", "_xs", "_ys")

    def __init__(self, columns: SpatialColumns) -> None:
        super().__init__("numpy", columns)
        import numpy as np

        self._np = np
        self._xs = np.frombuffer(columns.xs, dtype=np.float64)
        self._ys = np.frombuffer(columns.ys, dtype=np.float64)

    def _mask(self, region: Rect, lo: int, hi: int):
        xs = self._xs[lo:hi]
        ys = self._ys[lo:hi]
        return (
            (xs >= region.xlo)
            & (xs <= region.xhi)
            & (ys >= region.ylo)
            & (ys <= region.yhi)
        )

    def any_contained(self, region: Rect, lo: int, hi: int) -> bool:
        self._count()
        if hi <= lo:
            return False
        return bool(self._mask(region, lo, hi).any())

    def first_contained(self, region: Rect, lo: int, hi: int) -> int:
        self._count()
        if hi <= lo:
            return -1
        # argmax of a bool mask stops at the first True (0 if none).
        mask = self._mask(region, lo, hi)
        first = int(mask.argmax())
        return first + lo if mask[first] else -1


def make_point_kernel(backend: str, columns: SpatialColumns) -> _PointKernelBase:
    if backend == "numpy":
        return NumpyPointKernel(columns)
    return PythonPointKernel(columns)

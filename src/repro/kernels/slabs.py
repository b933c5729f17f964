"""Slab-scan kernels over :class:`~repro.geosocial.columnar.PostOrderSlabs`.

The slab kernel answers the question every interval-labeled method
reduces to: *does some member point inside a contiguous post-order slot
range fall in the query rectangle?*  It serves

* SocReach's descendant scans (``any_in_flat`` / ``first_in_flat`` over
  the flat range a label covers), and
* the 3DReach / engine cuboid sweep (``any_in_zrange``): a cuboid
  ``(region.xlo, region.ylo, lo, region.xhi, region.yhi, hi)`` contains
  a point iff the point lies in ``region`` and its slot falls in the
  slot range of ``[lo, hi]`` — the same slot arithmetic SocReach uses.
"""

from __future__ import annotations

from repro.geometry import Rect
from repro.geosocial.columnar import PostOrderSlabs
from repro.kernels.backend import KernelBase


class _SlabKernelBase(KernelBase):
    """Slot/flat-range arithmetic shared by both backends."""

    __slots__ = ("_slabs", "_stride", "num_slots")

    def __init__(self, backend: str, slabs: PostOrderSlabs, stride: int) -> None:
        super().__init__("slab", backend)
        self._slabs = slabs
        self._stride = int(stride)
        self.num_slots = slabs.num_slots

    @property
    def slabs(self) -> PostOrderSlabs:
        return self._slabs

    @property
    def stride(self) -> int:
        return self._stride

    def slot_range(self, lo: int, hi: int) -> tuple[int, int]:
        """1-based inclusive slot range fully covered by post range [lo, hi].

        ``end < start`` means the range covers no whole slot.
        """
        stride = self._stride
        start = (lo + stride - 1) // stride
        end = min(hi // stride, self.num_slots)
        return max(start, 1), end

    def flat_range(self, start: int, end: int) -> tuple[int, int]:
        """Flat coordinate range owned by inclusive 1-based slots [start, end]."""
        offsets = self._slabs.offsets
        return offsets[start - 1], offsets[end]

    def any_in_zrange(self, region: Rect, lo: int, hi: int) -> bool:
        """True iff the cuboid (region x [lo, hi]) contains a member point."""
        start, end = self.slot_range(lo, hi)
        if end < start:
            return False
        a, b = self.flat_range(start, end)
        return self.any_in_flat(region, a, b)

    def any_in_flat(self, region: Rect, lo: int, hi: int) -> bool:
        raise NotImplementedError

    def first_in_flat(self, region: Rect, lo: int, hi: int) -> int:
        raise NotImplementedError


class PythonSlabKernel(_SlabKernelBase):
    """Oracle twin: delegates to the pure-python ``Rect`` scans."""

    __slots__ = ()

    def __init__(self, slabs: PostOrderSlabs, stride: int) -> None:
        super().__init__("python", slabs, stride)

    def any_in_flat(self, region: Rect, lo: int, hi: int) -> bool:
        self._count()
        return region.any_contained(self._slabs.xs, self._slabs.ys, lo, hi)

    def first_in_flat(self, region: Rect, lo: int, hi: int) -> int:
        self._count()
        return region.first_contained(self._slabs.xs, self._slabs.ys, lo, hi)


class NumpySlabKernel(_SlabKernelBase):
    """Vectorized scans over zero-copy views of the slab columns."""

    __slots__ = ("_np", "_xs", "_ys")

    def __init__(self, slabs: PostOrderSlabs, stride: int) -> None:
        super().__init__("numpy", slabs, stride)
        import numpy as np

        self._np = np
        self._xs = np.frombuffer(slabs.xs, dtype=np.float64)
        self._ys = np.frombuffer(slabs.ys, dtype=np.float64)

    def _mask(self, region: Rect, lo: int, hi: int):
        xs = self._xs[lo:hi]
        ys = self._ys[lo:hi]
        return (
            (xs >= region.xlo)
            & (xs <= region.xhi)
            & (ys >= region.ylo)
            & (ys <= region.yhi)
        )

    def any_in_flat(self, region: Rect, lo: int, hi: int) -> bool:
        self._count()
        if hi <= lo:
            return False
        return bool(self._mask(region, lo, hi).any())

    def first_in_flat(self, region: Rect, lo: int, hi: int) -> int:
        self._count()
        if hi <= lo:
            return -1
        # argmax of a bool mask stops at the first True (0 if none).
        mask = self._mask(region, lo, hi)
        first = int(mask.argmax())
        return first + lo if mask[first] else -1


def make_slab_kernel(
    backend: str, slabs: PostOrderSlabs, stride: int
) -> _SlabKernelBase:
    if backend == "numpy":
        return NumpySlabKernel(slabs, stride)
    return PythonSlabKernel(slabs, stride)

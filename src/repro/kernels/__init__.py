"""Vectorized twins of the hot pure-python inner loops.

The columnar core (CSR columns, post-order slabs, flattened label
arrays) is exactly the shape that vectorizes.  This package provides
two interchangeable implementations of each scan:

* ``python`` — thin wrappers over the existing pure-python scans.
  This is the behavioral oracle: it delegates to the exact same code
  (``Rect.any_contained``, ``BflReach.reaches``,
  ``intervals_cover``, ...) the methods ran before the kernel layer
  existed.
* ``numpy`` — batched array kernels over zero-copy views of the same
  columnar buffers.  Answers are bit-identical to the python twins.

**One routing rule.**  A method goes through this package only where
the kernel *is* the method's scan: the slab kernel behind SocReach,
3DReach and the query engine's boolean query, and the label kernel
behind ``reaches_many`` — under whichever backend the
``kernels="numpy"|"python"`` knob (or ``REPRO_KERNELS``, or the numpy
default) selects.  3DReach-Rev, SpaReach and GeoReach always evaluate
on the paper's structures, where the measured numpy routing lost
(docs/API.md has the numbers); the point, BFL and segment kernels stay
as tested building blocks with no method behind them.
See :mod:`repro.kernels.backend`.
"""

from repro.kernels.backend import (
    BACKENDS,
    default_backend,
    numpy_available,
    resolve_backend,
)
from repro.kernels.bfl import make_bfl_kernel
from repro.kernels.labels import make_label_kernel
from repro.kernels.points import make_point_kernel
from repro.kernels.segments import make_segment_kernel
from repro.kernels.slabs import make_slab_kernel

__all__ = [
    "BACKENDS",
    "default_backend",
    "numpy_available",
    "resolve_backend",
    "make_bfl_kernel",
    "make_label_kernel",
    "make_point_kernel",
    "make_segment_kernel",
    "make_slab_kernel",
]

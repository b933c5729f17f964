"""SocReach: the paper's social-first method (Section 4.1).

Use the interval labeling to enumerate the descendants ``D(v)`` of the
query vertex, and spatially verify each against the query region.  No
spatial index is involved — the descendant set is produced on the fly, so
(as the paper notes) spatial indexing cannot accelerate the containment
tests; the method's cost tracks ``|D(v)|``.

The descendant scan runs over :class:`~repro.geosocial.PostOrderSlabs`:
each label ``[l, h]`` covers a contiguous run of post-order slots, so its
descendant scan is one flat-column slice instead of a per-slot walk over
``Point`` lists.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from repro.core.base import RangeReachBase, register_method
from repro.geometry import Rect
from repro.geosocial.scc_handling import CondensedNetwork
from repro.labeling import IntervalLabeling
from repro.obs import instruments as _inst
from repro.obs.metrics import enabled as _obs_enabled
from repro.obs.trace import span as _span
from repro.pipeline import BuildContext


class SocReach(RangeReachBase):
    """Social-first RangeReach evaluation over the interval labeling.

    The post-order range queries of Section 4.1 are evaluated the first
    way the paper names — "simple for loops on the array storing the
    network vertices in main memory" — here backed by post-order-aligned
    coordinate slabs, so each label scans one contiguous flat range
    through the slab kernel of the ``kernels=`` backend.
    """

    name = "socreach"

    def __init__(
        self,
        network: CondensedNetwork,
        labeling: IntervalLabeling | None = None,
        mode: str = "subtree",
        stride: int = 1,
        context: BuildContext | None = None,
        kernels: str | None = None,
    ) -> None:
        self._network = network
        context, stride = self._build_forward(
            network, labeling, mode, stride, context, kernels
        )
        self._slabs = context.post_slabs(mode=mode, stride=stride)
        self._skernel = context.slab_kernel(
            mode=mode, stride=stride, backend=self.kernels
        )
        self._bind_counters()
        self._m_scanned = _inst.SOCREACH_DESCENDANTS.labels(method=self.name)

    # ------------------------------------------------------------------
    def query(self, v: int, region: Rect) -> bool:
        with _span(f"{self.name}.query"):
            return self._scan(self._network.super_of(v), region)

    def _scan(self, source: int, region: Rect) -> bool:
        """Scan ``D(source)`` label by label until a witness appears.

        Every label ``[l, h]`` is a range query over post-order numbers
        (the D(v) equation in Section 4.1): scan the range and test each
        spatial descendant's points.
        """
        scanned = 0
        labels_probed = 0
        containment_tests = 0
        answer = False
        offsets = self._slabs.offsets
        stride = self._labeling.stride
        first_in_flat = self._skernel.first_in_flat
        for lo, hi in self._labeling.labels_of(source):
            labels_probed += 1
            # The whole slots the label covers (1-based, inclusive);
            # with a gapped numbering (stride > 1) it may cover none,
            # and still counts as probed.
            start, end = (lo + stride - 1) // stride, hi // stride
            if end < start:
                continue
            a, b = offsets[start - 1], offsets[end]
            # Non-spatial descendants own zero-width slabs: a label
            # covering only those misses without a kernel call.
            idx = first_in_flat(region, a, b) if b > a else -1
            if idx < 0:
                # A miss visits every slot of the label and tests
                # every point in its flat range.
                scanned += end - start + 1
                containment_tests += b - a
            else:
                # Recover the slot owning the hit point so the tallies
                # match a per-slot scan: slots up to and including the
                # hit slot, points up to and including the hit.
                scanned += bisect_right(offsets, idx) - start + 1
                containment_tests += idx - a + 1
                answer = True
                break
        if _obs_enabled():
            self._m_queries.inc()
            if answer:
                self._m_positives.inc()
            self._m_probes.inc(labels_probed)
            self._m_verified.inc(containment_tests)
            self._m_scanned.inc(scanned)
        return answer

    # ------------------------------------------------------------------
    def query_batch(self, pairs: Sequence[tuple[int, Rect]]) -> list[bool]:
        """Answer many queries, scanning each distinct pair once.

        Duplicated ``(source, region)`` queries in the batch reuse the
        memoized answer; vertices with no labels answer FALSE without
        touching the slabs at all.
        """
        if not pairs:
            return []
        with _span(f"{self.name}.query_batch"):
            return self._batch_distinct(pairs, self._scan)

    def count_descendants(self, v: int) -> int:
        """Return ``|D(v)|`` for the query vertex (diagnostics/benchmarks)."""
        return self._labeling.num_descendants(self._network.super_of(v))

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Labels only; no spatial index (Table 4)."""
        return self._labeling.size_bytes()

    @property
    def labeling(self) -> IntervalLabeling:
        return self._labeling


@register_method("socreach")
def _build_socreach(network: CondensedNetwork, **options) -> SocReach:
    return SocReach(network, **options)

"""Deadline-checked query batches, served on the calling thread.

A RangeReach answer is one index probe of a few microseconds, so a batch
runs on the request thread: under CPython's GIL a thread pool over that
probe only adds hand-off cost.  :func:`run_batch` is the one batch path
with a deadline: it splits the batch into chunks, checks the deadline
between them, and raises :class:`BatchTimeoutError` carrying the
answered prefix.  :func:`run_flattened` does the same for a batch the
databases rewrote into sub-queries, mapping the sub-answers back to the
caller's queries.

:class:`ParallelExecutor` is not part of the serving stack; it stays
only as the subject the benchmark ladder times against ``query_batch``.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from math import ceil
from typing import Sequence

from repro.geometry import Rect
from repro.obs import instruments as _inst
from repro.obs.metrics import enabled as _obs_enabled
from repro.obs.trace import span as _span

#: Chunks a deadline-checked batch is split into: the deadline is
#: checked between chunks, and fewer chunks keep more of each
#: ``query_batch`` call's cross-query sharing.
_DEADLINE_CHUNKS = 4

#: Chunks per worker for :class:`ParallelExecutor`.
_CHUNKS_PER_WORKER = 4


class BatchTimeoutError(TimeoutError):
    """A query batch exceeded its deadline.

    Attributes:
        completed: chunks that had finished when the deadline expired.
        total: chunks the batch was split into.
        answers: the answers of the caller's leading queries that were
            fully answered, in input order (a prefix of the full batch's
            answer list).
    """

    def __init__(
        self,
        message: str,
        completed: int = 0,
        total: int = 0,
        answers: list[bool] | None = None,
    ):
        super().__init__(message)
        self.completed = completed
        self.total = total
        self.answers = [] if answers is None else answers


def _chunks(pairs: list, count: int) -> list[list]:
    size = max(1, ceil(len(pairs) / count))
    return [pairs[i:i + size] for i in range(0, len(pairs), size)]


def run_batch(batch, pairs: Sequence, timeout: float | None) -> list[bool]:
    """Answer ``pairs`` through ``batch`` (a ``query_batch``), in order.

    Without a deadline (``timeout=None``) this is one ``batch(pairs)``
    call.  With one, the batch runs as chunks under ``exec.chunk[i]``
    spans; the deadline is checked before each chunk (a running chunk is
    never interrupted) and, once expired, :class:`BatchTimeoutError`
    carries the answers of the completed chunks.
    """
    if timeout is None:
        return batch(pairs)
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    chunks = _chunks(list(pairs), _DEADLINE_CHUNKS)
    started = time.perf_counter()
    deadline = time.monotonic() + timeout
    answers: list[bool] = []
    try:
        with _span("exec.batch"):
            for i, chunk in enumerate(chunks):
                if time.monotonic() > deadline:
                    if _obs_enabled():
                        _inst.EXEC_TIMEOUTS.inc()
                    raise BatchTimeoutError(
                        f"batch deadline of {timeout:g}s exceeded after "
                        f"{i}/{len(chunks)} chunks",
                        completed=i,
                        total=len(chunks),
                        answers=answers,
                    )
                with _span(f"exec.chunk[{i}]"):
                    answers.extend(batch(chunk))
                if _obs_enabled():
                    _inst.EXEC_CHUNKS.inc()
    finally:
        # A timed-out batch still reconciles: it is counted, with the
        # queries actually answered before the deadline.
        if _obs_enabled():
            _inst.EXEC_BATCHES.inc()
            _inst.EXEC_BATCH_QUERIES.inc(len(answers))
            _inst.EXEC_BATCH_SECONDS.observe(time.perf_counter() - started)
    return answers


def _gather(
    plans: Sequence[tuple[int, int, bool]], sub_answers: list[bool]
) -> list[bool]:
    out: list[bool] = []
    for start, end, hit in plans:
        if end > len(sub_answers):
            break
        out.append(hit or any(sub_answers[start:end]))
    return out


def run_flattened(
    batch,
    sub_pairs: Sequence,
    plans: Sequence[tuple[int, int, bool]],
    timeout: float | None,
) -> list[bool]:
    """:func:`run_batch` over sub-queries, answered per caller query.

    Caller query ``i`` has plan ``(start, end, hit)``: it is True when
    ``hit`` is, or any answer of ``sub_pairs[start:end]``.  On a timeout
    the error's ``answers`` are the caller's leading queries whose
    sub-queries all finished, never raw sub-query answers.
    """
    try:
        sub_answers = run_batch(batch, sub_pairs, timeout) if sub_pairs else []
    except BatchTimeoutError as exc:
        exc.answers = _gather(plans, exc.answers)
        raise
    return _gather(plans, sub_answers)


class ParallelExecutor:
    """Chunk a batch across a pool of ``workers`` threads.

    Nothing in ``repro`` uses it: a batch is served on the request
    thread (see :func:`run_batch`).  It is kept only as the subject of
    the benchmark ladder's ``exec.run_w{1,2}_us`` cells, which time it
    against a plain ``query_batch``.  ``workers=1`` is one
    ``query_batch`` call; more workers split the batch into
    ``workers * 4`` chunks.  Use it as a context manager, or call
    :meth:`close` to release the pool.
    """

    def __init__(self, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers = workers
        self._pool: ThreadPoolExecutor | None = None

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def run(self, target, pairs: Sequence[tuple[int, Rect]]) -> list[bool]:
        """Answer ``pairs`` through ``target.query_batch``, in order."""
        pairs = list(pairs)
        if self._workers == 1 or len(pairs) <= 1:
            return target.query_batch(pairs)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-exec"
            )
        chunks = _chunks(pairs, self._workers * _CHUNKS_PER_WORKER)
        answers: list[bool] = []
        for part in self._pool.map(target.query_batch, chunks):
            answers.extend(part)
        return answers

"""Deadline-checked query batches on the request thread.

:func:`run_batch` answers a batch through a ``query_batch`` callable,
checking an optional deadline between chunks; an expired deadline raises
:class:`BatchTimeoutError` with the answered prefix.
:meth:`repro.system.GeosocialDatabase.range_reach_many`,
:meth:`repro.shard.ShardedDatabase.range_reach_many`,
:class:`repro.serve.QueryService` and ``repro query --batch FILE
--timeout S`` all take the deadline as a plain ``timeout=`` and go
through it.
"""

from repro.exec.executor import (
    BatchTimeoutError,
    ParallelExecutor,
    run_batch,
    run_flattened,
)

__all__ = ["BatchTimeoutError", "ParallelExecutor", "run_batch", "run_flattened"]

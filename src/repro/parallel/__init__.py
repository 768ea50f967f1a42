"""Multi-core task execution (paper §5's one-slot-per-core model).

HeteroDoop's TaskTrackers run one map task per CPU core concurrently
(plus the reserved GPU slot); this package gives the functional runner
the same property with one task executor (:mod:`repro.parallel.maptask`
for map tasks, :mod:`repro.parallel.reducetask` for reduce tasks).
Every phase takes the same spec → task → envelope path: at one worker
the task functions run in-process on the parent's live runner, and above
one worker the persistent daemon pool (:mod:`repro.parallel.daemon`)
fans them across worker processes forked once per process lifetime, in
batched envelopes, with each phase's input published through a
write-once arena (:mod:`repro.parallel.arena`) instead of per-task
pickles. Envelopes come back in task order and the driver folds them
with one loop per phase, so every worker count is **byte-identical** —
same output, same counters, same simulated seconds.
:mod:`repro.parallel.pool` resolves worker counts.
"""

from .daemon import (
    DaemonPool,
    PoolStatus,
    WorkerCrashError,
    get_pool,
    pool_metrics,
    resolve_batch_size,
    shutdown_pool,
)
from .pool import (
    in_worker,
    list_schedule_makespan,
    resolve_workers,
)

__all__ = [
    "DaemonPool",
    "PoolStatus",
    "WorkerCrashError",
    "get_pool",
    "in_worker",
    "list_schedule_makespan",
    "pool_metrics",
    "resolve_batch_size",
    "resolve_workers",
    "shutdown_pool",
]

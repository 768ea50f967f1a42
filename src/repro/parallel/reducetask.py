"""Reduce tasks on the task executor (:mod:`repro.parallel.maptask`).

One reduce task per partition: the k-way merge of the partition's
map-sorted runs, then the reduce program
(:meth:`~repro.hadoop.local.LocalJobRunner.reduce_partition`, which is
pure with respect to the job). At one worker the parent calls it
directly on its own shuffle. Above one worker each partition's runs are
pickled once into a contiguous blob published through the arena, so
workers unpickle exactly the objects the driver held (decorated triples
with their map-side renderings) — no value crosses the boundary through
a lossy re-parse. Only a pooled reduce phase records ``reduce-task``
spans; a one-worker trace is the serial trace, byte for byte.

The parent folds the reduced pairs into the output dict itself, in
partition order, so output insertion order, the duplicate-key check,
the counters and every simulated float match at every worker count.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING

from ..obs import trace as obs
from .maptask import TaskEnvelope, _captured, _state, fan_out

if TYPE_CHECKING:  # runtime import would be circular (local.py uses us)
    from ..hadoop.local import LocalJobRunner
    from ..hadoop.shuffle import ReduceTaskTiming

__all__ = ["run_reduce_tasks"]


def _reduce_task(runner: "LocalJobRunner", partition: int,
                 runs: list[list]) -> "tuple[list, ReduceTaskTiming]":
    """A pooled reduce task: the reduce, then a span tiled by its
    phases, mirroring the map side's task spans."""
    reduced, timing = runner.reduce_partition(partition, runs)
    rec = obs.active()
    if rec.enabled:
        rec.record_task(
            f"reduce-task#{partition} {runner.app.name}", "reduce-task",
            "reduce",
            args={
                "merge_runs": timing.merge_runs,
                "input_pairs": timing.input_pairs,
                "output_pairs": timing.output_pairs,
                "output_bytes": timing.output_bytes,
            },
            phases={
                "merge": timing.merge,
                "reduce": timing.reduce,
                "output_write": timing.output_write,
            },
            counters={
                "reduce.tasks": 1,
                "reduce.merge_runs": timing.merge_runs,
                "reduce.pairs": timing.input_pairs,
            },
        )
    return reduced, timing


def _run_reduce_task(payload: tuple[int, int, int]) -> TaskEnvelope:
    partition, start, stop = payload
    runs = pickle.loads(bytes(_state["view"][start:stop]))
    return _captured(_reduce_task, _state["runner"], partition, runs)


def run_reduce_tasks(runner: "LocalJobRunner", parts: list[int],
                     shuffle: dict[int, list[list]],
                     workers: int) -> list[TaskEnvelope]:
    """Run a job's reduce tasks, one per partition in ``parts``;
    envelopes in partition order."""
    if workers <= 1:
        return [TaskEnvelope(runner.reduce_partition(part, shuffle[part]))
                for part in parts]
    blob = bytearray()
    payloads: list[tuple[int, int, int]] = []
    for part in parts:
        data = pickle.dumps(shuffle[part], protocol=pickle.HIGHEST_PROTOCOL)
        payloads.append((part, len(blob), len(blob) + len(data)))
        blob += data
    # Reduce tasks run on CPUs (paper §3.1): the worker setup skips
    # every GPU-side cache.
    return fan_out(runner, False, _run_reduce_task, payloads, bytes(blob),
                   workers)

"""The task executor: map and reduce tasks at every worker count.

A job phase is a list of independent tasks, and both phases take the
same path — spec → task → envelope — through :func:`run_map_tasks`
here and :func:`~repro.parallel.reducetask.run_reduce_tasks`:

* **One worker** runs in-process: the task function is called directly
  with the parent's live runner and active trace recorder. No arena, no
  pickling, no pool.
* **Above one worker** the tasks fan out over the daemon pool. A worker
  cannot be handed a live :class:`~repro.hadoop.local.LocalJobRunner`
  (compiled mini-C closures and kernel bodies do not pickle), so what
  crosses the process boundary instead is:

  - down, once per job: a frozen :class:`JobSpec` carrying only sources
    and plain configuration, plus the token of a
    :class:`~repro.parallel.arena.SplitArena` holding the phase's input.
    :func:`_init_worker` rebuilds the runner from the spec and warms the
    program/translation/kernel caches — a string of cache hits in a warm
    daemon worker;
  - down, per batch: ``(index, start, stop)`` triples naming each task's
    slice of the arena;
  - up, per batch: :class:`TaskEnvelope` results — the task function's
    return value plus, when the parent traces, the events and metrics
    of the task's own recorder (:func:`_captured`).

Either way the envelopes come back in task order and
:meth:`LocalJobRunner.run <repro.hadoop.local.LocalJobRunner.run>`
folds them with one loop per phase, which is what makes every worker
count byte-identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

from ..apps.base import Application
from ..config import ClusterConfig, OptimizationFlags
from ..errors import ReproError
from ..obs import trace as obs
from .arena import SplitArena, attach_view
from .daemon import get_pool

if TYPE_CHECKING:  # runtime import would be circular (local.py uses us)
    from ..hadoop.local import LocalJobRunner
    from ..runtime.gpu_task import GpuTaskRunner

__all__ = [
    "JobSpec",
    "TaskEnvelope",
    "fan_out",
    "run_map_tasks",
    "warm_worker_caches",
]


@dataclass(frozen=True)
class JobSpec:
    """Everything a worker needs to rebuild one job's runner."""

    app: Application
    cluster: ClusterConfig
    use_gpu: bool
    opt: OptimizationFlags
    num_reducers: int
    split_bytes: int
    gpu_engine: str          # resolved name — ambient defaults don't ship
    minic_backend: str
    trace: bool


@dataclass
class TaskEnvelope:
    """One task's result: the task function's return value, plus — from
    a traced pool worker — its recorder's events and metrics."""

    value: Any
    events: list | None = None
    metrics: Any | None = None
    worker_pid: int = 0

    def splice(self, rec: obs.NullRecorder | obs.TraceRecorder) -> None:
        """Graft a pooled task's events onto the parent's trace, on
        ``<track>@w<pid>`` tracks."""
        if self.events is not None:
            rec.splice(self.events, pid_suffix=f"@w{self.worker_pid}")
            rec.metrics.merge(self.metrics)


# Worker-global job state, rebuilt by the job setup once per worker per
# job. Module-level (not closure-captured) because pool task functions
# must be importable top-level callables.
_state: dict[str, Any] = {}


def _warm_app(app: Application, opt: OptimizationFlags,
              use_gpu: bool) -> None:
    """Populate this process's mini-C caches for one application."""
    from ..minic.cache import warm_program

    for program in (app.map_program(), app.combine_program(),
                    app.reduce_program()):
        if program is not None:
            warm_program(program)
    if use_gpu:
        app.translate_map(opt)
        app.translate_combine(opt)


def warm_worker_caches(tags: tuple[str, ...]) -> None:
    """``repro pool warm``'s broadcast target: prime the mini-C and
    translation caches for the named apps in this worker."""
    from ..apps import get_app

    opt = OptimizationFlags.all_on()
    for tag in tags:
        _warm_app(get_app(tag), opt, use_gpu=True)


def _init_worker(spec: JobSpec, arena_token: tuple) -> None:
    """The per-worker job setup shared by both phases."""
    from ..hadoop.local import LocalJobRunner
    from ..minic.interpreter import set_default_backend

    set_default_backend(spec.minic_backend)
    _warm_app(spec.app, spec.opt, spec.use_gpu)
    runner = LocalJobRunner(
        spec.app,
        cluster=spec.cluster,
        use_gpu=spec.use_gpu,
        opt=spec.opt,
        num_reducers=spec.num_reducers,
        split_bytes=spec.split_bytes,
        gpu_engine=spec.gpu_engine,
        workers=1,
    )
    gpu_runner = None
    if spec.use_gpu:
        gpu_runner = runner._make_gpu_runner()
        gpu_runner.map_snapshot()
        if gpu_runner.combine_tr is not None:
            gpu_runner.combine_snapshot()
    _state["runner"] = runner
    _state["gpu_runner"] = gpu_runner
    _state["trace"] = spec.trace
    _state["view"] = attach_view(arena_token)


def _captured(fn: Callable[..., Any], *args: Any) -> TaskEnvelope:
    """Run one task in a pool worker. When the parent traces, the task
    records into a fresh recorder whose events and metrics ride home in
    the envelope (a forked worker must not write to the parent's)."""
    if not _state["trace"]:
        return TaskEnvelope(fn(*args))
    rec = obs.TraceRecorder()
    with obs.use_recorder(rec):
        value = fn(*args)
    if rec.open_spans():
        raise ReproError("task left spans open in worker recorder")
    return TaskEnvelope(value, rec.events, rec.metrics, os.getpid())


def fan_out(runner: "LocalJobRunner", use_gpu: bool,
            task_fn: Callable[[Any], TaskEnvelope], payloads: list,
            blob: bytes, workers: int) -> list[TaskEnvelope]:
    """Run ``payloads`` through ``task_fn`` on the daemon pool, with
    ``blob`` published once through a :class:`SplitArena`; envelopes
    come back in payload order."""
    from ..gpu.engine import default_gpu_engine
    from ..minic.interpreter import default_backend

    spec = JobSpec(
        app=runner.app,
        cluster=runner.cluster,
        use_gpu=use_gpu,
        opt=runner.opt,
        num_reducers=runner.num_reducers,
        split_bytes=runner.split_bytes,
        gpu_engine=runner.gpu_engine or default_gpu_engine(),
        minic_backend=default_backend(),
        trace=bool(obs.active().enabled),
    )
    with SplitArena(blob) as arena:
        return get_pool().run_job(
            workers, task_fn, payloads,
            init_fn=_init_worker, init_args=(spec, arena.token),
        )


def _map_task(runner: "LocalJobRunner", gpu_runner: "GpuTaskRunner | None",
              index: int, split: bytes) -> tuple[dict[int, list], Any, int]:
    """One map task: its partition → decorated-run mapping, its timing
    (the :class:`GpuTaskResult` on the GPU path, the
    :class:`CpuTaskTiming` on the CPU path) and its map output pairs."""
    if gpu_runner is None:
        return runner._run_cpu_map_task(split, index)
    task = gpu_runner.run(split, task_index=index)
    return task.rendered_runs(), task, task.emitted_pairs


def _run_map_task(payload: tuple[int, int, int]) -> TaskEnvelope:
    index, start, stop = payload
    split = bytes(_state["view"][start:stop])
    return _captured(_map_task, _state["runner"], _state["gpu_runner"],
                     index, split)


def run_map_tasks(runner: "LocalJobRunner", data: bytes,
                  ranges: list[tuple[int, int]],
                  workers: int) -> list[TaskEnvelope]:
    """Run a job's map tasks, one per split range; envelopes in
    task-index order."""
    if workers <= 1:
        gpu_runner = runner._make_gpu_runner() if runner.use_gpu else None
        return [TaskEnvelope(_map_task(runner, gpu_runner, i, data[a:b]))
                for i, (a, b) in enumerate(ranges)]
    payloads = [(i, start, stop) for i, (start, stop) in enumerate(ranges)]
    return fan_out(runner, runner.use_gpu, _run_map_task, payloads, data,
                   workers)

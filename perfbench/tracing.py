"""Host-clock spans for the benchmark's traced run, recorded from outside
the program.

The traced run rebinds the public entry points of each layer (the
:data:`TARGETS` table) to wrappers that record a span per call; nothing
under ``src/`` changes. Spans carry name, start, end, parent span and
job id, stay in memory, and are written out when the run ends.

Calls that happen hundreds of thousands of times per job (heartbeats,
policy grants, KV-line parses, cache lookups) are *tallied* instead:
count and seconds per name, no span each, so the traced run stays close
to the untraced one.

Pool workers get the same wrappers through ``DaemonPool.broadcast``
(:func:`install_worker`), keep their own spans, and write them to a file
when :func:`flush_worker` is broadcast at the end of the traced loop.
The clock is ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which
all processes share, so a worker span is placed in the parent's pool
phase that contains it in time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import statistics
import sys
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

clock = time.perf_counter

#: Names of the spans that make a job; every other span is attributed
#: to the job open when it starts.
JOB_SPANS = ("hadoop.job", "hadoop.sim_job")

#: Parent-process spans that fan out to pool workers.
PHASE_SPANS = ("parallel.map_phase", "parallel.reduce_phase")


@dataclass(slots=True)
class Span:
    id: str
    name: str
    start: float
    end: float = 0.0
    parent: str | None = None
    job: int | None = None
    phase: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass(slots=True)
class Tally:
    """Count and seconds of one hot call; nested calls of the same
    tally (a method calling its super) count once."""

    calls: int = 0
    seconds: float = 0.0
    misses: int = 0
    depth: int = 0


class Tracer:
    """One process's spans and tallies."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        #: phase → tally name → Tally
        self.tallies: dict[str, dict[str, Tally]] = {}
        self.phase = ""
        self.job: int | None = None
        self._stack: list[Span] = []
        self._n = 0
        self._jobs = 0
        #: Work that must run after the current job span closes, so its
        #: cost lands outside job wall time.
        self.after_job: list[Callable[[], None]] = []
        self._seen: dict[int, Any] = {}
        #: Annotations that failed (see :func:`_wrap`).
        self.annotate_errors: set[str] = set()
        self.set_phase("setup")

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self.now = self.tallies.setdefault(phase, {})

    def tally(self, name: str) -> Tally:
        tally = self.now.get(name)
        if tally is None:
            tally = self.now[name] = Tally()
        return tally

    def open(self, name: str) -> Span:
        self._n += 1
        span = Span(f"{self.pid}.{self._n}", name, clock(),
                    parent=self._stack[-1].id if self._stack else None,
                    job=self.job, phase=self.phase)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self.spans.append(span)

    def open_job(self, name: str) -> Span:
        self._jobs += 1
        self.job = self._jobs
        return self.open(name)

    def close_job(self, span: Span) -> None:
        self.close(span)
        self.job = None
        if self.after_job:
            accounting = self.open("bench.accounting")
            for fn in self.after_job:
                fn()
            self.after_job.clear()
            self.close(accounting)

    def dump(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "spans": [asdict(s) for s in self.spans],
            "tallies": {phase: {n: [t.calls, t.seconds, t.misses]
                                for n, t in tallies.items()}
                        for phase, tallies in self.tallies.items()},
        }


# -- what gets wrapped --------------------------------------------------------

SPAN, JOB, TALLY, CACHE, COUNT = "span", "job", "tally", "cache", "count"


def _exec_work(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    span.attrs["work"] = result[1].total_work


def _launch_work(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    span.attrs["work"] = result.counters.total_work
    span.attrs["warps"] = result.cost.warps


def _job_counts(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    span.attrs["map_pairs"] = result.map_output_pairs
    span.attrs["shuffle_bytes"] = result.shuffle_bytes


def _phase_counts(tracer: Tracer, span: Span, args: tuple,
                  result: Any) -> None:
    # run_map_tasks(runner, data, ranges, workers) and
    # run_reduce_tasks(runner, parts, shuffle, workers)
    span.attrs["workers"] = args[3]
    span.attrs["tasks"] = len(result)

    def envelope_bytes() -> None:
        span.attrs["envelope_bytes"] = sum(
            len(pickle.dumps(e, protocol=pickle.HIGHEST_PROTOCOL))
            for e in result)

    tracer.after_job.append(envelope_bytes)


@dataclass(frozen=True)
class Target:
    """One entry point: ``attr`` is ``func`` or ``Class.method`` in
    ``module``. A module function is rebound in every loaded ``repro``
    module that imported it by name, unless ``bound_in`` narrows that."""

    name: str
    module: str
    attr: str
    kind: str = SPAN
    annotate: Callable[[Tracer, Span, tuple, Any], None] | None = None
    bound_in: tuple[str, ...] | None = None
    #: Pool task functions: wrapped only inside workers, because the
    #: parent pickles them by name and must send the original.
    worker_only: bool = False


_GPU_TASK = ("repro.runtime.gpu_task",)

TARGETS: tuple[Target, ...] = (
    Target("minic.map", "repro.apps.base", "Application.cpu_map",
           annotate=_exec_work),
    Target("minic.combine", "repro.apps.base", "Application.cpu_combine",
           annotate=_exec_work),
    Target("minic.reduce", "repro.apps.base", "Application.cpu_reduce",
           annotate=_exec_work),
    Target("minic.compile", "repro.minic.cache", "compiled_program", CACHE),
    Target("minic.compile", "repro.minic.cache", "compiled_kernel_body",
           CACHE),
    Target("compiler.translate", "repro.apps.base",
           "Application.translate_map"),
    Target("compiler.translate", "repro.apps.base",
           "Application.translate_combine"),
    Target("runtime.gpu_task", "repro.runtime.gpu_task", "GpuTaskRunner.run"),
    Target("gpu.map_kernel", "repro.gpu.executor", "run_map_kernel",
           annotate=_launch_work, bound_in=_GPU_TASK),
    Target("gpu.combine_kernel", "repro.gpu.executor", "run_combine_kernel",
           annotate=_launch_work, bound_in=_GPU_TASK),
    Target("gpu.sort", "repro.gpu.sort", "sort_partition", bound_in=_GPU_TASK),
    Target("hadoop.job", "repro.hadoop.local", "LocalJobRunner.run", JOB,
           annotate=_job_counts),
    Target("hadoop.reduce_task", "repro.hadoop.local",
           "LocalJobRunner.reduce_partition"),
    Target("hadoop.decorate", "repro.hadoop.shuffle", "decorate_kv_run"),
    Target("hadoop.merge", "repro.hadoop.shuffle", "merge_sorted_runs"),
    Target("kvstore.parse", "repro.kvstore.coerce", "parse_kv_line", COUNT),
    Target("parallel.map_phase", "repro.parallel.maptask", "run_map_tasks",
           annotate=_phase_counts),
    Target("parallel.reduce_phase", "repro.parallel.reducetask",
           "run_reduce_tasks", annotate=_phase_counts),
    Target("parallel.arena", "repro.parallel.arena", "SplitArena.__init__"),
    Target("parallel.arena", "repro.parallel.arena", "SplitArena.close"),
    Target("parallel.task", "repro.parallel.maptask", "_run_map_task",
           worker_only=True),
    Target("parallel.task", "repro.parallel.reducetask", "_run_reduce_task",
           worker_only=True),
    Target("hadoop.sim_build", "repro.hadoop.simulate",
           "ClusterSimulator.__init__"),
    Target("hadoop.sim_run", "repro.hadoop.simulate", "ClusterSimulator.run"),
    Target("hdfs.placement", "repro.hdfs.filesystem", "Hdfs.put_virtual"),
    Target("hadoop.heartbeat", "repro.hadoop.jobtracker",
           "JobTracker.handle_heartbeat", TALLY),
)

#: Scheduling-policy methods, tallied on every registered policy class
#: that defines them.
POLICY_METHODS = ("tasks_to_grant", "place")


def _policy_targets() -> list[Target]:
    from repro.scheduling import POLICIES

    targets = []
    for cls in POLICIES.values():
        for method in POLICY_METHODS:
            if method in vars(cls):
                targets.append(Target(
                    "scheduling.grant", cls.__module__,
                    f"{cls.__name__}.{method}", TALLY))
    return targets


# -- wrappers -----------------------------------------------------------------

_ORIGINAL = "_perfbench_original"


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    name, annotate = target.name, target.annotate

    if target.kind in (SPAN, JOB):
        is_job = target.kind == JOB

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open_job(name) if is_job else tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_job:
                    tracer.close_job(span)
                else:
                    tracer.close(span)
            if annotate is not None:
                try:
                    annotate(tracer, span, args, result)
                except (AttributeError, IndexError, TypeError) as exc:
                    # The program changed a return type: lose the count,
                    # not the job.
                    tracer.annotate_errors.add(f"{name}: {exc!r}")
            return result
    elif target.kind == COUNT:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.tally(name).calls += 1
            return fn(*args, **kwargs)
    else:
        seen = tracer._seen
        is_cache = target.kind == CACHE

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tally = tracer.tally(name)
            if tally.depth:
                return fn(*args, **kwargs)
            tally.depth = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tally.seconds += clock() - start
                tally.calls += 1
                tally.depth = 0
            if is_cache and id(result) not in seen:
                # A cache returns the same object on a hit; a new object
                # is a miss. Holding it keeps its id from being reused.
                seen[id(result)] = result
                tally.misses += 1
            return result

    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, _ORIGINAL, fn)
    return wrapper


class Installation:
    """The rebindings one :func:`install` made, undone by
    :meth:`uninstall`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []
        #: Targets whose entry point does not exist in this program.
        self.missing: list[str] = []

    def rebind(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer, worker: bool = False) -> Installation:
    """Wrap every target (``worker`` adds the pool task functions)."""
    inst = Installation()
    for target in TARGETS + tuple(_policy_targets()):
        if target.worker_only and not worker:
            continue
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            inst.missing.append(f"{target.module}.{target.attr}")
            continue
        owner_name, _, attr = target.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        current = vars(owner).get(attr) if owner is not None else None
        if current is None:
            inst.missing.append(f"{target.module}.{target.attr}")
            continue
        original = getattr(current, _ORIGINAL, current)
        wrapper = _wrap(tracer, target, original)
        if owner_name:
            inst.rebind(owner, attr, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            if target.bound_in is not None \
                    and mod_name not in target.bound_in:
                continue
            for key, value in list(vars(mod).items()):
                if value is current or value is original:
                    inst.rebind(mod, key, wrapper)
    return inst


# -- pool workers -------------------------------------------------------------

#: This worker process's tracer and installation. Broadcast targets can
#: only reach per-process state, so it lives here rather than on an
#: object the parent holds.
_worker: dict[str, Any] = {}


def install_worker() -> None:
    """Broadcast target: start tracing in this pool worker."""
    if "install" in _worker:
        _worker["install"].uninstall()
    tracer = Tracer()
    _worker["tracer"] = tracer
    _worker["install"] = install(tracer, worker=True)


def set_worker_phase(phase: str) -> None:
    """Broadcast target: label this worker's later tallies."""
    if "tracer" in _worker:
        _worker["tracer"].set_phase(phase)


def flush_worker(out_dir: str) -> None:
    """Broadcast target: write this worker's spans and stop tracing."""
    tracer = _worker.pop("tracer", None)
    inst = _worker.pop("install", None)
    if inst is not None:
        inst.uninstall()
    if tracer is not None:
        path = os.path.join(out_dir, f"worker-{tracer.pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


def collect_workers(out_dir: str) -> list[dict[str, Any]]:
    """Read and remove the files :func:`flush_worker` wrote."""
    dumps = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            path = os.path.join(out_dir, name)
            with open(path, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
            os.remove(path)
    return dumps


# -- per-layer metrics --------------------------------------------------------

#: Every per-layer metric the traced run reports: name → unit. Seconds
#: and counts are per timed job unless the README says otherwise.
PER_LAYER: dict[str, str] = {
    "minic.map_s": "s",
    "minic.combine_s": "s",
    "minic.reduce_s": "s",
    "minic.filter_calls": "count",
    "minic.work": "count",
    "minic.ns_per_work": "ns",
    "minic.compile_s": "s",
    "minic.cache_hit_ratio": "ratio",
    "compiler.translate_s": "s",
    "compiler.translate_calls": "count",
    "runtime.gpu_task_s": "s",
    "runtime.gpu_tasks": "count",
    "runtime.host_s": "s",
    "gpu.map_kernel_s": "s",
    "gpu.combine_kernel_s": "s",
    "gpu.sort_s": "s",
    "gpu.warps": "count",
    "gpu.work": "count",
    "gpu.ns_per_work": "ns",
    "hadoop.job_self_s": "s",
    "hadoop.reduce_task_s": "s",
    "hadoop.merge_s": "s",
    "hadoop.decorate_s": "s",
    "hadoop.map_pairs": "count",
    "hadoop.shuffle_bytes": "bytes",
    "kvstore.pairs_parsed": "count",
    "parallel.map_phase_s": "s",
    "parallel.reduce_phase_s": "s",
    "parallel.arena_s": "s",
    "parallel.idle_share": "fraction",
    "parallel.tasks": "count",
    "parallel.batches": "count",
    "parallel.spawned": "count",
    "parallel.respawned": "count",
    "parallel.reaped": "count",
    "parallel.envelope_bytes": "bytes",
    "hadoop.sim_build_s": "s",
    "hdfs.placement_s": "s",
    "hadoop.sim_run_s": "s",
    "hadoop.heartbeats": "count",
    "hadoop.heartbeat_s": "s",
    "scheduling.grant_calls": "count",
    "scheduling.grant_s": "s",
    "obs.trace_on_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
    "tiling.unattributed_share": "fraction",
}


@dataclass
class TraceReport:
    """The traced run's spans from every process, joined."""

    spans: list[Span]
    #: tally name → [calls, seconds, misses], summed over processes,
    #: split into the timed loop and everything (set-up included).
    loop_tallies: dict[str, list[float]]
    all_tallies: dict[str, list[float]]
    tiling_errors: list[str]


def join(parent: Tracer, workers: list[dict[str, Any]]) -> TraceReport:
    """Merge worker dumps into the parent's spans: each top-level worker
    span becomes a child of the pool phase whose interval holds it."""
    spans = list(parent.spans)
    loop_tallies: dict[str, list[float]] = {}
    all_tallies: dict[str, list[float]] = {}

    def add(into: dict[str, list[float]], name: str, row: list[float]) -> None:
        acc = into.setdefault(name, [0, 0.0, 0])
        for i, value in enumerate(row):
            acc[i] += value

    for phase, tallies in parent.tallies.items():
        for name, t in tallies.items():
            row = [t.calls, t.seconds, t.misses]
            add(all_tallies, name, row)
            if phase == "loop":
                add(loop_tallies, name, row)

    phases = sorted((s for s in spans if s.name in PHASE_SPANS),
                    key=lambda s: s.start)
    starts = [p.start for p in phases]
    for dump in workers:
        for phase, tallies in dump["tallies"].items():
            for name, row in tallies.items():
                add(all_tallies, name, row)
                if phase == "loop":
                    add(loop_tallies, name, row)
        for raw in dump["spans"]:
            span = Span(**raw)
            i = bisect_right(starts, span.start) - 1
            home = phases[i] if i >= 0 and span.start <= phases[i].end \
                else None
            if home is not None:
                span.job, span.phase = home.job, home.phase
                if span.parent is None:
                    span.parent = home.id
            spans.append(span)
    return TraceReport(spans, loop_tallies, all_tallies, check_tiling(spans))


def check_tiling(spans: list[Span], eps: float = 1e-6) -> list[str]:
    """Children of every parent-process span must lie inside it and not overlap
    each other, so child time plus self time is the span's wall time.
    Worker children of a pool phase run side by side and are exempt."""
    by_parent: dict[str, list[Span]] = {}
    for s in spans:
        if s.parent is not None and s.parent.split(".")[0] \
                == s.id.split(".")[0]:
            by_parent.setdefault(s.parent, []).append(s)
    errors = []
    for s in spans:
        prev_end = s.start
        for child in sorted(by_parent.get(s.id, ()), key=lambda c: c.start):
            if child.start < prev_end - eps or child.end > s.end + eps:
                errors.append(f"{child.name} does not tile inside {s.name}")
                break
            prev_end = child.end
    return errors


def _child_time(by_parent: dict[str, list[Span]], span: Span) -> float:
    return sum(c.dur for c in by_parent.get(span.id, ()))


def layer_metrics(report: TraceReport, traced_walls: list[float],
                  untraced_walls: list[float], trace_on_ratio: float,
                  pool_counts: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from the joined spans."""
    loop = [s for s in report.spans if s.phase == "loop"]
    jobs = [s for s in loop if s.name in JOB_SPANS]
    njobs = max(len(jobs), 1)
    by_parent: dict[str, list[Span]] = {}
    for s in report.spans:
        if s.parent is not None:
            by_parent.setdefault(s.parent, []).append(s)

    def total(name: str) -> float:
        return sum(s.dur for s in loop if s.name == name)

    def count(name: str) -> int:
        return sum(1 for s in loop if s.name == name)

    def attr(names: tuple[str, ...], key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in loop if s.name in names)

    def tally(name: str, table: dict[str, list[float]] | None = None,
              field_: int = 0) -> float:
        return (table or report.loop_tallies).get(name, [0, 0.0, 0])[field_]

    def ns_per(seconds: float, work: float) -> float:
        return seconds * 1e9 / work if work else 0.0

    filters = ("minic.map", "minic.combine", "minic.reduce")
    kernels = ("gpu.map_kernel", "gpu.combine_kernel")
    minic_s = sum(total(n) for n in filters)
    minic_work = attr(filters, "work")
    kernel_s = sum(total(n) for n in kernels)
    gpu_work = attr(kernels, "work")
    gpu_tasks = [s for s in loop if s.name == "runtime.gpu_task"]
    gpu_children = ("gpu.map_kernel", "gpu.combine_kernel", "gpu.sort")
    host_s = sum(s.dur - sum(c.dur for c in by_parent.get(s.id, ())
                             if c.name in gpu_children)
                 for s in gpu_tasks)
    compile_calls = tally("minic.compile", report.all_tallies)
    compile_misses = tally("minic.compile", report.all_tallies, 2)
    translate = [s for s in report.spans if s.name == "compiler.translate"]

    phases = [s for s in loop if s.name in PHASE_SPANS]
    capacity = sum(p.dur * p.attrs.get("workers", 1) for p in phases)
    busy = sum(c.dur for p in phases for c in by_parent.get(p.id, ())
               if c.name == "parallel.task")

    loops = [s for s in loop if s.name == "bench.loop"]
    loop_wall = sum(s.dur for s in loops)
    unattributed = sum(s.dur - _child_time(by_parent, s) for s in loops)

    values = {
        "minic.map_s": total("minic.map") / njobs,
        "minic.combine_s": total("minic.combine") / njobs,
        "minic.reduce_s": total("minic.reduce") / njobs,
        "minic.filter_calls": sum(count(n) for n in filters) / njobs,
        "minic.work": minic_work / njobs,
        "minic.ns_per_work": ns_per(minic_s, minic_work),
        # Set-up costs: totals over the traced process, whose first job
        # is the cold warm-up.
        "minic.compile_s": tally("minic.compile", report.all_tallies, 1),
        "minic.cache_hit_ratio": (1 - compile_misses / compile_calls
                                  if compile_calls else 0.0),
        "compiler.translate_s": sum(s.dur for s in translate),
        "compiler.translate_calls": len(translate),
        "runtime.gpu_task_s": sum(s.dur for s in gpu_tasks) / njobs,
        "runtime.gpu_tasks": len(gpu_tasks) / njobs,
        "runtime.host_s": host_s / njobs,
        "gpu.map_kernel_s": total("gpu.map_kernel") / njobs,
        "gpu.combine_kernel_s": total("gpu.combine_kernel") / njobs,
        "gpu.sort_s": total("gpu.sort") / njobs,
        "gpu.warps": attr(kernels, "warps") / njobs,
        "gpu.work": gpu_work / njobs,
        "gpu.ns_per_work": ns_per(kernel_s, gpu_work),
        "hadoop.job_self_s": sum(j.dur - _child_time(by_parent, j)
                                 for j in jobs) / njobs,
        "hadoop.reduce_task_s": total("hadoop.reduce_task") / njobs,
        "hadoop.merge_s": total("hadoop.merge") / njobs,
        "hadoop.decorate_s": total("hadoop.decorate") / njobs,
        "hadoop.map_pairs": attr(JOB_SPANS, "map_pairs") / njobs,
        "hadoop.shuffle_bytes": attr(JOB_SPANS, "shuffle_bytes") / njobs,
        "kvstore.pairs_parsed": tally("kvstore.parse") / njobs,
        "parallel.map_phase_s": total("parallel.map_phase") / njobs,
        "parallel.reduce_phase_s": total("parallel.reduce_phase") / njobs,
        "parallel.arena_s": total("parallel.arena") / njobs,
        "parallel.idle_share": 1 - busy / capacity if capacity else 0.0,
        "parallel.tasks": attr(PHASE_SPANS, "tasks") / njobs,
        "parallel.batches": pool_counts.get("batches", 0) / njobs,
        "parallel.spawned": pool_counts.get("spawned", 0),
        "parallel.respawned": pool_counts.get("respawned", 0),
        "parallel.reaped": pool_counts.get("reaped", 0),
        "parallel.envelope_bytes": attr(PHASE_SPANS, "envelope_bytes")
        / njobs,
        "hadoop.sim_build_s": total("hadoop.sim_build") / njobs,
        "hdfs.placement_s": total("hdfs.placement") / njobs,
        "hadoop.sim_run_s": total("hadoop.sim_run") / njobs,
        "hadoop.heartbeats": tally("hadoop.heartbeat") / njobs,
        "hadoop.heartbeat_s": tally("hadoop.heartbeat", field_=1) / njobs,
        "scheduling.grant_calls": tally("scheduling.grant") / njobs,
        "scheduling.grant_s": tally("scheduling.grant", field_=1) / njobs,
        "obs.trace_on_ratio": trace_on_ratio,
        "trace_overhead_ratio": (statistics.median(traced_walls)
                                 / statistics.median(untraced_walls)),
        "tiling.unattributed_share": (unattributed / loop_wall
                                      if loop_wall else 0.0),
    }
    assert set(values) == set(PER_LAYER)
    return values


def write_trace(path: str, report: TraceReport,
                header: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**header,
                   "spans": [asdict(s) for s in report.spans],
                   "tallies": {"loop": report.loop_tallies,
                               "all": report.all_tallies}}, fh)

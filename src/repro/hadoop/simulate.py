"""Discrete-event cluster simulation of one MapReduce job.

Wires HDFS block placement, the JobTracker, per-node TaskTrackers, the
heartbeat protocol, and a scheduling policy into the event loop, then
runs every map task to completion and adds the reduce-phase estimate.
Task durations come from a :class:`TaskDurationModel` (calibrated from
the single-task functional simulations; see
``repro.experiments.calibrate``) with deterministic per-task jitter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from ..costmodel.io import IoModel
from ..errors import HadoopError
from ..hdfs import Hdfs
from ..obs import trace as obs
from ..scheduling.tail import SchedulingPolicy
from .events import EventLoop
from .job import JobConf, JobResult
from .jobtracker import JobTracker
from .shuffle import estimate_reduce_phase
from .tasks import MapTask, SlotKind, TaskState
from .tasktracker import TaskTracker


@dataclass
class TaskDurationModel:
    """Samples per-task durations with deterministic jitter.

    ``failure_rate`` injects task failures (fault-tolerance tests): a
    failed attempt consumes half its duration, is reported to the
    JobTracker, and is rescheduled (paper §5.1).

    ``node_speed_factors`` models *inter-node* heterogeneity — the
    paper's explicit future work ('We leave handling of extreme
    inter-node heterogeneity to future work', §9): a factor > 1 makes a
    node's CPU tasks proportionally slower (older processors), while its
    GPUs keep their own speed.
    """

    cpu_seconds: float
    gpu_seconds: float
    jitter: float = 0.04
    nonlocal_penalty: float = 2.0
    failure_rate: float = 0.0
    seed: int = 99
    node_speed_factors: dict[int, float] | None = None

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def sample(self, slot: SlotKind, data_local: bool,
               node: int | None = None) -> tuple[float, bool]:
        """(duration, fails) for one attempt."""
        base = self.cpu_seconds if slot is SlotKind.CPU else self.gpu_seconds
        if (slot is SlotKind.CPU and node is not None
                and self.node_speed_factors is not None):
            base *= self.node_speed_factors.get(node, 1.0)
        jit = self._rng.uniform(-self.jitter, self.jitter)
        duration = base * (1.0 + jit)
        if not data_local:
            duration += self.nonlocal_penalty
        fails = self._rng.random() < self.failure_rate
        return duration, fails


@dataclass
class _Attempt:
    """One execution attempt of a map task (speculation can create two)."""

    task: MapTask
    tracker: TaskTracker
    slot: SlotKind
    duration: float
    speculative: bool = False
    #: Open trace span + slot-lane index, set only while tracing.
    span: obs.SpanEvent | None = None
    lane: int | None = None


class ClusterSimulator:
    """Runs one job under one scheduling policy.

    ``speculative`` enables Hadoop's speculative execution (Table 3 rows;
    the paper ran with it Off): once no pending work remains, stragglers
    — running attempts projected to finish well after the completed-task
    mean — get a backup attempt on a free CPU slot; the first finisher
    wins and the loser's result is discarded.
    """

    #: A running task is a straggler once its projected completion exceeds
    #: this multiple of the mean completed-task duration.
    SPECULATION_THRESHOLD = 1.4

    #: The event loop's dispatch log is trimmed once it holds this many
    #: events (24 bytes each); a 1000-node simulation stays below it.
    LOG_TRIM_AT = 1 << 16

    def __init__(self, job: JobConf, policy: SchedulingPolicy,
                 durations: TaskDurationModel | None = None,
                 speculative: bool | None = None):
        self.job = job
        self.policy = policy
        cluster = job.cluster
        self.durations = durations or TaskDurationModel(
            cpu_seconds=job.cpu_task_seconds,
            gpu_seconds=job.gpu_task_seconds,
            jitter=job.duration_jitter,
            nonlocal_penalty=job.nonlocal_read_penalty,
            seed=job.seed,
        )
        self.io = IoModel.for_cluster(cluster)

        # Block placement through the simulated HDFS namenode.
        hdfs = Hdfs(
            num_nodes=cluster.num_slaves,
            block_size=cluster.hdfs_block_size,
            replication=cluster.hdfs_replication,
            seed=job.seed,
        )
        f = hdfs.put_virtual(f"{job.name}.input", job.num_map_tasks)
        self.tasks = [
            MapTask(
                task_id=i,
                split_index=i,
                preferred_nodes=f.blocks[i].replicas,
            )
            for i in range(job.num_map_tasks)
        ]
        self.jobtracker = JobTracker(
            tasks=self.tasks,
            policy=policy,
            num_slaves=cluster.num_slaves,
            gpus_per_node=cluster.gpus_per_node if policy.uses_gpus else 0,
        )
        self.trackers = [
            TaskTracker(
                node=n,
                cpu_slots=cluster.max_map_slots_per_node,
                num_gpus=cluster.gpus_per_node if policy.uses_gpus else 0,
                policy=policy,
            )
            for n in range(cluster.num_slaves)
        ]
        self.loop = EventLoop()
        # One prebound callback per tracker, so a beat allocates no
        # closure. They are bound to ``self``; ``run`` drops them when it
        # returns so a finished simulator is freed by reference counting.
        self._hb_interval = cluster.heartbeat_interval_s
        self._hb_fns = [partial(self._heartbeat, t) for t in self.trackers]
        #: Sleeping trackers: node → (time of its last beat, key its next
        #: beat would have had in the event loop).
        self._asleep: dict[int, tuple[float, float]] = {}
        self._trim_at = self.LOG_TRIM_AT
        self._map_phase_end = 0.0
        self._failures = 0
        self.speculative = (
            speculative if speculative is not None
            else cluster.speculative_execution
        )
        self._running_attempts: dict[int, _Attempt] = {}  # task_id → primary
        self._speculated: set[int] = set()
        self._completed_durations: list[float] = []
        self.wasted_speculation_seconds = 0.0
        self.speculative_attempts = 0
        #: Free slot-lane indices per (node, slot kind), only while tracing.
        self._free_lanes: dict[tuple[int, SlotKind], list[int]] = {}
        self._lane_high: dict[tuple[int, SlotKind], int] = {}

    # -- tracing ----------------------------------------------------------------

    def _trace_attempt_start(self, attempt: _Attempt) -> None:
        """Open the attempt's span on a concrete slot lane of its node.

        Lanes mirror the tracker's slot pool: the lowest free index is
        taken at launch and returned at release, so concurrent attempts
        on one node render side by side (cpu0..cpuN / gpu0..gpuM) and a
        lane never holds two overlapping spans.
        """
        rec = obs.active()
        if not rec.enabled:
            return
        key = (attempt.tracker.node, attempt.slot)
        free = self._free_lanes.setdefault(key, [])
        if free:
            free.sort()
            attempt.lane = free.pop(0)
        else:
            attempt.lane = self._lane_high.get(key, 0)
            self._lane_high[key] = attempt.lane + 1
        task = attempt.task
        attempt.span = rec.begin(
            f"map#{task.task_id}", "attempt",
            f"node{attempt.tracker.node}",
            f"{attempt.slot.value}{attempt.lane}",
            ts=self.loop.now,
            args={
                "task": task.task_id,
                "slot": attempt.slot.value,
                "data_local": task.data_local,
                "speculative": attempt.speculative,
                "forced_gpu": task.forced_gpu,
            },
        )
        rec.inc("sim.attempts")

    def _trace_attempt_end(self, attempt: _Attempt, outcome: str) -> None:
        """Close the attempt's span and return its lane to the pool."""
        rec = obs.active()
        if not rec.enabled or attempt.span is None:
            return
        rec.end(attempt.span, ts=self.loop.now, args={"outcome": outcome})
        attempt.span = None
        if attempt.lane is not None:
            key = (attempt.tracker.node, attempt.slot)
            self._free_lanes.setdefault(key, []).append(attempt.lane)
            attempt.lane = None
        rec.inc(f"sim.attempts.{outcome}")
        if outcome == "completed":
            rec.counter(
                "map-progress", "cluster-sim",
                {"completed": float(len(self._completed_durations))},
                ts=self.loop.now,
            )

    def _trace_job_end(self, rec: obs.TraceRecorder, job_span: obs.SpanEvent,
                       reduce_phase, completed, gpu_tasks: int,
                       local: int) -> None:
        """Reduce-phase spans, end-of-job counters, and the job span close."""
        start = self._map_phase_end
        for name, seconds in (
            ("shuffle", reduce_phase.shuffle_seconds),
            ("merge", reduce_phase.merge_seconds),
            ("reduce", reduce_phase.reduce_seconds),
            ("write", reduce_phase.write_seconds),
        ):
            rec.complete(name, "reduce-phase", "cluster-sim", "reduce",
                         seconds, ts=start)
            start += seconds
        rec.inc("sim.tasks.gpu", gpu_tasks)
        rec.inc("sim.tasks.cpu", len(completed) - gpu_tasks)
        rec.inc("sim.tasks.tail_forced",
                sum(1 for t in completed if t.forced_gpu))
        rec.inc("sim.tasks.data_local", local)
        rec.inc("sim.failures", self._failures)
        rec.gauge("sim.map_phase_seconds", self._map_phase_end)
        rec.gauge("sim.job_seconds", self._map_phase_end + reduce_phase.total)
        rec.end(job_span, ts=self._map_phase_end + reduce_phase.total,
                args={"map_phase_seconds": self._map_phase_end,
                      "reduce_phase_seconds": reduce_phase.total})

    # -- event handlers ---------------------------------------------------------

    def _heartbeat(self, tracker: TaskTracker) -> None:
        jobtracker = self.jobtracker
        if jobtracker.all_maps_done:
            return  # cluster drains; no more heartbeats needed
        response = jobtracker.handle_heartbeat(tracker.make_heartbeat())
        rec = obs.active()
        if rec.enabled:
            rec.inc("sim.heartbeats")
            if response.task_ids:
                rec.inc("sim.grants", len(response.task_ids))
        tracker.maps_remaining_per_node = response.maps_remaining_per_node
        for task_id in response.task_ids:
            task = self.jobtracker.get_task(task_id)
            self._launch(tracker, task)
        pending = jobtracker.pending_maps
        if self.speculative and not response.task_ids and pending == 0:
            self._maybe_speculate(tracker)
        if self.loop.logged > self._trim_at:
            self._trim_log()
        if pending and self.policy.in_job_tail(
                pending, jobtracker.gpus_per_node, jobtracker.max_speedup,
                jobtracker.num_slaves):
            # Every grant call in the job tail is counted, so no beat is
            # idle until the pool empties.
            self._wake_all()
        elif (pending == 0 and not self.speculative) or tracker.full:
            # Nothing the next beats could grant, launch or speculate:
            # sleep until a slot of this node or the pending pool changes.
            self._asleep[tracker.node] = (self.loop.now, self.loop.mark())
            return
        self.loop.schedule(self._hb_interval, self._hb_fns[tracker.node])

    def _next_beat(self, node: int) -> tuple[float, float]:
        """Take ``node`` out of sleep: the time and event-loop key of its
        first beat still to come, exactly as the beats it slept through
        would have rescheduled it. The skipped beats still count in
        ``sim.heartbeats``."""
        last, first_key = self._asleep.pop(node)
        loop, interval = self.loop, self._hb_interval
        prev, when, skipped = last, last + interval, 0
        while when < loop.now:
            prev, when = when, when + interval
            skipped += 1
        key = self._beat_key(last, first_key, skipped, prev)
        if when == loop.now and key < loop.key:
            # A beat at this very instant that came before the event
            # being dispatched: it is past too.
            past = key
            skipped += 1
            key = loop.key_after(when, lambda: past)
            when += interval
        rec = obs.active()
        if rec.enabled and skipped:
            rec.inc("sim.heartbeats", skipped)
        return when, key

    def _beat_key(self, last: float, first_key: float, skipped: int,
                  prev: float) -> float:
        """Event-loop key of a sleeper's beat after ``skipped`` skipped
        beats: the key the last of them, at ``prev``, would have given
        it when it rescheduled."""
        if not skipped:
            return first_key

        def prev_key() -> float:
            # The skipped beat's own key; needed only on a tie at ``prev``.
            before = last
            for _ in range(skipped - 1):
                before += self._hb_interval
            return self._beat_key(last, first_key, skipped - 1, before)

        return self.loop.key_after(prev, prev_key)

    def _trim_log(self) -> None:
        """Keep the dispatch log to what wakes can still ask about: the
        positions after the oldest sleeper's last beat (or after now)."""
        loop = self.loop
        loop.forget_before(min((last for last, _ in self._asleep.values()),
                               default=loop.now))
        self._trim_at = max(self.LOG_TRIM_AT, 2 * loop.logged)

    def _wake(self, node: int) -> None:
        when, key = self._next_beat(node)
        self.loop.schedule_at(when, self._hb_fns[node], key)

    def _wake_all(self) -> None:
        for node in list(self._asleep):
            self._wake(node)

    def _count_slept_beats(self) -> None:
        """With tracing on, count the beats every sleeper skipped before
        the event being dispatched, which ends the run."""
        if obs.active().enabled:
            for node in list(self._asleep):
                self._next_beat(node)

    def _maybe_speculate(self, tracker: TaskTracker) -> None:
        """Launch a backup attempt for the worst straggler on a free CPU
        slot (Hadoop's speculative execution, simplified to projected
        completion vs the completed-task mean)."""
        if not self._completed_durations:
            return
        mean = sum(self._completed_durations) / len(self._completed_durations)
        now = self.loop.now
        worst: _Attempt | None = None
        worst_remaining = 0.0
        for task_id, attempt in self._running_attempts.items():
            if task_id in self._speculated:
                continue
            projected = attempt.task.start_time + attempt.duration
            if projected - attempt.task.start_time \
                    < self.SPECULATION_THRESHOLD * mean:
                continue
            remaining = projected - now
            if remaining > worst_remaining and remaining > mean * 0.5:
                worst, worst_remaining = attempt, remaining
        if worst is None or not tracker.reserve_cpu_slot():
            return
        duration, _fails = self.durations.sample(
            SlotKind.CPU, data_local=False, node=tracker.node
        )
        backup = _Attempt(task=worst.task, tracker=tracker,
                          slot=SlotKind.CPU, duration=duration,
                          speculative=True)
        self._speculated.add(worst.task.task_id)
        self.speculative_attempts += 1
        rec = obs.active()
        if rec.enabled:
            rec.instant(
                "speculate", "scheduling", "cluster-sim", "decisions",
                ts=self.loop.now,
                args={"task": worst.task.task_id, "node": tracker.node,
                      "remaining": worst_remaining},
            )
            rec.inc("sim.speculative_attempts")
        self._trace_attempt_start(backup)
        self.loop.schedule(duration, lambda: self._attempt_done(backup))

    def _launch(self, tracker: TaskTracker, task: MapTask) -> None:
        slot = tracker.place(task)
        if slot is SlotKind.GPU and task in tracker.gpu_queue:
            return  # queued behind a busy device; started on free-up
        self._start(tracker, task)

    def _start(self, tracker: TaskTracker, task: MapTask) -> None:
        task.assign(tracker.node, self.loop.now)
        duration, fails = self.durations.sample(
            task.slot, task.data_local, node=tracker.node
        )
        attempt = _Attempt(task=task, tracker=tracker, slot=task.slot,
                           duration=duration)
        self._running_attempts[task.task_id] = attempt
        self._trace_attempt_start(attempt)
        if fails:
            self.loop.schedule(
                duration * 0.5, lambda: self._fail(attempt, duration * 0.5)
            )
        else:
            self.loop.schedule(duration, lambda: self._attempt_done(attempt))

    def _fail(self, attempt: _Attempt, elapsed: float) -> None:
        task, tracker = attempt.task, attempt.tracker
        if task.state is TaskState.COMPLETED:
            # A speculative backup already finished this task.
            self._release(tracker, attempt.slot, elapsed)
            self._trace_attempt_end(attempt, "wasted")
            self._drain_gpu_queue(tracker)
            return
        task.fail(self.loop.now)
        self._release(tracker, attempt.slot, elapsed)
        tracker.stats.failures += 1
        self._failures += 1
        self._running_attempts.pop(task.task_id, None)
        self._trace_attempt_end(attempt, "failed")
        # The task goes back into the pending pool: every sleeper wakes.
        self._wake_all()
        self.jobtracker.task_failed(task)
        self._drain_gpu_queue(tracker)

    def _attempt_done(self, attempt: _Attempt) -> None:
        task, tracker = attempt.task, attempt.tracker
        self._release(tracker, attempt.slot, attempt.duration)
        if task.state is TaskState.COMPLETED:
            # The other (primary or speculative) attempt already won.
            self.wasted_speculation_seconds += attempt.duration
            self._trace_attempt_end(attempt, "wasted")
            self._drain_gpu_queue(tracker)
            return
        task.complete(self.loop.now)
        if attempt.speculative:
            task.node = tracker.node
            task.slot = attempt.slot
        self._running_attempts.pop(task.task_id, None)
        self._completed_durations.append(attempt.duration)
        self._trace_attempt_end(attempt, "completed")
        self.jobtracker.note_completed(task)
        self._map_phase_end = max(self._map_phase_end, self.loop.now)
        if self.jobtracker.all_maps_done:
            self._count_slept_beats()
        self._drain_gpu_queue(tracker)

    def _release(self, tracker: TaskTracker, slot: SlotKind,
                 seconds: float) -> None:
        """Free a slot; a sleeping tracker wakes, since its next beat may
        now be granted work (and reports its updated aveSpeedup)."""
        tracker.release_slot(slot, seconds)
        if tracker.node in self._asleep:
            self._wake(tracker.node)

    def _drain_gpu_queue(self, tracker: TaskTracker) -> None:
        queued = tracker.queued_gpu_task()
        if queued is not None:
            self._start(tracker, queued)

    # -- run ---------------------------------------------------------------------

    def run(self) -> JobResult:
        rec = obs.active()
        job_span = None
        if rec.enabled:
            job_span = rec.begin(
                f"job {self.job.name}", "job", "cluster-sim", "job",
                ts=0.0,
                args={
                    "cluster": self.job.cluster.name,
                    "policy": self.policy.name,
                    "map_tasks": len(self.tasks),
                    "reduce_tasks": self.job.num_reduce_tasks,
                },
            )

        # Stagger initial heartbeats as real TaskTrackers do.
        interval = self._hb_interval
        num = max(len(self.trackers), 1)
        for i, fn in enumerate(self._hb_fns):
            self.loop.schedule(interval * i / num, fn)
        try:
            self.loop.run()
        except HadoopError:
            self._count_slept_beats()
            raise
        finally:
            self._hb_fns = []

        if not self.jobtracker.all_maps_done:
            raise HadoopError(
                f"simulation drained with {self.jobtracker.remaining_maps} "
                "maps unfinished"
            )

        reduce_phase = estimate_reduce_phase(self.job, self.io)
        completed = [t for t in self.tasks if t.state is TaskState.COMPLETED]
        gpu_tasks = sum(1 for t in completed if t.slot is SlotKind.GPU)
        local = sum(1 for t in completed if t.data_local)
        if rec.enabled and job_span is not None:
            self._trace_job_end(rec, job_span, reduce_phase, completed,
                                gpu_tasks, local)
        return JobResult(
            job_seconds=self._map_phase_end + reduce_phase.total,
            map_phase_seconds=self._map_phase_end,
            reduce_phase_seconds=reduce_phase.total,
            cpu_tasks=len(completed) - gpu_tasks,
            gpu_tasks=gpu_tasks,
            forced_gpu_tasks=sum(1 for t in completed if t.forced_gpu),
            data_local_fraction=local / max(len(completed), 1),
            failures=self._failures,
            max_observed_speedup=self.jobtracker.max_speedup,
            timeline=[
                (t.finish_time, t.node or 0, t.slot.value if t.slot else "?")
                for t in completed
            ],
        )

"""Cluster simulator integration tests (Fig. 4 machinery)."""

import dataclasses
import gc
import time
import weakref

import pytest

from repro.config import CLUSTER1, CLUSTER2
from repro.hadoop import ClusterSimulator, JobConf
from repro.hadoop.shuffle import estimate_reduce_phase
from repro.costmodel.io import IoModel
from repro.errors import HadoopError
from repro.scheduling import CpuOnlyPolicy, GpuFirstPolicy, TailPolicy


def small_job(**kw):
    defaults = dict(
        name="t", num_map_tasks=400, num_reduce_tasks=4, cluster=CLUSTER1,
        cpu_task_seconds=60.0, gpu_task_seconds=10.0,
    )
    defaults.update(kw)
    return JobConf(**defaults)


class TestBasicRuns:
    def test_all_tasks_complete(self):
        result = ClusterSimulator(small_job(), CpuOnlyPolicy()).run()
        assert result.cpu_tasks == 400 and result.gpu_tasks == 0

    def test_gpu_first_uses_gpus(self):
        result = ClusterSimulator(small_job(), GpuFirstPolicy()).run()
        assert result.gpu_tasks > 0
        assert result.cpu_tasks + result.gpu_tasks == 400

    def test_heterogeneous_beats_cpu_only(self):
        job = small_job(num_map_tasks=4000)
        base = ClusterSimulator(job, CpuOnlyPolicy()).run()
        het = ClusterSimulator(job, GpuFirstPolicy()).run()
        assert het.job_seconds < base.job_seconds

    def test_determinism(self):
        job = small_job()
        a = ClusterSimulator(job, GpuFirstPolicy()).run()
        b = ClusterSimulator(job, GpuFirstPolicy()).run()
        assert a.job_seconds == b.job_seconds

    def test_seed_changes_outcome_slightly(self):
        a = ClusterSimulator(small_job(seed=1), CpuOnlyPolicy()).run()
        b = ClusterSimulator(small_job(seed=2), CpuOnlyPolicy()).run()
        assert a.job_seconds != b.job_seconds
        assert abs(a.job_seconds - b.job_seconds) / a.job_seconds < 0.25

    def test_data_locality_mostly_achieved(self):
        result = ClusterSimulator(small_job(num_map_tasks=2000),
                                  CpuOnlyPolicy()).run()
        assert result.data_local_fraction > 0.5

    def test_map_only_job_has_no_reduce_phase(self):
        result = ClusterSimulator(small_job(num_reduce_tasks=0),
                                  CpuOnlyPolicy()).run()
        assert result.reduce_phase_seconds == 0.0

    def test_timeline_covers_all_tasks(self):
        result = ClusterSimulator(small_job(), GpuFirstPolicy()).run()
        assert len(result.timeline) == 400


class TestTailVsGpuFirst:
    def test_tail_wins_at_high_speedup(self):
        # taskTail (1 x 40) exceeds the 20 CPU slots per node: the regime
        # where the final wave matters (BS-like, Fig. 4a).
        job = small_job(num_map_tasks=3600, gpu_task_seconds=1.5)
        gf = ClusterSimulator(job, GpuFirstPolicy()).run()
        tail = ClusterSimulator(job, TailPolicy()).run()
        assert tail.forced_gpu_tasks > 0
        assert tail.job_seconds <= gf.job_seconds * 1.02

    def test_tail_harmless_at_low_speedup(self):
        # LR-on-Cluster1 case: no tail imbalance arises, tail ≈ GPU-first.
        job = small_job(num_map_tasks=2000, gpu_task_seconds=45.0)
        gf = ClusterSimulator(job, GpuFirstPolicy()).run()
        tail = ClusterSimulator(job, TailPolicy()).run()
        assert tail.job_seconds <= gf.job_seconds * 1.05

    def test_multi_gpu_scales(self):
        base = None
        for gpus in (1, 2, 3):
            job = JobConf(name="t", num_map_tasks=3200, num_reduce_tasks=16,
                          cluster=CLUSTER2.with_gpus(gpus),
                          cpu_task_seconds=60.0, gpu_task_seconds=6.0)
            result = ClusterSimulator(job, TailPolicy()).run()
            if base is not None:
                assert result.map_phase_seconds <= base * 1.05
            base = result.map_phase_seconds


class TestHeartbeatSleep:
    def test_cluster_that_cannot_run_a_task_fails_promptly(self):
        # No CPU slot and (cpu-only) no GPU: every tracker is full from
        # its first beat, sleeps, and the loop drains instead of beating
        # until the event budget runs out.
        cluster = dataclasses.replace(CLUSTER1, max_map_slots_per_node=0)
        start = time.perf_counter()
        with pytest.raises(HadoopError,
                           match="drained with 400 maps unfinished"):
            ClusterSimulator(small_job(cluster=cluster), CpuOnlyPolicy()).run()
        assert time.perf_counter() - start < 5.0

    def test_finished_simulator_freed_by_reference_counting(self):
        gc.disable()
        try:
            sim = ClusterSimulator(small_job(), TailPolicy())
            sim.run()
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            gc.enable()


class TestFaultTolerance:
    def test_failed_tasks_rescheduled_and_job_completes(self):
        from repro.hadoop.simulate import TaskDurationModel

        job = small_job(num_map_tasks=300)
        durations = TaskDurationModel(
            cpu_seconds=60.0, gpu_seconds=10.0, failure_rate=0.05, seed=3
        )
        sim = ClusterSimulator(job, GpuFirstPolicy(), durations=durations)
        result = sim.run()
        assert result.failures > 0
        assert result.cpu_tasks + result.gpu_tasks == 300

    def test_failures_lengthen_job(self):
        from repro.hadoop.simulate import TaskDurationModel

        job = small_job(num_map_tasks=1000)
        clean = ClusterSimulator(job, CpuOnlyPolicy()).run()
        flaky = ClusterSimulator(
            job, CpuOnlyPolicy(),
            durations=TaskDurationModel(60.0, 10.0, failure_rate=0.10, seed=3),
        ).run()
        assert flaky.job_seconds > clean.job_seconds


class TestReducePhase:
    def test_scaled_by_output_volume(self):
        io = IoModel.for_cluster(CLUSTER1)
        small = estimate_reduce_phase(small_job(map_output_bytes=1e6), io)
        large = estimate_reduce_phase(small_job(map_output_bytes=1e8), io)
        assert large.total > small.total

    def test_map_only_is_free(self):
        io = IoModel.for_cluster(CLUSTER1)
        assert estimate_reduce_phase(small_job(num_reduce_tasks=0), io).total == 0.0

    def test_reduce_waves(self):
        io = IoModel.for_cluster(CLUSTER1)
        one_wave = estimate_reduce_phase(small_job(num_reduce_tasks=48), io)
        two_waves = estimate_reduce_phase(small_job(num_reduce_tasks=100), io)
        assert two_waves.total > one_wave.total

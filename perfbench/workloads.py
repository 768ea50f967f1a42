"""The benchmark's workloads: seeded inputs, one job, one output check.

A *job* is one ``LocalJobRunner.run`` (job workloads) or one
``ClusterSimulator`` build plus run (``sim-mega1k``). Every workload
generates all of its inputs from the seed before timing starts; the
program only ever sees those generated inputs.

Why each workload exists, and which layers it stresses, is written down
in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import time
from dataclasses import dataclass
from typing import Any

from repro.apps import get_app
from repro.hadoop.local import LocalJobRunner
from repro.scenarios.registry import get_scenario
from repro.scenarios.sweep import DEFAULT_POLICIES, build_simulator

clock = time.perf_counter


@dataclass(frozen=True)
class JobSpec:
    """A workload of whole ``LocalJobRunner`` jobs on one app and path."""

    name: str
    app: str
    use_gpu: bool
    workers: int
    records: int
    #: Record count of the warm-up job that ``setup_s`` times.
    warmup_records: int
    tiny_records: int


@dataclass(frozen=True)
class SimSpec:
    """A workload of cluster simulations over registry scenarios, each
    under its sweep policy slate (the default slate plus its own)."""

    name: str
    scenarios: tuple[str, ...]
    #: Map-pool size as full CPU-slot generations (the registry's
    #: ``waves``); 1.0 is 8000 map tasks on the 1000-node shapes.
    waves: float
    tiny_waves: float


SPECS: dict[str, JobSpec | SimSpec] = {
    s.name: s for s in (
        JobSpec("wc-stream", app="WC", use_gpu=False, workers=1,
                records=6000, warmup_records=200, tiny_records=300),
        JobSpec("km-gpu", app="KM", use_gpu=True, workers=1,
                records=900, warmup_records=60, tiny_records=60),
        JobSpec("ts-pool", app="TS", use_gpu=False, workers=2,
                records=20000, warmup_records=4000, tiny_records=4000),
        SimSpec("sim-mega1k",
                scenarios=("ts-mega1k-tail", "wc-mega1k-fair-share"),
                waves=1.0, tiny_waves=0.02),
    )
}

#: Input variants a job workload cycles through, so consecutive jobs
#: never see the same bytes.
INPUT_VARIANTS = 4


@dataclass
class JobOutcome:
    """What one timed job produced, as the benchmark loop sees it."""

    wall_s: float
    records: int
    map_tasks: int
    error: str | None = None


def compare_outputs(got: dict[Any, Any], want: dict[Any, Any]) -> str | None:
    """None when ``got`` matches the reference, else what differs.

    Floats compare with the tolerance ``scenarios.sweep`` uses for its
    CPU-vs-GPU conformance leg; everything else compares exactly.
    """
    if set(got) != set(want):
        missing = len(set(want) - set(got))
        extra = len(set(got) - set(want))
        return f"key sets differ: {missing} missing, {extra} unexpected"
    for key, value in want.items():
        other = got[key]
        if isinstance(value, float) or isinstance(other, float):
            if not math.isclose(float(other), float(value),
                                rel_tol=1e-4, abs_tol=1e-3):
                return f"value of {key!r} is {other!r}, want {value!r}"
        elif other != value:
            return f"value of {key!r} is {other!r}, want {value!r}"
    return None


class JobWorkload:
    """Closed loop of ``LocalJobRunner`` jobs over seeded text inputs."""

    def __init__(self, spec: JobSpec, seed: int, tiny: bool):
        self.spec = spec
        self.seed = seed
        self.app = get_app(spec.app)
        self.records = spec.tiny_records if tiny else spec.records
        self.workers = spec.workers
        self.jobs_per_round = 1
        self.inputs: list[str] = []
        self.references: list[dict[Any, Any]] = []
        #: Worker counts the program resolved for the last job.
        self.last_resolved: dict[str, Any] = {}
        self._next = 0

    def _runner(self) -> LocalJobRunner:
        # A fresh runner per job, as each ``repro run`` builds one.
        return LocalJobRunner(self.app, use_gpu=self.spec.use_gpu,
                              workers=self.spec.workers)

    def warm_up(self) -> float:
        """Run the first job on a small input; returns its wall time.

        Input generation stays outside the returned time: it is the
        benchmark's work, not the program's.
        """
        text = self.app.generate(self.spec.warmup_records, self.seed)
        runner = self._runner()
        start = clock()
        runner.run(text)
        return clock() - start

    def prepare(self) -> None:
        """Generate every timed input and its reference output."""
        rng = random.Random(self.seed)
        for _ in range(INPUT_VARIANTS):
            text = self.app.generate(self.records, rng.randrange(1 << 30))
            self.inputs.append(text)
            self.references.append(self.app.reference(text))

    def run_job(self, tracer: Any = None, corrupt: bool = False) -> JobOutcome:
        index = self._next % len(self.inputs)
        self._next += 1
        runner = self._runner()
        start = clock()
        result = runner.run(self.inputs[index])
        wall = clock() - start
        self.last_resolved = {"map_workers": result.workers,
                              "reduce_workers": result.reduce_workers,
                              "map_tasks_per_job": result.map_tasks}
        output = result.output
        if corrupt:
            output = corrupted(output)
        span = tracer.open("bench.check") if tracer is not None else None
        error = compare_outputs(output, self.references[index])
        if span is not None:
            tracer.close(span)
        return JobOutcome(wall, self.records, result.map_tasks, error)

    def first_input(self) -> Any:
        return self.inputs[0]

    def run_once(self, item: Any) -> None:
        """One untimed-by-the-loop job (trace-on ratio)."""
        self._runner().run(item)

    def finish_checks(self) -> tuple[int, list[str]]:
        """Jobs run and failures found after the timed loop."""
        return 0, []

    def resolved(self) -> dict[str, Any]:
        return self.last_resolved


def corrupted(output: dict[Any, Any]) -> dict[Any, Any]:
    """A copy of ``output`` with one value changed (check self-test)."""
    bad = dict(output)
    key = next(iter(bad))
    value = bad[key]
    bad[key] = value + 1 if isinstance(value, (int, float)) else f"{value}!"
    return bad


class SimWorkload:
    """Closed loop of 1000-node cluster simulations.

    One round runs every (scenario, policy) pair once; the loop only
    stops between rounds, so every run times the same mix of pairs.
    """

    def __init__(self, spec: SimSpec, seed: int, tiny: bool):
        self.spec = spec
        self.seed = seed
        waves = spec.tiny_waves if tiny else spec.waves
        rng = random.Random(seed)
        self.pairs: list[tuple[Any, str]] = []
        for scenario_id in spec.scenarios:
            scenario = dataclasses.replace(
                get_scenario(scenario_id), waves=waves,
                seed=rng.randrange(1 << 30))
            policies = list(DEFAULT_POLICIES)
            if scenario.policy not in policies:
                policies.append(scenario.policy)
            self.pairs.extend((scenario, p) for p in policies)
        self.jobs_per_round = len(self.pairs)
        self.workers = 1
        #: Digest of each pair's first ``JobResult`` (the full results,
        #: with their 8000-entry timelines, would grow peak RSS).
        self.first_digests: dict[int, str] = {}
        self._next = 0

    def warm_up(self) -> float:
        """The first simulator build (``setup_s`` for this workload)."""
        scenario, policy = self.pairs[0]
        start = clock()
        build_simulator(scenario, policy)
        return clock() - start

    def prepare(self) -> None:
        """Nothing to generate: the scenarios above are the inputs."""

    def _simulate(self, index: int, tracer: Any = None) -> tuple[Any, float]:
        scenario, policy = self.pairs[index]
        span = tracer.open_job("hadoop.sim_job") if tracer is not None \
            else None
        start = clock()
        try:
            result = build_simulator(scenario, policy).run()
        finally:
            wall = clock() - start
            if span is not None:
                tracer.close_job(span)
        return result, wall

    def run_job(self, tracer: Any = None, corrupt: bool = False) -> JobOutcome:
        index = self._next % len(self.pairs)
        self._next += 1
        result, wall = self._simulate(index, tracer)
        if corrupt:
            result = dataclasses.replace(result, cpu_tasks=result.cpu_tasks + 1)
        span = tracer.open("bench.check") if tracer is not None else None
        error = self.check(index, result)
        if span is not None:
            tracer.close(span)
        tasks = self.pairs[index][0].map_tasks("small")
        return JobOutcome(wall, tasks, tasks, error)

    def check(self, index: int, result: Any) -> str | None:
        """Every map task ran exactly once, and a repeated seed repeats
        the ``JobResult`` exactly."""
        scenario, policy = self.pairs[index]
        tasks = scenario.map_tasks("small")
        if result.cpu_tasks + result.gpu_tasks != tasks:
            return (f"{scenario.id}/{policy}: {result.cpu_tasks} cpu + "
                    f"{result.gpu_tasks} gpu tasks, want {tasks}")
        digest = hashlib.sha256(repr(result).encode()).hexdigest()
        if self.first_digests.setdefault(index, digest) != digest:
            return f"{scenario.id}/{policy}: same seed, different JobResult"
        return None

    def first_input(self) -> Any:
        return 0

    def run_once(self, item: Any) -> None:
        scenario, policy = self.pairs[item]
        build_simulator(scenario, policy).run()

    def finish_checks(self) -> tuple[int, list[str]]:
        """Re-run pair 0 if the loop never repeated it, so every run
        checks determinism at least once."""
        if self._next > len(self.pairs):
            return 0, []
        result, _wall = self._simulate(0)
        error = self.check(0, result)
        return 1, [error] if error else []

    def resolved(self) -> dict[str, Any]:
        return {"simulations_per_round": len(self.pairs),
                "map_tasks_per_job": self.pairs[0][0].map_tasks("small")}


def make_workload(name: str, seed: int, tiny: bool = False) \
        -> JobWorkload | SimWorkload:
    spec = SPECS[name]
    if isinstance(spec, SimSpec):
        return SimWorkload(spec, seed, tiny)
    return JobWorkload(spec, seed, tiny)

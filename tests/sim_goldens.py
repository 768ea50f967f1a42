"""Simulator goldens: a tie-forcing configuration grid and the registry sweep.

Two committed files pin the cluster simulator's outputs byte for byte:

* ``tests/golden/sweep_small.json`` — the canonical ``repro sweep``
  report over the whole scenario registry at ``small`` scale.
* ``tests/golden/sim_tie_grid.json`` — per configuration of
  :func:`tie_grid`, a digest of the ``JobResult``, the trace metrics
  (counters and gauges), and a digest of the canonical trace export.
  The grid is built to make events coincide: a 0.5 s heartbeat, no
  duration jitter, and dyadic task durations, so heartbeats, task
  completions and failures land on the same simulated instant and the
  event loop's tie order decides what happens. A few searched random
  configurations with uneven node speeds follow the regular grid.

Regenerate both after a deliberate behaviour change with::

    PYTHONPATH=src python -m tests.sim_goldens
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from pathlib import Path
from typing import Any, Iterator

from repro import obs
from repro.config import CLUSTER1, CLUSTER2, ClusterConfig
from repro.errors import HadoopError
from repro.hadoop import ClusterSimulator, JobConf
from repro.hadoop.simulate import TaskDurationModel
from repro.scheduling import POLICIES, get_policy
from repro.scenarios import report_bytes, run_sweep

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SWEEP_GOLDEN = GOLDEN_DIR / "sweep_small.json"
TIE_GRID_GOLDEN = GOLDEN_DIR / "sim_tie_grid.json"

#: CPU task seconds; a GPU task takes a quarter of its CPU time.
TIE_DURATIONS = (0.125, 0.25, 0.5, 1.0, 2.0, 3.0)
TIE_FAILURE_RATES = (0.0, 0.1)
TIE_MAP_TASKS = 320

#: Seeds of :func:`searched_config` on which a woken tracker's beat
#: lands on an instant that an event scheduled while it slept also
#: holds: a wake that keys the beat as of the waking event, or that
#: forgets the dispatch log up to the present, reorders them. Found by
#: a differential search against the eager loop over seeds 0-1999.
SEARCHED_SEEDS = (66, 91, 135, 339, 668, 719)


def tie_clusters() -> dict[str, ClusterConfig]:
    return {
        name: dataclasses.replace(base, num_slaves=8,
                                  heartbeat_interval_s=0.5)
        for name, base in (("c1", CLUSTER1), ("c2", CLUSTER2))
    }


def searched_config(seed: int) -> dict[str, Any]:
    """A random tie-forcing configuration (0.5 s heartbeats, no jitter,
    dyadic durations, some nodes' CPUs slower or faster)."""
    rng = random.Random(10_000 + seed)
    slaves = rng.randint(2, 8)
    cluster = dataclasses.replace(
        rng.choice([CLUSTER1, CLUSTER2]), num_slaves=slaves,
        heartbeat_interval_s=0.5, max_map_slots_per_node=rng.randint(1, 4),
        gpus_per_node=rng.randint(0, 2))
    config = dict(
        cluster=cluster,
        cpu_seconds=rng.choice([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 1.25]),
        gpu_seconds=rng.choice([0.125, 0.25, 0.375, 0.5]),
        failure_rate=rng.choice([0.0, 0.0, 0.1]),
        speculative=rng.random() < 0.3,
        policy=rng.choice(list(POLICIES)),
        map_tasks=rng.randint(10, 120),
        nonlocal_penalty=rng.choice([2.0, 0.25, 0.5]),
    )
    config["node_speed_factors"] = {
        node: rng.choice([2.0, 1.5, 0.5, 3.0])
        for node in range(0, slaves, rng.randint(1, 3))
    }
    return dict(config, seed=seed)


def tie_grid() -> Iterator[tuple[str, dict[str, Any]]]:
    """(config id, keyword arguments of :func:`run_tie_config`)."""
    for name, cluster in tie_clusters().items():
        for seconds in TIE_DURATIONS:
            for failure_rate in TIE_FAILURE_RATES:
                for speculative in (False, True):
                    for policy in POLICIES:
                        config_id = (f"{name}/cpu{seconds}/fail{failure_rate}"
                                     f"/spec{int(speculative)}/{policy}")
                        yield config_id, dict(
                            cluster=cluster, cpu_seconds=seconds,
                            gpu_seconds=seconds / 4,
                            failure_rate=failure_rate,
                            speculative=speculative, policy=policy,
                        )
    for seed in SEARCHED_SEEDS:
        yield f"searched/{seed}", searched_config(seed)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_tie_config(cluster: ClusterConfig, cpu_seconds: float,
                   gpu_seconds: float, failure_rate: float,
                   speculative: bool, policy: str,
                   map_tasks: int = TIE_MAP_TASKS,
                   nonlocal_penalty: float = 2.0,
                   node_speed_factors: dict[int, float] | None = None,
                   seed: int = 7) -> dict[str, Any]:
    """One traced simulation; an aborted job is recorded as its error."""
    job = JobConf(name="tie", num_map_tasks=map_tasks, num_reduce_tasks=4,
                  cluster=cluster, cpu_task_seconds=cpu_seconds,
                  gpu_task_seconds=gpu_seconds, duration_jitter=0.0,
                  seed=seed)
    durations = TaskDurationModel(
        cpu_seconds=cpu_seconds, gpu_seconds=gpu_seconds, jitter=0.0,
        nonlocal_penalty=nonlocal_penalty, failure_rate=failure_rate,
        seed=seed, node_speed_factors=node_speed_factors)
    sim = ClusterSimulator(job, get_policy(policy), durations=durations,
                           speculative=speculative)
    outcome: dict[str, Any] = {}
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        try:
            result = sim.run()
        except HadoopError as exc:
            outcome["error"] = str(exc)
        else:
            outcome["result"] = _digest(repr(result))
            outcome["trace"] = _digest(obs.dumps(obs.export_chrome(rec)))
    outcome["metrics"] = rec.metrics.snapshot()
    return outcome


def tie_grid_report() -> dict[str, Any]:
    return {config_id: run_tie_config(**kwargs)
            for config_id, kwargs in tie_grid()}


def main() -> None:
    SWEEP_GOLDEN.write_bytes(report_bytes(run_sweep(scale="small")))
    TIE_GRID_GOLDEN.write_bytes(report_bytes(tie_grid_report()))


if __name__ == "__main__":
    main()

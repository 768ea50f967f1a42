"""End-to-end job benchmark for the HeteroDoop reproduction.

Times whole jobs, as a ``repro run`` user waits for them, in a closed
loop with one client: submit a job, wait for it, check its output,
submit the next. Each workload runs in its own fresh process.

    python3 perfbench/run.py --workload ts-pool --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload
    python3 perfbench/run.py --self-test

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same loop with layer spans recorded (see tracing.py) and reports the
per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when any check failed. README.md lists the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("wc-stream", "km-gpu", "ts-pool", "sim-mega1k")

#: End-to-end metric → unit, as the JSON result reports them.
END_TO_END = {
    "records_per_s": "records/s",
    "sim_tasks_per_s": "tasks/s",
    "job_s_mean": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Fresh processes whose set-up time ``setup_s`` takes the median of
#: (this process is the first of them).
SETUP_SAMPLES = 3
#: A timed loop runs at least this many jobs, however long they take.
MIN_JOBS = 3
#: Seconds a set-up probe process may take before it counts as failed.
PROBE_TIMEOUT = 150

clock = time.perf_counter


def scrub_env() -> list[str]:
    """Drop every ``REPRO_*`` variable, so the caller's shell cannot
    change what is measured; returns the names dropped."""
    names = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    return names


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs (self-test)")
    p.add_argument("--self-test", action="store_true")
    # Internal: the set-up time probe, and the corrupted-output check.
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    return args


# -- one workload -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.self_test:
        sys.path.insert(0, ROOT)
        from perfbench import selftest

        return selftest.main()
    if args.workload == "all":
        return run_all(args)

    scrubbed = scrub_env()
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    # The program's spill files stay in the checkout, where the pool
    # hygiene check looks for them.
    os.environ["TMPDIR"] = tmp
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        return run_workload(args, scrubbed, tmp)
    finally:
        stop_helpers()
        shutil.rmtree(tmp, ignore_errors=True)


def run_workload(args: argparse.Namespace, scrubbed: list[str],
                 tmp: str) -> int:
    from perfbench import hostspeed

    start = clock()
    try:
        from perfbench import workloads
    except ModuleNotFoundError as exc:
        if (exc.name or "").split(".")[0] != "repro":
            raise
        print(f"perfbench: cannot import the program ({exc}); run from "
              "the root of a checkout that has src/repro", file=sys.stderr)
        return 2
    import_s = clock() - start
    import repro

    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              "this checkout", file=sys.stderr)
        return 2
    from repro.parallel.daemon import get_pool, pool_metrics

    shm_before = _shm_segments()
    workload = workloads.make_workload(args.workload, args.seed, args.tiny)
    pooled = workload.workers > 1
    tracer = inst = None
    if args.trace:
        from perfbench import tracing

        tracer = tracing.Tracer()
        if pooled:
            get_pool().broadcast(tracing.install_worker,
                                 workers=workload.workers)
        inst = tracing.install(tracer)

    setup_s = import_s + workload.warm_up()
    if not args.trace:
        setup_s /= hostspeed.setup_slowness()
    if args.setup_probe:
        errors = finish_pool(shm_before, tmp)[1]
        print(json.dumps({"setup_s": setup_s, "errors": errors}))
        return 1 if errors else 0

    setup_samples = [setup_s]
    errors: list[str] = []
    if not args.trace:
        samples, probe_errors = probe_setup(args)
        setup_samples += samples
        errors += probe_errors
    workload.prepare()

    if tracer is not None:
        tracer.set_phase("loop")
        if pooled:
            get_pool().broadcast(tracing.set_worker_phase, ("loop",),
                                 workers=workload.workers)
    seconds = args.seconds / 2 if args.trace else args.seconds
    speed = None if args.trace else hostspeed.HostSpeed()
    batches_before = _pool_count(pool_metrics(), "pool.batches")
    outcomes = timed_loop(workload, seconds, tracer, args.corrupt, speed)
    batches = _pool_count(pool_metrics(), "pool.batches") - batches_before

    if tracer is not None:
        worker_dumps = []
        if pooled:
            get_pool().broadcast(tracing.flush_worker, (OUT_DIR,),
                                 workers=workload.workers)
            worker_dumps = tracing.collect_workers(OUT_DIR)
        inst.uninstall()
        for note in inst.missing + sorted(tracer.annotate_errors):
            print(f"perfbench: not traced: {note}", file=sys.stderr)
        untraced = timed_loop(workload, seconds, None, False)
        trace_on_ratio = measure_trace_on(workload)
        report = tracing.join(tracer, worker_dumps)
        errors += report.tiling_errors
        outcomes_all = outcomes + untraced
    else:
        outcomes_all = outcomes

    extra_jobs, extra = workload.finish_checks()
    worker_peak_mb, hygiene, pool_counts = finish_pool(shm_before, tmp)
    errors += hygiene

    attempted = len(outcomes_all) + extra_jobs
    failures = [o.error for o in outcomes_all if o.error] + extra
    for message in failures[:5]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    for message in errors:
        print(f"perfbench: {message}", file=sys.stderr)

    config = resolved_config(workload, scrubbed)
    if tracer is not None:
        pool_counts["batches"] = batches
        layer = tracing.layer_metrics(
            report, _walls(outcomes), _walls(untraced), trace_on_ratio,
            pool_counts)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracing.write_trace(
            os.path.join(OUT_DIR,
                         f"trace-{args.workload}-seed{args.seed}.json"),
            report, {"workload": args.workload, "seed": args.seed,
                     "config": config})
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
    else:
        # Times are scaled to the nominal host speed (hostspeed.py);
        # every job of a workload has the same record count.
        slowness = speed.slowness()
        job_s = statistics.mean(_walls(outcomes)) / slowness
        good = [o for o in outcomes if o.wall_s is not None] or outcomes
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "records_per_s": statistics.median(o.records for o in good)
            / job_s,
            "sim_tasks_per_s": statistics.median(o.map_tasks for o in good)
            / job_s,
            "job_s_mean": job_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": rss_mb + worker_peak_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print_report(args, attempted, failures, metrics, pool_counts,
                 setup_samples)
    if speed is not None:
        print(f"  host slowness {slowness:.4f} (mean of "
              f"{len(speed.samples)} references); unscaled job_s_mean "
              f"{job_s * slowness:.4f} s, median "
              f"{statistics.median(_walls(outcomes)):.4f} s")
    print("config " + json.dumps(config, sort_keys=True))
    correct = not failures and not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


def timed_loop(workload: Any, seconds: float, tracer: Any,
               corrupt: bool, speed: Any = None) -> list[Any]:
    """Closed loop of whole rounds of jobs, at least :data:`MIN_JOBS`
    jobs, stopping at the round end nearest to ``seconds``. With
    ``speed``, the host-speed reference is timed between jobs."""
    from perfbench.workloads import JobOutcome

    outcomes: list[Any] = []
    span = tracer.open("bench.loop") if tracer is not None else None
    start = clock()
    rounds = 0
    while True:
        rounds += 1
        for _ in range(workload.jobs_per_round):
            try:
                outcome = workload.run_job(tracer,
                                           corrupt and not outcomes)
            except Exception as exc:  # a failed job counts; keep going
                traceback.print_exc(file=sys.stderr)
                outcome = JobOutcome(None, 0, 0, f"job raised {exc!r}")
            outcomes.append(outcome)
            if speed is not None:
                speed.keep_up(clock() - start)
        elapsed = clock() - start
        if len(outcomes) >= MIN_JOBS \
                and elapsed + elapsed / rounds / 2 >= seconds:
            break
    if span is not None:
        tracer.close(span)
    return outcomes


def _walls(outcomes: list[Any]) -> list[float]:
    walls = [o.wall_s for o in outcomes if o.wall_s is not None]
    return walls or [math.nan]


def probe_setup(args: argparse.Namespace) -> tuple[list[float], list[str]]:
    """``setup_s`` in fresh processes, one after the other."""
    samples: list[float] = []
    errors: list[str] = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    for _ in range(SETUP_SAMPLES - 1):
        # A session of its own, so a probe that hangs is killed together
        # with any process it started.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, cwd=ROOT,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=PROBE_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            errors.append("set-up probe timed out")
            continue
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            errors.append(f"set-up probe failed: {stderr[-400:]}")
            continue
        samples.append(json.loads(lines[-1])["setup_s"])
    return samples, errors


def measure_trace_on(workload: Any) -> float:
    """One job with the program's own TraceRecorder on, over the same
    job with it off."""
    from repro.obs.trace import TraceRecorder, use_recorder

    item = workload.first_input()
    start = clock()
    workload.run_once(item)
    off = clock() - start
    with use_recorder(TraceRecorder()):
        start = clock()
        workload.run_once(item)
        on = clock() - start
    return on / off


# -- pool hygiene, memory, configuration ---------------------------------------


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _pool_count(registry: Any, name: str) -> float:
    return registry.snapshot()["counters"].get(name, 0)


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def stop_helpers() -> None:
    """Stop every process this one started, and wait for each to end.

    Besides the pool workers, that is the ``multiprocessing`` resource
    tracker the shared-memory arena starts: it would otherwise outlive
    this process by however long it takes to notice the exit.
    """
    if "repro.parallel.daemon" in sys.modules:
        from repro.parallel.daemon import shutdown_pool

        shutdown_pool()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def finish_pool(shm_before: set[str], tmp: str) \
        -> tuple[float, list[str], dict[str, float]]:
    """Shut the daemon pool down and check nothing outlives it.

    Returns the pool workers' summed peak RSS (MiB), the hygiene
    failures, and the pool's lifecycle counters.
    """
    from repro.parallel.daemon import pool_metrics, shutdown_pool

    children = multiprocessing.active_children()
    peak_mb = sum(_peak_rss_mb(c.pid) for c in children)
    shutdown_pool()
    errors = []
    alive = sorted(c.pid for c in multiprocessing.active_children())
    if alive:
        errors.append(f"pool workers outlived shutdown: {alive}")
    leaked = sorted(s for s in _shm_segments() - shm_before
                    if s.startswith("psm_"))
    leaked += sorted(f for f in os.listdir(tmp) if f.startswith("repro-"))
    if leaked:
        errors.append(f"arena segments outlived the pool: {leaked}")
    counters = pool_metrics().snapshot()["counters"]
    counts = {name: counters.get(f"pool.{name}", 0)
              for name in ("spawned", "respawned", "reaped")}
    return peak_mb, errors, counts


def resolved_config(workload: Any, scrubbed: list[str]) -> dict[str, Any]:
    """The configuration the program resolved, so a change that flips a
    default shows in every report."""
    import numpy

    from repro.gpu import engine
    from repro.minic import interpreter
    from repro.parallel import arena, daemon

    resolved = workload.resolved()
    tasks = resolved.get("map_tasks_per_job") or 1
    workers = resolved.get("map_workers") or 1
    probes = {
        "gpu_engine": lambda: engine.default_gpu_engine(),
        "minic_backend": lambda: interpreter.default_backend(),
        "pool_start_method": lambda: daemon.resolve_start_method(),
        "arena_backend": lambda: arena.arena_backend(),
        "pool_batch_size": lambda: daemon.resolve_batch_size(tasks, workers),
    }
    config: dict[str, Any] = {}
    for name, probe in probes.items():
        try:
            config[name] = probe()
        except AttributeError:  # the program renamed it
            config[name] = "unavailable"
    config.update(resolved)
    config.update({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scrubbed_env": scrubbed,
    })
    return config


def print_report(args: argparse.Namespace, attempted: int,
                 failures: list[str], metrics: dict[str, Any],
                 pool_counts: dict[str, float],
                 setup_samples: list[float]) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  jobs {attempted}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'failed_ratio':28s} {len(failures) / max(attempted, 1):14.6g} "
          "fraction")
    if not args.trace:
        print("  setup samples (s): "
              + " ".join(f"{s:.4f}" for s in setup_samples))
    print("  pool: " + " ".join(f"{k} {v:g}" for k, v in pool_counts.items()))


# -- every workload -------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process; one summary line."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    summary: dict[str, Any] = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            return 2
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            summary[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

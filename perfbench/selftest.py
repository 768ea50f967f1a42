"""Tiny-size self-test of the benchmark.

Runs every workload at tiny size in both trace modes and checks that
each metric BENCHMARK.json names appears with its unit, that the
per-layer spans tile the traced jobs, and that a deliberately corrupted
output fails the run.

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("wc-stream", "km-gpu", "ts-pool", "sim-mega1k")
#: Largest unattributed share of the traced loop the tiny runs may show.
MAX_UNATTRIBUTED = 0.05


def _run(*args: str) -> tuple[int, dict[str, Any] | None, str]:
    proc = subprocess.run(
        [sys.executable, RUN, "--seed", "7", "--seconds", "1", "--tiny",
         *args], capture_output=True, text=True, timeout=300, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, proc.stderr


def _check_metrics(label: str, result: dict[str, Any],
                   want: dict[str, str]) -> list[str]:
    problems = []
    metrics = result["metrics"]
    if set(metrics) != set(want):
        problems.append(f"{label}: metrics {sorted(set(metrics) ^ set(want))}"
                        " differ from BENCHMARK.json")
    for name, unit in want.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        if metric.get("unit") != unit:
            problems.append(f"{label}: {name} unit {metric.get('unit')!r}, "
                            f"want {unit!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r} not a number")
    return problems


def _check_compare() -> list[str]:
    """The output comparison itself: exact keys, float tolerance."""
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import compare_outputs, corrupted

    problems = []
    cases = (
        ({"a": 1, "b": 2}, {"a": 1, "b": 2}, True),
        ({"a": 1, "b": 3}, {"a": 1, "b": 2}, False),
        ({"a": 1}, {"a": 1, "b": 2}, False),
        ({1: 100.00001}, {1: 100.0}, True),
        ({1: 100.5}, {1: 100.0}, False),
        (corrupted({1: 2.5, 2: 3.5}), {1: 2.5, 2: 3.5}, False),
        (corrupted({"w": "x"}), {"w": "x"}, False),
    )
    for got, want, ok in cases:
        if (compare_outputs(got, want) is None) != ok:
            problems.append(f"compare_outputs({got}, {want}) should "
                            f"{'pass' if ok else 'fail'}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = _check_compare()
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, result, stderr = _run("--workload", workload,
                                        "--trace", str(trace))
            if code != 0 or result is None or not result["correct"] \
                    or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: exit {code}, result {result}\n"
                                f"{stderr[-800:]}")
                continue
            problems += _check_metrics(label, result, wanted[trace])
            if trace:
                share = result["metrics"]["tiling.unattributed_share"]
                if share["value"] > MAX_UNATTRIBUTED:
                    problems.append(f"{label}: unattributed share "
                                    f"{share['value']:.3f}")
            print(f"ok  {label}")
    for workload in ("wc-stream", "km-gpu", "sim-mega1k"):
        label = f"{workload} --corrupt"
        code, result, _stderr = _run("--workload", workload, "--trace", "0",
                                     "--corrupt")
        if code != 1 or result is None or result["correct"] \
                or result["failed"] < 1:
            problems.append(f"{label}: corrupted output not caught "
                            f"(exit {code}, result {result})")
        else:
            print(f"ok  {label} caught")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0

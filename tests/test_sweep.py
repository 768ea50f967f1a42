"""Sweep-runner tests: canonical reports, determinism, and performance.

Tier-1 covers the mini-shape smoke slice — byte-identical reports
across runs, canonical JSON round-trips, the CLI leg — plus a small-N
performance guard. The 1000-node × 3-policy budget test runs in the
nightly ``-m slow`` tier with the acceptance wall-clock bound.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time

import pytest

from repro import cli, obs
from repro.hadoop.jobtracker import JobTracker
from repro.scenarios import (
    DEFAULT_POLICIES,
    all_scenarios,
    build_simulator,
    get_scenario,
    report_bytes,
    run_sweep,
)

MINI = [s for s in all_scenarios() if s.shape == "mini"]
MEGA = [s for s in all_scenarios() if s.shape.startswith("mega1k")]


class TestReportShape:
    def test_rows_cover_slate_plus_scenario_policy(self):
        report = run_sweep(MINI, scale="small")
        by_scenario: dict[str, set[str]] = {}
        for row in report["results"]:
            by_scenario.setdefault(row["scenario"], set()).add(row["policy"])
        for scenario in MINI:
            assert by_scenario[scenario.id] >= \
                set(DEFAULT_POLICIES) | {scenario.policy}

    def test_rows_sorted_and_speedups_present(self):
        report = run_sweep(MINI, scale="small")
        keys = [(r["scenario"], r["policy"]) for r in report["results"]]
        assert keys == sorted(keys)
        for row in report["results"]:
            assert row["job_seconds"] > 0
            assert "speedup_vs_cpu_only" in row
            if row["policy"] == "cpu-only":
                assert row["speedup_vs_cpu_only"] == pytest.approx(1.0)
                assert row["gpu_tasks"] == 0

    def test_verify_section_records_digests(self):
        scenario = get_scenario("wc-mini-tail")
        report = run_sweep([scenario], policies=("cpu-only",), verify=True)
        entry = report["verification"]["wc-mini-tail"]
        assert entry["paths_agree"] is True
        assert len(entry["datagen_sha256"]) == 64
        assert len(entry["output_sha256"]) == 64
        assert entry["output_keys"] > 0

    def test_unknown_scale_and_empty_selection_raise(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_sweep(MINI, scale="huge")
        with pytest.raises(ConfigError):
            run_sweep([], scale="small")


class TestDeterminism:
    def test_report_bytes_identical_across_runs(self):
        first = report_bytes(run_sweep(MINI, scale="small"))
        second = report_bytes(run_sweep(MINI, scale="small"))
        assert first == second

    def test_canonical_json_round_trips(self):
        report = run_sweep(MINI, scale="small")
        blob = report_bytes(report)
        assert blob.endswith(b"\n")
        assert json.loads(blob) == report
        # Canonicalization already rounded floats: re-serializing the
        # parsed payload reproduces the exact bytes.
        assert (json.dumps(json.loads(blob), indent=2, sort_keys=True)
                + "\n").encode() == blob


class TestCli:
    def test_sweep_list(self, capsys):
        assert cli.main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for scenario in all_scenarios():
            assert scenario.id in out

    def test_sweep_json_is_canonical(self, capsys):
        assert cli.main(["sweep", "--scenarios", "wc-mini-tail",
                         "--json"]) == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert parsed["results"]

    def test_sweep_writes_report_file(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        assert cli.main(["sweep", "--shapes", "mini",
                         "-o", str(out_path)]) == 0
        capsys.readouterr()
        report = json.loads(out_path.read_bytes())
        assert {row["shape"] for row in report["results"]} == {"mini"}

    def test_empty_filter_errors(self, capsys):
        # main() catches ReproError and reports it as a nonzero exit.
        assert cli.main(["sweep", "--apps", "WC", "--shapes", "c2"]) != 0
        assert "selected no scenarios" in capsys.readouterr().err


class TestPerformance:
    def test_mini_smoke_sweep_is_fast(self):
        # Small-N guard for the event-loop fast paths: the tier-1 smoke
        # slice must stay interactive (~0.2s on a dev laptop; the bound
        # leaves ~25x headroom for CI jitter).
        start = time.perf_counter()
        run_sweep(MINI, scale="small")
        assert time.perf_counter() - start < 5.0

    def test_single_mega_node_run_stays_subsecond_scaled(self):
        # One 1000-node simulation at small scale (16k map tasks) — the
        # per-policy unit of the nightly budget test. ~1s nominal.
        scenario = get_scenario("ts-mega1k-tail")
        start = time.perf_counter()
        build_simulator(scenario, "tail", "small").run()
        assert time.perf_counter() - start < 15.0

    def test_idle_heartbeats_are_not_dispatched(self, monkeypatch):
        # Machine-independent guard: on the 8000-task 1000-node run, the
        # JobTracker handles at most 10% of the beats the trackers would
        # send (the rest arrive with nothing to grant). The JobResult and
        # the beat count are the eager loop's, pinned from before trackers
        # could sleep.
        handled = []
        handle = JobTracker.handle_heartbeat
        monkeypatch.setattr(JobTracker, "handle_heartbeat",
                            lambda jt, hb: handled.append(1) or handle(jt, hb))
        scenario = dataclasses.replace(get_scenario("ts-mega1k-tail"),
                                       waves=1.0)
        with obs.use_recorder(obs.TraceRecorder()) as rec:
            result = build_simulator(scenario, "tail").run()
        assert hashlib.sha256(repr(result).encode()).hexdigest() == (
            "d8a7622e516ef83fa9949d22450099c03c9d32bf8916ac770616b3a0fae00166")
        beats = rec.metrics.count("sim.heartbeats")
        assert beats == 180888
        assert len(handled) <= 0.10 * beats

    @pytest.mark.slow
    def test_thousand_node_three_policy_sweep_within_budget(self):
        # Acceptance bound: every mega1k scenario × the default slate
        # (plus each scenario's own policy) at small scale in <60s.
        start = time.perf_counter()
        report = run_sweep(MEGA, scale="small")
        elapsed = time.perf_counter() - start
        assert len({r["policy"] for r in report["results"]}) >= 3
        assert elapsed < 60.0, f"mega sweep took {elapsed:.1f}s"

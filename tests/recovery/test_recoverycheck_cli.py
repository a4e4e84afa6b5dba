"""The ``runner recoverycheck`` command line."""

import json
from functools import partial

import pytest

from repro.crashlab import (
    CellReport,
    check_point,
    record_boundaries,
    summary_result,
    violations_result,
)
from repro.experiments.runner import recoverycheck_main
from repro.recovery import ContinuationPlan, recovery_judge
from repro.scenarios import sweep


def run_cli(tmp_path, *argv):
    output = tmp_path / "report.json"
    recoverycheck_main([*argv, "--format", "json", "--output", str(output)])
    return json.loads(output.read_text())


class TestRecoverycheckCLI:
    def test_contrast_pair_in_order_recovery_vs_none(self, tmp_path):
        # The acceptance contrast: the flushing barrier stack recovers and
        # continues with zero violations, while the nobarrier legacy stack
        # (acks at transfer time, never flushes) loses acked pages — the
        # fsyncgate witness, expected (guaranteed=False) rather than a bug.
        summary, violations = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--config", "in-order-recovery",
            "--strategy", "stratified", "--points", "6",
            "--param", "calls=6",
        )
        assert summary["name"] == "recoverycheck"
        rows = [dict(zip(summary["columns"], row)) for row in summary["rows"]]
        assert [(row["config"], row["barrier_mode"]) for row in rows] == [
            ("BFS-DR", "in-order-recovery"),
            ("EXT4-OD", "none"),
        ]
        barrier, legacy = rows
        assert "recovered-acked-prefix" in barrier["oracles"]
        assert "recovered-continuation-durability" in barrier["oracles"]
        assert barrier["violations"] == 0
        assert legacy["violations"] >= 1
        assert all(row["unexpected"] == 0 for row in rows)
        recovery_witnesses = [
            dict(zip(violations["columns"], row))
            for row in violations["rows"]
            if str(row[violations["columns"].index("oracle")]).startswith("recovered-")
        ]
        assert recovery_witnesses
        assert all(w["guaranteed"] is False for w in recovery_witnesses)

    def test_barrier_aliases_and_case_insensitive_configs(self, tmp_path):
        summary, _ = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--config", "barrier-dr",
            "--config", "ext4-dr",
            "--barrier-mode", "in_order_recovery",
            "--strategy", "stratified", "--points", "3",
            "--param", "calls=4",
        )
        rows = [dict(zip(summary["columns"], row)) for row in summary["rows"]]
        assert sorted(row["config"] for row in rows) == ["BFS-DR", "EXT4-DR"]
        assert all(row["barrier_mode"] == "in-order-recovery" for row in rows)

    def test_barrierfs_with_mode_none_substitutes_the_legacy_cell(self, tmp_path):
        # BFS × none cannot build (the order-preserving block layer needs a
        # barrier-capable device); the cell runs EXT4-OD × none instead.
        summary, _ = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--config", "barrier-dr",
            "--barrier-mode", "none",
            "--strategy", "stratified", "--points", "3",
            "--param", "calls=4",
        )
        rows = [dict(zip(summary["columns"], row)) for row in summary["rows"]]
        assert [(row["config"], row["barrier_mode"]) for row in rows] == [
            ("EXT4-OD", "none"),
        ]

    def test_jobs_sharding_is_bit_identical(self, tmp_path):
        argv = (
            "--workload", "sync-loop",
            "--config", "barrier-dr",
            "--barrier-mode", "in_order_recovery",
            "--strategy", "stratified", "--points", "6",
            "--param", "calls=6",
        )
        serial = run_cli(tmp_path, *argv, "--jobs", "1")
        sharded = run_cli(tmp_path, *argv, "--jobs", "4")
        assert serial == sharded

    def test_report_equals_one_rebuilt_from_scratch_replays(self, tmp_path):
        # The recovery judge runs inside the one judging run; its verdicts
        # must equal those of check_point replays under the same plan.
        inline = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--config", "barrier-dr",
            "--barrier-mode", "in_order_recovery",
            "--strategy", "exhaustive", "--scale", "0.1", "--trace-tail", "4",
            "--continuation-calls", "3",
        )
        [spec] = sweep(workloads=["sync-loop"], configs=["BFS-DR"],
                       barrier_modes=["in-order-recovery"], scale=0.1)
        judge = partial(recovery_judge, plan=ContinuationPlan(calls=3))
        total = len(record_boundaries(spec))
        report = CellReport(
            spec=spec, strategy="exhaustive", seed=0, boundaries_total=total,
            points=[check_point(spec, index, trace_tail=4, judge=judge)
                    for index in range(total)],
        )
        summary = summary_result([report])
        summary.name = "recoverycheck"
        summary.description = (
            "crash-point exploration with remount-and-continue verification"
        )
        violations = violations_result([report])
        violations.name = "recoverycheck-violations"
        tables = [summary.to_dict(), violations.to_dict()]
        assert inline == json.loads(json.dumps(tables))

    def test_fault_plan_composes_with_the_round_trip(self, tmp_path):
        # Injected media faults void the recovery guarantees conservatively:
        # violations on the faulted cell must all be expected witnesses.
        summary, _ = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--config", "barrier-dr",
            "--barrier-mode", "in_order_recovery",
            "--fault", "io-error:p=1,op=write",
            "--strategy", "stratified", "--points", "4",
            "--param", "calls=4",
        )
        [row] = [dict(zip(summary["columns"], r)) for r in summary["rows"]]
        assert row["faults"] == "io-error:p=1,op=write"
        assert row["unexpected"] == 0

    def test_continuation_flags_reach_the_plan_validation(self, capsys):
        with pytest.raises(SystemExit):
            recoverycheck_main(
                ["--workload", "sync-loop", "--continuation-calls", "0"]
            )
        assert "--continuation-calls" in capsys.readouterr().err

    def test_unknown_config_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            recoverycheck_main(["--workload", "sync-loop", "--config", "ZFS"])
        assert "unknown config" in capsys.readouterr().err

    def test_mode_alias_conflicts_with_explicit_mode_axis(self, capsys):
        with pytest.raises(SystemExit):
            recoverycheck_main([
                "--workload", "sync-loop",
                "--config", "in-order-recovery",
                "--barrier-mode", "plp",
            ])
        assert "names a barrier mode" in capsys.readouterr().err

    def test_raw_block_workload_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            recoverycheck_main(["--workload", "blocklevel"])
        assert "raw block device" in capsys.readouterr().err

    def test_list_prints_recovery_oracles(self, capsys):
        recoverycheck_main(["--list"])
        out = capsys.readouterr().out
        assert "recovered-acked-prefix" in out
        assert "recovered-continuation-durability" in out
        assert "strategies:" in out

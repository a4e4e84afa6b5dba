"""The ``runner crashcheck`` command line."""

import json

import pytest

from repro.crashlab import (
    CellReport,
    check_point,
    record_boundaries,
    summary_result,
    violations_result,
)
from repro.experiments.runner import crashcheck_main
from repro.scenarios import sweep


def run_cli(tmp_path, *argv):
    output = tmp_path / "report.json"
    crashcheck_main([*argv, "--format", "json", "--output", str(output)])
    return json.loads(output.read_text())


class TestCrashcheckCLI:
    def test_barrier_cell_reports_zero_violations(self, tmp_path):
        summary, violations = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--barrier-mode", "in_order_recovery",  # underscores accepted
            "--strategy", "exhaustive",
            "--param", "calls=6",
        )
        assert summary["name"] == "crashcheck"
        row = dict(zip(summary["columns"], summary["rows"][0]))
        assert row["barrier_mode"] == "in-order-recovery"
        assert row["violations"] == 0
        assert row["unexpected"] == 0
        assert row["points_checked"] == row["boundaries"] > 0
        assert violations["rows"] == []

    def test_legacy_cell_reports_witnessed_violations(self, tmp_path):
        summary, violations = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--barrier-mode", "none",
            "--strategy", "exhaustive",
            "--param", "calls=12",
        )
        row = dict(zip(summary["columns"], summary["rows"][0]))
        assert row["violations"] >= 1
        assert row["unexpected"] == 0
        witness = dict(zip(violations["columns"], violations["rows"][0]))
        assert "was lost" in witness["witness"]
        assert witness["guaranteed"] is False

    def test_jobs_sharding_is_bit_identical(self, tmp_path):
        argv = (
            "--workload", "sync-loop",
            "--barrier-mode", "none", "--barrier-mode", "plp",
            "--strategy", "stratified", "--points", "8",
            "--param", "calls=8",
        )
        serial = run_cli(tmp_path, *argv, "--jobs", "1")
        sharded = run_cli(tmp_path, *argv, "--jobs", "4")
        assert serial == sharded

    def test_report_equals_one_rebuilt_from_scratch_replays(self, tmp_path):
        # The JSON the CLI writes from its one judging run is byte for byte
        # the report assembled from independent check_point replays.
        inline = run_cli(
            tmp_path,
            "--workload", "sync-loop", "--config", "EXT4-DR",
            "--barrier-mode", "none",
            "--strategy", "exhaustive", "--scale", "0.1", "--trace-tail", "4",
        )
        [spec] = sweep(workloads=["sync-loop"], configs=["EXT4-DR"],
                       barrier_modes=["none"], scale=0.1)
        total = len(record_boundaries(spec))
        report = CellReport(
            spec=spec, strategy="exhaustive", seed=0, boundaries_total=total,
            points=[check_point(spec, index, trace_tail=4) for index in range(total)],
        )
        assert report.violations, "the legacy cell must produce witnesses"
        tables = [summary_result([report]), violations_result([report])]
        assert inline == json.loads(json.dumps([t.to_dict() for t in tables]))

    def test_params_route_to_the_accepting_workload(self, tmp_path):
        # Like `runner sweep`: a key accepted by one selected workload rides
        # along, applied only to the specs of that workload.
        summary, _ = run_cli(
            tmp_path,
            "--workload", "sync-loop", "--workload", "sqlite",
            "--barrier-mode", "plp",
            "--strategy", "stratified", "--points", "4",
            "--param", "calls=4", "--param", "inserts=3",
        )
        assert len(summary["rows"]) == 2

    def test_duplicate_axis_values_collapse_to_one_cell(self, tmp_path):
        summary, _ = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--barrier-mode", "none", "--barrier-mode", "none",
            "--strategy", "stratified", "--points", "4",
            "--param", "calls=4",
        )
        assert len(summary["rows"]) == 1

    def test_orphan_param_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            crashcheck_main(
                ["--workload", "sync-loop", "--param", "journal_mode='wal'"]
            )
        assert "accepted by none" in capsys.readouterr().err

    def test_non_positive_points_budget_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            crashcheck_main(["--workload", "sync-loop", "--points", "0"])
        assert "--points must be at least 1" in capsys.readouterr().err

    def test_raw_block_workload_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            crashcheck_main(["--workload", "blocklevel"])
        assert "raw block device" in capsys.readouterr().err

    def test_unknown_barrier_mode_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            crashcheck_main(["--workload", "sync-loop", "--barrier-mode", "magic"])
        assert "unknown barrier mode" in capsys.readouterr().err

    def test_list_prints_oracles_and_strategies(self, capsys):
        crashcheck_main(["--list"])
        out = capsys.readouterr().out
        assert "strategies: exhaustive, stratified, bisect" in out
        assert "committed-log-prefix" in out

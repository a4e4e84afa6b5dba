"""The axis flags every scenario subcommand shares (docs/EXPERIMENTS.md,
"Axis flags"): unknown names are usage errors, and BarrierFS × barrier mode
``none`` is a contrast cell in the check subcommands, a usage error in
``sweep`` and ``trace``."""

import json

import pytest

from repro.experiments.runner import main

#: Each subcommand's smallest command line that would otherwise run.
BASE = {
    "sweep": ["sweep", "-w", "sync-loop"],
    "trace": ["trace", "-w", "sync-loop"],
    "crashcheck": ["crashcheck", "-w", "sync-loop"],
    "faultcheck": ["faultcheck", "-w", "sync-loop", "--fault", "flush-lie"],
    "recoverycheck": ["recoverycheck", "-w", "sync-loop"],
}

#: Axis flag -> a registered name the usage error must list.
AXES = {"config": "EXT4-DR", "device": "plain-ssd", "scheduler": "noop"}

SMALL = ["--strategy", "stratified", "--points", "2", "--param", "calls=3"]


@pytest.mark.parametrize("axis", sorted(AXES))
@pytest.mark.parametrize("command", sorted(BASE))
def test_unknown_axis_name_is_a_usage_error(command, axis, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*BASE[command], f"--{axis}", "bogus"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"unknown {axis} 'bogus'" in err
    assert AXES[axis] in err


def rows_of(tmp_path, argv):
    output = tmp_path / "report.json"
    main([*argv, *SMALL, "--format", "json", "--output", str(output)])
    summary = json.loads(output.read_text())[0]
    return [dict(zip(summary["columns"], row)) for row in summary["rows"]]


@pytest.mark.parametrize("command, contrast", [
    ("crashcheck", "EXT4-DR"),
    ("faultcheck", "EXT4-DR"),
    ("recoverycheck", "EXT4-OD"),
])
def test_barrierfs_with_mode_none_runs_the_contrast_cell(command, contrast, tmp_path):
    rows = rows_of(tmp_path, [*BASE[command], "-c", "BFS-DR", "--barrier-mode", "none"])
    assert [(row["config"], row["barrier_mode"]) for row in rows] == [
        (contrast, "none"),
    ]


@pytest.mark.parametrize("command", ["crashcheck", "faultcheck", "recoverycheck"])
def test_barrier_mode_config_expands_to_the_pair_in_every_check(command, tmp_path):
    rows = rows_of(tmp_path, [*BASE[command], "-c", "in_order_recovery"])
    assert [(row["config"], row["barrier_mode"]) for row in rows] == [
        ("BFS-DR", "in-order-recovery"),
        ("EXT4-OD" if command == "recoverycheck" else "EXT4-DR", "none"),
    ]


def test_barrierfs_on_a_device_without_barriers_runs_the_contrast_cell(tmp_path):
    # The HDD's default barrier mode is none, so BFS-DR cannot build there.
    rows = rows_of(tmp_path, [*BASE["crashcheck"], "-c", "BFS-DR", "-d", "HDD"])
    assert [(row["config"], row["device"]) for row in rows] == [("EXT4-DR", "HDD")]


@pytest.mark.parametrize("command", ["sweep", "trace"])
@pytest.mark.parametrize("extra", [
    ["--barrier-mode", "none"],
    ["-d", "HDD"],
])
def test_barrierfs_without_barriers_is_a_usage_error(command, extra, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*BASE[command], "-c", "BFS-DR", *extra])
    assert exit_info.value.code == 2
    assert "cannot run with barrier mode none" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "trace"])
def test_barrier_mode_names_are_not_configs_outside_the_checks(command, capsys):
    with pytest.raises(SystemExit):
        main([*BASE[command], "-c", "in-order-recovery"])
    assert "unknown config 'in-order-recovery'" in capsys.readouterr().err

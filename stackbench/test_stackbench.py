"""Tests of the benchmark itself: layer map, output checks, API discipline.

Run with ``python -m pytest stackbench``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.crashlab import explore  # noqa: E402
from repro.experiments.runner import run_all  # noqa: E402
from repro.scenarios.spec import ScenarioSpec  # noqa: E402


def test_every_repro_module_maps_to_one_named_layer():
    modules = layers.repro_modules()
    assert "repro.storage.device" in modules
    mapped = {module: layers.layer_of_module(module) for module in modules}
    assert all(layer in layers.LAYERS for layer in mapped.values()), mapped
    assert set(mapped.values()) == set(layers.LAYERS)
    assert mapped["repro.storage.crash"] == "storage.crash"
    assert mapped["repro.storage.device"] == "storage"
    assert mapped["repro.fs.journal.jbd2"] == "fs.journal"
    assert mapped["repro.fs.vfs"] == "fs"
    assert mapped["repro.block.scheduler.epoch"] == "block"
    assert mapped["repro.snapshot"] == "snapshot"
    assert mapped["repro"] == "core"
    assert layers.layer_of_module("reprox.storage") is None


def test_attribution_charges_foreign_self_time_to_the_calling_layer():
    device = (str(layers.SRC / "repro/storage/device.py"), 1, "service")
    journal = (str(layers.SRC / "repro/fs/journal/jbd2.py"), 1, "commit")
    builtin = ("~", 0, "<built-in method builtins.len>")
    harness = ("run.py", 1, "round")
    stats = {
        harness: (1, 1, 0.5, 4.0, {}),
        device: (2, 2, 1.0, 2.0, {harness: (2, 2, 1.0, 2.0)}),
        journal: (3, 3, 1.5, 2.0, {harness: (3, 3, 1.5, 2.0)}),
        builtin: (9, 9, 1.0, 1.0, {device: (3, 3, 0.25, 0.25), journal: (6, 6, 0.75, 0.75)}),
    }
    report = layers.attribute(stats, "analysis")
    assert report["storage"] == {"self_s": 1.25, "calls": 2}
    assert report["fs.journal"] == {"self_s": 2.25, "calls": 3}
    assert report["analysis"]["self_s"] == 0.5
    # No unnamed bucket: the layers account for all profiled self time.
    assert sum(entry["self_s"] for entry in report.values()) == 4.0


def test_recorded_table_checks_and_a_perturbed_table_fails():
    expected = workloads.load_expected()["reproduce"]
    tables = run_all(scale=1.0, names=["table1"])
    outcome = workloads.reproduce_outcome(([("table1", tables[0])], []))
    assert workloads.check_outcome(outcome, expected, None) == 0

    tables[0].rows[0] = tuple(tables[0].rows[0][:-1]) + (tables[0].rows[0][-1] * 1.001,)
    perturbed = workloads.reproduce_outcome(([("table1", tables[0])], []))
    assert workloads.check_outcome(perturbed, expected, None) == 1


def test_a_perturbed_verdict_fails_its_points():
    spec = ScenarioSpec(workload="sync-loop", config="EXT4-DR", barrier_mode="none",
                        params={"calls": 3})
    report = explore(spec, strategy="exhaustive")
    outcome = workloads.reproduce_outcome(([], [("cell", report)]))
    assert outcome.failed == 0
    reference = dict(outcome.digests)

    # Flip one oracle's verdict: the digest no longer matches.
    point = report.points[0]
    flipped = replace(point.verdicts[0], passed=not point.verdicts[0].passed)
    report.points[0] = replace(point, verdicts=(flipped,) + point.verdicts[1:])
    perturbed = workloads.reproduce_outcome(([], [("cell", report)]))
    assert workloads.check_outcome(perturbed, {}, reference) >= report.points_checked

    # A guaranteed oracle failing is an unexpected violation on any seed.
    broken = replace(point.verdicts[0], passed=False, guaranteed=True)
    report.points[0] = replace(point, verdicts=(broken,) + point.verdicts[1:])
    assert workloads.reproduce_outcome(([], [("cell", report)])).failed == 1


def _benchmark_trees():
    for path in sorted(HERE.glob("*.py")):
        if path.name != Path(__file__).name:
            yield path, ast.parse(path.read_text())


def test_benchmark_reads_no_private_attribute_of_repro():
    for path, tree in _benchmark_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                private = node.attr.startswith("_") and not node.attr.startswith("__")
                assert not private, f"{path.name}:{node.lineno} reads {node.attr}"
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                names = [alias.name for alias in node.names]
                assert not any(name.startswith("_") for name in names), (path.name, names)


def test_explore_gets_no_exploration_tuning_argument():
    calls = 0
    for path, tree in _benchmark_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                function = node.func
                name = getattr(function, "id", None) or getattr(function, "attr", None)
                if name in ("explore", "explore_cells"):
                    calls += 1
                    assert name == "explore" and len(node.args) == 1, path.name
                    assert {k.arg for k in node.keywords} <= {"strategy", "judge"}, path.name
    assert calls == 1


def test_verdicts_follow_the_bounds():
    higher = True
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1, higher) == "improved"
    assert compare.verdict(base, [v * 0.8 for v in base], 0.1, higher) == "worse"
    assert compare.verdict(base, [v * 0.98 for v in base], 0.1, higher) == "unchanged"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(base, noisy, 0.1, higher) == "unresolved"


def _manifest_units(section: str) -> dict[str, str]:
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in manifest[section]}


def test_every_workload_reports_the_manifest_metrics():
    assert run.END_TO_END == _manifest_units("end_to_end")
    assert run.per_layer_names() == _manifest_units("per_layer")
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in manifest["workloads"]} == set(workloads.WORKLOADS)


def _result_line(*args: str) -> dict:
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        assert run.main(["--workload", "fsync-loop", "--seed", "3", "--seconds", "0.1", *args]) == 0
    return json.loads(output.getvalue().splitlines()[-1])


def test_result_line_holds_exactly_the_manifest_metrics():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result = _result_line("--trace", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == _manifest_units(section)

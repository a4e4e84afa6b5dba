"""The benchmark's two workloads: what each runs, and how its outputs are checked.

Every workload is driven from one process through the public API only
(``repro.core.stack``, ``repro.analysis.measure``, ``repro.experiments.runner``,
``repro.scenarios.spec``, ``repro.crashlab``, ``repro.recovery``).  Each one
splits into

* ``setup(seed)`` -- everything built before the first timed call;
* a *round* -- a fixed amount of timed work producing the host seconds it
  was busy (the end-to-end ``round_s``), host-time samples of its parts and
  the simulated outputs of that work;
* a check of those outputs -- against the digests recorded in
  ``expected.json`` and, on every seed, against invariants that hold for any
  seed.  Every mismatch counts as a failed operation.

``fsync-loop`` isolates the per-sync hot path; ``reproduce`` is everything a
reproducer runs: the 11 paper tables, then a crashcheck and a recoverycheck
contrast pair.  An operation is a sync call, a table or a judged crash point.

A speed-only change to the program must leave every simulated output
identical, so a digest mismatch at seed 0 is a correctness failure, not noise.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from repro.analysis.measure import measure_sync_latency
from repro.core.stack import build_stack, standard_config
from repro.crashlab import explore, summary_result, violations_result
from repro.experiments.runner import ALL_EXPERIMENTS, run_all
from repro.recovery import CONTINUATION_ORACLE, ContinuationPlan, recovery_judge
from repro.scenarios.spec import ScenarioSpec

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: The seed whose outputs ``expected.json`` records.
RECORDED_SEED = 0

#: fsync-loop stacks, in round-robin order.  DR vs OD drives the same storage
#: and journal layers with and without the flush.
SYNC_STACKS = ("BFS-DR", "EXT4-DR", "BFS-OD", "EXT4-OD")
#: Sync calls per fsync-loop sample (about 0.2 s of host time each).
SYNC_CALLS = 400

#: reproduce's crash cells: (group, config, barrier mode, sync-loop calls).
#: Each group is a contrast pair: a barrier cell that must show no violation
#: and a legacy cell whose violations are expected witnesses.  The cells are
#: small (about 3 host seconds together, against about 5 for the tables):
#: their fork-bound host time swings more with machine load than the
#: tables' does.
CRASH_CELLS = (
    ("crashcheck", "BFS-DR", "in-order-recovery", 20),
    ("crashcheck", "EXT4-DR", "none", 20),
    ("recoverycheck", "BFS-DR", "in-order-recovery", 10),
    ("recoverycheck", "EXT4-OD", "none", 10),
)


def digest(text: str) -> str:
    """Short content digest of one output."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict:
    """The seed-0 output digests recorded in ``expected.json``."""
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


@dataclass
class Outcome:
    """Simulated outputs of one round plus the operations they stand for."""

    #: Output name -> digest (tables, cells, sync-loop samples).
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    #: Operations that failed while running (stopped sync loops, unexpected
    #: crash-point violations, empty tables), before any digest check.
    failed: int = 0
    #: Operations each output stands for: a mismatched output fails them all.
    ops_per_output: dict[str, int] = field(default_factory=dict)
    #: Simulated per-layer values (exact, seed-determined).
    sim: dict[str, float] = field(default_factory=dict)


def check_outcome(outcome: Outcome, expected: dict[str, str],
                  reference: dict[str, str] | None) -> int:
    """Failed operations of one round, digest mismatches included.

    ``expected`` holds the recorded digests that apply to this run's seed
    (all of them at seed 0, else only those of ``SEED_FREE_OUTPUTS``);
    ``reference`` holds the first round's digests of this run, against which
    every later round must repeat exactly.
    """
    failed = outcome.failed
    for name, value in outcome.digests.items():
        mismatched = (name in expected and expected[name] != value) or (
            reference is not None and reference.get(name) != value
        )
        if mismatched:
            failed += outcome.ops_per_output[name]
    return failed


# --------------------------------------------------------------- fsync-loop


def fsync_setup(seed: int) -> dict:
    return {name: standard_config(name, seed=seed) for name in SYNC_STACKS}


def fsync_round(configs: dict, rotation: int):
    """One closed-loop sync loop per stack, each on a fresh stack.

    The order starts at ``rotation`` so no stack always runs first.
    """
    count = len(SYNC_STACKS)
    order = SYNC_STACKS[rotation % count:] + SYNC_STACKS[:rotation % count]
    samples: dict[str, list[float]] = {}
    runs = []
    busy = 0.0
    for name in order:
        config = configs[name]
        stack = build_stack(config)
        # Collect earlier samples' garbage (stacks hold reference cycles)
        # before timing, so a sample pays only for collections its own work
        # causes.
        gc.collect()
        start = time.perf_counter()
        result = measure_sync_latency(stack, calls=SYNC_CALLS, sync_call=config.sync_call)
        elapsed = time.perf_counter() - start
        busy += elapsed
        samples[f"syncs_per_s.{name}"] = [SYNC_CALLS / elapsed]
        runs.append((name, stack, result))
    return busy, samples, runs


def fsync_outcome(runs) -> Outcome:
    outcome = Outcome()
    for name, stack, result in runs:
        stats = {
            "device": {k: v for k, v in asdict(stack.device.stats).items() if k != "queue_depth"},
            "block": asdict(stack.block.stats),
            "fs": asdict(stack.fs.stats),
        }
        outcome.digests[name] = digest(json.dumps({
            "samples": result.latencies.samples,
            "elapsed_usec": result.elapsed_usec,
            "context_switches_per_call": result.context_switches_per_call,
            "stopped_by": result.stopped_by,
            "stats": stats,
        }, sort_keys=True))
        calls = result.calls
        outcome.ops_per_output[name] = calls
        outcome.attempted += calls
        if result.stopped_by:
            outcome.failed += calls - len(result.latencies)
        summary = result.latencies.summary()
        values = {
            "sim.sync_latency_mean_us": summary.mean,
            "sim.sync_latency_p99_us": summary.p99,
            "storage.commands_per_sync": stats["device"]["commands_submitted"] / calls,
            "storage.flushes_per_sync": stats["device"]["flushes_serviced"] / calls,
            "storage.barrier_writes_per_sync": stats["device"]["barrier_writes"] / calls,
            "block.requests_per_sync": stats["block"]["requests_dispatched"] / calls,
            "fs.journal_commits_per_sync": stats["fs"]["journal_commits"] / calls,
            "simulation.context_switches_per_sync": result.context_switches_per_call,
        }
        for key, value in values.items():
            outcome.sim[f"{key}.{name}"] = value
    mean = "sim.sync_latency_mean_us"
    for mode in ("DR", "OD"):
        # The paper's claim on any seed: BarrierFS syncs faster than EXT4.
        if outcome.sim[f"{mean}.BFS-{mode}"] >= outcome.sim[f"{mean}.EXT4-{mode}"]:
            outcome.failed += SYNC_CALLS
    return outcome


# ---------------------------------------------------------------- reproduce


def reproduce_setup(seed: int):
    """The experiment names and the crash cells of ``seed``."""
    judge = partial(recovery_judge, plan=ContinuationPlan())
    cells = []
    for group, config, mode, calls in CRASH_CELLS:
        spec = ScenarioSpec(
            workload="sync-loop", config=config, barrier_mode=mode,
            seed=seed, params={"calls": calls},
        )
        cells.append((group, f"{group}.{config}.{mode}", spec,
                      judge if group == "recoverycheck" else None))
    return list(ALL_EXPERIMENTS), cells


def reproduce_round(state, index: int):
    """The 11 tables serially, then the crashcheck and recoverycheck pairs."""
    names, cells = state
    gc.collect()
    samples: dict[str, list[float]] = {}
    tables = []
    for name in names:
        start = time.perf_counter()
        tables.extend(run_all(scale=1.0, names=[name]))
        samples[f"experiments.{name}.wall_s"] = [time.perf_counter() - start]
    samples["suite_wall_s"] = [sum(samples[f"experiments.{name}.wall_s"][0] for name in names)]
    reports = []
    for group in ("crashcheck", "recoverycheck"):
        gc.collect()
        start = time.perf_counter()
        for cell_group, label, spec, judge in cells:
            if cell_group == group:
                reports.append((label, explore(spec, strategy="exhaustive", judge=judge)))
        samples[f"{group}_wall_s"] = [time.perf_counter() - start]
    busy = samples["suite_wall_s"][0] + samples["crashcheck_wall_s"][0] + samples["recoverycheck_wall_s"][0]
    return busy, samples, (list(zip(names, tables)), reports)


def reproduce_outcome(raw) -> Outcome:
    tables, reports = raw
    outcome = Outcome()
    for name, table in tables:
        outcome.digests[name] = digest(table.to_json())
        outcome.ops_per_output[name] = 1
        outcome.attempted += 1
        if not table.rows:
            outcome.failed += 1
    sim = dict.fromkeys((
        "crashlab.boundaries", "crashlab.points_judged", "crashlab.violations_expected",
        "crashlab.violations_unexpected", "recovery.remounts",
    ), 0)
    for label, report in reports:
        outcome.digests[label] = digest(
            summary_result([report]).to_json() + violations_result([report]).to_json()
        )
        outcome.ops_per_output[label] = report.points_checked
        outcome.attempted += report.points_checked
        # A guaranteed oracle failing is a bug, never an expected witness.
        outcome.failed += sum(1 for point in report.points if point.unexpected_violations)
        unexpected = len(report.unexpected_violations)
        sim["crashlab.boundaries"] += report.boundaries_total
        sim["crashlab.points_judged"] += report.points_checked
        sim["crashlab.violations_expected"] += len(report.violations) - unexpected
        sim["crashlab.violations_unexpected"] += unexpected
        # The recovery judge remounts once per judged point; its verdicts
        # carry the continuation oracle.
        sim["recovery.remounts"] += sum(
            1 for point in report.points
            if any(verdict.oracle == CONTINUATION_ORACLE for verdict in point.verdicts)
        )
    outcome.sim = sim
    return outcome


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``setup(seed)`` -> state built before the first timed call.
    setup: Callable
    #: ``round(state, index)`` -> (host seconds busy, part metric -> host-time
    #: samples, raw outputs).
    round: Callable
    #: ``outcome(raw outputs)`` -> :class:`Outcome`, computed outside timing.
    outcome: Callable
    #: Layer charged with the benchmark's own frames in the traced run.
    entry_layer: str
    #: Part metric -> unit: the round's parts, timed one by one.
    parts: dict


WORKLOADS = {
    "fsync-loop": Workload(
        "fsync-loop", fsync_setup, fsync_round, fsync_outcome, "analysis",
        {f"syncs_per_s.{name}": "1/s" for name in SYNC_STACKS},
    ),
    "reproduce": Workload(
        "reproduce", reproduce_setup, reproduce_round, reproduce_outcome, "experiments",
        {
            "suite_wall_s": "s",
            **{f"experiments.{name}.wall_s": "s" for name in ALL_EXPERIMENTS},
            "crashcheck_wall_s": "s",
            "recoverycheck_wall_s": "s",
        },
    ),
}

#: Outputs that do not depend on ``--seed``: the experiments pin their own
#: seeds (the published tables are one fixed reproduction), so their recorded
#: digests apply on every seed.  The other recorded digests apply at seed 0.
SEED_FREE_OUTPUTS = frozenset(ALL_EXPERIMENTS)

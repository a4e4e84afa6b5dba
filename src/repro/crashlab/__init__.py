"""Systematic crash-point exploration and recovery verification.

The paper's core claim is not just speed but *correctness under power
loss*: barrier-enabled devices preserve epoch-prefix durability without
flushes.  This package turns the crash/recovery primitives
(:mod:`repro.storage.crash`, :mod:`repro.core.verification`) into a checker
that adversarially validates that claim over the whole scenario matrix,
instead of relying on hand-picked crash instants:

* :mod:`repro.crashlab.points` — record every IO boundary of a run (the
  complete crash-point space) and select points to explore: exhaustive,
  stratified sampling, or bisection to the earliest failure.
* :mod:`repro.crashlab.engine` — run a
  :class:`~repro.scenarios.ScenarioSpec` once more and, at each chosen
  boundary, reconstruct the durable state a power cut would leave and run
  every applicable oracle inline; cells shard across worker processes.
* :mod:`repro.crashlab.oracles` — workload-level oracles (committed-log
  prefix for WAL-style workloads) on top of the core invariant families.
* :mod:`repro.crashlab.report` — per-cell verdict tables through the
  standard :class:`~repro.analysis.reporting.ExperimentResult` machinery.

Command line: ``python -m repro.experiments.runner crashcheck --workload
sync-loop --barrier-mode in-order-recovery --strategy exhaustive`` (see
``docs/CRASH_CONSISTENCY.md``).
"""

from repro.crashlab.engine import (
    check_point,
    explore,
    explore_cells,
    replay_to_point,
)
from repro.crashlab.points import (
    STRATEGIES,
    CrashPointReached,
    record_boundaries,
    select_points,
)
from repro.crashlab.report import (
    CellReport,
    OracleVerdict,
    PointVerdict,
    summary_result,
    violations_result,
)

__all__ = [
    "CellReport",
    "CrashPointReached",
    "OracleVerdict",
    "PointVerdict",
    "STRATEGIES",
    "check_point",
    "explore",
    "explore_cells",
    "record_boundaries",
    "replay_to_point",
    "select_points",
    "summary_result",
    "violations_result",
]

"""Crash-point recording and selection strategies.

Where can a crash land?  Only where the device's transferred-or-durable
state changes: after a write command's DMA transfer, after a program batch
reaches flash, and after a FLUSH completes.  Crashing anywhere *between* two
such boundaries produces the same durable state as crashing right after the
earlier one, so the boundaries are the complete crash-point space of a run —
the bounded black-box enumeration idea applied to the simulated stack.

:func:`record_boundaries` performs the recording pre-run: it runs a
:class:`~repro.scenarios.ScenarioSpec` once with an observing tap installed
on the storage device and returns every
:class:`~repro.storage.crash.CrashBoundary` it saw.  Because every spec run
is a deterministic, seeded simulation, boundary *k* of any later run is exactly
boundary *k* of the recording — which is what lets the exploration engine
judge the selected points in a second run of the same spec.

Three selection strategies turn the recorded boundary list into the set of
points actually explored:

* ``exhaustive`` — every boundary (evenly thinned to a ``points`` budget);
* ``stratified`` — seeded sampling, proportional per boundary kind so that
  rare flush boundaries are not drowned out by transfers;
* ``bisect`` — handled by the engine: binary search that narrows to the
  earliest failing boundary instead of evaluating a fixed set.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.storage.crash import CrashBoundary

#: The selection strategies exposed on the command line.
STRATEGIES = ("exhaustive", "stratified", "bisect")


class CrashPointReached(Exception):
    """Control-flow signal: the replay hit its designated crash boundary.

    Raised from inside the device's crash tap; it unwinds the simulation out
    of ``workload.run()``, leaving the device state exactly as it was at the
    boundary (power is cut by the engine immediately after).
    """

    def __init__(self, boundary: CrashBoundary):
        super().__init__(f"crash injected at boundary #{boundary.index}")
        self.boundary = boundary


def boundary_at(device, index: int, kind: str, pages: int) -> CrashBoundary:
    """The boundary a crash tap call describes, stamped with device state."""
    return CrashBoundary(
        index=index,
        kind=kind,
        time=device.sim.now,
        pages=pages,
        epoch=device.current_epoch,
    )


class BoundaryRecorder:
    """Observing tap: collects boundaries without perturbing the run."""

    def __init__(self, device):
        self.device = device
        self.boundaries: list[CrashBoundary] = []

    def __call__(self, kind: str, pages: int) -> None:
        self.boundaries.append(
            boundary_at(self.device, len(self.boundaries), kind, pages)
        )


class CrashTrigger:
    """Injecting tap: counts boundaries and cuts power at ``target_index``."""

    def __init__(self, device, target_index: int):
        self.device = device
        self.target_index = target_index
        self.count = 0

    def __call__(self, kind: str, pages: int) -> None:
        index = self.count
        self.count += 1
        if index == self.target_index:
            raise CrashPointReached(boundary_at(self.device, index, kind, pages))


def require_stack_workload(spec) -> None:
    """Reject raw-block workloads: crashlab needs a stack to crash/recover."""
    from repro.scenarios import WORKLOADS

    if not WORKLOADS.get(spec.workload).needs_stack:
        raise ValueError(
            f"workload {spec.workload!r} runs against the raw block device; "
            "crashlab needs a filesystem stack to crash and recover"
        )


def record_boundaries(spec) -> list[CrashBoundary]:
    """Run ``spec`` once and return every crash boundary it exposes."""
    from repro.scenarios import prepare_spec

    require_stack_workload(spec)
    workload = prepare_spec(spec)
    recorder = BoundaryRecorder(workload.stack.device)
    workload.stack.device.crash_tap = recorder
    workload.run()
    return recorder.boundaries


def select_points(
    strategy: str,
    boundaries: Sequence[CrashBoundary],
    *,
    points: int | None = None,
    seed: int = 0,
) -> list[int]:
    """Choose the boundary indices to explore, sorted ascending.

    ``points`` caps the budget; ``None`` means every boundary for
    ``exhaustive`` and a default budget of 32 for ``stratified``.  The
    ``bisect`` strategy picks its probes adaptively inside the engine and is
    rejected here.
    """
    if points is not None and points < 1:
        raise ValueError(f"the crash-point budget must be at least 1, got {points}")
    total = len(boundaries)
    if total == 0:
        return []
    if strategy == "exhaustive":
        if points is None or points >= total:
            return list(range(total))
        return evenly_spaced(total, points)
    if strategy == "stratified":
        budget = min(points if points is not None else 32, total)
        return _stratified_sample(boundaries, budget, seed)
    if strategy == "bisect":
        raise ValueError("bisect picks its probes adaptively; use explore()")
    raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


def evenly_spaced(total: int, budget: int) -> list[int]:
    """``budget`` indices spread evenly over ``range(total)``, ends included."""
    if budget <= 1:
        return [total - 1]
    step = (total - 1) / (budget - 1)
    return sorted({round(index * step) for index in range(budget)})


def _stratified_sample(
    boundaries: Sequence[CrashBoundary], budget: int, seed: int
) -> list[int]:
    """Seeded sample, allocated proportionally across boundary kinds.

    Every non-empty stratum gets at least one point, the remainder is split
    by stratum size; within a stratum the draw is a uniform sample without
    replacement.  The result depends only on (boundaries, budget, seed).
    """
    strata: dict[str, list[int]] = {}
    for boundary in boundaries:
        strata.setdefault(boundary.kind, []).append(boundary.index)
    kinds = sorted(strata)
    total = len(boundaries)

    # Give each stratum its proportional share (floored), then hand leftover
    # points to the largest strata — all deterministic.
    shares = {
        kind: max(1, (len(strata[kind]) * budget) // total) for kind in kinds
    }
    while sum(shares.values()) > budget:
        largest = max(kinds, key=lambda kind: (shares[kind], len(strata[kind])))
        shares[largest] -= 1
    leftovers = budget - sum(shares.values())
    for kind in sorted(kinds, key=lambda kind: -len(strata[kind])):
        if leftovers <= 0:
            break
        room = len(strata[kind]) - shares[kind]
        take = min(room, leftovers)
        shares[kind] += take
        leftovers -= take

    rng = random.Random(seed)
    chosen: list[int] = []
    for kind in kinds:
        pool = strata[kind]
        share = min(shares[kind], len(pool))
        if share > 0:
            chosen.extend(rng.sample(pool, share))
    return sorted(chosen)

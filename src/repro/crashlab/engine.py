"""The crash-exploration engine: record, select, judge inline.

One *cell* is a :class:`~repro.scenarios.ScenarioSpec`; exploring it means:

1. **Record** — run the spec once with an observing tap and collect every
   IO boundary (:func:`repro.crashlab.points.record_boundaries`).
2. **Select** — turn the boundary list into crash points (exhaustive /
   stratified budgets, or adaptive bisection).
3. **Judge** — run the spec once more with a judging tap
   (:func:`judge_points`).  At each selected boundary the tap reconstructs
   what a power cut would leave with
   :func:`repro.storage.crash.recover_durable_blocks`, runs every
   applicable oracle from the registry
   (:data:`repro.core.verification.ORACLES`) — or the caller's judge — and
   lets the run go on.  Nothing is powered off, raised or forked.

The inline verdict equals the one a from-scratch replay crashing at the
same boundary produces (:func:`check_point`, the reference path): the tap
fires before the device executes the boundary's next statement, so the
judge sees exactly the state the replay's crash captures, and recovery and
the oracles only read that state, so the run continues as if unobserved.
The trace tail is read with :meth:`repro.trace.Tracer.trace_tail_at_cut`,
which renders the spans a replay's ``finalize()`` would add for requests
left in flight.  ``tests/crashlab/test_inline_judging.py`` pins the
equality over drawn workloads, barrier modes, fault plans and judges.

Sharding: one cell is one run, so :func:`explore_cells` distributes whole
cells over worker processes with ``ProcessPoolExecutor.map``
(order-preserving); the reports are identical for any ``jobs`` value.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

from repro.core.verification import CrashProbe, VerificationError, applicable_oracles
from repro.crashlab import oracles as _workload_oracles  # noqa: F401 - registers oracles
from repro.crashlab.points import (
    CrashPointReached,
    CrashTrigger,
    boundary_at,
    evenly_spaced,
    record_boundaries,
    select_points,
)
from repro.crashlab.report import CellReport, OracleVerdict, PointVerdict
from repro.storage.crash import CrashBoundary, recover_durable_blocks


def _make_tracer(trace_tail: int):
    """The tracer a ``trace_tail=N`` exploration installs, or ``None``.

    One construction site for the inline and the replay path: trace-tail
    equality between them needs the identical buffer size.
    """
    if trace_tail <= 0:
        return None
    from repro.trace import Tracer

    return Tracer(buffer_size=max(trace_tail, 16), metrics=False)


def _point_verdict(
    probe: CrashProbe,
    boundary: Optional[CrashBoundary],
    index: int,
    tracer,
    trace_tail: int,
) -> PointVerdict:
    """Run every applicable oracle against a recovered probe.

    Shared by the inline and the replay path, so a verdict's content
    depends only on the recovered state — never on which path produced it.
    """
    verdicts = []
    for oracle in applicable_oracles(probe):
        passed, witness = True, None
        try:
            oracle.check(probe)
        except VerificationError as error:
            passed, witness = False, str(error)
        verdicts.append(
            OracleVerdict(
                oracle=oracle.name,
                passed=passed,
                guaranteed=bool(oracle.guaranteed(probe)),
                witness=witness,
            )
        )
    return PointVerdict(
        index=index,
        kind=boundary.kind if boundary is not None else "end-of-run",
        time=boundary.time if boundary is not None else probe.state.crash_time,
        verdicts=tuple(verdicts),
        trace_tail=(
            tuple(tracer.trace_tail_at_cut(trace_tail)) if tracer is not None else ()
        ),
    )


def replay_to_point(
    spec, index: int, *, tracer=None
) -> tuple[CrashProbe, Optional[CrashBoundary]]:
    """Re-run ``spec`` from scratch until boundary ``index``, crash, recover.

    Returns the probe (crash state + crashed stack) and the boundary the
    crash landed on — ``None`` when the run finished before reaching
    ``index`` (the probe then describes the end-of-run state).  A
    :class:`repro.trace.Tracer` passed in observes the replay up to the
    crash (its span buffer then holds the timeline leading to the failing
    boundary); tracing never changes which state the crash captures.
    """
    from repro.scenarios import prepare_spec

    workload = prepare_spec(spec, tracer=tracer)
    stack = workload.stack
    trigger = CrashTrigger(stack.device, index)
    stack.device.crash_tap = trigger
    boundary: Optional[CrashBoundary] = None
    try:
        workload.run()
    except CrashPointReached as crash:
        boundary = crash.boundary
    finally:
        stack.device.crash_tap = None
    if tracer is not None:
        tracer.finalize()  # flush requests left in flight by the crash
    stack.device.power_off()
    state = recover_durable_blocks(stack.device)
    probe = CrashProbe.from_stack(state, stack, spec=spec, workload=workload)
    return probe, boundary


def check_point(spec, index: int, *, trace_tail: int = 0, judge=None) -> PointVerdict:
    """Replay one crash point from scratch and run every applicable oracle.

    The reference path :func:`explore`'s inline judging is tested against,
    and the only way to judge a point past the end of the run (an
    ``end-of-run`` verdict).  ``trace_tail=N`` replays the point with the
    cross-layer tracer installed and attaches the last ``N`` spans before
    the crash to the verdict — the timeline a violation report shows.

    ``judge`` replaces the default verdict builder (:func:`_point_verdict`)
    with a callable of the same signature — ``runner recoverycheck``
    passes :func:`repro.recovery.recovery_judge` here.
    """
    tracer = _make_tracer(trace_tail)
    probe, boundary = replay_to_point(spec, index, tracer=tracer)
    verdict = judge if judge is not None else _point_verdict
    return verdict(probe, boundary, index, tracer, trace_tail)


def judge_points(
    spec, indices: Sequence[int], *, trace_tail: int = 0, judge=None
) -> list[PointVerdict]:
    """Run ``spec`` once, judging the crash state at each of ``indices``.

    Every index must name a boundary of the run (as recorded by
    :func:`~repro.crashlab.points.record_boundaries`), or ``ValueError``
    is raised; the verdicts come back in boundary order.
    """
    from repro.scenarios import prepare_spec

    wanted = set(indices)
    tracer = _make_tracer(trace_tail)
    workload = prepare_spec(spec, tracer=tracer)
    stack = workload.stack
    device = stack.device
    build_verdict = judge if judge is not None else _point_verdict
    verdicts: list[PointVerdict] = []
    count = 0

    def judging_tap(kind: str, pages: int) -> None:
        nonlocal count
        index = count
        count += 1
        if index in wanted:
            boundary = boundary_at(device, index, kind, pages)
            state = recover_durable_blocks(device)
            probe = CrashProbe.from_stack(state, stack, spec=spec, workload=workload)
            verdicts.append(build_verdict(probe, boundary, index, tracer, trace_tail))

    device.crash_tap = judging_tap
    try:
        workload.run()
    finally:
        device.crash_tap = None
    if len(verdicts) != len(wanted):
        raise ValueError(
            f"points {sorted(wanted)[len(verdicts):]} lie past the {count} "
            f"boundaries spec {spec.display_label!r} exposed"
        )
    return verdicts


def bisect_probes(
    total: int, fails: Callable[[int], bool], *, points: Optional[int] = None
) -> list[int]:
    """Narrow to the earliest failing boundary: scout, then binary-refine.

    Returns the probed indices, sorted.  Crash violations are not monotone
    over the boundary index — a run typically ends clean once the final
    drain completes — so a plain binary search has nothing to anchor on.
    Instead the search *scouts* with evenly spaced probes at doubling
    density (up to the ``points`` budget, default 32) until some probe
    fails, then binary-searches the gap between that failure and the
    nearest passing probe below it.  The result holds a failing boundary
    whose immediate predecessor passes — the earliest failure up to local
    monotonicity.  ``fails`` is asked at most once per index.
    """
    evaluated: dict[int, bool] = {}

    def probe(index: int) -> bool:
        if index not in evaluated:
            evaluated[index] = fails(index)
        return evaluated[index]

    if total == 0:
        return []
    budget = min(points if points is not None else 32, total)

    earliest_failure: Optional[int] = None
    density = min(8, budget)
    while True:
        # Scout below the earliest failure known so far (the whole range at
        # first); every new failure strictly shrinks the scouted range, every
        # clean pass doubles the density, and probes are cached.
        limit = earliest_failure if earliest_failure is not None else total
        found = None
        if limit > 0:
            for index in evenly_spaced(limit, min(density, limit)):
                if probe(index):
                    found = index
                    break
        if found is not None:
            earliest_failure = found
            continue
        if density >= budget:
            break
        density = min(density * 2, budget)
    if earliest_failure is not None:
        low = max(
            (index for index in evaluated if index < earliest_failure and not probe(index)),
            default=-1,
        )
        high = earliest_failure
        while high - low > 1:
            mid = (low + high) // 2
            if probe(mid):
                high = mid
            else:
                low = mid
    return sorted(evaluated)


def explore(
    spec,
    *,
    strategy: str = "exhaustive",
    points: Optional[int] = None,
    seed: int = 0,
    trace_tail: int = 0,
    judge=None,
) -> CellReport:
    """Explore one scenario cell and return its :class:`CellReport`.

    ``trace_tail=N`` traces the judging run and attaches the last ``N``
    spans before each crash point to its verdict (rendered by the
    violation report).

    ``bisect`` judges every boundary in the one judging run and then runs
    its search (:func:`bisect_probes`) over those verdicts; the report
    holds only the probed points.

    ``judge`` replaces the per-point verdict builder (see
    :func:`check_point`); ``None`` keeps the registered-oracle default, so
    existing ``crashcheck``/``faultcheck`` tables are untouched.
    """
    if points is not None and points < 1:
        raise ValueError(f"the crash-point budget must be at least 1, got {points}")
    boundaries = record_boundaries(spec)
    if strategy == "bisect":
        every = judge_points(
            spec, range(len(boundaries)), trace_tail=trace_tail, judge=judge
        )
        probed = bisect_probes(
            len(every), lambda index: bool(every[index].violations), points=points
        )
        verdicts = [every[index] for index in probed]
    else:
        indices = select_points(strategy, boundaries, points=points, seed=seed)
        verdicts = judge_points(spec, indices, trace_tail=trace_tail, judge=judge)
    return CellReport(
        spec=spec,
        strategy=strategy,
        seed=seed,
        boundaries_total=len(boundaries),
        points=verdicts,
    )


def explore_cells(
    specs: Sequence,
    *,
    strategy: str = "exhaustive",
    points: Optional[int] = None,
    seed: int = 0,
    jobs: int = 1,
    trace_tail: int = 0,
    judge=None,
) -> list[CellReport]:
    """Explore several cells (the ``runner crashcheck`` matrix), in order.

    With ``jobs > 1`` whole cells run in worker processes; a ``judge``
    must then pickle (module-level, or a ``functools.partial`` over
    picklable values, like the recovery judge).
    """
    specs = list(specs)
    explore_one = partial(
        explore,
        strategy=strategy,
        points=points,
        seed=seed,
        trace_tail=trace_tail,
        judge=judge,
    )
    if jobs <= 1 or len(specs) <= 1:
        return [explore_one(spec) for spec in specs]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(jobs, len(specs)),
        mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        return list(pool.map(explore_one, specs))

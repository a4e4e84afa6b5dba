"""Inline crash judging vs from-scratch replay: the differential test.

``explore`` judges every selected crash point inside one run of the spec;
``check_point`` rebuilds the spec from scratch, runs it up to one boundary,
cuts power and judges there.  Inline judging is only a faster way to the
same report, so for any drawn cell — workload, configuration × barrier
mode, fault plan, seed, strategy, trace tail and judge — the report from
``explore`` must equal the one assembled from ``check_point`` verdicts at
the same indices, down to the JSON bytes.
"""

from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crashlab import (
    CellReport,
    check_point,
    explore,
    explore_cells,
    record_boundaries,
    select_points,
    summary_result,
    violations_result,
)
from repro.crashlab.engine import bisect_probes, judge_points
from repro.recovery import ContinuationPlan, recovery_judge
from repro.scenarios import ScenarioSpec

#: Every valid (config, barrier-mode) pairing: EXT4-DR runs on orderless
#: devices, the BFS configs need a barrier-capable mode.
CELLS = (
    ("EXT4-DR", "none"),
    ("EXT4-DR", "plp"),
    ("BFS-DR", "in-order-writeback"),
    ("BFS-DR", "transactional"),
    ("BFS-DR", "in-order-recovery"),
)
WORKLOADS = (("sync-loop", {"calls": 6}), ("postgres-wal", {"commits": 4}))
FAULT_PLANS = ((), ("flush-lie",), ("torn-write",), ("io-error:p=0.2",))
JUDGES = (None, partial(recovery_judge, plan=ContinuationPlan(calls=2)))


@st.composite
def explorations(draw):
    """A spec plus the ``explore`` keyword arguments to judge it with."""
    workload, params = draw(st.sampled_from(WORKLOADS))
    config, mode = draw(st.sampled_from(CELLS))
    seed = draw(st.integers(min_value=0, max_value=3))
    spec = ScenarioSpec(
        workload=workload,
        config=config,
        device="plain-ssd",
        barrier_mode=mode,
        seed=seed,
        params=params,
        faults=draw(st.sampled_from(FAULT_PLANS)),
    )
    strategy = draw(st.sampled_from(("exhaustive", "stratified", "bisect")))
    points = draw(st.integers(min_value=1, max_value=12)) if strategy == "stratified" else None
    return spec, {
        "strategy": strategy,
        "points": points,
        "seed": seed,
        "trace_tail": draw(st.sampled_from((0, 4))),
        "judge": draw(st.sampled_from(JUDGES)),
    }


def replayed_report(spec, *, strategy, points, seed, trace_tail, judge) -> CellReport:
    """The report ``explore`` must produce, built from scratch replays."""
    boundaries = record_boundaries(spec)
    replay = partial(check_point, spec, trace_tail=trace_tail, judge=judge)
    if strategy == "bisect":
        replayed = {}

        def fails(index):
            replayed[index] = replay(index)
            return bool(replayed[index].violations)

        probed = bisect_probes(len(boundaries), fails, points=points)
        verdicts = [replayed[index] for index in probed]
    else:
        indices = select_points(strategy, boundaries, points=points, seed=seed)
        verdicts = [replay(index) for index in indices]
    return CellReport(
        spec=spec,
        strategy=strategy,
        seed=seed,
        boundaries_total=len(boundaries),
        points=verdicts,
    )


def report_json(report: CellReport) -> str:
    return summary_result([report]).to_json() + violations_result([report]).to_json()


@given(exploration=explorations())
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_inline_report_equals_replayed_report(exploration):
    spec, kwargs = exploration
    inline = explore(spec, **kwargs)
    replayed = replayed_report(spec, **kwargs)
    assert inline == replayed
    assert report_json(inline) == report_json(replayed)
    # No output may depend on what else ran in the process.
    assert report_json(explore(spec, **kwargs)) == report_json(inline)


def test_trace_tails_and_witnesses_are_covered():
    """The drawn space reaches what the equality must hold for."""
    spec = ScenarioSpec(
        workload="sync-loop",
        config="EXT4-DR",
        device="plain-ssd",
        barrier_mode="none",
        params={"calls": 12},
    )
    kwargs = {"strategy": "exhaustive", "points": None, "seed": 0,
              "trace_tail": 4, "judge": JUDGES[1]}
    inline = explore(spec, **kwargs)
    assert inline.violations, "the legacy cell must produce witnesses"
    assert any("unfinished=True" in line
               for point in inline.points for line in point.trace_tail)
    assert inline == replayed_report(spec, **kwargs)


def spec_for(mode: str, *, workload: str = "sync-loop", faults=(), **params):
    params = params or (
        {"calls": 8} if workload == "sync-loop" else {"commits": 6}
    )
    return ScenarioSpec(
        workload=workload,
        config="EXT4-DR",
        device="plain-ssd",
        barrier_mode=mode,
        params=params,
        faults=faults,
    )


def grids(spec, **kwargs):
    """The (replayed, inline) reports of one exploration setup."""
    kwargs = {"strategy": "exhaustive", "points": None, "seed": 0,
              "trace_tail": 0, "judge": None, **kwargs}
    return replayed_report(spec, **kwargs), explore(spec, **kwargs)


class TestBitIdentity:
    """Fixed cells pinned inline == scratch, beside the drawn ones above."""

    @pytest.mark.parametrize(
        "mode", ["none", "plp", "in-order-writeback", "transactional", "in-order-recovery"]
    )
    def test_every_barrier_mode_sync_loop(self, mode):
        replayed, inline = grids(spec_for(mode))
        assert replayed.points == inline.points
        assert replayed.boundaries_total == inline.boundaries_total

    def test_postgres_wal_cell(self):
        replayed, inline = grids(spec_for("in-order-recovery", workload="postgres-wal"))
        assert replayed.points == inline.points

    def test_violation_witnesses_survive_inline_judging(self):
        replayed, inline = grids(spec_for("none", calls=12))
        assert replayed.violations, "the legacy cell must produce witnesses"
        assert [
            (point.index, verdict.witness) for point, verdict in replayed.violations
        ] == [(point.index, verdict.witness) for point, verdict in inline.violations]

    def test_sharded_cells_equal_scratch_replays(self):
        specs = [spec_for(mode, calls=10) for mode in ("none", "in-order-recovery")]
        sharded = explore_cells(specs, strategy="exhaustive", jobs=2)
        assert sharded == [grids(spec)[0] for spec in specs]

    def test_fault_plan_replays_identically(self):
        # The injector's fault sites derive from (plan, seed); the judging
        # run reads the crash state mid-stream and must see exactly what a
        # scratch replay's rebuilt injector produced up to the same cut.
        spec = spec_for("in-order-recovery", faults=("torn-write:p=0.3",), calls=10)
        replayed, inline = grids(spec)
        assert replayed.points == inline.points

    def test_trace_tails_are_bit_identical(self):
        replayed, inline = grids(spec_for("none", calls=10), trace_tail=6)
        assert any(point.trace_tail for point in replayed.points)
        assert [point.trace_tail for point in replayed.points] == [
            point.trace_tail for point in inline.points
        ]

    def test_bisect_filters_the_judged_boundaries(self):
        replayed, inline = grids(spec_for("none", calls=12), strategy="bisect")
        assert replayed.points == inline.points
        assert len(inline.points) < inline.boundaries_total
        assert min(p.index for p in inline.points if p.violations) == min(
            p.index for p in replayed.points if p.violations
        )

    def test_stratified_sample_matches_scratch(self):
        spec = spec_for("in-order-recovery", calls=10)
        replayed, inline = grids(spec, strategy="stratified", points=5, seed=3)
        assert [point.index for point in inline.points] == [
            point.index for point in replayed.points
        ]
        assert len(inline.points) == 5
        assert replayed.points == inline.points


class TestJudgePoints:
    def test_indices_past_the_last_boundary_are_rejected(self):
        # Only check_point reaches an end-of-run state; the judging run
        # refuses an index it never crosses instead of silently dropping it.
        spec = spec_for("in-order-recovery")
        total = len(record_boundaries(spec))
        assert check_point(spec, total + 5).kind == "end-of-run"
        with pytest.raises(ValueError, match="past the"):
            judge_points(spec, [0, total + 5])

    def test_verdicts_come_back_in_boundary_order(self):
        spec = spec_for("in-order-recovery")
        verdicts = judge_points(spec, [9, 2, 5])
        assert [verdict.index for verdict in verdicts] == [2, 5, 9]
        assert verdicts == [check_point(spec, index) for index in (2, 5, 9)]

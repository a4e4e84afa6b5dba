"""Exploration engine: determinism, verdicts, and the ability to fail.

The acceptance contract of the subsystem: a barrier-honouring cell passes
every applicable oracle at *every* crash point, the legacy ``NONE`` cell
produces concrete violation witnesses (a checker that cannot fail checks
nothing), and the reports are bit-identical however many worker processes
the cells were sharded over.
"""

from repro.crashlab import check_point, explore, explore_cells, record_boundaries
from repro.scenarios import ScenarioSpec


def spec_for(mode: str, *, calls: int = 8) -> ScenarioSpec:
    return ScenarioSpec(
        workload="sync-loop",
        config="EXT4-DR",
        device="plain-ssd",
        barrier_mode=mode,
        params={"calls": calls},
    )


class TestVerdicts:
    def test_barrier_mode_passes_every_exhaustive_point(self):
        report = explore(spec_for("in-order-recovery"), strategy="exhaustive")
        assert report.points_checked == report.boundaries_total > 0
        assert report.violations == []
        # Every core oracle family actually ran.
        assert {"epoch-prefix", "storage-order-prefix", "journal-recovery"} <= set(
            report.oracle_names
        )

    def test_legacy_none_mode_produces_a_violation_witness(self):
        """The checker must be able to fail: legacy drain order is visible.

        Under ``NONE`` the controller persists in arbitrary order, so the
        ordering-prefix family (the transfer-granularity form of the
        epoch-prefix guarantee — EXT4 issues no barrier writes, so every
        page shares epoch 0 and only the transfer order can witness the
        misbehaviour) must report at least one violation, with a concrete
        lost-page witness.
        """
        report = explore(spec_for("none", calls=12), strategy="exhaustive")
        assert report.violations, "legacy NONE must violate the ordering prefix"
        point, verdict = report.violations[0]
        assert verdict.oracle == "storage-order-prefix"
        assert "was lost while a later transfer" in verdict.witness
        # The violation is an expected legacy witness, not a checker bug.
        assert not verdict.guaranteed
        assert report.unexpected_violations == []

    def test_end_of_run_point_beyond_last_boundary(self):
        spec = spec_for("in-order-recovery")
        total = len(record_boundaries(spec))
        verdict = check_point(spec, total + 5)
        assert verdict.kind == "end-of-run"
        assert verdict.verdicts, "oracles still run against the final state"


CELLS = [spec_for(mode) for mode in ("none", "plp", "in-order-recovery")]


class TestDeterminism:
    def test_reports_are_bit_identical_across_jobs(self):
        serial = explore_cells(CELLS, strategy="exhaustive", jobs=1)
        sharded = explore_cells(CELLS, strategy="exhaustive", jobs=4)
        assert [report.spec for report in serial] == CELLS
        assert serial == sharded

    def test_legacy_violations_identical_across_jobs_and_runs(self):
        reports = [
            explore_cells(CELLS, strategy="stratified", points=10, seed=7, jobs=jobs)
            for jobs in (1, 4, 1)
        ]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0][0].violations, "the legacy cell must produce witnesses"

    def test_seed_changes_the_stratified_sample(self):
        spec = spec_for("in-order-recovery")
        first = explore(spec, strategy="stratified", points=6, seed=0)
        second = explore(spec, strategy="stratified", points=6, seed=1)
        assert [p.index for p in first.points] != [p.index for p in second.points]


class TestBisect:
    def test_bisect_narrows_to_a_locally_earliest_failure(self):
        report = explore(spec_for("none", calls=12), strategy="bisect")
        failing = [p.index for p in report.points if p.violations]
        assert failing, "bisect must find the legacy failure"
        earliest = min(failing)
        ground_truth = explore(spec_for("none", calls=12), strategy="exhaustive")
        truth = min(p.index for p in ground_truth.points if p.violations)
        assert earliest == truth
        # The boundary right below the earliest failure passes.
        if earliest > 0:
            passed = [p.index for p in report.points if not p.violations]
            assert earliest - 1 in passed

    def test_bisect_terminates_cleanly_when_nothing_fails(self):
        report = explore(spec_for("in-order-recovery"), strategy="bisect", points=8)
        assert report.violations == []
        assert 0 < report.points_checked <= report.boundaries_total

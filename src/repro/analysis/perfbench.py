"""Engine performance tracking (``BENCH_engine.json``).

The discrete-event loop in :mod:`repro.simulation.engine` multiplies into
every figure and table of the reproduction, so its throughput is tracked as
a first-class artifact.  This module measures four rates:

* ``events_per_sec`` — bare timer events through the heap (little process
  involvement): the cost of schedule + pop + trigger.
* ``wakeups_per_sec`` — a process blocking on a pending timeout per
  iteration: the cost of the block/wakeup/resume cycle.
* ``fsync_ops_per_sec`` — ``fsync()`` calls per second on the full
  ``standard_config("BFS-DR")`` stack: the end-to-end figure-regeneration
  rate.
* ``table1_wallclock_sec`` — wall-clock seconds to regenerate Table 1.
* ``fault_hook_overhead_pct`` — slowdown of the fsync path with a
  never-firing :class:`repro.faults.FaultInjector` installed, relative to
  no injector at all.  The injection hooks are ``is None`` attribute tests
  on the device hot path; this metric pins their cost (the guard is that
  the fault subsystem stays effectively free when unused).
* ``trace_overhead_pct`` — same shape for the tracing subsystem: the fsync
  path with a :class:`repro.trace.Tracer` installed but disabled, relative
  to no tracer at all.  An uninstalled tracer costs exactly nothing (the
  original methods are untouched); this pins the installed-but-idle cost.
* ``recovery_overhead_pct`` — same shape for the error-propagation checks
  of :mod:`repro.recovery`: the fsync path with
  ``fs.enable_error_propagation()`` swapped in (strict per-request error
  checks on every sync) on a fault-free run, relative to the default
  never-checking no-ops.  The guard is that recover-and-continue
  machinery stays effectively free on the no-fault hot path.
  All overhead metrics report the median of interleaved sample pairs —
  see :func:`_installed_hook_overhead_pct` for the noise discipline.
* ``crashcheck_replay_wall_sec`` / ``crashcheck_inline_wall_sec`` /
  ``crash_inline_speedup`` — wall-clock of one exhaustive crashcheck cell
  with every point replayed from scratch vs judged inline in one run
  (:func:`repro.crashlab.explore`), and their ratio: the O(points × run)
  → O(run) lever of :mod:`repro.crashlab`.

``python -m repro.analysis.perfbench`` appends one record to
``BENCH_engine.json`` so the perf trajectory is recorded PR over PR; see
docs/PERFORMANCE.md for how to read it.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any, Callable

from repro.analysis.measure import measure_sync_latency
from repro.core.stack import build_stack, standard_config
from repro.simulation.engine import Simulator

#: Default location of the perf-trajectory record, at the repository root.
DEFAULT_OUTPUT = "BENCH_engine.json"


def engine_events_rate(num_events: int = 200_000) -> float:
    """Timer events per second through the event loop."""
    sim = Simulator()

    def clock():
        timeout = sim.timeout
        for _ in range(num_events):
            yield timeout(1)

    sim.process(clock())
    start = time.perf_counter()
    sim.run()
    return num_events / (time.perf_counter() - start)


def process_wakeup_rate(num_wakeups: int = 100_000) -> float:
    """Block/wakeup/resume cycles per second (two processes ping-ponging)."""
    sim = Simulator()
    half = num_wakeups // 2
    mailbox = {"ping": sim.event(), "pong": sim.event()}

    def pinger():
        for _ in range(half):
            mailbox["ping"].succeed()
            pong = mailbox["pong"] = sim.event()
            yield pong

    def ponger():
        for _ in range(half):
            ping = mailbox["ping"]
            if not ping.triggered:
                yield ping
            mailbox["ping"] = sim.event()
            mailbox["pong"].succeed()
            yield sim.timeout(0)

    sim.process(pinger())
    sim.process(ponger())
    start = time.perf_counter()
    sim.run()
    return num_wakeups / (time.perf_counter() - start)


def fsync_rate(calls: int = 400, config: str = "BFS-DR") -> float:
    """``fsync()`` operations per second on the full simulated stack."""
    stack = build_stack(standard_config(config))
    start = time.perf_counter()
    measure_sync_latency(stack, calls=calls, sync_call="fsync", allocating=True)
    return calls / (time.perf_counter() - start)


def _installed_hook_overhead_pct(
    install, calls: int, config: str, samples: int
) -> float:
    """Percent full-loop events/sec cost of an installed-but-inert hook.

    Shared measurement core of :func:`fault_hook_overhead_pct` and
    :func:`trace_overhead_pct`.  Each sample builds the stack fresh, runs
    the fsync loop, and divides the number of engine events the run
    scheduled (the sequence counter — the loop's true unit of work,
    identical on both sides) by its CPU time: an *end-to-end* events/sec
    rate of the whole service loop, not a timing of the inner hook (which
    is what let the PR 6 regression slip past this metric's earlier
    fsync-calls/sec form).

    Noise discipline: the clean and hooked sides are sampled as
    back-to-back *pairs*, and the reported figure is the **median of the
    per-pair overheads**.  A pair shares one slice of machine weather, so
    dilation that hits both sides cancels inside its ratio; the median
    then discards the excursions where a scheduling spike hit only one
    side — in either direction.  (The previous best-of-each-side form
    compared two samples from different moments and swung several percent
    both ways across BENCH entries, flapping the CI gates.)  Values within
    a couple percent of zero mean the hook is in the noise.
    """
    def events_rate(hooked: bool) -> float:
        stack = build_stack(standard_config(config))
        if hooked:
            install(stack)
        start = time.process_time()
        measure_sync_latency(stack, calls=calls, sync_call="fsync", allocating=True)
        elapsed = time.process_time() - start
        events = next(stack.sim._sequence)
        return events / elapsed

    events_rate(True)  # warm-up (imports, caches) so ordering doesn't bias
    overheads = []
    for _ in range(samples):
        clean = events_rate(False)
        hooked = events_rate(True)
        overheads.append(100.0 * (clean - hooked) / clean)
    return statistics.median(overheads)


def fault_hook_overhead_pct(
    calls: int = 400, config: str = "BFS-DR", samples: int = 9
) -> float:
    """Percent full-loop events/sec cost of an inert installed injector.

    A plan whose trigger cannot fire (``torn-write:p=0``) exercises every
    hook — the checked device service path, the error-aware completion
    wiring — without perturbing the simulation, so the two runs process
    identical event sequences apart from the hooks themselves.  Measured
    by :func:`_installed_hook_overhead_pct`: median of per-pair
    interleaved overheads (the guard is that the fault subsystem stays
    effectively free when unused).
    """
    from repro.faults import FaultInjector

    def install(stack):
        FaultInjector(["torn-write:p=0"], seed=0).install(stack.device)

    return _installed_hook_overhead_pct(install, calls, config, samples)


def trace_overhead_pct(
    calls: int = 400, config: str = "BFS-DR", samples: int = 9
) -> float:
    """Percent full-loop events/sec cost of tracing when it is not used.

    Compares the fsync path with no tracer at all against one *installed
    but idle* (``Tracer(enabled=False)``): the wrappers are method-swapped
    in, each reduced to one flag test plus delegation.  The uninstalled
    side is the number the subsystem's design promises is free — no tracer
    means the original bound methods, zero added branches — so this metric
    measures the residual cost of keeping the hooks resident.  Measured by
    :func:`_installed_hook_overhead_pct`: median of per-pair interleaved
    overheads.
    """
    from repro.trace import Tracer

    def install(stack):
        Tracer(enabled=False).install(stack)

    return _installed_hook_overhead_pct(install, calls, config, samples)


def recovery_overhead_pct(
    calls: int = 400, config: str = "BFS-DR", samples: int = 9
) -> float:
    """Percent full-loop events/sec cost of strict error propagation.

    ``enable_error_propagation()`` method-swaps the filesystem's
    per-request error checks from the default no-ops to the strict forms
    that raise :class:`~repro.fs.errors.EIOError` on a failed block
    request.  On a fault-free run the strict checks inspect every
    completed request and find nothing, so the two sides process
    identical event sequences apart from the checks themselves — the
    same inert-hook shape as :func:`fault_hook_overhead_pct`.  Measured
    by :func:`_installed_hook_overhead_pct`: median of per-pair
    interleaved overheads (the guard is that recovery error checking
    stays effectively free when no faults fire).
    """

    def install(stack):
        stack.fs.enable_error_propagation()

    return _installed_hook_overhead_pct(install, calls, config, samples)


def sweep_warm_start_metrics(
    *, repeats: int = 3, quick: bool = False
) -> dict[str, float]:
    """Wall-clock of a warmup-heavy sweep, from scratch vs. warm-started.

    The sweep is four sync-loop cells sharing one warmup prefix and varying
    only the measured call count — the shape ``--warm-start`` exists for.
    ``sweep_warm_speedup`` is scratch-wall over warm-wall (best of
    ``repeats`` each); prefix snapshots should hold it well above 1.5x on
    any fork-capable platform.  Results of the two paths are bit-identical
    (pinned by ``tests/scenarios/test_warm_start.py``); this only records
    the wall-clock lever.
    """
    from repro.scenarios.engine import run_specs
    from repro.scenarios.spec import ScenarioSpec

    warmup = 120 if quick else 400
    specs = [
        ScenarioSpec(
            workload="sync-loop",
            config="BFS-DR",
            device="ufs",
            params={"warmup_calls": warmup, "calls": calls},
            label=f"calls={calls}",
        )
        for calls in (10, 20, 30, 40)
    ]

    def wall(warm_start: bool) -> float:
        start = time.perf_counter()
        run_specs(specs, warm_start=warm_start)
        return time.perf_counter() - start

    scratch = min(wall(False) for _ in range(repeats))
    warm = min(wall(True) for _ in range(repeats))
    return {
        "sweep_scratch_wall_sec": round(scratch, 4),
        "sweep_matrix_wall_sec": round(warm, 4),
        "sweep_warm_speedup": round(scratch / warm, 2) if warm > 0 else 0.0,
    }


def crash_inline_metrics(*, quick: bool = False) -> dict[str, float]:
    """Wall-clock of an exhaustive crashcheck cell, replayed vs judged inline.

    The cell is sync-loop on EXT4-DR × in-order-recovery, every recorded
    boundary explored.  The replay side rebuilds the report the way
    :func:`repro.crashlab.check_point` judges one point — a from-scratch
    run per boundary, O(points × run); :func:`repro.crashlab.explore`
    judges every boundary inside one run.  ``crash_inline_speedup`` is the
    replay wall over the inline wall; the two reports must be equal, or the
    benchmark fails instead of recording a ratio of different work.
    """
    from repro.crashlab import CellReport, check_point, explore, record_boundaries
    from repro.scenarios.spec import ScenarioSpec

    spec = ScenarioSpec(
        workload="sync-loop",
        config="EXT4-DR",
        device="plain-ssd",
        barrier_mode="in-order-recovery",
        params={"calls": 60 if quick else 160},
    )

    start = time.perf_counter()
    total = len(record_boundaries(spec))
    replayed = CellReport(
        spec=spec,
        strategy="exhaustive",
        seed=0,
        boundaries_total=total,
        points=[check_point(spec, index) for index in range(total)],
    )
    replay = time.perf_counter() - start
    start = time.perf_counter()
    inline_report = explore(spec, strategy="exhaustive")
    inline = time.perf_counter() - start
    if inline_report != replayed:
        raise AssertionError(
            "inline crash judging disagrees with from-scratch replay on "
            f"{spec.describe()}"
        )
    return {
        "crashcheck_replay_wall_sec": round(replay, 4),
        "crashcheck_inline_wall_sec": round(inline, 4),
        "crash_inline_speedup": round(replay / inline, 2) if inline > 0 else 0.0,
    }


def table1_wallclock(scale: float = 1.0) -> float:
    """Wall-clock seconds to regenerate Table 1 at ``scale``."""
    from repro.experiments import table1_fsync_latency

    start = time.perf_counter()
    table1_fsync_latency.run(scale)
    return time.perf_counter() - start


def _best(fn: Callable[[], float], repeats: int, *, minimize: bool = False) -> float:
    samples = [fn() for _ in range(repeats)]
    return min(samples) if minimize else max(samples)


def collect_metrics(*, repeats: int = 3, quick: bool = False) -> dict[str, float]:
    """Run every microbenchmark and return best-of-``repeats`` rates."""
    events = 50_000 if quick else 200_000
    wakeups = 25_000 if quick else 100_000
    calls = 100 if quick else 400
    scale = 0.25 if quick else 1.0
    metrics = {
        "events_per_sec": round(_best(lambda: engine_events_rate(events), repeats), 1),
        "wakeups_per_sec": round(
            _best(lambda: process_wakeup_rate(wakeups), repeats), 1
        ),
        "fsync_ops_per_sec": round(_best(lambda: fsync_rate(calls), repeats), 1),
        "table1_wallclock_sec": round(
            _best(lambda: table1_wallclock(scale), repeats, minimize=True), 4
        ),
        "table1_scale": scale,
        # One call with more interleaved pairs, not best-of-repeats: the
        # median over per-pair overheads is the de-noised estimator; an
        # outer best-of would re-introduce exactly the one-sided excursions
        # the median exists to discard.
        "fault_hook_overhead_pct": round(
            fault_hook_overhead_pct(calls, samples=max(9, 3 * repeats)), 2
        ),
        "trace_overhead_pct": round(
            trace_overhead_pct(calls, samples=max(9, 3 * repeats)), 2
        ),
        "recovery_overhead_pct": round(
            recovery_overhead_pct(calls, samples=max(9, 3 * repeats)), 2
        ),
    }
    metrics.update(sweep_warm_start_metrics(repeats=repeats, quick=quick))
    # One timed pass each: the replay side alone dwarfs every other
    # benchmark here, and a ratio this far above its floor does not need
    # repeats to clear the gate.
    metrics.update(crash_inline_metrics(quick=quick))
    return metrics


def _git_revision() -> str:
    """Short revision, with a ``-dirty`` suffix for uncommitted trees.

    The suffix matters: a record benchmarked from an uncommitted tree must
    not be attributed to its (unmodified) parent commit.
    """
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        if not revision:
            return "unknown"
        status = subprocess.run(
            ["git", "status", "--porcelain", "-uno"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        return f"{revision}-dirty" if status else revision
    except Exception:
        return "unknown"


def record(
    path: str | Path = DEFAULT_OUTPUT,
    *,
    label: str = "",
    repeats: int = 3,
    quick: bool = False,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Benchmark and append one record to the trajectory file at ``path``.

    The file holds ``{"history": [record, ...]}``; each record carries the
    metrics plus enough provenance (git revision, python, timestamp) to read
    the trajectory later.  Returns the appended record.
    """
    path = Path(path)
    entry: dict[str, Any] = {
        "label": label or _git_revision(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git": _git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "metrics": collect_metrics(repeats=repeats, quick=quick),
    }
    if extra:
        entry.update(extra)
    document = {"history": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError:
            loaded = None  # corrupt record: start a fresh history
        if isinstance(loaded, dict) and isinstance(loaded.get("history"), list):
            document = loaded
    document["history"].append(entry)
    path.write_text(json.dumps(document, indent=1) + "\n")
    return entry


def main(argv: list[str] | None = None) -> None:
    """CLI: ``python -m repro.analysis.perfbench [--output FILE]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.analysis.perfbench",
        description="Benchmark the simulation engine and record the result.",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT, help="trajectory file")
    parser.add_argument("--label", default="", help="record label (default: git rev)")
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N repeats")
    parser.add_argument(
        "--quick", action="store_true", help="smaller iteration counts (for CI)"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="print metrics without recording"
    )
    parser.add_argument(
        "--assert-floor", action="append", default=[], metavar="METRIC=VALUE",
        help=(
            "fail (exit 1) if the named metric comes out below VALUE "
            "(repeatable; e.g. --assert-floor events_per_sec=300000) — the "
            "CI perf-smoke regression gate"
        ),
    )
    parser.add_argument(
        "--assert-ceiling", action="append", default=[], metavar="METRIC=VALUE",
        help=(
            "fail (exit 1) if the named metric comes out above VALUE "
            "(repeatable; e.g. --assert-ceiling trace_overhead_pct=15) — "
            "the gate for overhead metrics, where lower is better"
        ),
    )
    args = parser.parse_args(argv)

    def parse_bounds(items: list[str], flag: str) -> list[tuple[str, float]]:
        bounds = []
        for item in items:
            name, separator, raw = item.partition("=")
            if not separator or not name:
                parser.error(f"{flag} expects METRIC=VALUE, got {item!r}")
            try:
                bounds.append((name, float(raw)))
            except ValueError:
                parser.error(f"{flag} value must be a number, got {item!r}")
        return bounds

    floors = parse_bounds(args.assert_floor, "--assert-floor")
    ceilings = parse_bounds(args.assert_ceiling, "--assert-ceiling")
    if args.no_write:
        metrics = collect_metrics(repeats=args.repeats, quick=args.quick)
        print(json.dumps(metrics, indent=1))
    else:
        entry = record(
            args.output, label=args.label, repeats=args.repeats, quick=args.quick
        )
        print(json.dumps(entry, indent=1))
        metrics = entry["metrics"]
    failures = []
    for name, floor in floors:
        value = metrics.get(name)
        if value is None:
            failures.append(f"{name}: no such metric")
        elif value < floor:
            failures.append(f"{name}: {value} < floor {floor}")
    for name, ceiling in ceilings:
        value = metrics.get(name)
        if value is None:
            failures.append(f"{name}: no such metric")
        elif value > ceiling:
            failures.append(f"{name}: {value} > ceiling {ceiling}")
    if failures:
        raise SystemExit("perfbench bound check FAILED: " + "; ".join(failures))


if __name__ == "__main__":  # pragma: no cover
    main()

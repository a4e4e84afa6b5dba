"""Run the paper's experiments — or any ad-hoc scenario matrix.

Five command-line modes (see ``docs/EXPERIMENTS.md``,
``docs/CRASH_CONSISTENCY.md``, ``docs/FAULTS.md`` and
``docs/OBSERVABILITY.md`` for full guides):

* ``python -m repro.experiments.runner [scale] [--only NAME] [--jobs N]``
  regenerates the eleven published tables;
* ``python -m repro.experiments.runner sweep --workload W --config C
  --device D ...`` expands the given axes into a scenario matrix that may
  exist in no experiment module and tabulates it (``--fault PLAN`` injects
  storage faults into every cell);
* ``python -m repro.experiments.runner crashcheck --workload W
  --barrier-mode M --strategy exhaustive`` systematically crashes every
  cell of the given matrix at recorded IO boundaries and verifies recovery
  (:mod:`repro.crashlab`);
* ``python -m repro.experiments.runner faultcheck --workload W
  --config in-order-recovery --fault flush-lie`` composes the crash
  exploration with deterministic fault injection (:mod:`repro.faults`) and
  verifies recovery with the fault-aware oracles;
* ``python -m repro.experiments.runner trace --workload W --config C
  --output trace.json --breakdown`` runs one scenario with the
  cross-layer tracer installed (:mod:`repro.trace`) and exports a
  Perfetto-loadable Chrome trace plus the per-stage fsync breakdown.

All accept ``--format table|json|csv`` and ``--output PATH`` so results can
be diffed and archived as CI artifacts.

The experiments are mutually independent — each builds its own simulator and
IO stacks — so :func:`run_all` can fan them out across worker processes with
``jobs=N``, and each experiment additionally shards its *own* spec matrix
with ``run(jobs=N)``.  Experiments must draw all randomness from explicitly
seeded ``random.Random`` instances (they do; the scenario layer threads
``ScenarioSpec.seed`` through stacks and workloads), which is what makes the
tables identical whether a sweep runs serially or in parallel;
``tests/experiments/test_determinism.py`` and ``tests/scenarios`` pin that
property.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.reporting import ExperimentResult
from repro.experiments import (
    ablation_barrier_modes,
    fig1_ordered_vs_buffered,
    fig8_commit_interval,
    fig9_random_write,
    fig10_queue_depth,
    fig11_context_switches,
    fig12_barrierfs_queue_depth,
    fig13_fxmark,
    fig14_sqlite,
    fig15_server_workloads,
    table1_fsync_latency,
)

#: Experiment id -> run() callable.
ALL_EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig1_ordered_vs_buffered.run,
    "fig8": fig8_commit_interval.run,
    "fig9": fig9_random_write.run,
    "fig10": fig10_queue_depth.run,
    "table1": table1_fsync_latency.run,
    "fig11": fig11_context_switches.run,
    "fig12": fig12_barrierfs_queue_depth.run,
    "fig13": fig13_fxmark.run,
    "fig14": fig14_sqlite.run,
    "fig15": fig15_server_workloads.run,
    "ablation-barrier-modes": ablation_barrier_modes.run,
}


def run_experiment(name: str, scale: float = 1.0) -> ExperimentResult:
    """Run one experiment by id (``fig1`` ... ``fig15``, ``table1``)."""
    try:
        experiment = ALL_EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(ALL_EXPERIMENTS)}"
        ) from None
    return experiment(scale)


def run_all(
    scale: float = 1.0,
    *,
    names: list[str] | None = None,
    jobs: int = 1,
) -> list[ExperimentResult]:
    """Run every experiment (or the named subset) and return the tables.

    ``jobs`` > 1 distributes the experiments over that many worker
    processes; results are returned in the requested order either way.
    """
    selected = names if names is not None else list(ALL_EXPERIMENTS)
    unknown = [name for name in selected if name not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiments {unknown!r}; choose from {sorted(ALL_EXPERIMENTS)}"
        )
    if jobs <= 1 or len(selected) <= 1:
        return [run_experiment(name, scale) for name in selected]

    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, len(selected))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map() preserves input order, so the tables come back in the same
        # order the serial path produces them.
        return list(pool.map(run_experiment, selected, [scale] * len(selected)))


def _render(results: list[ExperimentResult], fmt: str) -> str:
    """Render result tables in the requested output format."""
    if fmt == "json":
        import json

        return json.dumps([result.to_dict() for result in results], indent=2)
    if fmt == "csv":
        return "\n".join(
            f"# {result.name}\n{result.to_csv()}" for result in results
        )
    return "\n\n".join(str(result) for result in results)


def _emit(results: list[ExperimentResult], fmt: str, output: str | None) -> None:
    rendered = _render(results, fmt)
    if output:
        with open(output, "w") as handle:
            handle.write(rendered)
            if not rendered.endswith("\n"):
                handle.write("\n")
    else:
        print(rendered)


def _add_output_arguments(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (default: aligned plain-text tables)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the rendered results to a file instead of stdout",
    )


def _parse_param(text: str) -> tuple[str, object]:
    """Parse a ``--param key=value`` pair, literal-evaluating the value."""
    import ast

    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise ValueError(f"--param expects key=value, got {text!r}")
    try:
        value: object = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return key, value


def _route_params(parser, workloads: list[str], raw_params: list[str]):
    """Parse ``--param`` pairs and work out which workloads accept each key.

    Shared by ``sweep`` and ``crashcheck``: each key goes to the selected
    workloads that accept it (so sqlite's ``inserts=`` can ride alongside
    sync-loop's ``calls=`` in one matrix); a key no selected workload
    accepts is a usage error.  Returns ``(params, accepted_by)``.
    """
    from repro.scenarios import WORKLOADS

    try:
        params = dict(_parse_param(item) for item in raw_params)
    except ValueError as error:
        parser.error(str(error))
    try:
        accepted_by = {
            name: set(WORKLOADS.get(name).PARAMS) for name in set(workloads)
        }
    except KeyError as error:
        parser.error(str(error.args[0]))
    orphans = sorted(
        key for key in params
        if not any(key in accepted for accepted in accepted_by.values())
    )
    if orphans:
        parser.error(
            f"--param keys {orphans} are accepted by none of the selected "
            f"workloads {sorted(accepted_by)}"
        )
    return params, accepted_by


def _expand_suffix_axes(specs):
    """Expand list-valued measured-phase params into one spec per value.

    ``--param calls=[100,200,400]`` on a workload that declares ``calls``
    as a suffix param becomes a three-point axis instead of a literal list.
    The points differ only in their measured phase, which is exactly the
    shape ``--warm-start`` shares a single warmup prefix across.
    """
    import itertools

    from repro.scenarios import WORKLOADS

    expanded = []
    for spec in specs:
        suffix = WORKLOADS.get(spec.workload).SUFFIX_PARAMS
        axes = [
            (key, spec.params[key])
            for key in suffix
            if isinstance(spec.params.get(key), (list, tuple))
        ]
        if not axes:
            expanded.append(spec)
            continue
        keys = [key for key, _ in axes]
        for values in itertools.product(*(value for _, value in axes)):
            overrides = dict(zip(keys, values))
            label = " ".join(
                [spec.display_label] + [f"{k}={v}" for k, v in overrides.items()]
            )
            expanded.append(
                spec.with_(params={**dict(spec.params), **overrides}, label=label)
            )
    return expanded


def _parse_faults(parser, raw_faults):
    """Parse repeatable ``--fault`` plan strings into a FaultSpec tuple."""
    from repro.faults import parse_fault

    try:
        return tuple(parse_fault(item) for item in raw_faults)
    except ValueError as error:
        parser.error(str(error))


def _finalize_specs(specs, params, accepted_by):
    """Attach routed params to each spec and collapse duplicate specs.

    Repeated axis values (or stack axes normalised away on raw-block
    workloads) would otherwise run — and report — the same cell twice.
    Dedupe is by repr: param values may be unhashable literals (lists).
    """
    normalized, seen = [], set()
    for spec in specs:
        spec = spec.with_(params={
            key: value for key, value in params.items()
            if key in accepted_by[spec.workload]
        })
        key = repr(spec)
        if key in seen:
            continue
        seen.add(key)
        normalized.append(spec)
    return normalized


def sweep_main(argv: list[str] | None = None) -> None:
    """``runner sweep``: run an arbitrary config × device × workload matrix."""
    import argparse

    from repro.scenarios import DEVICES, STACK_CONFIGS, WORKLOADS, sweep, sweep_table
    from repro.storage.barrier_modes import BarrierMode

    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner sweep",
        description=(
            "Expand stack-config/device/workload axis lists into a scenario "
            "matrix and tabulate it — no experiment module required."
        ),
    )
    parser.add_argument(
        "-w", "--workload", action="append", metavar="NAME",
        help=f"workload axis (repeatable); one of {WORKLOADS.names()}",
    )
    parser.add_argument(
        "-c", "--config", action="append", metavar="NAME",
        help=f"stack-configuration axis (repeatable); one of {STACK_CONFIGS.names()}",
    )
    parser.add_argument(
        "-d", "--device", action="append", metavar="NAME",
        help="device axis (repeatable); evaluation devices or Fig. 1 labels",
    )
    parser.add_argument(
        "--scheduler", action="append", metavar="NAME",
        help="block-scheduler axis (repeatable); default: the config's choice",
    )
    parser.add_argument(
        "--barrier-mode", action="append", metavar="MODE",
        choices=[mode.value for mode in BarrierMode],
        help="storage barrier-mode axis (repeatable); default: the device's choice",
    )
    parser.add_argument(
        "--seed", action="append", type=int, metavar="N",
        help="seed axis (repeatable, default 0)",
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="workload parameter, literal-evaluated (repeatable)",
    )
    parser.add_argument(
        "--fault", action="append", default=[], metavar="PLAN",
        help=(
            "fault plan applied to the storage device, as KIND[:key=value,...] "
            "(repeatable; e.g. torn-write:p=0.5, flush-lie, io-error:nth=3); "
            "see docs/FAULTS.md"
        ),
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="iteration-count multiplier (default 1.0)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes; specs are sharded individually (default 1)",
    )
    parser.add_argument(
        "--warm-start", action="store_true",
        help=(
            "share warmup prefixes: specs differing only in measured-phase "
            "parameters replay their warmup once and fork each point from "
            "the warmed snapshot (bit-identical results, less wall-clock); "
            "see docs/EXPERIMENTS.md"
        ),
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help=(
            "append the device/block counter columns (io_errors, retries, "
            "requeues, power failures, ...) to every row"
        ),
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the registered configs, devices and workloads, then exit",
    )
    _add_output_arguments(parser)
    args = parser.parse_args(argv)

    if args.list:
        print(f"stack configs: {', '.join(STACK_CONFIGS.names())}")
        print(f"devices:       {', '.join(DEVICES.names())}")
        print(f"workloads:     {', '.join(WORKLOADS.names())}")
        return
    if not args.workload:
        parser.error("at least one --workload is required (or use --list)")

    params, accepted_by = _route_params(parser, args.workload, args.param)
    faults = _parse_faults(parser, args.fault)
    if faults:
        for name in set(args.workload):
            if not WORKLOADS.get(name).needs_stack:
                parser.error(
                    f"workload {name!r} runs against the raw block device; "
                    "--fault needs a filesystem stack to install the injector on"
                )

    specs = sweep(
        workloads=args.workload,
        configs=args.config or ["EXT4-DR"],
        devices=args.device or ["plain-ssd"],
        schedulers=args.scheduler or [None],
        barrier_modes=args.barrier_mode or [None],
        seeds=args.seed or [0],
        scale=args.scale,
        faults=faults,
    )

    # Stack axes mean nothing to raw-block workloads: normalise them away so
    # the duplicate collapse in _finalize_specs folds the product back down.
    specs = [
        spec.with_(config=None, scheduler=None, barrier_mode=None)
        if not WORKLOADS.get(spec.workload).needs_stack
        else spec
        for spec in specs
    ]
    specs = _finalize_specs(specs, params, accepted_by)
    specs = _expand_suffix_axes(specs)
    result = sweep_table(
        specs,
        jobs=args.jobs,
        warm_start=args.warm_start,
        metrics=args.metrics,
        description=f"ad-hoc scenario sweep ({len(specs)} scenarios)",
    )
    _emit([result], args.format, args.output)


def trace_main(argv: list[str] | None = None) -> None:
    """``runner trace``: run one traced scenario and export its spans."""
    import argparse
    import json

    from repro.scenarios import STACK_CONFIGS, WORKLOADS
    from repro.scenarios.engine import run_spec_traced
    from repro.scenarios.spec import ScenarioSpec
    from repro.storage.barrier_modes import BarrierMode
    from repro.trace import Tracer, breakdown_result, chrome_trace

    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner trace",
        description=(
            "Run one scenario with the cross-layer tracer installed and "
            "export the spans as Chrome trace-event JSON (loadable at "
            "https://ui.perfetto.dev), plus the per-stage fsync latency "
            "breakdown and the streaming span metrics.  See "
            "docs/OBSERVABILITY.md."
        ),
    )
    parser.add_argument(
        "-w", "--workload", required=True, metavar="NAME",
        help=f"workload to trace; one of {WORKLOADS.names()}",
    )
    parser.add_argument(
        "-c", "--config", default="EXT4-DR", metavar="NAME",
        help=f"stack configuration (default EXT4-DR); one of {STACK_CONFIGS.names()}",
    )
    parser.add_argument(
        "-d", "--device", default="plain-ssd", metavar="NAME",
        help="device (default plain-ssd)",
    )
    parser.add_argument(
        "--scheduler", metavar="NAME",
        help="block-scheduler override; default: the config's choice",
    )
    parser.add_argument(
        "--barrier-mode", metavar="MODE",
        choices=[mode.value for mode in BarrierMode],
        help="storage barrier-mode override; default: the device's choice",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="scenario seed (default 0)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="iteration-count multiplier (default 1.0)",
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="workload parameter, literal-evaluated (repeatable)",
    )
    parser.add_argument(
        "--buffer", type=int, default=65_536, metavar="N",
        help="span ring-buffer capacity (default 65536; oldest dropped first)",
    )
    parser.add_argument(
        "--output", metavar="PATH",
        help="write the Chrome trace-event JSON to this file",
    )
    parser.add_argument(
        "--breakdown", action="store_true",
        help="print the per-stage syscall latency breakdown table",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the streaming span-metrics table (p50/p99/p999 per span)",
    )
    parser.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="format of the breakdown/metrics tables (default table)",
    )
    args = parser.parse_args(argv)

    params, accepted_by = _route_params(parser, [args.workload], args.param)
    if not WORKLOADS.get(args.workload).needs_stack:
        parser.error(
            f"workload {args.workload!r} runs against the raw block device; "
            "the tracer installs over a filesystem stack"
        )
    if args.buffer < 1:
        parser.error("--buffer must be at least 1")
    spec = ScenarioSpec(
        workload=args.workload,
        config=args.config,
        device=args.device,
        scheduler=args.scheduler,
        barrier_mode=args.barrier_mode,
        seed=args.seed,
        scale=args.scale,
        params={
            key: value for key, value in params.items()
            if key in accepted_by[args.workload]
        },
    )
    tracer = Tracer(buffer_size=args.buffer)
    outcome = run_spec_traced(spec, tracer)

    label = spec.describe()
    if args.output:
        document = chrome_trace(
            tracer.spans, label=label, dropped=tracer.spans.dropped
        )
        with open(args.output, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    tables = []
    if args.breakdown:
        tables.append(breakdown_result(tracer.contexts, label=label))
    if args.metrics and tracer.metrics is not None:
        tables.append(tracer.metrics.result())
    if tables:
        _emit(tables, args.format, None)
    summary = (
        f"traced {outcome.result.operations} operations: {len(tracer.spans)} "
        f"spans, {len(tracer.contexts)} syscall journeys"
    )
    if tracer.spans.dropped:
        summary += f", {tracer.spans.dropped} spans dropped (ring full)"
    if args.output:
        summary += f" -> {args.output}"
    print(summary)


def crashcheck_main(argv: list[str] | None = None) -> None:
    """``runner crashcheck``: crash every cell of a matrix and verify recovery."""
    import argparse

    from repro.core.verification import ORACLES
    from repro.crashlab import STRATEGIES, explore_cells, summary_result, violations_result
    from repro.scenarios import STACK_CONFIGS, WORKLOADS, sweep
    from repro.storage.barrier_modes import BarrierMode

    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner crashcheck",
        description=(
            "Systematically enumerate crash points (IO boundaries recorded in "
            "a pre-run), then run each scenario cell once more and verify, at "
            "every chosen point, the state a power cut would leave with the "
            "registered oracles."
        ),
    )
    parser.add_argument(
        "-w", "--workload", action="append", metavar="NAME",
        help=f"workload axis (repeatable); filesystem workloads of {WORKLOADS.names()}",
    )
    parser.add_argument(
        "-c", "--config", action="append", metavar="NAME",
        help=f"stack-configuration axis (repeatable, default EXT4-DR); one of {STACK_CONFIGS.names()}",
    )
    parser.add_argument(
        "-d", "--device", action="append", metavar="NAME",
        help="device axis (repeatable, default plain-ssd)",
    )
    parser.add_argument(
        "--scheduler", action="append", metavar="NAME",
        help="block-scheduler axis (repeatable); default: the config's choice",
    )
    parser.add_argument(
        "--barrier-mode", action="append", metavar="MODE",
        help=(
            "storage barrier-mode axis (repeatable; underscores and hyphens "
            f"both accepted); one of {[mode.value for mode in BarrierMode]}; "
            "default: the device's choice"
        ),
    )
    parser.add_argument(
        "--strategy", choices=STRATEGIES, default="exhaustive",
        help=(
            "crash-point selection: every recorded boundary (exhaustive), a "
            "seeded per-kind sample (stratified), or a binary search to the "
            "earliest failing boundary (bisect); default exhaustive"
        ),
    )
    parser.add_argument(
        "--points", type=int, metavar="N",
        help=(
            "crash-point budget per cell: evenly thins an exhaustive "
            "enumeration, sets the stratified sample size (default 32); for "
            "bisect it caps the probe density of each scout wave, not the "
            "total — re-scouting below each found failure plus the binary "
            "refinement can report more points than the budget"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="seed for the scenario and the stratified sampler (default 0)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help=(
            "iteration-count multiplier (default a reduced 0.25: every "
            "chosen point is judged)"
        ),
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="workload parameter, literal-evaluated (repeatable)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help=(
            "worker processes; whole cells are sharded across them "
            "(default 1)"
        ),
    )
    parser.add_argument(
        "--trace-tail", type=int, default=0, metavar="N",
        help=(
            "trace the judging run and attach the last N spans before each "
            "crash point to its violation witness (default 0: off)"
        ),
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the registered oracles and strategies, then exit",
    )
    _add_output_arguments(parser)
    args = parser.parse_args(argv)

    if args.list:
        print(f"strategies: {', '.join(STRATEGIES)}")
        print("oracles:")
        for oracle in ORACLES.values():
            print(f"  {oracle.name:22s} {oracle.description}")
        return
    if not args.workload:
        parser.error("at least one --workload is required (or use --list)")
    if args.points is not None and args.points < 1:
        parser.error("--points must be at least 1")

    modes: list[str | None] = [None]
    if args.barrier_mode:
        modes = []
        for mode in args.barrier_mode:
            normalized = mode.replace("_", "-")
            try:
                modes.append(BarrierMode(normalized).value)
            except ValueError:
                parser.error(
                    f"unknown barrier mode {mode!r}; choose from "
                    f"{[m.value for m in BarrierMode]}"
                )

    for name in set(args.workload):
        try:
            workload_class = WORKLOADS.get(name)
        except KeyError as error:
            parser.error(str(error.args[0]))
        if not workload_class.needs_stack:
            parser.error(
                f"workload {name!r} runs against the raw block device; "
                "crashcheck needs a filesystem stack to crash and recover"
            )
    params, accepted_by = _route_params(parser, args.workload, args.param)

    specs = _finalize_specs(
        sweep(
            workloads=args.workload,
            configs=args.config or ["EXT4-DR"],
            devices=args.device or ["plain-ssd"],
            schedulers=args.scheduler or [None],
            barrier_modes=modes,
            seeds=[args.seed],
            scale=args.scale,
        ),
        params,
        accepted_by,
    )
    reports = explore_cells(
        specs,
        strategy=args.strategy,
        points=args.points,
        seed=args.seed,
        jobs=args.jobs,
        trace_tail=max(args.trace_tail, 0),
    )
    _emit([summary_result(reports), violations_result(reports)], args.format, args.output)


def faultcheck_main(argv: list[str] | None = None) -> None:
    """``runner faultcheck``: crash exploration composed with fault injection."""
    import argparse

    from repro.core.verification import ORACLES
    from repro.crashlab import STRATEGIES, explore_cells, summary_result, violations_result
    from repro.faults import FAULT_KINDS
    from repro.scenarios import STACK_CONFIGS, WORKLOADS, sweep
    from repro.storage.barrier_modes import BarrierMode

    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner faultcheck",
        description=(
            "Inject storage faults (torn/misdirected/dropped writes, flush "
            "lies, IO errors) into a scenario matrix, crash-explore every "
            "cell at recorded IO boundaries and verify recovery with the "
            "fault-aware oracles.  Flags mirror ``runner crashcheck``.  A "
            "--config value naming a barrier mode (e.g. in-order-recovery) "
            "expands to that mode on the barrier stack (BFS-DR) plus the "
            "legacy contrast cell (EXT4-DR with barrier mode none)."
        ),
    )
    parser.add_argument(
        "-w", "--workload", action="append", metavar="NAME",
        help=f"workload axis (repeatable); filesystem workloads of {WORKLOADS.names()}",
    )
    parser.add_argument(
        "-c", "--config", action="append", metavar="NAME",
        help=(
            "stack-configuration axis (repeatable, default EXT4-DR); one of "
            f"{STACK_CONFIGS.names()} or a barrier-mode name "
            f"{[mode.value for mode in BarrierMode]} (expanded as above)"
        ),
    )
    parser.add_argument(
        "-d", "--device", action="append", metavar="NAME",
        help="device axis (repeatable, default plain-ssd)",
    )
    parser.add_argument(
        "--scheduler", action="append", metavar="NAME",
        help="block-scheduler axis (repeatable); default: the config's choice",
    )
    parser.add_argument(
        "--barrier-mode", action="append", metavar="MODE",
        help=(
            "storage barrier-mode axis (repeatable; underscores and hyphens "
            f"both accepted); one of {[mode.value for mode in BarrierMode]}; "
            "default: the device's choice"
        ),
    )
    parser.add_argument(
        "--fault", action="append", default=[], metavar="PLAN",
        help=(
            "fault plan applied to the storage device, as KIND[:key=value,...] "
            "(repeatable, at least one required; e.g. torn-write:p=0.5, "
            "flush-lie, io-error:nth=3); see docs/FAULTS.md"
        ),
    )
    parser.add_argument(
        "--strategy", choices=STRATEGIES, default="exhaustive",
        help=(
            "crash-point selection: every recorded boundary (exhaustive), a "
            "seeded per-kind sample (stratified), or a binary search to the "
            "earliest failing boundary (bisect); default exhaustive"
        ),
    )
    parser.add_argument(
        "--points", type=int, metavar="N",
        help=(
            "crash-point budget per cell: evenly thins an exhaustive "
            "enumeration, sets the stratified sample size (default 32); for "
            "bisect it caps the probe density of each scout wave"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help=(
            "seed for the scenario, the fault streams and the stratified "
            "sampler (default 0)"
        ),
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help=(
            "iteration-count multiplier (default a reduced 0.25: every "
            "chosen point is judged)"
        ),
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="workload parameter, literal-evaluated (repeatable)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help=(
            "worker processes; whole cells are sharded across them "
            "(default 1)"
        ),
    )
    parser.add_argument(
        "--trace-tail", type=int, default=0, metavar="N",
        help=(
            "trace the judging run and attach the last N spans before each "
            "crash point to its violation witness (default 0: off)"
        ),
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the fault kinds, oracles and strategies, then exit",
    )
    _add_output_arguments(parser)
    args = parser.parse_args(argv)

    if args.list:
        print(f"strategies:  {', '.join(STRATEGIES)}")
        print(f"fault kinds: {', '.join(FAULT_KINDS)}")
        print("oracles:")
        for oracle in ORACLES.values():
            print(f"  {oracle.name:22s} {oracle.description}")
        return
    if not args.workload:
        parser.error("at least one --workload is required (or use --list)")
    if not args.fault:
        parser.error(
            "at least one --fault plan is required (KIND[:key=value,...]; "
            "use crashcheck for fault-free exploration)"
        )
    if args.points is not None and args.points < 1:
        parser.error("--points must be at least 1")
    faults = _parse_faults(parser, args.fault)

    modes: list[str | None] = [None]
    if args.barrier_mode:
        modes = []
        for mode in args.barrier_mode:
            normalized = mode.replace("_", "-")
            try:
                modes.append(BarrierMode(normalized).value)
            except ValueError:
                parser.error(
                    f"unknown barrier mode {mode!r}; choose from "
                    f"{[m.value for m in BarrierMode]}"
                )

    for name in set(args.workload):
        try:
            workload_class = WORKLOADS.get(name)
        except KeyError as error:
            parser.error(str(error.args[0]))
        if not workload_class.needs_stack:
            parser.error(
                f"workload {name!r} runs against the raw block device; "
                "faultcheck needs a filesystem stack to inject into and recover"
            )
    params, accepted_by = _route_params(parser, args.workload, args.param)

    # A --config naming a barrier mode is sugar for the cell pair that makes
    # the contrast legible: the mode on the order-preserving barrier stack,
    # plus the legacy EXT4 stack with barriers off.  (BFS-DR cannot run with
    # mode none — the order-preserving block layer needs a barrier-capable
    # device — which is why the legacy half rides on EXT4-DR.)
    known_configs = set(STACK_CONFIGS.names())
    mode_values = {mode.value for mode in BarrierMode}
    cells: list[tuple[str, list[str | None]]] = []
    for name in args.config or ["EXT4-DR"]:
        normalized = name.replace("_", "-")
        if name not in known_configs and normalized in mode_values:
            if args.barrier_mode:
                parser.error(
                    f"--config {name!r} names a barrier mode and already "
                    "implies the barrier-mode axis; drop --barrier-mode"
                )
            aliased = BarrierMode(normalized)
            if aliased is not BarrierMode.NONE:
                cells.append(("BFS-DR", [aliased.value]))
            cells.append(("EXT4-DR", [BarrierMode.NONE.value]))
        else:
            cells.append((name, modes))

    expanded = []
    for config, config_modes in cells:
        expanded.extend(
            sweep(
                workloads=args.workload,
                configs=[config],
                devices=args.device or ["plain-ssd"],
                schedulers=args.scheduler or [None],
                barrier_modes=config_modes,
                seeds=[args.seed],
                scale=args.scale,
                faults=faults,
            )
        )
    specs = _finalize_specs(expanded, params, accepted_by)
    reports = explore_cells(
        specs,
        strategy=args.strategy,
        points=args.points,
        seed=args.seed,
        jobs=args.jobs,
        trace_tail=max(args.trace_tail, 0),
    )
    summary = summary_result(reports)
    summary.name = "faultcheck"
    summary.description = (
        "crash-point exploration under injected storage faults"
    )
    violations = violations_result(reports)
    violations.name = "faultcheck-violations"
    _emit([summary, violations], args.format, args.output)


#: ``recoverycheck`` config aliases: the paper-facing names for the barrier
#: stack, accepted alongside the registered configuration names.
_RECOVERY_CONFIG_ALIASES = {
    "barrier-dr": "BFS-DR",
    "barrier-od": "BFS-OD",
}


def recoverycheck_main(argv: list[str] | None = None) -> None:
    """``runner recoverycheck``: crash, remount, continue, judge the round trip."""
    import argparse
    from functools import partial

    from repro.core.verification import ORACLES
    from repro.crashlab import STRATEGIES, explore_cells, summary_result, violations_result
    from repro.faults import FAULT_KINDS
    from repro.recovery import (
        ACKED_PREFIX_ORACLE,
        CONTINUATION_ORACLE,
        ContinuationPlan,
        recovery_judge,
    )
    from repro.apps.syncpolicy import ERROR_POLICIES
    from repro.scenarios import STACK_CONFIGS, WORKLOADS, sweep
    from repro.scenarios.stacks import stack_config
    from repro.storage.barrier_modes import BarrierMode

    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner recoverycheck",
        description=(
            "Recover-and-continue verification: crash-explore every cell at "
            "recorded IO boundaries and, at each point, remount a fresh "
            "stack on what journal recovery reconstructs, run a "
            "deterministic append+sync continuation through a SyncPolicy, "
            "cut power again right after its last acknowledgement and judge "
            "both crashes with the recovered-acked-prefix and "
            "recovered-continuation-durability oracles on top of the "
            "registered ones.  Flags mirror ``runner faultcheck`` with "
            "--fault optional; see docs/RECOVERY.md."
        ),
    )
    parser.add_argument(
        "-w", "--workload", action="append", metavar="NAME",
        help=f"workload axis (repeatable); filesystem workloads of {WORKLOADS.names()}",
    )
    parser.add_argument(
        "-c", "--config", action="append", metavar="NAME",
        help=(
            "stack-configuration axis (repeatable, default EXT4-DR); one of "
            f"{STACK_CONFIGS.names()} (case-insensitive; barrier-dr/barrier-od "
            "alias BFS-DR/BFS-OD) or a barrier-mode name "
            f"{[mode.value for mode in BarrierMode]} (expands to the mode on "
            "BFS-DR plus the EXT4-OD legacy contrast cell)"
        ),
    )
    parser.add_argument(
        "-d", "--device", action="append", metavar="NAME",
        help="device axis (repeatable, default plain-ssd)",
    )
    parser.add_argument(
        "--scheduler", action="append", metavar="NAME",
        help="block-scheduler axis (repeatable); default: the config's choice",
    )
    parser.add_argument(
        "--barrier-mode", action="append", metavar="MODE",
        help=(
            "storage barrier-mode axis (repeatable; underscores and hyphens "
            f"both accepted); one of {[mode.value for mode in BarrierMode]}; "
            "default: the device's choice.  A BarrierFS config cannot build "
            "with mode none (the order-preserving block layer needs a "
            "barrier-capable device), so that pairing runs the EXT4-OD "
            "legacy contrast cell instead"
        ),
    )
    parser.add_argument(
        "--fault", action="append", default=[], metavar="PLAN",
        help=(
            "optional fault plan applied to the storage device — and "
            "reinstalled on the remounted stack — as KIND[:key=value,...] "
            "(repeatable; e.g. io-error:nth=3, flush-lie); see docs/FAULTS.md"
        ),
    )
    parser.add_argument(
        "--continuation-calls", type=int, default=16, metavar="N",
        help="append+sync iterations the continuation runs (default 16)",
    )
    parser.add_argument(
        "--continuation-pages", type=int, default=1, metavar="N",
        help="pages appended per continuation iteration (default 1)",
    )
    parser.add_argument(
        "--on-error", choices=ERROR_POLICIES, default="retry",
        help=(
            "continuation SyncPolicy when a sync raises EIOError: abort at "
            "the first, retry up to --max-sync-retries, or reopen-and-retry "
            "(default retry)"
        ),
    )
    parser.add_argument(
        "--max-sync-retries", type=int, default=3, metavar="N",
        help="continuation sync retries before the error stops it (default 3)",
    )
    parser.add_argument(
        "--strategy", choices=STRATEGIES, default="exhaustive",
        help=(
            "crash-point selection: every recorded boundary (exhaustive), a "
            "seeded per-kind sample (stratified), or a binary search to the "
            "earliest failing boundary (bisect); default exhaustive"
        ),
    )
    parser.add_argument(
        "--points", type=int, metavar="N",
        help=(
            "crash-point budget per cell: evenly thins an exhaustive "
            "enumeration, sets the stratified sample size (default 32); for "
            "bisect it caps the probe density of each scout wave"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help=(
            "seed for the scenario, the fault streams and the stratified "
            "sampler (default 0)"
        ),
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help=(
            "iteration-count multiplier (default a reduced 0.25: every "
            "chosen point is judged)"
        ),
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="workload parameter, literal-evaluated (repeatable)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help=(
            "worker processes; whole cells are sharded across them "
            "(default 1)"
        ),
    )
    parser.add_argument(
        "--trace-tail", type=int, default=0, metavar="N",
        help=(
            "trace the judging run and attach the last N spans before each "
            "crash point to its violation witness (default 0: off)"
        ),
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the oracles (registered + recovery), fault kinds and strategies",
    )
    _add_output_arguments(parser)
    args = parser.parse_args(argv)

    if args.list:
        print(f"strategies:  {', '.join(STRATEGIES)}")
        print(f"fault kinds: {', '.join(FAULT_KINDS)}")
        print("oracles:")
        for oracle in ORACLES.values():
            print(f"  {oracle.name:36s} {oracle.description}")
        print(
            f"  {ACKED_PREFIX_ORACLE:36s} "
            "pages acknowledged before the crash survived it"
        )
        print(
            f"  {CONTINUATION_ORACLE:36s} "
            "pages the post-remount continuation acknowledged survived its crash"
        )
        return
    if not args.workload:
        parser.error("at least one --workload is required (or use --list)")
    if args.points is not None and args.points < 1:
        parser.error("--points must be at least 1")
    if args.continuation_calls < 1:
        parser.error("--continuation-calls must be at least 1")
    if args.continuation_pages < 1:
        parser.error("--continuation-pages must be at least 1")
    if args.max_sync_retries < 0:
        parser.error("--max-sync-retries must be at least 0")
    faults = _parse_faults(parser, args.fault)

    modes: list[str | None] = [None]
    if args.barrier_mode:
        modes = []
        for mode in args.barrier_mode:
            normalized = mode.replace("_", "-")
            try:
                modes.append(BarrierMode(normalized).value)
            except ValueError:
                parser.error(
                    f"unknown barrier mode {mode!r}; choose from "
                    f"{[m.value for m in BarrierMode]}"
                )

    for name in set(args.workload):
        try:
            workload_class = WORKLOADS.get(name)
        except KeyError as error:
            parser.error(str(error.args[0]))
        if not workload_class.needs_stack:
            parser.error(
                f"workload {name!r} runs against the raw block device; "
                "recoverycheck needs a filesystem stack to crash and remount"
            )
    params, accepted_by = _route_params(parser, args.workload, args.param)

    # Config resolution: registered names (case-insensitive), the
    # barrier-dr/barrier-od aliases, or — like faultcheck — a barrier-mode
    # name as sugar for the contrast pair.  The legacy half of the pair is
    # EXT4-OD here (not faultcheck's EXT4-DR): recoverycheck's oracles are
    # about durability promises, and EXT4-OD is the stack that acknowledges
    # at transfer time without a flush — the fsyncgate cell.
    known_configs = set(STACK_CONFIGS.names())
    by_lower = {name.lower(): name for name in known_configs}
    mode_values = {mode.value for mode in BarrierMode}
    cells: list[tuple[str, list[str | None]]] = []
    for name in args.config or ["EXT4-DR"]:
        normalized = name.replace("_", "-")
        resolved = by_lower.get(name.lower()) or by_lower.get(
            _RECOVERY_CONFIG_ALIASES.get(name.lower(), "").lower()
        )
        if resolved is None and normalized in mode_values:
            if args.barrier_mode:
                parser.error(
                    f"--config {name!r} names a barrier mode and already "
                    "implies the barrier-mode axis; drop --barrier-mode"
                )
            aliased = BarrierMode(normalized)
            if aliased is not BarrierMode.NONE:
                cells.append(("BFS-DR", [aliased.value]))
            cells.append(("EXT4-OD", [BarrierMode.NONE.value]))
            continue
        if resolved is None:
            parser.error(
                f"unknown config {name!r}; choose from {STACK_CONFIGS.names()} "
                f"(or aliases {sorted(_RECOVERY_CONFIG_ALIASES)}, or a "
                f"barrier-mode name of {sorted(mode_values)})"
            )
        cells.append((resolved, modes))

    expanded = []
    for config, config_modes in cells:
        devices = args.device or ["plain-ssd"]
        barrier_stack = stack_config(config, devices[0]).filesystem == "barrierfs"
        kept: list[str | None] = []
        for mode in config_modes:
            if barrier_stack and mode == BarrierMode.NONE.value:
                # BFS-* × none cannot build (BlockDevice refuses an
                # order-preserving layer on a device whose mode supports no
                # barrier); substitute the EXT4-OD legacy contrast cell.
                expanded.extend(
                    sweep(
                        workloads=args.workload,
                        configs=["EXT4-OD"],
                        devices=devices,
                        schedulers=args.scheduler or [None],
                        barrier_modes=[mode],
                        seeds=[args.seed],
                        scale=args.scale,
                        faults=faults,
                    )
                )
            else:
                kept.append(mode)
        if kept:
            expanded.extend(
                sweep(
                    workloads=args.workload,
                    configs=[config],
                    devices=devices,
                    schedulers=args.scheduler or [None],
                    barrier_modes=kept,
                    seeds=[args.seed],
                    scale=args.scale,
                    faults=faults,
                )
            )
    specs = _finalize_specs(expanded, params, accepted_by)

    plan = ContinuationPlan(
        calls=args.continuation_calls,
        pages_per_write=args.continuation_pages,
        on_error=args.on_error,
        max_sync_retries=args.max_sync_retries,
    )
    reports = explore_cells(
        specs,
        strategy=args.strategy,
        points=args.points,
        seed=args.seed,
        jobs=args.jobs,
        trace_tail=max(args.trace_tail, 0),
        judge=partial(recovery_judge, plan=plan),
    )
    summary = summary_result(reports)
    summary.name = "recoverycheck"
    summary.description = (
        "crash-point exploration with remount-and-continue verification"
    )
    violations = violations_result(reports)
    violations.name = "recoverycheck-violations"
    _emit([summary, violations], args.format, args.output)


def main(argv: list[str] | None = None) -> None:
    """Command-line entry point: ``python -m repro.experiments.runner``."""
    import argparse
    import sys

    arguments = list(sys.argv[1:]) if argv is None else list(argv)
    if arguments and arguments[0] == "sweep":
        sweep_main(arguments[1:])
        return
    if arguments and arguments[0] == "trace":
        trace_main(arguments[1:])
        return
    if arguments and arguments[0] == "crashcheck":
        crashcheck_main(arguments[1:])
        return
    if arguments and arguments[0] == "faultcheck":
        faultcheck_main(arguments[1:])
        return
    if arguments and arguments[0] == "recoverycheck":
        recoverycheck_main(arguments[1:])
        return

    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description=(
            "Regenerate the paper's tables and figures (or run `... runner "
            "sweep --help` for ad-hoc matrices, `... runner crashcheck "
            "--help` for crash-recovery checking, `... runner faultcheck "
            "--help` for crash checking under injected storage faults, "
            "`... runner recoverycheck --help` for remount-and-continue "
            "verification)."
        ),
    )
    parser.add_argument(
        "scale",
        nargs="?",
        type=float,
        default=1.0,
        help="iteration-count multiplier for every experiment (default 1.0)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="number of worker processes (default 1: run serially)",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only the named experiment (repeatable)",
    )
    _add_output_arguments(parser)
    args = parser.parse_args(arguments)
    results = run_all(args.scale, names=args.only, jobs=args.jobs)
    _emit(results, args.format, args.output)


if __name__ == "__main__":  # pragma: no cover
    main()

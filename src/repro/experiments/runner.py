"""Run the paper's experiments — or any ad-hoc scenario matrix.

Six command-line modes (see ``docs/EXPERIMENTS.md``,
``docs/CRASH_CONSISTENCY.md``, ``docs/FAULTS.md``, ``docs/RECOVERY.md`` and
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
* ``python -m repro.experiments.runner recoverycheck --workload W
  --config in-order-recovery`` remounts a fresh stack at every crash point,
  runs a continuation on it and judges the round trip
  (:mod:`repro.recovery`);
* ``python -m repro.experiments.runner trace --workload W --config C
  --output trace.json --breakdown`` runs one scenario with the
  cross-layer tracer installed (:mod:`repro.trace`) and exports a
  Perfetto-loadable Chrome trace plus the per-stage fsync breakdown.

``sweep``, ``trace`` and the three check modes declare their scenario axes
(``--workload``, ``--config``, ``--device``, ``--scheduler``,
``--barrier-mode``) once and resolve every name with one spelling rule; the
check modes share one pipeline and differ only by their :class:`_Check`
entry.  All accept ``--format table|json|csv`` and ``--output PATH`` so
results can be diffed and archived as CI artifacts.

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

from dataclasses import dataclass
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


#: Paper-facing names for the barrier stack, accepted wherever a stack
#: configuration is named.
_CONFIG_ALIASES = {
    "barrier-dr": "BFS-DR",
    "barrier-od": "BFS-OD",
}


def _spelling(name: str) -> str:
    """The one spelling rule: case-insensitive, with ``_`` and ``-`` alike."""
    return name.lower().replace("_", "-")


def _resolve(parser, dest: str, name: str | None, choices, aliases=None):
    """The registered spelling of ``name``, or a usage error listing ``choices``."""
    if name is None:
        return None
    key = _spelling((aliases or {}).get(_spelling(name), name))
    for choice in choices:
        if _spelling(choice) == key:
            return choice
    hint = f" (or an alias of {sorted(aliases)})" if aliases else ""
    parser.error(
        f"unknown {dest.replace('_', ' ')} {name!r}; choose from {list(choices)}{hint}"
    )


def _axis_table():
    """Axis dest -> (flags, sweep() keyword, registered names, aliases, default)."""
    from repro.block.scheduler import SCHEDULER_NAMES
    from repro.scenarios import DEVICES, STACK_CONFIGS, WORKLOADS
    from repro.storage.barrier_modes import BarrierMode

    return {
        "workload": (("-w", "--workload"), "workloads", WORKLOADS.names(), None, None),
        "config": (("-c", "--config"), "configs", STACK_CONFIGS.names(),
                   _CONFIG_ALIASES, "EXT4-DR"),
        "device": (("-d", "--device"), "devices", DEVICES.names(), None, "plain-ssd"),
        "scheduler": (("--scheduler",), "schedulers", list(SCHEDULER_NAMES), None, None),
        "barrier_mode": (("--barrier-mode",), "barrier_modes",
                         [mode.value for mode in BarrierMode], None, None),
    }


def _add_axis_arguments(parser, *, many: bool, seeds: bool = False,
                        scale: float = 1.0, faults: str = "") -> None:
    """Declare the scenario axes plus ``--seed``, ``--scale`` and ``--param``.

    ``many`` makes every axis repeatable (a matrix run on ``--jobs``
    workers, with a ``--list``); otherwise each flag takes one value.
    ``seeds`` makes ``--seed`` an axis too; ``faults`` ("optional" or
    "required") adds ``--fault``.  Names are resolved by :func:`_resolve_axes`.
    """
    each = {"action": "append"} if many else {}
    axis = " axis (repeatable)" if many else ""
    for dest, (flags, _, choices, aliases, default) in _axis_table().items():
        also = f" or an alias of {sorted(aliases)}" if aliases else ""
        note = f"default {default or 'set by the stack'}"
        if dest == "workload":
            note = "required"
        parser.add_argument(
            *flags, metavar="NAME", required=not many and dest == "workload", **each,
            help=f"{dest.replace('_', ' ')}{axis}; one of {choices}{also} ({note})",
        )
    parser.add_argument(
        "--seed", type=int, metavar="N",
        **({"action": "append"} if seeds else {"default": 0}),
        help=(
            "seed axis (repeatable, default 0)" if seeds else
            "seed of the scenario, its fault streams and the crash-point "
            "sampler (default 0)"
        ),
    )
    parser.add_argument(
        "--scale", type=float, default=scale,
        help=f"iteration-count multiplier (default {scale})",
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="workload parameter, literal-evaluated (repeatable)",
    )
    if faults:
        parser.add_argument(
            "--fault", action="append", default=[], metavar="PLAN",
            help=(
                f"{faults} fault plan applied to the storage device, as "
                "KIND[:key=value,...] (repeatable; e.g. torn-write:p=0.5, "
                "flush-lie, io-error:nth=3); see docs/FAULTS.md"
            ),
        )
    if many:
        parser.add_argument(
            "-j", "--jobs", type=int, default=1,
            help="worker processes the matrix is sharded across (default 1)",
        )
        parser.add_argument(
            "--list", action="store_true",
            help="list what the axes and checks can name, then exit",
        )


def _resolve_axes(parser, args, *, mode_configs: bool = False) -> dict:
    """Resolve every axis flag to registered names, as ``sweep()`` keywords.

    An unset axis takes its default.  With ``mode_configs`` a ``--config``
    may also name a barrier mode (see "Axis flags" in docs/EXPERIMENTS.md).
    """
    table = _axis_table()
    axes = {}
    for dest, (_, keyword, choices, aliases, default) in table.items():
        if dest == "config" and mode_configs:
            choices = choices + table["barrier_mode"][2]
        given = getattr(args, dest)
        names = given if isinstance(given, list) else [default if given is None else given]
        axes[keyword] = [_resolve(parser, dest, name, choices, aliases) for name in names]
    axes["seeds"] = args.seed if isinstance(args.seed, list) else [args.seed or 0]
    return axes


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

    Each key goes to the selected workloads that accept it (so sqlite's
    ``inserts=`` can ride alongside sync-loop's ``calls=`` in one matrix); a
    key no selected workload accepts is a usage error.  Returns ``(params,
    accepted_by)``.
    """
    from repro.scenarios import WORKLOADS

    try:
        params = dict(_parse_param(item) for item in raw_params)
    except ValueError as error:
        parser.error(str(error))
    accepted_by = {name: set(WORKLOADS.get(name).PARAMS) for name in set(workloads)}
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


def _barrierfs_without_barriers(spec) -> bool:
    """Whether ``spec`` puts BarrierFS on barrier mode ``none``.

    The mode may be given or the device's default.  Such a stack cannot
    build: the order-preserving block layer needs a barrier-capable device.
    """
    from repro.scenarios.stacks import device_profile, stack_config
    from repro.storage.barrier_modes import default_barrier_mode

    if spec.config is None or stack_config(spec.config).filesystem != "barrierfs":
        return False
    default = default_barrier_mode(device_profile(spec.device)).value
    return (spec.barrier_mode or default) == "none"


def _specs(parser, args, *, faults=(), contrast: str | None = None,
           needs_stack: str = "") -> list:
    """The validated, deduplicated specs a command line's axes describe.

    Shared by every scenario subcommand.  ``needs_stack`` (the reason) makes
    raw-block workloads a usage error; otherwise their stack axes are
    normalised away.  A BarrierFS config × barrier mode ``none`` cannot
    build: with a ``contrast`` config that cell runs the contrast config
    instead, and a barrier-mode name given as ``--config`` expands to that
    mode on BFS-DR plus the contrast cell; without one both are usage errors.
    """
    from repro.scenarios import WORKLOADS, sweep

    if not args.workload:
        parser.error("at least one --workload is required (or use --list)")
    axes = _resolve_axes(parser, args, mode_configs=contrast is not None)
    for name in set(axes["workloads"]):
        if needs_stack and not WORKLOADS.get(name).needs_stack:
            parser.error(
                f"workload {name!r} runs against the raw block device; {needs_stack}"
            )
    params, accepted_by = _route_params(parser, axes["workloads"], args.param)

    # Consecutive configs form one device-major matrix, like ``sweep()``;
    # each barrier-mode config contributes its own pair of cells.
    modes, mode_names = axes.pop("barrier_modes"), _axis_table()["barrier_mode"][2]
    cells: list[tuple[list, list]] = []
    for config in axes.pop("configs"):
        if config in mode_names:
            if args.barrier_mode:
                parser.error(
                    f"--config {config!r} names a barrier mode and already "
                    "implies the barrier-mode axis; drop --barrier-mode"
                )
            cells += [(["BFS-DR"], [config]), (["BFS-DR"], ["none"])]
        elif cells and cells[-1][1] is modes:
            cells[-1][0].append(config)
        else:
            cells.append(([config], modes))

    specs = []
    for configs, cell_modes in cells:
        for spec in sweep(**axes, configs=configs, barrier_modes=cell_modes,
                          scale=args.scale, faults=faults):
            if not WORKLOADS.get(spec.workload).needs_stack:
                spec = spec.with_(config=None, scheduler=None, barrier_mode=None)
            elif _barrierfs_without_barriers(spec):
                if contrast is None:
                    parser.error(
                        f"config {spec.config} cannot run with barrier mode none "
                        f"(on device {spec.device}): the order-preserving block "
                        "layer needs a barrier-capable device"
                    )
                spec = spec.with_(config=contrast)
            specs.append(spec)

    # Attach the routed params and collapse duplicate cells (repeated axis
    # values, stack axes normalised away, the pair of a ``none`` mode
    # config); dedupe is by repr as param values may be unhashable lists.
    unique: dict[str, object] = {}
    for spec in specs:
        spec = spec.with_(params={
            key: value for key, value in params.items()
            if key in accepted_by[spec.workload]
        })
        unique.setdefault(repr(spec), spec)
    return list(unique.values())


def sweep_main(argv: list[str] | None = None) -> None:
    """``runner sweep``: run an arbitrary config × device × workload matrix."""
    import argparse

    from repro.scenarios import DEVICES, STACK_CONFIGS, WORKLOADS, sweep_table

    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner sweep",
        description=(
            "Expand stack-config/device/workload axis lists into a scenario "
            "matrix and tabulate it — no experiment module required."
        ),
    )
    _add_axis_arguments(parser, many=True, seeds=True, faults="optional")
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
    _add_output_arguments(parser)
    args = parser.parse_args(argv)

    if args.list:
        print(f"stack configs: {', '.join(STACK_CONFIGS.names())}")
        print(f"devices:       {', '.join(DEVICES.names())}")
        print(f"workloads:     {', '.join(WORKLOADS.names())}")
        return
    faults = _parse_faults(parser, args.fault)
    reason = "--fault needs a filesystem stack to install the injector on"
    specs = _specs(parser, args, faults=faults, needs_stack=reason if faults else "")
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

    from repro.scenarios.engine import run_spec_traced
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
    _add_axis_arguments(parser, many=False)
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

    if args.buffer < 1:
        parser.error("--buffer must be at least 1")
    [spec] = _specs(
        parser, args, needs_stack="the tracer installs over a filesystem stack"
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


@dataclass(frozen=True)
class _Check:
    """What sets one check subcommand apart; the pipeline is shared."""

    #: The ``--help`` description.
    description: str
    #: The description of the summary table.
    summary: str
    #: The ``--fault`` flag: absent (""), "optional" or "required".
    faults: str = ""
    #: Judge with remount-and-continue (:func:`repro.recovery.recovery_judge`)
    #: and take its continuation flags.
    recovery: bool = False

    @property
    def contrast(self) -> str:
        """The legacy config that stands in for BarrierFS × none.

        EXT4-OD (acks at transfer time, never flushes) under the recovery
        judge, whose oracles judge durability promises; EXT4-DR otherwise.
        """
        return "EXT4-OD" if self.recovery else "EXT4-DR"


#: Check subcommand name -> what sets it apart.
_CHECKS = {
    "crashcheck": _Check(
        description=(
            "Systematically enumerate crash points (IO boundaries recorded in "
            "a pre-run), then run each scenario cell once more and verify, at "
            "every chosen point, the state a power cut would leave with the "
            "registered oracles."
        ),
        summary="systematic crash-point exploration and recovery verification",
    ),
    "faultcheck": _Check(
        description=(
            "Inject storage faults (torn/misdirected/dropped writes, flush "
            "lies, IO errors) into a scenario matrix, crash-explore every "
            "cell at recorded IO boundaries and verify recovery with the "
            "fault-aware oracles."
        ),
        summary="crash-point exploration under injected storage faults",
        faults="required",
    ),
    "recoverycheck": _Check(
        description=(
            "Crash-explore every cell and, at each point, remount a fresh "
            "stack on what journal recovery reconstructs, run an append+sync "
            "continuation, cut power again after its last acknowledgement and "
            "judge both crashes with the recovered-* oracles on top of the "
            "registered ones.  See docs/RECOVERY.md."
        ),
        summary="crash-point exploration with remount-and-continue verification",
        faults="optional",
        recovery=True,
    ),
}


def _check_main(name: str, argv: list[str] | None) -> None:
    """The one pipeline behind ``crashcheck``, ``faultcheck`` and ``recoverycheck``."""
    import argparse
    from functools import partial

    from repro.apps.syncpolicy import ERROR_POLICIES
    from repro.core.verification import ORACLES
    from repro.crashlab import STRATEGIES, explore_cells, summary_result, violations_result
    from repro.faults import FAULT_KINDS
    from repro.recovery import (
        ACKED_PREFIX_ORACLE,
        CONTINUATION_ORACLE,
        ContinuationPlan,
        recovery_judge,
    )

    check = _CHECKS[name]
    parser = argparse.ArgumentParser(
        prog=f"repro.experiments.runner {name}",
        description=(
            f"{check.description}  A --config naming a barrier mode expands "
            f"to that mode on BFS-DR plus the legacy contrast cell "
            f"({check.contrast} with barrier mode none), which also stands in "
            "for any BarrierFS config × none; see \"Axis flags\" in "
            "docs/EXPERIMENTS.md."
        ),
    )
    _add_axis_arguments(parser, many=True, scale=0.25, faults=check.faults)
    if check.recovery:
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
            "bisect it caps the probe density of each scout wave, not the "
            "total — re-scouting below each found failure plus the binary "
            "refinement can report more points than the budget"
        ),
    )
    parser.add_argument(
        "--trace-tail", type=int, default=0, metavar="N",
        help=(
            "trace the judging run and attach the last N spans before each "
            "crash point to its violation witness (default 0: off)"
        ),
    )
    _add_output_arguments(parser)
    args = parser.parse_args(argv)

    if args.list:
        oracles = [(oracle.name, oracle.description) for oracle in ORACLES.values()]
        if check.recovery:
            oracles += [
                (ACKED_PREFIX_ORACLE,
                 "pages acknowledged before the crash survived it"),
                (CONTINUATION_ORACLE,
                 "pages the post-remount continuation acknowledged survived its crash"),
            ]
        heads = [("strategies:", STRATEGIES)]
        if check.faults:
            heads.append(("fault kinds:", FAULT_KINDS))
        for head, names in heads:
            print(f"{head:{len(heads[-1][0])}s} {', '.join(names)}")
        print("oracles:")
        width = max(len(oracle) for oracle, _ in oracles)
        for oracle, description in oracles:
            print(f"  {oracle:{width}s} {description}")
        return
    if check.faults == "required" and not args.fault:
        parser.error(
            "at least one --fault plan is required (KIND[:key=value,...]; "
            "use crashcheck for fault-free exploration)"
        )
    floors = {"points": 1}
    if check.recovery:
        floors.update(continuation_calls=1, continuation_pages=1, max_sync_retries=0)
    for dest, floor in floors.items():
        value = getattr(args, dest)
        if value is not None and value < floor:
            parser.error(f"--{dest.replace('_', '-')} must be at least {floor}")
    specs = _specs(
        parser, args,
        faults=_parse_faults(parser, getattr(args, "fault", [])),
        contrast=check.contrast,
        needs_stack=f"{name} needs a filesystem stack to crash and recover",
    )

    judge = None
    if check.recovery:
        judge = partial(recovery_judge, plan=ContinuationPlan(
            calls=args.continuation_calls,
            pages_per_write=args.continuation_pages,
            on_error=args.on_error,
            max_sync_retries=args.max_sync_retries,
        ))
    reports = explore_cells(
        specs,
        strategy=args.strategy,
        points=args.points,
        seed=args.seed,
        jobs=args.jobs,
        trace_tail=max(args.trace_tail, 0),
        judge=judge,
    )
    summary, violations = summary_result(reports), violations_result(reports)
    summary.name, summary.description = name, check.summary
    violations.name = f"{name}-violations"
    _emit([summary, violations], args.format, args.output)


def crashcheck_main(argv: list[str] | None = None) -> None:
    """``runner crashcheck``: crash every cell of a matrix and verify recovery."""
    _check_main("crashcheck", argv)


def faultcheck_main(argv: list[str] | None = None) -> None:
    """``runner faultcheck``: crash exploration composed with fault injection."""
    _check_main("faultcheck", argv)


def recoverycheck_main(argv: list[str] | None = None) -> None:
    """``runner recoverycheck``: crash, remount, continue, judge the round trip."""
    _check_main("recoverycheck", argv)


#: Subcommand name -> entry point; anything else runs the paper's tables.
_SUBCOMMANDS = {
    "sweep": sweep_main,
    "trace": trace_main,
    "crashcheck": crashcheck_main,
    "faultcheck": faultcheck_main,
    "recoverycheck": recoverycheck_main,
}


def main(argv: list[str] | None = None) -> None:
    """Command-line entry point: ``python -m repro.experiments.runner``."""
    import argparse
    import sys

    arguments = list(sys.argv[1:]) if argv is None else list(argv)
    if arguments and arguments[0] in _SUBCOMMANDS:
        _SUBCOMMANDS[arguments[0]](arguments[1:])
        return

    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description=(
            "Regenerate the paper's tables and figures (or run `... runner "
            "sweep --help` for ad-hoc matrices, `... runner crashcheck "
            "--help` for crash-recovery checking, `... runner faultcheck "
            "--help` for crash checking under injected storage faults, "
            "`... runner recoverycheck --help` for remount-and-continue "
            "verification, `... runner trace --help` for cross-layer "
            "tracing)."
        ),
    )
    parser.add_argument(
        "scale", nargs="?", type=float, default=1.0,
        help="iteration-count multiplier for every experiment (default 1.0)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="number of worker processes (default 1: run serially)",
    )
    parser.add_argument(
        "--only", action="append", metavar="NAME",
        help="run only the named experiment (repeatable)",
    )
    _add_output_arguments(parser)
    args = parser.parse_args(arguments)
    results = run_all(args.scale, names=args.only, jobs=args.jobs)
    _emit(results, args.format, args.output)


if __name__ == "__main__":  # pragma: no cover
    main()

"""Fork-based process snapshots: run a shared warm-start prefix once.

A parameter sweep frequently re-simulates the same warmup prefix over and
over: every cell of a ``calls``/``commits`` axis builds the same stack,
replays the same warmup operations, and only then diverges.  This module
runs the shared prefix *once* per group of specs and forks each parameter
point from the warmed-up process image, so matrix wall-clock scales with
the varying suffix instead of the total run length.

The snapshot itself is an ``os.fork``: the simulation state that has to be
captured — the event heap, live generator frames of every simulated
process, filesystem, block and storage device objects, and all RNG streams
— contains generator iterators, which CPython cannot pickle.  A fork's
copy-on-write memory image captures all of it exactly and cheaply, and the
child continues the simulation bit-identically to a run that never forked
(pinned by ``tests/scenarios/test_warm_start.py``).  Child results travel
back over a pipe as pickled :class:`~repro.scenarios.workloads.WorkloadResult`
values.

Grouping: specs share a warm prefix when they agree on every axis and every
workload parameter *except* the workload's declared ``SUFFIX_PARAMS``
(parameters only the measured phase reads, e.g. ``calls`` for sync-loop).
Workloads without a declared warm/measure split, single-spec groups, and
platforms without ``os.fork`` all fall back to plain from-scratch runs —
results are identical either way, warm-start is purely a wall-clock lever.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import replace
from typing import Sequence

from repro.scenarios.engine import (
    ScenarioOutcome,
    collect_device_stats,
    prepare_spec,
    run_spec,
)
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.workloads import WORKLOADS


class SnapshotForkError(RuntimeError):
    """A forked continuation died before delivering its result."""


def fork_supported() -> bool:
    """Whether this platform can take prefix snapshots at all."""
    return hasattr(os, "fork")


def _describe_wait_status(wait_status: int) -> str:
    """Human-readable form of an ``os.waitpid`` status."""
    if os.WIFEXITED(wait_status):
        return f"exited with status {os.WEXITSTATUS(wait_status)}"
    if os.WIFSIGNALED(wait_status):
        return f"killed by signal {os.WTERMSIG(wait_status)}"
    return f"wait status {wait_status}"  # pragma: no cover - stopped/exotic


def warm_group_key(spec: ScenarioSpec) -> tuple:
    """Hashable key identifying the warm prefix a spec would replay.

    Two specs with equal keys build identical stacks and run identical
    warmup phases; they may differ only in suffix parameters and display
    label.  Param values are rendered with ``repr`` so unhashable literals
    (lists) still key correctly.
    """
    suffix = set(WORKLOADS.get(spec.workload).SUFFIX_PARAMS)
    shared_params = tuple(
        sorted((key, repr(value)) for key, value in spec.params.items() if key not in suffix)
    )
    return (
        spec.workload,
        spec.config,
        spec.device,
        spec.scheduler,
        spec.barrier_mode,
        spec.seed,
        spec.scale,
        tuple(sorted((k, repr(v)) for k, v in spec.stack_overrides.items())),
        spec.faults,
        shared_params,
    )


def group_specs(specs: Sequence[ScenarioSpec]) -> list[list[int]]:
    """Partition spec indices into warm-prefix groups, preserving order.

    Groups are keyed by :func:`warm_group_key`; specs of workloads without
    a warm/measure split each form their own singleton group.
    """
    groups: dict[object, list[int]] = {}
    order: list[object] = []
    for index, spec in enumerate(specs):
        workload_class = WORKLOADS.get(spec.workload)
        if workload_class.SUFFIX_PARAMS:
            key = warm_group_key(spec)
        else:
            key = ("__singleton__", index)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(index)
    return [groups[key] for key in order]


def _strip_suffix_params(spec: ScenarioSpec) -> ScenarioSpec:
    suffix = set(WORKLOADS.get(spec.workload).SUFFIX_PARAMS)
    shared = {key: value for key, value in spec.params.items() if key not in suffix}
    return replace(spec, params=shared)


def _run_forked(workload, spec: ScenarioSpec) -> ScenarioOutcome:
    """Fork the warmed process and run ``spec``'s measured phase in the child."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # Child: adopt the spec's full parameter set (the warmed workload
        # was built without the suffix params) and run the measured phase.
        status = 1
        try:
            os.close(read_fd)
            workload.params = dict(spec.params)
            try:
                result = workload.run()
                result.device_stats = collect_device_stats(workload.stack)
                payload = pickle.dumps(
                    ("ok", result), protocol=pickle.HIGHEST_PROTOCOL
                )
                status = 0
            except BaseException as exc:  # noqa: BLE001 - relayed to parent
                payload = pickle.dumps(("err", f"{type(exc).__name__}: {exc}"))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            # Never fall back into the parent's control flow.
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, wait_status = os.waitpid(pid, 0)
    label = f"{spec.display_label!r} ({spec.describe()})"
    if not payload:
        raise SnapshotForkError(
            f"forked run of spec {label} died without delivering a result: "
            f"{_describe_wait_status(wait_status)}"
        )
    kind, value = pickle.loads(payload)
    if kind != "ok":
        raise SnapshotForkError(
            f"forked run of spec {label} failed "
            f"({_describe_wait_status(wait_status)}): {value}"
        )
    return ScenarioOutcome(spec=spec, result=value)


def run_group(specs: Sequence[ScenarioSpec]) -> list[ScenarioOutcome]:
    """Run one warm-prefix group: shared warmup once, then one fork per spec."""
    spec_list = list(specs)
    workload_class = WORKLOADS.get(spec_list[0].workload)
    # Surface bad parameters before any fork hides the traceback.
    for spec in spec_list:
        workload_class(**dict(spec.params))
    if (
        len(spec_list) == 1
        or not workload_class.SUFFIX_PARAMS
        or not fork_supported()
    ):
        if len(spec_list) > 1 and workload_class.SUFFIX_PARAMS:
            # The group *wanted* a shared prefix (several specs, declared
            # warm/measure split) but the platform cannot fork: say so
            # instead of silently running every cell from scratch.
            warnings.warn(
                f"warm-start group {spec_list[0].describe()!r} "
                f"({len(spec_list)} specs) fell back to from-scratch runs: "
                "os.fork is unavailable on this platform",
                RuntimeWarning,
                stacklevel=2,
            )
        return [run_spec(spec) for spec in spec_list]
    workload = prepare_spec(_strip_suffix_params(spec_list[0]))
    workload.warm()
    return [_run_forked(workload, spec) for spec in spec_list]


def run_specs_warm_start(
    specs: Sequence[ScenarioSpec], *, jobs: int = 1
) -> list[ScenarioOutcome]:
    """Warm-start equivalent of :func:`repro.scenarios.engine.run_specs`.

    Outcomes come back in spec order with contents identical to the
    from-scratch path; with ``jobs > 1`` whole groups are sharded across
    worker processes (each worker forks its own group members).
    """
    spec_list = list(specs)
    groups = group_specs(spec_list)
    grouped_specs = [[spec_list[index] for index in group] for group in groups]
    if jobs <= 1 or len(grouped_specs) <= 1:
        group_outcomes = [run_group(group) for group in grouped_specs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, len(grouped_specs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            group_outcomes = list(pool.map(run_group, grouped_specs))
    outcomes: list[ScenarioOutcome] = [None] * len(spec_list)  # type: ignore[list-item]
    for group, results in zip(groups, group_outcomes):
        for index, outcome in zip(group, results):
            outcomes[index] = outcome
    return outcomes

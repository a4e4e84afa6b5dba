"""Host-time benchmark of the simulated barrier-enabled IO stack.

Usage (from the repository root)::

    python3 stackbench/run.py --workload fsync-loop --seed 0 --seconds 50 --trace 0
    python3 stackbench/run.py --write-expected     # re-record the seed-0 digests

Workloads (``workloads.py``): ``fsync-loop`` and ``reproduce``; why each
exists is recorded in ``BENCHMARK.json``.

Every workload reports the same metrics (``END_TO_END``, ``per_layer_names``),
as ``BENCHMARK.json`` lists them.  With ``--trace 0`` the run repeats the
workload's rounds for ``--seconds`` and reports ``round_s`` (busy host
seconds of one round's fixed work), the process's peak resident memory and
``setup_s``, each as the median of its samples.  With ``--trace 1`` it
runs one round untraced and the same round under cProfile, and reports
per-layer host self time and calls (``layers.py``), the time the parent spent
off-CPU waiting for fork children and the profiling overhead.

Every round's simulated outputs are checked (``workloads.check_outcome``);
mismatches are failed operations.  Before the final line the run prints a
``{"record": ...}`` line with each metric's quartiles and sample count, the
workload's own part metrics (``syncs_per_s.<stack>``, ``suite_wall_s``,
``experiments.<id>.wall_s``, ``crashcheck_wall_s``, ``recoverycheck_wall_s``)
or, traced, those of the untraced round and its simulated counts, and the
run's provenance; ``compare.py``
compares two sets of such lines.  The final line is the summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

#: Fresh-interpreter set-ups per run, spread over it; ``setup_s`` is their
#: median.
SETUP_PROBES = 15

#: End-to-end metric -> unit, reported by every workload with ``--trace 0``.
END_TO_END = {"round_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def per_layer_names() -> dict[str, str]:
    """Per-layer metric -> unit, reported by every workload with ``--trace 1``."""
    names = {}
    for layer in layers.LAYERS:
        names[f"{layer}.self_s"] = "s"
        names[f"{layer}.calls"] = "count"
    names["offcpu_wait_s"] = "s"
    names["profile_overhead_x"] = "x"
    return names


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def setup_probe(workload: str, seed: int) -> float:
    """Process start to end of set-up, in a fresh interpreter.

    ``perf_counter`` is the system-wide monotonic clock, so the child's
    ready time and the parent's spawn time are on one time line.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    spawned = time.perf_counter()
    ready = subprocess.run(command, check=True, capture_output=True, text=True,
                           timeout=120).stdout
    return float(ready.split()[-1]) - spawned


def calibration_probe() -> float:
    """Fixed pure-Python work in millions of loop steps per second (median of 5)."""
    rates = []
    for _ in range(5):
        start = time.perf_counter()
        table: dict[int, int] = {}
        total = 0
        for step in range(200_000):
            total += (step * step) % 7
            table[step & 1023] = total
        rates.append(0.2 / (time.perf_counter() - start))
    return statistics.median(rates)


def _git(*args: str) -> str:
    environment = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True, env=environment,
                          timeout=30).stdout.strip()


def git_revision() -> str:
    """Short commit of the checkout, ``-dirty`` when tracked files changed."""
    try:
        if Path(_git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return "unknown"
        revision = _git("rev-parse", "--short", "HEAD")
        dirty = _git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return revision + ("-dirty" if dirty else "")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance() -> dict:
    return {
        "git": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "calibration_msteps_per_s": calibration_probe(),
    }


class Checker:
    """Checks every round's outputs; accumulates attempted and failed ops."""

    def __init__(self, workload: workloads.Workload, seed: int):
        recorded = workloads.load_expected()[workload.name]
        self.expected = {
            name: value for name, value in recorded.items()
            if seed == workloads.RECORDED_SEED or name in workloads.SEED_FREE_OUTPUTS
        }
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    def __call__(self, outcome: workloads.Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += workloads.check_outcome(outcome, self.expected, self.reference)
        if self.reference is None:
            self.reference = dict(outcome.digests)


def sim_unit(name: str) -> str:
    """Unit of a simulated per-layer value."""
    if name.startswith("sim."):
        return "sim_us"
    return "per_sync" if "_per_sync." in name else "count"


def timed_run(workload: workloads.Workload, seed: int, seconds: float):
    """Repeat rounds for about ``seconds``; return samples and the checker.

    ``round_s`` gets one sample per round; each part metric gets the
    round's samples of that part.  ``SETUP_PROBES`` set-up probes are spread
    among the rounds, so ``setup_s`` samples the same stretch of machine load
    as ``round_s``.
    """
    setup_probe(workload.name, seed)  # warm-up: writes the bytecode caches
    state = workload.setup(seed)
    checker = Checker(workload, seed)
    samples: dict[str, list[float]] = {"round_s": [], "setup_s": []}
    samples.update((name, []) for name in workload.parts)
    start = time.perf_counter()
    index = 0
    while True:
        began = time.perf_counter()
        busy, round_samples, raw = workload.round(state, index)
        outcome = workload.outcome(raw)
        checker(outcome)
        samples["round_s"].append(busy)
        for name, values in round_samples.items():
            samples[name].extend(values)
        index += 1
        now = time.perf_counter()
        # Stop once another round would end more than half a round late.
        done = now - start + (now - began) / 2 >= seconds
        due = SETUP_PROBES if done else 1 + int(SETUP_PROBES * (now - start) / seconds)
        while len(samples["setup_s"]) < min(due, SETUP_PROBES):
            samples["setup_s"].append(setup_probe(workload.name, seed))
        if done:
            return samples, checker


def traced_run(workload: workloads.Workload, seed: int) -> tuple[dict, dict, Checker]:
    """One round untraced, then the same round under cProfile.

    Returns the per-layer metrics, the workload's own detail (the untraced
    round's part metrics and simulated counts) and the checker.
    """
    import cProfile
    import pstats

    state = workload.setup(seed)
    checker = Checker(workload, seed)
    metrics: dict[str, tuple[float, str]] = {}
    detail: dict[str, tuple[float, str]] = {}

    start = time.perf_counter()
    _, parts, raw = workload.round(state, 0)
    untraced_wall = time.perf_counter() - start
    for name, values in parts.items():
        detail[name] = (statistics.median(values), workload.parts[name])
    outcome = workload.outcome(raw)
    checker(outcome)
    for name, value in outcome.sim.items():
        detail[name] = (value, sim_unit(name))

    # A CPU-time clock makes self times add up to the parent's CPU time; fork
    # children stop profiling so their replays run at untraced speed, and
    # their time shows as the parent's off-CPU wait.
    profiler = cProfile.Profile(time.process_time)
    os.register_at_fork(after_in_child=profiler.disable)
    cpu_start = time.process_time()
    start = time.perf_counter()
    profiler.enable()
    _, _, raw = workload.round(state, 0)
    profiler.disable()
    traced_wall = time.perf_counter() - start
    parent_cpu = time.process_time() - cpu_start
    checker(workload.outcome(raw))

    per_layer = layers.attribute(pstats.Stats(profiler).stats, workload.entry_layer)
    profiled = sum(entry["self_s"] for entry in per_layer.values())
    # Profiler bookkeeping between events is spread in proportion to self
    # time, so the layers account for the whole parent CPU time.
    scale = parent_cpu / profiled if profiled > 0 else 0.0
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = (per_layer[layer]["self_s"] * scale, "s")
        metrics[f"{layer}.calls"] = (per_layer[layer]["calls"], "count")
    metrics["offcpu_wait_s"] = (max(traced_wall - parent_cpu, 0.0), "s")
    metrics["profile_overhead_x"] = (traced_wall / untraced_wall, "x")
    return metrics, detail, checker


def write_expected() -> None:
    """Record the seed-0 digests of one round of every workload."""
    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        outcome = workload.outcome(workload.round(workload.setup(workloads.RECORDED_SEED), 0)[2])
        if outcome.failed:
            raise SystemExit(f"{name}: {outcome.failed} failed operations; not recording")
        recorded[name] = outcome.digests
    with open(workloads.EXPECTED_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="re-record expected.json from seed-0 outputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_expected:
        write_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(args.seed)
        print(time.perf_counter())
        return 0

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance()}
    if args.trace:
        traced, detail, checker = traced_run(workload, args.seed)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in traced.items()}
        record["metrics"] = metrics
        record["detail"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit) in detail.items()}
    else:
        samples, checker = timed_run(workload, args.seed, args.seconds)
        # Linux reports the peak resident set in KiB.
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {**END_TO_END, **workload.parts}
        summaries = {name: {**quartiles(values), "unit": units[name]}
                     for name, values in samples.items()}
        summaries["peak_rss_mb"] = {**quartiles([peak_rss]), "unit": "MiB"}
        record["metrics"] = {name: summaries[name] for name in END_TO_END}
        record["parts"] = {name: summaries[name] for name in workload.parts}
        metrics = {name: {"value": summaries[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    record["ops_attempted"] = checker.attempted
    record["ops_failed"] = checker.failed
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

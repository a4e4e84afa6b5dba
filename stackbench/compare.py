"""Compare two result sets of the benchmark.

Usage::

    python3 stackbench/run.py --workload fsync-loop --seed 1 ... >> base.jsonl
    python3 stackbench/compare.py base.jsonl change.jsonl

A result set is a file, or a directory of files, holding the output of
``run.py`` runs; only the ``{"record": ...}`` lines are read.  For each
workload and end-to-end metric the report gives each side's median and
quartiles over its runs' medians, and a verdict against the bound in
``BENCHMARK.json``:

* ``improved`` -- the change is better in at least nine tenths of the run
  pairs (taken in order) and the medians differ by more than the base's
  quartile spread;
* ``worse`` -- the change's median is worse than the base's by more than the
  bound, and either both sides' spreads are within the bound or every change
  run is worse than every base run;
* ``unresolved`` -- a side's spread is wider than the bound and the runs do
  not separate;
* ``unchanged`` -- otherwise.

The workload's own part metrics (``syncs_per_s.<stack>``, ``suite_wall_s``,
...) follow with medians and quartiles but no verdict: they have no bound.
From traced runs (``--trace 1``) it names, per workload, the layer whose
median ``self_s`` moved most.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path: Path) -> list[dict]:
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    records = []
    for file in files:
        for line in file.read_text().splitlines():
            if line.startswith('{"record"'):
                records.append(json.loads(line)["record"])
    return records


def summarize(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], change: list[float], bound: float, higher: bool) -> str:
    def better(a: float, b: float) -> bool:
        return a > b if higher else a < b

    b1, b_median, b3 = summarize(base)
    c1, c_median, c3 = summarize(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if better(c, b))
    if better(c_median, b_median) and wins >= 0.9 * len(pairs) and abs(c_median - b_median) > b3 - b1:
        return "improved"
    steady = (b3 - b1) <= bound * b_median and (c3 - c1) <= bound * c_median
    worse_by = (b_median - c_median if higher else c_median - b_median) / b_median
    if worse_by > bound and (steady or all(better(b, c) for b in base for c in change)):
        return "worse"
    if not steady and not all(better(c, b) for b in base for c in change):
        return "unresolved"
    return "unchanged"


def compare(base: list[dict], change: list[dict], bounds: dict) -> list[str]:
    lines = []
    workloads = sorted({record["workload"] for record in base + change})
    for workload in workloads:
        def runs(records, trace):
            return [r for r in records if r["workload"] == workload and r["trace"] == trace]

        def medians(records, key, name):
            return [r[key][name]["median"] for r in runs(records, 0) if name in r.get(key, {})]

        def row(name, base_values, change_values, judged):
            b1, bm, b3 = summarize(base_values)
            c1, cm, c3 = summarize(change_values)
            return (
                f"{workload:15s} {name:40s} base {bm:.4g} [{b1:.4g}, {b3:.4g}] n={len(base_values)}"
                f"  change {cm:.4g} [{c1:.4g}, {c3:.4g}] n={len(change_values)}"
                f"  {(cm - bm) / bm:+.1%}  {judged}"
            )

        for name, (bound, higher) in bounds.items():
            base_values, change_values = medians(base, "metrics", name), medians(change, "metrics", name)
            if base_values and change_values:
                judged = verdict(base_values, change_values, bound, higher)
                lines.append(row(name, base_values, change_values, judged))
        parts = sorted({name for r in runs(base, 0) for name in r.get("parts", {})})
        for name in parts:
            base_values, change_values = medians(base, "parts", name), medians(change, "parts", name)
            if base_values and change_values:
                lines.append(row(name, base_values, change_values, "(part, no bound)"))
        base_traced, change_traced = runs(base, 1), runs(change, 1)
        if base_traced and change_traced:
            moves = {}
            for name in base_traced[0]["metrics"]:
                if name.endswith(".self_s"):
                    before = statistics.median(r["metrics"][name]["value"] for r in base_traced)
                    after = statistics.median(r["metrics"][name]["value"] for r in change_traced)
                    moves[name[: -len(".self_s")]] = (after - before, before)
            layer, (delta, before) = max(moves.items(), key=lambda item: abs(item[1][0]))
            share = f" ({delta / before:+.1%})" if before else ""
            lines.append(f"{workload:15s} layer moved most: {layer} self_s {delta:+.4f} s{share}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["bound"], m["better"] == "higher") for m in spec["end_to_end"]}
    for line in compare(load_records(args.base), load_records(args.change), bounds):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

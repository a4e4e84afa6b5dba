"""Layer map of ``src/repro`` and per-layer attribution of a cProfile run.

The layers are the packages under ``src/repro``, with two modules split out
because optimisations target them separately: ``storage.crash``
(``storage/crash.py``, durable-state reconstruction) and ``fs.journal``.
``repro/__init__.py`` only re-exports the core stack builders, so it belongs
to ``core``.

Self time of functions outside ``src/repro`` (stdlib, builtins, the
benchmark's own frames) is charged to the layer that called them, split by
the per-caller self time pstats records; frames with no caller in any layer
are charged to the workload's entry layer.  The profiler runs on a CPU-time
clock, so the layers' self times add up to the parent's CPU time and the rest
of the traced wall time is ``offcpu_wait_s``.
"""

from __future__ import annotations

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Layer names, in report order.
LAYERS = (
    "simulation", "storage", "storage.crash", "block", "fs", "fs.journal",
    "apps", "scenarios", "experiments", "analysis", "core", "crashlab",
    "recovery", "snapshot", "faults", "trace",
)

#: Module prefix -> layer; the longest matching prefix wins.
_PREFIXES = {
    "repro": "core",
    "repro.core": "core",
    "repro.simulation": "simulation",
    "repro.storage": "storage",
    "repro.storage.crash": "storage.crash",
    "repro.block": "block",
    "repro.fs": "fs",
    "repro.fs.journal": "fs.journal",
    "repro.apps": "apps",
    "repro.scenarios": "scenarios",
    "repro.experiments": "experiments",
    "repro.analysis": "analysis",
    "repro.crashlab": "crashlab",
    "repro.recovery": "recovery",
    "repro.snapshot": "snapshot",
    "repro.faults": "faults",
    "repro.trace": "trace",
}


def layer_of_module(module: str) -> str | None:
    """The layer of a dotted ``repro`` module name, or ``None`` outside repro."""
    parts = module.split(".")
    for length in range(len(parts), 0, -1):
        layer = _PREFIXES.get(".".join(parts[:length]))
        if layer is not None:
            return layer
    return None


def module_of_file(filename: str) -> str | None:
    """Dotted module name of a source file under ``src/repro``, else ``None``."""
    try:
        relative = Path(os.path.realpath(filename)).relative_to(SRC.resolve())
    except ValueError:
        return None
    if relative.suffix != ".py" or relative.parts[0] != "repro":
        return None
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def repro_modules() -> list[str]:
    """Every module under ``src/repro``."""
    return sorted(
        filter(None, (module_of_file(str(path)) for path in (SRC / "repro").rglob("*.py")))
    )


def attribute(stats: dict, entry_layer: str) -> dict[str, dict[str, float]]:
    """Per-layer ``self_s`` and ``calls`` from a ``pstats.Stats.stats`` dict.

    ``calls`` counts calls of the layer's own functions; calls of stdlib and
    builtin functions are not counted, only their time is charged.
    """
    file_layers: dict[str, str | None] = {}

    def own_layer(func) -> str | None:
        filename = func[0]
        if filename not in file_layers:
            module = module_of_file(filename)
            file_layers[filename] = layer_of_module(module) if module else None
        return file_layers[filename]

    shares: dict[tuple, dict[str, float]] = {}

    def share(func, visiting: frozenset) -> dict[str, float]:
        """Fractions of ``func``'s self time owed by each layer."""
        layer = own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        callers = {
            caller: edge for caller, edge in stats[func][4].items()
            if caller != func and caller not in visiting and caller in stats
        }
        result: dict[str, float] = {}
        if callers:
            # Weight by the self time spent under each caller; fall back to
            # call counts when the function took no measurable time.
            weights = {caller: edge[2] for caller, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {caller: edge[1] for caller, edge in callers.items()}
                total = sum(weights.values())
            for caller, weight in weights.items():
                for owner, fraction in share(caller, visiting | {func}).items():
                    result[owner] = result.get(owner, 0.0) + fraction * weight / total
        else:
            result = {entry_layer: 1.0}
        if not visiting:
            shares[func] = result
        return result

    report = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_, calls, self_time, _, _) in stats.items():
        layer = own_layer(func)
        if layer is not None:
            report[layer]["calls"] += calls
        for owner, fraction in share(func, frozenset()).items():
            report[owner]["self_s"] += self_time * fraction
    return report

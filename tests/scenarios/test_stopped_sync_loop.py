"""Sync loops stopped by an error report only the calls that completed.

A fault plan can end a sync loop early (EIO on the sync, a read-only mount
on the write).  The loop's operations, throughput and context switches per
call then count the completed calls, while ``SyncLoopResult.calls`` keeps
the requested count.
"""

from repro.analysis.measure import measure_sync_latency
from repro.core.stack import build_stack, standard_config
from repro.faults import FaultInjector
from repro.scenarios import ScenarioSpec
from repro.scenarios.engine import run_spec


def _sync_loop(faults=()):
    spec = ScenarioSpec(
        workload="sync-loop", config="EXT4-DR", faults=faults, params={"calls": 50}
    )
    return run_spec(spec).result


def test_loop_with_no_completed_sync_reports_no_operations():
    result = _sync_loop("io-error:p=1.0")
    assert len(result.latencies) == 0
    assert result.operations == 0
    assert result.ops_per_second == 0.0
    assert result.extra["context_switches"] == 0.0


def test_partly_completed_loop_counts_completed_calls():
    clean = _sync_loop()
    assert clean.operations == 50 == len(clean.latencies)
    stopped = _sync_loop("io-error:p=0.5,op=write")
    completed = len(stopped.latencies)
    assert 0 < completed < 50
    assert stopped.operations == completed
    assert stopped.ops_per_second == completed / (stopped.elapsed_usec / 1e6)
    # Every completed fsync switched context as often as a fault-free one.
    assert stopped.extra["context_switches"] == clean.extra["context_switches"]


def test_sync_loop_result_keeps_the_requested_count():
    stack = build_stack(standard_config("EXT4-DR"))
    FaultInjector(["io-error:p=0.5,op=write"], seed=0).install(stack.device)
    stack.fs.enable_error_propagation()
    result = measure_sync_latency(stack, calls=50)
    assert result.stopped_by is not None
    assert result.calls == 50
    assert 0 < result.completed == len(result.latencies) < 50
    assert result.iops == result.completed / (result.elapsed_usec / 1e6)

"""The cross-layer tracer: observation-only hooks over a scenario stack.

The properties pinned here are the tentpole guarantees of ``repro.trace``:

* a traced run's workload result is **bit-identical** to an untraced run —
  the hooks observe, they never perturb;
* every syscall journey closes, every span is well-formed, and the stage
  decomposition telescopes exactly to the end-to-end latency — across both
  legacy and barrier-enabled stacks in all five barrier modes;
* the exported trace depends only on per-tracer counters, so it is
  independent of whatever other simulations the process ran before
  (the property that makes ``--jobs`` sharding bit-identical);
* uninstall restores the unwrapped stack exactly.
"""

import pytest

from repro.scenarios.engine import run_spec, run_spec_traced
from repro.scenarios.spec import ScenarioSpec
from repro.trace import LAYERS, Tracer, chrome_trace

#: Every valid (config, barrier-mode) pairing: EXT4-DR runs on orderless
#: devices, the BFS configs need a barrier-capable mode.
CELLS = (
    ("EXT4-DR", "none"),
    ("EXT4-DR", "plp"),
    ("BFS-DR", "in-order-writeback"),
    ("BFS-DR", "transactional"),
    ("BFS-DR", "in-order-recovery"),
)


def make_spec(workload="sync-loop", config="BFS-DR", mode="in-order-writeback",
              scale=0.1, **params):
    return ScenarioSpec(
        workload=workload,
        config=config,
        device="plain-ssd",
        barrier_mode=mode,
        scale=scale,
        params=params,
    )


def fingerprint(result):
    """Everything a WorkloadResult reports, as comparable plain data."""
    summary = result.latency_summary()
    return (
        result.workload,
        result.operations,
        result.elapsed_usec,
        summary.as_dict() if summary is not None else None,
        result.extra,
        result.device_stats,
    )


class TestBitIdentity:
    @pytest.mark.parametrize("workload", ["sync-loop", "postgres-wal"])
    @pytest.mark.parametrize("config,mode", [CELLS[0], CELLS[2]])
    def test_traced_run_equals_untraced_run(self, workload, config, mode):
        spec = make_spec(workload, config, mode)
        untraced = run_spec(spec)
        tracer = Tracer()
        traced = run_spec_traced(spec, tracer)
        assert fingerprint(traced.result) == fingerprint(untraced.result)
        assert len(tracer.spans) > 0
        assert len(tracer.contexts) > 0

    def test_disabled_tracer_records_nothing_and_changes_nothing(self):
        spec = make_spec()
        untraced = run_spec(spec)
        tracer = Tracer(enabled=False)
        traced = run_spec_traced(spec, tracer)
        assert fingerprint(traced.result) == fingerprint(untraced.result)
        assert len(tracer.spans) == 0
        assert tracer.contexts == []


class TestWellFormedness:
    @pytest.mark.parametrize("workload", ["sync-loop", "postgres-wal"])
    @pytest.mark.parametrize("config,mode", CELLS)
    def test_span_tree_is_well_formed(self, workload, config, mode):
        tracer = Tracer()
        run_spec_traced(make_spec(workload, config, mode), tracer)

        # Every syscall journey closed, with a telescoping decomposition.
        assert tracer.contexts, "workload issued no traced syscalls"
        ctx_ids = set()
        for ctx in tracer.contexts:
            assert ctx.closed, f"journey {ctx.ctx_id} ({ctx.op}) never closed"
            assert ctx.end >= ctx.start
            ctx_ids.add(ctx.ctx_id)
            deltas = ctx.stage_deltas()
            stages = (deltas["submit"], deltas["dispatch"],
                      deltas["transfer"], deltas["persist"])
            assert all(stage >= 0.0 for stage in stages)
            assert sum(stages) == pytest.approx(deltas["end_to_end"], abs=1e-6)

        # Every span closed, time-ordered, in the layer vocabulary, and
        # attributed (if at all) to a journey that exists — no orphans.
        assert len(tracer.spans) > 0
        assert tracer.spans.dropped == 0
        for span in tracer.spans:
            assert span.layer in LAYERS
            assert span.end >= span.start
            if span.ctx is not None:
                assert span.ctx in ctx_ids
        # Nothing was left half-open in the request bookkeeping.
        assert tracer._open_requests == {}

    def test_fs_spans_cover_every_journey(self):
        tracer = Tracer()
        run_spec_traced(make_spec(), tracer)
        fs_ctx = {span.ctx for span in tracer.spans
                  if span.layer == "fs" and not span.detail.get("nested")}
        assert fs_ctx == {ctx.ctx_id for ctx in tracer.contexts}

    def test_bounded_buffer_drops_oldest_but_keeps_counting(self):
        tracer = Tracer(buffer_size=16)
        run_spec_traced(make_spec(), tracer)
        assert len(tracer.spans) == 16
        assert tracer.spans.dropped > 0
        tail = tracer.trace_tail(4)
        assert len(tail) == 4
        assert all("us)" in line for line in tail)


class TestDeterminism:
    def test_exported_trace_is_independent_of_prior_simulations(self):
        # Span ids, context ids and request aliases come from per-tracer
        # counters, never the process-global request/command ids — so the
        # same spec exports the same document no matter what ran before in
        # this process (the --jobs 1 vs --jobs 4 property).
        spec = make_spec()
        first = Tracer()
        run_spec_traced(spec, first)
        doc_first = chrome_trace(first.spans, dropped=first.spans.dropped)

        # Shift every process-global id counter with unrelated runs.
        run_spec(make_spec("postgres-wal", "EXT4-DR", "plp"))
        run_spec(make_spec("sync-loop", "BFS-DR", "transactional"))

        second = Tracer()
        run_spec_traced(spec, second)
        doc_second = chrome_trace(second.spans, dropped=second.spans.dropped)
        assert doc_first == doc_second


class TestInstallation:
    def test_install_is_exclusive(self):
        from repro.scenarios.engine import prepare_spec

        tracer = Tracer()
        workload = prepare_spec(make_spec(), tracer=tracer)
        with pytest.raises(RuntimeError):
            tracer.install(workload.stack)
        tracer.uninstall()

    def test_uninstall_restores_the_unwrapped_stack(self):
        from repro.scenarios.engine import prepare_spec

        tracer = Tracer()
        workload = prepare_spec(make_spec(), tracer=tracer)
        stack = workload.stack
        assert "fsync" in stack.fs.__dict__  # instance-attribute wrappers
        assert "submit" in stack.block.__dict__
        assert "try_submit" in stack.device.__dict__
        tracer.uninstall()
        assert not tracer.installed
        for obj, name in (
            (stack.fs, "fsync"),
            (stack.fs, "fdatasync"),
            (stack.block, "submit"),
            (stack.device, "try_submit"),
            (stack.device.flash, "program"),
        ):
            assert name not in obj.__dict__, f"{name} wrapper left behind"

    def test_tracer_on_stackless_workload_is_rejected(self):
        from repro.scenarios.engine import prepare_spec

        spec = ScenarioSpec(workload="blocklevel", config=None, device="plain-ssd")
        with pytest.raises(ValueError, match="tracer"):
            prepare_spec(spec, tracer=Tracer())


class TestMetrics:
    def test_streaming_metrics_match_the_span_stream(self):
        tracer = Tracer()
        run_spec_traced(make_spec(), tracer)
        metrics = tracer.metrics
        per_layer = {}
        for span in tracer.spans:
            per_layer[span.layer] = per_layer.get(span.layer, 0) + 1
        # No spans were dropped (default buffer), so counters match exactly.
        for layer, count in per_layer.items():
            assert metrics.counters[f"spans.{layer}"] == count
        assert metrics.counters["syscalls.fsync"] == len(tracer.contexts)
        assert "queue.device" in metrics.gauges

    def test_metrics_result_table_shape(self):
        tracer = Tracer()
        run_spec_traced(make_spec(), tracer)
        result = tracer.metrics.result()
        assert result.name == "trace-metrics"
        assert result.columns[:2] == ("span", "count")
        assert {"p50_us", "p99_us", "p999_us"} <= set(result.columns)
        rows = result.as_dicts()
        assert rows
        for row in rows:
            # Each P2 sketch's estimate stays within the observed range.
            assert row["min_us"] <= row["p50_us"] <= row["max_us"]
            assert row["min_us"] <= row["p99_us"] <= row["max_us"]


class TestTailAtCut:
    @staticmethod
    def crashed_tracer(index: int, **tracer_kwargs) -> Tracer:
        """A tracer over a run cut at boundary ``index``, left unfinalized."""
        from repro.crashlab.points import CrashPointReached, CrashTrigger
        from repro.scenarios.engine import prepare_spec

        tracer = Tracer(**tracer_kwargs)
        workload = prepare_spec(make_spec(calls=12), tracer=tracer)
        workload.stack.device.crash_tap = CrashTrigger(workload.stack.device, index)
        with pytest.raises(CrashPointReached):
            workload.run()
        return tracer

    @pytest.mark.parametrize("count", [1, 4, 12])
    def test_equals_the_tail_after_finalize_and_mutates_nothing(self, count):
        cut_with_open_requests = 0
        for index in range(0, 40, 3):
            tracer = self.crashed_tracer(index, buffer_size=16)
            spans = [(span.seq, span.describe()) for span in tracer.spans]
            counters = (tracer._span_counter, tracer._alias_counter,
                        tracer._ctx_counter, tracer.spans.dropped)
            metrics = dict(tracer.metrics.counters)
            open_requests = dict(tracer._open_requests)
            cut_with_open_requests += bool(open_requests)

            tail = tracer.trace_tail_at_cut(count)

            assert [(span.seq, span.describe()) for span in tracer.spans] == spans
            assert (tracer._span_counter, tracer._alias_counter,
                    tracer._ctx_counter, tracer.spans.dropped) == counters
            assert dict(tracer.metrics.counters) == metrics
            assert tracer._open_requests == open_requests
            tracer.finalize()
            assert tail == tracer.trace_tail(count)
        assert cut_with_open_requests, "no cut left a request in flight"

    def test_non_positive_count_is_empty(self):
        assert self.crashed_tracer(5).trace_tail_at_cut(0) == []

"""A drained stack keeps no block request and no device command alive.

The block layer logs each request's issue and dispatch facts in flat
columns, so a request — with its milestone events, callback lists and
payload — and the command built from it are freed when they complete, not
when the stack is torn down.  This pins that: after a drained 400-sync loop
no :class:`BlockRequest` or :class:`Command` object may survive while the
stack itself is still alive.  The loop runs with the cyclic collector off,
so a request or command caught in a reference cycle counts as surviving.
"""

import gc

import pytest

from repro.analysis.measure import measure_sync_latency
from repro.block.request import BlockRequest
from repro.core import OrderTracker, build_stack, standard_config
from repro.storage.command import Command


def _live(kind: type) -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is kind)


@pytest.mark.parametrize("config", ["BFS-DR", "EXT4-DR"])
def test_drained_sync_loop_retains_no_request_or_command(config):
    gc.collect()
    requests_before, commands_before = _live(BlockRequest), _live(Command)

    enabled = gc.isenabled()
    gc.disable()
    try:
        stack = build_stack(standard_config(config))
        result = measure_sync_latency(stack, calls=400, sync_call="fsync")
        stack.sim.run()
        assert _live(BlockRequest) <= requests_before
        assert _live(Command) <= commands_before
    finally:
        if enabled:
            gc.enable()
    assert not result.stopped_by
    assert stack.block.stats.requests_submitted >= 800
    # The logs still answer for every request.
    assert len(stack.block.issue_log) == stack.block.stats.requests_submitted
    assert len(stack.block.dispatch_log) == stack.block.stats.requests_dispatched
    records = OrderTracker(stack.block, stack.device).collect()
    assert records and all(record.dispatch_seq is not None for record in records)

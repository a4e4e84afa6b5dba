"""Fired events and finished processes leave nothing for the cyclic collector.

A finished :class:`Process` must be freed by reference counting alone: its
cached wake-up method refers back to it, so the engine drops that method on
every exit path.  An event fired by ``succeed``/``fail`` shares one empty
callback tuple instead of a fresh list, and the simulator's loops fire heap
events in place; either way callbacks added after the trigger must still run
at once.
"""

import gc
import weakref

import pytest

from repro.simulation import Interrupt, SimulationError, Simulator


def _blocks_then_returns(sim):
    yield sim.timeout(5)
    yield sim.timeout(5)
    return 7


def _blocks_then_raises(sim):
    yield sim.timeout(5)
    raise ValueError("boom")


def _interrupted(sim):
    me = sim.active_process
    sim.process(_interrupter(sim, me))
    yield sim.timeout(100)


def _interrupter(sim, target):
    yield sim.timeout(1)
    target.interrupt("stop")


def test_finished_process_is_freed_without_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulator()
        process = sim.process(_blocks_then_returns(sim))
        generator = weakref.ref(process.generator)
        sim.run()
        assert process.value == 7
        del process
        assert generator() is None, "finished process survived reference counting"
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "body", [_blocks_then_returns, _blocks_then_raises, _interrupted],
    ids=["return", "exception", "interrupt"],
)
def test_every_exit_path_drops_the_cached_wakeup(body):
    # A process that ends by an exception keeps it, and the exception's
    # traceback refers back to the process's frames; the cached wake-up
    # method must still go on every path.
    sim = Simulator(propagate_process_errors=False)
    process = sim.process(body(sim))
    sim.run()
    assert process.triggered
    assert process._wakeup_cb is None  # noqa: SLF001


#: The simulator's loops that fire heap events (``run`` and
#: ``run_until_complete`` each have a bounded and an unbounded loop).
_LOOPS = ["step", "run", "run-until", "run-until-complete", "run-until-complete-limit"]

#: Every way an event fires: directly, or from the heap through a loop.
_TRIGGERS = ["succeed", "fail"] + _LOOPS


def _trigger(sim, event, how):
    if how == "succeed":
        event.succeed(3)
        return
    if how == "fail":
        event.fail(RuntimeError("x"))
        return
    sim._schedule(1.0, event, 3)  # noqa: SLF001 - heap-triggered event
    if how == "step":
        while sim.step():
            pass
    elif how == "run":
        sim.run()
    elif how == "run-until":
        sim.run(until=sim.now + 10.0)
    elif how == "run-until-complete":
        sim.run_until_complete(event)
    else:
        sim.run_until_complete(event, limit=sim.now + 10.0)


@pytest.mark.parametrize("how", _TRIGGERS)
def test_callbacks_added_after_trigger_run_at_once(how):
    sim = Simulator()
    event = sim.event("e")
    _trigger(sim, event, how)
    assert event.triggered
    seen = []
    event.add_callback(seen.append)
    event.add_callback(lambda fired: seen.append("second"))
    assert seen == [event, "second"]


@pytest.mark.parametrize("how", ["succeed", "fail"])
def test_fired_events_share_one_empty_callback_tuple(how):
    sim = Simulator()
    events = [sim.event("a"), sim.event("b")]
    calls = []
    for event in events:
        event.add_callback(calls.append)
        _trigger(sim, event, how)
    assert calls == events
    assert events[0].callbacks == ()
    assert events[0].callbacks is events[1].callbacks


def test_double_trigger_still_rejected():
    sim = Simulator()
    event = sim.event("e")
    event.add_callback(lambda fired: None)
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()
    with pytest.raises(SimulationError):
        event.fail(Interrupt())


@pytest.mark.parametrize("how", _LOOPS)
def test_loops_fire_callbacks_in_place(how):
    # The entry-execution body is duplicated in step(), run() and
    # run_until_complete(); every copy iterates the list it finds and
    # allocates no replacement.
    sim = Simulator()
    event = sim.event("e")
    calls = []
    event.add_callback(calls.append)
    callbacks = event.callbacks
    _trigger(sim, event, how)
    assert calls == [event]
    assert event.callbacks is callbacks

"""Golden pin of :class:`OrderTracker` output.

``golden_order_tracker.json`` holds ``collect()``, ``issue_order()`` and
``dispatch_order()`` for two cells: the barrier run of
``test_stack_and_verification`` (40 barrier writes on BFS-OD, power cut at
20 ms) and a merge cell whose bursts of contiguous ordered writes are
back-merged by the scheduler and whose payloads repeat ``(block, version)``
keys across requests.  The second cell pins which request a page is charged
to when a merge absorbed it or another request carried the same key.

Regenerate (only when an output change is intended)::

    python tests/core/test_order_tracker_golden.py > tests/core/golden_order_tracker.json
"""

import json
from pathlib import Path

from repro.block.request import RequestFlag
from repro.core import OrderTracker, build_stack, standard_config
from repro.storage.command import WrittenBlock

GOLDEN_PATH = Path(__file__).with_name("golden_order_tracker.json")


def barrier_cell():
    stack = build_stack(standard_config("BFS-OD", "plain-ssd"))
    block = stack.block
    sim = stack.sim

    def writer():
        for index in range(40):
            block.write(
                index, 1,
                payload=[WrittenBlock(("rec", index), 1)],
                flags=RequestFlag.ORDERED | RequestFlag.BARRIER,
                issuer="app",
            )
            yield sim.timeout(40)
        return None

    sim.process(writer())
    sim.run(until=20_000)
    stack.device.power_off()
    return stack


def merge_cell():
    stack = build_stack(standard_config("BFS-OD", "plain-ssd"))
    block = stack.block
    sim = stack.sim

    def writer():
        lba = 0
        for burst in range(12):
            # Four contiguous ordered writes in one instant: the scheduler
            # back-merges them while the dispatcher is busy.
            for index in range(4):
                key = (burst * 4 + index) % 9
                block.write(
                    lba, 1,
                    payload=[WrittenBlock(("m", key), key % 3)],
                    flags=RequestFlag.ORDERED,
                    issuer="app",
                )
                lba += 1
            block.write(
                lba, 1,
                payload=[WrittenBlock(("bar", burst), 1)],
                flags=RequestFlag.ORDERED | RequestFlag.BARRIER,
                issuer="app",
            )
            lba += 2
            yield sim.timeout(150)
        return None

    sim.process(writer())
    sim.run(until=6_000)
    stack.device.power_off()
    return stack


CELLS = {"barrier": barrier_cell, "merge": merge_cell}


def snapshot(stack) -> dict:
    """JSON-ready ``collect()``/``issue_order()``/``dispatch_order()``."""
    tracker = OrderTracker(stack.block, stack.device)
    records = tracker.collect()
    position = {id(record): index for index, record in enumerate(records)}
    rows = [
        [record.block, record.version, record.issue_seq, record.issue_epoch,
         record.dispatch_seq, record.transfer_seq, record.persist_time,
         record.device_epoch]
        for record in records
    ]
    return json.loads(json.dumps({
        "collect": rows,
        "issue_order": [position[id(record)] for record in tracker.issue_order()],
        "dispatch_order": [position[id(record)] for record in tracker.dispatch_order()],
    }))


def test_order_tracker_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(CELLS)
    for name, cell in CELLS.items():
        assert snapshot(cell()) == golden[name], name


def test_merge_cell_exercises_merges():
    stack = merge_cell()
    assert stack.block.scheduler.underlying.requests_merged > 0
    assert stack.block.stats.requests_dispatched < stack.block.stats.requests_submitted


if __name__ == "__main__":
    print(json.dumps({name: snapshot(cell()) for name, cell in CELLS.items()}, indent=1))

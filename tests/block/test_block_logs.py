"""The block layer's columnar issue and dispatch logs.

The logs replace the request objects the block device used to keep: each
row must say what the live request said at dispatch time — the dispatch
record's ``describe()`` text included — without referring back to it.
"""

import pytest

from repro.block import BlockDevice, BlockDeviceConfig, RequestFlag
from repro.block.logs import DispatchLog, DispatchRecord
from repro.block.request import RequestOp
from repro.core import VerificationError, verify_dispatch_preserves_epochs
from repro.core.verification import CrashProbe
from repro.simulation import Simulator
from repro.storage import StorageDevice, get_profile
from repro.storage.command import WrittenBlock
from repro.storage.crash import recover_durable_blocks

BARRIER = RequestFlag.ORDERED | RequestFlag.BARRIER


def _stack():
    sim = Simulator()
    device = StorageDevice(sim, get_profile("plain-ssd"))
    block = BlockDevice(sim, device, BlockDeviceConfig(scheduler="noop"))
    return sim, device, block


def _mixed_run():
    """Bursts of contiguous ordered writes (merged), barriers, flushes, reads."""
    sim, device, block = _stack()
    requests = []

    def host():
        lba = 0
        for burst in range(6):
            for index in range(3):
                requests.append(block.write(
                    lba, 1, payload=[WrittenBlock(("d", burst, index), burst)],
                    flags=RequestFlag.ORDERED, issuer="app",
                ))
                lba += 1
            requests.append(block.write(lba, 2, flags=BARRIER, issuer="jbd"))
            lba += 4
            requests.append(block.read(lba, 1, issuer="reader"))
            if burst % 2:
                requests.append(block.flush(issuer="flusher"))
            yield sim.timeout(200)
        yield from block.drain()

    sim.run_until_complete(sim.process(host()), limit=10_000_000)
    return sim, device, block, requests


def _dispatched(requests):
    """Requests the dispatcher sent itself (not merged away), in dispatch order."""
    merged = {id(m) for request in requests for m in request.merged_requests}
    return sorted(
        (request for request in requests
         if request.dispatch_seq is not None and id(request) not in merged),
        key=lambda request: request.dispatch_seq,
    )


def test_dispatch_rows_match_the_requests_at_dispatch():
    _sim, _device, block, requests = _mixed_run()
    dispatched = _dispatched(requests)
    log = block.dispatch_log
    assert len(log) == len(dispatched) == block.stats.requests_dispatched
    for record, request in zip(log, dispatched):
        assert record == DispatchRecord(
            request.request_id, request.issue_epoch, request.op, request.lba,
            request.num_pages, request.flags, request.issuer,
        )
        assert record.describe() == request.describe()
    assert any(request.merged_requests for request in dispatched)
    assert {record.op for record in log} == set(RequestOp)


def test_issue_rows_backfill_merged_dispatch_and_log_dispatched_pages():
    _sim, _device, block, requests = _mixed_run()
    issue = block.issue_log
    assert len(issue) == len(requests)
    for request in requests:
        row = request.issue_seq - 1
        assert issue.issue_epoch[row] == request.issue_epoch
        assert issue.dispatch_seq[row] == request.dispatch_seq
        for merged in request.merged_requests:
            assert issue.dispatch_seq[merged.issue_seq - 1] == request.dispatch_seq
    # Pages are logged in dispatch order under the dispatched request's row,
    # a merged page under the request that absorbed it.
    pages = list(zip(issue.page_block, issue.page_version, issue.page_row))
    expected = [
        (written.block, written.version, request.issue_seq - 1)
        for request in _dispatched(requests)
        for written in request.payload
    ]
    assert pages == expected
    merged_pages = {
        written.block
        for request in requests for merged in request.merged_requests
        for written in merged.payload
    }
    assert merged_pages and merged_pages <= set(issue.page_block)


def test_prefix_view_ignores_later_dispatches():
    sim, device, block = _stack()

    def host():
        for index in range(6):
            block.write(index * 2, 1, flags=BARRIER)
            yield sim.timeout(100)

    sim.process(host())
    sim.run(until=250)
    view = block.dispatch_log.prefix()
    frozen = list(view)
    sim.run()
    assert len(block.dispatch_log) > len(view) == len(frozen) > 0
    assert list(view) == frozen
    assert list(view.issue_epochs()) == [record.issue_epoch for record in frozen]
    with pytest.raises(IndexError):
        view[len(view)]
    assert view[-1] == frozen[-1]


def test_crash_probe_reads_a_prefix_of_the_log():
    sim, device, block = _stack()

    class Stack:
        pass

    stack = Stack()
    stack.block, stack.device = block, device

    def host():
        for index in range(4):
            block.write(index * 2, 1, flags=BARRIER)
            yield sim.timeout(100)

    sim.process(host())
    sim.run(until=150)
    probe = CrashProbe.from_stack(recover_durable_blocks(device), stack)
    seen = len(probe.dispatch_log)
    sim.run()
    assert len(probe.dispatch_log) == seen < len(block.dispatch_log)
    verify_dispatch_preserves_epochs(probe.dispatch_log)


def _violating(log_records):
    records = list(log_records)
    records[0], records[-1] = records[-1], records[0]
    return records


def test_violation_text_is_the_same_from_columns_and_rows():
    _sim, _device, block, _requests = _mixed_run()
    records = _violating(block.dispatch_log)
    forged = DispatchLog()
    for record in records:
        forged.request_id.append(record.request_id)
        forged.issue_epoch.append(record.issue_epoch)
        forged.op.append(record.op)
        forged.lba.append(record.lba)
        forged.num_pages.append(record.num_pages)
        forged.flags.append(record.flags)
        forged.issuer.append(record.issuer)
    messages = []
    for log in (records, forged):
        with pytest.raises(VerificationError) as failure:
            verify_dispatch_preserves_epochs(log)
        messages.append(str(failure.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("dispatch order violates epochs: req#")

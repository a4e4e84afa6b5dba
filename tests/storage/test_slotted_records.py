"""The per-IO records are slotted and survive a pickle round-trip.

Every IO builds a block request and a device command, and every stack keeps
each cached page in the cache history, so these records carry no instance
dict.  Results shipped between processes (``run_specs(jobs=N)``,
``explore_cells(jobs=N)``) must still pickle them field for field.
"""

import pickle
from dataclasses import fields

import pytest

from repro.block.request import ORDERED_BARRIER, BlockRequest, RequestOp, write_request
from repro.storage.command import (
    Command,
    CommandFlag,
    CommandPriority,
    WrittenBlock,
    write_command,
)
from repro.storage.writeback_cache import CacheEntry, WritebackCache


def _request() -> BlockRequest:
    request = write_request(
        12, 2, payload=[WrittenBlock(("data", 3, 0), 4), WrittenBlock(("data", 3, 1), 4)],
        flags=ORDERED_BARRIER, issuer="commit-thread",
    )
    request.issue_seq, request.issue_epoch, request.issue_time = 7, 2, 15.5
    request.dispatch_seq, request.dispatch_time = 6, 19.25
    request.error, request.retries = "media-error", 2
    return request


def _command() -> Command:
    command = write_command(
        40, 1, payload=[WrittenBlock(("jc", 9), 9)],
        flags=CommandFlag.FUA | CommandFlag.BARRIER,
        priority=CommandPriority.ORDERED, tag=77,
    )
    command.submit_time = command.accept_time = 3.0
    command.service_start_time, command.transfer_time = 4.0, 5.5
    command.complete_time, command.epoch, command.error = 6.0, 3, None
    return command


def _cache_entry() -> CacheEntry:
    cache = WritebackCache(8)
    [entry] = cache.admit([WrittenBlock("a", 2)], epoch=1, time=8.0, command_id=5)
    entry.durable_time, entry.flush_group, entry.damage = 9.5, 4, "torn"
    return entry


RECORDS = {
    "BlockRequest": _request,
    "Command": _command,
    "WrittenBlock": lambda: WrittenBlock(("logdata", 2, "inode"), 11),
    "CacheEntry": _cache_entry,
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_has_no_instance_dict(name):
    record = RECORDS[name]()
    assert "__slots__" in type(record).__dict__
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_pickles_field_for_field(name):
    record = RECORDS[name]()
    clone = pickle.loads(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(clone) is type(record)
    for field in fields(record):
        assert getattr(clone, field.name) == getattr(record, field.name), field.name


def test_merged_request_pickles_with_its_constituents():
    head = _request()
    tail = write_request(14, 1, issuer="app")
    head.merge(tail)
    clone = pickle.loads(pickle.dumps(head))
    [merged] = clone.merged_requests
    assert merged.request_id == tail.request_id
    assert merged.op is RequestOp.WRITE
    assert clone.payload == head.payload
    assert clone.num_pages == 3

"""Table-driven flag mutators vs ``enum.Flag`` arithmetic.

``set_barrier``, ``strip_barrier`` and ``merge`` look the result up in a
table of precomputed members instead of computing it with ``Flag``
operators, and the predicates read the raw bits.  For every starting flag
combination both paths must give the very same member.
"""

import itertools

import pytest

from repro.block.request import (
    FLUSH_FUA,
    ORDERED_BARRIER,
    RequestFlag,
    write_request,
)

BASE = (RequestFlag.ORDERED, RequestFlag.BARRIER, RequestFlag.FLUSH, RequestFlag.FUA)
ALL_FLAGS = [
    RequestFlag(sum(flag.value for flag in combo))
    for size in range(len(BASE) + 1)
    for combo in itertools.combinations(BASE, size)
]


def test_named_combinations():
    assert ORDERED_BARRIER is RequestFlag.ORDERED | RequestFlag.BARRIER
    assert FLUSH_FUA is RequestFlag.FLUSH | RequestFlag.FUA


@pytest.mark.parametrize("flags", ALL_FLAGS, ids=str)
def test_mutators_match_flag_arithmetic(flags):
    request = write_request(0, 1, flags=flags)
    request.set_barrier()
    assert request.flags is flags | RequestFlag.BARRIER | RequestFlag.ORDERED

    request = write_request(0, 1, flags=flags)
    request.strip_barrier()
    assert request.flags is flags & ~RequestFlag.BARRIER


@pytest.mark.parametrize("flags", ALL_FLAGS, ids=str)
@pytest.mark.parametrize("other", [RequestFlag.NONE, RequestFlag.ORDERED], ids=str)
def test_merge_matches_flag_arithmetic(flags, other):
    head = write_request(0, 1, flags=flags)
    head.merge(write_request(1, 1, flags=other))
    assert head.flags is (flags | RequestFlag.ORDERED if other else flags)


@pytest.mark.parametrize("flags", ALL_FLAGS, ids=str)
def test_predicates_match_flag_arithmetic(flags):
    request = write_request(0, 1, flags=flags)
    assert request.is_ordered == bool(flags & RequestFlag.ORDERED)
    assert request.is_barrier == bool(flags & RequestFlag.BARRIER)
    assert request.wants_flush == bool(flags & RequestFlag.FLUSH)
    assert request.wants_fua == bool(flags & RequestFlag.FUA)
    assert request.is_orderless == (
        not flags & (RequestFlag.ORDERED | RequestFlag.BARRIER)
    )

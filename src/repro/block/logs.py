"""Append-only columnar logs of the block layer's issue and dispatch orders.

The verification code checks the paper's orders after a run (``I = D`` at
epoch granularity, the I/D/C/P reconstruction of :mod:`repro.core.orders`).
It reads only a few integers per request, so the block device records those
facts in flat columns instead of keeping every :class:`BlockRequest` — with
its milestone events, callback lists and payload — alive for the life of the
stack.  Nothing in either log refers back to a request: a request and what
hangs off it are freed when it completes.  The columns are documented on
:class:`~repro.block.block_device.BlockDevice`.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from repro.block.request import RequestFlag, RequestOp, describe_request


class IssueLog:
    """Submitted requests in issue order; row ``i`` has ``issue_seq == i + 1``.

    The page columns are filled at dispatch, when a request's payload
    includes every page merged into it.
    """

    __slots__ = (
        "issue_epoch", "dispatch_seq", "page_block", "page_version", "page_row",
    )

    def __init__(self) -> None:
        self.issue_epoch = array("q")
        self.dispatch_seq = array("q")
        self.page_block: list[object] = []
        self.page_version = array("q")
        self.page_row = array("q")

    def __len__(self) -> int:
        return len(self.issue_epoch)


class DispatchRecord(NamedTuple):
    """One row of a :class:`DispatchLog`, built on demand."""

    request_id: int
    issue_epoch: int
    op: RequestOp
    lba: int
    num_pages: int
    flags: RequestFlag
    issuer: str

    def describe(self) -> str:
        """The dispatched request's :meth:`BlockRequest.describe` text."""
        return describe_request(
            self.request_id, self.op, self.lba, self.num_pages, self.flags, self.issuer
        )


class DispatchLog:
    """Dispatched requests in dispatch order, one row each.

    Indexing and iteration build :class:`DispatchRecord` rows on demand.
    :meth:`prefix` fixes a view of the rows logged so far while the log
    itself keeps growing — a crash probe needs no copy.
    """

    _COLUMNS = (
        "request_id", "issue_epoch", "op", "lba", "num_pages", "flags", "issuer",
    )
    __slots__ = _COLUMNS + ("_length",)

    def __init__(self) -> None:
        self.request_id = array("q")
        self.issue_epoch = array("q")
        self.op: list[RequestOp] = []
        self.lba = array("q")
        self.num_pages = array("q")
        self.flags: list[RequestFlag] = []
        self.issuer: list[str] = []
        #: Row count of a :meth:`prefix` view; ``None`` for the live log.
        self._length: Optional[int] = None

    def __len__(self) -> int:
        if self._length is None:
            return len(self.request_id)
        return self._length

    def __getitem__(self, index: int) -> DispatchRecord:
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("dispatch log index out of range")
        return DispatchRecord(
            self.request_id[index], self.issue_epoch[index], self.op[index],
            self.lba[index], self.num_pages[index], self.flags[index],
            self.issuer[index],
        )

    def __iter__(self) -> Iterator[DispatchRecord]:
        return map(self.__getitem__, range(len(self)))

    def issue_epochs(self) -> Iterator[int]:
        """``issue_epoch`` of every row, in dispatch order."""
        return islice(self.issue_epoch, len(self))

    def prefix(self) -> "DispatchLog":
        """A view of the rows logged so far, sharing this log's columns."""
        view = DispatchLog.__new__(DispatchLog)
        for name in self._COLUMNS:
            setattr(view, name, getattr(self, name))
        view._length = len(self)
        return view

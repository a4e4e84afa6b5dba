"""Log-structured FTL with segment-based in-order crash recovery.

This mirrors the firmware design the paper uses for its UFS prototype
(Section 3.2): the controller treats the whole device as a single
log-structured store, appends incoming pages to an *active segment* in the
order they were transferred, stripes a segment over the flash array when it
fills, and — after a crash — scans the most recent segment from the beginning
and discards everything from the first improperly-programmed page onward.
Because the append order equals the transfer order, that scan yields exactly
a transfer-order prefix, which is what makes the barrier guarantee hold
without ordering the program operations themselves.

The FTL also keeps a logical→physical mapping table and performs a simple
greedy garbage collection when it runs low on free segments, so that the
write-amplification/occupancy bookkeeping a real FTL does is represented,
even though the paper's evaluation does not stress GC.

Bookkeeping is flat: a segment stores its pages as parallel columns (an
entry list plus ``array('d')`` timestamp columns, NaN meaning "program still
outstanding"), and the mapping table stores packed ``segment_id * capacity
+ offset`` integers.  :class:`SegmentPage` and :class:`PageLocation` remain
as lightweight views over those columns so the public API — ``append_batch``
returning indexable page handles, ``mapping[block].segment_id``,
``segment.pages`` — is unchanged.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Mapping
from typing import Iterable, Iterator, Optional

from repro.storage.writeback_cache import CacheEntry

#: Sentinel stored in the ``programmed_at`` column while the program is
#: outstanding.  NaN is unambiguous — simulation timestamps are finite —
#: and lets the column stay a flat C-double array.
_NOT_PROGRAMMED = float("nan")


class PageLocation:
    """Physical location of one logical page (segment id + offset)."""

    __slots__ = ("segment_id", "offset")

    def __init__(self, segment_id: int, offset: int):
        self.segment_id = segment_id
        self.offset = offset

    def __repr__(self) -> str:
        return f"PageLocation(segment_id={self.segment_id}, offset={self.offset})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PageLocation):
            return NotImplemented
        return self.segment_id == other.segment_id and self.offset == other.offset

    def __hash__(self) -> int:
        return hash((self.segment_id, self.offset))


class SegmentPage:
    """View over one slot of a segment: which cache entry was appended and
    when it finished programming (``None`` while the program is still
    outstanding)."""

    __slots__ = ("segment", "offset")

    def __init__(self, segment: "Segment", offset: int):
        self.segment = segment
        self.offset = offset

    @property
    def entry(self) -> CacheEntry:
        """The cache entry appended into this slot."""
        return self.segment.entry_column[self.offset]

    @property
    def appended_at(self) -> float:
        """Simulation time the entry was appended to the log."""
        return self.segment.appended_column[self.offset]

    @property
    def programmed_at(self) -> Optional[float]:
        """Time the program finished, or ``None`` while outstanding."""
        value = self.segment.programmed_column[self.offset]
        return None if value != value else value  # NaN check

    @programmed_at.setter
    def programmed_at(self, value: Optional[float]) -> None:
        self.segment.programmed_column[self.offset] = (
            _NOT_PROGRAMMED if value is None else value
        )

    @property
    def is_programmed(self) -> bool:
        """Whether the page has been programmed to flash."""
        value = self.segment.programmed_column[self.offset]
        return value == value  # not NaN

    def __repr__(self) -> str:
        return (
            f"SegmentPage(segment={self.segment.segment_id}, "
            f"offset={self.offset}, entry={self.entry!r})"
        )


class Segment:
    """A fixed-size log segment backed by parallel flat columns."""

    __slots__ = (
        "segment_id",
        "capacity",
        "sealed",
        "entry_column",
        "appended_column",
        "programmed_column",
    )

    def __init__(self, segment_id: int, capacity: int):
        self.segment_id = segment_id
        self.capacity = capacity
        self.sealed = False
        #: Parallel columns, one slot per appended page (log order).
        self.entry_column: list[CacheEntry] = []
        self.appended_column: array = array("d")
        self.programmed_column: array = array("d")

    @property
    def pages(self) -> list[SegmentPage]:
        """Page views in log order (materialized on demand)."""
        return [SegmentPage(self, offset) for offset in range(len(self.entry_column))]

    def programmed_count(self) -> int:
        """Length of the programmed prefix (stops at the first hole)."""
        count = 0
        for value in self.programmed_column:
            if value != value:  # NaN — program never finished
                break
            count += 1
        return count


class _MappingView(Mapping):
    """Read-only ``block -> PageLocation`` view over the packed location table."""

    __slots__ = ("_locations", "_stride")

    def __init__(self, locations: dict, stride: int):
        self._locations = locations
        self._stride = stride

    def __getitem__(self, block: object) -> PageLocation:
        packed = self._locations[block]
        return PageLocation(packed // self._stride, packed % self._stride)

    def __iter__(self) -> Iterator[object]:
        return iter(self._locations)

    def __len__(self) -> int:
        return len(self._locations)


class LogStructuredFTL:
    """Append-only FTL used by the in-order-recovery barrier mode."""

    def __init__(self, segment_pages: int, *, total_segments: int = 4096,
                 gc_free_threshold: int = 8):
        if segment_pages < 1:
            raise ValueError("segments must hold at least one page")
        self.segment_pages = segment_pages
        self.total_segments = total_segments
        self.gc_free_threshold = gc_free_threshold
        self._segment_ids = itertools.count(1)
        self.segments: dict[int, Segment] = {}
        self.segment_order: list[int] = []
        self.active_segment: Segment = self._open_segment()
        #: logical block -> packed ``segment_id * segment_pages + offset`` of
        #: its most recent durable version (flat ints, no per-page objects).
        self._locations: dict[object, int] = {}
        #: Read-only dict-like façade materializing :class:`PageLocation`.
        self.mapping = _MappingView(self._locations, segment_pages)
        self.gc_runs = 0
        self.pages_relocated = 0

    # -- log append ----------------------------------------------------------
    def _open_segment(self) -> Segment:
        segment = Segment(segment_id=next(self._segment_ids), capacity=self.segment_pages)
        self.segments[segment.segment_id] = segment
        self.segment_order.append(segment.segment_id)
        return segment

    def append(self, entry: CacheEntry, time: float) -> SegmentPage:
        """Append one cache entry to the active segment (transfer order)."""
        segment = self.active_segment
        if len(segment.entry_column) >= segment.capacity:
            segment.sealed = True
            segment = self.active_segment = self._open_segment()
        offset = len(segment.entry_column)
        segment.entry_column.append(entry)
        segment.appended_column.append(time)
        segment.programmed_column.append(_NOT_PROGRAMMED)
        self._locations[entry.block] = segment.segment_id * self.segment_pages + offset
        return SegmentPage(segment, offset)

    def append_batch(self, entries: Iterable[CacheEntry], time: float) -> list[SegmentPage]:
        """Append several entries preserving their order."""
        append = self.append
        return [append(entry, time) for entry in entries]

    def mark_programmed(self, pages: Iterable[SegmentPage], time: float) -> None:
        """Record that the given log pages finished programming at ``time``."""
        for page in pages:
            page.segment.programmed_column[page.offset] = time

    # -- occupancy / garbage collection ---------------------------------------
    @property
    def used_segments(self) -> int:
        """Number of segments currently holding data."""
        return len(self.segments)

    @property
    def free_segments(self) -> int:
        """Segments still available before the device is logically full."""
        return max(0, self.total_segments - self.used_segments)

    def needs_gc(self) -> bool:
        """Whether the greedy garbage collector should run."""
        return self.free_segments <= self.gc_free_threshold

    def run_gc(self, time: float) -> int:
        """Greedily reclaim the sealed segment with the fewest live pages.

        Returns the number of pages relocated.  Relocated pages are appended
        to the active segment (programmed immediately, since GC happens
        inside the device and does not involve the host link).
        """
        candidates = [
            segment
            for segment_id in self.segment_order
            if (segment := self.segments.get(segment_id)) is not None
            and segment.sealed
            and segment is not self.active_segment
        ]
        if not candidates:
            return 0
        victim = min(candidates, key=self._live_page_count)
        locations = self._locations
        base = victim.segment_id * self.segment_pages
        relocated = 0
        for offset, entry in enumerate(victim.entry_column):
            if locations.get(entry.block) == base + offset:
                new_page = self.append(entry, time)
                new_page.segment.programmed_column[new_page.offset] = time
                relocated += 1
        del self.segments[victim.segment_id]
        self.segment_order.remove(victim.segment_id)
        self.gc_runs += 1
        self.pages_relocated += relocated
        return relocated

    def _live_page_count(self, segment: Segment) -> int:
        locations = self._locations
        base = segment.segment_id * self.segment_pages
        live = 0
        for offset, entry in enumerate(segment.entry_column):
            if locations.get(entry.block) == base + offset:
                live += 1
        return live

    # -- crash recovery --------------------------------------------------------
    def recover(self) -> list[CacheEntry]:
        """Return the durable entries an LFS-style recovery scan would keep.

        Sealed segments whose every page programmed are kept in full; the most
        recent (active or partially-programmed) segment is kept only up to the
        first page that had not finished programming, and everything after the
        first such hole — including later segments, which cannot exist in a
        correct log — is discarded.
        """
        recovered: list[CacheEntry] = []
        for segment_id in self.segment_order:
            segment = self.segments[segment_id]
            count = segment.programmed_count()
            recovered.extend(segment.entry_column[:count])
            if count < len(segment.entry_column):
                break
        return recovered

"""Flash array backend: program bandwidth and latency.

The backend models the NAND side of the device: ``channels × ways × planes``
pages can be programmed concurrently and each program operation takes
``program_time`` microseconds.  The writeback-cache flusher asks the backend
to program batches of pages; the backend serialises batches that exceed the
available parallelism, which is what makes a cache flush expensive on a
device without power-loss protection and what bounds the throughput of the
plain buffered-write workloads.

Rotating media (the HDD baseline of Fig. 1) is modelled by charging a seek
per batch instead of a program: the point of the figure is only that the
ordered/orderless gap is a flash-era phenomenon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.simulation.engine import Event, Simulator
from repro.storage.profiles import DeviceProfile


@dataclass
class ProgramOperation:
    """Bookkeeping for one batch program issued to the array."""

    num_pages: int
    start_time: float
    finish_time: float


class FlashBackend:
    """The flash array shared by the writeback-cache flusher and FUA writes.

    The backend keeps a single ``busy_until`` horizon: a new batch begins at
    ``max(now, busy_until)`` and occupies the array for
    ``ceil(pages / parallelism) * program_time``.  This fluid approximation
    keeps the simulation at one event per batch while preserving both the
    latency of a small synchronous program (one ``program_time``) and the
    steady-state bandwidth (``parallelism / program_time``).
    """

    def __init__(self, sim: Simulator, profile: DeviceProfile):
        self.sim = sim
        self.profile = profile
        self.busy_until = 0.0
        self.total_pages_programmed = 0
        self.total_batches = 0
        self.history: list[ProgramOperation] = []
        self.keep_history = False

    @property
    def parallelism(self) -> int:
        """Number of pages that can be programmed concurrently."""
        return self.profile.parallelism

    def batch_duration(self, num_pages: int) -> float:
        """Time the array is occupied programming ``num_pages`` pages."""
        if num_pages <= 0:
            return 0.0
        if self.profile.seek_time:
            # Rotating media: one seek per batch plus media transfer.
            return self.profile.seek_time + num_pages * self.profile.transfer_time_per_page
        rounds = math.ceil(num_pages / self.parallelism)
        return rounds * self.profile.program_time

    def program(self, num_pages: int, *, overhead_factor: float = 0.0) -> Event:
        """Program ``num_pages`` pages; the event fires when they are on media.

        ``overhead_factor`` inflates the duration, used to model the barrier
        bookkeeping penalty the paper charges on the plain SSD (5%) and the
        worst-case transactional-writeback overhead (12%).
        """
        if num_pages < 0:
            raise ValueError("cannot program a negative number of pages")
        completion = self.sim.event(name=f"flash.program({num_pages})")
        if num_pages == 0:
            completion.succeed(0.0)
            return completion
        duration = self.batch_duration(num_pages) * (1.0 + overhead_factor)
        start = max(self.sim.now, self.busy_until)
        finish = start + duration
        self.busy_until = finish
        self.total_pages_programmed += num_pages
        self.total_batches += 1
        if self.keep_history:
            self.history.append(ProgramOperation(num_pages, start, finish))

        def _complete(_event: Event) -> None:
            completion.succeed(finish)

        self.sim.timeout(finish - self.sim.now).add_callback(_complete)
        return completion

    def read(self, num_pages: int) -> Event:
        """Read ``num_pages`` pages; the event fires when the data is ready."""
        if num_pages < 1:
            raise ValueError("reads must cover at least one page")
        rounds = math.ceil(num_pages / self.parallelism)
        duration = rounds * self.profile.read_time + self.profile.seek_time
        return self.sim.timeout(duration)

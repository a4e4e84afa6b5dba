"""IO schedulers for the block layer.

The legacy schedulers (NOOP, DEADLINE, CFQ) model the stock Linux block
layer; :class:`EpochIOScheduler` wraps any of them with the paper's
epoch-based scheduling and barrier-reassignment rules so that the dispatch
order preserves the partial order the filesystem asked for (``I = D``).
"""

from repro.block.scheduler.base import IOScheduler
from repro.block.scheduler.cfq import CFQScheduler
from repro.block.scheduler.deadline import DeadlineScheduler
from repro.block.scheduler.epoch import EpochIOScheduler
from repro.block.scheduler.noop import NoopScheduler

_SCHEDULERS = {
    "noop": NoopScheduler,
    "deadline": DeadlineScheduler,
    "cfq": CFQScheduler,
}

#: The scheduling disciplines :func:`make_scheduler` accepts, sorted.
SCHEDULER_NAMES = tuple(sorted(_SCHEDULERS))


def make_scheduler(name: str, *, epoch: bool = False, max_merge_pages: int = 64):
    """Build a scheduler by name, optionally wrapped in the epoch scheduler.

    ``name`` selects the underlying scheduling discipline (``noop``,
    ``deadline`` or ``cfq``); when ``epoch`` is true the paper's epoch-based
    barrier-reassignment layer is stacked on top of it, which is how the
    barrier-enabled stack is configured.
    """
    try:
        factory = _SCHEDULERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; choose one of {sorted(_SCHEDULERS)}"
        ) from None
    scheduler = factory(max_merge_pages=max_merge_pages)
    if epoch:
        return EpochIOScheduler(scheduler)
    return scheduler


__all__ = [
    "CFQScheduler",
    "DeadlineScheduler",
    "EpochIOScheduler",
    "IOScheduler",
    "NoopScheduler",
    "SCHEDULER_NAMES",
    "make_scheduler",
]

"""Distil a crashed probe into what a remount would recover.

A real remount does not see the host's in-memory state: it sees the
surviving device contents and replays the journal.  :func:`capture_image`
performs exactly that computation on a :class:`~repro.core.verification.CrashProbe`:

* the **file size** comes from the newest inode-metadata version any
  *recovered* transaction journaled (:func:`recovered_transactions` — the
  commit record and every log block survived), resolved through the
  inode's ``metadata_history`` the way recovery reads the inode block the
  journal replayed; with no recovered transaction the size falls back to
  metadata version 0 (the mkfs/preallocation baseline);
* the **data pages** are the durable ``("data", inode, page)`` blocks of
  the crash state, plus the journaled-data blocks of recovered
  transactions (journal replay rewrites those), newest version per page,
  capped at the recovered size.

The result is a frozen, picklable value: remounts of the same probe are
deterministic wherever they run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.verification import CrashProbe, recovered_transactions


@dataclass(frozen=True)
class RecoveredFile:
    """One file as journal recovery reconstructs it."""

    name: str
    inode_no: int
    #: Size in pages per the recovered metadata version.
    size_pages: int
    #: Size in pages the file had before the run (metadata version 0);
    #: pages below it carry pre-run (mkfs/preallocation) content rather
    #: than writes the run acknowledged.
    preallocated_pages: int
    #: ``(page, version)`` of every durable data page below the size,
    #: sorted by page.
    durable_pages: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RecoveredImage:
    """Everything a remount starts from, in inode order."""

    files: tuple[RecoveredFile, ...]

    @property
    def total_pages(self) -> int:
        """Durable data pages across all files (size of the seeded baseline)."""
        return sum(len(entry.durable_pages) for entry in self.files)


def _data_pages_of(blocks, inode_no: int) -> dict[int, int]:
    """``page -> version`` for the ``("data", inode_no, page)`` entries."""
    pages: dict[int, int] = {}
    for block, version in blocks:
        if (
            isinstance(block, tuple)
            and len(block) == 3
            and block[0] == "data"
            and block[1] == inode_no
        ):
            page = block[2]
            if version > pages.get(page, -1):
                pages[page] = version
    return pages


def capture_image(probe: CrashProbe) -> RecoveredImage:
    """What a remount's journal recovery reconstructs from ``probe``."""
    fs = probe.stack.fs
    recovered = recovered_transactions(probe.state, probe.transactions)
    durable_blocks = probe.state.durable_blocks

    files = []
    for name in fs.files:
        inode = fs.open(name).inode
        inode_no = inode.inode_no
        metadata_name = inode.metadata_block_name()
        version = 0
        for txn in recovered:
            version = max(version, txn.metadata_buffers.get(metadata_name, 0))
        size = inode.metadata_history.get(version, 0)

        pages = _data_pages_of(durable_blocks.items(), inode_no)
        for txn in recovered:
            for page, page_version in _data_pages_of(
                txn.journaled_data.items(), inode_no
            ).items():
                if page_version > pages.get(page, -1):
                    pages[page] = page_version

        files.append(
            RecoveredFile(
                name=name,
                inode_no=inode_no,
                size_pages=size,
                preallocated_pages=inode.metadata_history.get(0, 0),
                durable_pages=tuple(
                    sorted(item for item in pages.items() if item[0] < size)
                ),
            )
        )
    return RecoveredImage(files=tuple(sorted(files, key=lambda f: f.inode_no)))

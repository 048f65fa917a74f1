"""The data-block abstraction.

Simulating individual file pages would make simulation cost proportional to
the amount of data; the paper instead introduces *data blocks*: contiguous
sets of file pages that were accessed by the same I/O operation and
therefore share their metadata.  A block records the file it belongs to,
its size, its entry (creation) time in the cache, its last access time and
whether it is dirty.  Blocks may be split into smaller blocks when an I/O
operation or an eviction/flush decision only covers part of a block.

Since the extent rebuild of the LRU lists, the cache does not store blocks:
a cached block is a *fragment*, four numbers (size, entry time, last access
and the per-list insertion stamp) in the packed row of an
:class:`~repro.pagecache.extents.ExtentRun`, the run of one file's
fragments in one state.  Filename, state and storage are the run's.  A
cached chunk therefore costs 32 bytes of row, not an object.

:class:`Block` is the value type of the list API and a *handle* on a
cached fragment.  A handle exists only while something holds it: the
list API (:meth:`~repro.pagecache.lru.LRUList.append`, ``blocks``,
``blocks_of_file``, ``peek_lru``, ``pop_lru``, ``expired_blocks``) hands
them out, and the periodic flusher keeps its expiry snapshot as handles
across its writes.  A held handle is registered (weakly) with its run
under its stamp; every row move carries it, so it keeps following its
fragment through promotion, demotion and ``mark_clean``, and it stops
being "in" a list once its fragment is split, evicted or invalidated.
While registered, ``_run`` and ``_stamp`` locate the fragment and the
other fields mirror its row.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple


class Block:
    """A set of cached file pages sharing their metadata (Figure 2).

    Parameters
    ----------
    filename:
        Name of the file the pages belong to.
    size:
        Block size in bytes (strictly positive).
    entry_time:
        Simulated time at which the data entered the page cache.
    last_access:
        Simulated time of the most recent access.
    dirty:
        ``True`` if the block holds data not yet persisted to storage.
    storage:
        The storage device holding the on-disk copy of the file; used by
        flushing to know where dirty data must be written.
    """

    __slots__ = ("filename", "size", "entry_time", "last_access", "dirty",
                 "storage", "_run", "_stamp", "__weakref__")

    def __init__(self, filename: str, size: float, entry_time: float,
                 last_access: Optional[float] = None, dirty: bool = False,
                 storage: Any = None):
        if size <= 0:
            raise ValueError(f"block size must be positive, got {size}")
        self.filename = filename
        self.size = float(size)
        self.entry_time = float(entry_time)
        self.last_access = float(entry_time if last_access is None else last_access)
        self.dirty = bool(dirty)
        self.storage = storage
        # Owned by repro.pagecache.extents.ExtentRun: the run holding the
        # fragment this handle is registered for, and the fragment's
        # stamp (both None while the block is not cached).
        self._run: Any = None
        self._stamp: Optional[float] = None

    # ------------------------------------------------------------------- api
    def touch(self, now: float) -> None:
        """Record an access at simulated time ``now``."""
        self.last_access = float(now)

    def split(self, first_size: float) -> Tuple["Block", "Block"]:
        """Split the block into two blocks of sizes ``first_size`` and the rest.

        Both halves keep the metadata (entry time, last access, dirty flag,
        storage) of the original block.  Raises ``ValueError`` if
        ``first_size`` is not strictly between 0 and the block size.
        """
        if not (0 < first_size < self.size):
            raise ValueError(
                f"cannot split a block of {self.size} bytes at {first_size}"
            )
        first = Block(self.filename, first_size, self.entry_time,
                      self.last_access, self.dirty, self.storage)
        second = Block(self.filename, self.size - first_size, self.entry_time,
                       self.last_access, self.dirty, self.storage)
        return first, second

    def __repr__(self) -> str:
        flag = "dirty" if self.dirty else "clean"
        return (
            f"<Block file={self.filename!r} size={self.size:.0f} "
            f"entry={self.entry_time:.2f} access={self.last_access:.2f} {flag}>"
        )

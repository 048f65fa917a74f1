"""The I/O Controller (Section III.B of the paper).

Applications send chunk read and write requests to the I/O Controller,
which orchestrates flushing, eviction, cache and disk accesses with the
Memory Manager.  The paper's Algorithms 2–3 live here once, as per-chunk
methods:

* :meth:`IOController.read_chunk` — Algorithm 2 (chunked read, writeback
  or writethrough cache);
* :meth:`IOController.write_chunk` — Algorithm 3 (chunked writeback write);
* :meth:`IOController.write_chunk_through` — the writethrough write path.

:meth:`IOController.read_file` / :meth:`IOController.write_file` are loops
over those methods, used by local applications; they also keep track of
the per-operation elapsed time reported in the experiments.  The NFS
storage service loops over the same per-chunk methods.

All public methods are simulation processes: ``yield`` them from a process
(or wrap them with ``env.process``).  The per-chunk methods call the
Memory Manager's synchronous halves (``take_from_cache``, ``put_to_cache``)
and yield the memory transfers themselves; they flush in the foreground
through :meth:`MemoryManager.flush
<repro.pagecache.memory_manager.MemoryManager.flush>`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.des.environment import Environment
from repro.errors import ConfigurationError
from repro.pagecache.memory_manager import MemoryManager
from repro.pagecache.tolerances import BYTE_EPSILON as _EPSILON
from repro.platform.storage import StorageDevice


@dataclass
class IOResult:
    """Outcome of a full-file read or write operation."""

    filename: str
    size: float
    start_time: float
    end_time: float
    #: Bytes served from (reads) or written to (writes) the page cache.
    cache_bytes: float = 0.0
    #: Bytes read from or written to the storage device synchronously.
    storage_bytes: float = 0.0
    #: Number of chunk operations performed.
    chunks: int = 0

    @property
    def elapsed(self) -> float:
        """Wall-clock simulated duration of the operation."""
        return self.end_time - self.start_time

    @property
    def cache_fraction(self) -> float:
        """Fraction of the operation served by the page cache."""
        if self.size <= 0:
            return 0.0
        return self.cache_bytes / self.size


class IOController:
    """Chunk-level file I/O on top of a :class:`MemoryManager`.

    Parameters
    ----------
    env:
        Simulation environment.
    memory_manager:
        The Memory Manager of the host performing the I/O.  ``None`` raises
        :class:`~repro.errors.ConfigurationError` (the cacheless baseline
        bypasses the controller entirely).  Its configuration supplies
        the chunk size of :meth:`read_file` and :meth:`write_file`.
    """

    def __init__(self, env: Environment, memory_manager: MemoryManager):
        if memory_manager is None:
            raise ConfigurationError("IOController requires a MemoryManager")
        self.env = env
        self.mm = memory_manager
        self.config = memory_manager.config

    # -------------------------------------------------------------- chunk read
    def read_chunk(self, filename: str, file_size: float, chunk_size: float,
                   storage: StorageDevice, anonymous_owner: Optional[str] = None,
                   use_anonymous_memory: bool = True):
        """Algorithm 2: read one chunk of ``filename``.

        Returns a ``(disk_read, cache_read)`` tuple with the bytes read from
        storage and from the page cache respectively.
        """
        mm = self.mm
        stats = mm.stats
        # Amount of the chunk that must come from storage: uncached data is
        # read first (round-robin access assumption), so the uncached amount
        # of the whole file bounds the storage read of this chunk.
        uncached = max(0.0, file_size - mm.cached_amount(filename))
        disk_read = min(chunk_size, uncached)
        cache_read = chunk_size - disk_read

        # Memory needed: one copy of the chunk in anonymous memory plus the
        # newly cached data.
        required_mem = (chunk_size if use_anonymous_memory else 0.0) + disk_read
        flush_amount = required_mem - mm._free - mm.evictable
        if flush_amount > 0:
            yield from mm.flush(flush_amount, exclude_file=filename)
        evict_amount = required_mem - mm._free
        if evict_amount > 0:
            mm.evict(evict_amount, exclude_file=filename)
            still_needed = required_mem - mm._free
            if still_needed > 0:
                # Last resort when the file being read is the only evictable
                # data (e.g. a file larger than the remaining memory streams
                # through the cache): reclaim its own least recently used
                # blocks, as the kernel does.
                mm.evict(still_needed)

        if disk_read > 0:
            stats.record_miss(filename, disk_read)
            yield storage.read(disk_read, label=f"read:{filename}")
            mm.add_to_cache(filename, disk_read, storage, dirty=False)
        if cache_read > 0:
            served = mm.take_from_cache(filename, cache_read)
            if served > 0:
                yield mm.memory.read(served, label=mm._label_cache_read)

        if use_anonymous_memory:
            mm.use_anonymous_memory(chunk_size, owner=anonymous_owner)
        stats.read_ops += 1
        return disk_read, cache_read

    # ------------------------------------------------------------- chunk write
    def write_chunk(self, filename: str, chunk_size: float,
                    storage: StorageDevice):
        """Algorithm 3: write one chunk of ``filename`` with a writeback cache.

        Returns a ``(cache_written, flushed)`` tuple: bytes written to the
        page cache (all of the chunk, eventually) and bytes of dirty data
        flushed synchronously to make room for them.
        """
        mm = self.mm
        stats = mm.stats
        total_flushed = 0.0
        mem_amt = 0.0

        remain_dirty = mm.dirty_capacity - mm.lists.dirty_size
        if remain_dirty > 0:
            # There is room below the dirty threshold: write to memory.
            evict_amount = min(chunk_size, remain_dirty) - mm._free
            if evict_amount > 0:
                mm.evict(evict_amount, exclude_file=filename)
            mem_amt = min(chunk_size, max(0.0, mm._free))
            if mem_amt > 0:
                mm.put_to_cache(filename, mem_amt, storage)
                yield mm.memory.write(mem_amt, label=mm._label_cache_write)

        remaining = chunk_size - mem_amt
        while remaining > _EPSILON:
            # Dirty threshold reached: flush, evict, then write the rest.
            total_flushed += yield from mm.flush(chunk_size - mem_amt)
            evict_amount = chunk_size - mem_amt - mm._free
            if evict_amount > 0:
                mm.evict(evict_amount, exclude_file=filename)
            to_cache = min(remaining, max(0.0, mm._free))
            if to_cache <= _EPSILON:
                # No progress is possible through the cache (e.g. dirty data
                # of this very file fills memory): fall back to writing the
                # remainder straight to storage so the simulation cannot
                # deadlock.
                yield storage.write(remaining, label=f"write:{filename}")
                stats.direct_write_bytes += remaining
                remaining = 0.0
                break
            mm.put_to_cache(filename, to_cache, storage)
            yield mm.memory.write(to_cache, label=mm._label_cache_write)
            remaining -= to_cache
        stats.write_ops += 1
        return chunk_size - remaining, total_flushed

    def write_chunk_through(self, filename: str, chunk_size: float,
                            storage: StorageDevice):
        """Writethrough write: synchronous storage write, then cache the data.

        The data is written to storage at disk bandwidth; the cache is
        evicted if needed and the written data is added to the page cache
        (clean, since it is already persisted).
        """
        mm = self.mm
        yield storage.write(chunk_size, label=f"wt-write:{filename}")
        mm.stats.direct_write_bytes += chunk_size
        evict_amount = chunk_size - mm.free_mem
        if evict_amount > 0:
            mm.evict(evict_amount, exclude_file=filename)
        to_cache = min(chunk_size, max(0.0, mm.free_mem))
        if to_cache > 0:
            mm.add_to_cache(filename, to_cache, storage, dirty=False)
        mm.stats.write_ops += 1
        return to_cache

    # ---------------------------------------------------------------- file ops
    def read_file(self, filename: str, file_size: float, storage: StorageDevice,
                  anonymous_owner: Optional[str] = None,
                  use_anonymous_memory: bool = True):
        """Read a whole file chunk by chunk (round-robin page access).

        Returns an :class:`IOResult`.
        """
        # One float shared by every full chunk, and so by every fragment
        # these chunks leave in the cache.
        chunk = float(self.config.chunk_size)
        env = self.env
        start = env.now
        result = IOResult(filename, file_size, start, start)
        chunks = 0
        storage_bytes = 0.0
        cache_bytes = 0.0
        remaining = file_size
        while remaining > _EPSILON:
            this_chunk = min(chunk, remaining)
            disk_read, cache_read = yield from self.read_chunk(
                filename, file_size, this_chunk, storage,
                anonymous_owner, use_anonymous_memory,
            )
            storage_bytes += disk_read
            cache_bytes += cache_read
            chunks += 1
            remaining -= this_chunk
        result.storage_bytes = storage_bytes
        result.cache_bytes = cache_bytes
        result.chunks = chunks
        result.end_time = env.now
        observer = env.observer
        if observer is not None:
            observer.complete(
                f"read:{filename}", "io", f"io:{storage.name}",
                start, result.end_time,
                attrs={"bytes": file_size, "cache_bytes": cache_bytes,
                       "storage_bytes": storage_bytes, "chunks": chunks},
            )
        return result

    def write_file(self, filename: str, file_size: float, storage: StorageDevice,
                   writethrough: bool = False):
        """Write a whole file chunk by chunk.

        Returns an :class:`IOResult`.  With ``writethrough=True`` the write
        bypasses the writeback path and goes synchronously to storage.
        """
        chunk = float(self.config.chunk_size)
        env = self.env
        start = env.now
        result = IOResult(filename, file_size, start, start)
        chunks = 0
        storage_bytes = 0.0
        cache_bytes = 0.0
        remaining = file_size
        self.mm.mark_file_being_written(filename)
        try:
            while remaining > _EPSILON:
                this_chunk = min(chunk, remaining)
                if writethrough:
                    cached = yield from self.write_chunk_through(
                        filename, this_chunk, storage
                    )
                    storage_bytes += this_chunk
                else:
                    cached, flushed = yield from self.write_chunk(
                        filename, this_chunk, storage
                    )
                    storage_bytes += flushed
                cache_bytes += cached
                chunks += 1
                remaining -= this_chunk
        finally:
            self.mm.unmark_file_being_written(filename)
        result.storage_bytes = storage_bytes
        result.cache_bytes = cache_bytes
        result.chunks = chunks
        result.end_time = env.now
        observer = env.observer
        if observer is not None:
            observer.complete(
                f"write:{filename}", "io", f"io:{storage.name}",
                start, result.end_time,
                attrs={"bytes": file_size, "cache_bytes": cache_bytes,
                       "storage_bytes": storage_bytes, "chunks": chunks,
                       "writethrough": writethrough},
            )
        return result

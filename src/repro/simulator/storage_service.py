"""Storage services.

A storage service exposes file read/write operations backed by a disk on a
host.  Three flavours are provided:

* :class:`~repro.simulator.cacheless.SimpleStorageService` — the original
  WRENCH behaviour: every byte goes to the disk at disk bandwidth, no page
  cache (defined in its own module to keep the baseline isolated);
* :class:`PageCachedStorageService` — WRENCH-cache: local I/O goes through
  the host's Memory Manager and I/O Controller (writeback or writethrough);
* :class:`NFSStorageService` — a :class:`PageCachedStorageService` on a
  remote server, reached over the network: the *server*'s page cache
  serves every chunk (writethrough by default, as in the paper's Exp 3)
  and each chunk adds one network transfer; the client does not cache.

All read/write methods are simulation processes returning an
:class:`~repro.pagecache.io_controller.IOResult`.  The page-cached services
read and write in chunks of the chunk size of their memory manager's
:class:`~repro.pagecache.config.PageCacheConfig`.
"""

from __future__ import annotations

from typing import Optional

from repro.des.environment import Environment
from repro.errors import ConfigurationError
from repro.filesystem.file import File
from repro.pagecache.config import PageCacheConfig
from repro.pagecache.io_controller import IOController, IOResult
from repro.pagecache.memory_manager import MemoryManager
from repro.pagecache.tolerances import BYTE_EPSILON as _EPSILON
from repro.platform.host import Host
from repro.platform.network import Network
from repro.platform.storage import Disk


class StorageService:
    """Base class for storage services."""

    #: Cache behaviour; one of ``"none"``, ``"writeback"``, ``"writethrough"``.
    cache_mode = "none"

    def __init__(self, env: Environment, host: Host, disk: Disk,
                 name: Optional[str] = None):
        self.env = env
        self.host = host
        self.disk = disk
        self.name = name or f"{host.name}:{disk.name}"

    # ------------------------------------------------------------------- api
    def stage_file(self, file: File) -> None:
        """Place ``file`` on the service without simulating any transfer.

        Used to create the input files that exist before the execution
        starts (the page cache is cleared before each run in the paper, so
        staged files are *not* cached).
        """
        self.disk.allocate(file.size)

    def delete_file(self, file: File) -> None:
        """Remove ``file`` from the service, releasing its disk space."""
        self.disk.deallocate(file.size)

    def read_file(self, file: File, *, reader_host: Optional[Host] = None,
                  owner: Optional[str] = None):
        """Read ``file``; simulation process returning an :class:`IOResult`."""
        raise NotImplementedError

    def write_file(self, file: File, *, writer_host: Optional[Host] = None,
                   owner: Optional[str] = None):
        """Write ``file``; simulation process returning an :class:`IOResult`."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} cache={self.cache_mode}>"


class PageCachedStorageService(StorageService):
    """Local storage service with a simulated page cache (WRENCH-cache).

    Parameters
    ----------
    env, host, disk:
        Location of the service.  The host must have a memory device.
    cache_config:
        Page cache tunables; a fresh :class:`MemoryManager` is created on
        the host if it does not already have one (one manager per host,
        shared by all its services, like the kernel's single page cache).
    writethrough:
        If true, writes use the writethrough path instead of writeback.
    """

    def __init__(self, env: Environment, host: Host, disk: Disk,
                 cache_config: Optional[PageCacheConfig] = None,
                 writethrough: bool = False, name: Optional[str] = None):
        super().__init__(env, host, disk, name=name)
        if host.memory is None:
            raise ConfigurationError(
                f"host {host.name!r} has no memory device; a page-cached storage "
                "service requires one"
            )
        if host.memory_manager is None:
            host.memory_manager = MemoryManager(
                env, host.memory, cache_config or PageCacheConfig(),
                name=f"{host.name}.mm",
            )
        self.memory_manager: MemoryManager = host.memory_manager
        self.io_controller = IOController(env, self.memory_manager)
        self.writethrough = writethrough

    @property
    def cache_mode(self) -> str:  # type: ignore[override]
        return "writethrough" if self.writethrough else "writeback"

    def _require_local(self, accessor: Optional[Host], verb: str) -> None:
        # This service models *local* I/O only: it has no network path and
        # charges the service host's disk, memory and page cache.  A remote
        # accessor would get a silently free (and wrongly attributed)
        # transfer; multi-node setups must replicate files on every node
        # (Simulation.stage_file_replicated) or use an NFS service.
        if accessor is not None and accessor.name != self.host.name:
            raise ConfigurationError(
                f"host {accessor.name!r} cannot {verb} on the local storage "
                f"service of {self.host.name!r}; replicate the file on "
                f"{accessor.name!r} or use an NFS storage service"
            )

    def read_file(self, file: File, *, reader_host: Optional[Host] = None,
                  owner: Optional[str] = None):
        self._require_local(reader_host, "read")
        result = yield from self.io_controller.read_file(
            file.name, file.size, self.disk, anonymous_owner=owner
        )
        return result

    def write_file(self, file: File, *, writer_host: Optional[Host] = None,
                   owner: Optional[str] = None):
        self._require_local(writer_host, "write")
        self.disk.allocate(file.size)
        result = yield from self.io_controller.write_file(
            file.name, file.size, self.disk, writethrough=self.writethrough
        )
        return result

    def delete_file(self, file: File) -> None:
        super().delete_file(file)
        self.memory_manager.invalidate_file(file.name)


class NFSStorageService(PageCachedStorageService):
    """A page-cached storage service on a remote host, over the network.

    The server's memory manager and I/O controller do the I/O, exactly as
    for a local service; every chunk adds one network transfer between
    client and server.  Reads run Algorithm 2 on the server (without
    server-side anonymous memory) and then send the chunk to the client.
    Writes send the chunk to the server and then write it according to the
    server cache mode: writethrough by default (the paper's Exp 3: the
    write is synchronous to the server disk and the written data populates
    the server's read cache) or writeback.

    The client does not cache data, as in the paper, but the client's
    anonymous memory is still accounted on the client host when it has a
    memory manager.
    """

    def __init__(self, env: Environment, server_host: Host, disk: Disk,
                 network: Network,
                 cache_config: Optional[PageCacheConfig] = None,
                 writethrough: bool = True, name: Optional[str] = None):
        super().__init__(env, server_host, disk, cache_config=cache_config,
                         writethrough=writethrough,
                         name=name or f"nfs:{server_host.name}:{disk.name}")
        self.network = network

    # ------------------------------------------------------------------ reads
    def read_file(self, file: File, *, reader_host: Optional[Host] = None,
                  owner: Optional[str] = None):
        if reader_host is None:
            raise ConfigurationError("NFS reads require the reading host")
        # One float shared by every full chunk, and so by every fragment
        # these chunks leave in the cache.
        chunk = float(self.memory_manager.config.chunk_size)
        start = self.env.now
        result = IOResult(file.name, file.size, start, start)
        remaining = file.size
        client_mm = reader_host.memory_manager
        while remaining > _EPSILON:
            this_chunk = min(chunk, remaining)
            disk_read, cache_read = yield from self.io_controller.read_chunk(
                file.name,
                file.size,
                this_chunk,
                self.disk,
                use_anonymous_memory=False,
            )
            result.storage_bytes += disk_read
            result.cache_bytes += cache_read
            yield self.network.transfer(
                self.host.name, reader_host.name, this_chunk,
                label=f"nfs:{file.name}",
            )
            if client_mm is not None:
                client_mm.use_anonymous_memory(this_chunk, owner=owner)
            result.chunks += 1
            remaining -= this_chunk
        result.end_time = self.env.now
        return result

    # ----------------------------------------------------------------- writes
    def write_file(self, file: File, *, writer_host: Optional[Host] = None,
                   owner: Optional[str] = None):
        if writer_host is None:
            raise ConfigurationError("NFS writes require the writing host")
        self.disk.allocate(file.size)
        chunk = float(self.memory_manager.config.chunk_size)
        start = self.env.now
        result = IOResult(file.name, file.size, start, start)
        remaining = file.size
        while remaining > _EPSILON:
            this_chunk = min(chunk, remaining)
            yield self.network.transfer(
                writer_host.name, self.host.name, this_chunk,
                label=f"nfs:{file.name}",
            )
            if self.writethrough:
                cached = yield from self.io_controller.write_chunk_through(
                    file.name, this_chunk, self.disk
                )
                result.storage_bytes += this_chunk
                result.cache_bytes += cached
            else:
                cache_written, flushed = yield from self.io_controller.write_chunk(
                    file.name, this_chunk, self.disk
                )
                result.cache_bytes += cache_written
                result.storage_bytes += flushed
            result.chunks += 1
            remaining -= this_chunk
        result.end_time = self.env.now
        return result

"""Cacheless storage service — the original WRENCH baseline.

The paper compares WRENCH-cache against the unmodified WRENCH simulator,
whose I/O model sends every byte to the storage device at disk bandwidth:
no page cache, no distinction between first and repeated accesses, no dirty
data.  :class:`SimpleStorageService` reproduces that behaviour, including
for remote (NFS) storage when constructed with a network and a client host
at read/write time.
"""

from __future__ import annotations

from typing import Optional

from repro.des.environment import Environment
from repro.errors import ConfigurationError
from repro.filesystem.file import File
from repro.pagecache.io_controller import IOResult
from repro.platform.host import Host
from repro.platform.network import Network
from repro.platform.storage import Disk
from repro.simulator.storage_service import StorageService


class SimpleStorageService(StorageService):
    """Storage service without page cache simulation (original WRENCH).

    Parameters
    ----------
    env, host, disk:
        Location of the service.
    network:
        Required only when the service will be accessed from other hosts;
        remote accesses then pay a network transfer in addition to the disk
        access, still without any caching.
    """

    cache_mode = "none"

    def __init__(self, env: Environment, host: Host, disk: Disk,
                 network: Optional[Network] = None, name: Optional[str] = None):
        super().__init__(env, host, disk, name=name)
        self.network = network

    def _network_transfer(self, src: Host, dst: Host, amount: float, label: str):
        if src.name == dst.name:
            return
        if self.network is None:
            raise ConfigurationError(
                f"storage service {self.name!r} accessed from {src.name!r} but "
                "no network was configured"
            )
        yield self.network.transfer(src.name, dst.name, amount, label=label)

    def read_file(self, file: File, *, reader_host: Optional[Host] = None,
                  owner: Optional[str] = None):
        start = self.env.now
        result = IOResult(file.name, file.size, start, start)
        yield self.disk.read(file.size, label=f"read:{file.name}")
        result.storage_bytes += file.size
        if reader_host is not None and reader_host.name != self.host.name:
            yield from self._network_transfer(
                self.host, reader_host, file.size, f"net-read:{file.name}"
            )
        result.chunks = 1
        result.end_time = self.env.now
        return result

    def write_file(self, file: File, *, writer_host: Optional[Host] = None,
                   owner: Optional[str] = None):
        self.disk.allocate(file.size)
        start = self.env.now
        result = IOResult(file.name, file.size, start, start)
        if writer_host is not None and writer_host.name != self.host.name:
            yield from self._network_transfer(
                writer_host, self.host, file.size, f"net-write:{file.name}"
            )
        yield self.disk.write(file.size, label=f"write:{file.name}")
        result.storage_bytes += file.size
        result.chunks = 1
        result.end_time = self.env.now
        return result

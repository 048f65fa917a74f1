"""Memory device model.

The page cache model charges cached reads and cache writes at memory
bandwidth.  A :class:`MemoryDevice` is a bandwidth-limited device just like
a disk (reads and writes through fair-sharing channels, one shared
channel when the bandwidths are equal), plus a total size
used by the :class:`~repro.pagecache.memory_manager.MemoryManager` for
capacity accounting.
"""

from __future__ import annotations

from repro.des.environment import Environment
from repro.errors import ConfigurationError
from repro.platform.storage import StorageDevice
from repro.units import format_size


class MemoryDevice(StorageDevice):
    """RAM of a host: a storage device with byte-addressable capacity.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Device name, typically ``"<host>.ram"``.
    size:
        Total physical memory in bytes.
    read_bandwidth, write_bandwidth:
        Memory bandwidths in bytes per second.
    sharing:
        Whether concurrent accesses share the memory bandwidth.
    """

    def __init__(self, env: Environment, name: str, *, size: float,
                 read_bandwidth: float, write_bandwidth: float,
                 sharing: bool = True):
        if size <= 0:
            raise ConfigurationError(f"memory {name!r}: size must be positive")
        super().__init__(
            env,
            name,
            read_bandwidth=read_bandwidth,
            write_bandwidth=write_bandwidth,
            capacity=size,
            sharing=sharing,
        )

    @property
    def size(self) -> float:
        """Total physical memory in bytes (alias of ``capacity``)."""
        return self.capacity

    @classmethod
    def symmetric(cls, env: Environment, name: str, bandwidth: float, *,
                  size: float, sharing: bool = True) -> "MemoryDevice":
        """Create a memory device with identical read and write bandwidths."""
        return cls(
            env,
            name,
            size=size,
            read_bandwidth=bandwidth,
            write_bandwidth=bandwidth,
            sharing=sharing,
        )

    def __repr__(self) -> str:
        return (
            f"<MemoryDevice {self.name!r} size={format_size(self.size)} "
            f"r={format_size(self.read_bandwidth)}/s "
            f"w={format_size(self.write_bandwidth)}/s>"
        )

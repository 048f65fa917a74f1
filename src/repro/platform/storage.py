"""Storage device models (disks).

A :class:`StorageDevice` simulates transfer times through
:class:`~repro.platform.flows.FairShareChannel` objects: one channel that
reads and writes share when the two bandwidths are equal, as in SimGrid's
disk model, and one per direction otherwise.  The original paper (and
SimGrid 3.25) only supports **symmetric** bandwidths, so the convenience
constructor :meth:`Disk.symmetric` creates a disk whose read and write
bandwidths are both set to the mean of the measured values, exactly as done
in Table III.  Asymmetric bandwidths are supported as well because the paper
identifies them as the main remaining source of simulation error.
"""

from __future__ import annotations

from typing import Optional

from repro.des.environment import Environment
from repro.des.events import Event
from repro.errors import ConfigurationError, StorageError
from repro.platform.flows import FairShareChannel
from repro.units import format_size


class StorageDevice:
    """A device with read/write bandwidth and capacity accounting.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Device name (e.g. ``"ssd0"``).
    read_bandwidth, write_bandwidth:
        Bandwidths in bytes per second.  Equal bandwidths give one channel
        that reads and writes compete on; unequal ones give a channel per
        direction.
    capacity:
        Usable capacity in bytes (``inf`` for unbounded devices).
    sharing:
        Whether concurrent accesses share bandwidth (fair sharing).  The
        contention-oblivious mode reproduces the standalone prototype.
    """

    def __init__(self, env: Environment, name: str, *,
                 read_bandwidth: float, write_bandwidth: float,
                 capacity: float = float("inf"), sharing: bool = True):
        if read_bandwidth <= 0 or write_bandwidth <= 0:
            raise ConfigurationError(
                f"device {name!r}: bandwidths must be positive "
                f"(got read={read_bandwidth}, write={write_bandwidth})"
            )
        if capacity <= 0:
            raise ConfigurationError(f"device {name!r}: capacity must be positive")
        self.env = env
        self.name = name
        self.read_bandwidth = float(read_bandwidth)
        self.write_bandwidth = float(write_bandwidth)
        self.capacity = float(capacity)
        self.sharing = sharing

        self._read_channel = FairShareChannel(
            env, read_bandwidth, name=f"{name}.read", sharing=sharing
        )
        if read_bandwidth == write_bandwidth:
            self._write_channel = self._read_channel
        else:
            self._write_channel = FairShareChannel(
                env, write_bandwidth, name=f"{name}.write", sharing=sharing
            )
        #: Bytes currently stored on the device (maintained by file systems).
        self.used = 0.0
        #: Cumulative statistics.
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.read_ops = 0
        self.write_ops = 0

    # ------------------------------------------------------------------ info
    @property
    def free_space(self) -> float:
        """Remaining capacity in bytes."""
        return self.capacity - self.used

    @property
    def read_channel(self) -> FairShareChannel:
        """The fair-sharing channel carrying read traffic."""
        return self._read_channel

    @property
    def write_channel(self) -> FairShareChannel:
        """The fair-sharing channel carrying write traffic."""
        return self._write_channel

    # ------------------------------------------------------------- transfers
    def read(self, amount: float, label: Optional[str] = None) -> Event:
        """Simulate reading ``amount`` bytes; returns a completion event."""
        if amount < 0:
            raise ValueError("cannot read a negative amount")
        self.bytes_read += amount
        self.read_ops += 1
        return self._read_channel.transfer(amount, label=label)

    def write(self, amount: float, label: Optional[str] = None) -> Event:
        """Simulate writing ``amount`` bytes; returns a completion event."""
        if amount < 0:
            raise ValueError("cannot write a negative amount")
        self.bytes_written += amount
        self.write_ops += 1
        return self._write_channel.transfer(amount, label=label)

    # ------------------------------------------------------- space accounting
    def allocate(self, amount: float) -> None:
        """Reserve ``amount`` bytes of capacity (raises if the disk is full)."""
        if amount < 0:
            raise ValueError("cannot allocate a negative amount")
        if self.used + amount > self.capacity + 1e-6:
            raise StorageError(
                f"device {self.name!r} is full: cannot allocate "
                f"{format_size(amount)} ({format_size(self.free_space)} free)"
            )
        self.used += amount

    def deallocate(self, amount: float) -> None:
        """Release ``amount`` bytes of previously allocated capacity."""
        if amount < 0:
            raise ValueError("cannot deallocate a negative amount")
        self.used = max(0.0, self.used - amount)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"r={format_size(self.read_bandwidth)}/s "
            f"w={format_size(self.write_bandwidth)}/s "
            f"used={format_size(self.used)}/{format_size(self.capacity)}>"
        )


class Disk(StorageDevice):
    """A persistent storage device (SSD/HDD or an NFS-exported partition)."""

    @classmethod
    def symmetric(cls, env: Environment, name: str, bandwidth: float, *,
                  capacity: float = float("inf"),
                  sharing: bool = True) -> "Disk":
        """Create a disk with identical read and write bandwidths.

        This mirrors the paper's simulator configuration, which uses the
        mean of the measured read and write bandwidths because SimGrid 3.25
        only supports symmetrical disk bandwidths.  Reads and writes of a
        symmetric disk compete on a single channel, as in SimGrid's model.
        """
        return cls(
            env,
            name,
            read_bandwidth=bandwidth,
            write_bandwidth=bandwidth,
            capacity=capacity,
            sharing=sharing,
        )

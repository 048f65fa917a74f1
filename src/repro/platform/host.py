"""Host model: CPU + memory + local disks.

A host groups the hardware devices the higher layers need: a multi-core
CPU, a memory device (size and bandwidth) and a set of named disks.  The
page-cache machinery (Memory Manager, I/O Controller) is attached to hosts
by the simulator layer, keeping this module purely about hardware.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.des.environment import Environment
from repro.errors import ConfigurationError
from repro.platform.cpu import CPU
from repro.platform.memory import MemoryDevice
from repro.platform.storage import Disk
from repro.units import format_size


class Host:
    """A simulated machine.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Unique host name.
    cores:
        Number of CPU cores.  Each starts at ``CPU.DEFAULT_SPEED``;
        stragglers change it with ``host.cpu.set_speed``.
    memory:
        The host's :class:`~repro.platform.memory.MemoryDevice`.
    """

    def __init__(self, env: Environment, name: str, *, cores: int = 1,
                 memory: Optional[MemoryDevice] = None):
        self.env = env
        self.name = name
        self.cpu = CPU(env, cores=cores, name=f"{name}.cpu")
        self.memory = memory
        self.disks: Dict[str, Disk] = {}
        #: Set by the simulator layer when page caching is enabled.
        self.memory_manager = None
        #: Availability flag maintained by the fault-injection layer
        #: (:mod:`repro.faults`); always ``True`` in fault-free runs.
        self.up = True

    # -------------------------------------------------------------- building
    def add_disk(self, disk: Disk, mount_point: str) -> Disk:
        """Attach a disk under ``mount_point``."""
        if mount_point in self.disks:
            raise ConfigurationError(
                f"host {self.name!r} already has a disk mounted at "
                f"{mount_point!r}"
            )
        self.disks[mount_point] = disk
        return disk

    def disk(self, mount_point: str) -> Disk:
        """Return the disk mounted at ``mount_point``."""
        try:
            return self.disks[mount_point]
        except KeyError:
            raise ConfigurationError(
                f"host {self.name!r} has no disk mounted at {mount_point!r}; "
                f"known mount points: {sorted(self.disks)}"
            ) from None

    # -------------------------------------------------------------- liveness
    def channels(self) -> list:
        """The distinct transfer channels of the host's disks and memory.

        Symmetric devices expose one channel for both directions; it is
        returned once.
        """
        channels = []
        for disk in self.disks.values():
            channels.append(disk.read_channel)
            if disk.write_channel is not disk.read_channel:
                channels.append(disk.write_channel)
        if self.memory is not None:
            channels.append(self.memory.read_channel)
            if self.memory.write_channel is not self.memory.read_channel:
                channels.append(self.memory.write_channel)
        return channels

    def fail(self) -> int:
        """Mark the host down and abort every in-flight transfer it serves.

        Returns the number of aborted flows (see
        :meth:`~repro.platform.flows.FairShareChannel.abort_all` for the
        abort semantics).  The caller — normally the fault injector — is
        responsible for interrupting the processes that were running on
        the host and for invalidating its page cache; this method only
        flips the hardware state.
        """
        self.up = False
        aborted = 0
        for channel in self.channels():
            aborted += channel.abort_all(reason=f"host {self.name} down")
        return aborted

    def restore(self) -> None:
        """Mark the host up again (repaired / rejoined)."""
        self.up = True

    # ------------------------------------------------------------------ info
    @property
    def cores(self) -> int:
        """Number of CPU cores."""
        return self.cpu.cores

    @property
    def speed(self) -> float:
        """Per-core CPU speed in flops/s."""
        return self.cpu.speed

    @property
    def memory_size(self) -> float:
        """Physical memory size in bytes (0 if no memory device attached)."""
        return self.memory.size if self.memory is not None else 0.0

    def __repr__(self) -> str:
        mem = format_size(self.memory_size) if self.memory else "none"
        return (
            f"<Host {self.name!r} cores={self.cores} mem={mem} "
            f"disks={sorted(self.disks)}>"
        )

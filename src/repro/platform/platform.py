"""Platform description and the paper's cluster.

A :class:`Platform` is the set of hosts and the network connecting them.
:func:`concordia_cluster` builds the dedicated cluster used in the paper's
experiments (compute nodes with 2 x 16 cores, 250 GiB of RAM, local SSDs,
and NFS storage served by another node over a 25 Gbps network) from its
devices.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.des.environment import Environment
from repro.errors import ConfigurationError
from repro.platform.host import Host
from repro.platform.memory import MemoryDevice
from repro.platform.network import Network
from repro.platform.storage import Disk
from repro.units import GiB, GB, MBps

#: Latency of the cluster network link, in seconds.
NETWORK_LATENCY = 100e-6


class Platform:
    """A collection of hosts plus the network connecting them."""

    def __init__(self, env: Environment):
        self.env = env
        self.hosts: Dict[str, Host] = {}
        self.network = Network(env)

    def add_host(self, host: Host) -> Host:
        """Register a host on the platform."""
        if host.name in self.hosts:
            raise ConfigurationError(f"duplicate host name {host.name!r}")
        self.hosts[host.name] = host
        return host

    def host(self, name: str) -> Host:
        """Return the host registered under ``name``."""
        try:
            return self.hosts[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown host {name!r}; known hosts: {sorted(self.hosts)}"
            ) from None

    def host_names(self) -> Iterable[str]:
        """Names of all registered hosts."""
        return self.hosts.keys()

    def __len__(self) -> int:
        return len(self.hosts)

    def __repr__(self) -> str:
        return f"<Platform hosts={sorted(self.hosts)}>"


def concordia_cluster(env: Environment, *, compute_nodes: int = 1,
                      cores_per_node: int = 32,
                      memory_size: float = 250 * GiB,
                      memory_bandwidth: float = 4812 * MBps,
                      memory_read_bandwidth: Optional[float] = None,
                      memory_write_bandwidth: Optional[float] = None,
                      local_disk_bandwidth: float = 465 * MBps,
                      local_disk_read_bandwidth: Optional[float] = None,
                      local_disk_write_bandwidth: Optional[float] = None,
                      local_disk_capacity: float = 450 * GB,
                      remote_disk_bandwidth: float = 445 * MBps,
                      remote_disk_read_bandwidth: Optional[float] = None,
                      remote_disk_write_bandwidth: Optional[float] = None,
                      remote_disk_capacity: float = 450 * GB,
                      network_bandwidth: float = 3000 * MBps,
                      with_nfs_server: bool = True,
                      sharing: bool = True) -> Platform:
    """Build the dedicated cluster used in the paper's experiments.

    Default bandwidths correspond to the *simulator configuration* column of
    Table III (symmetric means of the measured read/write bandwidths); pass
    the ``*_read_bandwidth`` / ``*_write_bandwidth`` keyword arguments to use
    asymmetric (measured) values instead, e.g. for the calibrated reference
    model.

    Parameters
    ----------
    compute_nodes:
        Number of compute nodes, named ``node1`` .. ``nodeN``.
    with_nfs_server:
        Whether to add the NFS storage node (``storage1``), the
        ``cluster_net`` link and the routes between each compute node and
        the storage node.
    sharing:
        Whether every memory device, disk and the network link share their
        bandwidth among concurrent transfers; ``False`` models a
        contention-oblivious simulator.
    """
    platform = Platform(env)

    def build_host(name: str, disk_name: str, mount_point: str,
                   disk_read_bandwidth: float, disk_write_bandwidth: float,
                   disk_capacity: float) -> None:
        memory = MemoryDevice(
            env,
            f"{name}.ram",
            size=memory_size,
            read_bandwidth=memory_read_bandwidth or memory_bandwidth,
            write_bandwidth=memory_write_bandwidth or memory_bandwidth,
            sharing=sharing,
        )
        host = platform.add_host(
            Host(env, name, cores=cores_per_node, memory=memory)
        )
        disk = Disk(
            env,
            f"{name}.{disk_name}",
            read_bandwidth=disk_read_bandwidth,
            write_bandwidth=disk_write_bandwidth,
            capacity=disk_capacity,
            sharing=sharing,
        )
        host.add_disk(disk, mount_point=mount_point)

    node_names = [f"node{i + 1}" for i in range(compute_nodes)]
    for name in node_names:
        build_host(name, "ssd", "/local",
                   local_disk_read_bandwidth or local_disk_bandwidth,
                   local_disk_write_bandwidth or local_disk_bandwidth,
                   local_disk_capacity)

    if with_nfs_server:
        build_host("storage1", "nfs_disk", "/export",
                   remote_disk_read_bandwidth or remote_disk_bandwidth,
                   remote_disk_write_bandwidth or remote_disk_bandwidth,
                   remote_disk_capacity)
        link = platform.network.add_link("cluster_net", network_bandwidth,
                                         NETWORK_LATENCY, sharing=sharing)
        for name in node_names:
            platform.network.add_route(name, "storage1", [link])

    return platform

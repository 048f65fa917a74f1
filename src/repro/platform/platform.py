"""Platform description and builder.

A :class:`Platform` is the set of hosts and the network connecting them.
The :class:`PlatformBuilder` offers a fluent API for constructing platforms
programmatically, and :func:`concordia_cluster` builds the dedicated
cluster used in the paper's experiments (compute nodes with 2 x 16 cores,
250 GiB of RAM, local SSDs, and NFS storage served by another node over a
25 Gbps network).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.des.environment import Environment
from repro.errors import ConfigurationError
from repro.platform.host import Host
from repro.platform.memory import MemoryDevice
from repro.platform.network import Link, Network
from repro.platform.storage import Disk
from repro.units import GiB, GB, MBps


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


class PlatformBuilder:
    """Fluent builder for :class:`Platform` objects.

    Example
    -------
    >>> from repro.des import Environment
    >>> env = Environment()
    >>> platform = (
    ...     PlatformBuilder(env)
    ...     .host("node1", cores=32, memory_size=250 * GiB,
    ...           memory_bandwidth=4812 * MBps)
    ...     .disk("node1", "ssd", bandwidth=465 * MBps, capacity=450 * GB)
    ...     .build()
    ... )
    """

    def __init__(self, env: Environment):
        self.env = env
        self._platform = Platform(env)

    def host(self, name: str, *, cores: int = 1, speed: float = 1e9,
             memory_size: float = 0.0, memory_bandwidth: Optional[float] = None,
             memory_read_bandwidth: Optional[float] = None,
             memory_write_bandwidth: Optional[float] = None,
             sharing: bool = True) -> "PlatformBuilder":
        """Add a host, optionally with a memory device."""
        host = Host(self.env, name, cores=cores, speed=speed)
        if memory_size > 0:
            read_bw = memory_read_bandwidth or memory_bandwidth
            write_bw = memory_write_bandwidth or memory_bandwidth
            if not read_bw or not write_bw:
                raise ConfigurationError(
                    f"host {name!r}: memory_size given without memory bandwidth"
                )
            host.set_memory(
                MemoryDevice(
                    self.env,
                    f"{name}.ram",
                    size=memory_size,
                    read_bandwidth=read_bw,
                    write_bandwidth=write_bw,
                    sharing=sharing,
                )
            )
        self._platform.add_host(host)
        return self

    def disk(self, host_name: str, disk_name: str, *, bandwidth: Optional[float] = None,
             read_bandwidth: Optional[float] = None,
             write_bandwidth: Optional[float] = None,
             capacity: float = float("inf"),
             mount_point: Optional[str] = None,
             sharing: bool = True) -> "PlatformBuilder":
        """Attach a disk to an existing host."""
        read_bw = read_bandwidth or bandwidth
        write_bw = write_bandwidth or bandwidth
        if not read_bw or not write_bw:
            raise ConfigurationError(
                f"disk {disk_name!r}: either bandwidth or both read/write bandwidths required"
            )
        host = self._platform.host(host_name)
        disk = Disk(
            self.env,
            f"{host_name}.{disk_name}",
            read_bandwidth=read_bw,
            write_bandwidth=write_bw,
            capacity=capacity,
            sharing=sharing,
        )
        host.add_disk(disk, mount_point=mount_point or disk_name)
        return self

    def link(self, name: str, bandwidth: float, latency: float = 0.0) -> "PlatformBuilder":
        """Add a network link."""
        self._platform.network.add_link(name, bandwidth, latency)
        return self

    def route(self, src: str, dst: str, link_names: Iterable[str],
              symmetric: bool = True) -> "PlatformBuilder":
        """Add a route between two hosts over previously created links."""
        links = [self._require_link(name) for name in link_names]
        self._platform.network.add_route(src, dst, links, symmetric=symmetric)
        return self

    def _require_link(self, name: str) -> Link:
        try:
            return self._platform.network.links[name]
        except KeyError:
            raise ConfigurationError(f"unknown link {name!r}") from None

    def build(self) -> Platform:
        """Return the constructed platform."""
        return self._platform


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
                      network_latency: float = 100e-6,
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
        Whether to add the NFS storage node (``storage1``) and the network
        routes between each compute node and the storage node.
    """
    builder = PlatformBuilder(env)
    node_names = [f"node{i + 1}" for i in range(compute_nodes)]
    for name in node_names:
        builder.host(
            name,
            cores=cores_per_node,
            speed=1e9,
            memory_size=memory_size,
            memory_bandwidth=memory_bandwidth,
            memory_read_bandwidth=memory_read_bandwidth,
            memory_write_bandwidth=memory_write_bandwidth,
            sharing=sharing,
        )
        builder.disk(
            name,
            "ssd",
            bandwidth=local_disk_bandwidth,
            read_bandwidth=local_disk_read_bandwidth,
            write_bandwidth=local_disk_write_bandwidth,
            capacity=local_disk_capacity,
            mount_point="/local",
            sharing=sharing,
        )

    if with_nfs_server:
        builder.host(
            "storage1",
            cores=cores_per_node,
            speed=1e9,
            memory_size=memory_size,
            memory_bandwidth=memory_bandwidth,
            memory_read_bandwidth=memory_read_bandwidth,
            memory_write_bandwidth=memory_write_bandwidth,
            sharing=sharing,
        )
        builder.disk(
            "storage1",
            "nfs_disk",
            bandwidth=remote_disk_bandwidth,
            read_bandwidth=remote_disk_read_bandwidth,
            write_bandwidth=remote_disk_write_bandwidth,
            capacity=remote_disk_capacity,
            mount_point="/export",
            sharing=sharing,
        )
        builder.link("cluster_net", network_bandwidth, network_latency)
        for name in node_names:
            builder.route(name, "storage1", ["cluster_net"])

    return builder.build()

"""Hardware platform models.

This subpackage reimplements the "macroscopic" resource models the paper
inherits from SimGrid [21]: devices characterised by a bandwidth (network
links also by a latency), with the bandwidth shared fairly among
concurrent transfers (progressive filling).  On top of the raw flow model it provides disks,
memory devices, network links and routes, CPUs, hosts, and the paper's
cluster built from them for the higher simulation layers.
"""

from repro.platform.flows import FairShareChannel, Flow
from repro.platform.storage import StorageDevice, Disk
from repro.platform.memory import MemoryDevice
from repro.platform.network import Link, Route, Network
from repro.platform.cpu import CPU
from repro.platform.host import Host
from repro.platform.platform import Platform, concordia_cluster

__all__ = [
    "FairShareChannel",
    "Flow",
    "StorageDevice",
    "Disk",
    "MemoryDevice",
    "Link",
    "Route",
    "Network",
    "CPU",
    "Host",
    "Platform",
    "concordia_cluster",
]

"""Network links and routes.

The NFS experiments of the paper move data between a compute node and a
storage node over a 25 Gbps network.  We model a network as a set of named
:class:`Link` objects (fair-sharing channels with latency) and
:class:`Route` objects connecting pairs of hosts.

Multi-link routes are simulated with a *bottleneck* approximation: a
transfer occupies the slowest link of the route (fair-shared with other
transfers using that link) and pays the sum of all link latencies.  For the
single-switch cluster topologies studied in the paper this is exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.des.environment import Environment
from repro.des.events import Event
from repro.errors import ConfigurationError
from repro.platform.flows import FairShareChannel
from repro.units import format_size


class Link:
    """A network link with a bandwidth and a latency."""

    def __init__(self, env: Environment, name: str, bandwidth: float,
                 latency: float = 0.0, sharing: bool = True):
        if bandwidth <= 0:
            raise ConfigurationError(f"link {name!r}: bandwidth must be positive")
        if latency < 0:
            raise ConfigurationError(f"link {name!r}: latency must be >= 0")
        self.name = name
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.channel = FairShareChannel(env, bandwidth, name=name, sharing=sharing)

    def __repr__(self) -> str:
        return (
            f"<Link {self.name!r} bw={format_size(self.bandwidth)}/s "
            f"lat={self.latency * 1e3:.3f} ms>"
        )


class Route:
    """An ordered sequence of links between two hosts.

    ``latency`` (the sum of the links' latencies) and ``bottleneck`` (the
    slowest link) are computed once: a link's bandwidth and latency do not
    change after construction (stragglers rescale the bottleneck's channel
    through :meth:`FairShareChannel.set_bandwidth`, not the link).
    """

    def __init__(self, src: str, dst: str, links: List[Link]):
        if not links:
            raise ConfigurationError(f"route {src}->{dst} needs at least one link")
        self.src = src
        self.dst = dst
        self.links = list(links)
        self.latency = sum(link.latency for link in self.links)
        self.bottleneck = min(self.links, key=lambda link: link.bandwidth)

    def __repr__(self) -> str:
        names = "->".join(link.name for link in self.links)
        return f"<Route {self.src}->{self.dst} via {names}>"


class Network:
    """Registry of links and host-to-host routes.

    Routes are symmetric: registering a route from ``a`` to ``b`` also
    registers the reverse route over the same links.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.links: Dict[str, Link] = {}
        self._routes: Dict[Tuple[str, str], Route] = {}

    def add_link(self, name: str, bandwidth: float, latency: float = 0.0,
                 sharing: bool = True) -> Link:
        """Create and register a link."""
        if name in self.links:
            raise ConfigurationError(f"duplicate link name {name!r}")
        link = Link(self.env, name, bandwidth, latency, sharing=sharing)
        self.links[name] = link
        return link

    def add_route(self, src: str, dst: str, links: List[Link]) -> Route:
        """Register a route between two hosts, in both directions."""
        route = Route(src, dst, links)
        self._routes[(src, dst)] = route
        self._routes[(dst, src)] = Route(dst, src, list(reversed(links)))
        return route

    def route(self, src: str, dst: str) -> Route:
        """Return the registered route from ``src`` to ``dst``."""
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise ConfigurationError(f"no route registered from {src!r} to {dst!r}") from None

    def transfer(self, src: str, dst: str, amount: float,
                 label: Optional[str] = None) -> Event:
        """Transfer ``amount`` bytes from ``src`` to ``dst``.

        Local transfers (``src == dst``) and empty ones complete
        immediately.
        """
        if src == dst or amount <= 0:
            done_now = Event(self.env)
            done_now.succeed(0.0)
            return done_now
        route = self.route(src, dst)
        return self.env.process(self._transfer(route, amount, label),
                                name=f"net-{src}-{dst}")

    def _transfer(self, route: Route, amount: float, label: Optional[str]):
        latency = route.latency
        if latency > 0:
            yield self.env.timeout(latency)
        elapsed = yield route.bottleneck.channel.transfer(amount, label=label)
        return latency + elapsed

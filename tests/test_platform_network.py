"""Unit tests for network links, routes and the network registry."""

import pytest

from repro.errors import ConfigurationError
from repro.platform.network import Link, Network, Route
from repro.units import MB, MBps


class TestLink:
    def test_invalid_parameters(self, env):
        with pytest.raises(ConfigurationError):
            Link(env, "bad", bandwidth=0)
        with pytest.raises(ConfigurationError):
            Link(env, "bad", bandwidth=100, latency=-1)


class TestRoute:
    def test_requires_at_least_one_link(self):
        with pytest.raises(ConfigurationError):
            Route("a", "b", [])

    def test_latency_and_bottleneck(self, env):
        fast = Link(env, "fast", bandwidth=1000 * MBps, latency=0.1)
        slow = Link(env, "slow", bandwidth=100 * MBps, latency=0.2)
        route = Route("a", "b", [fast, slow])
        assert route.latency == pytest.approx(0.3)
        assert route.bottleneck is slow


class TestNetwork:
    def _simple_network(self, env, latency=0.0):
        network = Network(env)
        link = network.add_link("lan", 100 * MBps, latency)
        network.add_route("client", "server", [link])
        return network

    def test_duplicate_link_rejected(self, env):
        network = Network(env)
        network.add_link("lan", 100 * MBps)
        with pytest.raises(ConfigurationError):
            network.add_link("lan", 200 * MBps)

    def test_symmetric_route_registration(self, env):
        network = self._simple_network(env)
        assert network.route("client", "server").dst == "server"
        assert network.route("server", "client").dst == "client"

    def test_missing_route_raises(self, env):
        network = Network(env)
        with pytest.raises(ConfigurationError):
            network.route("nowhere", "elsewhere")

    def test_transfer_time(self, env, runner):
        network = self._simple_network(env, latency=0.5)

        def proc(env):
            yield network.transfer("client", "server", 100 * MB)
            return env.now

        assert runner(env, proc(env)) == pytest.approx(1.5)

    def test_local_transfer_is_free(self, env, runner):
        network = self._simple_network(env)

        def proc(env):
            yield network.transfer("client", "client", 100 * MB)
            return env.now

        assert runner(env, proc(env)) == 0.0

    def test_zero_size_transfer_is_free(self, env, runner):
        network = self._simple_network(env)

        def proc(env):
            yield network.transfer("client", "server", 0)
            return env.now

        assert runner(env, proc(env)) == 0.0

    def test_transfers_share_bottleneck(self, env):
        network = self._simple_network(env)
        finish = []

        def proc(env):
            yield network.transfer("client", "server", 100 * MB)
            finish.append(env.now)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert finish == [pytest.approx(2.0), pytest.approx(2.0)]

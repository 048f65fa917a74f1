"""Unit tests for the fair-sharing flow model."""

import pytest

from repro import GB, Simulation, SimulationConfig
from repro.apps.synthetic import synthetic_workflow
from repro.des import Environment
from repro.errors import ConfigurationError
from repro.obs.spans import Observer
from repro.platform.flows import FairShareChannel, Flow
from repro.snapshot.recipe import build_experiment
from repro.units import GBps, MB


class TestBasics:
    def test_bandwidth_must_be_positive(self, env):
        with pytest.raises(ConfigurationError):
            FairShareChannel(env, 0.0)

    def test_single_transfer_time(self, env, runner):
        channel = FairShareChannel(env, bandwidth=100.0)

        def proc(env):
            yield channel.transfer(1000.0)
            return env.now

        assert runner(env, proc(env)) == pytest.approx(10.0)

    def test_zero_transfer_completes_immediately(self, env, runner):
        channel = FairShareChannel(env, bandwidth=100.0)

        def proc(env):
            elapsed = yield channel.transfer(0.0)
            return elapsed, env.now

        assert runner(env, proc(env)) == (0.0, 0.0)

    def test_negative_transfer_rejected(self, env):
        channel = FairShareChannel(env, bandwidth=100.0)
        with pytest.raises(ValueError):
            channel.transfer(-1.0)

    def test_transfer_event_value_is_elapsed_time(self, env, runner):
        channel = FairShareChannel(env, bandwidth=50.0)

        def proc(env):
            elapsed = yield channel.transfer(100.0)
            return elapsed

        assert runner(env, proc(env)) == pytest.approx(2.0)


class TestFairSharing:
    def test_two_concurrent_flows_share_bandwidth(self, env):
        channel = FairShareChannel(env, bandwidth=100.0)
        finish = {}

        def proc(env, label):
            yield channel.transfer(1000.0)
            finish[label] = env.now

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        # Two equal flows on a shared channel take twice the solo time.
        assert finish["a"] == pytest.approx(20.0)
        assert finish["b"] == pytest.approx(20.0)

    def test_late_arrival_slows_down_first_flow(self, env):
        channel = FairShareChannel(env, bandwidth=100.0)
        finish = {}

        def first(env):
            yield channel.transfer(1000.0)
            finish["first"] = env.now

        def second(env):
            yield env.timeout(5.0)
            yield channel.transfer(500.0)
            finish["second"] = env.now

        env.process(first(env))
        env.process(second(env))
        env.run()
        # First flow: 500 bytes alone (5 s), then shares the channel.
        # Remaining 500 vs 500: both at 50 B/s -> 10 more seconds.
        assert finish["first"] == pytest.approx(15.0)
        assert finish["second"] == pytest.approx(15.0)

    def test_short_flow_departure_speeds_up_long_flow(self, env):
        channel = FairShareChannel(env, bandwidth=100.0)
        finish = {}

        def proc(env, label, amount):
            yield channel.transfer(amount)
            finish[label] = env.now

        env.process(proc(env, "short", 200.0))
        env.process(proc(env, "long", 1000.0))
        env.run()
        # Shared until the short one ends at t=4 (200 B at 50 B/s); the long
        # one then has 800 left at full bandwidth: 4 + 8 = 12 s.
        assert finish["short"] == pytest.approx(4.0)
        assert finish["long"] == pytest.approx(12.0)

    def test_work_conservation_many_flows(self, env):
        channel = FairShareChannel(env, bandwidth=250.0)
        completions = []

        def proc(env, amount):
            yield channel.transfer(amount)
            completions.append(env.now)

        amounts = [100.0, 200.0, 300.0, 400.0]
        for amount in amounts:
            env.process(proc(env, amount))
        env.run()
        # The channel is busy the whole time, so the last completion equals
        # the total work divided by the bandwidth.
        assert max(completions) == pytest.approx(sum(amounts) / 250.0)
        assert channel.total_transferred == pytest.approx(sum(amounts))

    def test_rate_per_flow(self, env):
        channel = FairShareChannel(env, bandwidth=90.0)
        assert channel.rate_per_flow == 90.0
        channel.transfer(1000.0)
        channel.transfer(1000.0)
        channel.transfer(1000.0)
        assert channel.rate_per_flow == pytest.approx(30.0)
        assert channel.active_flows == 3

    def test_estimate_time_accounts_for_contention(self, env):
        channel = FairShareChannel(env, bandwidth=100.0)
        assert channel.estimate_time(100.0) == pytest.approx(1.0)
        channel.transfer(1000.0)
        assert channel.estimate_time(100.0) == pytest.approx(2.0)


class TestNoSharingMode:
    def test_flows_do_not_interfere(self, env):
        channel = FairShareChannel(env, bandwidth=100.0, sharing=False)
        finish = {}

        def proc(env, label):
            yield channel.transfer(1000.0)
            finish[label] = env.now

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        assert finish["a"] == pytest.approx(10.0)
        assert finish["b"] == pytest.approx(10.0)


class TestStatisticsAndEdgeCases:
    def test_utilization(self, env, runner):
        channel = FairShareChannel(env, bandwidth=100.0)

        def proc(env):
            yield channel.transfer(500.0)  # busy for 5 s
            yield env.timeout(5.0)  # idle for 5 s
            return channel.utilization()

        assert runner(env, proc(env)) == pytest.approx(0.5)

    def test_total_flows_counter(self, env):
        channel = FairShareChannel(env, bandwidth=100.0)

        def proc(env):
            yield channel.transfer(10.0)
            yield channel.transfer(10.0)

        env.process(proc(env))
        env.run()
        assert channel.total_flows == 2

    def test_tiny_residual_does_not_hang(self, env):
        """Regression test: float underflow in remaining work must not spin."""
        channel = FairShareChannel(env, bandwidth=4.812e9)
        finish = {}

        def proc(env, label, amount, delay):
            yield env.timeout(delay)
            yield channel.transfer(amount)
            finish[label] = env.now

        # Stagger many large flows so remainders become denormally small
        # relative to the simulated clock.
        for index in range(10):
            env.process(proc(env, index, 3e9, index * 0.001))
        env.run()
        assert len(finish) == 10

    def test_flow_progress_property(self, env):
        flow = Flow(100.0, Environment().event(), 0.0)
        assert flow.progress == 0.0
        flow.remaining = 25.0
        assert flow.progress == pytest.approx(0.75)


def _observed_env(initial_time=0.0):
    """An environment whose loop counts the events it pops, by class."""
    env = Environment(initial_time=initial_time)
    env.observer = Observer(des_sample_interval=None)
    return env


class TestEventBudget:
    """Queue entries per transfer: the channel waker is the only one an
    uncontended transfer needs.

    A transfer on an idle channel schedules its waker at once (no
    same-instant sentinel), and a wake-up that completes exactly one flow
    resumes its waiter inside the wake-up when nothing else is due at that
    instant.  The completion events (plain ``Event`` objects) that still
    go through the queue are the ones the loop counts under ``"Event"``.
    """

    def test_lone_transfer_resumes_inside_its_wake_up(self):
        env = _observed_env()
        channel = FairShareChannel(env, bandwidth=100.0)
        resumed = []

        def proc():
            elapsed = yield channel.transfer(1000.0)
            resumed.append((env.now, elapsed))

        env.process(proc())
        env.run()
        assert resumed == [(10.0, 10.0)]
        assert env.observer.des_event_counts == {
            "Initialize": 1, "Timeout": 1, "Process": 1,
        }
        # The process start, the channel waker and the process end.
        assert next(env._eid) == 3

    def test_sub_resolution_residual_finishes_in_one_wake_up(self):
        amount, bandwidth, start = 4 * MB, 2.5 * GBps, 1e4
        # The premise: at t = 1e4 s the waker's elapsed time rounds down,
        # so the first progress update leaves more than the completion
        # tolerance, and the flow completes in the reschedule's guard.
        end = start + amount / bandwidth
        assert amount - bandwidth * (end - start) > 1e-6
        env = _observed_env(initial_time=start)
        channel = FairShareChannel(env, bandwidth=bandwidth)
        resumed = []

        def proc():
            yield channel.transfer(amount)
            resumed.append(env.now)

        env.process(proc())
        env.run()
        assert resumed == [end]
        assert env.observer.des_event_counts == {
            "Initialize": 1, "Timeout": 1, "Process": 1,
        }
        assert next(env._eid) == 3

    def test_tied_completions_are_pushed_in_order(self):
        env = _observed_env()
        first = FairShareChannel(env, bandwidth=100.0, name="first")
        second = FairShareChannel(env, bandwidth=100.0, name="second")
        resumed = []

        def transfer(channel):
            yield channel.transfer(1000.0)
            resumed.append(channel.name)

        def sleep():
            yield env.timeout(10.0)
            resumed.append("timeout")

        env.process(transfer(first))
        env.process(transfer(second))
        env.process(sleep())
        env.run()
        # Both wakers and the timeout end at t = 10: each wake-up finds
        # another event due at its instant, so both completions go
        # through the queue and the waiters resume in the order they
        # always did.
        assert resumed == ["timeout", "first", "second"]
        assert env.observer.des_event_counts["Event"] == 2
        assert next(env._eid) == 11

    def test_idle_channel_waker_precedes_a_later_tie(self):
        env = Environment()
        channel = FairShareChannel(env, bandwidth=100.0, name="transfer")
        resumed = []

        def transfer():
            yield channel.transfer(1000.0)
            resumed.append("transfer")

        def sleep():
            yield env.timeout(10.0)
            resumed.append("timeout")

        def wait_for(child):
            yield child
            resumed.append("waiter of the timeout process")

        env.process(transfer())
        sleeper = env.process(sleep())
        env.process(wait_for(sleeper))
        env.run()
        # The waker is queued when the transfer starts, before the
        # timeout, so the transfer's completion is pushed ahead of the
        # sleeper's end.  With a same-instant sentinel deferring the
        # waker, the waiter of the sleeper resumed before the transfer.
        assert resumed == ["timeout", "transfer",
                           "waiter of the timeout process"]

    def test_two_completions_in_one_wake_up_are_pushed(self):
        env = _observed_env()
        channel = FairShareChannel(env, bandwidth=100.0)
        resumed = []

        def proc(label):
            yield channel.transfer(1000.0)
            resumed.append((label, env.now))

        env.process(proc("a"))
        env.process(proc("b"))
        env.run()
        assert resumed == [("a", 20.0), ("b", 20.0)]
        # The burst's sentinel and both completions.
        assert env.observer.des_event_counts["Event"] == 3

    def test_contended_wake_up_completing_one_flow(self):
        env = _observed_env()
        channel = FairShareChannel(env, bandwidth=100.0)
        resumed = []

        def proc(label, amount):
            yield channel.transfer(amount)
            resumed.append((label, env.now))

        env.process(proc("short", 500.0))
        env.process(proc("long", 1000.0))
        env.run()
        # The short flow finishes at 10 s while the long one keeps going;
        # each wake-up completes one flow, and neither is pushed.
        assert resumed == [("short", 10.0), ("long", 15.0)]
        assert env.observer.des_event_counts["Event"] == 1  # the sentinel


class TestEventCounts:
    """Exact event ids (``next(env._eid)``) of two end-to-end runs.

    These are the work counters of the event budget: a change that moves
    them updates this test and says why.
    """

    def test_readme_quickstart(self):
        sim = Simulation(config=SimulationConfig(cache_mode="writeback"))
        sim.create_cluster_platform(1, with_nfs_server=False)
        svc = sim.create_storage_service("node1", "/local")
        app = synthetic_workflow(input_size=3 * GB)
        sim.stage_file(app.input_files()[0], svc)
        sim.submit_workflow(app, host="node1", storage=svc)
        result = sim.run()
        assert result.makespan == 22.768819885769318
        assert next(sim.env._eid) == 234

    def test_exp7_120_jobs(self):
        sim = build_experiment("exp7", max_jobs=120)
        sim.run()
        assert next(sim.env._eid) == 2859

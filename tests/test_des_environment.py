"""Unit tests for the simulation environment and run loop."""

import pytest

from repro.des import Environment
from repro.obs import Observer


class TestClockAndQueue:
    def test_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=10.0).now == 10.0

    def test_peek_empty_queue(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(4.0)
        env.timeout(2.0)
        assert env.peek() == 2.0

    def test_peek_counts_the_tombstones_it_reaps(self):
        """A cancelled front entry is one tombstone whether peek() or
        run() reaps it."""
        counts = []
        for peek_first in (False, True):
            env = Environment()
            env.observer = Observer()
            env.cancel(env.timeout(1.0))
            env.timeout(2.0)
            if peek_first:
                assert env.peek() == 2.0
            env.run()
            counts.append(env.observer.des_tombstones)
        assert counts == [1, 1]

    def test_queue_size(self, env):
        env.timeout(1.0)
        env.timeout(2.0)
        assert env.queue_size == 2

    def test_events_processed_in_time_order(self, env):
        order = []

        def proc(env, delay, label):
            yield env.timeout(delay)
            order.append(label)

        env.process(proc(env, 3.0, "c"))
        env.process(proc(env, 1.0, "a"))
        env.process(proc(env, 2.0, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self, env):
        order = []

        def proc(env, label):
            yield env.timeout(1.0)
            order.append(label)

        for label in "abc":
            env.process(proc(env, label))
        env.run()
        assert order == ["a", "b", "c"]


class TestRun:
    def test_run_until_time(self, env):
        ticks = []

        def clock(env):
            while True:
                yield env.timeout(1.0)
                ticks.append(env.now)

        env.process(clock(env))
        env.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]
        assert env.now == 3.5

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(2.0)
            return "result"

        process = env.process(proc(env))
        assert env.run(until=process) == "result"
        assert env.now == 2.0

    def test_run_until_past_time_rejected(self, env):
        env.timeout(1.0)
        env.run(until=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_run_without_until_drains_queue(self, env):
        env.timeout(1.0)
        env.timeout(2.0)
        env.run()
        assert env.now == 2.0
        assert env.queue_size == 0

    def test_run_until_never_triggered_event_raises(self, env):
        pending = env.event()
        env.timeout(1.0)
        with pytest.raises(RuntimeError, match="before the awaited event"):
            env.run(until=pending)

    def test_run_until_already_processed_event(self, env):
        def proc(env):
            yield env.timeout(1.0)
            return 13

        process = env.process(proc(env))
        env.run()
        # The process already finished; running until it must return at once.
        assert env.run(until=process) == 13

    def test_active_process_outside_run_is_none(self, env):
        assert env.active_process is None

    def test_active_process_inside_process(self, env, runner):
        def proc(env):
            yield env.timeout(0.0)
            return env.active_process

        process = env.process(proc(env))
        result = env.run(until=process)
        assert result is process


class TestHorizon:
    def test_events_at_the_horizon_run(self, env):
        """An event at exactly ``t`` runs, even one scheduled at ``t``
        during the pass."""
        fired = []

        def proc(env):
            yield env.timeout(2.0)
            fired.append(("first", env.now))
            yield env.timeout(0.0)
            fired.append(("second", env.now))

        env.process(proc(env))
        assert env.run(horizon=2.0) is None
        assert fired == [("first", 2.0), ("second", 2.0)]
        assert env.now == 2.0

    def test_event_just_beyond_the_horizon_stays_queued(self, env):
        later = 2.0 + 1e-9
        event = env.timeout(later)
        env.run(horizon=2.0)
        assert env.now == 2.0
        assert not event.processed
        assert env.peek() == later
        env.run()
        assert event.processed
        assert env.now == later

    def test_drained_queue_leaves_the_clock_at_the_horizon(self, env):
        env.timeout(1.0)
        env.run(horizon=5.0)
        assert env.now == 5.0
        assert env.queue_size == 0

    def test_until_reached_before_the_horizon_stops_there(self, env):
        def proc(env):
            yield env.timeout(3.0)
            return "done"

        process = env.process(proc(env))
        later = env.timeout(4.0)
        assert env.run(until=process, horizon=10.0) == "done"
        assert env.now == 3.0
        assert not later.processed

    def test_pause_detaches_the_stop_callback(self, env):
        done = env.timeout(5.0)
        env.run(until=done, horizon=2.0)
        assert done.callbacks == []
        env.run(until=done, horizon=3.0)
        assert done.callbacks == []

    def test_horizon_in_the_past_rejected(self, env):
        env.run(horizon=5.0)
        with pytest.raises(ValueError):
            env.run(horizon=1.0)

    def test_segmented_run_allocates_the_same_event_ids(self):
        """Pausing inserts no event: the queue (times, priorities, event
        ids) seen at every resume matches an unpaused run, and tombstones
        reaped at a pause are counted like any other."""

        def workload(env, log):
            def worker(idx):
                delay = 0.5 * (idx + 1)
                for step in range(4):
                    doomed = env.timeout(delay + 0.1)
                    yield env.timeout(delay)
                    env.cancel(doomed)
                    log.append((env.now, idx, step,
                                sorted(entry[:3] for entry in env._queue)))

            workers = [env.process(worker(i)) for i in range(3)]

            def join():
                for process in workers:
                    yield process

            return env.process(join())

        runs = []
        for horizons in ((), (0.5, 0.75, 1.0, 1.0, 3.0)):
            env, log = Environment(), []
            env.observer = Observer()
            done = workload(env, log)
            for t in horizons:
                env.run(until=done, horizon=t)
                assert not done.processed
            env.run(until=done)
            runs.append((env, log))
        (plain, plain_log), (stepped, stepped_log) = runs
        assert stepped_log == plain_log
        assert next(stepped._eid) == next(plain._eid)
        assert plain.observer.des_tombstones > 0
        assert stepped.observer.des_tombstones == plain.observer.des_tombstones
        assert (stepped.observer.des_event_counts
                == plain.observer.des_event_counts)

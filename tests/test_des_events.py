"""Unit tests for the core event types."""

import pytest

import repro.des
from repro.des import Environment
from repro.des.events import Event, Timeout


class TestEvent:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self, env):
        event = env.event()
        with pytest.raises(AttributeError):
            _ = event.value
        with pytest.raises(AttributeError):
            _ = event.ok

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_twice_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_fail_sets_exception_value(self, env):
        event = env.event()
        error = ValueError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_unhandled_failure_propagates_from_run(self, env):
        event = env.event()
        event.fail(RuntimeError("nobody caught me"))
        with pytest.raises(RuntimeError, match="nobody caught me"):
            env.run()

    def test_defused_failure_does_not_propagate(self, env):
        event = env.event()
        event.fail(RuntimeError("handled"))
        event.defused = True
        env.run()  # must not raise

    def test_callbacks_invoked_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.succeed(7)
        env.run()
        assert seen == [7]
        assert event.processed


class TestTimeout:
    def test_timeout_advances_clock(self, env):
        env.timeout(5.0)
        env.run()
        assert env.now == 5.0

    def test_timeout_value(self, env, runner):
        def proc(env):
            value = yield env.timeout(1.0, value="done")
            return value

        assert runner(env, proc(env)) == "done"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_delay_property(self, env):
        timeout = env.timeout(2.5)
        assert timeout.delay == 2.5


class TestJoins:
    """A parent waits on its children without composite events: it yields
    each child in turn, or one event that the children's callbacks
    trigger."""

    def test_yielding_each_child_waits_for_all(self, env, runner):
        def proc(env):
            values = []
            for child in (env.timeout(1.0, value="a"),
                          env.timeout(3.0, value="b")):
                values.append((yield child))
            return env.now, values

        assert runner(env, proc(env)) == (3.0, ["a", "b"])

    def test_yielding_a_processed_child_resumes_at_once(self, env, runner):
        def proc(env):
            first = env.timeout(1.0)
            yield env.timeout(2.0)
            assert first.processed
            yield first
            return env.now

        assert runner(env, proc(env)) == 2.0

    def test_one_event_wakes_at_the_first_child(self, env, runner):
        def proc(env):
            wake = env.event()

            def ended(child):
                if not wake.triggered:
                    wake.succeed(child.value)

            for delay, value in ((3.0, "slow"), (1.0, "fast")):
                env.timeout(delay, value=value).callbacks.append(ended)
            value = yield wake
            return env.now, value

        assert runner(env, proc(env)) == (1.0, "fast")

    def test_a_failed_child_fails_the_parents_event(self, env, runner):
        def failing(env):
            yield env.timeout(1.0)
            raise ValueError("sub-process failure")

        def proc(env):
            wake = env.event()

            def ended(child):
                if not child.ok:
                    child.defused = True
                    wake.fail(child.value)

            env.process(failing(env)).callbacks.append(ended)
            with pytest.raises(ValueError, match="sub-process failure"):
                yield wake
            return env.now

        assert runner(env, proc(env)) == 1.0


class TestNoCompositeEvents:
    """The kernel has no composite events and one cancel API."""

    def test_kernel_exports_no_composite_events(self):
        for name in ("Condition", "ConditionValue", "AllOf", "AnyOf",
                     "StopProcess"):
            assert not hasattr(repro.des, name)
            assert not hasattr(repro.des.events, name)
        # No ``*_of`` factory of composite events on the environment.
        assert not [name for name in dir(Environment) if name.endswith("_of")]
        assert not hasattr(Timeout, "cancel")

    def test_and_of_two_events_is_a_type_error(self, env):
        with pytest.raises(TypeError):
            env.event() & env.event()

    def test_or_of_two_events_is_a_type_error(self, env):
        with pytest.raises(TypeError):
            env.event() | env.event()

    def test_event_has_no_trigger(self):
        assert not hasattr(Event, "trigger")

    def test_environment_cancel_withdraws_a_timeout(self, env):
        fired = []
        timeout = env.timeout(1.0)
        timeout.callbacks.append(fired.append)
        env.cancel(timeout)
        env.run()
        assert fired == []
        assert env.now == 0.0

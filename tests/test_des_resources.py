"""Unit tests for the counted resource (Resource, Request)."""

import pytest

from repro.des import Resource


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_counts(self, env, runner):
        resource = Resource(env, capacity=2)

        def proc(env):
            first = resource.request()
            second = resource.request()
            yield first
            yield second
            counts = (resource.count, resource.available)
            first.release()
            second.release()
            return counts

        assert runner(env, proc(env)) == (2, 0)
        assert resource.count == 0

    def test_fifo_queuing(self, env):
        resource = Resource(env, capacity=1)
        order = []

        def user(env, label, hold):
            with (yield resource.request()):
                order.append(label)
                yield env.timeout(hold)

        env.process(user(env, "a", 2.0))
        env.process(user(env, "b", 1.0))
        env.process(user(env, "c", 1.0))
        env.run()
        assert order == ["a", "b", "c"]

    def test_context_manager_releases(self, env, runner):
        resource = Resource(env, capacity=1)

        def proc(env):
            with (yield resource.request()):
                yield env.timeout(1.0)
            return resource.count

        assert runner(env, proc(env)) == 0

    def test_release_is_idempotent(self, env, runner):
        resource = Resource(env, capacity=1)

        def proc(env):
            request = resource.request()
            yield request
            request.release()
            request.release()
            return resource.count

        assert runner(env, proc(env)) == 0

    def test_cancel_pending_request(self, env, runner):
        resource = Resource(env, capacity=1)

        def proc(env):
            holder = resource.request()
            yield holder
            waiter = resource.request()
            waiter.cancel()
            holder.release()
            return len(resource.queue)

        assert runner(env, proc(env)) == 0

"""Tests for stores, priority stores, and counted resources."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Environment
from repro.sim.resources import PriorityStore, Resource, Store, UtilizationMeter


class TestStore:
    def test_put_then_get_fifo(self, env):
        store = Store(env)
        received = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        env.process(consumer())
        for item in ("a", "b", "c"):
            store.put(item)
        env.run()
        assert received == ["a", "b", "c"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        received = []

        def consumer():
            item = yield store.get()
            received.append((env.now, item))

        def producer():
            yield env.timeout(5.0)
            yield store.put("x")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert received == [(5.0, "x")]

    def test_bounded_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        done = []

        def producer():
            yield store.put(1)
            yield store.put(2)  # blocks until the first is consumed
            done.append(env.now)

        def consumer():
            yield env.timeout(3.0)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert done == [3.0]

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_len(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        env.run()
        assert len(store) == 2


class TestPriorityStore:
    def test_lowest_first(self, env):
        store = PriorityStore(env)
        received = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        for priority in (5, 1, 3):
            store.put((priority, f"job{priority}"))
        env.process(consumer())
        env.run()
        assert [p for p, _ in received] == [1, 3, 5]


class TestResource:
    def test_grants_up_to_capacity(self, env):
        resource = Resource(env, capacity=2)
        granted = []

        def worker(i):
            req = resource.request()
            yield req
            granted.append((i, env.now))
            yield env.timeout(10.0)
            resource.release(req)

        for i in range(3):
            env.process(worker(i))
        env.run(until=5.0)
        assert len(granted) == 2
        assert resource.queue_length == 1

    def test_try_acquire_grants_only_a_free_unqueued_slot(self, env):
        resource = Resource(env, capacity=1)
        assert resource.try_acquire()
        assert resource.count == 1
        assert not resource.try_acquire()
        waiter = resource.request()  # queued behind the held slot
        resource.release_slot()
        # The release hands the slot to the queued request, so a
        # try_acquire cannot jump the queue.
        assert waiter.triggered and resource.count == 1
        assert not resource.try_acquire()

    def test_release_slot_without_grant_raises(self, env):
        resource = Resource(env, capacity=2)
        with pytest.raises(RuntimeError):
            resource.release_slot()

    def test_fifo_waiters(self, env):
        resource = Resource(env, capacity=1)
        order = []

        def worker(i):
            req = resource.request()
            yield req
            order.append(i)
            yield env.timeout(1.0)
            resource.release(req)

        for i in range(4):
            env.process(worker(i))
        env.run()
        assert order == [0, 1, 2, 3]

    def test_release_wrong_resource_raises(self, env):
        r1 = Resource(env)
        r2 = Resource(env)
        req = r1.request()
        env.run()
        with pytest.raises(ValueError):
            r2.release(req)

    def test_double_release_raises(self, env):
        resource = Resource(env)
        req = resource.request()
        env.run()
        resource.release(req)
        with pytest.raises(RuntimeError):
            resource.release(req)

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    @given(capacity=st.integers(1, 8), jobs=st.integers(1, 40))
    def test_count_never_exceeds_capacity(self, capacity, jobs):
        env = Environment()
        resource = Resource(env, capacity=capacity)
        peak = [0]

        def worker(duration):
            req = resource.request()
            yield req
            peak[0] = max(peak[0], resource.count)
            yield env.timeout(duration)
            resource.release(req)

        for i in range(jobs):
            env.process(worker(0.5 + (i % 3) * 0.25))
        env.run()
        assert peak[0] <= capacity
        assert resource.count == 0
        assert resource.queue_length == 0


class TestUtilizationMeter:
    def test_fully_busy(self, env):
        resource = Resource(env, capacity=1)
        meter = UtilizationMeter(env, resource)

        def worker():
            req = resource.request()
            yield req
            meter.mark()
            yield env.timeout(10.0)
            resource.release(req)
            meter.mark()

        env.process(worker())
        env.run()
        assert meter.utilization() == pytest.approx(1.0)

    def test_idle(self, env):
        resource = Resource(env, capacity=2)
        meter = UtilizationMeter(env, resource)
        env.timeout(10.0)
        env.run()
        assert meter.utilization() == 0.0

"""Tests for the discrete-event engine."""

import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)


class TestEvent:
    def test_starts_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_carries_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42

    def test_succeed_twice_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            Timeout(env, -1.0)

    def test_fires_at_scheduled_time(self, env):
        fired = []
        t = env.timeout(5.0, value="done")
        t.callbacks.append(lambda e: fired.append(env.now))
        env.run()
        assert fired == [5.0]

    def test_zero_delay_fires_immediately(self, env):
        t = env.timeout(0.0)
        env.run()
        assert t.processed


class TestProcess:
    def test_sequential_timeouts(self, env):
        trace = []

        def proc():
            yield env.timeout(1.0)
            trace.append(env.now)
            yield env.timeout(2.0)
            trace.append(env.now)

        env.process(proc())
        env.run()
        assert trace == [1.0, 3.0]

    def test_return_value_becomes_event_value(self, env):
        def proc():
            yield env.timeout(1.0)
            return "result"

        p = env.process(proc())
        env.run()
        assert p.value == "result"

    def test_process_waits_on_process(self, env):
        def inner():
            yield env.timeout(2.0)
            return 10

        def outer():
            value = yield env.process(inner())
            return value + 1

        p = env.process(outer())
        env.run()
        assert p.value == 11

    def test_yielding_processed_event_resumes(self, env):
        """Joining on an already-finished event must not error."""
        done = []

        def fast():
            yield env.timeout(1.0)

        def joiner(events):
            for e in events:
                yield e
            done.append(env.now)

        events = [env.process(fast()) for _ in range(3)]
        env.process(joiner(events))
        env.run()
        assert done == [1.0]

    def test_failed_event_raises_in_process(self, env):
        caught = []

        def proc(event):
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        event = env.event()
        env.process(proc(event))
        event.fail(RuntimeError("boom"))
        env.run()
        assert caught == ["boom"]

    def test_interrupt(self, env):
        trace = []

        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                trace.append((env.now, interrupt.cause))

        def interrupter(target):
            yield env.timeout(3.0)
            target.interrupt("wakeup")

        target = env.process(sleeper())
        env.process(interrupter(target))
        env.run()
        assert trace == [(3.0, "wakeup")]

    def test_non_event_yield_raises(self, env):
        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)


class TestEnvironment:
    def test_run_until_stops_clock(self, env):
        env.timeout(10.0)
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_past_raises(self, env):
        env.timeout(1.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=0.5)

    def test_step_empty_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_peek(self, env):
        assert env.peek() == float("inf")
        env.timeout(7.0)
        assert env.peek() == 7.0

    def test_same_time_events_fire_in_schedule_order(self, env):
        order = []
        for i in range(10):
            t = env.timeout(1.0, value=i)
            t.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == list(range(10))

    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0),
                           min_size=1, max_size=30))
    def test_events_fire_in_time_order(self, delays):
        env = Environment()
        fired = []
        for d in delays:
            t = env.timeout(d)
            t.callbacks.append(lambda e, d=d: fired.append(env.now))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    def test_determinism(self):
        """Two identical simulations produce identical traces."""

        def build():
            env = Environment()
            trace = []

            def proc(name, delay):
                for _ in range(3):
                    yield env.timeout(delay)
                    trace.append((name, env.now))

            env.process(proc("a", 1.5))
            env.process(proc("b", 2.0))
            env.run()
            return trace

        assert build() == build()


class TestProcessLifetime:
    """A finished process holds no reference to itself, so refcounting
    frees it without the cycle collector.

    Each test watches its own processes through weak references to
    their generators (a process holds its generator until it is freed)
    and looks for them in ``gc.garbage`` by generator code, so garbage
    other tests left behind cannot interfere.
    """

    @pytest.fixture
    def saved_garbage(self):
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            yield gc.garbage
        finally:
            gc.set_debug(0)
            del gc.garbage[:]
            if was_enabled:
                gc.enable()

    @staticmethod
    def _assert_freed_by_refcount(garbage, generators, *functions):
        # gc is disabled: only refcounting can have freed them.
        assert [ref for ref in generators if ref() is not None] == []
        gc.collect()
        codes = {function.__code__ for function in functions}
        assert [
            obj for obj in garbage
            if isinstance(obj, Process) and obj._generator.gi_code in codes
        ] == []

    @staticmethod
    def _spawner(env, generators):
        def spawn(generator):
            generators.append(weakref.ref(generator))
            return env.process(generator)

        return spawn

    def test_finished_processes_are_freed_by_refcount(self, saved_garbage):
        env = Environment()
        results, generators = [], []
        spawn = self._spawner(env, generators)

        def sleeper(delay):
            yield env.sleep(delay)
            yield env.timeout(delay)
            return delay

        def joiner(count):
            children = [spawn(sleeper(0.1 * i)) for i in range(count)]
            for child in children:
                results.append((yield child))

        for count in (1, 3, 5):
            spawn(joiner(count))
        env.run()
        assert len(results) == 9 and len(generators) == 12
        del env, spawn
        self._assert_freed_by_refcount(saved_garbage, generators, sleeper, joiner)

    def test_interrupted_process_is_freed_by_refcount(self, saved_garbage):
        env = Environment()
        generators = []
        spawn = self._spawner(env, generators)

        def victim():
            yield env.timeout(10.0)

        def interrupter(target):
            yield env.timeout(1.0)
            target.interrupt("stop")

        spawn(interrupter(spawn(victim())))
        env.run()
        del env, spawn
        self._assert_freed_by_refcount(saved_garbage, generators, victim, interrupter)

    def test_failed_process_drops_its_resume_callback(self):
        env = Environment()

        def failing():
            yield env.timeout(1.0)
            raise ValueError("boom")

        def waiter(target):
            with pytest.raises(ValueError):
                yield target

        target = env.process(failing())
        env.process(waiter(target))
        env.run()
        assert target._resume_fn is None  # no bound method back to itself

"""Unit tests for the event primitives."""

import gc
import weakref

import pytest

from repro.sim import AllOf, AnyOf, Environment, Event, Timeout


@pytest.fixture()
def env():
    return Environment()


class TestEvent:
    def test_fresh_event_is_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, env):
        ev = env.event()
        with pytest.raises(AttributeError):
            _ = ev.value
        with pytest.raises(AttributeError):
            _ = ev.ok

    def test_succeed_sets_value(self, env):
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_succeed_twice_raises(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_then_succeed_raises(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        ev.defuse()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_callbacks_run_on_processing(self, env):
        ev = env.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("hello")
        env.run()
        assert seen == ["hello"]
        assert ev.processed

    def test_unhandled_failure_surfaces_in_run(self, env):
        ev = env.event()
        ev.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_defused_failure_does_not_crash(self, env):
        ev = env.event()
        ev.fail(RuntimeError("handled"))
        ev.defuse()
        env.run()  # no exception

    def test_trigger_copies_outcome(self, env):
        src = env.event()
        dst = env.event()
        src.succeed(7)
        dst.trigger(src)
        assert dst.value == 7


class TestTimeout:
    def test_fires_at_expected_time(self, env):
        times = []

        def proc(env):
            yield env.timeout(3.5)
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [3.5]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_carries_value(self, env):
        results = []

        def proc(env):
            value = yield env.timeout(1, value="payload")
            results.append(value)

        env.process(proc(env))
        env.run()
        assert results == ["payload"]

    def test_timeouts_fire_in_order(self, env):
        order = []

        def waiter(env, delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(waiter(env, 2, "b"))
        env.process(waiter(env, 1, "a"))
        env.process(waiter(env, 3, "c"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_equal_times_fifo(self, env):
        order = []

        def waiter(env, tag):
            yield env.timeout(5)
            order.append(tag)

        for tag in range(10):
            env.process(waiter(env, tag))
        env.run()
        assert order == list(range(10))


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        results = {}

        def proc(env):
            t1 = env.timeout(1, value="one")
            t2 = env.timeout(2, value="two")
            got = yield env.all_of([t1, t2])
            results["time"] = env.now
            results["values"] = sorted(got.values())

        env.process(proc(env))
        env.run()
        assert results["time"] == 2
        assert results["values"] == ["one", "two"]

    def test_any_of_fires_on_first(self, env):
        results = {}

        def proc(env):
            t1 = env.timeout(1, value="fast")
            t2 = env.timeout(10, value="slow")
            got = yield env.any_of([t1, t2])
            results["time"] = env.now
            results["values"] = list(got.values())

        env.process(proc(env))
        env.run()
        assert results["time"] == 1
        assert results["values"] == ["fast"]

    def test_empty_all_of_fires_immediately(self, env):
        fired = []

        def proc(env):
            yield env.all_of([])
            fired.append(env.now)

        env.process(proc(env))
        env.run()
        assert fired == [0.0]

    def test_and_operator(self, env):
        done = []

        def proc(env):
            yield env.timeout(1) & env.timeout(2)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [2]

    def test_or_operator(self, env):
        done = []

        def proc(env):
            yield env.timeout(1) | env.timeout(2)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [1]

    def test_condition_failure_propagates(self, env):
        def failer(env):
            yield env.timeout(1)
            raise ValueError("inner failure")

        def waiter(env):
            p = env.process(failer(env))
            t = env.timeout(10)
            with pytest.raises(ValueError, match="inner failure"):
                yield env.all_of([p, t])

        env.process(waiter(env))
        env.run()

    def test_cross_environment_events_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            env.all_of([env.timeout(1), other.timeout(1)])

    def test_already_processed_event_in_condition(self, env):
        ev = env.timeout(0, value="early")
        env.run(until=1)
        assert ev.processed
        done = []

        def proc(env):
            got = yield env.all_of([ev])
            done.append(list(got.values()))

        env.process(proc(env))
        env.run()
        assert done == [["early"]]


def test_resolved_condition_holds_no_cycle():
    """A resolved condition stays in its pending constituents' callbacks
    (to defuse a late failure) but no longer holds them, so with the
    cyclic collector off both die by reference counting."""

    class Value:
        pass

    env = Environment()
    value = Value()
    ref = weakref.ref(value)
    first, pending = env.event(), env.event()
    condition = env.any_of([first, pending])
    first.succeed(value)
    del value
    enabled = gc.isenabled()
    gc.disable()
    try:
        env.run()
        assert condition.value == {first: ref()}
        del first, pending, condition
        assert ref() is None
    finally:
        if enabled:
            gc.enable()

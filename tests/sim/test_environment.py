"""Unit tests for the environment's run loop semantics."""

import pytest

from repro.sim import EmptySchedule, Environment


@pytest.fixture()
def env():
    return Environment()


class TestClock:
    def test_initial_time(self):
        assert Environment().now == 0.0

    def test_run_until_time_pins_clock(self, env):
        env.process(self._tick(env, 1))
        env.run(until=100)
        assert env.now == 100

    @staticmethod
    def _tick(env, delay):
        yield env.timeout(delay)

    def test_run_until_past_raises(self, env):
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=1)

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(7)
        assert env.peek() == 7

    def test_step_empty_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_len_counts_scheduled(self, env):
        env.timeout(1)
        env.timeout(2)
        assert len(env) == 2


class TestRunUntilEvent:
    def test_returns_event_value(self, env):
        def proc(env):
            yield env.timeout(4)
            return {"done": True}

        assert env.run(until=env.process(proc(env))) == {"done": True}
        assert env.now == 4

    def test_reraises_event_failure(self, env):
        def proc(env):
            yield env.timeout(1)
            raise OSError("disk on fire")

        with pytest.raises(OSError, match="disk on fire"):
            env.run(until=env.process(proc(env)))

    def test_already_processed_until_event(self, env):
        t = env.timeout(1, value="v")
        env.run(until=2)
        assert env.run(until=t) == "v"

    def test_schedule_dry_before_until_event(self, env):
        ev = env.event()  # never triggered
        env.timeout(1)
        with pytest.raises(RuntimeError, match="ran dry"):
            env.run(until=ev)

    def test_remaining_events_continue_after_partial_run(self, env):
        log = []

        def proc(env, delay, tag):
            yield env.timeout(delay)
            log.append(tag)

        env.process(proc(env, 1, "a"))
        env.process(proc(env, 10, "b"))
        env.run(until=5)
        assert log == ["a"]
        env.run()
        assert log == ["a", "b"]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            env = Environment()
            trace = []

            def worker(env, wid):
                for i in range(5):
                    yield env.timeout(0.5 + (wid * 0.1))
                    trace.append((round(env.now, 6), wid, i))

            for wid in range(4):
                env.process(worker(env, wid))
            env.run()
            return trace

        assert build_and_run() == build_and_run()

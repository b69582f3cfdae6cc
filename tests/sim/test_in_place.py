"""The kernel's two in-place rules and its timed callbacks.

* A :func:`race` wakes its waiter inside the winner's processing: no heap
  entry of its own, so the waiter runs before the other events of that
  instant that were scheduled after the winner.
* A process exit nobody awaits is processed in place: no heap entry, not
  counted, and anything that waits on it afterwards resumes at once.  An
  exit that raises still goes through the heap and crashes the run.
* :meth:`Environment.call_at` runs a callback at an absolute time for one
  heap entry.
"""

import pytest

from repro.sim import Environment, race


@pytest.fixture()
def env():
    return Environment()


class TestRaceInPlace:
    def test_waiter_runs_inside_the_winner(self, env):
        """The winner's waiter resumes before an event of the same instant
        created after the winner; a race used to resume it after that
        event, from a heap entry of its own."""
        order = []
        winner = env.timeout(1)
        later = env.timeout(1)
        later.callbacks.append(lambda _: order.append("later"))

        def waiter(env):
            fired = yield race(env, winner, env.event())
            order.append(("race", fired is winner, env.now))

        env.process(waiter(env))
        env.run()
        assert order == [("race", True, 1), "later"]
        # The init, the two timeouts; the race and the waiter's exit take
        # no heap entry.
        assert env.events_processed == 3

    def test_losers_fired_later_are_ignored(self, env):
        first, second = env.timeout(1), env.timeout(2)
        wins = []

        def waiter(env):
            wins.append((yield race(env, first, second)))

        env.process(waiter(env))
        env.run()
        assert wins == [first]
        assert env.now == 2

    def test_failure_through_a_race_is_thrown_into_the_waiter(self, env):
        failing, caught = env.event(), []

        def waiter(env):
            try:
                yield race(env, failing, env.timeout(5))
            except ValueError as error:
                caught.append((str(error), env.now))

        def failer(env):
            yield env.timeout(1)
            failing.fail(ValueError("boom"))

        env.process(waiter(env))
        env.process(failer(env))
        env.run()
        assert caught == [("boom", 1)]
        assert failing.defused

    def test_unhandled_failure_through_a_race_crashes_the_run(self, env):
        failing = env.event()
        observed = []
        waiting = race(env, failing, env.timeout(5))
        waiting.callbacks.append(lambda r: observed.append(r.ok))
        failing.fail(ValueError("unhandled"))
        with pytest.raises(ValueError, match="unhandled"):
            env.run()
        assert observed == [False]  # the race's callbacks ran first
        assert waiting.processed and not waiting.ok


class TestUnawaitedExit:
    def test_exit_takes_no_heap_entry(self, env):
        def child(env):
            yield env.timeout(1)
            return "done"

        proc = env.process(child(env))
        env.run()
        assert proc.processed and proc.value == "done"
        assert env.events_processed == 2  # init and timeout, no exit
        assert len(env) == 0

    def test_waiting_afterwards_resumes_at_once(self, env):
        def child(env):
            yield env.timeout(1)
            return "done"

        proc = env.process(child(env))
        env.run()
        seen = []

        def late(env):
            seen.append((yield proc))
            seen.append((yield env.all_of([proc])))
            seen.append(env.now)

        env.run(until=env.process(late(env)))
        assert seen == ["done", {proc: "done"}, 1]
        assert env.run(until=proc) == "done"

    def test_awaited_exit_still_goes_through_the_heap(self, env):
        def child(env):
            yield env.timeout(1)
            return 7

        def parent(env):
            return (yield env.process(child(env)))

        assert env.run(until=env.process(parent(env))) == 7
        # parent init, child init, timeout, child exit (awaited) and the
        # parent's exit (awaited by run).
        assert env.events_processed == 5

    def test_raising_exit_still_crashes_the_run(self, env):
        def bad(env):
            yield env.timeout(1)
            raise ValueError("raised")

        env.process(bad(env))
        with pytest.raises(ValueError, match="raised"):
            env.run()
        assert env.events_processed == 3  # init, timeout and the exit


class TestCallAt:
    def test_runs_at_the_time_with_one_entry(self, env):
        seen = []
        env.call_at(2.5, lambda event: seen.append((env.now, event.value)))
        env.run()
        assert seen == [(2.5, None)]
        assert env.events_processed == 1

    def test_urgent_call_runs_first_and_cancel_withdraws(self, env):
        seen = []
        env.call_at(1, lambda _: seen.append("normal"))
        env.call_at(1, lambda _: seen.append("urgent"), priority=0)
        dropped = env.call_at(1, lambda _: seen.append("dropped"))
        dropped.cancel()
        env.run()
        assert seen == ["urgent", "normal"]

    def test_rejects_the_past(self, env):
        env.run(until=1)
        with pytest.raises(ValueError, match="past"):
            env.call_at(0.5, lambda _: None)

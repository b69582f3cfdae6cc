"""Unit tests for processes: lifecycle, return values, interrupts."""

import pickle

import pytest

from repro.sim import Environment, Interrupt


@pytest.fixture()
def env():
    return Environment()


class TestLifecycle:
    def test_process_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_process_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return "result"

        p = env.process(proc(env))
        value = env.run(until=p)
        assert value == "result"

    def test_process_is_alive_until_done(self, env):
        def proc(env):
            yield env.timeout(5)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_waiting_on_another_process(self, env):
        log = []

        def child(env):
            yield env.timeout(2)
            log.append(("child", env.now))
            return 99

        def parent(env):
            value = yield env.process(child(env))
            log.append(("parent", env.now, value))

        env.process(parent(env))
        env.run()
        assert log == [("child", 2), ("parent", 2, 99)]

    def test_exception_propagates_to_waiter(self, env):
        def child(env):
            yield env.timeout(1)
            raise KeyError("child failed")

        def parent(env):
            with pytest.raises(KeyError):
                yield env.process(child(env))
            return "handled"

        p = env.process(parent(env))
        assert env.run(until=p) == "handled"

    def test_unhandled_process_exception_crashes_run(self, env):
        def proc(env):
            yield env.timeout(1)
            raise RuntimeError("nobody catches this")

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="nobody catches"):
            env.run()

    def test_yield_non_event_is_error(self, env):
        def proc(env):
            yield 42

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="non-event"):
            env.run()

    def test_process_starts_at_creation_time_not_synchronously(self, env):
        log = []

        def proc(env):
            log.append("started")
            yield env.timeout(0)

        env.process(proc(env))
        assert log == []  # not started until the event loop runs
        env.run()
        assert log == ["started"]

    def test_yielding_already_processed_event_continues(self, env):
        ev = env.timeout(0, value="x")
        env.run(until=0.5)
        assert ev.processed

        def proc(env):
            value = yield ev
            return value

        p = env.process(proc(env))
        assert env.run(until=p) == "x"


class TestInterrupts:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt as intr:
                causes.append((env.now, intr.cause))

        def attacker(env, victim_proc):
            yield env.timeout(3)
            victim_proc.interrupt("dn3 died")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert causes == [(3, "dn3 died")]

    def test_interrupted_process_can_continue(self, env):
        log = []

        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(5)
            log.append(env.now)

        def attacker(env, v):
            yield env.timeout(2)
            v.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert log == [7]

    def test_original_target_does_not_resume_twice(self, env):
        resumes = []

        def victim(env):
            try:
                yield env.timeout(10)
                resumes.append("timeout")
            except Interrupt:
                resumes.append("interrupt")
            yield env.timeout(50)
            resumes.append("second wait done")

        def attacker(env, v):
            yield env.timeout(1)
            v.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        # The original 10s timeout must NOT wake the victim again at t=10.
        assert resumes == ["interrupt", "second wait done"]

    def test_interrupt_finished_process_raises(self, env):
        def quick(env):
            yield env.timeout(1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_self_interrupt_rejected(self, env):
        def proc(env):
            yield env.timeout(0)
            env.active_process.interrupt()

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="cannot interrupt itself"):
            env.run()

    def test_unhandled_interrupt_propagates(self, env):
        def victim(env):
            yield env.timeout(100)

        def attacker(env, v):
            yield env.timeout(1)
            v.interrupt("fatal")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        with pytest.raises(Interrupt):
            env.run()

    def test_multiple_interrupts_queue(self, env):
        causes = []

        def victim(env):
            for _ in range(2):
                try:
                    yield env.timeout(100)
                except Interrupt as intr:
                    causes.append(intr.cause)

        def attacker(env, v):
            yield env.timeout(1)
            v.interrupt("first")
            v.interrupt("second")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run(until=50)
        assert causes == ["first", "second"]


class TestExitDropsGenerator:
    """A finished process holds no generator, so a quiescent environment
    is plain data and pickles (the service snapshot relies on it)."""

    def test_returned_process(self, env):
        def proc(env):
            yield env.timeout(1)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert p.value == "done"
        assert p._generator is None

    def test_interrupted_processes(self, env):
        def stops(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                return "stopped"

        def dies(env):
            yield env.timeout(100)

        def attacker(env, victims):
            yield env.timeout(1)
            for victim in victims:
                victim.interrupt("stop")
            with pytest.raises(Interrupt):
                yield victims[1]

        victims = [env.process(stops(env)), env.process(dies(env))]
        env.process(attacker(env, victims))
        env.run()
        assert victims[0].value == "stopped"
        assert isinstance(victims[1].value, Interrupt)
        assert [v._generator for v in victims] == [None, None]

    def test_quiescent_environment_pickles(self, env):
        def proc(env):
            yield env.timeout(2)

        p = env.process(proc(env))
        env.run()
        copy = pickle.loads(pickle.dumps((env, p)))
        clone, finished = copy
        assert len(clone) == 0
        assert clone.now == env.now == 2
        assert finished.env is clone and finished.processed
        # The copy's event ids carry on from the original's.
        assert clone._eid == env._eid
        clone.timeout(1)
        assert clone._queue[0][2] == env._eid

"""Unit tests for Channel, Resource and Store primitives."""

import pytest

from repro.sim import Channel, Environment, Resource, Store


@pytest.fixture()
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_under_capacity(self, env):
        res = Resource(env, capacity=2)
        log = []

        def user(env, res, tag):
            with res.request() as req:
                yield req
                log.append((tag, env.now))
                yield env.timeout(1)

        env.process(user(env, res, "a"))
        env.process(user(env, res, "b"))
        env.run()
        assert log == [("a", 0), ("b", 0)]

    def test_fifo_queueing_serializes(self, env):
        res = Resource(env, capacity=1)
        log = []

        def user(env, res, tag, hold):
            with res.request() as req:
                yield req
                log.append((tag, env.now))
                yield env.timeout(hold)

        env.process(user(env, res, "a", 2))
        env.process(user(env, res, "b", 2))
        env.process(user(env, res, "c", 2))
        env.run()
        assert log == [("a", 0), ("b", 2), ("c", 4)]

    def test_release_wakes_waiter(self, env):
        res = Resource(env, capacity=1)
        order = []

        def holder(env, res):
            req = res.request()
            yield req
            yield env.timeout(5)
            res.release(req)
            order.append(("released", env.now))

        def waiter(env, res):
            with res.request() as req:
                yield req
                order.append(("acquired", env.now))

        env.process(holder(env, res))
        env.process(waiter(env, res))
        env.run()
        assert order == [("released", 5), ("acquired", 5)]

    def test_cancel_waiting_request(self, env):
        res = Resource(env, capacity=1)
        got = []

        def holder(env, res):
            req = res.request()
            yield req
            yield env.timeout(10)
            res.release(req)

        def impatient(env, res):
            req = res.request()
            result = yield req | env.timeout(1)
            if req not in result:
                req.cancel()
                got.append("gave up")

        def patient(env, res):
            with res.request() as req:
                yield req
                got.append(("patient acquired", env.now))

        env.process(holder(env, res))
        env.process(impatient(env, res))
        env.process(patient(env, res))
        env.run()
        assert "gave up" in got
        assert ("patient acquired", 10) in got

    def test_count_and_queue_len(self, env):
        res = Resource(env, capacity=1)

        def probe(env, res):
            req1 = res.request()
            yield req1
            res.request()  # queued
            assert res.count == 1
            assert res.queue_len == 1

        env.process(probe(env, res))
        env.run()

    def test_double_release_is_noop(self, env):
        res = Resource(env, capacity=1)

        def proc(env, res):
            req = res.request()
            yield req
            res.release(req)
            res.release(req)  # should not raise

        env.process(proc(env, res))
        env.run()


class TestStore:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_put_then_get(self, env):
        store = Store(env)
        got = []

        def producer(env, store):
            yield store.put("item1")
            yield store.put("item2")

        def consumer(env, store):
            for _ in range(2):
                item = yield store.get()
                got.append(item)

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert got == ["item1", "item2"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got = []

        def consumer(env, store):
            item = yield store.get()
            got.append((item, env.now))

        def producer(env, store):
            yield env.timeout(3)
            yield store.put("late")

        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert got == [("late", 3)]

    def test_put_blocks_when_full(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer(env, store):
            yield store.put(1)
            log.append(("put1", env.now))
            yield store.put(2)
            log.append(("put2", env.now))

        def consumer(env, store):
            yield env.timeout(5)
            item = yield store.get()
            log.append(("got", item, env.now))

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert ("put1", 0) in log
        assert ("got", 1, 5) in log
        assert ("put2", 5) in log

    def test_fifo_order_preserved(self, env):
        store = Store(env)
        got = []

        def producer(env, store):
            for i in range(20):
                yield store.put(i)

        def consumer(env, store):
            for _ in range(20):
                item = yield store.get()
                got.append(item)

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert got == list(range(20))

    def test_multiple_getters_fifo(self, env):
        store = Store(env)
        got = []

        def consumer(env, store, tag):
            item = yield store.get()
            got.append((tag, item))

        def producer(env, store):
            yield env.timeout(1)
            yield store.put("x")
            yield store.put("y")

        env.process(consumer(env, store, "first"))
        env.process(consumer(env, store, "second"))
        env.process(producer(env, store))
        env.run()
        assert got == [("first", "x"), ("second", "y")]

    def test_len_reflects_buffered_items(self, env):
        store = Store(env)

        def proc(env, store):
            yield store.put(1)
            yield store.put(2)
            assert len(store) == 2
            yield store.get()
            assert len(store) == 1

        env.process(proc(env, store))
        env.run()

class TestChannel:
    """The analytic FIFO channel behind NIC and disk occupancy."""

    def test_quote_from_idle(self, env):
        ch = Channel(env)
        assert ch.quote(size=1000, rate=1000.0) == pytest.approx(1.0)
        assert ch.busy_until == pytest.approx(1.0)
        assert ch.busy

    def test_quotes_chain_fifo(self, env):
        """Back-to-back quotes serialize exactly like a capacity-1
        Resource held for size/rate each."""
        ch = Channel(env)
        ends = [ch.quote(1000, 1000.0) for _ in range(3)]
        assert ends == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_quote_after_idle_gap_starts_now(self, env):
        ch = Channel(env)
        ch.quote(1000, 1000.0)  # busy until t=1

        def proc(env, ch):
            yield env.timeout(5)
            assert not ch.busy
            assert ch.quote(1000, 1000.0) == pytest.approx(6.0)

        env.run(until=env.process(proc(env, ch)))

    def test_zero_size_completes_immediately(self, env):
        ch = Channel(env)
        assert ch.quote(0, 1000.0) == pytest.approx(0.0)
        assert not ch.busy

    def test_invalid_rate(self, env):
        ch = Channel(env)
        with pytest.raises(ValueError):
            ch.quote(1000, 0)
        with pytest.raises(ValueError):
            ch.reserve(1000, -1.0)

    def test_reserve_fires_at_completion(self, env):
        ch = Channel(env)
        done = []

        def proc(env, ch):
            res = ch.reserve(1000, 1000.0)
            yield res
            done.append(env.now)

        env.run(until=env.process(proc(env, ch)))
        assert done == [pytest.approx(1.0)]

    def test_reservations_chain_fifo(self, env):
        ch = Channel(env)
        order = []

        def waiter(env, res, tag):
            yield res
            order.append((tag, env.now))

        r1 = ch.reserve(1000, 1000.0)
        r2 = ch.reserve(1000, 1000.0)
        env.process(waiter(env, r1, "first"))
        env.process(waiter(env, r2, "second"))
        env.run()
        assert order == [("first", pytest.approx(1.0)), ("second", pytest.approx(2.0))]

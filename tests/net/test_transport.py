"""Unit tests for NIC, throttling and the Network transfer primitive."""

import pytest

from repro.cluster import SMALL, Node, build_homogeneous
from repro.net import (
    NIC,
    Network,
    NodeThrottle,
    PairThrottle,
    RackBoundaryThrottle,
    ThrottleTable,
    Topology,
)
from repro.sim import Environment
from repro.units import MB, mbps


@pytest.fixture()
def env():
    return Environment()


def make_pair(env, rate_a=mbps(100), rate_b=mbps(100), same_rack=True):
    """Two nodes on a private network for focused transfer tests."""
    from repro.cluster.instance import InstanceType

    ia = InstanceType("ta", 1, 1, rate_a, mbps(10000), mbps(10000))
    ib = InstanceType("tb", 1, 1, rate_b, mbps(10000), mbps(10000))
    topo = Topology()
    a = Node(env, "a", ia, rack="rack0")
    b = Node(env, "b", ib, rack="rack0" if same_rack else "rack1")
    topo.add_host("a", "rack0")
    topo.add_host("b", b.rack)
    net = Network(env, topo)
    return net, a, b


class TestNIC:
    def test_invalid_rate(self, env):
        with pytest.raises(ValueError):
            NIC(env, 0)

    def test_egress_serializes_at_rate(self, env):
        """Two sends issued at once from one NIC queue at its line rate."""
        net, a, b = make_pair(env, rate_a=1000.0, rate_b=1000.0)
        first = env.process(net.transfer(a, b, 500))
        second = env.process(net.transfer(a, b, 500))
        env.run(until=env.all_of([first, second]))
        assert a.nic.egress.busy_until == pytest.approx(1.0)
        assert env.now == pytest.approx(1.0 + net.config.link_latency)
        assert a.nic.bytes_sent == 1000

    def test_full_duplex_ingress_egress_independent(self, env):
        net, a, b = make_pair(env, rate_a=1000.0, rate_b=1000.0)
        tx = env.process(net.transfer(a, b, 1000))
        rx = env.process(net.transfer(b, a, 1000))
        env.run(until=env.all_of([tx, rx]))
        # Not 2.0: a's egress and ingress carry one transfer each at once.
        assert env.now == pytest.approx(1.0 + net.config.link_latency)
        assert a.nic.bytes_sent == a.nic.bytes_received == 1000


class TestThrottleTable:
    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            NodeThrottle("x", 0)

    def test_effective_rate_is_min_of_nics(self, env):
        net, a, b = make_pair(env, rate_a=mbps(100), rate_b=mbps(50))
        assert net.effective_rate(a, b) == mbps(50)

    def test_node_throttle_applies_both_directions(self, env):
        net, a, b = make_pair(env)
        net.throttles.add(NodeThrottle("b", mbps(10)))
        assert net.effective_rate(a, b) == mbps(10)
        assert net.effective_rate(b, a) == mbps(10)

    def test_pair_throttle_is_directional(self, env):
        net, a, b = make_pair(env)
        net.throttles.add(PairThrottle("a", "b", mbps(10)))
        assert net.effective_rate(a, b) == mbps(10)
        assert net.effective_rate(b, a) == mbps(100)

    def test_rack_boundary_only_cross_rack(self, env):
        net, a, b = make_pair(env, same_rack=False)
        net.throttles.add(RackBoundaryThrottle(mbps(25)))
        assert net.effective_rate(a, b) == mbps(25)

        net2, c, d = make_pair(env, same_rack=True)
        net2.throttles.add(RackBoundaryThrottle(mbps(25)))
        assert net2.effective_rate(c, d) == mbps(100)

    def test_multiple_rules_take_min(self, env):
        net, a, b = make_pair(env)
        net.throttles.add(NodeThrottle("a", mbps(30)))
        net.throttles.add(PairThrottle("a", "b", mbps(20)))
        assert net.effective_rate(a, b) == mbps(20)

    def test_remove_matching(self, env):
        table = ThrottleTable()
        table.add(NodeThrottle("x", mbps(10)))
        table.add(NodeThrottle("y", mbps(10)))
        removed = table.remove_matching(
            lambda r: isinstance(r, NodeThrottle) and r.node_name == "x"
        )
        assert removed == 1
        assert len(table) == 1

    def test_listeners_notified_in_subscription_order(self):
        table = ThrottleTable()
        calls = []
        listeners = [lambda t, i=i: calls.append(i) for i in range(4)]
        for listener in listeners:
            table.subscribe(listener)
        table.unsubscribe(listeners[1])
        table.unsubscribe(listeners[1])  # absent: a no-op
        table.add(NodeThrottle("x", mbps(10)))
        assert calls == [0, 2, 3]

    def test_listener_may_unsubscribe_while_notified(self):
        table = ThrottleTable()
        calls = []

        def once(t):
            calls.append("once")
            t.unsubscribe(once)

        table.subscribe(once)
        table.subscribe(lambda t: calls.append("always"))
        table.add(NodeThrottle("x", mbps(10)))
        table.add(NodeThrottle("y", mbps(10)))
        assert calls == ["once", "always", "always"]


class TestTransfer:
    def test_duration_matches_rate(self, env):
        net, a, b = make_pair(env, rate_a=mbps(100), rate_b=mbps(100))
        size = 10 * MB

        sample = env.run(until=env.process(net.transfer(a, b, size)))
        expected = size / mbps(100) + net.config.link_latency
        assert env.now == pytest.approx(expected)
        assert sample.size == size
        assert sample.rate == pytest.approx(size / expected)

    def test_negative_size_rejected(self, env):
        net, a, b = make_pair(env)
        with pytest.raises(ValueError):
            # generator raises on first advance
            env.run(until=env.process(net.transfer(a, b, -1)))

    def test_loopback_is_instant(self, env):
        net, a, _ = make_pair(env)
        env.run(until=env.process(net.transfer(a, a, 100 * MB)))
        assert env.now == pytest.approx(0.0)

    def test_concurrent_sends_share_egress(self, env):
        """Two simultaneous transfers from one node serialize at its NIC."""
        from repro.cluster.instance import InstanceType

        itype = InstanceType("t", 1, 1, mbps(100), mbps(10000), mbps(10000))
        topo = Topology()
        src = Node(env, "src", itype, rack="rack0")
        d1 = Node(env, "d1", itype, rack="rack0")
        d2 = Node(env, "d2", itype, rack="rack0")
        for n in ("src", "d1", "d2"):
            topo.add_host(n, "rack0")
        net = Network(env, topo)

        size = 10 * MB
        t1 = env.process(net.transfer(src, d1, size))
        t2 = env.process(net.transfer(src, d2, size))
        env.run(until=env.all_of([t1, t2]))
        # Two transfers through a single 100 Mbps egress: 2 * size / rate.
        expected = 2 * size / mbps(100) + net.config.link_latency
        assert env.now == pytest.approx(expected, rel=1e-3)

    def test_concurrent_receives_share_ingress(self, env):
        from repro.cluster.instance import InstanceType

        itype = InstanceType("t", 1, 1, mbps(100), mbps(10000), mbps(10000))
        topo = Topology()
        dst = Node(env, "dst", itype, rack="rack0")
        s1 = Node(env, "s1", itype, rack="rack0")
        s2 = Node(env, "s2", itype, rack="rack0")
        for n in ("dst", "s1", "s2"):
            topo.add_host(n, "rack0")
        net = Network(env, topo)

        size = 10 * MB
        t1 = env.process(net.transfer(s1, dst, size))
        t2 = env.process(net.transfer(s2, dst, size))
        env.run(until=env.all_of([t1, t2]))
        expected = 2 * size / mbps(100) + net.config.link_latency
        assert env.now == pytest.approx(expected, rel=1e-3)

    def test_throttled_transfer_slows_down(self, env):
        net, a, b = make_pair(env, same_rack=False)
        net.throttles.add(RackBoundaryThrottle(mbps(10)))
        size = 10 * MB
        env.run(until=env.process(net.transfer(a, b, size)))
        assert env.now == pytest.approx(size / mbps(10), rel=1e-3)

    def test_stats_recorded(self, env):
        net, a, b = make_pair(env)
        env.run(until=env.process(net.transfer(a, b, MB)))
        assert net.stats.total_bytes(src="a", dst="b") == MB
        assert net.stats.mean_rate("a", "b") > 0
        assert net.stats.mean_rate("b", "a") == 0.0

    def test_control_message_is_latency_only(self, env):
        net, a, b = make_pair(env)
        env.run(until=env.process(net.send_control(a, b)))
        assert env.now == pytest.approx(net.config.control_latency)
        assert net.stats.total_bytes() == 0


class TestMidTransferRateChange:
    """tc rule changes while a transfer is on the wire."""

    def test_in_flight_keeps_old_rate_by_default(self, env):
        """The quote committed at start stands; only transfers starting
        after the rule change see the new rate."""
        net, a, b = make_pair(env, rate_a=mbps(100), rate_b=mbps(100))
        size = 10 * MB

        def scenario():
            first = env.process(net.transfer(a, b, size))
            # Throttle hard mid-transfer.
            yield env.timeout((size / mbps(100)) / 2)
            net.throttles.add(NodeThrottle("b", mbps(10)))
            yield first
            first_done = env.now
            yield env.process(net.transfer(a, b, size))
            return first_done

        done = env.process(scenario())
        first_done = env.run(until=done)
        # First transfer finished at the original 100 Mbps quote.
        assert first_done == pytest.approx(
            size / mbps(100) + net.config.link_latency
        )
        # Second transfer ran at the throttled 10 Mbps.
        assert env.now - first_done == pytest.approx(
            size / mbps(10) + net.config.link_latency
        )


class TestLoopback:
    def test_loopback_does_not_occupy_channels(self, env):
        """src-is-dst transfers bypass the NIC channels entirely."""
        net, a, _ = make_pair(env)
        env.run(until=env.process(net.transfer(a, a, 100 * MB)))
        assert env.now == pytest.approx(0.0)
        assert not a.nic.egress.busy
        assert not a.nic.ingress.busy
        assert a.nic.egress.busy_until == 0.0

    def test_loopback_still_recorded_in_stats(self, env):
        net, a, _ = make_pair(env)
        env.run(until=env.process(net.transfer(a, a, MB)))
        assert net.stats.total_bytes(src="a", dst="a") == MB

    def test_loopback_then_remote_transfer_unaffected(self, env):
        net, a, b = make_pair(env)
        size = 10 * MB

        def scenario():
            yield from net.transfer(a, a, size)
            yield from net.transfer(a, b, size)

        env.run(until=env.process(scenario()))
        assert env.now == pytest.approx(
            size / mbps(100) + net.config.link_latency
        )


class TestClusterBuilders:
    def test_homogeneous_layout(self, env):
        cluster = build_homogeneous(env, SMALL, n_datanodes=9)
        assert len(cluster.datanode_hosts) == 9
        assert set(cluster.topology.rack_map.values()) == {"rack0", "rack1"}
        # Balanced split: dn0..dn4 share the client's rack, dn5..dn8 don't.
        assert cluster.topology.rack_of("dn0") == "rack0"
        assert cluster.topology.rack_of("dn4") == "rack0"
        assert cluster.topology.rack_of("dn5") == "rack1"
        assert cluster.client_host.rack == "rack0"

    def test_homogeneous_custom_split(self, env):
        cluster = build_homogeneous(env, SMALL, n_datanodes=9, n_local=3)
        topology = cluster.topology
        rack0 = [h for h in topology.hosts if topology.rack_of(h) == "rack0"]
        assert rack0 == ["client", "dn0", "dn1", "dn2", "namenode"]

    def test_homogeneous_invalid_split(self, env):
        with pytest.raises(ValueError):
            build_homogeneous(env, SMALL, n_datanodes=3, n_local=7)

    def test_homogeneous_accepts_name(self, env):
        cluster = build_homogeneous(env, "medium", n_datanodes=3)
        assert cluster.client_host.instance.name == "medium"

    def test_heterogeneous_mix(self, env):
        from repro.cluster import build_heterogeneous

        cluster = build_heterogeneous(env)
        types = sorted(n.instance.name for n in cluster.datanode_hosts)
        assert types == ["large"] * 3 + ["medium"] * 3 + ["small"] * 3
        assert cluster.namenode_host.instance.name == "medium"

    def test_throttle_datanodes_returns_names(self, env):
        cluster = build_homogeneous(env, SMALL, n_datanodes=9)
        names = cluster.throttle_datanodes(3, 50)
        assert names == ["dn6", "dn7", "dn8"]
        src = cluster.client_host
        assert cluster.network.effective_rate(src, cluster.datanode_host("dn8")) == mbps(50)

    def test_throttle_datanodes_bounds(self, env):
        cluster = build_homogeneous(env, SMALL, n_datanodes=3)
        with pytest.raises(ValueError):
            cluster.throttle_datanodes(4, 50)
        assert cluster.throttle_datanodes(0, 50) == []

    def test_host_lookup(self, env):
        cluster = build_homogeneous(env, SMALL, n_datanodes=2)
        assert cluster.host("client") is cluster.client_host
        with pytest.raises(KeyError):
            cluster.host("nothere")
        with pytest.raises(KeyError):
            cluster.datanode_host("client")

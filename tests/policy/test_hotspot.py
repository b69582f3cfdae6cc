"""Hotspot policy: popularity-driven replica boosts and cool-down trims."""

from __future__ import annotations

import pytest

from repro.hdfs import HdfsReader
from repro.policy import HotspotPolicy
from repro.units import MB

from .conformance import build_deployment
from .regen_goldens import heat_cycle, hotspot_counters, summary

BASE = 3  # configured replication factor in build_deployment's config


def bound(**knobs):
    """A ``HotspotPolicy`` with ``knobs`` set, bound by build_deployment."""
    policy = HotspotPolicy()
    for knob, value in knobs.items():
        setattr(policy, knob, value)
    env, _ = build_deployment(policy)
    return env, policy


class TestReplicationPolicyUnit:
    def test_heat_counts_only_window_reads(self) -> None:
        env, policy = bound(window=30.0)
        for at in (0.0, 5.0, 40.0):
            env.run(until=at)
            policy.note_read(7, "dn0")
        assert policy.heat(7, 41.0) == 1  # 0.0 and 5.0 aged out
        assert policy.heat(8, 41.0) == 0  # never-read block

    def test_target_tracks_promotion_and_demotion(self) -> None:
        env, policy = bound(boost=2, hot_reads=2)
        policy.note_read(1, "dn0")
        assert policy.target_replication(1, 1.0) == BASE
        env.run(until=1.0)
        policy.note_read(1, "dn0")
        assert policy.target_replication(1, 2.0) == BASE + 2
        assert (policy.promotions, policy.demotions) == (1, 0)
        assert policy.target_replication(1, 100.0) == BASE  # cooled
        assert (policy.promotions, policy.demotions) == (1, 1)

    def test_excess_replicas_trims_to_target_deterministically(self) -> None:
        _, policy = bound()
        holders = ["dn0", "dn5", "dn2", "dn7"]
        victims = policy.excess_replicas(9, holders, now=0.0)
        assert victims == ("dn7",)  # reverse-name order, one extra copy
        assert policy.excess_replicas(9, holders[:3], now=0.0) == ()

    def test_scan_bound_covers_the_boost(self) -> None:
        _, policy = bound(boost=2)
        assert policy.scan_replication() == BASE + 2
        assert policy.manages_excess

    @pytest.mark.parametrize(
        "kwargs",
        [{"boost": 0}, {"hot_reads": 0}, {"window": 0.0}, {"window": -1.0}],
    )
    def test_invalid_parameters_rejected(self, kwargs: dict) -> None:
        with pytest.raises(ValueError):
            bound(**kwargs)  # raises at bind


class TestEndToEnd:
    def _deploy(self):
        env, deployment = build_deployment("hotspot")
        client = deployment.client()
        env.run(until=env.process(client.put("/hot", 4 * MB)))
        return env, deployment

    def _read(self, env, deployment, times: int = 1) -> None:
        for _ in range(times):
            reader = HdfsReader(deployment)
            env.run(until=env.process(reader.get("/hot")))

    def _replication_counts(self, deployment) -> list[int]:
        namenode = deployment.namenode
        return [
            len(namenode.blocks.locations(block.block_id))
            for block in namenode.namespace.get("/hot").blocks
        ]

    def test_hot_file_gains_a_replica_then_cools_back(self) -> None:
        env, deployment = self._deploy()
        assert isinstance(deployment.policy, HotspotPolicy)
        monitor = deployment.replication_monitor

        # Below hot_reads: nothing changes.
        self._read(env, deployment, times=2)
        env.run(until=env.now + 5)
        assert self._replication_counts(deployment) == [BASE, BASE]

        # Third read within the window tips every block hot.
        self._read(env, deployment)
        env.run(until=env.now + 10)
        assert self._replication_counts(deployment) == [BASE + 1, BASE + 1]
        assert monitor.completed  # the boost came from the monitor

        # Past the 30 s window the heat expires and the excess pass
        # trims back down — never below the base factor.
        env.run(until=env.now + 60)
        assert self._replication_counts(deployment) == [BASE, BASE]
        assert monitor.removed
        assert deployment.policy.promotions >= 2
        assert deployment.policy.demotions >= 2

    def test_trim_is_journaled(self) -> None:
        env, deployment = self._deploy()
        self._read(env, deployment, times=3)
        env.run(until=env.now + 10)
        env.run(until=env.now + 60)
        trims = deployment.journal.events(kind="replica_trimmed")
        assert trims
        assert all(event.details.get("datanode") for event in trims)

    def test_acked_bytes_survive_boost_and_trim(self) -> None:
        env, deployment = self._deploy()
        self._read(env, deployment, times=3)
        env.run(until=env.now + 70)
        assert deployment.namenode.file_fully_replicated("/hot")
        # The file still reads back fine after the full heat cycle.
        self._read(env, deployment)


class TestRebinding:
    def test_rebound_instance_starts_with_empty_counters(self) -> None:
        policy = HotspotPolicy()
        first = heat_cycle(policy, cool=10.0)  # stop while both blocks are hot
        assert hotspot_counters(first) == {"promotions": 2, "demotions": 0}
        _, second = build_deployment(policy)
        assert hotspot_counters(second) == {"promotions": 0, "demotions": 0}
        # No read or hot mark of the first binding leaks into the next:
        # a re-bound instance runs the cycle exactly as a fresh one does.
        assert summary(heat_cycle(policy)) == summary(heat_cycle())

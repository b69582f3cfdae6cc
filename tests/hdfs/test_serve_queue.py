"""Datanode serve-queue admission, short-circuit reads, and resume.

The serve model (``HdfsConfig.serve_streams``, Hadoop's
``dfs.datanode.max.transfer.threads``) bounds concurrent read streams
per datanode; excess readers queue FIFO and their wait lands in the
``read.serve_wait`` histogram.  Short-circuit local reads bypass the
queue (and the NIC) entirely; a source dying mid-stream resumes from
the delivered byte offset on the next-ranked replica instead of
re-reading the block.
"""

from __future__ import annotations

import pytest

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.hdfs import HdfsDeployment, HdfsReader
from repro.hdfs.protocol import DatanodeDead
from repro.sim import Environment
from repro.units import KB, MB

BLOCK = 2 * MB


def build(n_datanodes: int = 6, observe: bool = True, **hdfs):
    env = Environment()
    config = SimulationConfig().with_hdfs(
        block_size=BLOCK, packet_size=64 * KB, **hdfs
    )
    cluster = build_homogeneous(
        env, SMALL, n_datanodes=n_datanodes, config=config
    )
    return env, HdfsDeployment(cluster, observe=observe)


def put(env, deployment, path: str, size: int):
    client = deployment.client()
    return env.run(until=env.process(client.put(path, size)))


class TestServeQueue:
    def test_slots_bound_concurrent_serves(self):
        env, deployment = build(serve_streams=2)
        datanode = next(iter(deployment.datanodes.values()))

        serves = []

        def opener(env):
            for i in range(4):
                serve = yield from datanode.open_serve(block_id=i, client="c")
                serves.append(serve)

        env.process(opener(env))
        env.run(until=0.001)
        # Slots exhausted after two grants: the opener is parked waiting.
        assert len(serves) == 2
        assert datanode.active_serves == 2
        assert datanode.serve_queue_len == 1

        serves[0].close()
        env.run(until=0.002)  # let the queued request resume
        assert len(serves) == 3

    def test_waiting_reader_records_serve_wait(self):
        env, deployment = build(serve_streams=1)
        put(env, deployment, "/f", BLOCK)
        block = deployment.namenode.namespace.get("/f").blocks[0]
        source = HdfsReader(deployment)._candidates(block)[0]
        datanode = deployment.datanode(source)

        def hog(env):
            serve = yield from datanode.open_serve(block.block_id, "hog")
            yield env.timeout(0.5)
            serve.close()

        env.process(hog(env))
        result = env.run(
            until=env.process(HdfsReader(deployment).get("/f"))
        )
        # The hog held the only slot until t=0.5; the read queued behind
        # it and its wait is on the record.
        wait = deployment.metrics.histogram("read.serve_wait")
        assert wait.count >= 1
        assert wait.maximum > 0.4
        assert result.end > 0.5

    def test_uncontended_read_waits_zero(self):
        env, deployment = build(serve_streams=4)
        put(env, deployment, "/f", 2 * BLOCK)
        env.run(until=env.process(HdfsReader(deployment).get("/f")))
        wait = deployment.metrics.histogram("read.serve_wait")
        assert wait.count >= 2  # one admission per block stream
        assert wait.maximum == 0.0

    def test_open_serve_on_dead_datanode_raises(self):
        env, deployment = build()
        datanode = next(iter(deployment.datanodes.values()))
        datanode.kill()

        def opener(env):
            yield from datanode.open_serve(block_id=0, client="c")

        with pytest.raises(DatanodeDead):
            env.run(until=env.process(opener(env)))

    def test_kill_aborts_open_serves_and_frees_slots(self):
        env, deployment = build(serve_streams=2)
        datanode = next(iter(deployment.datanodes.values()))
        aborted = []

        def opener(env):
            serve = yield from datanode.open_serve(block_id=7, client="c")
            serve.on_kill = lambda: aborted.append(serve)

        env.run(until=env.process(opener(env)))
        assert datanode.active_serves == 1
        datanode.kill()
        assert aborted and aborted[0].closed
        assert datanode.active_serves == 0


class TestShortCircuit:
    def _local_setup(self):
        env, deployment = build()
        put(env, deployment, "/f", BLOCK)
        block = deployment.namenode.namespace.get("/f").blocks[0]
        holder = deployment.namenode.blocks.locations(block.block_id)[0]
        host = deployment.datanode(holder).node
        return env, deployment, HdfsReader(deployment, host=host), host

    def test_local_replica_bypasses_nic_and_serve_queue(self):
        env, deployment, reader, host = self._local_setup()
        sent0 = host.nic.bytes_sent
        read0 = host.disk.bytes_read
        result = env.run(until=env.process(reader.get("/f")))
        assert result.size == BLOCK
        # Served off the local disk: no NIC traffic, no serve admission.
        assert host.nic.bytes_sent == sent0
        assert host.disk.bytes_read == read0 + BLOCK
        assert deployment.metrics.histogram("read.serve_wait").count == 0


class TestResumeFromOffset:
    def test_resume_transfers_only_the_remainder(self):
        """A mid-stream source death must not restart the block: total
        bytes entering the reader equal the file size exactly."""
        env, deployment = build(n_datanodes=9)
        put(env, deployment, "/f", BLOCK)
        block = deployment.namenode.namespace.get("/f").blocks[0]
        reader = HdfsReader(deployment)
        candidates = reader._candidates(block)

        def killer(env):
            yield env.timeout(0.02)  # ~half of a 2 MB stream at NIC rate
            deployment.datanode(candidates[0]).kill()

        env.process(killer(env))
        result = env.run(until=env.process(reader.get("/f")))
        assert result.size == BLOCK
        assert dict(result.sources)[block.block_id] == candidates[1]
        client_host = deployment.cluster.client_host
        assert client_host.nic.bytes_received == BLOCK
        # The journal's completion record carries the delivered total.
        (event,) = deployment.journal.events(kind="read_complete")
        assert event.details["bytes"] == event.details["size"] == BLOCK

    def test_resume_equivalent_with_and_without_trains(self):
        """The resumed remainder is per-chunk in both modes; the whole
        degraded read lands on the same replicas either way."""

        def run(coalesce: int):
            env, deployment = build(n_datanodes=9, coalesce_reads=coalesce)
            put(env, deployment, "/f", 2 * BLOCK)
            block = deployment.namenode.namespace.get("/f").blocks[0]
            reader = HdfsReader(deployment)
            victim = reader._candidates(block)[0]

            def killer(env):
                yield env.timeout(0.02)
                deployment.datanode(victim).kill()

            env.process(killer(env))
            result = env.run(until=env.process(reader.get("/f")))
            return result.size, tuple(result.sources)

        assert run(0) == run(1)

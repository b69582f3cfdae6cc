"""Stateful property test: the BlockManager under arbitrary op sequences.

A hypothesis RuleBasedStateMachine drives allocate / expect / receive /
drop / commit / remove-datanode in random interleavings and checks the
bookkeeping invariants a namenode must never violate.
"""

import pickle

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.hdfs import BlockManager
from repro.hdfs.protocol import BlockState

DATANODES = [f"dn{i}" for i in range(6)]


class BlockManagerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.manager = BlockManager()
        #: Shadow model: block_id -> set of finalized datanodes.
        self.finalized: dict[int, set[str]] = {}
        self.sizes: dict[int, int] = {}

    blocks = Bundle("blocks")

    @rule(target=blocks, size=st.integers(min_value=1, max_value=1 << 20))
    def allocate(self, size):
        block = self.manager.allocate("/f", index=len(self.sizes), size=size)
        assert block.block_id not in self.finalized
        self.finalized[block.block_id] = set()
        self.sizes[block.block_id] = size
        return block.block_id

    @rule(block_id=blocks, dns=st.sets(st.sampled_from(DATANODES), max_size=3))
    def expect(self, block_id, dns):
        self.manager.expect_replicas(block_id, tuple(sorted(dns)))

    @rule(block_id=blocks, dn=st.sampled_from(DATANODES))
    def receive(self, block_id, dn):
        self.manager.replica_received(block_id, dn, self.sizes[block_id])
        self.finalized[block_id].add(dn)

    @rule(block_id=blocks, dn=st.sampled_from(DATANODES))
    def drop(self, block_id, dn):
        self.manager.drop_replica(block_id, dn)
        self.finalized[block_id].discard(dn)

    @rule(block_id=blocks)
    def commit(self, block_id):
        self.manager.commit(block_id)

    @rule(block_id=blocks)
    def bump(self, block_id):
        before = self.manager.info(block_id).block.generation
        bumped = self.manager.bump_generation(block_id)
        assert bumped.generation == before + 1

    @rule(dn=st.sampled_from(DATANODES))
    def remove_datanode(self, dn):
        affected = self.manager.remove_datanode(dn)
        for block_id in self.finalized:
            self.finalized[block_id].discard(dn)
        # Everything reported affected really referenced the datanode.
        for block_id in affected:
            assert dn not in self.manager.locations(block_id)

    # ------------------------------------------------------------------
    @invariant()
    def locations_match_shadow_model(self):
        for block_id, expected in self.finalized.items():
            assert set(self.manager.locations(block_id)) == expected
            assert self.manager.replication_of(block_id) == len(expected)

    @rule()
    def checkpoint_round_trip(self):
        """A pickled manager keeps its replica index and its id counter."""
        self.manager = pickle.loads(pickle.dumps(self.manager))

    @invariant()
    def under_replicated_is_consistent(self):
        flagged = set(self.manager.under_replicated(3))
        for block_id, dns in self.finalized.items():
            assert (block_id in flagged) == (len(dns) < 3)

    @invariant()
    def under_replicated_matches_brute_force(self):
        """The count index gives the sum over every block's replicas."""
        infos = self.manager.all_blocks()
        for required in range(6):
            brute = tuple(
                sorted(
                    info.block.block_id
                    for info in infos
                    if sum(r.finalized for r in info.replicas.values()) < required
                )
            )
            assert self.manager.under_replicated(required) == brute

    @invariant()
    def blocks_on_inverts_locations(self):
        for dn in DATANODES:
            for block_id in self.manager.blocks_on(dn):
                info = self.manager.info(block_id)
                assert dn in info.replicas

    @invariant()
    def committed_state_sticks(self):
        for block_id in self.finalized:
            state = self.manager.info(block_id).state
            assert state in (BlockState.UNDER_CONSTRUCTION, BlockState.COMPLETE)


TestBlockManagerStateful = BlockManagerMachine.TestCase
TestBlockManagerStateful.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)

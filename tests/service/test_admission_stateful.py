"""Stateful property test: the admission controller under arbitrary traffic.

A hypothesis RuleBasedStateMachine fires arrivals and completions in
random interleavings and checks the bounded-queue/backpressure contract:

* the queue never exceeds ``queue_limit`` and inflight never exceeds
  ``max_inflight`` (bounded-queue semantics, not silent buffering);
* no admitted upload is silently dropped — everything the controller
  accepts is eventually handed back exactly once;
* at drain, ``completed + failed + rejected == arrivals`` (conservation).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import pytest

from repro.service import AdmissionController
from repro.service.admission import ADMIT, QUEUE, REJECT


class AdmissionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ctrl = AdmissionController(max_inflight=3, queue_limit=4)
        self._next = 0
        #: Items the controller accepted (admitted or queued) but has not
        #: yet handed to a worker slot — i.e. its queue, shadow-modelled.
        self.shadow_queue: list[int] = []
        #: Items currently occupying a worker slot.
        self.running: set[int] = set()
        #: Final outcome per item: "done" | "failed" | "rejected".
        self.outcome: dict[int, str] = {}

    @rule()
    def arrive(self):
        item = self._next
        self._next += 1
        decision = self.ctrl.on_arrival(item)
        if decision == ADMIT:
            self.running.add(item)
        elif decision == QUEUE:
            self.shadow_queue.append(item)
        else:
            assert decision == REJECT
            self.outcome[item] = "rejected"

    @precondition(lambda self: self.running)
    @rule(ok=st.booleans())
    def finish(self, ok):
        item = min(self.running)
        self.running.remove(item)
        self.outcome[item] = "done" if ok else "failed"
        backlogged = self.ctrl.on_done(ok)
        if backlogged is None:
            assert not self.shadow_queue
        else:
            # FIFO: the controller hands back the oldest queued item, and
            # never an item it already surfaced (no duplication, no loss).
            assert backlogged == self.shadow_queue.pop(0)
            assert backlogged not in self.outcome
            assert backlogged not in self.running
            self.running.add(backlogged)

    # ------------------------------------------------------------------
    @invariant()
    def bounds_hold(self):
        assert len(self.ctrl.queue) <= self.ctrl.queue_limit
        assert self.ctrl.inflight <= self.ctrl.max_inflight
        assert self.ctrl.max_queue_depth <= self.ctrl.queue_limit
        assert self.ctrl.max_inflight_seen <= self.ctrl.max_inflight

    @invariant()
    def shadow_matches_controller(self):
        assert self.ctrl.queue == self.shadow_queue
        assert self.ctrl.inflight == len(self.running)

    @invariant()
    def counters_conserve(self):
        c = self.ctrl
        # Every arrival is in exactly one place: rejected, settled,
        # queued, or occupying a slot.
        assert c.arrivals == c.settled + len(c.queue) + c.inflight
        assert c.admitted + c.dequeued == c.completed + c.failed + c.inflight
        assert c.enqueued == c.dequeued + len(c.queue)

    def teardown(self):
        # Drain whatever is still running, then check conservation the
        # same way the service does at a quiescent barrier.
        while self.running:
            self.finish(ok=True)
        self.ctrl.check_drained()
        assert self.ctrl.arrivals == self.ctrl.settled


TestAdmissionStateful = AdmissionMachine.TestCase
TestAdmissionStateful.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_rejects_bad_limits():
    with pytest.raises(ValueError):
        AdmissionController(max_inflight=0, queue_limit=4)
    with pytest.raises(ValueError):
        AdmissionController(max_inflight=1, queue_limit=-1)


def test_on_done_without_inflight_raises():
    ctrl = AdmissionController(max_inflight=1, queue_limit=1)
    with pytest.raises(RuntimeError):
        ctrl.on_done(True)


def test_check_drained_reports_violation():
    ctrl = AdmissionController(max_inflight=1, queue_limit=1)
    ctrl.on_arrival("a")
    with pytest.raises(AssertionError):
        ctrl.check_drained()

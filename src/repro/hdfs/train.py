"""Analytic train coalescing for the write and read hot loops.

In steady state the per-packet event cascade of a block write — buffer
token, transfer, inbox hand-off, disk write, forward, ACK relay hop — is
fully determined by the channel FIFO recurrences (every store interaction
resolves synchronously and every wait is a :meth:`Channel.quote`).  A
:class:`PacketTrain` exploits that: one *conductor* per pipeline computes
the whole block's timeline analytically from the same quote math,
performs only the externally-observable actions in real time, and turns
O(packets × hops) heap events into a handful of per-block milestones.
The conductor is no process but timed callbacks: one timer per pending
milestone, whose callback fires it.

The conductor stays honest three ways:

* **Analytic production.**  Packet ``k`` is taken off the data queue at
  ``g_k = max(issue_k, r_k)``: the legacy issue time (the completion of
  packet ``k-1``'s first-hop send; the train's start for packet 0 and
  the resume for the first packet after a hold), or
  the instant production puts the packet into the queue
  (:class:`~repro.hdfs.client.output_stream.Production`), whichever is
  later.  The takes feed back into production's queue bound, so the
  whole block is planned at start.
* **Channel guards.**  Train occupancy is held as a per-channel ledger of
  ``(issue, end)`` quotes rather than a committed ``busy_until``.  Every
  channel serves one role in a train, so its ledger is not a copy but a
  pair of the timeline's own columns.  The instant a *foreign* caller
  quotes a guarded channel, the guard materialises the ledger prefix with
  ``issue <= now`` (those quotes are immutable, exactly like legacy
  in-flight packets) so the foreign transfer chains behind it, then wakes
  the conductor to re-plan.
* **Frozen-prefix replay.**  On any invalidation (throttle-table change,
  foreign quote) the plan is recomputed at the interruption time ``T``:
  operations whose issue time is ``< T`` keep their quotes verbatim,
  everything later is re-quoted with the current effective rates and the
  channels' real ``busy_until`` as floors.  Causality guarantees replayed
  issue times never move before ``T``, so the split is well defined: a
  frozen quote's recomputed issue equals its old one, and the rows whose
  every quote is frozen are copied rather than recomputed.

Observable history is preserved bit-for-bit: the journal's
``block_stored`` / FNFA / ``blockReceived`` activity comes from the
receiver's own finalizer (:meth:`BlockReceiver.finalize`, the one the
per-packet receive loop runs), called at the analytically-computed
last-write time; receiver closes and the responder's ``block_done`` fire
at the legacy timestamps, and NIC/disk/flow counters are batch-applied at
settle (nothing observes them mid-block).  A train starts no process:
the receivers' and the responder's per-packet loops start with the first
packet sent one by one.

The clients plan a train only for a block nothing was taken for, and
:func:`repro.hdfs.client.send.send_block` runs it.  The planner
declines co-resident foreign receivers, loopback and another train
guarding a needed channel, falling back to the per-packet path, and
counts each decline by its reason in the deployment's metrics.
Scheduled faults are no reason to decline.  A throttle reaches the
train as a throttle-table change and replays it.  A datanode kill
mid-train settles the committed prefix and reconstructs the
client-visible recovery state per Algorithm 3.  A sibling pipeline's
failure *holds* a SMARTH train mid-block (Algorithm 4 line 1): the
train stops after the packet the per-packet loop would stop after,
keeps conducting the packets already sent, and plans the rest of the
block when the client resumes it (:meth:`PacketTrain.hold`,
:meth:`PacketTrain.resume`).

:class:`ReadTrain` applies the same machinery to the read path.  The
chunk cascade of one block read — disk prefetch of chunk ``k+1``
overlapping the transfer of chunk ``k`` — is a three-channel FIFO
recurrence (source disk, source egress, reader ingress), and one train
per reader host runs that recurrence for every stream into the host
(:class:`ReadStream`), side by side as the per-chunk loops run: streams
share the host's ingress, and those from one source its disk and
egress.  A lone stream is planned to its end in one pass; streams beside
each other are planned step by step off a heap, a bounded stretch at a
time.  The guard / ledger / frozen-prefix-replay machinery and the
conductor are shared through :class:`TrainBase`; a stream joining the
train is one more replay.  A datanode kill is settled where the
per-chunk loop notices it, after the chunk in flight lands, and the
reader resumes from the delivered byte count on the next-ranked
replica.  The read planner declines only what could make the cascade
diverge from the loops (see :func:`plan_read_train`); scheduled kills and
resumed streams ride trains.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Optional

from ..obs import labelled
from ..sim import Environment, Event
from ..sim.environment import URGENT

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node
    from .client.responder import PacketResponder
    from .client.send import BlockProgress
    from .datanode import BlockReceiver, Datanode, ReadServe
    from .deployment import HdfsDeployment, PipelineHandle
    from .protocol import Block

__all__ = [
    "TrainBase",
    "PacketTrain",
    "ReadTrain",
    "ReadStream",
    "plan_train",
    "plan_read_train",
]

INF = float("inf")
#: Steps a read train plans beside other streams before it arms a
#: ``plan`` milestone to go on, so a join re-plans at most these.  On
#: the read campaigns of chaos sub-seeds 0-39, 16 plans a quarter of the
#: steps in vain that planning straight to the next stream end does, for
#: 9% more heap events.
PLAN_STEPS = 16

#: Counters of declined trains, labelled by the reason
#: (``train_declined{reason=loopback}``); see :func:`plan_train` and
#: :func:`plan_read_train` for the reasons.
WRITE_DECLINED = "train_declined"
READ_DECLINED = "read_train_declined"


def _decline(deployment: "HdfsDeployment", counter: str, reason: str) -> None:
    """Count one declined train under ``counter{reason=...}``."""
    deployment.metrics.count(labelled(counter, reason=reason))


def plan_train(
    deployment: "HdfsDeployment",
    client_node: "Node",
    handle: "PipelineHandle",
    responder: "PacketResponder",
    progress: "BlockProgress",
) -> Optional["PacketTrain"]:
    """Return a ready-to-start train for this block, or ``None`` to decline.

    The clients ask only for a block nothing was taken for yet: a resend
    carries per-packet state the train does not reproduce.  The
    predicate is deliberately conservative: any condition that could
    make the analytic timeline diverge from the per-packet one —
    loopback, a foreign receiver sharing a hop datanode, a dead hop,
    another train already guarding a needed channel — falls back to the
    legacy path.  A scheduled kill does not: the train settles it
    through the pipeline error, and holds the block when it fails a
    sibling pipeline (:meth:`PacketTrain.hold`).

    Each decline counts in ``deployment.metrics`` as
    ``train_declined{reason=...}``: ``pipeline_failed`` (the pipeline's
    error already fired), ``loopback``, ``dead_hop``, ``co_resident``
    (a foreign receiver on a hop datanode) or ``guard``.
    """
    if deployment.config.hdfs.coalesce_packets == 1:
        return None
    if handle.error.triggered:
        _decline(deployment, WRITE_DECLINED, "pipeline_failed")
        return None
    receivers = handle.receivers
    if not receivers:
        return None
    hosts = [r.host for r in receivers]
    if len({client_node, *hosts}) != len(hosts) + 1:
        # Loopback or a repeated target: shared NICs.
        _decline(deployment, WRITE_DECLINED, "loopback")
        return None
    for receiver in receivers:
        if not receiver.datanode.node.alive:
            _decline(deployment, WRITE_DECLINED, "dead_hop")
            return None
        for other in receiver.datanode._active:
            if other is not receiver:
                # A foreign stream on a hop datanode.
                _decline(deployment, WRITE_DECLINED, "co_resident")
                return None
    train = PacketTrain(deployment, client_node, handle, responder, progress)
    for channel in train.channels:
        if channel._guard is not None:
            # Another train holds this channel's ledger.
            _decline(deployment, WRITE_DECLINED, "guard")
            return None
    return train


class TrainBase:
    """Guard / ledger / frozen-prefix replay and the conductor, shared.

    A train holds its channels' occupancy *analytically*: instead of
    committing quotes to ``busy_until`` as it plans, it installs a guard
    on each channel and keeps the channel's ``(issue, end)`` quotes as a
    ledger.  No channel serves two roles in one train, so each ledger is
    a pair of the timeline's own columns (``_ledger_columns``), in FIFO
    order.  A foreign quote materialises exactly the ledger prefix legacy
    would already have committed, then invalidates the plan (``_bump``)
    so the conductor replays the remainder with frozen-prefix semantics.

    The conductor is a chain of timed callbacks, not a process.  The
    start is an urgent event at arming time; each step (``_conduct``)
    replays if the plan is stale, fires every milestone due by now and
    arms one timer for the next, whose callback is the next step.  An
    invalidation schedules one wake, and the replay runs in its callback
    (one hop later again while a milestone timer is armed, see
    ``_on_bumped``), after the foreign quote has committed.  A death
    cancels what is armed.

    Subclasses provide the rates (``_snapshot_rates``), the planner of
    rows ``k0..K-1`` (``_plan``, which ``_start`` runs), the replay
    (``_replay``) and their ``(when, order, kind, hop)`` milestones
    (``_rebuild_milestones``, ``_fire``); everything here is
    recurrence-agnostic.  :class:`ReadTrain`, whose streams come and go,
    brings its own ``_start``, ledgers and floors.
    """

    #: Metrics counter bumped once per conducted train.
    conducted_metric = "trains_conducted"
    #: Metrics counter bumped once per invalidation replay.
    invalidation_metric = "train_invalidation_count"

    def __init__(self, deployment: "HdfsDeployment", block: "Block"):
        self.env: Environment = deployment.env
        self.deployment = deployment
        self.network = deployment.network
        self.block = block
        self._L = self.network.config.link_latency
        self._C = self.network.config.control_latency

        #: Every channel whose occupancy this train holds analytically.
        self.channels: list = []
        #: Per channel id: its (issues, ends) timeline columns.
        self._ledger: dict = {}
        #: Per channel, in ``channels`` order: its busy float while
        #: planning (the ``busy_until`` of :meth:`Channel.quote`).
        self._busy: list[float] = []
        self._guarded: set = set()  # channel ids still holding our guard
        self._fired: set = set()
        self._milestones: list = []
        self._started = False
        self._dead = False
        self._finished = False
        #: True while the timeline stops short of the block (a
        #: :meth:`PacketTrain.hold`): the conductor then waits for
        #: invalidations and the resume instead of finishing.
        self._held = False
        #: True from an invalidation until the replay that serves it.
        self._stale = False
        #: The armed milestone timer, and the pending conductor step (the
        #: start, or the wake an invalidation scheduled), if any.
        self._timer: Optional[Event] = None
        self._wake: Optional[Event] = None
        #: Rows of the timeline (packets or chunks), set by subclasses.
        self._K = 0
        self._t0 = 0.0  # the train's start

    # -- lifecycle ---------------------------------------------------------
    def _arm(self) -> None:
        """Arm the guards, subscribe to throttle changes, snapshot the
        rates and the busy floors, and schedule the start.

        The start is an urgent event at ``now``, as a process's first
        step is, so an interrupt issued at the same instant never
        overtakes it.
        """
        assert not self._started
        self._started = True
        self._t0 = self.env.now
        for channel in self.channels:
            channel._guard = self._make_guard(channel)
            self._guarded.add(id(channel))
        self.network.throttles.subscribe(self._on_throttle)
        self._reset_plan()
        self.deployment.metrics.count(self.conducted_metric)
        self._wake = self.env.call_at(self.env.now, self._start, URGENT)

    def _start(self, _event: Event) -> None:
        """Plan rows ``0..K-1`` and conduct."""
        self._wake = None
        self._plan(0)
        self._rebuild_milestones()
        self._conduct()

    def _conduct(self) -> None:
        """One conductor step: replay if invalidated, fire every milestone
        due by now, then arm one timer for the next milestone.

        The conductor is no process: each timer's callback fires its
        milestone in place.  With no milestone left the train is done,
        unless it is held: then it waits for an invalidation or the
        resume.
        """
        now = self.env.now
        while True:
            if self._stale:
                self._stale = False
                if self._wake is not None:
                    self._wake.cancel()  # this step serves the invalidation
                    self._wake = None
                self.deployment.metrics.count(self.invalidation_metric)
                self._replay()
            milestones = self._milestones
            if not milestones or milestones[0][0] > now:
                break
            _when, _order, kind, h = milestones.pop(0)
            self._fire(kind, h)
        if self._timer is not None:
            self._timer.cancel()  # armed for a plan the replay superseded
            self._timer = None
        if milestones:
            self._timer = self.env.call_at(milestones[0][0], self._on_timer)
        elif not self._held:
            self._finished = True

    def _on_timer(self, _event: Event) -> None:
        self._timer = None
        if not self._doomed():
            self._conduct()

    def _doomed(self) -> bool:
        """True when a settle is already on its way (see PacketTrain)."""
        return False

    def _on_wake(self, _event: Event) -> None:
        self._wake = None
        self._conduct()

    def _on_bumped(self, _event: Event) -> None:
        """The invalidation's first hop; the replay runs one more hop
        later while a milestone timer is armed, at once otherwise.

        Bumps of this instant that come before the replay coalesce into
        it, and two replays at one instant equal one only when no row is
        issued exactly then.  These are the hops at which the conductor
        process this replaced replayed (it waited on the race of its
        timer and a flag, or on the flag alone while held), so the
        replays, and the results the equivalence suite pins, are its."""
        if self._timer is None:
            self._on_wake(_event)
        else:
            self._wake = self.env.call_at(self.env.now, self._on_wake)

    def _stop(self) -> None:
        """Drop the armed timer and any pending step (settle or death)."""
        for event in (self._timer, self._wake):
            if event is not None:
                event.cancel()
        self._timer = self._wake = None

    # -- invalidation hooks ------------------------------------------------
    def _make_guard(self, channel):
        def guard() -> None:
            self._materialize(channel)
            self._bump()

        return guard

    def _on_throttle(self, _table) -> None:
        self._bump()

    def _bump(self) -> None:
        """Invalidate the plan: schedule a wake unless a step is pending."""
        if self._stale:
            return
        self._stale = True
        if self._wake is None:
            self._wake = self.env.call_at(self.env.now, self._on_bumped)

    def _materialize(self, channel) -> None:
        """Commit the ledger prefix with ``issue <= now`` to ``busy_until``.

        Idempotent and monotone; called by the guard so a foreign quote
        chains behind exactly the train quotes that legacy would already
        have committed.
        """
        issues, ends = self._ledger[id(channel)]
        # Quotes issued at exactly ``now`` count as committed too — legacy
        # would have placed them before this foreign call's quote.
        idx = bisect_right(issues, self.env.now)
        if idx:
            end = ends[idx - 1]
            if end > channel._busy_until:
                channel._busy_until = end

    def _detach(self) -> None:
        # Only drop guards we still own: a channel released early (see
        # :meth:`_release_finished_channels`) may already carry the guard
        # of the client's *next* train.
        for channel in self.channels:
            if id(channel) in self._guarded:
                channel._guard = None
        self._guarded.clear()
        self.network.throttles.unsubscribe(self._on_throttle)

    def _release_finished_channels(self) -> None:
        """Drop guards on channels whose planned quotes are all issued.

        Once a channel's last ledger entry has been issued its occupancy
        is final from this train's perspective: commit it to
        ``busy_until`` and let foreign quotes (in particular the same
        client's next pipeline, which shares the egress NIC while this
        train is still waiting for tail ACKs) proceed guard-free.  Only
        called once the ledger is complete.
        """
        if not self._guarded:
            return
        now = self.env.now
        for channel in self.channels:
            key = id(channel)
            if key not in self._guarded:
                continue
            issues, ends = self._ledger[key]
            if issues and issues[-1] <= now:
                if ends[-1] > channel._busy_until:
                    channel._busy_until = ends[-1]
                channel._guard = None
                self._guarded.discard(key)

    # -- ledger math -------------------------------------------------------
    def _reset_plan(self) -> None:
        """Re-read the rates, point each channel's ledger at its timeline
        columns and start its busy float on its ``busy_until`` floor.

        In a replay the columns already hold the copied frozen prefix, so
        the floor is raised to the prefix's last end: ends are
        nondecreasing along a ledger, so that is every kept quote's.
        The planners quote as :meth:`Channel.quote` does, on these floats:
        a live quote is ``end = max(busy, issue) + size / rate`` and then
        ``busy = end``; a frozen one keeps its old end and raises ``busy``
        to it.
        """
        self._snapshot_rates()
        self._ledger = dict(zip(map(id, self.channels), self._ledger_columns()))
        busy = self._busy = []
        for channel, (_issues, ends) in zip(self.channels, self._ledger.values()):
            floor = channel._busy_until
            if ends and ends[-1] > floor:
                floor = ends[-1]
            busy.append(floor)



class PacketTrain(TrainBase):
    """One coalesced block write: analytic timeline + real milestones."""

    def __init__(
        self,
        deployment: "HdfsDeployment",
        client_node: "Node",
        handle: "PipelineHandle",
        responder: "PacketResponder",
        progress: "BlockProgress",
    ):
        super().__init__(deployment, handle.block)
        self.client_node = client_node
        self.handle = handle
        self.responder = responder
        self.progress = progress
        self.receivers = handle.receivers

        plan = progress.plan
        self._production = progress.production
        self._first = plan.first  # file-wide number of packet 0
        self._sizes = plan.packet_sizes
        #: Rows planned: the block's packets, fewer while held.
        self._K = plan.n_packets
        #: Earliest take of a row not yet taken: the resume instant
        #: after a hold (the client takes the next packet only then).
        self._take_floor = float("-inf")
        self._total_bytes = plan.size
        self._n_hops = len(self.receivers)
        self._caps = [r.buffer_capacity for r in self.receivers]
        #: (src, dst) node pair of each hop's inbound transfer.
        self._links = [
            (client_node if h == 0 else self.receivers[h - 1].host,
             self.receivers[h].host)
            for h in range(self._n_hops)
        ]
        self._egress = [src.nic.egress for src, _dst in self._links]
        self._ingress = [dst.nic.ingress for _src, dst in self._links]
        self._disk_ch = [r.host.disk._channel for r in self.receivers]
        self._disk_rate = [r.host.disk.rate for r in self.receivers]
        self.channels = [*self._egress, *self._ingress, *self._disk_ch]
        # plan_train refuses loopback and repeated hosts, so no channel
        # serves two roles and each ledger is one pair of columns.
        assert len(set(map(id, self.channels))) == 3 * self._n_hops

        #: Fires at the last planned packet's first-hop arrival (legacy
        #: "all packets sent" point, or the row a hold stops after —
        #: ``send_block`` resumes here).  The block is done when the
        #: train settles the responder's ``block_done``.
        self.sent: Event = self.env.event()
        #: Packets whose first-hop delivery completed on this pipeline
        #: (legacy's per-packet send loop would have recorded these as
        #: sent) — the planned rows once ``sent`` fires, the arrived
        #: prefix after an error settle.
        self.sent_count = 0

        # Per-hop timeline arrays, index = packet seq.
        self._g: list[float] = []  # take off the data queue
        H = self._n_hops
        self._p = [[] for _ in range(H)]    # transfer issue
        self._ee = [[] for _ in range(H)]   # egress channel end
        self._ie = [[] for _ in range(H)]   # ingress channel end
        self._a = [[] for _ in range(H)]    # arrival (incl. link latency)
        self._w = [[] for _ in range(H)]    # disk write end
        self._u = [[] for _ in range(H)]    # ACK relayed upstream
        self._rel = [[] for _ in range(H)]  # buffer token release

        self._rates: list[float] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Arm the train and schedule its conductor's start.

        The receivers' per-packet loops never start: only a send starts
        them (:meth:`BlockReceiver.start`), and the train performs their
        externally observable actions — finalize, FNFA, blockReceived,
        close — at the analytically identical times.  The receivers ask
        the train for their buffer occupancy (:meth:`buffered`).  The
        train holds the receivers and the error event only until it
        settles or dies, so a settled train dies by reference counting.
        """
        # Settle synchronously inside the error event's callback chain so
        # the client (subscribed after us) resumes against settled state.
        assert self.handle.error.callbacks is not None
        self.handle.error.callbacks.append(self._on_error)
        for receiver in self.receivers:
            receiver.train = self
        self._arm()

    def _doomed(self) -> bool:
        """The pipeline error was raised at this very instant and its
        settle is queued.  The settle keeps only what happened strictly
        before the failure, so a milestone due now must not fire."""
        return self.handle.error.triggered

    @property
    def held(self) -> bool:
        """True while the block is paused after a :meth:`hold`."""
        return self._held

    def hold(self, at: float) -> bool:
        """Algorithm 4 line 1: the pause flag went up at ``at``.

        The per-packet loop checks the flag each time a packet lands at
        the first datanode, so it stops after row ``j``, the first row
        landing after ``at``; a flag already up when a send begins stops
        it after that send's first row.  A row landing at ``at`` itself
        lands first.  The loop checks it inside its transfer timer's own
        heap event (the race wakes the client in place).  A kill at
        ``at`` raises the flag only inside the pipeline error's event
        (the watcher's race wakes in place there), and the kill schedules
        that event at ``at``, after the transfer timer was created, so
        it comes later.

        Returns False when every planned row had landed by ``at`` (the
        send is complete), else True: the send pauses after row ``j``.
        If rows remain after it the train is held: the conductor's replay
        at ``now`` drops them and rewinds their takes, ``sent`` fires at
        row ``j``'s landing, and no ``fin`` or ``acks`` milestone is
        armed until :meth:`resume`.  The rows in flight keep their
        guards, replays and :meth:`buffered` answers.
        """
        row = bisect_right(self._a[0], at)
        if row >= self._K:
            return False
        if row + 1 < self._K:
            self._K = row + 1
            self._held = True
            if self._g:
                self._bump()  # the conductor's replay drops the rest
        return True

    def resume(self) -> None:
        """Plan the rest of a held block from now, the client's resume.

        A replay at ``now`` keeps the rows in flight and plans the
        remaining ones; the first of them is taken no earlier than now.
        """
        assert self._held and not self._dead
        self._held = False
        self._K = len(self._sizes)
        self._take_floor = self.env.now
        self._fired.discard("sent")
        self.sent = self.env.event()
        self._bump()

    def buffered(self, receiver: "BlockReceiver") -> int:
        """Buffer tokens ``receiver`` holds now: granted minus released.

        A hop's token grants are its transfer issues ``p`` and its
        releases are ``rel``; both columns are nondecreasing, so each
        count is one bisection.  Zero once the train has settled.
        """
        if self._finished or self._dead:
            return 0
        h = self.receivers.index(receiver)
        now = self.env.now
        return bisect_right(self._p[h], now) - bisect_right(self._rel[h], now)

    # -- timeline math -----------------------------------------------------
    def _snapshot_rates(self) -> None:
        self._rates = [
            self.network.effective_rate(src, dst) for src, dst in self._links
        ]

    def _ledger_columns(self) -> list:
        """Egress ``(p, ee)``, ingress ``(p, ie)`` and disk ``(a, w)`` per
        hop, in ``channels`` order."""
        return [
            *zip(self._p, self._ee),
            *zip(self._p, self._ie),
            *zip(self._a, self._w),
        ]

    def _plan(self, k0: int, old: Optional[tuple] = None, T: float = 0.0) -> None:
        """Plan rows ``k0..K-1`` from the recurrences, column by column.

        Mirrors, hop by hop, what the per-packet processes do: the take
        off the data queue (issued when packet ``k-1`` lands at the first
        hop or, for the first packet after a hold, at the resume;
        resolved once production has put packet ``k`` into the queue),
        first-hop issue gated by the take and hop-0 buffer tokens,
        transfer quotes on egress+ingress, the disk write at arrival,
        store-and-forward into the next hop gated by its tokens, and the
        write-and-downstream-gated ACK relay walking back to the client.

        The rows go in windows of the smallest buffer capacity: hop 0's
        columns, then hop 1's, ..., then the ACK walk from the tail to
        the head.  A hop's backpressure term ``rel[h][k - cap]`` lies in
        an earlier window, so the order is exact, and each channel still
        sees its quotes in row order.  In a replay ``old`` holds the
        previous ``(p, ee, ie, a, w)`` columns: a quote issued before
        ``T`` keeps its old end, and each channel's frozen rows are a
        prefix of its issue column, found by one bisection.
        """
        K, H = self._K, self._n_hops
        L, C = self._L, self._C
        sizes, caps, busy = self._sizes, self._caps, self._busy
        g, production, first = self._g, self._production, self._first
        floor = self._take_floor
        p, ee, ie, a, w = self._p, self._ee, self._ie, self._a, self._w
        u, rel = self._u, self._rel
        old_p, old_ee, old_ie, old_a, old_w = old or ([()] * H,) * 5
        frozen = [
            (bisect_left(old_p[h], T), bisect_left(old_a[h], T)) for h in range(H)
        ]
        step = min(caps)
        for start in range(k0, K, step):
            stop = min(start + step, K)
            for h in range(H):
                cap, rate, disk_rate = caps[h], self._rates[h], self._disk_rate[h]
                ph, eeh, ieh, ah, wh, relh = p[h], ee[h], ie[h], a[h], w[h], rel[h]
                upstream, freed = (a[h - 1], rel[h - 1]) if h else (None, None)
                frozen_q, frozen_d = frozen[h]
                kept_ee, kept_ie, kept_w = old_ee[h], old_ie[h], old_w[h]
                eb, ib, db = busy[h], busy[H + h], busy[2 * H + h]
                arrival = ah[start - 1] if start else self._t0
                for k in range(start, stop):
                    if not h:
                        if k == len(g):
                            ready = production.ready(first + k)
                            take = arrival if arrival > floor else floor
                            if ready > take:
                                take = ready
                            production.take_at(first + k, take)
                            g.append(take)
                        base = g[k]
                    else:
                        # Forwarder of hop h-1: ready after its previous
                        # forward landed, and the packet must have
                        # arrived at hop h-1.
                        base = upstream[k]
                        if k and arrival > base:
                            base = arrival
                    if k >= cap and relh[k - cap] > base:
                        base = relh[k - cap]  # §IV-C buffer backpressure
                    ph.append(base)
                    size = sizes[k]
                    if k < frozen_q:
                        e, i = kept_ee[k], kept_ie[k]
                        if e > eb:
                            eb = e
                        if i > ib:
                            ib = i
                    else:
                        dt = size / rate
                        e = eb = (eb if eb > base else base) + dt
                        i = ib = (ib if ib > base else base) + dt
                    eeh.append(e)
                    ieh.append(i)
                    arrival = (e if e > i else i) + L
                    ah.append(arrival)
                    if h:
                        freed.append(arrival)  # token freed on forward
                    if k < frozen_d:
                        d = kept_w[k]
                        if d > db:
                            db = d
                    else:
                        d = db = (db if db > arrival else arrival) + size / disk_rate
                    wh.append(d)
                busy[h], busy[H + h], busy[2 * H + h] = eb, ib, db

            for h in range(H - 1, -1, -1):
                uh, ah, wh = u[h], a[h], w[h]
                downstream = u[h + 1] if h < H - 1 else None
                acked = uh[start - 1] if start else 0.0
                for k in range(start, stop):
                    ready = acked
                    if ah[k] > ready:
                        ready = ah[k]
                    if wh[k] > ready:
                        ready = wh[k]
                    if downstream is None:
                        rel[h].append(ready)  # tail frees its token pre-ACK
                    elif downstream[k] > ready:
                        ready = downstream[k]
                    acked = ready + C
                    uh.append(acked)

    def _replay(self) -> None:
        """Frozen-prefix recompute at ``now`` with current rates/floors.

        Takes issued before ``now`` stand: row ``k``'s take is issued at
        ``a[0][k-1]``, so those are the first ``bisect_left(a0, now) + 1``
        rows.  Later rows are taken again against the replayed plan, and
        production forgets their old takes first.  That happens only
        before ``sent``, so the next block's takes are never touched.
        The same replay serves :meth:`hold` (rows past the new ``K`` are
        dropped with their takes) and :meth:`resume` (the rows after the
        old ``K`` are new).

        A row whose *last* quote issue -- the tail hop's disk issue
        ``a[H-1][k]``, the maximum issue in the row -- is already frozen
        keeps every quote, so its replayed values are verbatim copies.
        That row prefix is found with one bisection over the monotone
        arrival column and copied wholesale; planning resumes after it.
        """
        H = self._n_hops
        T = self.env.now
        kept = bisect_left(self._a[0], T) + 1
        if kept < len(self._g):
            del self._g[kept:]
            self._production.rewind(self._first + kept)
        old = (self._p, self._ee, self._ie, self._a, self._w)
        cutoff = bisect_left(self._a[H - 1], T)
        self._p, self._ee, self._ie, self._a, self._w, self._u, self._rel = (
            [column[:cutoff] for column in columns]
            for columns in (*old, self._u, self._rel)
        )
        self._reset_plan()
        self._plan(cutoff, old, T)
        self._rebuild_milestones()

    # -- milestones --------------------------------------------------------
    def _rebuild_milestones(self) -> None:
        last = self._K - 1
        milestones = []
        if "sent" not in self._fired:
            milestones.append((self._a[0][last], 0, "sent", 0))
        if not self._held:
            for h in range(self._n_hops):
                if ("fin", h) not in self._fired:
                    milestones.append((self._w[h][last], 1, "fin", h))
                if ("acks", h) not in self._fired:
                    milestones.append((self._u[h][last], 2, "acks", h))
        milestones.sort()
        self._milestones = milestones

    def _fire(self, kind: str, h: int) -> None:
        self._fired.add(kind if kind == "sent" else (kind, h))
        if not self._held:
            # A held ledger is incomplete: the resumed rows need guards.
            self._release_finished_channels()
        receiver = self.receivers[h]
        if kind == "sent":
            self.sent_count = self._K
            self.progress.taken = self._K
            if not self.sent.triggered:
                self.sent.succeed()
        elif kind == "fin":
            # All packets arrived and the last disk write just landed:
            # run the receiver's finalizer (journal, FNFA, blockReceived),
            # the one the per-packet receive loop runs at this landing.
            receiver._bytes_received = self._total_bytes
            receiver.finalize()
        elif kind == "acks":
            # Close the receiver's trace spans at the legacy instants:
            # the ACK relay retires right now (u[h][last]); the forwarder
            # of a non-tail hop retired at the last packet's downstream
            # arrival — already past, so pass the analytic time and let
            # the exporter's canonical sort restore order.
            tracer = receiver.datanode.tracer
            tracer.end(receiver._trace_ack, self.env.now)
            if h < self._n_hops - 1:
                tracer.end(receiver._trace_fwd, self._a[h + 1][self._K - 1])
            receiver._acks_done = True
            receiver._maybe_close()
            if h == 0:
                self._settle_success()

    # -- settles -----------------------------------------------------------
    def _apply_counters(self, sent_rows: list[int], disk_rows: list[int]) -> None:
        """Batch NIC/flow/disk counters for the given per-hop row counts.

        ``sent_rows[h]`` is the number of packets whose hop-``h`` transfer
        completed (legacy applies bytes and the flow at transfer end);
        ``disk_rows[h]`` counts committed disk writes (legacy commits
        ``bytes_written`` at issue).
        """
        stats = self.network.stats
        for h, (src, dst) in enumerate(self._links):
            done = sent_rows[h]
            if not done:
                continue
            moved = sum(self._sizes[:done])
            src.nic.bytes_sent += moved
            dst.nic.bytes_received += moved
            stats.record_run(
                src.name, dst.name, self._sizes, self._p[h], self._a[h], done
            )
        for h, receiver in enumerate(self.receivers):
            if disk_rows[h]:
                receiver.host.disk.bytes_written += sum(
                    self._sizes[: disk_rows[h]]
                )

    def retire_forward(self, receiver: "BlockReceiver") -> None:
        """End ``receiver``'s forward span if its last packet already
        landed downstream, at that landing, as the per-packet forwarder
        did.  Called at a failure, before the abort ends the span; a
        landing at the failure instant itself counts as cut off."""
        if self._finished or self._dead or self._held:
            return
        h = self.receivers.index(receiver)
        if h + 1 < self._n_hops and self._a[h + 1]:
            landed = self._a[h + 1][-1]
            if landed < self.env.now:
                receiver.datanode.tracer.end(receiver._trace_fwd, landed)

    def _apply_max_buffered(self, upto_rows: Optional[list[int]] = None) -> None:
        """Analytic §IV-C high-water mark: occupancy at each token grant.

        Row ``k``'s grant finds ``k + 1`` tokens granted minus those
        released strictly before it.  Grants ``p[h]`` and releases
        ``rel[h]`` are both nondecreasing, so one merge walk per hop
        counts the releases.
        """
        for h, receiver in enumerate(self.receivers):
            cap = self._caps[h]
            rel = self._rel[h]
            grants = self._p[h]
            rows = len(grants) if upto_rows is None else upto_rows[h]
            n_rel = len(rel)
            released = 0
            high = receiver.max_buffered
            for k in range(rows):
                grant = grants[k]
                while released < n_rel and rel[released] < grant:
                    released += 1
                occ = k + 1 - released
                if occ > cap:
                    occ = cap
                if occ > high:
                    high = occ
            receiver.max_buffered = high

    def _settle_success(self) -> None:
        self._finished = True
        H = self._n_hops
        rows = [self._K] * H
        self._apply_counters(rows, rows)
        self._apply_max_buffered()
        for channel in self.channels:
            issues, ends = self._ledger[id(channel)]
            if ends and ends[-1] > channel._busy_until:
                channel._busy_until = ends[-1]
        self._detach()
        # Break the reference cycles through the pipeline, so a settled
        # train dies by reference counting: the receivers' back-references
        # and the settle hook on an error that will not come now.
        self._release_receivers()
        self.handle.error.callbacks.remove(self._on_error)
        self.sent_count = self._K
        responder = self.responder
        responder.ack_queue.clear()
        responder.acked_count += self._K
        responder.acked_bytes += self._total_bytes
        if not responder.block_done.triggered:
            responder.block_done.succeed(self.block)

    def _release_receivers(self) -> None:
        for receiver in self.receivers:
            if receiver.train is self:
                receiver.train = None

    def _on_error(self, event: Event) -> None:
        """Pipeline error mid-train: settle the committed prefix.

        Runs synchronously inside the error event's callback chain, before
        the client's race resumes, so every counter and the responder's
        recovery state are already consistent when Algorithm 3 starts.
        A held train settles the same way (no take is in progress, so
        ``taken`` is its planned rows) and is dropped: the next send goes
        packet by packet.
        """
        if self._finished or self._dead:
            return
        for receiver in self.receivers:
            self.retire_forward(receiver)  # while the train is live
        self._dead = True
        self._stop()
        self._release_receivers()
        if self.progress.held is self:
            self.progress.held = None
        now = self.env.now
        H = self._n_hops
        rows = len(self._g)  # 0 if the conductor has not planned yet
        # Strictly-before semantics: an action scheduled at exactly the
        # failure instant would race the kill in legacy; ties are
        # measure-zero and the conservative reading drops them.  The
        # per-hop timeline columns are nondecreasing (FIFO chains), so
        # one bisection per column gives the strictly-before prefix.
        arrived = [bisect_left(self._a[h], now) for h in range(H)]
        granted = [bisect_left(self._p[h], now) for h in range(H)]
        # A per-packet sender has taken the arrived prefix plus the
        # packet it was sending or waiting for; production forgets the
        # rest (``send_block`` waits out that last take if it lies
        # ahead).
        taken = min(arrived[0] + (self._t0 < now), rows)
        self.progress.taken = taken
        if taken < rows:
            self._production.rewind(self._first + taken)
        self._apply_counters(arrived, arrived)
        for h, receiver in enumerate(self.receivers):
            receiver._bytes_received = sum(self._sizes[: arrived[h]])
        self._apply_max_buffered(granted)
        self.sent_count = arrived[0]
        for channel in self.channels:
            if id(channel) in self._guarded:
                self._materialize(channel)
        self._detach()
        responder = self.responder
        acked = bisect_left(self._u[0], now)
        responder.acked_count += acked
        responder.acked_bytes += sum(self._sizes[:acked])
        plan = self.progress.plan
        responder.ack_queue.extend(
            plan.packet(k) for k in range(acked, arrived[0])
        )


def plan_read_train(
    deployment: "HdfsDeployment",
    source: "Datanode",
    client_node: "Node",
    serve: "ReadServe",
    block: "Block",
    offset: int = 0,
) -> Optional["ReadStream"]:
    """Return a ready-to-start stream on the reader host's read train, or
    ``None`` to decline.

    Every coalesced stream into one reader host rides that host's
    :class:`ReadTrain`, which plans them together; the stream joins it
    (or starts it) on :meth:`ReadStream.start`.  A resumed stream (a
    non-zero ``offset`` after its previous source died) is the same
    recurrence over the rest of the block, and a scheduled kill is no
    reason to decline: the train settles a kill where the per-chunk loop
    notices it.  The planner still declines where the analytic cascade
    could diverge from the per-chunk loops: a dead source, a foreign
    write receiver on the source, a serve on the source that is not one
    of this host's streams (a reader on another host, or a per-chunk
    stream), and a needed channel another train guards (another host's
    read train or a write train).  A reader on the source's own host
    never gets here: it reads its local replica short-circuit.

    Each decline counts in ``deployment.metrics`` as
    ``read_train_declined{reason=...}``: ``dead_source``,
    ``co_resident`` (a write receiver on the source), ``foreign_serve``
    or ``guard``.
    """
    if deployment.config.hdfs.coalesce_reads == 1:
        return None
    if not source.node.alive:
        _decline(deployment, READ_DECLINED, "dead_source")
        return None
    if source._active:
        # A foreign write stream on the source datanode.
        _decline(deployment, READ_DECLINED, "co_resident")
        return None
    train = deployment.read_trains.get(client_node)
    ours = () if train is None else [s.serve for s in train._streams]
    for other in source._serving:
        if other is not serve and other not in ours:
            # A stream this host's train does not conduct.
            _decline(deployment, READ_DECLINED, "foreign_serve")
            return None
    node = source.node
    for channel in (node.disk._channel, node.nic.egress, client_node.nic.ingress):
        if channel._guard is not None and (
            train is None or id(channel) not in train._guarded
        ):
            # Another train holds this channel's ledger.
            _decline(deployment, READ_DECLINED, "guard")
            return None
    return ReadStream(deployment, source, client_node, serve, block, offset)


class ReadStream:
    """One block stream of a :class:`ReadTrain`: its handle and its rows.

    The reader starts the stream and waits on :attr:`done`, which fires
    with the block once the last chunk has landed, or with ``None`` where
    the per-chunk loop would notice that the source died; the reader then
    resumes from :attr:`delivered_bytes` on the next-ranked replica.

    Rows are the chunks the per-chunk loop would stream: ``block.size -
    offset`` bytes cut into packets.  Step ``k`` of the stream runs at
    ``m[k]``: it quotes the disk read of row ``k+1`` (issue ``di[k+1]``,
    end ``d[k+1]``), then row ``k``'s egress and ingress (ends ``e[k]``,
    ``i[k]``); the chunk lands at ``x[k] = max(e[k], i[k]) + L`` and the
    next step runs at ``max(x[k], d[k+1])``.  Row 0's disk read is
    quoted at the stream's start ``t0``.
    """

    def __init__(
        self,
        deployment: "HdfsDeployment",
        source: "Datanode",
        client_node: "Node",
        serve: "ReadServe",
        block: "Block",
        offset: int = 0,
    ):
        self.deployment = deployment
        self.source = source
        self.client_node = client_node
        self.serve = serve
        self.block = block
        #: The train conducting this stream, from :meth:`start` until it
        #: settles.
        self.train: Optional["ReadTrain"] = None

        packet = deployment.config.hdfs.packet_size
        full, tail = divmod(block.size - offset, packet)
        self._sizes = [packet] * full + ([tail] if tail else [])
        #: Rows in the block, and rows to plan: fewer once a kill is
        #: recorded (the loop stops after the row it notices it at).
        self._K = self._Keff = len(self._sizes)

        #: Fires when the stream ends: with the block on success, with
        #: ``None`` where the per-chunk loop notices its source died.
        self.done: Event = deployment.env.event()
        #: Bytes whose transfer had completed when the stream ended —
        #: the whole remainder on success, the delivered prefix after a
        #: kill.
        self.delivered_bytes = 0
        #: The dead source's name after a kill, else ``None``.
        self.failed: Optional[str] = None

        # Timeline columns, index = row (see the class docstring).
        self._di: list[float] = []
        self._d: list[float] = []
        self._m: list[float] = []
        self._e: list[float] = []
        self._i: list[float] = []
        self._x: list[float] = []
        #: Plan serial of each step planned beside other streams; -1 for
        #: a step planned alone (see :meth:`ReadTrain._pending`).
        self._ser: list[int] = []
        self._join_ser = -1
        self._t0 = 0.0
        self._rate = 0.0
        self._disk_rate = source.node.disk.rate
        #: The train's join number, and the channel slots of the
        #: source's disk and egress (slot 0 is the reader's ingress).
        self._sid = 0
        self._ds = self._es = 0

    def start(self) -> None:
        """Join the reader host's train, starting one if none is live
        (call at the stream start)."""
        trains = self.deployment.read_trains
        train = trains.get(self.client_node)
        if train is None:
            train = trains[self.client_node] = ReadTrain(
                self.deployment, self.client_node
            )
        train._join(self)

    def _killed(self) -> None:
        self.train._on_kill(self)

    def _cut(self, T: float) -> None:
        """Drop the steps at or after ``T``: a step before ``T`` keeps
        every quote it made, and it made all of its row's quotes."""
        cut = bisect_left(self._m, T)
        for column in (self._m, self._e, self._i, self._x, self._ser):
            del column[cut:]
        cut = bisect_left(self._di, T)
        del self._di[cut:]
        del self._d[cut:]


class ReadTrain(TrainBase):
    """The coalesced reads into one reader host: every live stream, one plan.

    The per-chunk read loop is a three-channel recurrence per stream
    (source disk, source egress, reader ingress; see
    :class:`ReadStream`).  Streams into one host share its ingress, and
    streams from one source share its disk and egress, so the train
    plans every live stream as the per-chunk loops would run side by
    side: one busy float per channel, steps in time order, and steps at
    one instant in the order the loops' waking events were created —
    the order of the steps that created them, which the planner numbers
    as it goes.  A stream's first step, its join at ``t0``, quotes row
    0's disk read after every other step of that instant: the joining
    reader was woken by its connection-setup timer or its serve grant,
    created one connection setup or less before ``t0``, and a live
    stream's waking event was created a whole chunk earlier.

    A lone stream is planned in one pass to its end, row by row.  Beside
    others, the planner runs the steps off a heap until the next stream
    end or for :data:`PLAN_STEPS` steps, whichever comes first, and a
    ``plan`` milestone at the first step left goes on from there; so a
    join or another invalidation re-plans only a bounded stretch, and
    an ``end`` milestone settles its stream and goes on too.  A join at
    ``T`` is a frozen-prefix replay at ``T`` with the newcomer's join
    pending; so is a throttle change, a foreign quote and a kill.  A
    channel's ledger is the columns of the streams that use it, so a
    guard materialises, per stream, the quotes issued by now.

    A kill of a stream's source at ``T`` is noticed where the per-chunk
    loop notices it: at the landing ``x[k]`` of the first chunk still in
    flight, ``k = bisect_left(x, T)`` (the loop checks ``alive`` only
    between chunks, after delivering chunk ``k``, and an injector kill
    at exactly ``x[k]`` is an older event than that chunk's timer).  By
    then the loop has delivered rows ``0..k`` and issued the disk read of
    row ``k+1``, so the train drops the stream's later rows and settles
    it at ``x[k]``: counters for those rows, :attr:`ReadStream.done`
    with ``None``.  A kill during the last chunk fails nothing: the loop
    exits before it checks again.
    """

    conducted_metric = "read_trains_conducted"
    invalidation_metric = "read_train_invalidation_count"

    def __init__(self, deployment: "HdfsDeployment", client_node: "Node"):
        super().__init__(deployment, None)
        self.client_node = client_node
        ingress = client_node.nic.ingress
        self.channels = [ingress]
        self._busy = [ingress._busy_until]
        #: Channel id -> slot in ``channels`` and ``_busy``.
        self._slot = {id(ingress): 0}
        #: Live streams (joined, not yet settled), in join order.
        self._streams: list[ReadStream] = []
        self._joins = 0
        #: The lone live stream, planned in one pass; ``None`` while
        #: streams run beside each other off ``_heap``.
        self._alone: Optional[ReadStream] = None
        #: Pending steps ``(when, join, creator, sid, stream)``.
        self._heap: list = []
        self._serial = 0

    # -- joining and leaving ------------------------------------------------
    def _join(self, stream: ReadStream) -> None:
        stream.train = self
        stream._sid = self._joins
        self._joins += 1
        stream._t0 = self.env.now
        node = stream.source.node
        stream._ds = self._channel_slot(node.disk._channel)
        stream._es = self._channel_slot(node.nic.egress)
        stream._rate = self.network.effective_rate(node, self.client_node)
        stream.serve.on_kill = stream._killed
        self._streams.append(stream)
        if self._started:
            self._bump()  # the replay plans the join
        else:
            self._arm()

    def _channel_slot(self, channel) -> int:
        """The channel's slot, guarded by this train from now on."""
        key = id(channel)
        slot = self._slot.get(key)
        if slot is None:
            slot = self._slot[key] = len(self.channels)
            self.channels.append(channel)
            self._busy.append(channel._busy_until)
        if self._started and key not in self._guarded:
            channel._guard = self._make_guard(channel)
            self._guarded.add(key)
        return slot

    def _settle(self, stream: ReadStream) -> None:
        """The stream's last planned chunk landed: apply its counters,
        commit its quotes and fire ``done``.

        The per-chunk loop applies NIC bytes and the flow of each chunk
        it delivered and commits ``bytes_read`` at each disk read it
        issued; all of them are issued by now, so each channel's last
        quote is committed, and the source's channels are released when
        no other live stream uses them.
        """
        self._streams.remove(stream)
        rows, reads = len(stream._x), len(stream._d)
        sizes = stream._sizes
        src, dst = stream.source.node, self.client_node
        moved = sum(sizes[:rows])
        src.nic.bytes_sent += moved
        dst.nic.bytes_received += moved
        self.network.stats.record_run(
            src.name, dst.name, sizes, stream._m, stream._x, rows
        )
        src.disk.bytes_read += sum(sizes[:reads])
        channels = self.channels
        for slot, end in (
            (stream._ds, stream._d[-1]),
            (stream._es, stream._e[-1]),
            (0, stream._i[-1]),
        ):
            channel = channels[slot]
            if end > channel._busy_until:
                channel._busy_until = end
            if slot and all(
                slot not in (other._ds, other._es) for other in self._streams
            ):
                key = id(channel)
                if key in self._guarded:
                    channel._guard = None
                    self._guarded.discard(key)
        stream.delivered_bytes = moved
        stream.serve.on_kill = None
        stream.train = None
        if rows < stream._K:
            stream.failed = stream.source.name
        # The per-chunk loop wakes inside its last chunk's timer, which
        # is older than any event created at this landing (such as the
        # grant of a slot a kill at this instant frees); an urgent
        # ``done`` wakes the reader right after this step, as there.
        done = stream.done
        done._ok = True
        done._value = None if stream.failed else stream.block
        self.env.schedule(done, priority=URGENT)

    def _leave(self) -> None:
        """The last stream settled: the train is done."""
        self._finished = True
        self._milestones = []
        self._heap = []
        self._alone = None
        self._stop()
        self._detach()
        trains = self.deployment.read_trains
        if trains.get(self.client_node) is self:
            del trains[self.client_node]

    def _on_kill(self, stream: ReadStream) -> None:
        """The stream's source died at ``now``: record where the
        per-chunk loop notices it.

        Runs synchronously inside :meth:`Datanode.kill` (via
        :meth:`ReadServe.abort`), before the kill frees any serve slot.
        Every step at or before ``now`` is planned, so the first landing
        at or after ``now`` is row ``k = bisect_left(x, now)``, planned
        or the next one to be (a later replay may move ``x[k]`` but not
        ``k``).  The stream keeps rows ``0..k`` and row ``k+1``'s disk
        read, and the replay at ``now`` re-plans its neighbours without
        the rest.

        A kill at exactly a planned landing ``x[k]`` is noticed in this
        very instant.  The loop's timer for that landing was created at
        ``m[k]``: after the instant's older events, such as another kill,
        and before anything the kill schedules, such as the grant of a
        freed serve slot to a queued reader.  The replay runs in the
        wake the bump schedules here, before the kill frees any slot, and
        fires the stream's due milestone there.
        """
        stream.serve.on_kill = None  # the kill closes the serve: drop the cycle
        now = self.env.now
        self._ensure(now)
        k = bisect_left(stream._x, now)
        if k + 1 >= stream._Keff:
            return  # the last chunk is in flight: the loop completes
        stream._Keff = k + 1
        for column in (stream._m, stream._e, stream._i, stream._x, stream._ser):
            del column[k + 1 :]
        del stream._di[k + 2 :]
        del stream._d[k + 2 :]
        self._bump()

    # -- the conductor -----------------------------------------------------
    def _start(self, _event: Event) -> None:
        self._wake = None
        self._schedule()
        self._advance()
        self._rebuild_milestones()
        self._conduct()

    def _on_bumped(self, event: Event) -> None:
        """Replay in the bump's own wake, armed timer or not: that wake is
        older than anything created later in the instant (see
        :meth:`_on_kill`)."""
        self._on_wake(event)

    def _replay(self) -> None:
        """Frozen-prefix recompute at ``now`` with current rates/floors:
        every stream keeps its steps before ``now`` and re-plans the rest
        beside the others."""
        T = self.env.now
        self._ensure(T)
        for stream in self._streams:
            stream._cut(T)
        self._reset_plan()
        self._schedule()
        self._advance()
        self._rebuild_milestones()

    def _rebuild_milestones(self) -> None:
        """One ``end`` milestone per stream whose last step is planned, at
        its last landing, ordered among equal landings by the step that
        armed the per-chunk loop's timer; and a ``plan`` milestone at the
        first pending step, if any."""
        milestones = []
        for stream in self._streams:
            m = stream._m
            if len(m) == stream._Keff:
                ser = stream._ser
                last = ser[-1] if len(ser) == len(m) else -1
                milestones.append((stream._x[-1], last, "end", stream._sid))
        if self._heap:
            milestones.append((self._heap[0][0], INF, "plan", -1))
        milestones.sort()
        self._milestones = milestones

    def _fire(self, kind: str, sid: int) -> None:
        if kind == "end":
            self._settle(next(s for s in self._streams if s._sid == sid))
            if not self._streams:
                self._leave()
                return
            self._schedule()
        self._advance()
        self._rebuild_milestones()

    # -- timeline math -----------------------------------------------------
    def _snapshot_rates(self) -> None:
        rate = self.network.effective_rate
        client = self.client_node
        for stream in self._streams:
            stream._rate = rate(stream.source.node, client)

    def _reset_plan(self) -> None:
        """Re-read the rates and start each channel's busy float on its
        ``busy_until`` floor, raised to the last kept quote of every
        stream using it (ends are nondecreasing along a ledger)."""
        self._snapshot_rates()
        busy = self._busy = [channel._busy_until for channel in self.channels]
        for stream in self._streams:
            if stream._d and stream._d[-1] > busy[stream._ds]:
                busy[stream._ds] = stream._d[-1]
            if stream._m:
                if stream._e[-1] > busy[stream._es]:
                    busy[stream._es] = stream._e[-1]
                if stream._i[-1] > busy[0]:
                    busy[0] = stream._i[-1]

    def _materialize(self, channel) -> None:
        """Commit each stream's quotes on ``channel`` issued by now."""
        now = self.env.now
        self._ensure(now)
        slot = self._slot[id(channel)]
        end = channel._busy_until
        for stream in self._streams:
            if slot == 0:
                issues, ends = stream._m, stream._i
            elif slot == stream._ds:
                issues, ends = stream._di, stream._d
            elif slot == stream._es:
                issues, ends = stream._m, stream._e
            else:
                continue
            idx = bisect_right(issues, now)
            if idx and ends[idx - 1] > end:
                end = ends[idx - 1]
        channel._busy_until = end

    def _schedule(self) -> None:
        """Pick the planner for the live streams: a lone stream plans in
        one pass, several share the heap of pending steps."""
        streams = self._streams
        if len(streams) == 1:
            self._alone = streams[0]
            self._heap = []
            return
        self._alone = None
        heap = [entry for entry in map(self._pending, streams) if entry]
        heapify(heap)
        self._heap = heap

    @staticmethod
    def _pending(stream: ReadStream) -> Optional[tuple]:
        """The stream's next unplanned step as a heap entry, if any.

        Steps at one instant run in the order of their creators, the
        steps that armed the per-chunk loop's waking event; a step
        planned alone counts as older than any planned beside others
        (its stream was the only one live then).  A join pending at its
        own instant runs after every other step of that instant.
        """
        if not stream._d:
            return (stream._t0, 1, stream._sid, stream._sid, stream)
        k = len(stream._m)
        if k >= stream._Keff:
            return None
        ser = stream._ser
        if len(ser) < k:
            ser.extend([-1] * (k - len(ser)))
        if not k:
            return (stream._d[0], 0, stream._join_ser, stream._sid, stream)
        landed, read = stream._x[k - 1], stream._d[k]
        when = landed if landed > read else read
        return (when, 0, ser[k - 1], stream._sid, stream)

    def _advance(self) -> None:
        """Plan the lone stream to its end, or run the heap until the next
        stream end is planned along with every step at or before it."""
        if self._alone is not None:
            self._plan_alone(self._alone)
            return
        heap, step = self._heap, self._step
        horizon = INF
        for stream in self._streams:
            if len(stream._m) == stream._Keff and stream._x[-1] < horizon:
                horizon = stream._x[-1]
        budget = PLAN_STEPS
        while heap and heap[0][0] <= horizon and budget:
            budget -= 1
            end = step(heappop(heap))
            if end < horizon:
                horizon = end

    def _ensure(self, T: float) -> None:
        """Plan every pending step at or before ``T``."""
        heap, step = self._heap, self._step
        while heap and heap[0][0] <= T:
            step(heappop(heap))

    def _step(self, entry: tuple) -> float:
        """Run one pending step beside the other streams; return the
        stream's end if this was its last step, else ``INF``."""
        t, join, _creator, sid, stream = entry
        serial = self._serial
        self._serial = serial + 1
        busy = self._busy
        d = stream._d
        if join:
            stream._di.append(t)
            slot = stream._ds
            floor = busy[slot]
            read = busy[slot] = (
                (floor if floor > t else t) + stream._sizes[0] / stream._disk_rate
            )
            d.append(read)
            stream._join_ser = serial
            heappush(self._heap, (read, 0, serial, sid, stream))
            return INF
        m, sizes = stream._m, stream._sizes
        k = len(m)
        m.append(t)
        stream._ser.append(serial)
        if k + 1 < stream._K:
            stream._di.append(t)
            slot = stream._ds
            floor = busy[slot]
            read = busy[slot] = (
                (floor if floor > t else t) + sizes[k + 1] / stream._disk_rate
            )
            d.append(read)
        dt = sizes[k] / stream._rate
        slot = stream._es
        floor = busy[slot]
        egress = busy[slot] = (floor if floor > t else t) + dt
        floor = busy[0]
        ingress = busy[0] = (floor if floor > t else t) + dt
        stream._e.append(egress)
        stream._i.append(ingress)
        landed = (egress if egress > ingress else ingress) + self._L
        stream._x.append(landed)
        if k + 1 < stream._Keff:
            read = d[k + 1]
            heappush(
                self._heap,
                (landed if landed > read else read, 0, serial, sid, stream),
            )
            return INF
        return landed

    def _plan_alone(self, stream: ReadStream) -> None:
        """Plan a lone stream's remaining steps row by row, the per-chunk
        recurrence on its three busy floats."""
        K, L = stream._K, self._L
        sizes, rate, disk_rate = stream._sizes, stream._rate, stream._disk_rate
        di, d, m, e, i, x = (
            stream._di, stream._d, stream._m, stream._e, stream._i, stream._x
        )
        busy = self._busy
        ds, es = stream._ds, stream._es
        db, eb, ib = busy[ds], busy[es], busy[0]
        k0 = len(m)
        if not d:  # the join: row 0's disk read at the stream start
            t0 = stream._t0
            di.append(t0)
            db = (db if db > t0 else t0) + sizes[0] / disk_rate
            d.append(db)
        done = x[k0 - 1] if k0 else stream._t0
        for k in range(k0, stream._Keff):
            read = d[k]
            issue = done if done > read else read
            m.append(issue)
            if k + 1 < K:
                di.append(issue)
                db = (db if db > issue else issue) + sizes[k + 1] / disk_rate
                d.append(db)
            dt = sizes[k] / rate
            egress = eb = (eb if eb > issue else issue) + dt
            ingress = ib = (ib if ib > issue else issue) + dt
            e.append(egress)
            i.append(ingress)
            done = (egress if egress > ingress else ingress) + L
            x.append(done)
        busy[ds], busy[es], busy[0] = db, eb, ib

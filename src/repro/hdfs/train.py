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
guarding a needed channel, falling back to the per-packet path.
Scheduled faults are no reason to decline.  A throttle reaches the
train as a throttle-table change and replays it.  A datanode kill
mid-train settles the committed prefix and reconstructs the
client-visible recovery state per Algorithm 3.  A sibling pipeline's
failure *holds* a SMARTH train mid-block (Algorithm 4 line 1): the
train stops after the packet the per-packet loop would stop after,
keeps conducting the packets already sent, and plans the rest of the
block when the client resumes it (:meth:`PacketTrain.hold`,
:meth:`PacketTrain.resume`).

:class:`ReadTrain` applies the same machinery to the read path: the
steady-state chunk cascade of one block read — disk prefetch of chunk
``k+1`` overlapping the transfer of chunk ``k`` — is a three-channel FIFO
recurrence (source disk, source egress, reader ingress), so a whole block
collapses into one conductor with a single end milestone.  The guard /
ledger / frozen-prefix-replay machinery and the conductor are shared
through :class:`TrainBase`: both trains compute their full timeline up
front and only replay on invalidation.  A mid-train datanode kill
settles the strictly-delivered chunk prefix and reports the byte count
so the reader can resume from the next-ranked replica.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Optional

from ..sim import Environment, Event
from ..sim.environment import URGENT

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node
    from .client.responder import PacketResponder
    from .client.send import BlockProgress
    from .datanode import BlockReceiver, Datanode, ReadServe
    from .deployment import HdfsDeployment, PipelineHandle
    from .protocol import Block

__all__ = ["TrainBase", "PacketTrain", "ReadTrain", "plan_train", "plan_read_train"]


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
    """
    if deployment.config.hdfs.coalesce_packets == 1:
        return None
    if handle.error.triggered:
        return None
    receivers = handle.receivers
    if not receivers:
        return None
    hosts = [r.host for r in receivers]
    if len({client_node, *hosts}) != len(hosts) + 1:
        return None  # loopback or repeated target: shared NICs
    for receiver in receivers:
        if not receiver.datanode.node.alive:
            return None
        for other in receiver.datanode._active:
            if other is not receiver:
                return None  # foreign stream on a hop datanode
    train = PacketTrain(deployment, client_node, handle, responder, progress)
    for channel in train.channels:
        if channel._guard is not None:
            return None  # another train holds this channel's ledger
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
    rows ``k0..K-1`` (``_plan``), the replay (``_replay``) and their
    ``(when, order, kind, hop)`` milestones (``_rebuild_milestones``,
    ``_fire``); everything here is recurrence-agnostic.
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
) -> Optional["ReadTrain"]:
    """Return a ready-to-start read train, or ``None`` to decline.

    Mirrors :func:`plan_train`'s conservatism: any condition that could
    make the analytic chunk cascade diverge from the per-chunk loop — a
    scheduled disturbance, a resumed stream (non-zero ``offset``), a
    foreign write receiver or another read serve sharing the source
    datanode, another train guarding a needed channel — falls back to the
    legacy path.  A reader on the source's own host never gets here: it
    reads its local replica short-circuit.
    """
    if deployment.config.hdfs.coalesce_reads == 1:
        return None
    if offset:
        return None  # resumed (post-fault) streams stay per-chunk
    if deployment.scheduled_disturbances:
        # ReadTrain._on_kill settles at the kill instant; the per-chunk
        # loop notices a kill only after its in-flight chunk.
        return None
    if not source.node.alive:
        return None
    if source._active:
        return None  # foreign write stream on the source datanode
    for other in source._serving:
        if other is not serve:
            return None  # another reader streaming from this source
    train = ReadTrain(deployment, source, client_node, serve, block)
    for channel in train.channels:
        if channel._guard is not None:
            return None  # another train holds this channel's ledger
    return train


class ReadTrain(TrainBase):
    """One coalesced block read: analytic chunk cascade, one milestone.

    The per-chunk read loop is a three-channel recurrence: with ``m_k``
    the instant the reader's disk wait for chunk ``k`` resolves,

    * disk prefetch of chunk ``k+1`` is quoted at ``m_k`` (chunk 0 at the
      stream start ``t0``),
    * chunk ``k``'s transfer quotes source egress + reader ingress at
      ``m_k`` and completes at ``x_k = max(e_k, i_k) + L``,
    * ``m_{k+1} = max(x_k, d_{k+1})``.

    The stream ends at ``x_{K-1}``; :attr:`done` fires there after the
    settle batch-applies disk/NIC counters and flows.  A datanode
    kill mid-train settles the strictly-delivered prefix and records
    :attr:`delivered_bytes` so the reader resumes from the next replica.
    """

    conducted_metric = "read_trains_conducted"
    invalidation_metric = "read_train_invalidation_count"

    def __init__(
        self,
        deployment: "HdfsDeployment",
        source: "Datanode",
        client_node: "Node",
        serve: "ReadServe",
        block: "Block",
    ):
        super().__init__(deployment, block)
        self.source = source
        self.client_node = client_node
        self.serve = serve

        packet = deployment.config.hdfs.packet_size
        full, tail = divmod(block.size, packet)
        self._sizes = [packet] * full + ([tail] if tail else [])
        self._K = len(self._sizes)
        self._total_bytes = block.size

        self.disk = source.node.disk
        self._disk_ch = self.disk._channel
        self._egress = source.node.nic.egress
        self._ingress = client_node.nic.ingress
        self.channels = [self._disk_ch, self._egress, self._ingress]
        assert len(set(map(id, self.channels))) == 3

        #: Fires when the stream ends: with the block on success, with
        #: ``None`` after a mid-train kill.
        self.done: Event = self.env.event()
        #: Bytes whose transfer had completed when the stream ended —
        #: the whole block on success, the delivered prefix after a kill.
        self.delivered_bytes = 0
        #: The dead source's name after a mid-train kill, else ``None``.
        self.failed: Optional[str] = None

        self._rate = 0.0
        # Timeline arrays, index = chunk.  _di/_d: disk quote issue/end;
        # _m: disk-wait resolution (= transfer issue); _e/_i: egress and
        # ingress ends; _x: transfer completion (incl. link latency).
        self._di: list[float] = []
        self._d: list[float] = []
        self._m: list[float] = []
        self._e: list[float] = []
        self._i: list[float] = []
        self._x: list[float] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Arm the train and schedule its conductor's start (call at the
        stream start)."""
        self.serve.on_kill = self._on_kill
        self._arm()

    # -- timeline math -----------------------------------------------------
    def _snapshot_rates(self) -> None:
        self._rate = self.network.effective_rate(
            self.source.node, self.client_node
        )

    def _ledger_columns(self) -> list:
        """Disk ``(di, d)``, egress ``(m, e)`` and ingress ``(m, i)``."""
        return [(self._di, self._d), (self._m, self._e), (self._m, self._i)]

    def _plan(self, k0: int, old: Optional[tuple] = None, T: float = 0.0) -> None:
        """Plan chunks ``k0..K-1`` row by row from the recurrence.

        In a replay ``old`` holds the previous ``(di, d)`` columns: a disk
        prefetch issued before ``T`` keeps its old end.  Rows from ``k0``
        on have their transfers issued at or after ``T`` (see
        :meth:`_replay`), so only the disk can still hold a frozen quote.
        """
        K, L, t0 = self._K, self._L, self._t0
        sizes, rate, disk_rate = self._sizes, self._rate, self.disk.rate
        di, d, m, e, i, x = self._di, self._d, self._m, self._e, self._i, self._x
        old_di, old_d = old or ((), ())
        frozen_d = bisect_left(old_di, T)
        db, eb, ib = self._busy
        # Disk prefetch: chunk 0 is quoted at the stream start, chunk k at
        # the previous row's disk-wait resolution (the legacy loop quotes
        # the next read the instant the previous wait resolves).
        issue = m[k0 - 1] if k0 else t0
        done = x[k0 - 1] if k0 else t0
        for k in range(k0, K):
            size = sizes[k]
            di.append(issue)
            if k < frozen_d:
                read = old_d[k]
                if read > db:
                    db = read
            else:
                read = db = (db if db > issue else issue) + size / disk_rate
            d.append(read)
            issue = done if done > read else read
            m.append(issue)
            dt = size / rate
            egress = eb = (eb if eb > issue else issue) + dt
            ingress = ib = (ib if ib > issue else issue) + dt
            e.append(egress)
            i.append(ingress)
            done = (egress if egress > ingress else ingress) + L
            x.append(done)
        self._busy = [db, eb, ib]

    def _replay(self) -> None:
        """Frozen-prefix recompute at ``now`` with current rates/floors.

        A chunk whose transfer issue ``m[k]`` -- the row's last issue --
        lies before ``now`` keeps all three quotes, so that row prefix is
        copied and planning resumes after it.
        """
        T = self.env.now
        old = (self._di, self._d)
        cutoff = bisect_left(self._m, T)
        self._di, self._d, self._m, self._e, self._i, self._x = (
            column[:cutoff]
            for column in (self._di, self._d, self._m, self._e, self._i, self._x)
        )
        self._reset_plan()
        self._plan(cutoff, old, T)
        self._rebuild_milestones()

    # -- the milestone -----------------------------------------------------
    def _rebuild_milestones(self) -> None:
        if "end" in self._fired or not self._x:
            self._milestones = []
        else:
            self._milestones = [(self._x[-1], 0, "end", 0)]

    def _fire(self, kind: str, h: int) -> None:
        self._fired.add(kind)
        self._settle_success()

    # -- settles -----------------------------------------------------------
    def _record_flows(self, rows: int) -> None:
        self.network.stats.record_run(
            self.source.node.name,
            self.client_node.name,
            self._sizes,
            self._m,
            self._x,
            rows,
        )

    def _settle_success(self) -> None:
        self._finished = True
        src, dst = self.source.node, self.client_node
        src.nic.bytes_sent += self._total_bytes
        dst.nic.bytes_received += self._total_bytes
        self._record_flows(self._K)
        # Legacy commits bytes_read at each read_event issue; on success
        # every chunk was issued.
        self.disk.bytes_read += self._total_bytes
        self.delivered_bytes = self._total_bytes
        for channel in self.channels:
            issues, ends = self._ledger[id(channel)]
            if ends and ends[-1] > channel._busy_until:
                channel._busy_until = ends[-1]
        self._detach()
        self.serve.on_kill = None
        if not self.done.triggered:
            self.done.succeed(self.block)

    def _on_kill(self) -> None:
        """Source died mid-train: settle the strictly-delivered prefix.

        Runs synchronously inside :meth:`Datanode.kill` (via
        :meth:`ReadServe.abort`, which has already released the serve
        slot).  Chunks whose transfer completed strictly before now were
        delivered; the reader resumes from :attr:`delivered_bytes` on the
        next-ranked replica.
        """
        if self._finished or self._dead:
            return
        self._dead = True
        self._stop()
        self.serve.on_kill = None  # the serve is closed: drop the cycle
        now = self.env.now
        delivered = sum(1 for x in self._x if x < now)
        issued_reads = sum(1 for di in self._di if di < now)
        moved = sum(self._sizes[:delivered])
        if moved:
            src, dst = self.source.node, self.client_node
            src.nic.bytes_sent += moved
            dst.nic.bytes_received += moved
            self._record_flows(delivered)
        self.disk.bytes_read += sum(self._sizes[:issued_reads])
        self.delivered_bytes = moved
        self.failed = self.source.name
        for channel in self.channels:
            if id(channel) in self._guarded:
                self._materialize(channel)
        self._detach()
        if not self.done.triggered:
            self.done.succeed(None)

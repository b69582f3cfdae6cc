"""Analytic train coalescing for the write and read hot loops.

In steady state the per-packet event cascade of a block write — buffer
token, transfer, inbox hand-off, disk write, forward, ACK relay hop — is
fully determined by the channel FIFO recurrences (every store interaction
resolves synchronously and every wait is a :meth:`Channel.quote`).  A
:class:`PacketTrain` exploits that: one *conductor* process per pipeline
computes the whole block's timeline analytically from the same quote
math, performs only the externally-observable actions in real time, and
turns O(packets × hops) heap events into a handful of per-block
milestones.

The conductor stays honest three ways:

* **Analytic production.**  Packet ``k`` is taken off the data queue at
  ``g_k = max(issue_k, r_k)``: the legacy issue time (the completion of
  packet ``k-1``'s first-hop send; the train's start for packet 0), or
  the instant production puts the packet into the queue
  (:class:`~repro.hdfs.client.output_stream.Production`), whichever is
  later.  The takes feed back into production's queue bound, so the
  whole block is planned at start.
* **Channel guards.**  Train occupancy is held as a per-channel ledger of
  ``(issue, end)`` quotes rather than a committed ``busy_until``.  The
  instant a *foreign* caller quotes a guarded channel, the guard
  materialises the ledger prefix with ``issue <= now`` (those quotes are
  immutable, exactly like legacy in-flight packets) so the foreign
  transfer chains behind it, then wakes the conductor to re-plan.
* **Frozen-prefix replay.**  On any invalidation (throttle-table change,
  foreign quote) the plan is recomputed at the interruption time ``T``:
  operations whose issue time is ``< T`` keep their quotes verbatim,
  everything later is re-quoted with the current effective rates and the
  channels' real ``busy_until`` as floors.  Causality guarantees replayed
  issue times never move before ``T``, so the split is well defined.

Observable history is preserved bit-for-bit: the journal's
``block_stored`` / FNFA / ``blockReceived`` activity is produced by
spawning the *real* :meth:`BlockReceiver._local_finalize` at the
analytically-computed last-write time, receiver closes and the responder's
``block_done`` fire at the legacy timestamps, and NIC/disk/flow counters
are batch-applied at settle (nothing observes them mid-block).  The
receivers' and the responder's per-packet loops never start under a
train: they start with the first packet sent one by one.

The clients plan a train only for a block nothing was taken for, and
:func:`repro.hdfs.client.send.send_block` runs it.  The planner only
accepts *pristine* windows — no scheduled kills, no co-resident foreign
receivers, no other train guarding a needed channel — and otherwise
declines, falling back to the per-packet path.  A scheduled throttle is
no disturbance: it reaches the train as a throttle-table change and
replays it.  Datanode kills mid-train (only reachable through direct,
unscheduled ``kill()`` calls) settle the committed prefix and
reconstruct the client-visible recovery state per Algorithm 3.

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

from ..net.stats import FlowSample
from ..sim import Environment, Event, ProcessGenerator, race

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
    make the analytic timeline diverge from the per-packet one — a
    scheduled kill, loopback, a foreign receiver sharing a hop datanode,
    another train already guarding a needed channel — falls back to the
    legacy path.
    """
    if deployment.config.hdfs.coalesce_packets == 1:
        return None
    if deployment.scheduled_disturbances:
        # A scheduled kill (or its aftermath: recovery and
        # re-replication traffic) makes the window non-pristine.
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
    committing quotes to ``busy_until`` as it plans, it keeps a
    per-channel ledger of ``(issue, end)`` pairs and installs a guard on
    each channel.  A foreign quote materialises exactly the ledger prefix
    legacy would already have committed, then wakes the conductor (the
    ``_flag``) to replay the remainder with frozen-prefix semantics.
    Subclasses provide the rates (``_snapshot_rates``), the timeline
    recurrences (``_extend``, ``_replay``) and their ``(when, order, kind,
    hop)`` milestones (``_rebuild_milestones``, ``_fire``); everything
    here is recurrence-agnostic.
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
        #: Per channel: parallel (issues, ends) lists in FIFO order.
        self._ledger: dict = {}
        self._chan_busy: dict = {}
        self._flag: Event = self.env.event()
        self._guarded: set = set()  # channel ids still holding our guard
        self._fired: set = set()
        self._milestones: list = []
        self._started = False
        self._dead = False
        self._finished = False
        #: Rows of the timeline (packets or chunks), set by subclasses.
        self._K = 0
        self._t0 = 0.0  # the train's start
        self._old: Optional[tuple] = None  # previous arrays during replay
        self._freeze_before = 0.0

    # -- lifecycle ---------------------------------------------------------
    def _arm(self, name: str) -> None:
        """Arm the guards, subscribe to throttle changes, snapshot the
        rates and the ledger, and spawn the conductor."""
        assert not self._started
        self._started = True
        self._t0 = self.env.now
        for channel in self.channels:
            channel._guard = self._make_guard(channel)
            self._guarded.add(id(channel))
        self.network.throttles.subscribe(self._on_throttle)
        self._reset_plan()
        self.deployment.metrics.count(self.conducted_metric)
        self.env.process(self._conduct(), name=name)

    def _conduct(self) -> ProcessGenerator:
        """Plan rows ``0..K-1``, then walk the milestones in time order,
        replaying on invalidation."""
        env = self.env
        if self._dead:
            return  # settled before it could plan anything
        for k in range(self._K):
            self._extend(k)
        self._rebuild_milestones()
        while self._milestones:
            self._maybe_replay()
            if self._dead:
                return
            when, _order, kind, h = self._milestones[0]
            if env.now < when:
                timer = env.timeout_at(when)
                yield race(env, timer, self._flag)
                # Invalidation may have won the race; the superseded
                # timer would otherwise sit in the heap until its time.
                timer.cancel()
                if self._dead:
                    return
                continue
            self._milestones.pop(0)
            self._fire(kind, h)
        self._finished = True

    # -- invalidation hooks ------------------------------------------------
    def _make_guard(self, channel):
        def guard() -> None:
            self._materialize(channel)
            self._bump()

        return guard

    def _on_throttle(self, _table) -> None:
        self._bump()

    def _bump(self) -> None:
        if not self._flag.triggered:
            self._flag.succeed()

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
        """Re-read the rates and start empty ledgers on the channels'
        current ``busy_until`` floors."""
        self._snapshot_rates()
        self._chan_busy = {id(ch): ch._busy_until for ch in self.channels}
        self._ledger = {id(ch): ([], []) for ch in self.channels}

    def _quote(self, channel, issue: float, size: int, rate: float) -> float:
        """The :meth:`Channel.quote` recurrence against the train ledger."""
        key = id(channel)
        busy = self._chan_busy[key]
        start = busy if busy > issue else issue
        end = start + size / rate
        self._chan_busy[key] = end
        issues, ends = self._ledger[key]
        issues.append(issue)
        ends.append(end)
        return end

    def _keep(self, channel, issue: float, end: float) -> float:
        """Carry a frozen (pre-invalidation) quote through a replay."""
        key = id(channel)
        if end > self._chan_busy[key]:
            self._chan_busy[key] = end
        issues, ends = self._ledger[key]
        issues.append(issue)
        ends.append(end)
        return end

    def _seed_ledger(self, channel, issues: list, ends: list) -> None:
        """Install a copied frozen prefix as a channel's replay ledger."""
        key = id(channel)
        self._ledger[key] = (issues[:], ends[:])
        if ends and ends[-1] > self._chan_busy[key]:
            self._chan_busy[key] = ends[-1]

    def _maybe_replay(self) -> None:
        if self._flag.triggered:
            self._flag = self.env.event()
            self.deployment.metrics.count(self.invalidation_metric)
            self._replay()


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
        self._K = plan.n_packets
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
        seen: dict = {}
        for channel in (*self._egress, *self._ingress, *self._disk_ch):
            seen.setdefault(id(channel), channel)
        self.channels = list(seen.values())

        #: Fires at the last packet's first-hop arrival (legacy "all
        #: packets sent" point — ``send_block`` resumes here).  The block
        #: is done when the train settles the responder's ``block_done``.
        self.sent: Event = self.env.event()
        #: Packets whose first-hop delivery completed (legacy's per-packet
        #: send loop would have recorded these as sent) — the whole block
        #: on success, the arrived prefix after an error settle.
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
        """Arm the train and spawn its conductor.

        The receivers' per-packet loops never start: only a send starts
        them (:meth:`BlockReceiver.start`), and the train performs their
        externally observable actions — finalize, FNFA, blockReceived,
        close — at the analytically identical times.  The receivers ask
        the train for their buffer occupancy (:meth:`buffered`).
        """
        # Settle synchronously inside the error event's callback chain so
        # the client (subscribed after us) resumes against settled state.
        assert self.handle.error.callbacks is not None
        self.handle.error.callbacks.append(self._on_error)
        for receiver in self.receivers:
            receiver.train = self
        self._arm(f"train:b{self.block.block_id}")

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

    def _take(self, k: int) -> None:
        """Take packet ``k`` off the data queue, analytically.

        The take is issued when packet ``k-1`` lands at the first hop
        (packet 0's at the train's start) and resolves once production
        has put the packet into the queue.
        """
        issue = self._t0 if k == 0 else self._a[0][k - 1]
        ready = self._production.ready(self._first + k)
        take = issue if issue > ready else ready
        self._production.take_at(self._first + k, take)
        self._g.append(take)

    def _extend(self, k: int) -> None:
        """Compute packet ``k``'s full multi-hop row from the recurrences.

        Mirrors, hop by hop, what the per-packet processes do: first-hop
        issue gated by the take and hop-0 buffer tokens, transfer quotes
        on egress+ingress, the analytic disk write at arrival,
        store-and-forward into the next hop gated by its tokens, and the
        write-and-downstream-gated ACK relay walking back to the client.
        """
        if k == len(self._g):
            self._take(k)
        size = self._sizes[k]
        H = self._n_hops
        old = self._old
        frozen_T = self._freeze_before

        for h in range(H):
            if h == 0:
                base = self._g[k]
            else:
                # Forwarder of hop h-1: ready after its previous forward
                # landed, and the packet must have arrived at hop h-1.
                base = self._a[h - 1][k]
                if k > 0 and self._a[h][k - 1] > base:
                    base = self._a[h][k - 1]
            cap = self._caps[h]
            if k >= cap and self._rel[h][k - cap] > base:
                base = self._rel[h][k - cap]  # §IV-C buffer backpressure
            self._p[h].append(base)
            if old is not None and old[0][h][k] < frozen_T:
                ee = self._keep(self._egress[h], old[0][h][k], old[1][h][k])
                ie = self._keep(self._ingress[h], old[0][h][k], old[2][h][k])
            else:
                rate = self._rates[h]
                ee = self._quote(self._egress[h], base, size, rate)
                ie = self._quote(self._ingress[h], base, size, rate)
            self._ee[h].append(ee)
            self._ie[h].append(ie)
            arrival = (ee if ee > ie else ie) + self._L
            self._a[h].append(arrival)
            if h > 0:
                self._rel[h - 1].append(arrival)  # token freed on forward
            if old is not None and old[3][h][k] < frozen_T:
                w = self._keep(self._disk_ch[h], old[3][h][k], old[4][h][k])
            else:
                w = self._quote(
                    self._disk_ch[h], arrival, size, self._disk_rate[h]
                )
            self._w[h].append(w)

        for h in range(H - 1, -1, -1):
            ready = self._u[h][k - 1] if k > 0 else 0.0
            if self._a[h][k] > ready:
                ready = self._a[h][k]
            if self._w[h][k] > ready:
                ready = self._w[h][k]
            if h == H - 1:
                self._rel[h].append(ready)  # tail frees its token pre-ACK
            else:
                if self._u[h + 1][k] > ready:
                    ready = self._u[h + 1][k]
            self._u[h].append(ready + self._C)

    def _replay(self) -> None:
        """Frozen-prefix recompute at ``now`` with current rates/floors.

        Takes issued before ``now`` stand: row ``k``'s take is issued at
        ``a[0][k-1]``, so those are the first ``bisect_left(a0, now) + 1``
        rows.  Later rows are taken again against the replayed plan, and
        production forgets their old takes first.  That happens only
        before ``sent``, so the next block's takes are never touched.
        """
        H = self._n_hops
        K = self._K
        frozen_T = self._freeze_before = self.env.now
        kept = bisect_left(self._a[0], frozen_T) + 1
        if kept < K:
            del self._g[kept:]
            self._production.rewind(self._first + kept)
        # _old layout: [0]=issues(p), [1]=egress ends, [2]=ingress ends,
        # [3]=disk issues(a), [4]=disk ends(w) — see _extend's frozen path.
        self._old = (self._p, self._ee, self._ie, self._a, self._w)
        old_u, old_rel = self._u, self._rel
        self._p = [[] for _ in range(H)]
        self._ee = [[] for _ in range(H)]
        self._ie = [[] for _ in range(H)]
        self._a = [[] for _ in range(H)]
        self._w = [[] for _ in range(H)]
        self._u = [[] for _ in range(H)]
        self._rel = [[] for _ in range(H)]
        self._reset_plan()

        # A row whose *last* quote issue — the tail hop's disk issue
        # ``a[H-1][k]``, the maximum issue in the row — is already frozen
        # takes the ``_keep`` branch for every quote, so its replayed
        # values are verbatim copies.  Find that fully-frozen row prefix
        # with one bisection over the monotone arrival column and copy it
        # wholesale (timeline rows, per-channel ledgers, busy floors)
        # instead of re-walking it quote by quote.  Requires role-unique
        # channels (guaranteed by the planner's host checks; verified
        # cheaply here) so each ledger maps to exactly one column pair.
        # Bit-identical by construction: copies of frozen values.
        cutoff = 0
        if len(self.channels) == 3 * H:
            cutoff = bisect_left(self._old[3][H - 1], frozen_T)
            if cutoff:
                for h in range(H):
                    self._p[h] = self._old[0][h][:cutoff]
                    self._ee[h] = self._old[1][h][:cutoff]
                    self._ie[h] = self._old[2][h][:cutoff]
                    self._a[h] = self._old[3][h][:cutoff]
                    self._w[h] = self._old[4][h][:cutoff]
                    self._u[h] = old_u[h][:cutoff]
                    self._rel[h] = old_rel[h][:cutoff]
                for h in range(H):
                    self._seed_ledger(self._egress[h], self._p[h], self._ee[h])
                    self._seed_ledger(self._ingress[h], self._p[h], self._ie[h])
                    self._seed_ledger(self._disk_ch[h], self._a[h], self._w[h])

        for k in range(cutoff, K):
            self._extend(k)
        self._old = None
        self._rebuild_milestones()

    # -- milestones --------------------------------------------------------
    def _rebuild_milestones(self) -> None:
        last = self._K - 1
        milestones = []
        if "sent" not in self._fired:
            milestones.append((self._a[0][last], 0, "sent", 0))
        for h in range(self._n_hops):
            if ("fin", h) not in self._fired:
                milestones.append((self._w[h][last], 1, "fin", h))
            if ("acks", h) not in self._fired:
                milestones.append((self._u[h][last], 2, "acks", h))
        milestones.sort()
        self._milestones = milestones

    def _fire(self, kind: str, h: int) -> None:
        self._fired.add(kind if kind == "sent" else (kind, h))
        self._release_finished_channels()
        receiver = self.receivers[h]
        if kind == "sent":
            self.sent_count = self._K
            self.progress.taken = self._K
            if not self.sent.triggered:
                self.sent.succeed()
        elif kind == "fin":
            # All packets arrived and the last disk write just landed:
            # run the *real* finalizer (journal, FNFA, blockReceived) so
            # its observable timeline and abort semantics are inherited.
            receiver._bytes_received = self._total_bytes
            done_write = Event(self.env)
            done_write._ok = True
            done_write._value = None
            done_write.callbacks = None  # already processed
            proc = self.env.process(
                receiver._local_finalize(done_write),
                name=f"fin:{receiver.name}:b{self.block.block_id}",
            )
            receiver._procs.append(proc)
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
        completed (legacy applies bytes and the FlowSample at transfer
        end); ``disk_rows[h]`` counts committed disk writes (legacy
        commits ``bytes_written`` at issue).
        """
        stats = self.network.stats
        for h, (src, dst) in enumerate(self._links):
            done = sent_rows[h]
            if not done:
                continue
            moved = sum(self._sizes[:done])
            src.nic.bytes_sent += moved
            dst.nic.bytes_received += moved
            src_name, dst_name = src.name, dst.name
            p_row, a_row = self._p[h], self._a[h]
            for k in range(done):
                stats.record(
                    FlowSample(
                        src=src_name,
                        dst=dst_name,
                        size=self._sizes[k],
                        start=p_row[k],
                        end=a_row[k],
                    )
                )
        for h, receiver in enumerate(self.receivers):
            if disk_rows[h]:
                receiver.host.disk.bytes_written += sum(
                    self._sizes[: disk_rows[h]]
                )

    def _apply_max_buffered(self, upto_rows: Optional[list[int]] = None) -> None:
        """Analytic §IV-C high-water mark: occupancy at each token grant."""
        for h, receiver in enumerate(self.receivers):
            cap = self._caps[h]
            rel = self._rel[h]
            rows = len(self._p[h]) if upto_rows is None else upto_rows[h]
            high = receiver.max_buffered
            for k in range(rows):
                occ = k + 1 - bisect_left(rel, self._p[h][k])
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
        self.sent_count = self._K
        responder = self.responder
        responder.ack_queue.clear()
        responder.acked_count += self._K
        responder.acked_bytes += self._total_bytes
        if not responder.block_done.triggered:
            responder.block_done.succeed(self.block)

    def _on_error(self, event: Event) -> None:
        """Pipeline error mid-train: settle the committed prefix.

        Runs synchronously inside the error event's callback chain, before
        the client's race resumes, so every counter and the responder's
        recovery state are already consistent when Algorithm 3 starts.
        """
        if self._finished or self._dead:
            return
        self._dead = True
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
        self._bump()  # wake the conductor so it can exit promptly


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
    settle batch-applies disk/NIC counters and FlowSamples.  A datanode
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
        seen: dict = {}
        for channel in (self._disk_ch, self._egress, self._ingress):
            seen.setdefault(id(channel), channel)
        self.channels = list(seen.values())

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
        """Arm the train and spawn its conductor (call at the stream start)."""
        self.serve.on_kill = self._on_kill
        self._arm(f"readtrain:b{self.block.block_id}")

    # -- timeline math -----------------------------------------------------
    def _snapshot_rates(self) -> None:
        self._rate = self.network.effective_rate(
            self.source.node, self.client_node
        )

    def _extend(self, k: int) -> None:
        """Compute chunk ``k``'s row from the three-channel recurrence."""
        size = self._sizes[k]
        old = self._old
        frozen_T = self._freeze_before

        # Disk prefetch: chunk 0 is quoted at the stream start, chunk k at
        # the previous row's disk-wait resolution (the legacy loop quotes
        # the next read the instant the previous wait resolves).
        di = self._t0 if k == 0 else self._m[k - 1]
        self._di.append(di)
        if old is not None and old[0][k] < frozen_T:
            d = self._keep(self._disk_ch, old[0][k], old[1][k])
        else:
            d = self._quote(self._disk_ch, di, size, self.disk.rate)
        self._d.append(d)

        prev = self._t0 if k == 0 else self._x[k - 1]
        m = prev if prev > d else d
        self._m.append(m)

        if old is not None and old[2][k] < frozen_T:
            e = self._keep(self._egress, old[2][k], old[3][k])
            i = self._keep(self._ingress, old[2][k], old[4][k])
        else:
            e = self._quote(self._egress, m, size, self._rate)
            i = self._quote(self._ingress, m, size, self._rate)
        self._e.append(e)
        self._i.append(i)
        self._x.append((e if e > i else i) + self._L)

    def _replay(self) -> None:
        """Frozen-prefix recompute at ``now`` with current rates/floors."""
        # _old layout: [0]=disk issues, [1]=disk ends, [2]=transfer
        # issues, [3]=egress ends, [4]=ingress ends — see _extend.
        self._old = (self._di, self._d, self._m, self._e, self._i)
        self._freeze_before = self.env.now
        self._di, self._d, self._m = [], [], []
        self._e, self._i, self._x = [], [], []
        self._reset_plan()
        for k in range(self._K):
            self._extend(k)
        self._old = None
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
        stats = self.network.stats
        src_name = self.source.node.name
        dst_name = self.client_node.name
        for k in range(rows):
            stats.record(
                FlowSample(
                    src=src_name,
                    dst=dst_name,
                    size=self._sizes[k],
                    start=self._m[k],
                    end=self._x[k],
                )
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
        self._bump()  # wake the conductor so it can exit promptly
        if not self.done.triggered:
            self.done.succeed(None)

"""Reference oracles for the train planners.

The packet train once planned one row at a time.  ``_extend(k)`` computed
row ``k`` in full, posting every quote through ``_quote`` (the
:meth:`~repro.sim.Channel.quote` recurrence on a per-channel busy dict)
into per-channel ledger lists kept beside the timeline columns; a replay
carried each frozen quote through ``_keep`` and installed a copied, fully
frozen prefix with ``_seed_ledger``.  Those methods are kept here
verbatim, and :class:`RowWisePacketTrain` plugs them into the production
train's conductor, milestones and settles, so only the planner differs.
:class:`RowWiseReadTrain` plans a lone read stream on the heap that
streams beside each other run on, one row per step, instead of the
one-pass path.  ``test_train_planner.py`` drives each pair on the same
inputs and requires equal columns, ledgers, busy floors and production
takes.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify
from typing import Optional
from unittest import mock

from repro.hdfs import train as train_module
from repro.hdfs.train import PacketTrain, ReadTrain


class RowWise:
    """The row-wise ledger math of the packet-train reference."""

    _old: Optional[tuple] = None  # previous arrays during replay
    _freeze_before = 0.0

    def _plan(self, k0: int, old: Optional[tuple] = None, T: float = 0.0) -> None:
        """The conductor's first plan: rows ``0..K-1``, one at a time."""
        for k in range(k0, self._K):
            self._extend(k)

    def busy_floors(self) -> list[float]:
        """The busy dict in ``channels`` order."""
        return [self._chan_busy[id(ch)] for ch in self.channels]

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


class RowWisePacketTrain(RowWise, PacketTrain):
    """A packet train planned row by row."""

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


class RowWiseReadTrain(ReadTrain):
    """A read train that plans even a lone stream one step at a time.

    The production train plans a lone stream in one pass
    (:meth:`ReadTrain._plan_alone`) and only streams beside others off
    its heap of pending steps.  This reference puts every stream on the
    heap, one row per step, and plans it to its end (no ``plan``
    milestones), so on a one-stream read the two planners must agree on
    every plan.
    """

    def _schedule(self) -> None:
        self._alone = None
        self._heap = [e for e in map(self._pending, self._streams) if e]
        heapify(self._heap)

    def _advance(self) -> None:
        with mock.patch.object(train_module, "PLAN_STEPS", 1 << 30):
            super()._advance()

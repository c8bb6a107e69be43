"""Proactive synchronous insurance overlay on the GMD abcast.

Every broadcast carries a per-sender sequence number, and every ack is
a seen-vector, the per-sender contiguous sequence watermarks of what the
acker holds, stamped from the acker's hybrid clock after it admitted
everything the vector covers.  Acks are never forwarded, so the acker is
the sender of the link it came over.  The GMD core delivers on each
member's newest vector alone (see ``gmd`` for why that suffices), and
receivers use the same vectors, and the seqs of arriving copies, to
detect gaps, which block both delivery paths until filled.  Links are
FIFO, so a gap that the sender's own link shows (a copy straight from
the sender with a higher seq, or the sender's own vector) is lost, and
its retransmission is requested at once.  A gap known only from a third
party's vector or from a relayed copy may be a copy still in flight: its
request waits one arrival window, the node's one-way delay estimate,
goes out at once if proof comes first, and is dropped if the copy lands.
Each hole is one entry in ``holes``, its request count.  In GMD_ONLY
mode that is all: one copy, no relay, no deadline.

An ack also carries its version ``v``, the acker's ack count, and
``changed``, the entries that moved since its previous ack (the
differential vector clocks of Singhal and Kshemkalyani, IPL 1992).  A
receiver that got version v - 1 scans only those for gaps; after a lost
ack it scans the whole vector and traces it as ``ACK_FULL``.  An ack can
make the head deliverable only through its coverage (a new hole only
blocks), and a copy already held changes nothing that delivery reads, so
either runs the delivery loop only when the GMD core reports the head
covered or the head is past its deadline.

In the hybrid modes every broadcast goes out as two redundant copies
separated by eta, and a receiver that saw only one copy re-broadcasts
both copies on behalf of the (presumably crashed) sender after a
timeout staggered by rank, the number of members below the receiver
other than the sender.  The timeout is measured from the broadcast:
copy 2 leaves at ts + eta and may take the sender's d_i, so a receiver
of copy 1 relays at ts + d_i + eta + (rank+1)*theta on its own clock
(at most d_i later than eta + (rank+1)*theta after the arrival, whatever
the clock skew); a copy 2 that arrives first, because copy 1 was lost,
starts the timeout at its arrival.  A pending message is delivered
either by the GMD all-ack rule or once the local clock passes its
timestamp plus the pessimistic bound, whichever happens first; the
deadline path is postponed while a known gap could still hide an
earlier-timestamped message.  Only the head of the delivery order can
be delivered, so a node arms one deadline timer, for the head's
deadline.  In HYBRID_ON_SUSPICION the heartbeat is the node's
seen-vector, freshly stamped, so a lost ack is replaced within one
heartbeat interval, and the same tick checks every peer for silence.

A node's timers, by key:

- ``("copy2", mid)``: send copy 2 of ``mid``, eta after copy 1, as its
  sender or as relayer;
- ``("second", mid)``: copy 2 of another member's ``mid`` is overdue, so
  relay both copies;
- ``("deadline",)``: the head's deadline;
- ``("retx", sender, seq)``: a hole's request waits out its window, or,
  theta after a request, goes again to the next member in turn;
- ``("hb",)``: HYBRID_ON_SUSPICION's heartbeat tick.

Per message a node keeps one record, its ``store`` entry: the first
copy to arrive (the ``InsuranceMessage`` itself, shared by every
receiver), or its own broadcast.  While the message is undelivered, the
GMD core also holds its timestamp in ``gmd.pending``.  Every copy is
screened here before the core sees it, so the core admits each message
once.  Stability GC (Birman, Schiper and Stephenson, TOCS 1991) drops
the ``store`` entry once the node has delivered the message, its seq is
below the sender's contiguous watermark, every member's newest vector
covers it (the sender's need not: it holds its own) and no timer will
still send it; see ``_collect``.  A copy that arrives later is a
duplicate, since its seq is below the sender's collection floor.  Only
the id stays, in ``gmd.delivered``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .delays import DelayEstimator, compute_D
from .gmd import GmdNodeState, msg_id_str

MODE_GMD_ONLY = "GMD_ONLY"
MODE_HYBRID = "HYBRID"
MODE_ON_SUSPICION = "HYBRID_ON_SUSPICION"
MODES = (MODE_GMD_ONLY, MODE_HYBRID, MODE_ON_SUSPICION)

GMD_PATH = "GMD_PATH"
DEADLINE_PATH = "DEADLINE_PATH"


@dataclass(frozen=True)
class InsuranceMessage:
    msg_id: tuple  # (sender, seq); both copies share it
    ts: int
    d_i: int  # sender's worst-case one-way delay estimate at broadcast time
    copy_index: int  # 1 or 2
    relayed_by: Optional[int] = None
    payload: object = None
    sent_ts: int = 0  # sender/relayer clock at the actual send of this copy


@dataclass(frozen=True)
class InsuranceAck:
    ts: int  # stamped above every message ``seen`` covers
    seen: dict  # sender -> contiguous watermark
    v: int  # the acker's ack count, from 1
    changed: dict  # the entries of ``seen`` that moved since ack v - 1


class InsuranceNode:
    """One protocol node driven by kernel arrivals and timers.

    ``cfg`` is the scenario config; the node reads its ``mode``,
    ``eta_us``, ``theta_us``, ``epsilon_us``, ``percentile``,
    ``safety_margin_us``, ``window_size``, ``default_d_us``,
    ``heartbeat_interval_us`` and ``suspicion_timeout_us``.
    """

    def __init__(self, engine, node_id: int, membership, cfg):
        self.engine = engine
        self.node_id = node_id
        self.cfg = cfg
        self.mode = cfg.mode
        self.gmd = GmdNodeState(node_id, membership)
        self.estimator = DelayEstimator(
            cfg.percentile, cfg.epsilon_us, cfg.window_size, cfg.default_d_us)
        self.seqno = 0
        self.store: dict[tuple, InsuranceMessage] = {}
        self.contig: dict[int, int] = {}
        self._moved: dict[int, int] = {}  # contig moves since the last ack sent
        self._acks_sent = 0
        self._versions: dict[int, int] = {}  # acker -> v of its last ack here
        # sender -> lowest seq not yet collected; every seq below it was
        # delivered here and is held by every member
        self._floor: dict[int, int] = {}
        # (sender, seq) -> requests sent for it, or -1 while the first
        # request waits out its arrival window
        self.holes: dict[tuple, int] = {}
        self.deadlines: dict[tuple, int] = {}
        self._wake_at = 0  # when the pending ("deadline",) timer fires
        self.max_deadline_D = 0
        self.suspected: set[int] = set()
        self.last_heard: dict[int, int] = {}
        self._timers: dict = {}

    # -- small helpers -----------------------------------------------------

    @property
    def membership(self):
        return self.gmd.membership

    def clock(self) -> int:
        return self.engine.read_clock(self.node_id)

    def insured_active(self) -> bool:
        if self.mode == MODE_HYBRID:
            return True
        return self.mode == MODE_ON_SUSPICION and bool(self.suspected)

    def current_d(self) -> int:
        return self.estimator.worst_case()

    def _set_timer(self, key, delay_us: int, data=None):
        self._cancel(key)
        self._timers[key] = self.engine.set_timer(self.node_id, delay_us, key, data)

    def _cancel(self, key):
        token = self._timers.pop(key, None)
        if token is not None:
            self.engine.cancel_timer(token)

    # -- broadcast paths ---------------------------------------------------

    def broadcast(self, payload=None) -> tuple:
        ts = self.gmd.clock.stamp(self.clock())
        mid = (self.node_id, self.seqno)
        self.seqno += 1
        d_i = self.current_d()
        msg = InsuranceMessage(mid, ts, d_i, 1, payload=payload, sent_ts=ts)
        self.store[mid] = msg
        self._note_seq(self.node_id, mid[1], self.node_id)
        self.gmd.admit(mid, ts)
        if self.insured_active():
            self._arm_deadline(mid, ts, d_i)
        self.engine.trace.add(self.engine.now, self.node_id, "BCAST",
                              msg_id_str(mid), {"ts": ts, "d": d_i})
        self._send_copy(msg)
        if self.mode != MODE_GMD_ONLY:
            self._set_timer(("copy2", mid), self.cfg.eta_us)
        self._try_deliver()
        return mid

    def _send_copy(self, msg: InsuranceMessage, to: Optional[int] = None):
        """Send ``msg`` to every member, or only to ``to``."""
        fields = {"ts": msg.ts, "seq": msg.msg_id[1], "d": msg.d_i,
                  "copy": msg.copy_index, "frm": self.node_id,
                  "relay": msg.relayed_by}
        kind = "INS_RELAY" if msg.relayed_by is not None else "INS_MSG"
        if to is None:
            self.engine.broadcast(self.node_id, self.membership, kind,
                                  msg_id_str(msg.msg_id), msg, fields)
        else:
            self.engine.send(self.node_id, to, kind, msg_id_str(msg.msg_id),
                             msg, fields)

    def _send_ack(self, label: str):
        """Stamp this node's seen-vector and send it to every member: after
        an arrival, labelled with its id, and in HYBRID_ON_SUSPICION,
        unlabelled, as its heartbeat, which replaces a lost ack.  The stamp
        exceeds the ts of every message the vector covers, since each was
        admitted before."""
        ts = self.gmd.clock.stamp(self.clock())
        seen = dict(self.contig)
        changed = self._moved
        if len(changed) > 1:  # in ``seen``'s order, which receivers scan in
            changed = {s: c for s, c in seen.items() if s in changed}
        self._moved = {}
        self._acks_sent += 1
        v = self._acks_sent
        self.engine.broadcast(
            self.node_id, self.membership, "INS_ACK", label,
            InsuranceAck(ts, seen, v, changed),
            {"frm": self.node_id, "ats": ts, "v": v, "d": changed})

    # -- kernel entry points -----------------------------------------------

    def on_message(self, frm: int, kind: str, msg_id: str, payload):
        if self.mode == MODE_ON_SUSPICION:
            self.last_heard[frm] = self.engine.now
        if kind == "INS_ACK":
            if self._apply_ack(frm, payload):
                self._try_deliver()
        elif kind in ("INS_MSG", "INS_RELAY"):
            self._on_copy(frm, payload)
        elif kind == "RETX_REQ":
            self._on_retx_req(frm, payload)

    def on_timer(self, key, data):
        self._timers.pop(key, None)
        tag = key[0]
        if tag == "copy2":
            self._resend(key[1], 2)
        elif tag == "second":
            self._relay(key[1])
        elif tag == "deadline":
            self._try_deliver()
        elif tag == "retx":
            if (key[1], key[2]) in self.holes:
                self._send_retx(key[1], key[2], data)
        elif tag == "hb":
            self._send_ack("")
            self._set_timer(("hb",), self.cfg.heartbeat_interval_us)
            self._check_heartbeats()

    def start_heartbeats(self):
        for peer in self.membership:
            if peer != self.node_id:
                self.last_heard.setdefault(peer, self.engine.now)
        self._set_timer(("hb",), self.cfg.heartbeat_interval_us)

    # -- receive path ------------------------------------------------------

    def _on_copy(self, frm: int, msg: InsuranceMessage):
        now = self.clock()
        self.estimator.record(frm, now - msg.sent_ts)
        mid = msg.msg_id
        if msg.relayed_by is not None and msg.relayed_by != self.node_id:
            # someone else is already relaying: suppress our own relay
            self._cancel(("second", mid))
        if mid[1] < self._floor.get(mid[0], 0):
            pass  # collected: every member holds it, so this is a duplicate
        elif mid not in self.store:
            self.store[mid] = msg  # shared by every receiver
            self._note_seq(mid[0], mid[1], frm)
            self.gmd.admit(mid, msg.ts)
            if msg.relayed_by is None and self.mode != MODE_GMD_ONLY:
                # relayers take turns in id order, the sender left out
                rank = sum(1 for m in self.membership
                           if m < self.node_id and m != mid[0])
                p = self.cfg
                wait = p.eta_us + (rank + 1) * p.theta_us
                if msg.copy_index == 1:
                    # copy 2 is only overdue d_i after ts + eta, so wait from
                    # the broadcast, not from this arrival; the cap bounds
                    # what a skewed clock can add
                    wait += min(msg.d_i, max(0, msg.ts + msg.d_i - now))
                self._set_timer(("second", mid), wait)
            if self.insured_active():
                self._arm_deadline(mid, msg.ts, msg.d_i)
            self._send_ack(msg_id_str(mid))
            self._try_deliver()
            return
        elif msg.copy_index != self.store[mid].copy_index:
            # the other copy arrived: the sender is not stuck
            self._cancel(("second", mid))
        # a copy already held or collected changes nothing delivery reads
        if self._deadline_passed(now):
            self._try_deliver()

    def _apply_ack(self, frm: int, ack: InsuranceAck) -> bool:
        """Take in an ack; whether a delivery may now be due.

        The gap scan reads only the entries that moved since the acker's
        previous ack, when that ack arrived here: every other entry equals
        its value there, that ack's scan already recorded every hole it
        implies, and a hole leaves ``holes`` only when its copy enters
        ``store``.  After a lost ack the scan reads the whole vector, and
        the trace gets an ``ACK_FULL`` record of it, so that each
        (receiver, acker)'s newest vector can be rebuilt from the trace.
        """
        now = self.clock()
        self.estimator.record(frm, now - ack.ts)
        deliverable = self.gmd.on_ack(frm, ack.seen)
        versions = self._versions
        if versions.get(frm, 0) + 1 == ack.v:
            marks = ack.changed
        else:
            marks = ack.seen
            self.engine.trace.add(self.engine.now, self.node_id, "ACK_FULL",
                                  "", {"frm": frm, "seen": marks})
        versions[frm] = ack.v
        me, contig = self.node_id, self.contig
        for sender, watermark in marks.items():
            if sender != me and watermark > contig.get(sender, -1):
                self._open_gaps(sender, watermark, frm)
        return deliverable or self._deadline_passed(now)

    # -- sequence bookkeeping ----------------------------------------------

    def _note_seq(self, sender: int, seq: int, via: int):
        """Account for (sender, seq), which has just entered ``store``."""
        if (sender, seq) in self.holes:
            del self.holes[(sender, seq)]
            self._cancel(("retx", sender, seq))
        c = self.contig.get(sender, -1)
        if seq == c + 1:
            while (sender, c + 1) in self.store:
                c += 1
            self.contig[sender] = c
            self._moved[sender] = c
        else:
            self._open_gaps(sender, seq - 1, via)

    def _open_gaps(self, sender: int, top: int, via: int):
        """Record a hole for each of ``sender``'s seqs up to ``top`` that
        is not held, on evidence that came from ``via``, and ask ``via``
        for it.

        Links are FIFO, so evidence from the sender's own link (a copy
        straight from it, or its vector) came behind every copy it counts:
        such a hole is proven lost and requested at once.  Any other
        evidence (a third party's vector, a relayed copy) may have outrun
        the copy still in flight, so the request waits one arrival window,
        ``current_d()``; a proof that comes during the wait sends it at
        once, and the copy's arrival cancels it.  The hole blocks delivery
        either way.
        """
        proven = via == sender
        for seq in range(self.contig.get(sender, -1) + 1, top + 1):
            if (sender, seq) in self.store:
                continue
            sent = self.holes.get((sender, seq))
            if sent is None and not proven:
                self.holes[(sender, seq)] = -1
                self._set_timer(("retx", sender, seq), self.current_d(), via)
            elif sent is None or (proven and sent < 0):
                self._send_retx(sender, seq, via)
            # else still waiting without proof, or already requested

    def _send_retx(self, sender: int, seq: int, target):
        """Ask ``target`` for the hole, or, on a retry after theta
        (``target`` None), the next member in turn."""
        sent = max(self.holes.get((sender, seq), 0), 0)
        if target is None:
            others = sorted(m for m in self.membership if m != self.node_id)
            target = others[(sent - 1) % len(others)]
        self.holes[(sender, seq)] = sent + 1
        self.engine.send(self.node_id, target, "RETX_REQ",
                         msg_id_str((sender, seq)), (sender, seq),
                         {"frm": self.node_id})
        self._set_timer(("retx", sender, seq), self.cfg.theta_us)

    def _on_retx_req(self, frm: int, hole: tuple):
        held = self.store.get(hole)
        if held is not None:
            self._send_copy(replace(held, relayed_by=self.node_id,
                                    sent_ts=self.clock()), to=frm)

    # -- proactive relay ---------------------------------------------------

    def _relay(self, mid: tuple):
        """Relay a message whose ``second`` timer fired.  Only one straight
        copy of it arrived, since a relay or the other copy cancels the
        timer, and ``_collect`` keeps the message while the timer is
        armed."""
        self._resend(mid, 1)
        self._set_timer(("copy2", mid), self.cfg.eta_us)

    def _resend(self, mid: tuple, copy_index: int):
        """Send copy ``copy_index`` of the held ``mid``: as its sender, or
        as relayer of another member's message."""
        relayer = None if mid[0] == self.node_id else self.node_id
        self._send_copy(replace(self.store[mid], copy_index=copy_index,
                                relayed_by=relayer, sent_ts=self.clock()))

    # -- deadlines and delivery --------------------------------------------

    def _arm_deadline(self, mid: tuple, ts: int, sender_d: int):
        if mid in self.deadlines:
            return
        d = max(sender_d, self.current_d())
        p = self.cfg
        bound = compute_D(d, p.eta_us, p.theta_us, p.safety_margin_us)
        deadline = ts + bound + p.epsilon_us
        self.deadlines[mid] = deadline
        if bound > self.max_deadline_D:
            self.max_deadline_D = bound

    def _gap_blocks(self, m_ts: int) -> bool:
        """Whether a hole may hide a message ordered before ``m_ts``.

        A sender with a hole has one at ``contig + 1``, its lowest: holes
        open for every missing seq up to the evidence, and ``contig``
        moves only as its next seq fills.  The entry at ``contig`` is held
        (``_collect`` stops below it) and later holes sit above later
        timestamps, so the message at ``contig`` decides; a sender with no
        message held below its hole blocks.
        """
        contig, store = self.contig, self.store
        for sender, seq in self.holes:
            c = contig.get(sender, -1)
            if seq == c + 1:
                below = store.get((sender, c))
                if below is None or below.ts < m_ts:
                    return True
        return False

    def _deadline_passed(self, now: int) -> bool:
        """Whether the local clock reading ``now`` is past the head's
        deadline.  A drifting clock can pass it a few microseconds before
        the deadline timer fires, and an arrival in between delivers."""
        deadline = self.deadlines.get(self.gmd.head())
        return deadline is not None and now >= deadline

    def _try_deliver(self):
        while True:
            mid = self.gmd.head()
            if mid is None:
                return
            m_ts = self.gmd.pending[mid]
            # a known hole in some sender's sequence may hide a message that
            # must be ordered first, so it blocks both delivery paths
            if self._gap_blocks(m_ts):
                break
            if self.gmd.head_deliverable():
                self._deliver(mid, GMD_PATH)
                continue
            deadline = self.deadlines.get(mid)
            if deadline is not None and self.clock() >= deadline:
                self._deliver(mid, DEADLINE_PATH)
                continue
            break
        # Only the head can be delivered, so one timer wakes this node at
        # the head's deadline.  A head already past it is held by a hole,
        # and the copy that fills the hole calls this method again.
        deadline = self.deadlines.get(mid)
        if deadline is None:
            return
        wait = deadline - self.clock()
        at = self.engine.now + wait
        if wait > 0 and (("deadline",) not in self._timers
                         or at < self._wake_at):
            self._wake_at = at
            self._set_timer(("deadline",), wait)

    def _deliver(self, mid: tuple, path: str):
        ts = self.gmd.pending[mid]
        self.gmd.deliver_head()
        deadline = self.deadlines.pop(mid, None)
        fields = {"path": path, "ts": ts, "clk": self.clock(),
                  "dl": deadline if path == DEADLINE_PATH else None}
        self.engine.trace.add(self.engine.now, self.node_id, "DELIVER",
                              msg_id_str(mid), fields)
        self._collect(mid[0])

    def _collect(self, sender: int):
        """Stability GC: drop ``sender``'s messages that every member holds.

        A node keeps one record per message, its ``store`` entry; while the
        message is undelivered, ``gmd.pending`` holds its timestamp too,
        so an entry at or above ``_floor`` that is not pending has been
        delivered.  The entry goes once this node has delivered the
        message, its seq is below ``contig[sender]`` (``_gap_blocks``
        reads the ts below a hole from the entry at ``contig``), the
        newest vector of every current member but the sender (which holds
        its own messages) covers it, and no timer will still send it: a
        ``second`` timer relays it, and a ``copy2`` timer sends its copy 2,
        this node's own or one it relays.  Collection runs up from
        ``_floor[sender]`` and stops at the first message that fails.  A
        member asks for a retransmission only before it holds the message,
        and its request travels the same FIFO link ahead of the vector that
        covers it, so no request can reach a collected message.
        """
        limit = self.contig.get(sender, -1) - 1
        acks = self.gmd.acks
        for member in self.membership:
            if member != self.node_id and member != sender:
                seen = acks.get(member)
                if seen is None:
                    return
                mark = seen.get(sender, -1)
                if mark < limit:
                    limit = mark
        q = self._floor.get(sender, 0)
        store, pending, timers = self.store, self.gmd.pending, self._timers
        while q <= limit:
            mid = (sender, q)
            if (mid in pending or ("copy2", mid) in timers
                    or ("second", mid) in timers):
                break
            del store[mid]
            q += 1
        self._floor[sender] = q

    # -- mode control ------------------------------------------------------

    def on_suspect(self, peer: int):
        if peer in self.suspected or peer == self.node_id:
            return
        self.suspected.add(peer)
        self.engine.trace.add(self.engine.now, self.node_id, "SUSPECT",
                              "", {"peer": peer})
        if self.mode == MODE_ON_SUSPICION and len(self.suspected) == 1:
            for mid, ts in list(self.gmd.pending.items()):
                self._arm_deadline(mid, ts, self.store[mid].d_i)
        self._try_deliver()

    def on_suspicion_false(self, peer: int):
        if peer not in self.suspected:
            return
        self.suspected.discard(peer)
        self.engine.trace.add(self.engine.now, self.node_id, "SUSPECT_CLEAR",
                              "", {"peer": peer})
        if self.mode == MODE_ON_SUSPICION and not self.suspected:
            self.deadlines.clear()  # a delivery drops its own entry

    def on_new_view(self, crashed: int):
        self.gmd.remove_member(crashed)
        self.suspected.discard(crashed)
        self.engine.trace.add(self.engine.now, self.node_id, "NEW_VIEW",
                              "", {"removed": crashed})
        self._try_deliver()
        for sender in self.contig:
            self._collect(sender)  # the removed member's vector held it back

    def _check_heartbeats(self):
        now = self.engine.now
        for peer in list(self.membership):
            if peer == self.node_id:
                continue
            silent = now - self.last_heard.get(peer, 0)
            if silent > self.cfg.suspicion_timeout_us:
                self.on_suspect(peer)
            elif peer in self.suspected:
                self.on_suspicion_false(peer)

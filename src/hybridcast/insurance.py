"""Proactive synchronous insurance overlay on the GMD abcast.

Every broadcast carries a per-sender sequence number, and every ack is
one record: the acker, its promise timestamp and its seen-vector, the
per-sender contiguous sequence watermarks of what it holds.  The GMD
core delivers from each member's newest vector, and receivers use the
same vectors, and the seqs of arriving copies, to detect gaps, which
block both delivery paths until filled.  Links are FIFO, so a gap that
the sender's own link shows (a copy straight from the sender with a
higher seq, or the sender's own vector) is lost, and its retransmission
is requested at once.  A gap known only from a third party's vector or
from a relayed copy may be a copy still in flight: its request waits one
arrival window, the node's one-way delay estimate, goes out at once if
proof comes first, and is dropped if the copy lands.  Each hole is one
entry in ``holes``, its request count.  In GMD_ONLY mode that is all: one
copy, no relay, no deadline.

In the hybrid modes every broadcast goes out as two redundant copies
separated by eta, and a receiver that saw only one copy re-broadcasts
both copies on behalf of the (presumably crashed) sender after a
staggered timeout.  The timeout is measured from the broadcast: copy 2
leaves at ts + eta and may take the sender's d_i, so a receiver of copy
1 relays at ts + d_i + eta + (rank+1)*theta on its own clock (at most
d_i later than eta + (rank+1)*theta after the arrival, whatever the
clock skew); a copy 2 that arrives first, because copy 1 was lost,
starts the timeout at its arrival.  A pending message is delivered
either by the GMD all-ack rules or once the local clock passes its
timestamp plus the pessimistic bound, whichever happens first; the
deadline path is postponed while a known gap could still hide an
earlier-timestamped message.  Only the head of the delivery order can
be delivered, so a node arms one deadline timer, for the head's
deadline.  In HYBRID_ON_SUSPICION the heartbeat is the node's ack
record with a fresh promise, so a lost ack is replaced within one
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
    acker: int
    promise: int
    seen: dict  # sender -> contiguous watermark


@dataclass(frozen=True)
class ProtocolParams:
    mode: str = MODE_HYBRID
    eta_us: int = 2000
    theta_us: int = 1000
    epsilon_us: int = 100
    percentile: float = 0.9999
    safety_margin_us: int = 0
    window_size: int = 10_000
    default_d_us: int = 20_000
    heartbeat_interval_us: int = 1_000_000
    suspicion_timeout_us: int = 3_000_000


class InsuranceNode:
    """One protocol node driven by kernel arrivals and timers."""

    def __init__(self, engine, node_id: int, membership, params: ProtocolParams):
        self.engine = engine
        self.node_id = node_id
        self.params = params
        self.mode = params.mode
        self.gmd = GmdNodeState(node_id, membership)
        self.estimator = DelayEstimator(
            params.percentile, params.epsilon_us, params.window_size,
            params.default_d_us)
        self.seqno = 0
        self.store: dict[tuple, InsuranceMessage] = {}
        self.contig: dict[int, int] = {}
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
        self._relay_ranks: dict[int, int] = {}  # sender -> rank; per view

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

    def _relay_rank(self, sender: int) -> int:
        rank = self._relay_ranks.get(sender)
        if rank is None:
            others = sorted(m for m in self.membership if m != sender)
            rank = others.index(self.node_id) if self.node_id in others else 0
            self._relay_ranks[sender] = rank
        return rank

    # -- broadcast paths ---------------------------------------------------

    def broadcast(self, payload=None) -> tuple:
        ts = self.gmd.assign_timestamp(self.clock())
        mid = (self.node_id, self.seqno)
        self.seqno += 1
        d_i = self.current_d()
        msg = InsuranceMessage(mid, ts, d_i, 1, payload=payload, sent_ts=ts)
        self.store[mid] = msg
        self._note_seq(self.node_id, mid[1], self.node_id)
        self.gmd.add_own(mid, ts)
        if self.insured_active():
            self._arm_deadline(mid, ts, d_i)
        self.engine.trace.add(self.engine.now, self.node_id, "BCAST",
                              msg_id_str(mid), {"ts": ts, "d": d_i})
        self._send_copy(msg)
        if self.mode != MODE_GMD_ONLY:
            self._set_timer(("copy2", mid), self.params.eta_us)
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

    def _send_ack(self, label: str, promise: int):
        """Send this node's ack record to every member: after an arrival,
        labelled with its id, and in HYBRID_ON_SUSPICION, unlabelled, as
        its heartbeat, which replaces a lost ack."""
        seen = dict(self.contig)
        self.engine.broadcast(
            self.node_id, self.membership, "INS_ACK", label,
            InsuranceAck(self.node_id, promise, seen),
            {"frm": self.node_id, "ats": promise, "seen": seen})

    # -- kernel entry points -----------------------------------------------

    def on_message(self, frm: int, kind: str, msg_id: str, payload):
        self.last_heard[frm] = self.engine.now
        if kind in ("INS_MSG", "INS_RELAY"):
            self._on_copy(frm, payload)
        elif kind == "INS_ACK":
            self._apply_ack(frm, payload)
            self._try_deliver()
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
            self._send_ack("", self.gmd.new_promise(self.clock()))
            self._set_timer(("hb",), self.params.heartbeat_interval_us)
            self._check_heartbeats()

    def start_heartbeats(self):
        for peer in self.membership:
            if peer != self.node_id:
                self.last_heard.setdefault(peer, self.engine.now)
        self._set_timer(("hb",), self.params.heartbeat_interval_us)

    # -- receive path ------------------------------------------------------

    def _on_copy(self, frm: int, msg: InsuranceMessage):
        self.estimator.record(frm, self.clock() - msg.sent_ts)
        mid = msg.msg_id
        if msg.relayed_by is not None and msg.relayed_by != self.node_id:
            # someone else is already relaying: suppress our own relay
            self._cancel(("second", mid))
        if mid[1] < self._floor.get(mid[0], 0):
            pass  # collected: every member holds it, so this is a duplicate
        elif mid not in self.store:
            self.store[mid] = msg  # shared by every receiver
            self._note_seq(mid[0], mid[1], frm)
            promise = self.gmd.on_receive(mid, msg.ts, self.clock())
            if msg.relayed_by is None and self.mode != MODE_GMD_ONLY:
                p = self.params
                wait = p.eta_us + (self._relay_rank(mid[0]) + 1) * p.theta_us
                if msg.copy_index == 1:
                    # copy 2 is only overdue d_i after ts + eta, so wait from
                    # the broadcast, not from this arrival; the cap bounds
                    # what a skewed clock can add
                    wait += min(msg.d_i, max(0, msg.ts + msg.d_i - self.clock()))
                self._set_timer(("second", mid), wait)
            if self.insured_active():
                self._arm_deadline(mid, msg.ts, msg.d_i)
            self._send_ack(msg_id_str(mid), promise)
        elif msg.copy_index != self.store[mid].copy_index:
            # the other copy arrived: the sender is not stuck
            self._cancel(("second", mid))
        self._try_deliver()

    def _apply_ack(self, frm: int, ack: InsuranceAck):
        self.estimator.record(frm, self.clock() - ack.promise)
        self.gmd.on_ack(ack.acker, ack.promise, ack.seen)
        for sender, watermark in ack.seen.items():
            if sender == self.node_id:
                continue
            c = self.contig.get(sender, -1)
            if watermark <= c:
                continue
            # the sender's own vector came over its FIFO link behind every
            # copy it counts, so those copies are lost, not in flight
            proven = ack.acker == sender
            for q in range(c + 1, watermark + 1):
                if (sender, q) not in self.store:
                    self._open_gap(sender, q, frm, proven)

    # -- sequence bookkeeping ----------------------------------------------

    def _note_seq(self, sender: int, seq: int, via: int):
        """Account for (sender, seq), which has just entered ``store``."""
        store = self.store
        if (sender, seq) in self.holes:
            del self.holes[(sender, seq)]
            self._cancel(("retx", sender, seq))
        c = self.contig.get(sender, -1)
        if seq == c + 1:
            while (sender, c + 1) in store:
                c += 1
            self.contig[sender] = c
        elif seq > c + 1:
            # FIFO links: a copy straight from the sender proves these lost
            for q in range(c + 1, seq):
                if (sender, q) not in store:
                    self._open_gap(sender, q, via, via == sender)

    def _open_gap(self, sender: int, seq: int, target: int, proven: bool):
        """Record a hole and ask ``target`` for it.

        A hole ``proven`` lost by evidence from the sender's own link is
        requested at once.  Any other evidence (a third party's vector, a
        relayed copy) may have outrun the copy still in flight, so the
        request waits one arrival window, ``current_d()``; a proof that
        comes during the wait sends it at once, and the copy's arrival
        cancels it.  The hole blocks delivery either way.
        """
        sent = self.holes.get((sender, seq))
        if sent is None and not proven:
            self.holes[(sender, seq)] = -1
            self._set_timer(("retx", sender, seq), self.current_d(), target)
        elif sent is None or (proven and sent < 0):
            self._send_retx(sender, seq, target)
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
                         msg_id_str((sender, seq)), (sender, (seq,)),
                         {"frm": self.node_id})
        self._set_timer(("retx", sender, seq), self.params.theta_us)

    def _on_retx_req(self, frm: int, payload):
        sender, seqs = payload
        for seq in seqs:
            held = self.store.get((sender, seq))
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
        self._set_timer(("copy2", mid), self.params.eta_us)

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
        p = self.params
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
                ack = acks.get(member)
                if ack is None:
                    return
                mark = ack[1].get(sender, -1)
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
        self._relay_ranks.clear()
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
            if silent > self.params.suspicion_timeout_us:
                self.on_suspect(peer)
            elif peer in self.suspected:
                self.on_suspicion_false(peer)

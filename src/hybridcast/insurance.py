"""Proactive synchronous insurance overlay on the GMD abcast.

Every broadcast carries a per-sender sequence number, and every ack is
one record: the acker, its promise timestamp and its seen-vector, the
per-sender contiguous sequence watermarks of what it holds.  The GMD
core delivers from each member's newest vector, and receivers use the
same vectors to detect gaps and request retransmissions.  In GMD_ONLY
mode that is all: one copy, no relay, no deadline.

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
earlier-timestamped message.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .delays import DelayBoundConfig, DelayEstimator, compute_D
from .gmd import GmdMessage, GmdNodeState, msg_id_str

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
    piggy_acks: tuple = ()


@dataclass(frozen=True)
class InsuranceAck:
    acker: int
    acked_msg: tuple  # the arrival that prompted it; labels the trace only
    promise: int
    seen: dict  # sender -> contiguous watermark


@dataclass(frozen=True)
class ProtocolParams:
    mode: str = MODE_HYBRID
    ack_mode: str = "instant"  # instant | piggyback
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

    def __init__(self, engine, node_id: int, membership, params: ProtocolParams,
                 on_deliver=None):
        self.engine = engine
        self.node_id = node_id
        self.params = params
        self.mode = params.mode
        self.gmd = GmdNodeState(node_id, membership)
        self.estimator = DelayEstimator(params.window_size, params.default_d_us)
        self.bound_cfg = DelayBoundConfig(
            percentile=params.percentile, eta_us=params.eta_us,
            theta_us=params.theta_us, epsilon_us=params.epsilon_us,
            safety_margin_us=params.safety_margin_us)
        self.on_deliver = on_deliver
        self.seqno = 0
        self.store: dict[tuple, InsuranceMessage] = {}
        self.arrival_forms: dict[tuple, set] = {}
        self.contig: dict[int, int] = {}
        self.gaps: dict[int, set] = {}
        self._open_gaps = 0  # total size of the sets in gaps
        self.deadlines: dict[tuple, int] = {}
        self.max_deadline_D = 0
        self.suspected: set[int] = set()
        self.last_heard: dict[int, int] = {}
        self.out_acks: list = []
        self._timers: dict = {}
        self._retx_round: dict[tuple, int] = {}
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
        return self.estimator.worst_case(self.bound_cfg)

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
        msg = InsuranceMessage(mid, ts, d_i, 1, payload=payload, sent_ts=ts,
                               piggy_acks=self._take_acks())
        self.store[mid] = msg
        self._note_seq(self.node_id, mid[1], self.node_id)
        self.gmd.add_own(GmdMessage(mid, ts, payload))
        if self.insured_active():
            self._arm_deadline(mid, ts, d_i)
        self.engine.trace.add(self.engine.now, self.node_id, "BCAST",
                              msg_id_str(mid), {"ts": ts, "d": d_i})
        self._send_copy(msg)
        if self.mode != MODE_GMD_ONLY:
            self._set_timer(("copy2", mid), self.params.eta_us)
        self._try_deliver()
        return mid

    def _send_copy(self, msg: InsuranceMessage):
        fields = {"ts": msg.ts, "seq": msg.msg_id[1], "d": msg.d_i,
                  "copy": msg.copy_index, "frm": self.node_id,
                  "relay": msg.relayed_by}
        kind = "INS_RELAY" if msg.relayed_by is not None else "INS_MSG"
        self.engine.broadcast(self.node_id, self.membership, kind,
                              msg_id_str(msg.msg_id), msg, fields)

    # -- ack plumbing ------------------------------------------------------

    def _take_acks(self) -> tuple:
        if self.params.ack_mode != "piggyback" or not self.out_acks:
            return ()
        out = tuple(self.out_acks)
        self.out_acks.clear()
        self._cancel(("ackflush",))
        return out

    def _send_ack(self, ack):
        if self.params.ack_mode == "piggyback":
            self.out_acks.append(ack)
            if ("ackflush",) not in self._timers:
                self._set_timer(("ackflush",), self.params.theta_us)
            return
        self._broadcast_acks((ack,))

    def _flush_acks(self):
        acks = tuple(self.out_acks)
        self.out_acks.clear()
        if acks:
            self._broadcast_acks(acks)

    def _broadcast_acks(self, acks: tuple):
        last = acks[-1]
        fields = {"frm": self.node_id, "ats": last.promise, "seen": last.seen}
        self.engine.broadcast(self.node_id, self.membership, "INS_ACK",
                              msg_id_str(last.acked_msg), acks, fields)

    # -- kernel entry points -----------------------------------------------

    def on_message(self, frm: int, kind: str, msg_id: str, payload):
        self.last_heard[frm] = self.engine.now
        if kind in ("INS_MSG", "INS_RELAY"):
            self._on_copy(frm, payload)
        elif kind == "INS_ACK":
            self._on_acks(frm, payload)
        elif kind == "RETX_REQ":
            self._on_retx_req(frm, payload)
        elif kind == "HEARTBEAT":
            self.estimator.record(frm, self.clock() - payload,
                                  self.params.epsilon_us)

    def on_timer(self, key, data):
        self._timers.pop(key, None)
        tag = key[0]
        if tag == "copy2":
            mid = key[1]
            held = self.store.get(mid)
            if held is not None:
                self._send_copy(replace(held, copy_index=2, sent_ts=self.clock(),
                                        piggy_acks=self._take_acks()))
        elif tag == "second":
            self._relay(key[1])
        elif tag == "relay2":
            mid = key[1]
            held = self.store.get(mid)
            if held is not None:
                self._send_copy(replace(held, copy_index=2,
                                        relayed_by=self.node_id,
                                        sent_ts=self.clock(), piggy_acks=()))
        elif tag == "deadline":
            self._on_deadline_timer(key[1])
        elif tag == "retx":
            self._retry_retx(key[1], key[2])
        elif tag == "ackflush":
            self._flush_acks()
        elif tag == "hb":
            self.engine.broadcast(self.node_id, self.membership, "HEARTBEAT",
                                  "", self.clock(), {"frm": self.node_id})
            self._set_timer(("hb",), self.params.heartbeat_interval_us)
        elif tag == "hbcheck":
            self._check_heartbeats()
            self._set_timer(("hbcheck",), self.params.heartbeat_interval_us)

    def start_heartbeats(self):
        for peer in self.membership:
            if peer != self.node_id:
                self.last_heard.setdefault(peer, self.engine.now)
        self._set_timer(("hb",), self.params.heartbeat_interval_us)
        self._set_timer(("hbcheck",), self.params.heartbeat_interval_us)

    # -- receive path ------------------------------------------------------

    def _on_copy(self, frm: int, msg: InsuranceMessage):
        self.estimator.record(frm, self.clock() - msg.sent_ts,
                              self.params.epsilon_us)
        for ack in msg.piggy_acks:
            self._apply_ack(frm, ack)
        mid = msg.msg_id
        if msg.relayed_by is not None and msg.relayed_by != self.node_id:
            # someone else is already relaying: suppress our own relay
            self._cancel(("second", mid))
        forms = self.arrival_forms.setdefault(mid, set())
        form = (msg.copy_index, msg.relayed_by is not None)
        if mid not in self.store:
            self.store[mid] = replace(msg, piggy_acks=())
            self._note_seq(mid[0], mid[1], frm)
            promise = self.gmd.on_receive(GmdMessage(mid, msg.ts, msg.payload),
                                          self.clock())
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
            self._send_ack(InsuranceAck(self.node_id, mid, promise,
                                        dict(self.contig)))
        elif forms and form not in forms:
            # the other copy (or a relay) arrived: sender is not stuck
            self._cancel(("second", mid))
        forms.add(form)
        self._try_deliver()

    def _on_acks(self, frm: int, acks):
        for ack in acks:
            self._apply_ack(frm, ack)
        self._try_deliver()

    def _apply_ack(self, frm: int, ack: InsuranceAck):
        self.estimator.record(frm, self.clock() - ack.promise,
                              self.params.epsilon_us)
        self.gmd.on_ack(ack.acker, ack.promise, ack.seen)
        for sender, watermark in ack.seen.items():
            if sender == self.node_id:
                continue
            c = self.contig.get(sender, -1)
            if watermark <= c:
                continue
            for q in range(c + 1, watermark + 1):
                if (sender, q) not in self.store:
                    self._open_gap(sender, q, frm)

    # -- sequence bookkeeping ----------------------------------------------

    def _note_seq(self, sender: int, seq: int, via: int):
        """Account for (sender, seq), which has just entered ``store``."""
        store = self.store
        gap_set = self.gaps.get(sender)
        if gap_set and seq in gap_set:
            gap_set.discard(seq)
            self._open_gaps -= 1
            self._cancel(("retx", sender, seq))
            self._retx_round.pop((sender, seq), None)
        c = self.contig.get(sender, -1)
        if seq == c + 1:
            while (sender, c + 1) in store:
                c += 1
            self.contig[sender] = c
        elif seq > c + 1:
            for q in range(c + 1, seq):
                if (sender, q) not in store:
                    self._open_gap(sender, q, via)

    def _open_gap(self, sender: int, seq: int, target: int):
        gap_set = self.gaps.setdefault(sender, set())
        if seq in gap_set:
            return
        gap_set.add(seq)
        self._open_gaps += 1
        self._send_retx(sender, seq, target)

    def _send_retx(self, sender: int, seq: int, target: int):
        if target == self.node_id:
            target = self._next_retx_target(sender, seq)
        self.engine.send(self.node_id, target, "RETX_REQ",
                         msg_id_str((sender, seq)), (sender, (seq,)),
                         {"frm": self.node_id})
        self._set_timer(("retx", sender, seq), self.params.theta_us)

    def _next_retx_target(self, sender: int, seq: int) -> int:
        others = sorted(m for m in self.membership if m != self.node_id)
        idx = self._retx_round.get((sender, seq), 0)
        self._retx_round[(sender, seq)] = idx + 1
        return others[idx % len(others)]

    def _retry_retx(self, sender: int, seq: int):
        if seq in self.gaps.get(sender, set()):
            self._send_retx(sender, seq, self._next_retx_target(sender, seq))

    def _on_retx_req(self, frm: int, payload):
        sender, seqs = payload
        for seq in seqs:
            held = self.store.get((sender, seq))
            if held is not None:
                self.engine.send(
                    self.node_id, frm, "INS_RELAY", msg_id_str((sender, seq)),
                    replace(held, relayed_by=self.node_id, sent_ts=self.clock(),
                            piggy_acks=()),
                    {"ts": held.ts, "seq": seq, "d": held.d_i,
                     "copy": held.copy_index, "frm": self.node_id,
                     "relay": self.node_id})

    # -- proactive relay ---------------------------------------------------

    def _relay(self, mid: tuple):
        held = self.store.get(mid)
        if held is None or len(self.arrival_forms.get(mid, ())) >= 2:
            return
        self._send_copy(replace(held, copy_index=1, relayed_by=self.node_id,
                                sent_ts=self.clock(), piggy_acks=()))
        self._set_timer(("relay2", mid), self.params.eta_us)

    # -- deadlines and delivery --------------------------------------------

    def _arm_deadline(self, mid: tuple, ts: int, sender_d: int):
        if mid in self.deadlines or mid in self.gmd.delivered_ts:
            return
        d = max(sender_d, self.current_d())
        bound = compute_D(d, self.bound_cfg)
        deadline = ts + bound + self.params.epsilon_us
        self.deadlines[mid] = deadline
        if bound > self.max_deadline_D:
            self.max_deadline_D = bound
        wait = max(0, deadline - self.clock())
        self._set_timer(("deadline", mid), wait)

    def _on_deadline_timer(self, mid: tuple):
        deadline = self.deadlines.get(mid)
        if deadline is None or mid not in self.gmd.pending:
            return
        if self.clock() < deadline:
            self._set_timer(("deadline", mid), deadline - self.clock())
            return
        self._try_deliver()
        if mid in self.gmd.pending:
            # blocked by a gap or an earlier pending message; poll again
            self._set_timer(("deadline", mid), self.params.theta_us)

    def _gap_blocks(self, m_ts: int) -> bool:
        if not self._open_gaps:
            return False
        for sender, gap_set in self.gaps.items():
            for q in gap_set:
                lower = -1  # ts of the nearest message held below the hole
                for r in range(q - 1, -1, -1):
                    held = self.store.get((sender, r))
                    if held is not None:
                        lower = held.ts
                        break
                if lower < m_ts:
                    return True
        return False

    def _try_deliver(self) -> list[tuple]:
        out = []
        while True:
            mid = self.gmd.head()
            if mid is None:
                break
            m_ts = self.gmd.pending[mid]
            # a known hole in some sender's sequence may hide a message that
            # must be ordered first, so it blocks both delivery paths
            if self._gap_blocks(m_ts):
                break
            if self.gmd.head_deliverable():
                out.append(self._deliver(mid, GMD_PATH))
                continue
            deadline = self.deadlines.get(mid)
            if deadline is not None and self.clock() >= deadline:
                out.append(self._deliver(mid, DEADLINE_PATH))
                continue
            break
        return out

    def _deliver(self, mid: tuple, path: str) -> tuple:
        ts = self.gmd.pending[mid]
        self.gmd.deliver_head()
        deadline = self.deadlines.pop(mid, None)
        self._cancel(("deadline", mid))
        fields = {"path": path, "ts": ts, "clk": self.clock(),
                  "dl": deadline if path == DEADLINE_PATH else None}
        self.engine.trace.add(self.engine.now, self.node_id, "DELIVER",
                              msg_id_str(mid), fields)
        if self.on_deliver is not None:
            self.on_deliver(self.node_id, mid, ts, path, self.engine.now)
        return mid

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
            for mid in list(self.deadlines):
                if mid in self.gmd.pending:
                    del self.deadlines[mid]
                    self._cancel(("deadline", mid))

    def on_new_view(self, crashed: int):
        self.gmd.remove_member(crashed)
        self._relay_ranks.clear()
        self.suspected.discard(crashed)
        self.engine.trace.add(self.engine.now, self.node_id, "NEW_VIEW",
                              "", {"removed": crashed})
        self._try_deliver()

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

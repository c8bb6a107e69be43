"""Group-membership-dependent abcast core.

A broadcast carries a hybrid timestamp; every recipient answers with an
ack (acker, promise, seen).  The promise is a timestamp that all of the
acker's future broadcasts will exceed; ``seen`` maps each sender to the
highest sequence number up to which the acker holds that sender's
messages without a hole.  An acker's vector only grows with its promise,
so each member's newest ack replaces its older ones, and a late ack that
covers an earlier message stands in for an ack of it that was lost.  A
message is deliverable once every member's newest ack covers it and
every member's promise watermark exceeds its timestamp, so no
earlier-timestamped message can still appear.  When a member crashes and
stays silent, delivery stalls: that blocking is the phenomenon this
module deliberately models.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

MsgId = tuple  # (sender, seq)


def msg_id_str(msg_id: MsgId) -> str:
    return f"{msg_id[0]}:{msg_id[1]}"


@dataclass(frozen=True)
class GmdMessage:
    msg_id: MsgId
    ts: int
    payload: object = None


class GmdNodeState:
    """Per-node GMD protocol state.  Pure: callers supply clock readings."""

    def __init__(self, node_id: int, membership):
        self.node_id = node_id
        self.membership = set(membership)
        self.hybrid_clock = 0
        self.pending: dict[MsgId, int] = {}  # msg_id -> ts
        self.delivered: list[MsgId] = []
        self.delivered_ts: dict[MsgId, int] = {}
        # largest timestamp seen from each member: the promise watermark
        self.promise: dict[int, int] = {m: 0 for m in self.membership}
        # each member's newest ack: (promise, seen)
        self.acks: dict[int, tuple] = {}
        self._order: list = []  # heap of (ts, sender, seq)

    # -- timestamps --------------------------------------------------------

    def assign_timestamp(self, clock_reading: int) -> int:
        ts = max(clock_reading, self.hybrid_clock + 1)
        self.hybrid_clock = ts
        return ts

    def note_timestamp(self, member: int, ts: int):
        if ts > self.promise.get(member, -1):
            self.promise[member] = ts

    # -- receive path ------------------------------------------------------

    def known(self, msg_id: MsgId) -> bool:
        return msg_id in self.pending or msg_id in self.delivered_ts

    def add_own(self, msg: GmdMessage):
        """Register the sender's own broadcast (its ts is its own promise)."""
        self._admit(msg)

    def _admit(self, msg: GmdMessage):
        self.pending[msg.msg_id] = msg.ts
        heapq.heappush(self._order, (msg.ts, msg.msg_id[0], msg.msg_id[1]))
        self.note_timestamp(msg.msg_id[0], msg.ts)

    def on_receive(self, msg: GmdMessage, clock_reading: int) -> Optional[int]:
        """Admit a foreign broadcast; returns the promise for its ack, None
        if duplicate."""
        if self.known(msg.msg_id):
            return None
        self._admit(msg)
        if msg.ts > self.hybrid_clock:
            self.hybrid_clock = msg.ts
        promise = self.assign_timestamp(clock_reading)
        self.note_timestamp(self.node_id, promise)
        return promise

    def on_ack(self, acker: int, promise: int, seen: dict):
        self.note_timestamp(acker, promise)
        newest = self.acks.get(acker)
        if newest is None or promise > newest[0]:
            self.acks[acker] = (promise, seen)

    # -- delivery ----------------------------------------------------------

    def head(self) -> Optional[MsgId]:
        while self._order:
            ts, sender, seq = self._order[0]
            mid = (sender, seq)
            if mid in self.pending:
                return mid
            heapq.heappop(self._order)  # delivered, drop stale entry
        return None

    def head_deliverable(self) -> bool:
        mid = self.head()
        if mid is None:
            return False
        sender, seq = mid
        ts = self.pending[mid]
        for member in self.membership:
            if member == sender or member == self.node_id:
                # the sender's promise is implicit in its seq stream, and
                # this node holds the message and stamps later ones higher
                continue
            ack = self.acks.get(member)
            if ack is None or ack[1].get(sender, -1) < seq:
                return False
            if self.promise.get(member, 0) <= ts:
                return False
        return True

    def deliver_head(self) -> MsgId:
        mid = self.head()
        ts = self.pending.pop(mid)
        heapq.heappop(self._order)
        self.delivered.append(mid)
        self.delivered_ts[mid] = ts
        return mid

    def try_deliver(self) -> list[MsgId]:
        out = []
        while self.head_deliverable():
            out.append(self.deliver_head())
        return out

    # -- membership --------------------------------------------------------

    def remove_member(self, node_id: int):
        self.membership.discard(node_id)

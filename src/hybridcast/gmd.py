"""Group-membership-dependent abcast core.

A broadcast carries a hybrid timestamp; every recipient answers with an
ack, a seen-vector that maps each sender to the highest sequence number
up to which the acker holds that sender's messages without a hole.  A
message is deliverable once every member's newest vector covers it; a
late vector that covers an earlier message stands in for a lost ack of
it.  When a member crashes and stays silent, delivery stalls: that
blocking is the phenomenon this module deliberately models.

Coverage alone suffices, because no earlier-timestamped message can
still appear from a member whose vector covers the head:

- a vector covers ``(s, q)`` only if its acker admitted ``(s, q)``
  before stamping the ack (the caller admits a copy and stamps its ack
  in one handler, and the vector is the acker's hole-free watermarks);
- admitting a message raises the acker's hybrid clock to at least its
  ts, so the ack and every later broadcast of the acker are stamped
  higher;
- links are FIFO, so the acker's earlier, lower-stamped broadcasts
  either arrive before its ack or show up as a hole in its own seq
  stream, which the caller holds delivery for.  For the same reason the
  last ack to arrive from a member is its newest, so it replaces the
  older ones.

The sender's own messages need no vector from it: its seq stream shows
them.  The core keeps a ``HybridClock``, the pending messages and each
member's newest vector; a message's id and timestamp only while it is
pending.  It does not screen duplicates: the caller admits each message
once.

Only the head of the order can be delivered, so the core counts the
members whose newest vector covers the head.  An ack moves the count by
the acker's old and new marks for the head's sender alone, and says
whether the head is now deliverable; the count is taken afresh only when
the head or the membership changes.
"""

from __future__ import annotations

import heapq
from typing import Optional

MsgId = tuple  # (sender, seq)


def msg_id_str(msg_id: MsgId) -> str:
    return f"{msg_id[0]}:{msg_id[1]}"


class HybridClock:
    """A hybrid logical clock: each stamp is at least the local clock
    reading and above every stamp issued or witnessed so far.  The one
    home of that rule, for the GMD core and the DIRECT transaction path."""

    def __init__(self):
        self.last = 0  # the highest stamp issued or witnessed

    def stamp(self, reading: int) -> int:
        self.last = max(reading, self.last + 1)
        return self.last

    def witness(self, ts: int):
        self.last = max(self.last, ts)


class GmdNodeState:
    """Per-node GMD protocol state.  Pure: callers supply clock readings."""

    def __init__(self, node_id: int, membership):
        self.node_id = node_id
        self.membership = set(membership)
        self.clock = HybridClock()  # stamps broadcasts and acks
        self.pending: dict[MsgId, int] = {}  # msg_id -> ts
        self.delivered: list[MsgId] = []  # every delivery, in order
        self.acks: dict[int, dict] = {}  # member -> its newest seen-vector
        self._order: list = []  # heap of (ts, sender, seq, msg_id)
        # the head, the members whose vector it needs, and how many of
        # their newest vectors cover it
        self._head: Optional[MsgId] = None
        self._needed = 0
        self._covered = 0

    def admit(self, msg_id: MsgId, ts: int):
        """Queue a message not admitted before, this node's own or a
        member's, and keep the hybrid clock at or above its ts."""
        self.pending[msg_id] = ts
        heapq.heappush(self._order, (ts, msg_id[0], msg_id[1], msg_id))
        self.clock.witness(ts)
        if self._order[0][3] is msg_id:
            self._count_head()

    def on_ack(self, acker: int, seen: dict) -> bool:
        """Store ``acker``'s newest vector; whether the head is now
        deliverable.  Only the head's sender's mark, old and new, can
        change the head's coverage count."""
        old = self.acks.get(acker)
        self.acks[acker] = seen
        head = self._head
        if head is None:
            return False
        sender, seq = head
        covers = seen.get(sender, -1) >= seq
        if (covers != (old is not None and old.get(sender, -1) >= seq)
                and acker != sender and acker in self.membership):
            self._covered += 1 if covers else -1
        return self._covered == self._needed

    # -- delivery ----------------------------------------------------------

    def head(self) -> Optional[MsgId]:
        return self._head

    def _count_head(self):
        """Recount the head's coverage; run when the head or the membership
        changes.  The heap entry holds the caller's id, so delivery shares
        it."""
        if not self._order:
            self._head = None
            return
        head = self._head = self._order[0][3]
        sender, seq = head
        needed = covered = 0
        for member in self.membership:
            if member == sender or member == self.node_id:
                continue
            needed += 1
            seen = self.acks.get(member)
            if seen is not None and seen.get(sender, -1) >= seq:
                covered += 1
        self._needed = needed
        self._covered = covered

    def head_deliverable(self) -> bool:
        """Whether every member's newest vector covers the head."""
        return self._head is not None and self._covered == self._needed

    def deliver_head(self) -> MsgId:
        mid = self._head
        del self.pending[mid]
        heapq.heappop(self._order)
        self.delivered.append(mid)
        self._count_head()
        return mid

    # -- membership --------------------------------------------------------

    def remove_member(self, node_id: int):
        self.membership.discard(node_id)
        self._count_head()

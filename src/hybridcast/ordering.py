"""External transaction-ordering service: its server nodes and the
participants' side.

Dedicated servers (``OrderServer``) hand out dense global order numbers.
Each response also carries, per participant, a short history of the
transactions that precede the new one at that participant, which lets a
participant start a transaction without waiting for ordering news about
transactions that cannot precede it (the cascaded-waiting defeat).
Admission is a plain token bucket per server.

Primary-backup (Budhiraja, Marzullo, Schneider and Toueg, 1993): the
active server notes each assignment to its peers, and a backup mirrors
it into its own counter and logs.  Each server reads and writes only its
own state; a takeover resumes ``jump_gap`` past what the successor has
mirrored, since the primary's last notes may still be in flight.

Memory per transaction.  A server keeps, per participant, only the ids
of its last ``history_depth`` transactions: the window a history is cut
from.  The active server also caches each response for repeated copies
of its request; a backup does not mirror that cache.  A cached response
goes once its host has confirmed it (at-most-once RPC, Birrell and
Nelson, 1984).  On its first response the host stops sending copies of
the request, and its next request carries ``(tx_id, copies sent)``.  The
server counts the copies it has handled: answered from the cache,
rejected, or numbered.  Once that count reaches the confirmed one, no
further copy can reach it (the network does not duplicate a message), so
the response, the count and the confirmation go.  What stays is safe and
bounded: a copy that is lost keeps its response for good; a successor
counts only the copies it handles itself; and each host's last answers
stay cached until its next request.  A
participant keeps a transaction's order number and history (the list
the response carries, not a copy) from its ORDER_FWD until it executes
the transaction; after that it keeps only the id, in ``executed_set``.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass

from .errors import UnknownTransactionError

ADMIT = "ADMIT"
REJECT = "REJECT"

MODE_SERVICE = "SERVICE"
MODE_DIRECT = "DIRECT"


@dataclass(frozen=True)
class OrderRequest:
    tx_id: str
    tx_host: int
    participants: frozenset
    answered: tuple = ()  # (tx_id, copies sent) for the host's new answers


@dataclass(frozen=True)
class OrderResponse:
    tx_id: str
    order_no: int
    histories: dict  # participant -> list of preceding tx_ids (most recent last)


class TokenBucket:
    """Admit while tokens last; refill at rate_per_s up to burst."""

    def __init__(self, rate_per_s: float, burst: int):
        self.rate_per_s = rate_per_s
        self.burst = burst
        self.tokens = float(burst)
        self.last_us = 0

    def admit(self, now_us: int) -> str:
        if now_us > self.last_us:
            self.tokens = min(
                float(self.burst),
                self.tokens + self.rate_per_s * (now_us - self.last_us) / 1e6)
            self.last_us = now_us
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return ADMIT
        return REJECT


class OrderServerState:
    """Sequencer state: dense order numbers plus per-participant logs.
    A request is admitted (``admit``), then numbered (``assign``)."""

    def __init__(self, rate_per_s: float = 1000.0, burst: int = 100,
                 history_depth: int = 16, admission_enabled: bool = True,
                 first_order_no: int = 1):
        self.next_order_no = first_order_no
        self.history_depth = history_depth
        # participant -> ids of its last history_depth transactions
        self.per_participant_log: dict[int, deque] = {}
        self.responses: dict[str, OrderResponse] = {}
        self.handled: dict[str, int] = {}  # tx_id -> copies handled here
        self.confirmed: dict[str, int] = {}  # tx_id -> copies its host sent
        self.bucket = TokenBucket(rate_per_s, burst)
        self.admission_enabled = admission_enabled
        self.rejected = 0

    def admit(self, req: OrderRequest, now_us: int):
        """The cached response of a request assigned before, else REJECT
        when the token bucket is empty, else ADMIT.  The confirmations
        the request carries are taken first."""
        self.confirm(req.answered)
        cached = self.responses.get(req.tx_id)
        if cached is not None:
            self._handled(req.tx_id)
            return cached
        if self.admission_enabled and self.bucket.admit(now_us) == REJECT:
            self.rejected += 1
            self._handled(req.tx_id)
            return REJECT
        return ADMIT

    def assign(self, req: OrderRequest) -> OrderResponse:
        """The next order number and, per participant, the transactions
        before it.  A request assigned before (a duplicate admitted while
        its first copy waited in the queue) gets the same response."""
        cached = self.responses.get(req.tx_id)
        if cached is not None:
            self._handled(req.tx_id)
            return cached
        order_no = self.next_order_no
        self.next_order_no += 1
        histories = {}
        for p in sorted(req.participants):
            log = self._log(p)
            histories[p] = list(log)
            log.append(req.tx_id)
        resp = OrderResponse(req.tx_id, order_no, histories)
        self.responses[req.tx_id] = resp
        self._handled(req.tx_id)
        return resp

    def confirm(self, answered):
        """Take a host's ``(tx_id, copies sent)`` pairs.  One for a
        transaction this server has not handled is dropped: its copies
        went elsewhere, or are still on their way."""
        for tx_id, copies in answered:
            handled = self.handled.get(tx_id)
            if handled is None:
                continue
            if handled >= copies:
                self._forget(tx_id)
            else:
                self.confirmed[tx_id] = copies

    def _handled(self, tx_id: str):
        """Count a copy once it is answered or rejected, not when it is
        admitted: a copy queued behind its first is still to be served
        when the host's confirmation lands."""
        handled = self.handled[tx_id] = self.handled.get(tx_id, 0) + 1
        if handled >= self.confirmed.get(tx_id, handled + 1):
            self._forget(tx_id)

    def _forget(self, tx_id: str):
        """Every copy of ``tx_id`` has been handled here."""
        self.responses.pop(tx_id, None)
        del self.handled[tx_id]
        self.confirmed.pop(tx_id, None)

    def handle_order_request(self, req: OrderRequest, now_us: int):
        """Returns an OrderResponse, or REJECT when admission denies."""
        verdict = self.admit(req, now_us)
        return self.assign(req) if verdict == ADMIT else verdict

    def mirror(self, resp: OrderResponse):
        """A backup's copy of the primary's assignment ``resp`` (its
        SEQ_NOTE): number past it and log it for each participant.  The
        response itself is not cached."""
        self.next_order_no = max(self.next_order_no, resp.order_no + 1)
        for p in resp.histories:
            self._log(p).append(resp.tx_id)

    def _log(self, participant: int) -> deque:
        log = self.per_participant_log.get(participant)
        if log is None:
            log = self.per_participant_log[participant] = deque(
                maxlen=self.history_depth)
        return log


class OrderServer:
    """One order-service server, driven by kernel arrivals and timers.

    The active server numbers requests; a spare forwards them to it
    (SEQ_FWD).  Admitted requests wait in a FIFO queue served one per
    ``service_time_us`` (at once when that is 0).  Each assignment is
    noted to the operative peers (SEQ_NOTE), which mirror it, so a
    successor numbers past it and cuts histories from the same log."""

    def __init__(self, engine, node_id: int, servers: tuple, active: int,
                 state: OrderServerState, service_time_us: int,
                 jump_gap: int):
        self.engine = engine
        self.node_id = node_id
        self.servers = servers  # every server's id, this one's included
        self.active = active  # the server this one takes for the sequencer
        self.state = state
        self.service_time_us = service_time_us
        self.jump_gap = jump_gap
        self.queue: deque = deque()  # (request, origin); served when nonempty
        self.max_queue = 0

    def on_message(self, frm: int, kind: str, msg_id: str, payload):
        if kind in ("ORDER_REQ", "ORDER_RETRY"):
            self._ingest(payload, payload.tx_host)
        elif kind == "SEQ_FWD":
            req, origin = payload
            self._ingest(req, origin, forwarded=True)
        elif kind == "SEQ_NOTE":
            self.state.mirror(payload)

    def on_timer(self, key, data):
        if key[0] == "serve":
            req, origin = self.queue.popleft()
            self._assign(req, origin)
            if self.queue:
                self.engine.set_timer(self.node_id, self.service_time_us,
                                      ("serve",))
        elif key[0] == "promote":
            self._promote()

    def _ingest(self, req: OrderRequest, origin: int, forwarded=False):
        engine = self.engine
        if self.node_id != self.active and not forwarded:
            engine.send(self.node_id, self.active, "SEQ_FWD", req.tx_id,
                        (req, origin), {"via": self.node_id})
            return
        verdict = self.state.admit(req, engine.now)
        if verdict == REJECT:
            engine.trace.add(engine.now, self.node_id, "REJECT", req.tx_id)
            engine.send(self.node_id, origin, "ORDER_REJECT", req.tx_id, None)
        elif verdict != ADMIT:  # a repeated request: its cached response
            self._respond(origin, verdict)
        elif self.service_time_us <= 0:
            self._assign(req, origin)
        else:
            self.queue.append((req, origin))
            self.max_queue = max(self.max_queue, len(self.queue))
            if len(self.queue) == 1:
                engine.set_timer(self.node_id, self.service_time_us,
                                 ("serve",))

    def _assign(self, req: OrderRequest, origin: int):
        resp = self.state.assign(req)
        for peer in self.servers:
            if peer != self.node_id and not self.engine.is_crashed(peer):
                self.engine.send(self.node_id, peer, "SEQ_NOTE", req.tx_id,
                                 resp)
        self._respond(origin, resp)

    def _respond(self, origin: int, resp: OrderResponse):
        fields = {"order": resp.order_no}
        self.engine.trace.add(self.engine.now, self.node_id, "ORDER_ASSIGN",
                              resp.tx_id, fields)
        self.engine.send(self.node_id, origin, "ORDER_RESP", resp.tx_id,
                         resp, fields)

    def _promote(self):
        """After a crash: this server takes the highest operative server
        for the active one.  That successor numbers ``jump_gap`` past what
        it has mirrored, since the crashed primary's last notes may still
        be in flight."""
        successor = max(s for s in self.servers
                        if not self.engine.is_crashed(s))
        if successor == self.active:
            return
        self.active = successor
        if successor == self.node_id:
            self.state.next_order_no += self.jump_gap
            self.engine.trace.add(self.engine.now, self.node_id, "TAKEOVER",
                                  "", {"resume": self.state.next_order_no})


class ParticipantState:
    """Executes transactions in global order, skipping unrelated ones."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        # tx_id -> (order_no, history), from its order until it executes
        self.known_orders: dict[str, tuple] = {}
        self.executed_set: set[str] = set()
        self.pending_participations: set[str] = set()
        self._waiting: list = []  # (order_no, tx_id), kept sorted

    def note_participation(self, tx_id: str):
        if tx_id not in self.executed_set:
            self.pending_participations.add(tx_id)

    def on_order(self, tx_id: str, order_no: int, history) -> list[tuple]:
        """Record an order; returns the (tx_id, order_no) pairs that just
        became executable, in execution order.  ``history`` is kept as
        given, not copied."""
        if (tx_id not in self.pending_participations
                and tx_id not in self.executed_set):
            raise UnknownTransactionError(
                f"node {self.node_id} is not a participant of {tx_id}")
        if tx_id in self.executed_set or tx_id in self.known_orders:
            return []  # replayed forward
        self.known_orders[tx_id] = (order_no, history)
        bisect.insort(self._waiting, (order_no, tx_id))
        return self._drain()

    def _executable(self, tx_id: str) -> bool:
        """No preceding transaction of ours is unordered or unexecuted.
        An executed one has left ``pending_participations`` for good."""
        _, history = self.known_orders[tx_id]
        pending = self.pending_participations
        for dep in history:
            if dep in pending:
                return False
        return True

    def _drain(self) -> list[tuple]:
        newly = []
        progress = True
        while progress:
            progress = False
            remaining = []
            for order_no, tx_id in self._waiting:
                if self._executable(tx_id):
                    del self.known_orders[tx_id]
                    self.executed_set.add(tx_id)
                    self.pending_participations.discard(tx_id)
                    newly.append((tx_id, order_no))
                    progress = True
                else:
                    remaining.append((order_no, tx_id))
            self._waiting = remaining
        return newly


def message_cost_model(k: int, mode: str) -> int:
    """Per-transaction message count for k involved nodes.

    DIRECT: the host runs a GMD abcast among the k involved nodes with
    instant acks: (k-1) sends plus k*(k-1) ack sends.  SERVICE: one
    request, one response, k forwards.
    """
    if k < 1:
        raise ValueError("participant count must be >= 1")
    if mode == MODE_DIRECT:
        return k * k - 1
    if mode == MODE_SERVICE:
        return k + 2
    raise ValueError(f"unknown ordering mode {mode!r}")

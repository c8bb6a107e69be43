"""Scenario runtimes: wire protocol nodes and workloads onto the kernel.

AbcastRuntime drives a group of broadcast nodes (the abcast protocols
under test); OrderingRuntime drives tx hosts and participants, and wires
the order-service servers (``OrderServer``).  Both pre-draw the workload
from the dedicated workload RNG stream so the generated load is
identical across protocol modes for the same seed.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

from .config import ScenarioConfig
from .errors import SyncFailedError
from .insurance import InsuranceNode, MODE_ON_SUSPICION
from .kernel import Engine, NodeClock, _mix
from .ordering import (MODE_SERVICE, SERVER_BASE, OrderRequest, OrderServer,
                       OrderServerState, ParticipantState)


def _make_clock(cfg: ScenarioConfig, node_id: int, rng: random.Random,
                is_reference: bool) -> NodeClock:
    cc = cfg.clock
    if is_reference or (cc.init_offset_max_us == 0 and cc.drift_ppm_max == 0):
        return NodeClock(node_id)
    return NodeClock(
        node_id,
        offset_us=rng.randint(-cc.init_offset_max_us, cc.init_offset_max_us),
        drift_ppm=rng.randint(-cc.drift_ppm_max, cc.drift_ppm_max))


def _arrival_times(cfg: ScenarioConfig, rng: random.Random):
    """The workload's Poisson arrival times, in integer us, until the load
    stops.  A caller's own draws for an arrival go right after it is
    yielded, before the next gap is drawn."""
    horizon = max(0, cfg.duration_us - cfg.workload.stop_margin_us)
    mean_gap_us = 1e6 / cfg.workload.arrival_rate_per_s
    t = 0.0
    while True:
        t += rng.expovariate(1.0 / mean_gap_us)
        if t >= horizon:
            return
        yield int(t)


class AbcastRuntime:
    """A group of abcast nodes under a Poisson broadcast workload."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.engine = Engine(cfg.seed, cfg.build_network())
        self.membership = list(range(cfg.num_client_nodes))
        self.nodes: dict[int, InsuranceNode] = {}
        self.messages_total = 0
        clock_rng = random.Random(_mix(cfg.seed, 7))
        for node_id in self.membership:
            clock = _make_clock(cfg, node_id, clock_rng, node_id == 0)
            node = InsuranceNode(self.engine, node_id, self.membership, cfg)
            self.nodes[node_id] = node
            self.engine.add_node(
                node_id,
                on_message=node.on_message,
                on_timer=self._timer_handler(node),
                clock=clock)
        self._schedule_workload()
        self._schedule_faults()
        if cfg.clock.sync_enabled:
            for node_id in self.membership[1:]:
                self.engine.set_timer(node_id, cfg.resync_interval_us,
                                      ("resync",))
        if cfg.mode == MODE_ON_SUSPICION:
            for node in self.nodes.values():
                node.start_heartbeats()

    def _timer_handler(self, node: InsuranceNode):
        def handler(key, data):
            tag = key[0]
            if tag == "client":
                node.broadcast(payload=None)
                self.messages_total += 1
            elif tag == "view":
                node.on_new_view(key[1])
            elif tag == "resync":
                try:
                    self.engine.sync_clock_probabilistic(
                        node.node_id, 0, self.cfg.clock.sync_bound_us,
                        self.cfg.clock.sync_max_attempts)
                except SyncFailedError:
                    pass  # traced as SYNC_FAIL; deadlines keep epsilon_us
                self.engine.set_timer(node.node_id,
                                      self.cfg.resync_interval_us, ("resync",))
            else:
                node.on_timer(key, data)
        return handler

    def _schedule_workload(self):
        rng = self.engine.rng_workload
        for i, t in enumerate(_arrival_times(self.cfg, rng)):
            sender = rng.randrange(len(self.membership))
            self.engine.set_timer_at(sender, t, ("client", i))

    def _schedule_faults(self):
        cfg = self.cfg
        for entry in cfg.crash_schedule:
            crashed, at_us = entry["node"], entry["at_us"]
            self.engine.schedule_crash(crashed, at_us)
            view_at = at_us + cfg.view_install_delay_us
            for node_id in self.membership:
                if node_id != crashed:
                    self.engine.set_timer_at(node_id, view_at,
                                             ("view", crashed))

    def max_deadline_bound(self) -> int:
        return max((n.max_deadline_D for n in self.nodes.values()), default=0)


@dataclass(slots=True)
class _TxState:
    tx_id: str
    host: int
    group: tuple  # k involved client nodes, host included
    born_us: int
    attempts: int = 0
    server_cursor: int = 0
    responded: bool = False
    reqto_token: int = -1
    executed: int = 0  # participants that executed it
    done_us: int = -1


class OrderingRuntime:
    """Tx hosts + participants against either the order service or a
    direct per-transaction all-ack broadcast."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.engine = Engine(cfg.seed, cfg.build_network())
        self.clients = list(range(cfg.num_client_nodes))
        self.participants = {c: ParticipantState(c) for c in self.clients}
        self.txs: dict[str, _TxState] = {}
        self._rr_counter = 0
        self._direct_acks: dict[tuple, set] = {}
        self._direct_hybrid: dict[int, int] = {c: 0 for c in self.clients}
        self._direct_pending: dict[int, list] = {c: [] for c in self.clients}
        # host -> (tx_id, copies sent) of its answered transactions, sent
        # with its next request so the servers can drop those responses
        self._answered: dict[int, list] = {c: [] for c in self.clients}
        for c in self.clients:
            self.engine.add_node(c, on_message=self._client_message(c),
                                 on_timer=self._client_timer(c))
        self.servers: dict[int, OrderServer] = {}
        ids = tuple(range(SERVER_BASE, SERVER_BASE + cfg.num_order_servers))
        for s in ids:
            state = OrderServerState(
                rate_per_s=cfg.admission.rate_per_s,
                burst=cfg.admission.burst,
                history_depth=cfg.history_depth,
                admission_enabled=cfg.admission.enabled)
            server = self.servers[s] = OrderServer(
                self.engine, s, ids, max(ids), state,
                cfg.admission.service_time_us, cfg.sequencer_jump_gap)
            self.engine.add_node(s, on_message=server.on_message,
                                 on_timer=server.on_timer)
        self._schedule_workload()
        self._schedule_faults()

    # -- workload ------------------------------------------------------------

    def _schedule_workload(self):
        rng = self.engine.rng_workload
        k = min(self.cfg.workload.participant_count_dist, len(self.clients))
        for i, t in enumerate(_arrival_times(self.cfg, rng)):
            host = rng.randrange(len(self.clients))
            others = [c for c in self.clients if c != host]
            group = tuple([host] + sorted(rng.sample(others, k - 1)))
            tx_id = f"tx{i}"
            self.txs[tx_id] = _TxState(tx_id, host, group, t)
            self.engine.set_timer_at(host, t, ("tx", tx_id))

    def _schedule_faults(self):
        for entry in self.cfg.crash_schedule:
            self.engine.schedule_crash(entry["node"], entry["at_us"])
            # promotion check just after the crash becomes effective
            for s in self.servers:
                if s != entry["node"]:
                    self.engine.set_timer_at(s, entry["at_us"] + 1,
                                             ("promote",))

    # -- client side -----------------------------------------------------------

    def _client_timer(self, client: int):
        def handler(key, data):
            tag = key[0]
            if tag == "tx":
                self._start_tx(key[1])
            elif tag in ("retry", "reqto"):
                tx = self.txs[key[1]]
                if tx.responded:
                    return  # no copy after the first response
                if tag == "reqto":
                    tx.server_cursor += 1
                self._submit_request(key[1])
        return handler

    def _start_tx(self, tx_id: str):
        tx = self.txs[tx_id]
        for member in tx.group:
            # participants learned of the tx while executing it
            self.participants[member].note_participation(tx_id)
        if self.cfg.workload.ordering == MODE_SERVICE:
            self._submit_request(tx_id)
        else:
            self._direct_broadcast(tx)

    def _submit_request(self, tx_id: str):
        tx = self.txs[tx_id]
        operative = [s for s in self.servers if not self.engine.is_crashed(s)]
        if not operative:
            self.engine.trace.add(self.engine.now, tx.host, "NO_SERVERS",
                                  tx_id)
            return
        if tx.attempts == 0:
            tx.server_cursor = self._rr_counter
            self._rr_counter += 1
        server = operative[tx.server_cursor % len(operative)]
        kind = "ORDER_REQ" if tx.attempts == 0 else "ORDER_RETRY"
        tx.attempts += 1
        answered = self._answered[tx.host]
        req = OrderRequest(tx_id, tx.host, frozenset(tx.group),
                           tuple(answered))
        answered.clear()
        self.engine.send(tx.host, server, kind, tx_id, req,
                         {"frm": tx.host, "attempt": tx.attempts})
        tx.reqto_token = self.engine.set_timer(
            tx.host, self.cfg.workload.request_timeout_us, ("reqto", tx_id))

    def _cancel_reqto(self, tx: _TxState):
        if tx.reqto_token >= 0:
            self.engine.cancel_timer(tx.reqto_token)
            tx.reqto_token = -1

    def _client_message(self, client: int):
        def handler(frm, kind, msg_id, payload):
            if kind == "ORDER_RESP":
                self._on_response(client, payload)
            elif kind == "ORDER_REJECT":
                self._on_reject(client, msg_id)
            elif kind == "ORDER_FWD":
                tx_id, order_no, history = payload
                self._apply_order(client, tx_id, order_no, history)
            elif kind == "TX_MSG":
                self._on_tx_msg(client, payload)
            elif kind == "TX_ACK":
                tx_id, acker, acker_ts = payload
                self._on_tx_ack(client, tx_id, acker, acker_ts)
        return handler

    def _on_response(self, client: int, resp):
        tx = self.txs[resp.tx_id]
        self._cancel_reqto(tx)
        if tx.responded:
            return
        tx.responded = True
        self._answered[client].append((tx.tx_id, tx.attempts))
        # the order is forwarded to every participant, the host included
        fields = {"order": resp.order_no}
        for member in tx.group:
            history = resp.histories.get(member, [])
            self.engine.send(client, member, "ORDER_FWD", resp.tx_id,
                             (resp.tx_id, resp.order_no, history), fields)

    def _on_reject(self, client: int, tx_id: str):
        tx = self.txs[tx_id]
        self._cancel_reqto(tx)
        if tx.attempts > self.cfg.workload.max_retries:
            return  # give up; the transaction stays unordered
        backoff = min(
            self.cfg.workload.backoff_base_us * (2 ** (tx.attempts - 1)),
            self.cfg.workload.backoff_cap_us)
        self.engine.set_timer(client, backoff, ("retry", tx_id))

    def _apply_order(self, client: int, tx_id: str, order_no: int, history):
        part = self.participants[client]
        for done, done_order_no in part.on_order(tx_id, order_no, history):
            self._mark_executed(client, done, done_order_no)

    def _mark_executed(self, client: int, tx_id: str, order_no: int):
        """Called once per (transaction, participant): the participant's
        executed set and DIRECT's pending list each execute a tx once."""
        tx = self.txs[tx_id]
        tx.executed += 1
        self.engine.trace.add(self.engine.now, client, "EXEC", tx_id,
                              {"ts": order_no})
        if tx.executed == len(tx.group):
            tx.done_us = self.engine.now

    # -- direct (service-less) path ---------------------------------------------

    def _direct_stamp(self, client: int) -> int:
        ts = max(self.engine.now, self._direct_hybrid[client] + 1)
        self._direct_hybrid[client] = ts
        return ts

    def _direct_admit(self, client: int, tx_id: str, ts: int, host: int):
        self._direct_hybrid[client] = max(self._direct_hybrid[client], ts)
        bisect.insort(self._direct_pending[client], (ts, host, tx_id))

    def _direct_broadcast(self, tx: _TxState):
        ts = self._direct_stamp(tx.host)
        self._direct_admit(tx.host, tx.tx_id, ts, tx.host)
        payload = (tx.tx_id, ts, tx.group)
        for member in tx.group:
            if member != tx.host:
                self.engine.send(tx.host, member, "TX_MSG", tx.tx_id, payload,
                                 {"frm": tx.host, "ts": ts})
        self._send_tx_ack(tx.host, tx.tx_id, tx.group)

    def _on_tx_msg(self, client: int, payload):
        tx_id, ts, group = payload
        host = self.txs[tx_id].host
        self._direct_admit(client, tx_id, ts, host)
        self._send_tx_ack(client, tx_id, group)

    def _send_tx_ack(self, client: int, tx_id: str, group):
        acker_ts = self._direct_stamp(client)
        self._on_tx_ack(client, tx_id, client, acker_ts)
        for member in group:
            if member != client:
                self.engine.send(client, member, "TX_ACK", tx_id,
                                 (tx_id, client, acker_ts),
                                 {"frm": client, "ats": acker_ts})

    def _on_tx_ack(self, client: int, tx_id: str, acker: int, acker_ts: int):
        self._direct_hybrid[client] = max(self._direct_hybrid[client], acker_ts)
        acks = self._direct_acks.setdefault((tx_id, client), set())
        acks.add(acker)
        self._direct_drain(client)

    def _direct_drain(self, client: int):
        """Execute fully acked transactions in (ts, host) order; a pending
        earlier transaction holds everything behind it."""
        pending = self._direct_pending[client]
        while pending:
            ts, host, tx_id = pending[0]
            tx = self.txs[tx_id]
            acks = self._direct_acks.get((tx_id, client), ())
            if len(acks) < len(tx.group):
                break
            pending.pop(0)
            del self._direct_acks[(tx_id, client)]  # every member has acked
            self._mark_executed(client, tx_id, ts)

    @property
    def server_states(self) -> dict[int, OrderServerState]:
        return {s: server.state for s, server in self.servers.items()}

    def messages_per_tx(self) -> float:
        if not self.txs:
            return 0.0
        if self.cfg.workload.ordering == MODE_SERVICE:
            kinds = ("ORDER_REQ", "ORDER_RETRY", "ORDER_RESP", "ORDER_FWD")
        else:
            kinds = ("TX_MSG", "TX_ACK")
        total = sum(self.engine.send_counts.get(k, 0) for k in kinds)
        return total / len(self.txs)

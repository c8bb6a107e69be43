"""Scenario runtimes: wire protocol nodes and workloads onto the kernel.

AbcastRuntime drives a group of broadcast nodes (the abcast protocols
under test); OrderingRuntime drives the transaction clients
(``TxClient``) and the order-service servers (``OrderServer``).  A
runtime only builds the nodes, draws the workload and schedules the
faults; the protocols live in the nodes.  Both pre-draw the workload
from the dedicated workload RNG stream so the generated load is
identical across protocol modes for the same seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .config import ScenarioConfig
from .errors import SyncFailedError
from .insurance import InsuranceNode, MODE_ON_SUSPICION
from .kernel import Engine, NodeClock, _mix
from .ordering import (MODE_SERVICE, SERVER_BASE, OrderServer,
                       OrderServerState, TxClient)


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
    """A transaction as the workload drew it."""
    tx_id: str
    host: int
    group: tuple  # k involved client nodes, host first
    born_us: int


class OrderingRuntime:
    """Transaction clients against either the order service or a direct
    per-transaction all-ack broadcast."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.engine = Engine(cfg.seed, cfg.build_network())
        self.txs: dict[str, _TxState] = {}
        ids = tuple(range(SERVER_BASE, SERVER_BASE + cfg.num_order_servers))
        rr = itertools.count()  # round robin over first requests
        self.nodes: dict[int, TxClient] = {}
        for c in range(cfg.num_client_nodes):
            node = self.nodes[c] = TxClient(self.engine, c, cfg, ids, rr)
            self.engine.add_node(c, on_message=node.on_message,
                                 on_timer=self._timer_handler(node))
        self.servers: dict[int, OrderServer] = {}
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

    def _timer_handler(self, node: TxClient):
        def handler(key, data):
            if key[0] != "tx":
                return node.on_timer(key, data)
            tx = self.txs[key[1]]
            for member in tx.group:
                # participants learned of the tx while executing it
                self.nodes[member].participant.note_participation(tx.tx_id)
            node.start(tx.tx_id, tx.group)
        return handler

    def _schedule_workload(self):
        rng = self.engine.rng_workload
        k = min(self.cfg.workload.participant_count_dist, len(self.nodes))
        for i, t in enumerate(_arrival_times(self.cfg, rng)):
            host = rng.randrange(len(self.nodes))
            others = [c for c in self.nodes if c != host]
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

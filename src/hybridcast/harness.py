"""Experiment execution: run a scenario, measure it, sweep a parameter."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict
from typing import Optional

from .config import ScenarioConfig, config_from_dict
from .delays import nearest_rank
from .errors import ConfigInvalidError, IncompleteTraceError
from .kernel import _mix
from .oracle import CaseIndex, OrderIndex
from .runtime import AbcastRuntime, OrderingRuntime


@dataclass
class RunMetrics:
    delivered_total: int = 0
    case1_count: int = 0
    case2_count: int = 0
    case2_rate: float = 0.0
    gmd_path_count: int = 0
    deadline_path_count: int = 0
    order_violations: int = 0
    latency_percentiles: dict = field(default_factory=dict)  # p50/p99/p999, us
    messages_per_tx_mean: float = 0.0
    rejected_requests: int = 0
    blocked_interval_us: int = 0
    insurance_D_us: int = 0
    max_server_queue: int = 0
    events_processed: int = 0
    messages_total: int = 0
    sends_by_kind: dict = field(default_factory=dict)  # message kind -> sends
    # broadcasts: (broadcast, operative node) pairs never delivered;
    # transactions: transactions not executed at every participant
    undelivered_at_end: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunResult:
    config: ScenarioConfig
    metrics: RunMetrics
    trace: object
    deliveries: Optional[OrderIndex] = None  # broadcast runs
    members: tuple = ()  # the nodes ``delivered`` lists

    @property
    def delivered(self) -> dict:
        """node -> ordered list of msg_id strings (empty for transactions)."""
        if self.deliveries is None:
            return {}
        return self.deliveries.sequences(self.members)

    def write(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        self.trace.write_csv(os.path.join(out_dir, "trace.csv"))
        with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
            json.dump(self.metrics.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def latency_percentiles(latencies) -> dict:
    ordered = sorted(latencies)
    if not ordered:
        return {"p50_us": 0, "p99_us": 0, "p999_us": 0}
    return {
        "p50_us": nearest_rank(ordered, 0.50),
        "p99_us": nearest_rank(ordered, 0.99),
        "p999_us": nearest_rank(ordered, 0.999),
    }


def blocked_interval(deliveries_by_node: dict, crash_at: int,
                     duration_us: int) -> int:
    """Longest delivery drought at any operative node once the first crash
    has happened: the largest gap between consecutive deliveries, with the
    crash instant as the left edge and the end of the run as the right one."""
    worst = 0
    for times in deliveries_by_node.values():
        post = [t for t in times if t >= crash_at]
        if not post:
            worst = max(worst, duration_us - crash_at)
            continue
        edges = [crash_at] + post
        for prev, cur in zip(edges, edges[1:]):
            worst = max(worst, cur - prev)
    return worst


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    if cfg.workload.kind == "transactions":
        rt, run = OrderingRuntime(cfg), _run_transactions
    else:
        rt, run = AbcastRuntime(cfg), _run_broadcast
    try:
        return run(cfg, rt)
    finally:
        # a finished run frees itself by reference counting once dropped
        rt.engine.trace.on_record = None
        rt.engine.release()


def _run_broadcast(cfg: ScenarioConfig, rt: AbcastRuntime) -> RunResult:
    cases = CaseIndex(members=rt.membership)
    rt.engine.trace.on_record = cases.add
    events = rt.engine.run_until(cfg.duration_us)
    metrics = RunMetrics(events_processed=events,
                         messages_total=rt.messages_total,
                         sends_by_kind=dict(rt.engine.send_counts))
    metrics.latency_percentiles = latency_percentiles(cases.latencies)
    metrics.insurance_D_us = rt.max_deadline_bound()
    metrics.undelivered_at_end = cases.undelivered(cases.operative_nodes())
    delivered = cases.delivered
    metrics.delivered_total = len(delivered)
    if rt.messages_total:
        stats = cases.statistics()
        metrics.case1_count = stats["case1_count"]
        metrics.case2_count = stats["case2_count"]
        metrics.case2_rate = stats["case2_rate"]
        metrics.gmd_path_count = stats["gmd_path_count"]
        metrics.deadline_path_count = stats["deadline_path_count"]
        metrics.order_violations = len(delivered.violations())
    if cfg.crash_schedule:
        crash_at = min(e["at_us"] for e in cfg.crash_schedule)
        crashed = {e["node"] for e in cfg.crash_schedule}
        per_node = {n: delivered.times(n) for n in rt.membership
                    if n not in crashed}
        metrics.blocked_interval_us = blocked_interval(
            per_node, crash_at, cfg.duration_us)
    return RunResult(cfg, metrics, rt.engine.trace, delivered,
                     tuple(rt.membership))


def _run_transactions(cfg: ScenarioConfig, rt: OrderingRuntime) -> RunResult:
    executed = OrderIndex("EXEC")
    rt.engine.trace.on_record = executed.add
    events = rt.engine.run_until(cfg.duration_us)
    metrics = RunMetrics(events_processed=events,
                         messages_total=len(rt.txs),
                         sends_by_kind=dict(rt.engine.send_counts))
    # a transaction is done once every participant executed it
    count, last = executed.tallies()
    latencies = []
    for tx in rt.txs.values():
        m = executed.numbers.get(tx.tx_id)
        if m is not None and count[m] == len(tx.group):
            latencies.append(last[m] - tx.born_us)
    metrics.latency_percentiles = latency_percentiles(latencies)
    metrics.messages_per_tx_mean = rt.messages_per_tx()
    servers = rt.servers.values()
    metrics.rejected_requests = sum(s.state.rejected for s in servers)
    metrics.max_server_queue = max(s.max_queue for s in servers)
    metrics.delivered_total = len(latencies)
    metrics.undelivered_at_end = len(rt.txs) - metrics.delivered_total
    if len(rt.engine.trace) == 0:
        raise IncompleteTraceError("empty trace")
    metrics.order_violations = len(executed.violations())
    return RunResult(cfg, metrics, rt.engine.trace)


def derive_seed(base_seed: int, index: int) -> int:
    """Documented sweep-point seed: splitmix64 of the base and the index."""
    return _mix(base_seed, 101 + index) & 0x7FFFFFFFFFFFFFFF


def _set_axis(data: dict, axis: str, value):
    parts = axis.split(".")
    target = data
    for part in parts[:-1]:
        if part not in target or not isinstance(target[part], dict):
            raise ConfigInvalidError(f"unknown sweep axis {axis!r}")
        target = target[part]
    leaf = parts[-1]
    if leaf not in target:
        raise ConfigInvalidError(f"unknown sweep axis {axis!r}")
    if not isinstance(target[leaf], (int, float)) or isinstance(target[leaf], bool):
        raise ConfigInvalidError(f"sweep axis {axis!r} is not numeric")
    target[leaf] = type(target[leaf])(value)


def sweep(cfg_template: ScenarioConfig, axis: str, values) -> list:
    """One deterministic run per axis value; returns (value, RunMetrics) rows."""
    rows = []
    base = cfg_template.to_dict()
    for i, value in enumerate(values):
        data = json.loads(json.dumps(base))  # deep copy
        _set_axis(data, axis, value)
        data["seed"] = derive_seed(cfg_template.seed, i)
        cfg = config_from_dict(data)
        result = run_scenario(cfg)
        result.trace.close()
        rows.append((value, result.metrics))
    return rows


SWEEP_COLUMNS = [
    "delivered_total", "case1_count", "case2_count", "case2_rate",
    "gmd_path_count", "deadline_path_count", "order_violations",
    "messages_per_tx_mean", "rejected_requests", "blocked_interval_us",
    "insurance_D_us", "max_server_queue", "messages_total",
]


def sweep_csv_lines(axis: str, rows) -> list:
    header = [axis, "latency_p50_us", "latency_p99_us", "latency_p999_us"]
    header += SWEEP_COLUMNS
    lines = [",".join(header)]
    for value, metrics in rows:
        pct = metrics.latency_percentiles
        cells = [value, pct.get("p50_us", 0), pct.get("p99_us", 0),
                 pct.get("p999_us", 0)]
        cells += [getattr(metrics, col) for col in SWEEP_COLUMNS]
        lines.append(",".join(str(c) for c in cells))
    return lines

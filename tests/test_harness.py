import gc
import json
import weakref

import pytest

from hybridcast import harness
from hybridcast.config import config_from_dict
from hybridcast.errors import ConfigInvalidError
from hybridcast.harness import (
    blocked_interval,
    derive_seed,
    latency_percentiles,
    run_scenario,
    sweep,
    sweep_csv_lines,
)
from hybridcast.oracle import case_statistics, check_total_order
from hybridcast.runtime import AbcastRuntime
from hybridcast.trace import Trace


def broadcast_cfg(**over):
    data = {
        "seed": 7, "duration_us": 2_000_000, "mode": "HYBRID",
        "num_client_nodes": 4,
        "network": {"delay": {"family": "fixed", "value_us": 2000}},
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 100.0,
                     "stop_margin_us": 500_000},
    }
    data.update(over)
    return config_from_dict(data)


def tx_cfg(**over):
    data = {
        "seed": 7, "duration_us": 3_000_000,
        "num_client_nodes": 5, "num_order_servers": 2,
        "network": {"delay": {"family": "fixed", "value_us": 2000}},
        "workload": {"kind": "transactions", "arrival_rate_per_s": 100.0,
                     "participant_count_dist": 3, "ordering": "SERVICE"},
    }
    data.update(over)
    return config_from_dict(data)


def test_latency_percentiles_nearest_rank():
    pct = latency_percentiles(list(range(1, 101)))
    assert pct == {"p50_us": 50, "p99_us": 99, "p999_us": 100}
    assert latency_percentiles([]) == {"p50_us": 0, "p99_us": 0, "p999_us": 0}


def test_blocked_interval_gap_and_tail():
    per_node = {0: [50, 100, 400], 1: [60, 90]}
    # node 0: gaps 50 (to first), 50, 300; node 1 gaps 60, 30
    assert blocked_interval(per_node, crash_at=0, duration_us=1000) == 300
    assert blocked_interval({0: []}, crash_at=200, duration_us=1000) == 800


def test_broadcast_run_produces_metrics_and_trace():
    result = run_scenario(broadcast_cfg())
    m = result.metrics
    assert m.messages_total > 0
    assert m.delivered_total == m.messages_total * 4
    assert m.order_violations == 0
    assert m.case2_count == 0
    assert m.latency_percentiles["p50_us"] == 4000  # 2d with a fixed delay
    assert any(r.event_kind == "DELIVER" for r in result.trace)


def test_transactions_run_produces_metrics():
    m = run_scenario(tx_cfg()).metrics
    assert m.messages_total > 0
    assert m.delivered_total == m.messages_total
    assert m.messages_per_tx_mean == 5.0  # k + 2 for k = 3
    assert m.order_violations == 0


def test_metrics_count_sends_and_undelivered():
    m = run_scenario(broadcast_cfg()).metrics
    assert m.undelivered_at_end == 0
    assert m.sends_by_kind["INS_MSG"] == 2 * 3 * m.messages_total
    # GMD_ONLY sends one copy, and gap repair replaces what the network drops
    lossy = run_scenario(broadcast_cfg(
        mode="GMD_ONLY",
        network={"delay": {"family": "fixed", "value_us": 2000},
                 "drop_prob": 0.01})).metrics
    assert lossy.undelivered_at_end == 0
    assert lossy.order_violations == 0
    assert lossy.sends_by_kind["INS_MSG"] == 3 * lossy.messages_total
    assert (lossy.undelivered_at_end
            == 4 * lossy.messages_total - lossy.delivered_total)
    tx = run_scenario(tx_cfg()).metrics
    assert tx.undelivered_at_end == 0
    assert tx.sends_by_kind["ORDER_REQ"] == tx.messages_total


def test_undelivered_counts_only_the_survivors():
    result = run_scenario(broadcast_cfg(
        crash_schedule=[{"node": 3, "at_us": 800_000}],
        view_install_delay_us=300_000))
    m = result.metrics
    missed = m.messages_total - len(result.delivered[3])
    assert missed > 0  # what the crashed member never delivered
    assert m.delivered_total == 4 * m.messages_total - missed
    assert m.undelivered_at_end == 0
    # a survivor that nothing reached, and that sent nothing, counts too
    cut_off = run_scenario(broadcast_cfg(
        network={"delay": {"family": "fixed", "value_us": 2000},
                 "drop_prob": 1.0},
        workload={"kind": "broadcast", "arrival_rate_per_s": 5.0,
                  "stop_margin_us": 500_000}))
    assert cut_off.delivered[2] == []
    m = cut_off.metrics
    assert m.messages_total == m.delivered_total == 3
    assert m.undelivered_at_end == 9


def test_write_outputs(tmp_path):
    result = run_scenario(broadcast_cfg())
    result.write(tmp_path / "out")
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["delivered_total"] == result.metrics.delivered_total
    assert (tmp_path / "out" / "trace.csv").exists()


def test_online_case_counts_match_the_written_trace(tmp_path):
    # test_acceptance's shift scenario, shortened: the deadline bound is
    # trained on delays 10x smaller than those after the shift at 1.5 s
    cfg = config_from_dict({
        "seed": 9, "duration_us": 3_000_000, "mode": "HYBRID",
        "num_client_nodes": 5, "percentile": 0.9, "safety_margin_us": 0,
        "network": {
            "delay": {"family": "lognormal", "median_us": 5000, "sigma": 0.5},
            "shifts": [{"at_us": 1_500_000,
                        "delay": {"family": "lognormal", "median_us": 50_000,
                                  "sigma": 0.5}}],
        },
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 200.0},
    })
    metrics = _compare_online_and_written_case_counts(cfg, tmp_path)
    assert metrics["case2_count"] > 0


def _compare_online_and_written_case_counts(cfg, tmp_path) -> dict:
    """Check a run's case counts, computed online, against those read back
    from its ``trace.csv``; returns its metrics."""
    run_scenario(cfg).write(tmp_path)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    trace = Trace.read_csv(tmp_path / "trace.csv")
    stats = case_statistics(trace)
    for key in ("case1_count", "case2_count", "case2_rate",
                "gmd_path_count", "deadline_path_count"):
        assert metrics[key] == stats[key], key
    assert metrics["order_violations"] == len(check_total_order(trace))
    assert metrics["delivered_total"] == sum(1 for _ in trace.of_kind("DELIVER"))
    return metrics


# Lost acks make receivers fall back to the full vector, which the trace
# records as ACK_FULL: a 3 % loss and a crash left in the view for 0.6 s
LOSSY_CRASH = {
    "seed": 5, "duration_us": 2_000_000, "mode": "HYBRID",
    "num_client_nodes": 5,
    "network": {"delay": {"family": "lognormal", "median_us": 3000,
                          "sigma": 0.5},
                "drop_prob": 0.03},
    "crash_schedule": [{"node": 2, "at_us": 700_000}],
    "view_install_delay_us": 600_000,
    "workload": {"kind": "broadcast", "arrival_rate_per_s": 200.0,
                 "stop_margin_us": 300_000},
}


def test_online_case_counts_match_the_written_trace_of_a_lossy_crash_run(
        tmp_path):
    _compare_online_and_written_case_counts(config_from_dict(LOSSY_CRASH),
                                            tmp_path)
    trace = Trace.read_csv(tmp_path / "trace.csv")
    assert any(True for _ in trace.of_kind("ACK_FULL"))


def test_the_written_trace_rebuilds_every_newest_vector(tmp_path):
    """An ack arrival records only the entries that moved since the
    acker's previous ack, and an ACK_FULL record follows one that came
    after a lost ack; applied in record order they rebuild, for every live
    node, each member's newest vector as the node holds it."""
    cfg = config_from_dict(LOSSY_CRASH)
    rt = AbcastRuntime(cfg)
    try:
        rt.engine.run_until(cfg.duration_us)
        rt.engine.trace.write_csv(tmp_path / "trace.csv")
    finally:
        rt.engine.release()
    rebuilt, full = {}, 0
    with Trace.read_csv(tmp_path / "trace.csv") as trace:
        for rec in trace:
            if rec.event_kind == "INS_ACK":
                link = (rec.node, rec.fields["frm"])
                rebuilt.setdefault(link, {}).update(rec.fields.get("d", {}))
            elif rec.event_kind == "ACK_FULL":
                rebuilt[(rec.node, rec.fields["frm"])] = rec.fields["seen"]
                full += 1
    assert full > 0
    live = [n for n in rt.nodes.values()
            if not rt.engine.is_crashed(n.node_id)]
    assert len(live) == 4
    for node in live:
        assert node.gmd.acks  # every member acked something
        for acker, seen in node.gmd.acks.items():
            assert rebuilt[(node.node_id, acker)] == seen, (node.node_id,
                                                            acker)


def test_online_exec_order_check_matches_the_written_trace(tmp_path):
    # DIRECT executes without a promise watermark, so EXEC order breaks
    cfg = tx_cfg(seed=21, num_client_nodes=8,
                 network={"delay": {"family": "lognormal", "median_us": 5000,
                                    "sigma": 1.0}},
                 workload={"kind": "transactions",
                           "arrival_rate_per_s": 100.0,
                           "participant_count_dist": 3,
                           "ordering": "DIRECT"})
    result = run_scenario(cfg)
    result.write(tmp_path)
    trace = Trace.read_csv(tmp_path / "trace.csv")
    assert result.metrics.order_violations > 0
    assert result.metrics.order_violations == len(
        check_total_order(trace, kind="EXEC"))


def test_a_finished_run_frees_itself(monkeypatch):
    # a crash, its view change, loss and clock resyncs (each fails, since
    # the 2 ms links exceed the 1 ms sync bound) exercise every timer
    broadcast = broadcast_cfg(
        network={"delay": {"family": "fixed", "value_us": 2000},
                 "drop_prob": 0.02},
        clock={"sync_enabled": True, "sync_bound_us": 1000},
        crash_schedule=[{"node": 3, "at_us": 800_000}],
        view_install_delay_us=300_000, resync_interval_us=400_000)
    takeover = tx_cfg(crash_schedule=[{"node": 1001, "at_us": 1_000_000}])
    runtimes = []

    def keep_weakref(cls):
        def construct(cfg):
            rt = cls(cfg)
            runtimes.append(weakref.ref(rt))
            return rt
        return construct

    for name in ("AbcastRuntime", "OrderingRuntime"):
        monkeypatch.setattr(harness, name,
                            keep_weakref(getattr(harness, name)))
    for cfg in (broadcast, takeover):  # first runs fill one-time caches
        run_scenario(cfg).trace.close()
    gc.collect()
    gc.disable()
    try:
        for cfg in (broadcast, takeover):
            result = run_scenario(cfg)
            result.trace.close()
            del result
            assert runtimes[-1]() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_crash_sets_blocked_interval():
    cfg = broadcast_cfg(duration_us=6_000_000, mode="GMD_ONLY",
                        view_install_delay_us=20_000_000,
                        crash_schedule=[{"node": 2, "at_us": 1_000_000}])
    m = run_scenario(cfg).metrics
    # view change never lands inside the run, so survivors stay blocked
    assert m.blocked_interval_us >= 4_000_000


def test_same_seed_same_trace(tmp_path):
    run_scenario(broadcast_cfg()).trace.write_csv(tmp_path / "a.csv")
    run_scenario(broadcast_cfg()).trace.write_csv(tmp_path / "b.csv")
    a = (tmp_path / "a.csv").read_bytes()
    assert a.count(b"\n") > 1 and a == (tmp_path / "b.csv").read_bytes()


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(7, 0) != derive_seed(8, 0)


def test_sweep_varies_axis_and_emits_csv():
    rows = sweep(broadcast_cfg(), "safety_margin_us", [0, 50_000])
    assert len(rows) == 2
    assert rows[0][0] == 0 and rows[1][0] == 50_000
    lines = sweep_csv_lines("safety_margin_us", rows)
    assert lines[0].startswith("safety_margin_us,")
    assert len(lines) == 3


def test_sweep_nested_axis():
    rows = sweep(broadcast_cfg(), "workload.arrival_rate_per_s", [50, 200])
    assert rows[0][1].messages_total < rows[1][1].messages_total


def test_sweep_bad_axis_rejected():
    with pytest.raises(ConfigInvalidError):
        sweep(broadcast_cfg(), "no_such_knob", [1])
    with pytest.raises(ConfigInvalidError):
        sweep(broadcast_cfg(), "workload.kind", [1])  # not numeric

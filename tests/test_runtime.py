import tracemalloc

from hybridcast.config import config_from_dict
from hybridcast.harness import run_scenario
from hybridcast.runtime import OrderingRuntime


def tx_cfg(**over):
    data = {
        "seed": 41, "duration_us": 10_000_000,
        "num_client_nodes": 5, "num_order_servers": 3,
        "workload": {"kind": "transactions", "arrival_rate_per_s": 100.0,
                     "participant_count_dist": 3, "ordering": "SERVICE"},
    }
    data.update(over)
    return config_from_dict(data)


def executes_once_everywhere(rt):
    """Whether every transaction has exactly one EXEC record at each of
    its participants, and no other, counted from the trace."""
    counts = {}
    for rec in rt.engine.trace.of_kind("EXEC"):
        key = (rec.msg_id, rec.node)
        counts[key] = counts.get(key, 0) + 1
    expected = {(tx.tx_id, p): 1 for tx in rt.txs.values() for p in tx.group}
    return bool(rt.txs) and counts == expected


def kind_counts(trace):
    counts = {}
    for rec in trace:
        counts[rec.event_kind] = counts.get(rec.event_kind, 0) + 1
    return counts


def test_spares_forward_to_the_active_sequencer():
    result = run_scenario(tx_cfg())
    counts = kind_counts(result.trace)
    assert counts.get("SEQ_FWD", 0) > 0
    assert counts.get("ORDER_ASSIGN", 0) == result.metrics.messages_total
    assert result.metrics.order_violations == 0


def test_sequencer_crash_triggers_takeover_and_completion():
    result = run_scenario(tx_cfg(
        crash_schedule=[{"node": 1002, "at_us": 3_000_000}]))
    counts = kind_counts(result.trace)
    assert counts.get("TAKEOVER", 0) == 1
    assert result.metrics.delivered_total == result.metrics.messages_total
    assert result.metrics.order_violations == 0


def test_takeover_order_numbers_jump_past_observed():
    result = run_scenario(tx_cfg(
        sequencer_jump_gap=1000,
        crash_schedule=[{"node": 1002, "at_us": 3_000_000}]))
    assigned = [int(r.detail_dict()["order"])
                for r in result.trace.of_kind("ORDER_ASSIGN")]
    before = [n for n in assigned if n <= 1000]
    after = [n for n in assigned if n > 1000]
    assert before and after
    # the successor resumed numbering strictly beyond the configured gap
    assert min(after) > max(before) + 900
    assert len(set(assigned)) == len(assigned)


def test_all_servers_dead_is_recorded_not_fatal():
    result = run_scenario(tx_cfg(
        num_order_servers=1, num_client_nodes=4,
        crash_schedule=[{"node": 1000, "at_us": 1_000_000}],
        workload={"kind": "transactions", "arrival_rate_per_s": 50.0,
                  "participant_count_dist": 2, "ordering": "SERVICE"}))
    counts = kind_counts(result.trace)
    assert counts.get("NO_SERVERS", 0) > 0
    assert result.metrics.delivered_total < result.metrics.messages_total


def test_direct_path_message_count_matches_model():
    result = run_scenario(tx_cfg(
        workload={"kind": "transactions", "arrival_rate_per_s": 100.0,
                  "participant_count_dist": 3, "ordering": "DIRECT"}))
    assert result.metrics.messages_per_tx_mean == 8.0  # 3*3 - 1


def test_direct_path_frees_each_ack_set_when_it_executes():
    rt = OrderingRuntime(tx_cfg(
        duration_us=3_000_000,
        workload={"kind": "transactions", "arrival_rate_per_s": 100.0,
                  "participant_count_dist": 3, "ordering": "DIRECT"}))
    rt.engine.run_until(rt.cfg.duration_us)
    assert executes_once_everywhere(rt)
    assert all(node.acks == {} for node in rt.nodes.values())


def test_participants_keep_no_order_of_an_executed_transaction():
    rt = OrderingRuntime(tx_cfg(
        duration_us=3_000_000,
        crash_schedule=[{"node": 1002, "at_us": 1_000_000}]))
    rt.engine.run_until(rt.cfg.duration_us)
    assert executes_once_everywhere(rt)
    for node in rt.nodes.values():
        part = node.participant
        assert part.executed_set and part.known_orders == {}


def test_a_transaction_run_holds_at_most_500_live_bytes_per_transaction():
    # What a run still holds once it is over, per transaction: mostly the
    # participants' executed sets.  A server drops a cached response once
    # its host has confirmed every copy, so only the last few answers per
    # host stay.  With every history copied and kept after execution, and
    # every server log kept whole, this was 2,347 bytes; with every
    # response cached for the run, 1,207; it is 295 now.  No oracle is
    # attached here; the harness's EXEC index adds about 130 more.
    rt = OrderingRuntime(config_from_dict({
        "seed": 5, "duration_us": 4_000_000, "num_client_nodes": 8,
        "num_order_servers": 3,
        "network": {"delay": {"family": "lognormal", "median_us": 5000,
                              "sigma": 0.5}},
        "workload": {"kind": "transactions", "arrival_rate_per_s": 600.0,
                     "participant_count_dist": 3, "ordering": "SERVICE"}}))
    rt.engine.run_until(1)  # one-time caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rt.engine.run_until(rt.cfg.duration_us)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert executes_once_everywhere(rt)
    assert grown <= 500 * len(rt.txs)


def test_a_host_sends_no_copy_of_an_answered_transaction():
    # A reject's backoff still pending when an earlier copy's answer
    # lands: the retry timer then fires for an answered transaction.
    rt = OrderingRuntime(tx_cfg(
        duration_us=2_000_000,
        workload={"kind": "transactions", "arrival_rate_per_s": 5.0,
                  "participant_count_dist": 3, "ordering": "SERVICE",
                  "backoff_base_us": 10_000}))
    tx = min(rt.txs.values(), key=lambda t: t.born_us)
    rt.engine.run_until(tx.born_us)  # the first copy goes out
    # a reject lands at +1 ms; the answer at +3 ms; the retry at +11 ms
    rt.engine.send(1002, tx.host, "ORDER_REJECT", tx.tx_id, None)
    rt.engine.run_until(rt.cfg.duration_us)
    assert tx.tx_id not in rt.nodes[tx.host].requests  # answered
    kinds = [r.event_kind for r in rt.engine.trace if r.msg_id == tx.tx_id]
    assert "ORDER_RETRY" not in kinds
    assert kinds.count("ORDER_RESP") == 1


def test_broadcast_runtime_with_drops_stays_consistent():
    cfg = config_from_dict({
        "seed": 90, "duration_us": 8_000_000, "mode": "HYBRID",
        "num_client_nodes": 5,
        "network": {"delay": {"family": "lognormal", "median_us": 5000,
                              "sigma": 0.5},
                    "drop_prob": 0.05},
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 100.0},
    })
    m = run_scenario(cfg).metrics
    # retransmissions recover every loss at this rate
    assert m.delivered_total == m.messages_total * 5
    assert m.order_violations == 0
    assert m.case2_count == 0


def test_heartbeat_acks_repair_a_lost_last_ack():
    # no crash and no suspicion: only the heartbeat, which carries each
    # node's ack record, replaces an ack lost after the last broadcast
    cfg = config_from_dict({
        "seed": 609676, "duration_us": 3_000_000,
        "mode": "HYBRID_ON_SUSPICION", "num_client_nodes": 4,
        "network": {"delay": {"family": "lognormal", "median_us": 5000,
                              "sigma": 0.5},
                    "drop_prob": 0.03},
        "heartbeat_interval_us": 100_000,
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 50.0,
                     "stop_margin_us": 500_000},
    })
    m = run_scenario(cfg).metrics
    assert m.undelivered_at_end == 0
    assert "HEARTBEAT" not in m.sends_by_kind


def test_resync_keeps_drifting_clocks_usable():
    cfg = config_from_dict({
        "seed": 77, "duration_us": 8_000_000, "mode": "HYBRID",
        "num_client_nodes": 5,
        "clock": {"init_offset_max_us": 2000, "drift_ppm_max": 50,
                  "sync_enabled": True, "sync_bound_us": 8000,
                  "sync_max_attempts": 10},
        "resync_interval_us": 2_000_000,
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 100.0},
    })
    result = run_scenario(cfg)
    assert any(True for _ in result.trace.of_kind("SYNC"))
    assert result.metrics.order_violations == 0


def test_crashed_sync_reference_does_not_abort_the_run():
    """Node 0 is the clock-sync reference; resyncs after its crash fail."""
    cfg = config_from_dict({
        "seed": 3, "duration_us": 2_000_000, "mode": "HYBRID",
        "num_client_nodes": 5,
        "network": {"delay": {"family": "lognormal", "median_us": 3000,
                              "sigma": 0.5}},
        "clock": {"init_offset_max_us": 200, "drift_ppm_max": 50,
                  "sync_enabled": True, "sync_bound_us": 3000},
        "resync_interval_us": 500_000,
        "crash_schedule": [{"node": 0, "at_us": 700_000}],
        "view_install_delay_us": 300_000,
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 100.0,
                     "stop_margin_us": 300_000},
    })
    result = run_scenario(cfg)
    synced = [r.sim_time_us for r in result.trace.of_kind("SYNC")]
    failed = [r.sim_time_us for r in result.trace.of_kind("SYNC_FAIL")]
    assert synced == [500_000] * 4
    assert failed == [1_000_000] * 4 + [1_500_000] * 4 + [2_000_000] * 4
    assert result.metrics.undelivered_at_end == 0
    assert result.metrics.order_violations == 0

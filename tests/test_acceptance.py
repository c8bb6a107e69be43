"""End-to-end acceptance criteria.

Each test is one criterion and prints a single PASS line on success
(pytest -s shows them; -v shows one line per criterion either way).
Tolerances are pinned in the assertions, not configurable.
"""

import random
import time

import pytest

from hybridcast.config import config_from_dict
from hybridcast.harness import run_scenario
from hybridcast.oracle import CASE_2, CaseIndex, check_total_order
from hybridcast.ordering import (
    MODE_DIRECT,
    MODE_SERVICE,
    OrderRequest,
    OrderServerState,
    ParticipantState,
    message_cost_model,
)


def report(line):
    print(f"PASS: {line}")


def broadcast_scenario(**over):
    data = {
        "seed": 0, "duration_us": 5_000_000, "mode": "HYBRID",
        "num_client_nodes": 5,
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 200.0},
    }
    data.update(over)
    return config_from_dict(data)


CRASH = [{"node": 2, "at_us": 3_000_000}]

THETA_US = 1000
EPSILON_US = 100


def shift_scenario(**over):
    data = {
        "seed": 9, "duration_us": 20_000_000, "mode": "HYBRID",
        "num_client_nodes": 5, "percentile": 0.9, "safety_margin_us": 0,
        "network": {
            "delay": {"family": "lognormal", "median_us": 5000, "sigma": 0.5},
            "shifts": [{"at_us": 10_000_000,
                        "delay": {"family": "lognormal", "median_us": 50_000,
                                  "sigma": 0.5}}],
        },
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 200.0},
    }
    data.update(over)
    return config_from_dict(data)


@pytest.fixture(scope="module")
def induced_case2_run():
    """A run where the pessimistic bound is trained on delays 10x smaller
    than what the network delivers in the second half."""
    return run_scenario(shift_scenario())


def test_c1_crash_free_hybrid_equals_gmd_only():
    start = time.monotonic()
    for seed in range(50):
        orders = {}
        for mode in ("GMD_ONLY", "HYBRID"):
            cfg = broadcast_scenario(seed=seed, mode=mode,
                                     duration_us=3_000_000,
                                     workload={"kind": "broadcast",
                                               "arrival_rate_per_s": 100.0})
            orders[mode] = run_scenario(cfg).delivered
        assert orders["HYBRID"] == orders["GMD_ONLY"], f"seed {seed} diverged"
        assert any(orders["HYBRID"].values()), f"seed {seed} delivered nothing"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(f"C1 crash-free delivery orders identical across modes, "
           f"50 seeds in {elapsed:.1f}s")


def test_c2_gmd_only_blocks_for_the_view_change_interval():
    cfg = broadcast_scenario(mode="GMD_ONLY", seed=7, duration_us=20_000_000,
                             view_install_delay_us=10_000_000,
                             crash_schedule=CRASH)
    m = run_scenario(cfg).metrics
    assert m.blocked_interval_us >= 9_900_000
    assert m.order_violations == 0
    report(f"C2 GMD-only blocked {m.blocked_interval_us}us >= 9.9s "
           f"under a 10s view change")


def test_c3_hybrid_blocking_bounded_by_deadline():
    cfg = broadcast_scenario(mode="HYBRID", seed=7, duration_us=20_000_000,
                             view_install_delay_us=10_000_000,
                             epsilon_us=EPSILON_US, theta_us=THETA_US,
                             crash_schedule=CRASH)
    result = run_scenario(cfg)
    m = result.metrics
    bound = m.insurance_D_us + EPSILON_US + 3 * THETA_US
    assert m.blocked_interval_us <= bound
    assert m.order_violations == 0
    # invariant: the deadline path never fires before the local deadline
    deadline_rows = 0
    for rec in result.trace.of_kind("DELIVER"):
        d = rec.detail_dict()
        if d.get("path") == "DEADLINE_PATH":
            deadline_rows += 1
            assert int(d["clk"]) >= int(d["dl"])
    assert deadline_rows > 0
    report(f"C3 hybrid blocked {m.blocked_interval_us}us <= D+eps+3theta "
           f"({bound}us); {deadline_rows} deadline deliveries all at or "
           f"past their deadline")


def test_c4_case2_rate_at_scale_and_monotone_knobs(induced_case2_run):
    start = time.monotonic()
    total_msgs = 0
    total_pairs = 0
    total_case2 = 0
    seed = 0
    while total_msgs < 100_000:
        cfg = broadcast_scenario(seed=1000 + seed, duration_us=26_000_000)
        result = run_scenario(cfg)
        m = result.metrics
        total_msgs += m.messages_total
        total_pairs += m.messages_total * cfg.num_client_nodes
        total_case2 += m.case2_count
        if m.case2_count == 0:
            assert m.order_violations == 0, f"seed {1000 + seed}"
        else:
            # violations are only tolerable between known Case-2 pairs
            index = CaseIndex(result.trace)
            for v in check_total_order(result.trace):
                assert (index.classify(v.first, v.node_a) == CASE_2
                        or index.classify(v.first, v.node_b) == CASE_2
                        or index.classify(v.second, v.node_a) == CASE_2
                        or index.classify(v.second, v.node_b) == CASE_2)
        seed += 1
    rate = total_case2 / total_pairs
    assert rate <= 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 600.0

    # three-point monotonicity in the pessimism knobs, measured where
    # Case 2 is actually reachable
    by_margin = [induced_case2_run.metrics.case2_count]
    for margin in (100_000, 400_000):
        by_margin.append(
            run_scenario(shift_scenario(safety_margin_us=margin)).metrics.case2_count)
    assert by_margin[0] >= by_margin[1] >= by_margin[2]
    by_pct = []
    for pct in (0.5, 0.9, 0.9999):
        if pct == 0.9:
            by_pct.append(induced_case2_run.metrics.case2_count)
        else:
            by_pct.append(
                run_scenario(shift_scenario(percentile=pct)).metrics.case2_count)
    assert by_pct[0] >= by_pct[1] >= by_pct[2]
    # the percentile reaches the estimators: a p50 bound, far tighter than
    # a p99.99 one, lets strictly more pairs reach Case 2
    assert by_pct[0] > by_pct[2]
    report(f"C4 case-2 rate {rate:.2e} <= 1e-4 over {total_msgs} messages "
           f"({total_pairs} pairs) in {elapsed:.0f}s; margin sweep "
           f"{by_margin}, percentile sweep {by_pct} both non-increasing")


def test_c5_case2_inducible_with_stale_bound(induced_case2_run):
    m = induced_case2_run.metrics
    assert m.case2_count > 0
    assert m.deadline_path_count > 0
    report(f"C5 10x delay shift with zero margin induced {m.case2_count} "
           f"case-2 pairs")


def test_c6_gmd_latency_is_two_hops_at_fixed_delay():
    d = 5000
    cfg = broadcast_scenario(
        seed=5, mode="GMD_ONLY", duration_us=10_000_000,
        network={"delay": {"family": "fixed", "value_us": d}},
        workload={"kind": "broadcast", "arrival_rate_per_s": 100.0})
    m = run_scenario(cfg).metrics
    p50 = m.latency_percentiles["p50_us"]
    assert 2 * d <= p50 <= 2 * d + 2
    report(f"C6 median delivery latency {p50}us within [2d, 2d+2] "
           f"for fixed d={d}us")


def test_c7_cost_and_latency_crossovers():
    # analytic model: direct wins at k=2, service from k=3 on, no flapping
    assert message_cost_model(2, MODE_DIRECT) < message_cost_model(2, MODE_SERVICE)
    assert message_cost_model(3, MODE_DIRECT) > message_cost_model(3, MODE_SERVICE)
    flips = 0
    prev = True
    for k in range(2, 16):
        direct_wins = (message_cost_model(k, MODE_DIRECT)
                       < message_cost_model(k, MODE_SERVICE))
        if direct_wins != prev:
            flips += 1
        prev = direct_wins
    assert flips == 1

    # measured: the same break-even appears in simulated completion latency
    winners = []
    for k in (2, 3, 4, 6):
        p50 = {}
        for ordering in (MODE_SERVICE, MODE_DIRECT):
            cfg = config_from_dict({
                "seed": 21, "duration_us": 10_000_000,
                "num_client_nodes": 8, "num_order_servers": 3,
                "default_d_us": 60_000,
                "network": {"delay": {"family": "lognormal",
                                      "median_us": 5000, "sigma": 1.0}},
                "workload": {"kind": "transactions",
                             "arrival_rate_per_s": 100.0,
                             "participant_count_dist": k,
                             "ordering": ordering},
            })
            m = run_scenario(cfg).metrics
            assert m.messages_per_tx_mean == message_cost_model(k, ordering)
            p50[ordering] = m.latency_percentiles["p50_us"]
        winners.append(p50[MODE_DIRECT] < p50[MODE_SERVICE])
    assert winners[0] is True and winners[-1] is False
    assert sum(1 for a, b in zip(winners, winners[1:]) if a != b) == 1
    report(f"C7 cost model flips once between k=2 and k=3; simulated "
           f"latency winner by k in (2,3,4,6): "
           f"{['DIRECT' if w else 'SERVICE' for w in winners]}")


def test_c8_history_oracle_and_cascaded_wait():
    rng = random.Random(90125)
    depth = 5
    srv = OrderServerState(history_depth=depth)
    full_log = {}
    for i in range(1000):
        group = frozenset(rng.sample(range(10), rng.randint(1, 5)))
        expected = {p: list(full_log.get(p, []))[-depth:] for p in group}
        resp = srv.assign(OrderRequest(f"t{i}", 0, group))
        assert resp.histories == expected
        for p in group:
            full_log.setdefault(p, []).append(f"t{i}")

    # cascaded-wait regression: an unordered older transaction does not
    # stall a newer one whose history proves independence at this node
    part = ParticipantState(0)
    part.note_participation("old-unordered")
    part.note_participation("new")
    assert part.on_order("new", 50, []) == [("new", 50)]
    assert part.on_order("old-unordered", 1, []) == [("old-unordered", 1)]
    report("C8 1000-request history oracle matches brute force; "
           "cascaded wait defeated by empty history")


def test_c9_flow_control():
    base = {
        "seed": 31, "duration_us": 10_000_000,
        "num_client_nodes": 6, "num_order_servers": 3,
        "admission": {"enabled": True, "rate_per_s": 200.0, "burst": 5,
                      "service_time_us": 300},
        "workload": {"kind": "transactions", "arrival_rate_per_s": 400.0,
                     "participant_count_dist": 3, "ordering": "SERVICE",
                     "max_retries": 0},
    }
    m = run_scenario(config_from_dict(base)).metrics
    frac = m.rejected_requests / m.messages_total
    assert abs(frac - 0.5) <= 0.05
    assert m.max_server_queue <= 50
    assert m.order_violations == 0

    no_admission = dict(base)
    no_admission["admission"] = {"enabled": False, "rate_per_s": 200.0,
                                 "burst": 5, "service_time_us": 5000}
    m2 = run_scenario(config_from_dict(no_admission)).metrics
    assert m2.rejected_requests == 0
    assert m2.max_server_queue > 100 * m.max_server_queue
    report(f"C9 2x offered load rejected at {frac:.2f} with queue <= "
           f"{m.max_server_queue}; admission off grew the queue to "
           f"{m2.max_server_queue}")


def test_c10_property_batteries_are_sized():
    import test_properties

    assert test_properties.BATTERY.max_examples >= 100
    suites = [
        test_properties.test_same_seed_yields_byte_equal_traces,
        test_properties.test_quantile_matches_sorted_window_oracle,
        test_properties.test_deadline_bound_monotone_in_every_input,
        test_properties.test_delivered_prefix_respects_promises,
        test_properties.test_duplicated_messages_change_nothing,
    ]
    assert len(suites) == 5
    report("C10 five property batteries present at >= 100 cases each")

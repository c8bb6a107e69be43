"""The benchmark's own output checks fire on doctored traces.

Run from the root of a checkout:  python3 -m pytest -q bench/test_checks.py
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import run  # noqa: E402
from hybridcast import config_from_dict, run_scenario  # noqa: E402
from hybridcast.runtime import OrderingRuntime  # noqa: E402

DURATION_US = 3_000_000
WINDOW = (0, DURATION_US - 1_000_000)


def records_of(trace):
    return [(r.sim_time_us, r.node, r.event_kind, r.msg_id, r.detail)
            for r in trace]


@pytest.fixture(scope="module")
def broadcast():
    cfg = config_from_dict({
        "seed": 5, "duration_us": DURATION_US, "mode": "HYBRID",
        "num_client_nodes": 4,
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 100.0}})
    result = run_scenario(cfg)
    return records_of(result.trace), result.metrics


@pytest.fixture(scope="module")
def transactions():
    data = {"seed": 5, "duration_us": DURATION_US, "num_client_nodes": 5,
            "workload": {"kind": "transactions", "arrival_rate_per_s": 200.0,
                         "participant_count_dist": 3}}
    txs = {tx_id: (tx.group, tx.born_us) for tx_id, tx in
           OrderingRuntime(config_from_dict(data)).txs.items()}
    return records_of(run_scenario(config_from_dict(data)).trace), txs


def problems_of(records):
    return checks.check_broadcast(records, range(4), WINDOW)["problems"]


def deliver_index(records, node):
    return [i for i, r in enumerate(records)
            if r[2] == "DELIVER" and r[1] == node]


def test_clean_broadcast_trace_passes(broadcast):
    records, metrics = broadcast
    report = checks.check_broadcast(records, range(4), WINDOW)
    assert report["problems"] == []
    assert report["ops"] == metrics.messages_total
    assert checks.percentiles(report["latencies"]) == metrics.latency_percentiles


def test_swapped_deliveries_break_order_and_timestamps(broadcast):
    records = list(broadcast[0])
    i, j = deliver_index(records, 1)[10:12]
    (ti, *rest_i), (tj, *rest_j) = records[i], records[j]
    records[i], records[j] = (ti, *rest_j), (tj, *rest_i)
    found = problems_of(records)
    assert any("opposite order" in p for p in found)
    assert any("larger timestamp" in p for p in found)


def test_dropped_delivery_is_missing(broadcast):
    records = list(broadcast[0])
    del records[deliver_index(records, 2)[5]]
    assert any("never delivers 1 of" in p for p in problems_of(records))


def test_repeated_delivery_is_caught(broadcast):
    records = list(broadcast[0])
    k = deliver_index(records, 3)[-1]
    records.insert(k + 1, records[k])
    assert any("twice" in p for p in problems_of(records))


def test_clean_transaction_trace_passes(transactions):
    records, txs = transactions
    report = checks.check_transactions(records, txs, range(5), WINDOW)
    assert report["problems"] == [] and report["caught"] == []
    assert len(report["latencies"]) == len(txs)


def test_inverted_executions_break_order(transactions):
    records, txs = list(transactions[0]), transactions[1]
    execs = [i for i, r in enumerate(records) if r[2] == "EXEC" and r[1] == 0]
    # two consecutive executions that another participant also runs
    i, j = next((a, b) for a, b in zip(execs, execs[1:])
                if set(txs[records[a][3]][0]) & set(txs[records[b][3]][0]) - {0})
    (ti, *rest_i), (tj, *rest_j) = records[i], records[j]
    records[i], records[j] = (ti, *rest_j), (tj, *rest_i)
    report = checks.check_transactions(records, txs, range(5), WINDOW)
    assert any("before" in p and "order" in p for p in report["problems"])
    assert any("opposite order" in p for p in report["problems"])
    assert report["caught"] == []


def test_jump_after_takeover_counts_as_caught_not_as_problem():
    # tx9 is ordered by the successor (resume 1000) and runs at node 0 ahead
    # of tx1, which the crashed sequencer ordered before it crashed.
    txs = {"tx1": ((0, 1), 0), "tx9": ((0, 1), 50)}
    records = [
        (10, 1002, "ORDER_ASSIGN", "tx1", "order=7"),
        (20, 1002, "CRASH", "", ""),
        (21, 1001, "TAKEOVER", "", "resume=1000"),
        (60, 1001, "ORDER_ASSIGN", "tx9", "order=1000"),
        (70, 0, "EXEC", "tx9", "ts=1000"),
        (80, 0, "EXEC", "tx1", "ts=7"),
        (90, 1, "EXEC", "tx1", "ts=7"),
        (95, 1, "EXEC", "tx9", "ts=1000"),
    ]
    report = checks.check_transactions(records, txs, (0, 1), (20, 200))
    assert report["problems"] == []
    assert report["caught"] == ["tx9"]
    assert report["takeover_us"] == 40


def test_stall_ignores_idle_time_but_not_waiting():
    start_of = {"a": 0, "b": 500}
    # a waits 100 us; then idle until b starts at 500 and waits 300 us
    assert checks.longest_stall([(100, "a"), (800, "b")], start_of,
                                 (0, 1000)) == 300


def test_benchmark_json_lists_what_the_run_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

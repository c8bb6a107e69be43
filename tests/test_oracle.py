import pytest

from hybridcast.errors import IncompleteTraceError
from hybridcast.oracle import (
    CASE_1,
    CASE_2,
    GMD_ORDERED,
    CaseIndex,
    case_statistics,
    check_total_order,
    classify_case,
)
from hybridcast.trace import Trace


def bcast(t, at, node, mid, ts):
    t.add(at, node, "BCAST", mid, {"ts": ts})


def deliver(t, at, node, mid, ts, path="GMD_PATH"):
    t.add(at, node, "DELIVER", mid, {"path": path, "ts": ts})


class TestCheckTotalOrder:
    def test_consistent_orders_pass(self):
        t = Trace()
        bcast(t, 0, 0, "0:0", 10)
        bcast(t, 5, 1, "1:0", 20)
        for node in (0, 1, 2):
            deliver(t, 100 + node, node, "0:0", 10)
            deliver(t, 200 + node, node, "1:0", 20)
        assert check_total_order(t) == []

    def test_pairwise_inversion_detected(self):
        t = Trace()
        deliver(t, 100, 0, "a", 1)
        deliver(t, 101, 0, "b", 2)
        deliver(t, 100, 1, "b", 2)
        deliver(t, 101, 1, "a", 1)
        violations = check_total_order(t)
        assert len(violations) >= 1
        v = violations[0]
        assert {v.first, v.second} == {"a", "b"}

    def test_disjoint_suffixes_allowed(self):
        # nodes agree on the common prefix and then see different messages
        t = Trace()
        deliver(t, 1, 0, "a", 1)
        deliver(t, 2, 0, "b", 2)
        deliver(t, 1, 1, "a", 1)
        deliver(t, 2, 1, "c", 3)
        assert check_total_order(t) == []

    def test_intra_node_timestamp_inversion(self):
        t = Trace()
        deliver(t, 1, 0, "late", 500)
        deliver(t, 2, 0, "early", 100)
        violations = check_total_order(t)
        assert len(violations) == 1
        assert violations[0].node_a == violations[0].node_b == 0

    def test_empty_trace_raises(self):
        with pytest.raises(IncompleteTraceError):
            check_total_order(Trace())

    def test_exec_kind_checks_transaction_order(self):
        t = Trace()
        t.add(1, 0, "EXEC", "t1", {"ts": 1})
        t.add(2, 0, "EXEC", "t2", {"ts": 2})
        t.add(1, 1, "EXEC", "t2", {"ts": 2})
        t.add(2, 1, "EXEC", "t1", {"ts": 1})
        assert len(check_total_order(t, kind="EXEC")) >= 1


class TestCaseClassification:
    def test_gmd_ordered(self):
        t = Trace()
        bcast(t, 0, 0, "0:0", 10)
        deliver(t, 100, 1, "0:0", 10, path="GMD_PATH")
        assert classify_case(t, "0:0", 1) == GMD_ORDERED

    def test_case1_when_knowledge_precedes_any_deadline_delivery(self):
        t = Trace()
        bcast(t, 0, 0, "0:0", 10)
        t.add(50, 1, "INS_MSG", "0:0", {"ts": 10, "seq": 0, "copy": 1, "frm": 0})
        deliver(t, 500, 1, "0:5", 400, path="DEADLINE_PATH")
        bcast(t, 390, 0, "0:5", 400)
        assert classify_case(t, "0:0", 1) == CASE_1

    def test_case2_when_larger_ts_deadline_delivered_first(self):
        t = Trace()
        bcast(t, 0, 0, "0:0", 10)  # never reaches node 1 in time
        bcast(t, 20, 2, "2:0", 30)
        deliver(t, 100, 1, "2:0", 30, path="DEADLINE_PATH")
        # node 1 first learns of 0:0 long after that deadline delivery
        t.add(5_000, 1, "INS_RELAY", "0:0",
              {"ts": 10, "seq": 0, "copy": 1, "frm": 2, "relay": 2})
        deliver(t, 5_001, 1, "0:0", 10, path="DEADLINE_PATH")
        assert classify_case(t, "0:0", 1) == CASE_2

    def test_seen_vector_counts_as_knowledge(self):
        t = Trace()
        bcast(t, 0, 0, "0:0", 10)
        bcast(t, 20, 2, "2:0", 30)
        # node 1 acked something whose seen-vector covers sender 0 seq 0
        t.add(50, 1, "INS_ACK", "2:0",
              {"frm": 1, "ats": 60, "seen": {0: 0, 2: 0}})
        deliver(t, 100, 1, "2:0", 30, path="DEADLINE_PATH")
        t.add(5_000, 1, "INS_RELAY", "0:0",
              {"ts": 10, "seq": 0, "copy": 1, "frm": 2, "relay": 2})
        assert classify_case(t, "0:0", 1) == CASE_1

    def test_unknown_message_raises(self):
        t = Trace()
        deliver(t, 1, 0, "a", 1)
        with pytest.raises(IncompleteTraceError):
            classify_case(t, "9:9", 0)

    def test_crashed_nodes_excluded_from_statistics(self):
        t = Trace()
        bcast(t, 0, 0, "0:0", 10)
        t.add(5, 1, "CRASH")
        deliver(t, 100, 0, "0:0", 10)
        deliver(t, 100, 2, "0:0", 10)
        stats = case_statistics(t)
        assert stats["pairs"] == 2  # nodes 0 and 2 only

    def test_statistics_counts(self):
        t = Trace()
        bcast(t, 0, 0, "0:0", 10)
        deliver(t, 50, 0, "0:0", 10, path="GMD_PATH")
        deliver(t, 60, 1, "0:0", 10, path="DEADLINE_PATH")
        stats = case_statistics(t)
        assert stats["gmd_ordered"] == 1
        assert stats["case1_count"] == 1
        assert stats["case2_count"] == 0
        assert stats["gmd_path_count"] == 1
        assert stats["deadline_path_count"] == 1

    def test_first_knowledge_prefers_earliest_evidence(self):
        t = Trace()
        bcast(t, 0, 0, "0:3", 10)
        t.add(40, 1, "INS_ACK", "9:9",
              {"frm": 1, "ats": 41, "seen": {0: 3}})
        t.add(70, 1, "INS_MSG", "0:3", {"ts": 10, "seq": 3, "copy": 1, "frm": 0})
        idx = CaseIndex(t)
        assert idx.first_knowledge("0:3", 1) == 40

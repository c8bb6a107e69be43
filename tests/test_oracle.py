import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from hybridcast.errors import IncompleteTraceError
from hybridcast.oracle import (
    CASE_1,
    CASE_2,
    GMD_ORDERED,
    CaseIndex,
    OrderIndex,
    OrderViolation,
    case_statistics,
    check_total_order,
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
        assert CaseIndex(t).classify("0:0", 1) == GMD_ORDERED

    def test_case1_when_knowledge_precedes_any_deadline_delivery(self):
        t = Trace()
        bcast(t, 0, 0, "0:0", 10)
        t.add(50, 1, "INS_MSG", "0:0", {"ts": 10, "seq": 0, "copy": 1, "frm": 0})
        deliver(t, 500, 1, "0:5", 400, path="DEADLINE_PATH")
        bcast(t, 390, 0, "0:5", 400)
        assert CaseIndex(t).classify("0:0", 1) == CASE_1

    def test_case2_when_larger_ts_deadline_delivered_first(self):
        t = Trace()
        bcast(t, 0, 0, "0:0", 10)  # never reaches node 1 in time
        bcast(t, 20, 2, "2:0", 30)
        deliver(t, 100, 1, "2:0", 30, path="DEADLINE_PATH")
        # node 1 first learns of 0:0 long after that deadline delivery
        t.add(5_000, 1, "INS_RELAY", "0:0",
              {"ts": 10, "seq": 0, "copy": 1, "frm": 2, "relay": 2})
        deliver(t, 5_001, 1, "0:0", 10, path="DEADLINE_PATH")
        assert CaseIndex(t).classify("0:0", 1) == CASE_2

    def test_seen_vector_counts_as_knowledge(self):
        t = Trace()
        bcast(t, 0, 0, "0:0", 10)
        bcast(t, 20, 2, "2:0", 30)
        # node 1 got an ack whose seen-vector covers sender 0 seq 0
        t.add(50, 1, "INS_ACK", "2:0",
              {"frm": 2, "ats": 60, "v": 1, "d": {0: 0, 2: 0}})
        deliver(t, 100, 1, "2:0", 30, path="DEADLINE_PATH")
        t.add(5_000, 1, "INS_RELAY", "0:0",
              {"ts": 10, "seq": 0, "copy": 1, "frm": 2, "relay": 2})
        assert CaseIndex(t).classify("0:0", 1) == CASE_1

    def test_a_full_vector_after_a_lost_ack_counts_as_knowledge(self):
        t = Trace()
        bcast(t, 0, 0, "0:0", 10)
        bcast(t, 20, 2, "2:0", 30)
        t.add(30, 1, "INS_ACK", "", {"frm": 2, "ats": 31, "v": 1})
        # ack 2, which covered 0:0, was lost; ack 3 moved only sender 2
        t.add(50, 1, "INS_ACK", "2:0",
              {"frm": 2, "ats": 60, "v": 3, "d": {2: 0}})
        t.add(50, 1, "ACK_FULL", "", {"frm": 2, "seen": {0: 0, 2: 0}})
        deliver(t, 100, 1, "2:0", 30, path="DEADLINE_PATH")
        t.add(5_000, 1, "INS_RELAY", "0:0",
              {"ts": 10, "seq": 0, "copy": 1, "frm": 2, "relay": 2})
        assert CaseIndex(t).first_knowledge("0:0", 1) == 50
        assert CaseIndex(t).classify("0:0", 1) == CASE_1

    def test_unknown_message_raises(self):
        t = Trace()
        deliver(t, 1, 0, "a", 1)
        with pytest.raises(IncompleteTraceError):
            CaseIndex(t).classify("9:9", 0)

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
              {"frm": 9, "ats": 41, "v": 1, "d": {0: 3}})
        t.add(70, 1, "INS_MSG", "0:3", {"ts": 10, "seq": 3, "copy": 1, "frm": 0})
        idx = CaseIndex(t)
        assert idx.first_knowledge("0:3", 1) == 40

    def test_an_id_without_a_seq_is_known_only_directly(self):
        # no seen-vector covers such an id, however high its marks
        t = Trace()
        bcast(t, 0, 0, "a", 10)
        t.add(20, 1, "INS_ACK", "0:0",
              {"frm": 0, "ats": 21, "v": 1, "d": {0: 99}})
        t.add(50, 1, "INS_MSG", "a", {"ts": 10, "copy": 1, "frm": 0})
        deliver(t, 60, 1, "a", 10, path="DEADLINE_PATH")
        deliver(t, 70, 0, "a", 10)
        idx = CaseIndex(t)
        assert idx.first_knowledge("a", 1) == 50
        assert idx.first_knowledge("a", 2) == math.inf
        assert case_statistics(t)["case1_count"] == 1
        assert CaseIndex(t).classify("a", 0) == GMD_ORDERED


def feed_synthetic_run(add, nodes, messages):
    """Per (message, node) pair a copy, an ack and a delivery, as a
    crash-free all-ack run records them; ids and times are fresh objects
    per record, as the trace's are.  Node ``k`` hears the acks of node
    ``k + 1``, each of which moved the one entry of the message it acks."""
    for m in range(messages):
        sender, seq = m % nodes, m // nodes
        t = 1000 * m
        add(t, sender, "BCAST", f"{sender}:{seq}", {"ts": t + 1, "d": 5})
        for k in range(nodes):
            if k != sender:
                add(t + 10 + k, k, "INS_MSG", f"{sender}:{seq}",
                    {"ts": t + 1, "seq": seq, "copy": 1, "frm": sender})
        moved = {sender: seq}
        for k in range(nodes):
            add(t + 30 + k, k, "INS_ACK", f"{sender}:{seq}",
                {"frm": (k + 1) % nodes, "ats": t + 40, "v": m + 1,
                 "d": moved})
        for k in range(nodes):
            add(t + 60 + k, k, "DELIVER", f"{sender}:{seq}",
                {"path": "GMD_PATH", "ts": t + 1})


def test_case_index_costs_at_most_100_bytes_per_pair():
    # A dict of strings per node cost about 340 bytes per pair here; typed
    # buffers keyed by message number cost about 60.
    nodes, messages = 12, 4000
    index = CaseIndex()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        feed_synthetic_run(index.add, nodes, messages)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert index.statistics()["gmd_ordered"] == nodes * messages
    assert grown <= 100 * nodes * messages


# -- the compact indexes against a plain reference ---------------------------
#
# The reference keeps every record and answers each question by scanning
# them, straight from the definitions in the oracle's docstrings.

REF_NODES = (0, 1, 2)
REF_IDS = ("0:0", "0:1", "1:0", "1:1", "2:0", "a", "b:x", "7")
_DIRECT = ("BCAST", "INS_MSG", "INS_RELAY")


def ref_seq(msg_id):
    """The integer after the first ``:``, or None."""
    parts = msg_id.split(":")
    try:
        return int(parts[1])
    except (IndexError, ValueError):
        return None


class Reference:
    def __init__(self, records):
        self.records = records  # (t, node, kind, msg_id, fields)
        self.bcast = {mid: (node, f["ts"])
                      for _, node, kind, mid, f in records if kind == "BCAST"}
        self.nodes = {r[1] for r in records}
        self.crashed = {r[1] for r in records if r[2] == "CRASH"}

    def deliveries(self, node, msg_id=None):
        return [(t, f) for t, n, kind, mid, f in self.records
                if kind == "DELIVER" and n == node
                and (msg_id is None or mid == msg_id)]

    def last_path(self, msg_id, node):
        paths = [f.get("path", "") for _, f in self.deliveries(node, msg_id)]
        return paths[-1] if paths else None

    def first_knowledge(self, msg_id, node):
        sender = self.bcast[msg_id][0]
        seq = ref_seq(msg_id)
        times = [math.inf]
        vectors = {}  # acker -> its newest vector, rebuilt record by record
        for t, n, kind, mid, f in self.records:
            if n != node:
                continue
            if kind in _DIRECT and mid == msg_id:
                times.append(t)
            if kind == "INS_ACK":  # the entries that moved
                vectors.setdefault(f["frm"], {}).update(f.get("d", {}))
            elif kind == "ACK_FULL":  # the whole vector, after a lost ack
                vectors[f["frm"]] = dict(f["seen"])
            else:
                continue
            if seq is not None and vectors[f["frm"]].get(sender, -1) >= seq:
                times.append(t)
        return min(times)

    def classify(self, msg_id, node):
        if msg_id not in self.bcast:
            raise IncompleteTraceError(msg_id)
        ts = self.bcast[msg_id][1]
        known = self.first_knowledge(msg_id, node)
        if any(f.get("path") == "DEADLINE_PATH" and t < known and f["ts"] > ts
               for t, f in self.deliveries(node)):
            return CASE_2
        if self.last_path(msg_id, node) == "GMD_PATH":
            return GMD_ORDERED
        return CASE_1

    def statistics(self):
        if not self.bcast:
            raise IncompleteTraceError("no broadcasts")
        operative = sorted(self.nodes - self.crashed)
        cases = [self.classify(mid, n) for mid in self.bcast
                 for n in operative]
        total = len(cases)
        pairs = {(n, mid) for _, n, kind, mid, _ in self.records
                 if kind == "DELIVER"}
        paths = [self.last_path(mid, n) for n, mid in pairs]
        return {
            "pairs": total,
            "gmd_ordered": cases.count(GMD_ORDERED),
            "case1_count": cases.count(CASE_1),
            "case2_count": cases.count(CASE_2),
            "case1_rate": cases.count(CASE_1) / total if total else 0.0,
            "case2_rate": cases.count(CASE_2) / total if total else 0.0,
            "gmd_path_count": paths.count("GMD_PATH"),
            "deadline_path_count": paths.count("DEADLINE_PATH"),
        }

    def undelivered(self, nodes):
        return sum(1 for n in nodes for mid in self.bcast
                   if self.last_path(mid, n) is None)

    def latencies(self):
        """Per sender's own delivery of a message broadcast earlier: its
        time minus the sender's first direct knowledge of the message."""
        out = []
        for i, (t, node, kind, mid, _) in enumerate(self.records):
            earlier = self.records[:i]
            if kind != "DELIVER" or not any(
                    k == "BCAST" and m == mid and n == node
                    for _, n, k, m, _ in earlier):
                continue
            known = min(s for s, n, k, m, _ in earlier
                        if n == node and m == mid and k in _DIRECT)
            out.append(t - known)
        return out

    def violations(self):
        seqs = {}
        for t, n, kind, mid, f in self.records:
            if kind == "DELIVER":
                seqs.setdefault(n, []).append((mid, f.get("ts")))
        nodes = sorted(seqs)
        out = []
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                pos_b = {mid: p for p, (mid, _) in enumerate(seqs[b])}
                best, prev = -1, None
                for mid, _ in seqs[a]:
                    p = pos_b.get(mid)
                    if p is None:
                        continue
                    if p < best:
                        out.append(OrderViolation(a, b, mid, prev))
                    else:
                        best, prev = p, mid
        for n in nodes:
            max_ts, prev = -1, None
            for mid, ts in seqs[n]:
                if ts is None:
                    continue
                if ts < max_ts:
                    out.append(OrderViolation(n, n, prev, mid))
                else:
                    max_ts, prev = ts, mid
        return out


_node = st.sampled_from(REF_NODES)
_mid = st.sampled_from(REF_IDS)
_ts = st.integers(min_value=0, max_value=12)
_deliver = st.tuples(st.just("DELIVER"), _node, _mid,
                     st.sampled_from(["GMD_PATH", "DEADLINE_PATH", None]),
                     st.none() | _ts)
_vector = st.dictionaries(st.integers(0, 2), st.integers(-1, 2), min_size=1)
_record = st.one_of(  # deliveries twice as often, so they repeat and cross
    st.tuples(st.just("BCAST"), _node, _mid, _ts),
    st.tuples(st.sampled_from(["INS_MSG", "INS_RELAY"]), _node, _mid),
    # (kind, receiver, acker, the entries that moved or the whole vector)
    st.tuples(st.just("INS_ACK"), _node, _node, st.none() | _vector),
    st.tuples(st.just("ACK_FULL"), _node, _node, _vector),
    _deliver,
    _deliver,
    st.tuples(st.just("CRASH"), _node),
)


@st.composite
def record_streams(draw):
    """Records in time order (ties allowed), at most one BCAST per id."""
    records, broadcast, t = [], set(), 0
    for rec in draw(st.lists(_record, min_size=10, max_size=60)):
        t += draw(st.integers(min_value=0, max_value=2))
        kind, node = rec[0], rec[1]
        mid, fields = "", {}
        if kind == "BCAST":
            mid, fields = rec[2], {"ts": rec[3]}
            if mid in broadcast:
                continue
            broadcast.add(mid)
        elif kind in ("INS_MSG", "INS_RELAY"):
            mid = rec[2]
        elif kind == "INS_ACK":
            mid = "0:0"
            fields = {"frm": rec[2]}
            if rec[3] is not None:
                fields["d"] = rec[3]
        elif kind == "ACK_FULL":
            fields = {"frm": rec[2], "seen": rec[3]}
        elif kind == "DELIVER":
            mid, path, ts = rec[2], rec[3], rec[4]
            if path == "DEADLINE_PATH" and ts is None:
                ts = 0  # a deadline delivery always carries its ts
            if path is not None:
                fields["path"] = path
            if ts is not None:
                fields["ts"] = ts
        records.append((t, node, kind, mid, fields))
    return records


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IncompleteTraceError:
        return IncompleteTraceError


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(record_streams())
@example([  # node 1 delivers 0:0 again, by another path, after 1:0
    (0, 0, "BCAST", "0:0", {"ts": 1}),
    (0, 1, "BCAST", "1:0", {"ts": 2}),
    (1, 1, "DELIVER", "0:0", {"path": "DEADLINE_PATH", "ts": 1}),
    (2, 1, "DELIVER", "1:0", {"path": "GMD_PATH", "ts": 2}),
    (3, 1, "DELIVER", "0:0", {"path": "GMD_PATH", "ts": 1}),
    (3, 0, "DELIVER", "1:0", {"path": "GMD_PATH", "ts": 2}),
    (4, 0, "DELIVER", "0:0", {"path": "GMD_PATH"}),
])
def test_compact_indexes_match_the_reference(records):
    index = CaseIndex()
    order = OrderIndex("DELIVER")
    for rec in records:
        index.add(*rec)
        order.add(*rec)
    ref = Reference(records)
    assert _outcome(index.statistics) == _outcome(ref.statistics)
    probe_nodes = REF_NODES + (9,)  # 9 has no record at all
    for mid in REF_IDS:
        for node in probe_nodes:
            assert (_outcome(index.classify, mid, node)
                    == _outcome(ref.classify, mid, node)), (mid, node)
            if mid in ref.bcast:
                assert (index.first_knowledge(mid, node)
                        == ref.first_knowledge(mid, node)), (mid, node)
    assert index.undelivered(probe_nodes) == ref.undelivered(probe_nodes)
    assert list(index.latencies) == ref.latencies()
    assert index.delivered.violations() == ref.violations()
    assert order.violations() == ref.violations()
    assert len(order) == sum(1 for r in records if r[2] == "DELIVER")

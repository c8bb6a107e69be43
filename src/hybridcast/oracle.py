"""Trace-driven ground-truth oracles.

These work only from the run trace: per-node delivery sequences, the
pairwise relative-order check, and the classification of every
(message, operative node) pair into GMD-ordered, Case 1 (the node knew
of the message in time) or Case 2 (the node deadline-delivered a
later-timestamped message before ever learning of this one).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import IncompleteTraceError
from .trace import Trace

GMD_ORDERED = "GMD_ORDERED"
CASE_1 = "CASE_1"
CASE_2 = "CASE_2"

_KNOWLEDGE_KINDS = ("INS_MSG", "INS_RELAY", "GMD_MSG")


@dataclass(frozen=True)
class OrderViolation:
    node_a: int
    node_b: int  # == node_a for an intra-node timestamp inversion
    first: str
    second: str  # delivered in the opposite order at node_b (or ts-inverted)


def delivery_sequences(trace: Trace, kind: str = "DELIVER") -> dict:
    """Per-node ordered list of delivery records."""
    seqs: dict[int, list] = {}
    for rec in trace.of_kind(kind):
        seqs.setdefault(rec.node, []).append(rec)
    return seqs


def check_total_order(trace: Trace, kind: str = "DELIVER") -> list[OrderViolation]:
    """Every pair delivered in opposite relative order at two nodes, plus
    per-node deliveries that invert timestamp order."""
    seqs = delivery_sequences(trace, kind)
    if not seqs and not any(True for _ in trace.of_kind("BCAST")):
        if len(trace) == 0:
            raise IncompleteTraceError("empty trace")
    violations: list[OrderViolation] = []
    nodes = sorted(seqs)
    order_of = {
        n: {r.msg_id: i for i, r in enumerate(seqs[n])} for n in nodes
    }
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            pos_b = order_of[b]
            common = [r.msg_id for r in seqs[a] if r.msg_id in pos_b]
            best = -1
            prev_id = None
            for mid in common:
                p = pos_b[mid]
                if p < best:
                    violations.append(OrderViolation(a, b, mid, prev_id))
                else:
                    best = p
                    prev_id = mid
    # intra-node: delivery of m after m' with m.ts < m'.ts
    for n in nodes:
        max_ts = -1
        prev_id = None
        for rec in seqs[n]:
            ts = rec.fields.get("ts")
            if ts is None:
                continue
            if ts < max_ts:
                violations.append(OrderViolation(n, n, prev_id, rec.msg_id))
            else:
                max_ts = ts
                prev_id = rec.msg_id
    return violations


class CaseIndex:
    """One-pass index over a trace for per-pair case classification."""

    def __init__(self, trace: Trace):
        self.messages: dict[str, tuple] = {}  # msg_id -> (sender, ts)
        self.crashed: dict[int, int] = {}
        self.deliveries: dict[tuple, tuple] = {}  # (msg_id, node) -> (path, time)
        # knowledge via direct copies
        self._direct: dict[tuple, int] = {}  # (msg_id, node) -> first time
        # knowledge via seen-vectors: per (node, sender) a running-max timeline
        self._seen_times: dict[tuple, list] = {}
        self._seen_marks: dict[tuple, list] = {}
        # deadline deliveries per node: times plus prefix-max of ts
        self._dl_times: dict[int, list] = {}
        self._dl_tsmax: dict[int, list] = {}
        self.nodes: set[int] = set()
        self._build(trace)

    def _build(self, trace: Trace):
        for rec in trace:
            kind = rec.event_kind
            node = rec.node
            self.nodes.add(node)
            if kind == "BCAST":
                self.messages[rec.msg_id] = (node, rec.fields["ts"])
                self._direct.setdefault((rec.msg_id, node), rec.sim_time_us)
            elif kind in _KNOWLEDGE_KINDS:
                key = (rec.msg_id, node)
                if key not in self._direct:
                    self._direct[key] = rec.sim_time_us
            elif kind == "INS_ACK":
                seen = rec.fields.get("seen")
                for sender, mark in seen.items() if seen else ():
                    key = (node, sender)
                    marks = self._seen_marks.setdefault(key, [])
                    if marks and mark <= marks[-1]:
                        continue
                    self._seen_times.setdefault(key, []).append(rec.sim_time_us)
                    marks.append(mark)
            elif kind == "DELIVER":
                path = rec.fields.get("path", "")
                self.deliveries[(rec.msg_id, node)] = (path, rec.sim_time_us)
                if path == "DEADLINE_PATH":
                    ts = rec.fields["ts"]
                    tsmax = self._dl_tsmax.setdefault(node, [])
                    prev = tsmax[-1] if tsmax else -1
                    self._dl_times.setdefault(node, []).append(rec.sim_time_us)
                    tsmax.append(max(prev, ts))
            elif kind == "CRASH":
                self.crashed.setdefault(node, rec.sim_time_us)

    def operative_nodes(self) -> list[int]:
        return sorted(n for n in self.nodes if n not in self.crashed)

    def first_knowledge(self, msg_id: str, node: int) -> float:
        t = self._direct.get((msg_id, node), float("inf"))
        sender, _ = self.messages[msg_id]
        seq = int(msg_id.split(":")[1])
        key = (node, sender)
        marks = self._seen_marks.get(key)
        if marks:
            idx = bisect.bisect_left(marks, seq)
            if idx < len(marks):
                t = min(t, self._seen_times[key][idx])
        return t

    def superseded_before(self, node: int, ts: int, before: float) -> bool:
        """Did node deadline-deliver anything with larger ts before `before`?"""
        times = self._dl_times.get(node)
        if not times:
            return False
        idx = bisect.bisect_left(times, before)
        if idx == 0:
            return False
        return self._dl_tsmax[node][idx - 1] > ts

    def classify(self, msg_id: str, node: int) -> str:
        if msg_id not in self.messages:
            raise IncompleteTraceError(f"no broadcast record for {msg_id}")
        _, ts = self.messages[msg_id]
        known_at = self.first_knowledge(msg_id, node)
        if self.superseded_before(node, ts, known_at):
            return CASE_2
        path_time = self.deliveries.get((msg_id, node))
        if path_time is not None and path_time[0] == "GMD_PATH":
            return GMD_ORDERED
        return CASE_1


def classify_case(trace: Trace, msg_id: str, node: int) -> str:
    return CaseIndex(trace).classify(msg_id, node)


def case_statistics(trace: Trace) -> dict:
    """Aggregate classification over all (message, operative node) pairs."""
    index = CaseIndex(trace)
    if not index.messages:
        raise IncompleteTraceError("trace contains no broadcast records")
    counts = {GMD_ORDERED: 0, CASE_1: 0, CASE_2: 0}
    operative = index.operative_nodes()
    for msg_id in index.messages:
        for node in operative:
            counts[index.classify(msg_id, node)] += 1
    total = len(index.messages) * len(operative)
    gmd_path = sum(1 for p, _ in index.deliveries.values() if p == "GMD_PATH")
    deadline_path = sum(
        1 for p, _ in index.deliveries.values() if p == "DEADLINE_PATH")
    return {
        "pairs": total,
        "gmd_ordered": counts[GMD_ORDERED],
        "case1_count": counts[CASE_1],
        "case2_count": counts[CASE_2],
        "case1_rate": counts[CASE_1] / total if total else 0.0,
        "case2_rate": counts[CASE_2] / total if total else 0.0,
        "gmd_path_count": gmd_path,
        "deadline_path_count": deadline_path,
    }

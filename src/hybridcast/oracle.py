"""Trace-driven ground-truth oracles.

These work only from the run trace: per-node delivery sequences, the
pairwise relative-order check, and the classification of every
(message, operative node) pair into GMD-ordered, Case 1 (the node knew
of the message in time) or Case 2 (the node deadline-delivered a
later-timestamped message before ever learning of this one).

``OrderIndex`` and ``CaseIndex`` take one record at a time through
``add``, so a run feeds them online through ``Trace.on_record``;
``check_total_order`` and ``case_statistics`` feed them a whole trace.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

from .errors import IncompleteTraceError
from .trace import Trace

GMD_ORDERED = "GMD_ORDERED"
CASE_1 = "CASE_1"
CASE_2 = "CASE_2"

_KNOWLEDGE_KINDS = ("INS_MSG", "INS_RELAY")


@dataclass(frozen=True)
class OrderViolation:
    node_a: int
    node_b: int  # == node_a for an intra-node timestamp inversion
    first: str
    second: str  # delivered in the opposite order at node_b (or ts-inverted)


class OrderIndex:
    """Per-node sequences of one event kind (DELIVER or EXEC), fed record
    by record, and the relative-order check over them."""

    def __init__(self, kind: str = "DELIVER"):
        self.kind = kind
        self.ids: dict[int, list] = {}  # node -> msg_ids in record order
        self.ts: dict[int, list] = {}  # node -> their "ts" fields
        self.times: dict[int, list] = {}  # node -> their record times

    def add(self, t: int, node: int, kind: str, msg_id: str, fields):
        if kind != self.kind:
            return
        ids = self.ids.get(node)
        if ids is None:
            ids = self.ids[node] = []
            self.ts[node] = []
            self.times[node] = []
        ids.append(msg_id)
        self.ts[node].append(fields.get("ts"))
        self.times[node].append(t)

    def __len__(self):
        return sum(len(ids) for ids in self.ids.values())

    def violations(self) -> list[OrderViolation]:
        """Every pair recorded in opposite relative order at two nodes, plus
        per-node records that invert timestamp order."""
        violations: list[OrderViolation] = []
        nodes = sorted(self.ids)
        order_of = {
            n: {mid: i for i, mid in enumerate(self.ids[n])} for n in nodes
        }
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                pos_b = order_of[b]
                best = -1
                prev_id = None
                for mid in self.ids[a]:
                    p = pos_b.get(mid)
                    if p is None:
                        continue
                    if p < best:
                        violations.append(OrderViolation(a, b, mid, prev_id))
                    else:
                        best = p
                        prev_id = mid
        # intra-node: m recorded after m' with m.ts < m'.ts
        for n in nodes:
            max_ts = -1
            prev_id = None
            for mid, ts in zip(self.ids[n], self.ts[n]):
                if ts is None:
                    continue
                if ts < max_ts:
                    violations.append(OrderViolation(n, n, prev_id, mid))
                else:
                    max_ts = ts
                    prev_id = mid
        return violations


def _feed(records, add):
    for r in records:
        add(r.sim_time_us, r.node, r.event_kind, r.msg_id, r.fields)


def check_total_order(trace: Trace, kind: str = "DELIVER") -> list[OrderViolation]:
    """``OrderIndex.violations`` of a whole trace."""
    if len(trace) == 0:
        raise IncompleteTraceError("empty trace")
    index = OrderIndex(kind)
    _feed(trace.of_kind(kind), index.add)
    return index.violations()


class CaseIndex:
    """Index for per-pair case classification, fed record by record (or
    built from a whole trace); it keeps the DELIVER ``OrderIndex`` too."""

    def __init__(self, trace: Optional[Trace] = None):
        self.messages: dict[str, tuple] = {}  # msg_id -> (sender, ts)
        self.crashed: dict[int, int] = {}
        self.deliveries: dict[tuple, str] = {}  # (msg_id, node) -> path
        self.delivered = OrderIndex("DELIVER")
        # knowledge via direct copies
        self._direct: dict[tuple, int] = {}  # (msg_id, node) -> first time
        # knowledge via seen-vectors: per (node, sender) a running-max timeline
        self._seen_times: dict[tuple, list] = {}
        self._seen_marks: dict[tuple, list] = {}
        # deadline deliveries per node: times plus prefix-max of ts
        self._dl_times: dict[int, list] = {}
        self._dl_tsmax: dict[int, list] = {}
        self.nodes: set[int] = set()
        if trace is not None:
            _feed(trace, self.add)

    def add(self, t: int, node: int, kind: str, msg_id: str, fields):
        self.nodes.add(node)
        if kind == "BCAST":
            self.messages[msg_id] = (node, fields["ts"])
            self._direct.setdefault((msg_id, node), t)
        elif kind in _KNOWLEDGE_KINDS:
            key = (msg_id, node)
            if key not in self._direct:
                self._direct[key] = t
        elif kind == "INS_ACK":
            seen = fields.get("seen")
            for sender, mark in seen.items() if seen else ():
                key = (node, sender)
                marks = self._seen_marks.setdefault(key, [])
                if marks and mark <= marks[-1]:
                    continue
                self._seen_times.setdefault(key, []).append(t)
                marks.append(mark)
        elif kind == "DELIVER":
            path = fields.get("path", "")
            self.deliveries[(msg_id, node)] = path
            self.delivered.add(t, node, kind, msg_id, fields)
            if path == "DEADLINE_PATH":
                ts = fields["ts"]
                tsmax = self._dl_tsmax.setdefault(node, [])
                prev = tsmax[-1] if tsmax else -1
                self._dl_times.setdefault(node, []).append(t)
                tsmax.append(max(prev, ts))
        elif kind == "CRASH":
            self.crashed.setdefault(node, t)

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
        if self.deliveries.get((msg_id, node)) == "GMD_PATH":
            return GMD_ORDERED
        return CASE_1

    def statistics(self) -> dict:
        """Aggregate classification over all (message, operative node) pairs."""
        if not self.messages:
            raise IncompleteTraceError("trace contains no broadcast records")
        counts = {GMD_ORDERED: 0, CASE_1: 0, CASE_2: 0}
        operative = self.operative_nodes()
        for msg_id in self.messages:
            for node in operative:
                counts[self.classify(msg_id, node)] += 1
        total = len(self.messages) * len(operative)
        paths = list(self.deliveries.values())
        gmd_path = paths.count("GMD_PATH")
        deadline_path = paths.count("DEADLINE_PATH")
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


def classify_case(trace: Trace, msg_id: str, node: int) -> str:
    return CaseIndex(trace).classify(msg_id, node)


def case_statistics(trace: Trace) -> dict:
    """``CaseIndex.statistics`` of a whole trace."""
    return CaseIndex(trace).statistics()

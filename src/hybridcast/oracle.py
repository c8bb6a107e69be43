"""Trace-driven ground-truth oracles.

These work only from the run trace: per-node delivery sequences, the
pairwise relative-order check, and the classification of every
(message, operative node) pair into GMD-ordered, Case 1 (the node knew
of the message in time) or Case 2 (the node deadline-delivered a
later-timestamped message before ever learning of this one).

``OrderIndex`` and ``CaseIndex`` take one record at a time through
``add``, so a run feeds them online through ``Trace.on_record``;
``check_total_order`` and ``case_statistics`` feed them a whole trace.

Layout.  A run keeps these indexes whole until it ends, so they hold
plain integers in typed buffers rather than objects:

- ``numbers`` interns each msg_id string once, as a dense message number
  in order of first mention; ``list(numbers)`` turns numbers back into ids.
- Per message (``CaseIndex``): its sender, ``ts`` and seq, ``array('q')``
  indexed by number.  The seq is the integer after the first ``:`` of the
  id (``sender:seq``); an id without one can only be known directly.
- Per (message, node) pair, in the node's ``_NodeFacts``: the first
  direct-knowledge time (``array('q')`` indexed by number) and the code
  of the latest delivery's path (``bytearray``, 0 = not delivered).
- Per node and record kind (``OrderIndex``): one ``array('q')`` of
  (message number, ts, time) triples in record order.
- Per (node, sender): the seen-vector timeline, two ``array('q')`` of the
  marks at which that sender's coverage rose and the times it did.
- Per node: its deadline deliveries' times and the running max of their ts.

A slot that holds no value holds ``_UNSET``.  Buffers indexed by number
grow when a record first touches them, so every read checks the length.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

from .errors import IncompleteTraceError
from .trace import Trace

GMD_ORDERED = "GMD_ORDERED"
CASE_1 = "CASE_1"
CASE_2 = "CASE_2"

_DIRECT_KINDS = ("BCAST", "INS_MSG", "INS_RELAY")

_UNSET = -1 << 63  # an empty slot in a typed buffer (no time, ts or seq)
_STRIDE = 3  # an OrderIndex entry: message number, ts, time


@dataclass(frozen=True)
class OrderViolation:
    node_a: int
    node_b: int  # == node_a for an intra-node timestamp inversion
    first: str
    second: str  # delivered in the opposite order at node_b (or ts-inverted)


def _grow(buf, index: int, fill: int):
    """Extend ``buf`` with ``fill`` so that ``buf[index]`` exists."""
    buf.extend(repeat(fill, index + 1 - len(buf)))


def _seq_of(msg_id: str) -> int:
    """The seq of a ``sender:seq`` id, or ``_UNSET`` for any other id."""
    parts = msg_id.split(":")
    if len(parts) < 2:
        return _UNSET
    try:
        return int(parts[1])
    except ValueError:
        return _UNSET


class OrderIndex:
    """Per-node sequences of one event kind (DELIVER or EXEC), fed record
    by record, and the relative-order check over them."""

    def __init__(self, kind: str = "DELIVER"):
        self.kind = kind
        self.numbers: dict[str, int] = {}  # msg_id -> message number
        self._entries: dict[int, array] = {}  # node -> (number, ts, time)*

    def add(self, t: int, node: int, kind: str, msg_id: str, fields):
        if kind != self.kind:
            return
        numbers = self.numbers
        m = numbers.get(msg_id)
        if m is None:
            m = numbers[msg_id] = len(numbers)
        entries = self._entries.get(node)
        if entries is None:
            entries = self._entries[node] = array("q")
        ts = fields.get("ts")
        entries.append(m)
        entries.append(_UNSET if ts is None else ts)
        entries.append(t)

    def __len__(self):
        return sum(len(e) for e in self._entries.values()) // _STRIDE

    def _column(self, node: int, field: int) -> array:
        entries = self._entries.get(node)
        if entries is None:
            return array("q")
        return entries[field::_STRIDE]

    def times(self, node: int) -> array:
        """The record times at ``node``, in record order."""
        return self._column(node, 2)

    def tallies(self) -> tuple:
        """Two arrays indexed like ``numbers``: each message's records over
        every node, and the time of its last one."""
        count = array("q", [0]) * len(self.numbers)
        last = array("q", [0]) * len(self.numbers)
        for entries in self._entries.values():
            for m, t in zip(entries[0::_STRIDE], entries[2::_STRIDE]):
                count[m] += 1
                if t > last[m]:
                    last[m] = t
        return count, last

    def sequences(self, nodes) -> dict:
        """node -> its msg_ids in record order, for each of ``nodes``."""
        names = list(self.numbers)
        return {n: [names[m] for m in self._column(n, 0)] for n in nodes}

    def violations(self) -> list[OrderViolation]:
        """Every pair recorded in opposite relative order at two nodes, plus
        per-node records that invert timestamp order."""
        nodes = sorted(self._entries)
        # (a, b) -> [(m, m')]: m recorded after m' at a, before it at b.
        # One node's positions at a time: each holds one slot per message.
        inverted: dict[tuple, list] = {}
        for j, b in enumerate(nodes):
            pos_b = array("q", [-1]) * len(self.numbers)
            for i, m in enumerate(self._column(b, 0)):
                pos_b[m] = i  # a repeated record counts at its last place
            for a in nodes[:j]:
                found = []
                best = -1
                prev = -1
                for m in self._column(a, 0):
                    p = pos_b[m]
                    if p < 0:
                        continue
                    if p < best:
                        found.append((m, prev))
                    else:
                        best = p
                        prev = m
                if found:
                    inverted[(a, b)] = found
        names = list(self.numbers) + [None]  # number -1 names no message
        violations: list[OrderViolation] = []
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                for m, prev in inverted.get((a, b), ()):
                    violations.append(OrderViolation(a, b, names[m],
                                                      names[prev]))
        # intra-node: m recorded after m' with m.ts < m'.ts
        for n in nodes:
            max_ts = -1
            prev = -1
            for m, ts in zip(self._column(n, 0), self._column(n, 1)):
                if ts == _UNSET:
                    continue
                if ts < max_ts:
                    violations.append(OrderViolation(n, n, names[prev],
                                                     names[m]))
                else:
                    max_ts = ts
                    prev = m
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


class _NodeFacts:
    """What one node's records say, per message number and per sender."""

    __slots__ = ("direct", "paths", "seen", "dl_times", "dl_tsmax")

    def __init__(self):
        self.direct = array("q")  # number -> first direct-knowledge time
        self.paths = bytearray()  # number -> latest delivery's path code
        self.seen: dict[int, tuple] = {}  # sender -> (marks, times)
        self.dl_times = array("q")  # deadline deliveries' times
        self.dl_tsmax = array("q")  # running max of their ts


class CaseIndex:
    """Index for per-pair case classification, fed record by record (or
    built from a whole trace); it keeps the DELIVER ``OrderIndex`` too."""

    def __init__(self, trace: Optional[Trace] = None, members=()):
        self.delivered = OrderIndex("DELIVER")
        self.numbers = self.delivered.numbers  # one numbering for both
        self.crashed: dict[int, int] = {}
        # every node in a record, and every one of ``members``: a member
        # that nothing reached has missed every broadcast
        self.nodes: dict[int, _NodeFacts] = {n: _NodeFacts() for n in members}
        self.path_counts: dict[str, int] = {}  # path -> pairs delivered by it
        self.latencies = array("q")  # BCAST to the sender's own DELIVER
        # per message number, from its BCAST
        self._sender = array("q")
        self._ts = array("q")
        self._seq = array("q")
        self._path_codes: dict[str, int] = {}  # path -> code (from 1)
        self._path_names: list = [None]  # code -> path
        if trace is not None:
            _feed(trace, self.add)

    def add(self, t: int, node: int, kind: str, msg_id: str, fields):
        facts = self.nodes.get(node)
        if facts is None:
            facts = self.nodes[node] = _NodeFacts()
        if kind == "INS_ACK" or kind == "ACK_FULL":
            # an arrival holds the entries that moved since the acker's
            # previous ack, and a full record follows one that came after a
            # lost ack: between them every rise of every vector is read
            marks = fields.get("d" if kind == "INS_ACK" else "seen")
            if not marks:
                return
            lines = facts.seen
            for sender, mark in marks.items():
                line = lines.get(sender)
                if line is None:
                    lines[sender] = (array("q", (mark,)), array("q", (t,)))
                elif mark > line[0][-1]:  # the timeline keeps only rises
                    line[0].append(mark)
                    line[1].append(t)
            return
        if kind == "CRASH":
            self.crashed.setdefault(node, t)
            return
        if kind != "DELIVER" and kind not in _DIRECT_KINDS:
            return
        numbers = self.numbers
        m = numbers.get(msg_id)
        if m is None:
            m = numbers[msg_id] = len(numbers)
        if kind == "DELIVER":
            self.delivered.add(t, node, kind, msg_id, fields)
            self._deliver(t, node, facts, m, fields)
            return
        if kind == "BCAST":
            ts = fields["ts"]
            if m >= len(self._sender):
                for buf in (self._sender, self._ts, self._seq):
                    _grow(buf, m, _UNSET)
            self._sender[m] = node
            self._ts[m] = ts
            self._seq[m] = _seq_of(msg_id)
        direct = facts.direct
        if m >= len(direct):
            _grow(direct, m, _UNSET)
        if direct[m] == _UNSET:
            direct[m] = t

    def _deliver(self, t: int, node: int, facts: _NodeFacts, m: int,
                 fields):
        path = fields.get("path", "")
        code = self._path_codes.get(path)
        if code is None:
            code = self._path_codes[path] = len(self._path_names)
            self._path_names.append(path)
        paths = facts.paths
        if m >= len(paths):
            _grow(paths, m, 0)
        counts = self.path_counts
        old = paths[m]
        if old:  # a repeated delivery counts by its last path
            counts[self._path_names[old]] -= 1
        paths[m] = code
        counts[path] = counts.get(path, 0) + 1
        if m < len(self._sender) and self._sender[m] == node:
            # a sender first knows its message when it broadcasts it
            self.latencies.append(t - facts.direct[m])
        if path == "DEADLINE_PATH":
            ts = fields["ts"]
            tsmax = facts.dl_tsmax
            prev = tsmax[-1] if tsmax else -1
            facts.dl_times.append(t)
            tsmax.append(max(prev, ts))

    def operative_nodes(self) -> list[int]:
        return sorted(n for n in self.nodes if n not in self.crashed)

    def _broadcasts(self) -> array:
        """The numbers of the messages that have a BCAST record."""
        return array("q", (m for m, sender in enumerate(self._sender)
                           if sender != _UNSET))

    def _number(self, msg_id: str) -> int:
        m = self.numbers.get(msg_id)
        if m is None or m >= len(self._sender) or self._sender[m] == _UNSET:
            raise IncompleteTraceError(f"no broadcast record for {msg_id}")
        return m

    def undelivered(self, nodes) -> int:
        """(broadcast, node) pairs over ``nodes`` with no delivery."""
        broadcasts = self._broadcasts()
        missing = 0
        for n in nodes:
            facts = self.nodes.get(n)
            paths = facts.paths if facts is not None else b""
            missing += sum(1 for m in broadcasts
                           if m >= len(paths) or not paths[m])
        return missing

    def first_knowledge(self, msg_id: str, node: int) -> float:
        return self._known_at(self._number(msg_id), node)

    def _known_at(self, m: int, node: int) -> float:
        facts = self.nodes.get(node)
        if facts is None:
            return float("inf")
        direct = facts.direct
        t = direct[m] if m < len(direct) else _UNSET
        known = float("inf") if t == _UNSET else t
        seq = self._seq[m]
        line = facts.seen.get(self._sender[m]) if seq != _UNSET else None
        if line is not None:
            marks, times = line
            idx = bisect.bisect_left(marks, seq)
            if idx < len(marks) and times[idx] < known:
                known = times[idx]
        return known

    def superseded_before(self, node: int, ts: int, before: float) -> bool:
        """Did node deadline-deliver anything with larger ts before `before`?"""
        facts = self.nodes.get(node)
        if facts is None:
            return False
        idx = bisect.bisect_left(facts.dl_times, before)
        if idx == 0:
            return False
        return facts.dl_tsmax[idx - 1] > ts

    def classify(self, msg_id: str, node: int) -> str:
        return self._classify(self._number(msg_id), node)

    def _classify(self, m: int, node: int) -> str:
        if self.superseded_before(node, self._ts[m], self._known_at(m, node)):
            return CASE_2
        facts = self.nodes.get(node)
        paths = facts.paths if facts is not None else b""
        gmd = self._path_codes.get("GMD_PATH")
        if gmd is not None and m < len(paths) and paths[m] == gmd:
            return GMD_ORDERED
        return CASE_1

    def statistics(self) -> dict:
        """Aggregate classification over all (message, operative node) pairs."""
        broadcasts = self._broadcasts()
        if not broadcasts:
            raise IncompleteTraceError("trace contains no broadcast records")
        counts = {GMD_ORDERED: 0, CASE_1: 0, CASE_2: 0}
        operative = self.operative_nodes()
        for node in operative:
            for m in broadcasts:
                counts[self._classify(m, node)] += 1
        total = len(broadcasts) * len(operative)
        return {
            "pairs": total,
            "gmd_ordered": counts[GMD_ORDERED],
            "case1_count": counts[CASE_1],
            "case2_count": counts[CASE_2],
            "case1_rate": counts[CASE_1] / total if total else 0.0,
            "case2_rate": counts[CASE_2] / total if total else 0.0,
            "gmd_path_count": self.path_counts.get("GMD_PATH", 0),
            "deadline_path_count": self.path_counts.get("DEADLINE_PATH", 0),
        }


def case_statistics(trace: Trace) -> dict:
    """``CaseIndex.statistics`` of a whole trace."""
    return CaseIndex(trace).statistics()

"""Append-only run trace: the audit record every oracle consumes.

In memory a record's detail is a dict of typed fields (ints, strings and,
on acks, the seen-vector ``{sender: contiguous seq}``), shared by every
arrival record of one send and never mutated; the oracles read it
directly.  Only ``write_csv`` and ``read_csv`` know the text form
``sim_time_us,node,event_kind,msg_id,detail``: the detail is ``key=value``
pairs joined with ``;`` so the line stays comma-free (``None`` fields and
an empty seen-vector are left out), a seen-vector is ``sender:seq`` pairs
joined with ``|``, and integer text reads back as ``int``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import IncompleteTraceError

TRACE_HEADER = "sim_time_us,node,event_kind,msg_id,detail"

NO_FIELDS: Mapping = MappingProxyType({})


@dataclass(frozen=True, slots=True)
class TraceRecord:
    sim_time_us: int
    node: int
    event_kind: str
    msg_id: str
    fields: Mapping

    @property
    def detail(self) -> str:
        """The detail column as ``write_csv`` writes it."""
        return _detail_text(self.fields)

    def detail_dict(self) -> dict:
        """The detail column as text, ``key -> value``."""
        return dict(part.split("=", 1) for part in self.detail.split(";")
                    if part)


def format_detail(**kv) -> str:
    return ";".join(f"{k}={v}" for k, v in kv.items() if v is not None)


def format_seen(seen: dict) -> str:
    return "|".join(f"{s}:{q}" for s, q in sorted(seen.items()))


def parse_seen(text: str) -> dict:
    seen = {}
    if text:
        for part in text.split("|"):
            s, q = part.split(":")
            seen[int(s)] = int(q)
    return seen


def _detail_text(fields: Mapping) -> str:
    seen = fields.get("seen")
    if seen is not None:
        fields = {**fields, "seen": format_seen(seen) if seen else None}
    return format_detail(**fields)


def _parse_detail(text: str) -> dict:
    fields = {}
    for part in text.split(";"):
        if "=" in part:
            k, v = part.split("=", 1)
            if k == "seen":
                fields[k] = parse_seen(v)
            else:
                try:
                    fields[k] = int(v)
                except ValueError:
                    fields[k] = v
    return fields


class Trace:
    """In-memory list of trace records, flushed to CSV at run end."""

    def __init__(self):
        self.records: list[TraceRecord] = []

    def add(self, sim_time_us: int, node: int, kind: str, msg_id: str = "",
            fields: Mapping = NO_FIELDS):
        self.records.append(TraceRecord(sim_time_us, node, kind, msg_id, fields))

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def of_kind(self, kind: str) -> Iterable[TraceRecord]:
        return (r for r in self.records if r.event_kind == kind)

    def _csv_lines(self) -> Iterable[str]:
        yield TRACE_HEADER
        texts = {}  # id(fields) -> detail text, formatted once per shared dict
        for r in self.records:
            text = texts.get(id(r.fields))
            if text is None:
                text = texts[id(r.fields)] = _detail_text(r.fields)
            yield f"{r.sim_time_us},{r.node},{r.event_kind},{r.msg_id},{text}"

    def to_csv_lines(self) -> list[str]:
        return list(self._csv_lines())

    def write_csv(self, path):
        with open(path, "w") as fh:
            for line in self._csv_lines():
                fh.write(line)
                fh.write("\n")

    @classmethod
    def read_csv(cls, path) -> "Trace":
        trace = cls()
        parsed = {}  # detail text -> fields, shared like the originals
        with open(path) as fh:
            header = fh.readline().strip()
            if header != TRACE_HEADER:
                raise IncompleteTraceError(f"unexpected trace header: {header!r}")
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                t, node, kind, msg_id, detail = line.split(",", 4)
                fields = parsed.get(detail)
                if fields is None:
                    fields = parsed[detail] = _parse_detail(detail)
                trace.records.append(
                    TraceRecord(int(t), int(node), kind, msg_id, fields))
        return trace

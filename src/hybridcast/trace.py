"""Append-only run trace: the audit record every oracle consumes.

The trace is streamed: ``Trace.add`` writes each record's CSV line
``sim_time_us,node,event_kind,msg_id,detail`` to a spool file and keeps
nothing in memory, so a run's memory does not grow with its trace.  The
oracles run online instead: ``Trace.on_record`` receives every record's
typed fields as it is added.  ``write_csv`` copies the spool into
``trace.csv``; iterating a trace, ``of_kind`` and ``read_csv`` parse lines
back one at a time into ``TraceRecord``s.

A record's detail is a dict of typed fields (ints, strings and, on acks,
vectors ``{sender: contiguous seq}``), shared by every arrival record of
one send and never mutated.  An ``INS_ACK`` arrival holds ``frm``, the
stamp ``ats``, the acker's ack count ``v`` and, as ``d``, the entries of
its seen-vector that moved since its previous ack.  A receiver that got
some other version before this one adds an ``ACK_FULL`` record at the
same instant with ``frm`` and the whole vector as ``seen``.  Applying
each arrival's ``d`` and replacing the vector at each ``ACK_FULL``, in
record order, rebuilds every (receiver, acker)'s newest vector.

Only this module knows the text form: ``key=value`` pairs joined with
``;`` so the line stays comma-free (``None`` fields and empty vectors are
left out), a vector is ``sender:seq`` pairs joined with ``|``
(``d=4:55|7:3``), integer text reads back as ``int`` and other text
holding a ``:`` as a vector.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .errors import IncompleteTraceError

TRACE_HEADER = "sim_time_us,node,event_kind,msg_id,detail"

NO_FIELDS: Mapping = MappingProxyType({})

_READ_CHUNK = 1 << 16


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
        return detail_text(self.fields)

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


def detail_text(fields: Mapping) -> str:
    """The detail column of a record with these fields."""
    if not fields:
        return ""
    if any(type(v) is dict for v in fields.values()):
        fields = {k: (format_seen(v) or None) if type(v) is dict else v
                  for k, v in fields.items()}
    return format_detail(**fields)


def _parse_detail(text: str) -> dict:
    fields = {}
    for part in text.split(";"):
        if "=" in part:
            k, v = part.split("=", 1)
            try:
                fields[k] = int(v)
            except ValueError:
                fields[k] = parse_seen(v) if ":" in v else v
    return fields


def _record(t: str, node: str, kind: str, msg_id: str,
            detail: str) -> TraceRecord:
    return TraceRecord(int(t), int(node), kind, msg_id, _parse_detail(detail))


class Trace:
    """Trace records spooled as CSV lines to an anonymous temporary file.

    ``on_record``, when set, is called as ``on_record(sim_time_us, node,
    kind, msg_id, fields)`` for every record added: this is how the
    oracles follow a run without the trace being kept.
    """

    def __init__(self):
        self.on_record: Optional[Callable] = None
        self._spool = None  # opened by the first record
        self._count = 0

    def _open_spool(self):
        # write-only: read back through os.pread on its (O_RDWR) fd, and a
        # readable text wrapper resets its decoder on every write
        self._spool = tempfile.TemporaryFile("w", encoding="utf-8")
        return self._spool

    def add(self, sim_time_us: int, node: int, kind: str, msg_id: str = "",
            fields: Mapping = NO_FIELDS, detail: Optional[str] = None):
        """Record one event; ``detail`` is ``detail_text(fields)`` when a
        caller has already formatted it."""
        if detail is None:
            detail = detail_text(fields)
        (self._spool or self._open_spool()).write(
            f"{sim_time_us},{node},{kind},{msg_id},{detail}\n")
        self._count += 1
        if self.on_record is not None:
            self.on_record(sim_time_us, node, kind, msg_id, fields)

    def __len__(self):
        return self._count

    def close(self):
        """Delete the spool; the trace cannot be read after this."""
        if self._spool is not None:
            self._spool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _spooled(self) -> Iterator[bytes]:
        """The spool's bytes as of this call, read without moving the
        position that ``add`` writes at."""
        if self._spool is None:
            return
        self._spool.flush()
        fd = self._spool.fileno()
        end, offset = os.fstat(fd).st_size, 0
        while offset < end:
            chunk = os.pread(fd, min(_READ_CHUNK, end - offset), offset)
            offset += len(chunk)
            yield chunk

    def _lines(self) -> Iterator[str]:
        rest = b""
        for chunk in self._spooled():
            *lines, rest = (rest + chunk).split(b"\n")
            for line in lines:
                yield line.decode()

    def __iter__(self) -> Iterator[TraceRecord]:
        return (_record(*line.split(",", 4)) for line in self._lines())

    def of_kind(self, kind: str) -> Iterable[TraceRecord]:
        for parts in (line.split(",", 4) for line in self._lines()):
            if parts[2] == kind:
                yield _record(*parts)

    def write_csv(self, path):
        with open(path, "wb") as fh:
            fh.write(f"{TRACE_HEADER}\n".encode())
            for chunk in self._spooled():
                fh.write(chunk)

    @classmethod
    def read_csv(cls, path) -> "Trace":
        """The trace a CSV file holds.  Its lines are copied to the spool
        here and parsed as the trace is iterated."""
        trace = cls()
        with open(path) as fh:
            header = fh.readline().strip()
            if header != TRACE_HEADER:
                raise IncompleteTraceError(f"unexpected trace header: {header!r}")
            spool = trace._open_spool()
            for number, line in enumerate(fh, 2):
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.count(",") < 4:
                    raise IncompleteTraceError(
                        f"{path}:{number}: fewer than 5 columns")
                spool.write(f"{line}\n")
                trace._count += 1
        return trace

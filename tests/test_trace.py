import tracemalloc

import pytest

from hybridcast.errors import IncompleteTraceError
from hybridcast.trace import (
    TRACE_HEADER,
    Trace,
    TraceRecord,
    format_detail,
    format_seen,
    parse_seen,
)


def test_format_detail_skips_none():
    assert format_detail(a=1, b=None, c="x") == "a=1;c=x"


def test_detail_roundtrip():
    t = Trace()
    t.add(5, 1, "DELIVER", "0:3", {"path": "GMD_PATH", "ts": 42})
    rec = list(t)[0]
    assert rec.detail_dict() == {"path": "GMD_PATH", "ts": "42"}


def test_seen_roundtrip():
    seen = {3: 7, 0: 2, 11: 0}
    assert parse_seen(format_seen(seen)) == seen
    assert parse_seen("") == {}


def test_csv_roundtrip(tmp_path):
    added = [
        (1, 0, "BCAST", "0:0", {"ts": 1}),
        (2, 1, "DELIVER", "0:0", {"path": "GMD_PATH", "ts": 1}),
        (3, 2, "INS_ACK", "0:0", {"frm": 0, "ats": 4, "v": 3, "d": {0: 2}}),
        (3, 2, "ACK_FULL", "", {"frm": 0, "seen": {3: 7, 0: 2}}),
        (4, 1, "INS_ACK", "", {"frm": 2, "ats": 5, "v": 1}),  # nothing moved
        (9, 2, "DELIVER", "1:5",
         {"path": "DEADLINE_PATH", "ts": 2, "clk": 9, "dl": 8}),
        (10, 1, "DROP", "1:5", {"kind": "INS_MSG", "to": 3}),
    ]
    t = Trace()
    for rec in added:
        t.add(*rec)
    path = tmp_path / "trace.csv"
    t.write_csv(path)
    back = Trace.read_csv(path)
    assert list(t) == [TraceRecord(*rec) for rec in added]
    assert list(back) == list(t)
    again = tmp_path / "again.csv"
    back.write_csv(again)
    assert again.read_bytes() == path.read_bytes()
    assert path.read_text().splitlines()[0] == TRACE_HEADER


def test_read_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bogus.csv"
    path.write_text("time,who,what\n")
    with pytest.raises(IncompleteTraceError):
        Trace.read_csv(path)


def test_read_csv_rejects_short_lines(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(f"{TRACE_HEADER}\n1,0,BCAST,0:0,ts=1\n2,1,DELIVER\n")
    with pytest.raises(IncompleteTraceError):
        Trace.read_csv(path)


def test_of_kind_filters():
    t = Trace()
    t.add(1, 0, "BCAST", "0:0")
    t.add(2, 1, "DELIVER", "0:0")
    t.add(3, 2, "DELIVER", "0:0")
    assert len(list(t.of_kind("DELIVER"))) == 2
    assert len(list(t.of_kind("BCAST"))) == 1


def test_on_record_sees_every_added_record():
    t = Trace()
    seen = []
    t.on_record = lambda *rec: seen.append(rec)
    t.add(1, 0, "BCAST", "0:0", {"ts": 1})
    t.add(2, 1, "SYNC")
    assert seen == [(1, 0, "BCAST", "0:0", {"ts": 1}), (2, 1, "SYNC", "", {})]


def test_trace_memory_does_not_grow_with_records():
    fields = {"frm": 1, "ats": 10**6, "v": 9, "d": {0: 7}}
    tracemalloc.start()
    try:
        t = Trace()
        t.add(0, 0, "BCAST", "0:0", {"ts": 0})  # opens the spool
        before = tracemalloc.get_traced_memory()[0]
        for i in range(100_000):
            t.add(10**6 + i, i % 5, "INS_ACK", "0:0", fields)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(t) == 100_001
    assert grown < 1_000_000

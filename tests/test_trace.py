import pytest

from hybridcast.errors import IncompleteTraceError
from hybridcast.trace import (
    TRACE_HEADER,
    Trace,
    format_detail,
    format_seen,
    parse_seen,
)


def test_format_detail_skips_none():
    assert format_detail(a=1, b=None, c="x") == "a=1;c=x"


def test_detail_roundtrip():
    t = Trace()
    t.add(5, 1, "DELIVER", "0:3", {"path": "GMD_PATH", "ts": 42})
    rec = t.records[0]
    assert rec.detail_dict() == {"path": "GMD_PATH", "ts": "42"}


def test_seen_roundtrip():
    seen = {3: 7, 0: 2, 11: 0}
    assert parse_seen(format_seen(seen)) == seen
    assert parse_seen("") == {}


def test_csv_roundtrip(tmp_path):
    t = Trace()
    t.add(1, 0, "BCAST", "0:0", {"ts": 1})
    t.add(2, 1, "DELIVER", "0:0", {"path": "GMD_PATH", "ts": 1})
    t.add(3, 2, "INS_ACK", "0:0", {"frm": 2, "ats": 4, "seen": {3: 7, 0: 2}})
    t.add(9, 2, "DELIVER", "1:5",
          {"path": "DEADLINE_PATH", "ts": 2, "clk": 9, "dl": 8})
    t.add(10, 1, "DROP", "1:5", {"kind": "INS_MSG", "to": 3})
    path = tmp_path / "trace.csv"
    t.write_csv(path)
    back = Trace.read_csv(path)
    assert back.records == t.records
    assert back.to_csv_lines() == t.to_csv_lines()
    assert path.read_text().splitlines()[0] == TRACE_HEADER


def test_read_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bogus.csv"
    path.write_text("time,who,what\n")
    with pytest.raises(IncompleteTraceError):
        Trace.read_csv(path)


def test_of_kind_filters():
    t = Trace()
    t.add(1, 0, "BCAST", "0:0")
    t.add(2, 1, "DELIVER", "0:0")
    t.add(3, 2, "DELIVER", "0:0")
    assert len(list(t.of_kind("DELIVER"))) == 2
    assert len(list(t.of_kind("BCAST"))) == 1

import json

import pytest

from hybridcast.cli import main
from hybridcast.trace import Trace

GOOD_CONFIG = {
    "seed": 3, "duration_us": 1_500_000, "mode": "HYBRID",
    "num_client_nodes": 4,
    "network": {"delay": {"family": "fixed", "value_us": 2000}},
    "workload": {"kind": "broadcast", "arrival_rate_per_s": 100.0,
                 "stop_margin_us": 500_000},
}


def write_config(tmp_path, data=None):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data or GOOD_CONFIG))
    return str(path)


def test_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--config", write_config(tmp_path),
                 "--out", str(out)])
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["order_violations"] == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == metrics
    assert (out / "trace.csv").exists()


def test_simulate_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1}')
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"network": {"shifts": [{"at_us": 1000}]}},
    {"crash_schedule": [{"node": 2, "at_us": -500}]},
    {"crash_schedule": [{"node": 17, "at_us": 500}]},
    {"crash_schedule": [{"node": "two", "at_us": 500}]},
])
def test_simulate_meaningless_schedule_entry_exits_2(tmp_path, capsys,
                                                     change):
    out = tmp_path / "run"
    path = write_config(tmp_path, dict(GOOD_CONFIG, **change))
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1,,}')
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_check_trace_clean(tmp_path, capsys):
    out = tmp_path / "run"
    main(["simulate", "--config", write_config(tmp_path), "--out", str(out)])
    capsys.readouterr()
    assert main(["check-trace", str(out / "trace.csv")]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_trace_violation_exits_1(tmp_path, capsys):
    t = Trace()
    t.add(1, 0, "DELIVER", "a", {"ts": 1})
    t.add(2, 0, "DELIVER", "b", {"ts": 2})
    t.add(1, 1, "DELIVER", "b", {"ts": 2})
    t.add(2, 1, "DELIVER", "a", {"ts": 1})
    path = tmp_path / "trace.csv"
    t.write_csv(path)
    assert main(["check-trace", str(path)]) == 1
    assert "violation" in capsys.readouterr().out


def test_check_trace_bad_file_exits_2(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("this,is,not,a,trace\n")
    assert main(["check-trace", str(path)]) == 2


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", write_config(tmp_path),
                 "--axis", "safety_margin_us", "--values", "0,50000",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("safety_margin_us,")
    assert len(lines) == 3


def test_sweep_bad_axis_exits_2(tmp_path, capsys):
    assert main(["sweep", "--config", write_config(tmp_path),
                 "--axis", "bogus", "--values", "1",
                 "--out", str(tmp_path / "s.csv")]) == 2


def test_sweep_bad_values_exit_2(tmp_path, capsys):
    assert main(["sweep", "--config", write_config(tmp_path),
                 "--axis", "safety_margin_us", "--values", "abc",
                 "--out", str(tmp_path / "s.csv")]) == 2


def test_estimate_d_reports_bound(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("from,to,delay_us\n1,0,5000\n1,0,7000\n2,0,9000\n")
    code = main(["estimate-d", "--samples", str(samples), "--eta", "2000",
                 "--theta", "1000", "--epsilon", "100",
                 "--percentile", "0.99"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    # worst origin is 2 at 9000, plus epsilon; D = 2d + 2eta + theta
    assert report["d_us"] == 9100
    assert report["D_us"] == 2 * 9100 + 2 * 2000 + 1000
    assert report["per_origin_d_us"] == {"1": 7100, "2": 9100}


def test_estimate_d_bad_header_exits_2(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("a,b,c\n1,2,3\n")
    assert main(["estimate-d", "--samples", str(samples)]) == 2


def test_estimate_d_rejects_out_of_range_percentile(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("from,to,delay_us\n1,0,5000\n")
    assert main(["estimate-d", "--samples", str(samples),
                 "--percentile", "1.5"]) == 2
    assert "--percentile" in capsys.readouterr().err


def test_estimate_d_rejects_empty_window(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("from,to,delay_us\n")
    assert main(["estimate-d", "--samples", str(samples),
                 "--window", "0"]) == 2
    assert "--window" in capsys.readouterr().err


def test_estimate_d_without_usable_samples_exits_2(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("from,to,delay_us\n1,2,-500\n")
    assert main(["estimate-d", "--samples", str(samples),
                 "--epsilon", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == ["error: no usable samples"]

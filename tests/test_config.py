import json

import pytest

from hybridcast.config import config_from_dict, load_config
from hybridcast.errors import ConfigInvalidError, ConfigParseError

MINIMAL = {"seed": 1, "duration_us": 1_000_000}
FIXED = {"family": "fixed", "value_us": 10}


def test_minimal_config_gets_defaults():
    cfg = config_from_dict(dict(MINIMAL))
    assert cfg.mode == "HYBRID"
    assert cfg.num_client_nodes == 5
    assert cfg.workload.kind == "broadcast"
    assert cfg.network.drop_prob == 0.0


def test_missing_required_field():
    with pytest.raises(ConfigParseError):
        config_from_dict({"seed": 1})
    with pytest.raises(ConfigParseError):
        config_from_dict({"duration_us": 5})


def test_unknown_top_level_field_rejected():
    with pytest.raises(ConfigParseError, match="typo_field"):
        config_from_dict(dict(MINIMAL, typo_field=3))


def test_unknown_section_field_rejected():
    with pytest.raises(ConfigParseError, match="dorp_prob"):
        config_from_dict(dict(MINIMAL, network={"dorp_prob": 0.5}))


def test_range_violations_are_invalid_not_parse_errors():
    for bad in (
        dict(MINIMAL, duration_us=0),
        dict(MINIMAL, percentile=1.5),
        dict(MINIMAL, percentile=1.0),
        dict(MINIMAL, percentile=0.0),
        dict(MINIMAL, mode="TURBO"),
        dict(MINIMAL, eta_us=-1),
        dict(MINIMAL, num_client_nodes=0),
        dict(MINIMAL, network={"drop_prob": 1.2}),
        dict(MINIMAL, workload={"kind": "lottery"}),
        dict(MINIMAL, workload={"ordering": "PIGEON"}),
        # a crash at a negative time, of a node not in the run, or of a
        # node that is not a node id
        dict(MINIMAL, crash_schedule=[{"node": 2, "at_us": -500}]),
        dict(MINIMAL, crash_schedule=[{"node": 17, "at_us": 50}]),
        dict(MINIMAL, crash_schedule=[{"node": "two", "at_us": 50}]),
        dict(MINIMAL, crash_schedule=[{"node": True, "at_us": 50}]),
        dict(MINIMAL, crash_schedule=[{"node": 2, "at_us": 5.5}]),
        # order servers run only in a transaction run
        dict(MINIMAL, crash_schedule=[{"node": 1000, "at_us": 50}]),
        dict(MINIMAL, workload={"kind": "transactions"},
             crash_schedule=[{"node": 1003, "at_us": 50}]),
        dict(MINIMAL, network={"shifts": [{"at_us": -1, "delay": FIXED}]}),
    ):
        with pytest.raises(ConfigInvalidError):
            config_from_dict(bad)


@pytest.mark.parametrize("field, bad", [
    ("theta_us", dict(MINIMAL, theta_us=0)),
    ("heartbeat_interval_us", dict(MINIMAL, heartbeat_interval_us=0)),
    ("workload.request_timeout_us",
     dict(MINIMAL, workload={"request_timeout_us": 0})),
])
def test_zero_timer_intervals_are_invalid(field, bad):
    # each re-arms a timer at the current instant, so the run never ends
    with pytest.raises(ConfigInvalidError, match=f"{field} must be positive"):
        config_from_dict(bad)


def test_zero_eta_and_safety_margin_stay_valid():
    cfg = config_from_dict(dict(MINIMAL, eta_us=0, safety_margin_us=0))
    assert (cfg.eta_us, cfg.safety_margin_us) == (0, 0)


def test_delay_spec_field_checking():
    with pytest.raises(ConfigParseError):
        config_from_dict(dict(MINIMAL, network={"delay": {"family": "fixed"}}))
    with pytest.raises(ConfigInvalidError):
        config_from_dict(dict(MINIMAL, network={"delay": {"family": "cauchy",
                                                          "value_us": 3}}))
    with pytest.raises(ConfigParseError):
        config_from_dict(dict(MINIMAL, network={
            "delay": {"family": "fixed", "value_us": 3, "sigma": 0.5}}))
    for shift in ({"at_us": 5}, {"at_us": 5, "delay": FIXED, "x": 1}, 5):
        with pytest.raises(ConfigParseError):
            config_from_dict(dict(MINIMAL, network={"shifts": [shift]}))


def test_crash_schedule_shape_enforced():
    ok = dict(MINIMAL, crash_schedule=[{"node": 1, "at_us": 50}])
    assert config_from_dict(ok).crash_schedule[0]["node"] == 1
    ok = dict(MINIMAL, workload={"kind": "transactions"},
              crash_schedule=[{"node": 1002, "at_us": 0}])
    assert config_from_dict(ok).crash_schedule[0]["node"] == 1002
    with pytest.raises(ConfigParseError):
        config_from_dict(dict(MINIMAL, crash_schedule=[{"node": 1}]))
    with pytest.raises(ConfigParseError):
        config_from_dict(dict(MINIMAL,
                              crash_schedule=[{"node": 1, "at_us": 5, "x": 1}]))


def test_network_shifts_built_sorted():
    cfg = config_from_dict(dict(MINIMAL, network={
        "delay": {"family": "fixed", "value_us": 10},
        "shifts": [
            {"at_us": 2000, "delay": {"family": "fixed", "value_us": 30}},
            {"at_us": 1000, "delay": {"family": "fixed", "value_us": 20}},
        ],
    }))
    net = cfg.build_network()
    assert [at for at, _ in net.shifts] == [1000, 2000]
    assert net.spec_at(1500).value_us == 20


def test_to_dict_roundtrip():
    cfg = config_from_dict(dict(MINIMAL, mode="GMD_ONLY", epsilon_us=7))
    again = config_from_dict(cfg.to_dict())
    assert again == cfg


def test_load_config_parse_error_has_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"seed": 1,\n  "duration_us": }\n')
    with pytest.raises(ConfigParseError, match="line 2"):
        load_config(path)


def test_load_config_ok(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(dict(MINIMAL, mode="GMD_ONLY")))
    assert load_config(path).mode == "GMD_ONLY"


def test_load_config_missing_file():
    with pytest.raises(ConfigParseError):
        load_config("/nonexistent/nope.json")

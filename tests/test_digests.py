"""Pinned SHA-256 digests of ``trace.csv`` and ``metrics.json``.

A fixed seed and config give byte-identical output, so these digests
prove that a refactor leaves behaviour unchanged.  A change that alters
a digest on purpose updates it here and says why in CHANGES.md.
"""

import hashlib

import pytest

from hybridcast.config import config_from_dict
from hybridcast.harness import run_scenario

LOGNORMAL = {"family": "lognormal", "median_us": 3000, "sigma": 0.5}

SCENARIOS = {
    # crash-free, piggybacked acks, drifting clocks resynchronized twice
    "hybrid": {
        "seed": 11, "duration_us": 2_000_000, "mode": "HYBRID",
        "ack_mode": "piggyback", "num_client_nodes": 5,
        "network": {"delay": LOGNORMAL},
        "clock": {"init_offset_max_us": 200, "drift_ppm_max": 50,
                  "sync_enabled": True, "sync_bound_us": 3000},
        "resync_interval_us": 700_000,
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 200.0,
                     "stop_margin_us": 300_000},
    },
    # a crash whose view change comes 600 ms later, 1 % loss
    "hybrid-crash-lossy": {
        "seed": 12, "duration_us": 2_000_000, "mode": "HYBRID",
        "num_client_nodes": 5,
        "network": {"delay": LOGNORMAL, "drop_prob": 0.01},
        "crash_schedule": [{"node": 4, "at_us": 800_000}],
        "view_install_delay_us": 600_000,
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 200.0,
                     "stop_margin_us": 300_000},
    },
    "gmd-only": {
        "seed": 13, "duration_us": 2_000_000, "mode": "GMD_ONLY",
        "num_client_nodes": 5,
        "network": {"delay": LOGNORMAL},
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 200.0,
                     "stop_margin_us": 300_000},
    },
    # the active sequencer (1002) crashes and 1001 takes over
    "service-takeover": {
        "seed": 14, "duration_us": 2_000_000,
        "num_client_nodes": 5, "num_order_servers": 3,
        "network": {"delay": LOGNORMAL},
        "crash_schedule": [{"node": 1002, "at_us": 900_000}],
        "workload": {"kind": "transactions", "arrival_rate_per_s": 200.0,
                     "participant_count_dist": 3, "ordering": "SERVICE",
                     "stop_margin_us": 300_000},
    },
}

DIGESTS = {  # name -> (trace.csv, metrics.json)
    "hybrid": (
        "505659bcbac3a1471330aa006b4e6d0beda1a91dbe6098b83916a6073ee17bb9",
        "fde592fdea231bffc462e634783f9fc4441cd64f70076c7ab159edfd203557a5"),
    "hybrid-crash-lossy": (
        "019b7aaf7b2f7121c1eede3a4acb3f3e8ab6d26dd5fdf9ef25f6f8643a9f6365",
        "8881043d44011e7d784ea8d92dab1f077fbebb8045c566f7f403cba3c19f9d22"),
    "gmd-only": (
        "8c8d7ee1c106a62152490b3f84c6238821966145fa05e013abfeea05998dfef7",
        "40928c8f18eec04291a7e47dad28127155ca5900afe149ab4d7be52a068d28e1"),
    "service-takeover": (
        "5f09303fbc0a6d814ce892773d749d2dc90028fa13fd2e10de42140bc26a78f4",
        "5859787278ba0c67dd231cf60c93e0e15460f5d4d53db78fbce3e290298a7c01"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_output_digests(name, tmp_path):
    run_scenario(config_from_dict(SCENARIOS[name])).write(tmp_path)
    got = (_sha256(tmp_path / "trace.csv"), _sha256(tmp_path / "metrics.json"))
    assert got == DIGESTS[name]

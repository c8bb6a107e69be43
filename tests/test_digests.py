"""Pinned SHA-256 digests of ``trace.csv`` and ``metrics.json``.

A fixed seed and config give byte-identical output, so these digests
prove that a refactor leaves behaviour unchanged.  A change that alters
a digest on purpose updates it here and says why in CHANGES.md.  Run this
file as a script (``python tests/test_digests.py``) to print the
``DIGESTS`` dict of the code as it stands, to re-pin from.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # a script run from a checkout imports src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from hybridcast.config import config_from_dict
from hybridcast.harness import run_scenario

LOGNORMAL = {"family": "lognormal", "median_us": 3000, "sigma": 0.5}

SCENARIOS = {
    # crash-free, drifting clocks resynchronized twice
    "hybrid": {
        "seed": 11, "duration_us": 2_000_000, "mode": "HYBRID",
        "num_client_nodes": 5,
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
    # 3 % loss, heartbeats that carry the ack, and a crash suspected after
    # 300 ms of silence and removed from the view 600 ms after it
    "on-suspicion": {
        "seed": 16, "duration_us": 2_000_000, "mode": "HYBRID_ON_SUSPICION",
        "num_client_nodes": 4,
        "network": {"delay": LOGNORMAL, "drop_prob": 0.03},
        "heartbeat_interval_us": 100_000, "suspicion_timeout_us": 300_000,
        "crash_schedule": [{"node": 3, "at_us": 800_000}],
        "view_install_delay_us": 600_000,
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
    # the sequencer's queue, rejections and retries: 190/s admitted of
    # 200/s offered, 3 ms of service per request, and the same takeover
    "service-queued": {
        "seed": 15, "duration_us": 2_000_000,
        "num_client_nodes": 5, "num_order_servers": 3,
        "network": {"delay": LOGNORMAL},
        "admission": {"rate_per_s": 190.0, "burst": 10,
                      "service_time_us": 3000},
        "crash_schedule": [{"node": 1002, "at_us": 900_000}],
        "workload": {"kind": "transactions", "arrival_rate_per_s": 200.0,
                     "participant_count_dist": 3, "ordering": "SERVICE",
                     "stop_margin_us": 300_000},
    },
}

DIGESTS = {  # name -> (trace.csv, metrics.json)
    "hybrid": (
        "c8e0dfecacfae3c534ab239a0509739294c15cc0a61af129d615b5c14e2107be",
        "f06267ea6a2a90a7714b160a9945717cc78c2933428bff9b7c5c0af74acaa804"),
    "hybrid-crash-lossy": (
        "233c6e0b02ff21cf4b61f34de256497c0821465e3dace226f6dbfe44ce1e0101",
        "aa09aeeb6fc5bb0a1831db5ae0f147eda1f5736f83533f4492d6f1f1af7545a7"),
    "gmd-only": (
        "464804f6a0657fd80402f88676517d7b94d0ea34d8e1180b669f652db3b695ff",
        "b4041e5e1e4a81bc893739905bf8d8258d43e55eba78b77a82237e46db23de65"),
    "on-suspicion": (
        "c2f46ec56ac8162156f8b6a0717abe5205095d143f343993252c286bb899fe5c",
        "826670b100e04c7ee7f3e555ec9edf13ff78d731b4bcb60b162b008ec0fec79a"),
    "service-takeover": (
        "a1e0801a737d9ea23577cda9f39af7240090ed7533fb061ee1aeb65b2a323b32",
        "5859787278ba0c67dd231cf60c93e0e15460f5d4d53db78fbce3e290298a7c01"),
    "service-queued": (
        "1b82802f88d76f4e2f546261c6c216bcb42f5c359330865693fb2178a792b7cd",
        "c952ae08b420bd75e7ef0afbe0a57aed0790eb17a9c93dedab84964b1ca5a265"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(name, out_dir) -> tuple:
    """Run scenario ``name`` into ``out_dir``; (trace.csv, metrics.json)."""
    run_scenario(config_from_dict(SCENARIOS[name])).write(out_dir)
    return (_sha256(out_dir / "trace.csv"), _sha256(out_dir / "metrics.json"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_output_digests(name, tmp_path):
    assert output_digests(name, tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_digests_hold_under_another_hash_seed(hash_seed, tmp_path):
    # string hashing is salted per process, so only a fresh interpreter
    # shows whether any output depends on set or dict order of strings
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"),
                                           str(tests)]))
    code = ("import sys, pathlib, test_digests as d; "
            "print(*d.output_digests('hybrid', pathlib.Path(sys.argv[1])))")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert tuple(proc.stdout.split()) == DIGESTS["hybrid"]


if __name__ == "__main__":
    print("DIGESTS = {  # name -> (trace.csv, metrics.json)")
    for name in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            trace, metrics = output_digests(name, Path(tmp))
        print(f'    "{name}": (\n        "{trace}",\n        "{metrics}"),')
    print("}")

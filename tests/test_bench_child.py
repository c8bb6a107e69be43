"""The benchmark's traced round runs on the program as it stands.

``bench/layers.py`` wraps the program's entry points by name and reads
some of its state (``gmd.delivered`` for the deadline-poll probe), so a
refactor that renames or removes one of them breaks the traced benchmark.
This test runs ``bench/child.py`` in ``traced`` mode on two small
scenarios, one per runtime, so such a break fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LOGNORMAL = {"family": "lognormal", "median_us": 5000, "sigma": 0.5}

SIMS = {
    # the crashed member never leaves the view, so deadlines deliver
    "hybrid-crash": {
        "seed": 1, "duration_us": 1_500_000, "mode": "HYBRID",
        "num_client_nodes": 4,
        "network": {"delay": LOGNORMAL},
        "crash_schedule": [{"node": 3, "at_us": 500_000}],
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 100.0,
                     "stop_margin_us": 300_000},
    },
    # the active sequencer (1002) crashes and 1001 takes over
    "service-takeover": {
        "seed": 1, "duration_us": 2_000_000,
        "num_client_nodes": 5, "num_order_servers": 3,
        "network": {"delay": LOGNORMAL},
        "crash_schedule": [{"node": 1002, "at_us": 900_000}],
        "workload": {"kind": "transactions", "arrival_rate_per_s": 100.0,
                     "participant_count_dist": 3, "ordering": "SERVICE",
                     "stop_margin_us": 300_000},
    },
}


def test_traced_bench_round_runs(tmp_path):
    spec = {"src": str(ROOT / "src"), "mode": "traced",
            "sims": [{"name": name, "config": cfg,
                      "out": str(tmp_path / name)}
                     for name, cfg in SIMS.items()]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"),
                           str(spec_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    spans = json.loads(proc.stdout.strip().splitlines()[-1])["spans"]
    assert spans["counts"]["deadline_polls"] > 0
    assert spans["calls"]["ParticipantState.on_order"] > 0
    assert spans["calls"]["GmdNodeState.head_deliverable"] > 0

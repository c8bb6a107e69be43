"""The benchmark's workloads: the simulations that one round runs.

Every round of a workload runs the same simulations, so every round
attempts the same operations.  A simulation is a scenario config (the dict
``hybridcast.config_from_dict`` takes), its measurement window and, for
transactions, the workload the runtime drew (the checks need each
transaction's participants and start time, which the trace does not hold).

Why each workload exists is in README.md; the numbers here are its
make-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

STOP_MARGIN_US = 1_000_000  # the program's default: no load in the last second

STEADY_SIMS = 10
STEADY_US = 4_000_000
LOSSY_SIMS = 2
LOSSY_US = 20_000_000
LOAD_SIMS = 3
LOAD_TXS = 5_000
TAKEOVER_US = 20_000_000
# The takeover simulation keeps the sequencer-takeover fault in every round.
# Its inputs must not depend on --seed: the fault catches a different number
# of transactions on each seed, and the failed share must be the same in
# every run.  This is the default --seed, not a seed picked to hide or to
# enlarge the fault.
TAKEOVER_SEED = 1
SEQUENCER = 1002  # the highest order-server id is the active sequencer

WORKLOADS = ("steady", "crash-lossy", "txn-takeover")


@dataclass
class Sim:
    name: str
    config: dict
    window: tuple  # (crash or start of load, end of load), simulated us
    txs: dict = field(default_factory=dict)  # tx_id -> (participants, start)

    @property
    def nodes(self) -> list:
        return list(range(self.config["num_client_nodes"]))

    @property
    def is_broadcast(self) -> bool:
        return self.config["workload"]["kind"] == "broadcast"


def _broadcast(seed, duration_us, nodes, rate, sigma, drop=0.0, crash=None):
    cfg = {
        "seed": seed, "duration_us": duration_us, "mode": "HYBRID",
        "num_client_nodes": nodes,
        "network": {"delay": {"family": "lognormal", "median_us": 5000,
                              "sigma": sigma},
                    "drop_prob": drop},
        "workload": {"kind": "broadcast", "arrival_rate_per_s": rate},
    }
    if crash is not None:
        cfg["crash_schedule"] = [crash]
    return cfg


def _transactions(seed, duration_us, crash=None):
    cfg = {
        "seed": seed, "duration_us": duration_us, "num_client_nodes": 8,
        "num_order_servers": 3,
        "network": {"delay": {"family": "lognormal", "median_us": 5000,
                              "sigma": 0.5}},
        "workload": {"kind": "transactions", "arrival_rate_per_s": 600.0,
                     "participant_count_dist": 3, "ordering": "SERVICE"},
    }
    if crash is not None:
        cfg["crash_schedule"] = [crash]
    return cfg


def _drawn_txs(hc, cfg: dict) -> dict:
    rt = hc.OrderingRuntime(hc.config_from_dict(cfg))
    return {tx_id: (tx.group, tx.born_us) for tx_id, tx in rt.txs.items()}


def _exact_load(hc, seed: int, index: int) -> Sim:
    """A crash-free load, cut to exactly LOAD_TXS transactions.

    The runtime draws arrivals until the load horizon, so the horizon is
    placed just after the LOAD_TXS-th arrival.  Should two arrivals share
    that microsecond, the next derived seed is used.
    """
    first = seed * 100 + 30 * index
    for sub in range(first, first + 30):
        long_run = _transactions(sub, 2 * LOAD_TXS * 1_000_000 // 600)
        starts = sorted(born for _, born in _drawn_txs(hc, long_run).values())
        horizon = starts[LOAD_TXS - 1] + 1
        if starts[LOAD_TXS] >= horizon:
            cfg = _transactions(sub, horizon + STOP_MARGIN_US)
            txs = _drawn_txs(hc, cfg)
            if len(txs) != LOAD_TXS:
                raise RuntimeError(f"load drew {len(txs)} transactions, "
                                   f"expected {LOAD_TXS}")
            return Sim(f"load-{index}", cfg, (0, horizon), txs)
    raise RuntimeError(f"no load of exactly {LOAD_TXS} transactions")


def round_sims(workload: str, seed: int, hc) -> list:
    """The simulations of one round; ``hc`` is the imported program."""
    if workload == "steady":
        return [Sim(f"steady-{i}",
                    _broadcast(seed * 100 + i, STEADY_US, 5, 200.0, 0.5),
                    (0, STEADY_US - STOP_MARGIN_US))
                for i in range(STEADY_SIMS)]
    if workload == "crash-lossy":
        crash_at = LOSSY_US // 3
        return [Sim(f"crash-lossy-{i}",
                    _broadcast(seed * 100 + i, LOSSY_US, 12, 100.0, 0.25,
                               drop=0.01,
                               crash={"node": 2, "at_us": crash_at}),
                    (crash_at, LOSSY_US - STOP_MARGIN_US))
                for i in range(LOSSY_SIMS)]
    if workload == "txn-takeover":
        crash_at = TAKEOVER_US // 3
        takeover = _transactions(TAKEOVER_SEED, TAKEOVER_US,
                                 crash={"node": SEQUENCER, "at_us": crash_at})
        return [*(_exact_load(hc, seed, i) for i in range(LOAD_SIMS)),
                Sim("takeover", takeover,
                    (crash_at, TAKEOVER_US - STOP_MARGIN_US),
                    _drawn_txs(hc, takeover))]
    raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")

"""Benchmark of hybridcast: protocol behaviour and simulator speed.

Usage, from the root of a checkout:

    python3 bench/run.py --workload steady --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --summary            # spreads of the recorded runs

With ``--trace 0`` the run repeats whole rounds of the workload (each in a
fresh process, see child.py) until ``--seconds`` would be exceeded, and
reports the end-to-end metrics.  With ``--trace 1`` it runs one round
untraced and one with spans around every layer's entry points, checks that
both produced the same outputs, and reports the per-layer metrics.
Either way the outputs of the program are checked by checks.py, every line
before the last describes the run, and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Each run appends its result to bench/out/results.jsonl; ``--summary``
prints the median, quartiles and spread of every metric from that file.
The program is run from ``src/`` in the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import checks
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
RESULTS = os.path.join(OUT, "results.jsonl")
CHILD = os.path.join(BENCH, "child.py")
CHILD_TIMEOUT_S = 170
SETUPS_PER_ROUND = 3  # extra set-up-only processes, for a steadier median

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
    # simulated: these repeat exactly for a given seed
    "latency_p50_us": "us", "latency_p99_us": "us", "stall_us": "us",
    "sends_per_op": "1/op",
}
INSURANCE_KINDS = ("INS_MSG", "INS_ACK", "INS_RELAY", "RETX_REQ")
ORDERING_KINDS = ("ORDER_REQ", "ORDER_RETRY", "ORDER_RESP", "ORDER_FWD",
                  "SEQ_FWD", "SEQ_NOTE", "ORDER_REJECT")
PATHS = ("GMD_PATH", "DEADLINE_PATH")
PER_LAYER = {
    "kernel.self_s": "s", "kernel.events": "count",
    "kernel.us_per_event": "us", "kernel.send_s": "s",
    "kernel.timer_useful_ratio": "ratio",
    "insurance.self_s": "s",
    **{f"insurance.sends_per_op.{k}": "1/op" for k in INSURANCE_KINDS},
    "insurance.relay_useful_ratio": "ratio",
    "insurance.retx_useful_ratio": "ratio",
    "insurance.deadline_deliveries": "count",
    "insurance.deadline_polls": "count",
    "insurance.D_us": "us",
    **{f"insurance.latency_{p}_us.{path}": "us"
       for p in ("p50", "p99") for path in PATHS},
    **{f"insurance.latency_samples.{path}": "count" for path in PATHS},
    "gmd.self_s": "s", "gmd.head_checks_per_delivery": "ratio",
    "delays.self_s": "s", "delays.records": "count",
    "trace.records": "count", "trace.format_s": "s", "trace.add_s": "s",
    "trace.parse_s": "s", "trace.write_s": "s", "trace.csv_mb": "MB",
    "oracle.self_s": "s",
    "ordering.self_s": "s",
    **{f"ordering.sends_per_op.{k}": "1/op" for k in ORDERING_KINDS},
    "ordering.rejects": "count", "ordering.history_len_mean": "count",
    "ordering.takeover_us": "us", "ordering.exec_wait_p99_us": "us",
    "runtime.setup_s": "s", "runtime.self_s": "s",
    "config.load_s": "s",
    "harness.self_s": "s",
    "python.gc_s": "s", "python.gc_full_collections": "count",
    "tracing.overhead_ratio": "ratio",
}


def load_program():
    """The program's public API, from src/ of this checkout."""
    if not os.path.isfile(os.path.join(SRC, "hybridcast", "__init__.py")):
        raise SystemExit(f"bench: no program at {SRC}/hybridcast; run from "
                         "the root of a hybridcast checkout")
    sys.path.insert(0, SRC)
    from hybridcast import config_from_dict
    from hybridcast.runtime import OrderingRuntime
    return SimpleNamespace(config_from_dict=config_from_dict,
                           OrderingRuntime=OrderingRuntime)


def run_child(mode: str, sims, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    spec = {"src": SRC, "mode": mode,
            "sims": [{"name": s.name, "config": s.config,
                      "out": os.path.join(out_dir, s.name)} for s in sims]}
    spec_path = os.path.join(out_dir, f"spec-{mode}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.run([sys.executable, CHILD, spec_path],
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {mode} round failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def analyse(sims, out_dir: str, with_relays: bool) -> list:
    """Check every simulation's outputs; returns one report per simulation."""
    reports = []
    for sim in sims:
        sim_dir = os.path.join(out_dir, sim.name)
        trace_path = os.path.join(sim_dir, "trace.csv")
        records = checks.read_trace(trace_path)
        with open(os.path.join(sim_dir, "metrics.json")) as fh:
            metrics = json.load(fh)
        if sim.is_broadcast:
            rep = checks.check_broadcast(records, sim.nodes, sim.window)
            if with_relays:
                rep.update(checks.relay_usefulness(records))
        else:
            rep = checks.check_transactions(records, sim.txs, sim.nodes,
                                            sim.window)
        if checks.percentiles(rep["latencies"]) != metrics["latency_percentiles"]:
            rep["problems"].append(
                f"{sim.name}: latency percentiles recomputed from the trace "
                f"{checks.percentiles(rep['latencies'])} differ from "
                f"metrics.json {metrics['latency_percentiles']}")
        rep.update(name=sim.name, metrics=metrics,
                   csv_bytes=os.path.getsize(trace_path))
        rep["problems"] = [f"{sim.name}: {p}" for p in rep["problems"]]
        reports.append(rep)
    return reports


def simulated_metrics(reports, rounds) -> dict:
    """The end-to-end metrics that come from the simulation itself."""
    ops = sum(r["ops"] for r in reports)
    sends = sum(sum(s["send_counts"].values()) for s in rounds[0]["sims"])
    pct = checks.percentiles(v for r in reports for v in r["latencies"])
    return {
        "latency_p50_us": pct["p50_us"],
        "latency_p99_us": pct["p99_us"],
        "stall_us": statistics.fmean(r["stall_us"] for r in reports),
        "sends_per_op": sends / ops,
    }


def untraced(sims, seconds: float, out_dir: str):
    t_start = time.perf_counter()
    rounds, setups = [], []
    while True:
        t_round = time.perf_counter()
        rounds.append(run_child("time", sims, out_dir))
        setups.append(rounds[-1]["setup_s"])
        for _ in range(SETUPS_PER_ROUND):
            setups.append(run_child("setup", sims, out_dir)["setup_s"])
        now = time.perf_counter()
        if now + (now - t_round) > t_start + seconds:
            break
    problems = []
    first = [s["digest"] for s in rounds[0]["sims"]]
    for i, r in enumerate(rounds[1:], 2):
        if [s["digest"] for s in r["sims"]] != first:
            problems.append(f"round {i} wrote other outputs than round 1")
    reports = analyse(sims, out_dir, with_relays=False)
    ops = sum(r["ops"] for r in reports)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(ops / r["work_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_kib"] * 1024 / 1e6
                                         for r in rounds),
        **simulated_metrics(reports, rounds),
    }
    print(f"rounds: {len(rounds)}, set-ups timed: {len(setups)}, "
          f"operations per round: {ops}")
    return reports, len(rounds), metrics, problems


def traced(sims, out_dir: str):
    probe = run_child("probe", sims, os.path.join(out_dir, "untraced"))
    spans_run = run_child("traced", sims, os.path.join(out_dir, "traced"))
    problems = []
    for a, b in zip(probe["sims"], spans_run["sims"]):
        if a["digest"] != b["digest"]:
            problems.append(f"{a['name']}: traced outputs differ from untraced")
    reports = analyse(sims, os.path.join(out_dir, "untraced"),
                      with_relays=True)
    spans = spans_run["spans"]
    self_s, incl, calls = spans["self_s"], spans["incl_s"], spans["calls"]
    unwrapped = spans["region_s"] - spans["top_s"]
    accounted = sum(self_s.values()) + unwrapped
    if (abs(accounted - spans["region_s"]) > 1e-6 * spans["region_s"]
            or min(self_s.values()) < -1e-6):
        problems.append(f"self times plus unwrapped time {accounted:.6f} s do "
                        f"not add up to the traced {spans['region_s']:.6f} s")
    overhead = spans_run["work_s"] / probe["work_s"]
    print(f"traced host time {spans['region_s']:.3f} s = layer self times "
          f"{sum(self_s.values()):.3f} s + outside any span {unwrapped:.3f} s")
    print(f"tracing overhead: {spans_run['work_s']:.3f} s traced against "
          f"{probe['work_s']:.3f} s untraced ({overhead:.2f}x)")
    for layer in sorted(self_s, key=self_s.get, reverse=True):
        print(f"  self {layer:10s} {self_s[layer]:8.3f} s")

    ops = sum(r["ops"] for r in reports)
    sent = {}
    for s in probe["sims"]:
        for kind, n in s["send_counts"].items():
            sent[kind] = sent.get(kind, 0) + n
    paths = {}
    by_path = {path: [] for path in PATHS}
    for r in reports:
        for path, n in r.get("deliveries_by_path", {}).items():
            paths[path] = paths.get(path, 0) + n
        for path, values in r.get("latency_by_path", {}).items():
            by_path.setdefault(path, []).extend(values)
    broadcast = [r for r in reports if "relay_arrivals" in r]
    relay_arrivals = sum(r["relay_arrivals"] for r in broadcast)
    events = sum(r["metrics"]["events_processed"] for r in reports)
    history = [sum(s["history"][i] for s in probe["sims"]) for i in (0, 1)]
    exec_wait = sorted(v for r in reports for v in r.get("exec_wait", ()))
    gmd_deliveries = paths.get("GMD_PATH", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "kernel.self_s": self_s.get("kernel", 0.0),
        "kernel.events": events,
        "kernel.us_per_event": ratio(probe["loop_s"] * 1e6, events),
        "kernel.send_s": incl.get("Engine.send", 0.0),
        "kernel.timer_useful_ratio": ratio(calls.get("handler.on_timer", 0),
                                           calls.get("Engine.set_timer_at", 0)),
        "insurance.self_s": self_s.get("insurance", 0.0),
        **{f"insurance.sends_per_op.{k}": ratio(sent.get(k, 0), ops)
           for k in INSURANCE_KINDS},
        "insurance.relay_useful_ratio": ratio(
            sum(r["useful_relays"] for r in broadcast), relay_arrivals),
        "insurance.retx_useful_ratio": ratio(
            sum(r["useful_retx"] for r in broadcast), sent.get("RETX_REQ", 0)),
        "insurance.deadline_deliveries": paths.get("DEADLINE_PATH", 0),
        "insurance.deadline_polls": spans["counts"].get("deadline_polls", 0),
        "insurance.D_us": statistics.fmean(
            r["metrics"]["insurance_D_us"] for r in reports),
        "gmd.self_s": self_s.get("gmd", 0.0),
        "gmd.head_checks_per_delivery": ratio(
            calls.get("GmdNodeState.head_deliverable", 0), gmd_deliveries),
        "delays.self_s": self_s.get("delays", 0.0),
        "delays.records": calls.get("DelayEstimator.record", 0),
        "trace.records": sum(s["trace_records"] for s in probe["sims"]),
        "trace.format_s": incl.get("format_detail", 0.0)
        + incl.get("format_seen", 0.0),
        "trace.add_s": incl.get("Trace.add", 0.0),
        "trace.parse_s": incl.get("TraceRecord.detail_dict", 0.0)
        + incl.get("parse_seen", 0.0),
        "trace.write_s": incl.get("Trace.write_csv", 0.0),
        "trace.csv_mb": sum(r["csv_bytes"] for r in reports) / 1e6,
        "oracle.self_s": self_s.get("oracle", 0.0),
        "ordering.self_s": self_s.get("ordering", 0.0),
        **{f"ordering.sends_per_op.{k}": ratio(sent.get(k, 0), ops)
           for k in ORDERING_KINDS},
        "ordering.rejects": sum(r.get("rejects", 0) for r in reports),
        "ordering.history_len_mean": ratio(*history),
        "ordering.takeover_us": max(r.get("takeover_us", 0) for r in reports),
        "ordering.exec_wait_p99_us": checks.nearest_rank(exec_wait, 99, 100),
        "runtime.setup_s": incl.get("AbcastRuntime.__init__", 0.0)
        + incl.get("OrderingRuntime.__init__", 0.0),
        "runtime.self_s": self_s.get("runtime", 0.0),
        "config.load_s": incl.get("config_from_dict", 0.0),
        "harness.self_s": self_s.get("harness", 0.0),
        "python.gc_s": probe["gc_s"],
        "python.gc_full_collections": probe["gc_full"],
        "tracing.overhead_ratio": overhead,
    }
    for path in PATHS:
        values = sorted(by_path.get(path, ()))
        metrics[f"insurance.latency_samples.{path}"] = len(values)
        for p, num in (("p50", 50), ("p99", 99)):
            # a percentile with fewer than ten samples beyond it is no tail
            supported = checks.tail_supported(len(values), num, 100)
            metrics[f"insurance.latency_{p}_us.{path}"] = (
                checks.nearest_rank(values, num, 100) if supported else 0)
    return reports, 2, metrics, problems


def run(args) -> int:
    hc = load_program()
    sims = workloads.round_sims(args.workload, args.seed, hc)
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    if args.trace:
        reports, rounds, metrics, problems = traced(sims, out_dir)
        units = PER_LAYER
    else:
        reports, rounds, metrics, problems = untraced(sims, args.seconds,
                                                      out_dir)
        units = END_TO_END
    for r in reports:
        problems.extend(r["problems"])
    caught = [tx for r in reports for tx in r.get("caught", ())]
    if caught:
        print(f"failed: {len(caught)} transaction(s) per round executed ahead "
              "of a lower order number after the sequencer takeover: "
              + " ".join(caught))
    for p in problems[:20]:
        print(f"PROBLEM: {p}")
    if len(problems) > 20:
        print(f"PROBLEM: ... {len(problems) - 20} more")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": rounds * sum(r["ops"] for r in reports),
        "failed": rounds * len(caught),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(RESULTS, "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "seconds": args.seconds,
                             "at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                             "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def summary(path: str) -> int:
    """Median, quartiles and spread of every metric over the recorded runs."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            entry = json.loads(line)
            key = (entry["workload"], entry["trace"])
            runs.setdefault(key, []).append(entry)
    for (workload, trace), entries in sorted(runs.items()):
        seeds = sorted({e["seed"] for e in entries})
        shares = {e["result"]["failed"] / e["result"]["attempted"]
                  for e in entries}
        print(f"\n{workload}, trace {trace}: {len(entries)} runs, seeds "
              f"{seeds[0]}..{seeds[-1]} ({len(seeds)} distinct), failed "
              f"share(s) {sorted(shares)}")
        print("| metric | unit | median | Q1 | Q3 | (Q3-Q1)/median |")
        print("|---|---|---|---|---|---|")
        for name in entries[0]["result"]["metrics"]:
            values = [e["result"]["metrics"][name]["value"] for e in entries]
            unit = entries[0]["result"]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.3f} |")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", nargs="?", const=RESULTS, metavar="FILE",
                        help="summarise recorded runs instead of running")
    args = parser.parse_args(argv)
    if args.summary:
        return summary(args.summary)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

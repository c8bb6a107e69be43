"""Command-line harness.

Exit codes: 0 on success, 1 when check-trace finds relative-order
violations, 2 on configuration or input errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .config import load_config
from .delays import DelayBoundConfig, DelayEstimator, compute_D
from .errors import ConfigError, HybridcastError, IncompleteTraceError
from .harness import run_scenario, sweep, sweep_csv_lines
from .oracle import check_total_order
from .trace import Trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridcast",
        description="Deterministic simulator for hybrid atomic broadcast.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario")
    sim.add_argument("--config", required=True, help="scenario JSON file")
    sim.add_argument("--out", required=True,
                     help="output directory for trace.csv and metrics.json")

    swp = sub.add_parser("sweep", help="run one scenario per axis value")
    swp.add_argument("--config", required=True, help="scenario JSON file")
    swp.add_argument("--axis", required=True,
                     help="dotted config path, e.g. percentile or network.drop_prob")
    swp.add_argument("--values", required=True,
                     help="comma-separated numeric values")
    swp.add_argument("--out", required=True, help="output path for sweep.csv")

    chk = sub.add_parser("check-trace",
                         help="verify relative delivery order in a trace")
    chk.add_argument("trace", help="trace.csv produced by simulate")
    chk.add_argument("--kind", default="DELIVER",
                     help="event kind to check (default DELIVER)")

    est = sub.add_parser("estimate-d",
                         help="pessimistic delay bound from a sample file")
    est.add_argument("--samples", required=True,
                     help="CSV with header from,to,delay_us")
    est.add_argument("--eta", type=int, default=2000,
                     help="spacing between redundant copies, us")
    est.add_argument("--theta", type=int, default=1000,
                     help="retransmission period, us")
    est.add_argument("--epsilon", type=int, default=0,
                     help="clock synchronization precision, us")
    est.add_argument("--percentile", type=float, default=0.9999)
    est.add_argument("--margin", type=int, default=0,
                     help="extra safety margin added to the deadline bound, us")
    est.add_argument("--window", type=int, default=10_000)
    return parser


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    result = run_scenario(cfg)
    with result.trace:
        result.write(args.out)
    print(json.dumps(result.metrics.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        print(f"error: bad --values: {exc}", file=sys.stderr)
        return 2
    if not values:
        print("error: --values is empty", file=sys.stderr)
        return 2
    rows = sweep(cfg, args.axis, values)
    lines = sweep_csv_lines(args.axis, rows)
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def _cmd_check_trace(args) -> int:
    with Trace.read_csv(args.trace) as trace:
        violations = check_total_order(trace, kind=args.kind)
    if violations:
        for v in violations:
            print(f"violation: nodes {v.node_a}/{v.node_b}: "
                  f"{v.first} before {v.second}")
        print(f"{len(violations)} relative-order violation(s)")
        return 1
    print("ok: relative delivery order is consistent")
    return 0


def _cmd_estimate_d(args) -> int:
    if not (0.0 < args.percentile < 1.0):
        print(f"error: --percentile must be in (0,1), got {args.percentile}",
              file=sys.stderr)
        return 2
    if args.window <= 0:
        print(f"error: --window must be positive, got {args.window}",
              file=sys.stderr)
        return 2
    cfg = DelayBoundConfig(percentile=args.percentile, eta_us=args.eta,
                           theta_us=args.theta, epsilon_us=args.epsilon,
                           safety_margin_us=args.margin)
    estimator = DelayEstimator(cfg, window_size=args.window)
    try:
        with open(args.samples, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or \
                    set(reader.fieldnames) != {"from", "to", "delay_us"}:
                print("error: samples header must be from,to,delay_us",
                      file=sys.stderr)
                return 2
            for row in reader:
                estimator.record(int(row["from"]), int(row["delay_us"]))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not estimator.per_origin:
        print("error: no usable samples", file=sys.stderr)
        return 2
    report = {"per_origin_d_us": {}, "discarded_samples": estimator.discarded}
    for origin in sorted(estimator.per_origin):
        report["per_origin_d_us"][str(origin)] = estimator.estimate(origin)
    d = estimator.worst_case()
    report["d_us"] = d
    report["D_us"] = compute_D(d, cfg)
    report["deadline_slack_us"] = report["D_us"] + args.epsilon
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "check-trace": _cmd_check_trace,
        "estimate-d": _cmd_estimate_d,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IncompleteTraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    except HybridcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

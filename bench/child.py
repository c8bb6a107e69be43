"""One round of a workload in a fresh process, as ``hybridcast simulate``
would run each of its simulations.

Usage: python3 child.py SPEC.json

SPEC holds ``src`` (the program's source directory), ``mode`` and
``sims``: a list of {name, config, out}.  Modes:

- ``time``: the end-to-end measurement.  Per simulation, set-up is
  config parsing and runtime construction (the first one also pays for
  importing the program); the work after set-up is everything
  ``hybridcast simulate`` does: simulate, oracles and metrics, and writing
  trace.csv and metrics.json.
- ``setup``: import and set-up only, then exit.
- ``probe``: ``time`` plus the engine loop's host time and the garbage
  collector's pauses; the untraced side of a traced run.
- ``traced``: ``time`` with every layer's entry points wrapped in spans
  (layers.py).

The last line of standard output is one JSON object.  Peak RSS is read
before anything that is not the program's own work.
"""

import gc
import hashlib
import json
import os
import resource
import sys
import time

clock = time.perf_counter
T_START = clock()


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(spec_path) -> dict:
    with open(spec_path) as fh:
        spec = json.load(fh)
    mode = spec["mode"]
    sys.path.insert(0, spec["src"])
    from hybridcast import config, harness, kernel, runtime
    t_imported = clock()

    built = []  # (runtime, construction end)

    def timed(cls):
        def construct(cfg):
            rt = cls(cfg)
            built.append((rt, clock()))
            return rt
        return construct

    harness.AbcastRuntime = timed(runtime.AbcastRuntime)
    harness.OrderingRuntime = timed(runtime.OrderingRuntime)

    if mode == "setup":
        for sim in spec["sims"]:
            cfg = config.config_from_dict(sim["config"])
            cls = (runtime.OrderingRuntime
                   if cfg.workload.kind == "transactions"
                   else runtime.AbcastRuntime)
            cls(cfg)
        return {"setup_s": clock() - T_START}

    loop = {"s": 0.0}
    gc_pause = {"s": 0.0, "full": 0, "since": 0.0}
    spans = None
    if mode == "probe":
        run_until = kernel.Engine.run_until

        def timed_loop(engine, end_us):
            t0 = clock()
            try:
                return run_until(engine, end_us)
            finally:
                loop["s"] += clock() - t0

        kernel.Engine.run_until = timed_loop

        def on_gc(phase, info):
            if phase == "start":
                gc_pause["since"] = clock()
            else:
                gc_pause["s"] += clock() - gc_pause["since"]
                gc_pause["full"] += info["generation"] == 2

        gc.callbacks.append(on_gc)
    elif mode == "traced":
        import layers
        spans = layers.Spans()
        layers.install(spans)

    setup_s = t_imported - T_START
    work_s = 0.0
    sims = []
    t_region = clock()
    for sim in spec["sims"]:
        t0 = clock()
        cfg = config.config_from_dict(sim["config"])
        result = harness.run_scenario(cfg)
        result.write(sim["out"])
        t_end = clock()
        rt, t_built = built[-1]
        setup_s += t_built - t0
        work_s += t_end - t_built
        sims.append({
            "name": sim["name"],
            "send_counts": dict(rt.engine.send_counts),
            "trace_records": len(result.trace),
            "history": _history_lengths(rt),
        })
        del result, rt
        built.clear()
    region_s = clock() - t_region
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if mode == "probe":
        gc.callbacks.remove(on_gc)

    for sim, entry in zip(spec["sims"], sims):
        entry["digest"] = [_digest(os.path.join(sim["out"], name))
                           for name in ("trace.csv", "metrics.json")]
    out = {"setup_s": setup_s, "work_s": work_s, "peak_rss_kib": peak_rss_kib,
           "sims": sims}
    if mode == "probe":
        out.update(loop_s=loop["s"], gc_s=gc_pause["s"],
                   gc_full=gc_pause["full"])
    if spans is not None:
        out["spans"] = spans.report(region_s)
    return out


def _history_lengths(rt) -> list:
    """[sum, count] of per-participant history lengths the sequencers sent."""
    total = count = 0
    for state in getattr(rt, "server_states", {}).values():
        for resp in state.responses.values():
            for history in resp.histories.values():
                total += len(history)
                count += 1
    return [total, count]


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))

"""Spans around the public entry points of each of the program's modules.

A span records its host time; a layer's self time is the time of its
spans minus the time of the spans nested inside them, so the self times
of all layers plus the time in no span add up to the traced host time.
Calls are counted at the same boundaries.  Spans live in memory and are
summed as they close; only the totals leave the process.

Every layer is a module of the program.  The wrappers are installed from
here, on the classes and on every module that imports a wrapped function
by name; nothing inside the program changes.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

clock = time.perf_counter


class Spans:
    def __init__(self):
        self.stack = []
        self.self_s = defaultdict(float)  # layer -> seconds
        self.incl_s = defaultdict(float)  # entry point -> seconds
        self.calls = defaultdict(int)  # entry point -> calls
        self.counts = defaultdict(int)  # probe name -> count
        self.top_s = 0.0

    def wrap(self, layer: str, name: str, fn):
        stack, self_s = self.stack, self.self_s
        incl_s, calls = self.incl_s, self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                incl_s[name] += dt
                calls[name] += 1
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt

        span.bench_layer = layer
        return span

    def report(self, region_s: float) -> dict:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "top_s": self.top_s,
            "region_s": region_s,
        }


def _wrap_methods(spans: Spans, layer: str, cls, names):
    for name in names:
        setattr(cls, name, spans.wrap(layer, f"{cls.__name__}.{name}",
                                      getattr(cls, name)))


def _wrap_function(spans: Spans, layer: str, name: str, modules):
    """Wrap one function once and rebind it wherever it was imported."""
    wrapped = spans.wrap(layer, name, getattr(modules[0], name))
    for module in modules:
        setattr(module, name, wrapped)


def install(spans: Spans):
    from hybridcast import (config, delays, gmd, harness, insurance, kernel,
                            oracle, ordering, runtime, trace)

    engine = kernel.Engine
    _wrap_methods(spans, "kernel", engine,
                  ("run_until", "send", "set_timer", "set_timer_at",
                   "cancel_timer"))
    add_node = engine.add_node

    def handler(role, fn):
        if fn is None:
            return None
        layer = fn.__module__.rsplit(".", 1)[-1]
        return spans.wrap(layer, f"handler.{role}", fn)

    def traced_add_node(eng, node_id, on_message=None, on_timer=None,
                        clock=None):
        add_node(eng, node_id, handler("on_message", on_message),
                 handler("on_timer", on_timer), clock)

    engine.add_node = traced_add_node

    node = insurance.InsuranceNode
    on_timer = node.on_timer

    def on_timer_probe(self, key, data):
        """Counts deadline-timer firings that delivered nothing."""
        if key[0] != "deadline":
            return on_timer(self, key, data)
        before = len(self.gmd.delivered)
        out = on_timer(self, key, data)
        if len(self.gmd.delivered) == before:
            spans.counts["deadline_polls"] += 1
        return out

    node.on_timer = spans.wrap("insurance", "InsuranceNode.on_timer",
                               on_timer_probe)
    _wrap_methods(spans, "insurance", node, ("on_message", "broadcast"))
    state = gmd.GmdNodeState
    _wrap_methods(spans, "gmd", state,
                  [name for name, value in vars(state).items()
                   if callable(value) and not name.startswith("_")])
    _wrap_methods(spans, "delays", delays.DelayEstimator,
                  ("record", "worst_case"))

    _wrap_methods(spans, "trace", trace.Trace, ("add", "write_csv"))
    _wrap_methods(spans, "trace", trace.TraceRecord, ("detail_dict",))
    _wrap_function(spans, "trace", "format_detail",
                   (trace, kernel, insurance, runtime))
    _wrap_function(spans, "trace", "format_seen", (trace, insurance))
    _wrap_function(spans, "trace", "parse_seen", (trace, oracle))

    _wrap_function(spans, "oracle", "case_statistics", (oracle, harness))
    _wrap_function(spans, "oracle", "check_total_order", (oracle, harness))

    _wrap_methods(spans, "ordering", ordering.OrderServerState,
                  ("handle_order_request",))
    _wrap_methods(spans, "ordering", ordering.TokenBucket, ("admit",))
    _wrap_methods(spans, "ordering", ordering.ParticipantState, ("on_order",))

    _wrap_methods(spans, "runtime", runtime.AbcastRuntime, ("__init__",))
    _wrap_methods(spans, "runtime", runtime.OrderingRuntime, ("__init__",))
    _wrap_function(spans, "config", "config_from_dict", (config, harness))
    _wrap_function(spans, "harness", "run_scenario", (harness,))
    _wrap_methods(spans, "harness", harness.RunResult, ("write",))

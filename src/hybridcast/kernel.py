"""Deterministic seeded discrete-event engine.

Simulated time is the non-negative integer microsecond.  Events with equal
fire time are processed in (fire_time, target node id, insertion sequence)
order, which makes two runs with the same seed and config produce identical
traces.  Per-node clocks may carry a fixed offset plus a ppm drift and are
re-synchronized Cristian-style against a reference node.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import CrashedNodeError, SyncFailedError
from .trace import NO_FIELDS, Trace, detail_text


def _fixed(spec, rng):
    return spec.value_us


def _uniform(spec, rng):
    return rng.randint(spec.low_us, spec.high_us)


def _exponential(spec, rng):
    return rng.expovariate(1.0 / spec.mean_us)


def _lognormal(spec, rng):
    return rng.lognormvariate(spec._log_median, spec.sigma)


_DRAWS = {"fixed": _fixed, "uniform": _uniform, "exponential": _exponential,
          "lognormal": _lognormal}


@dataclass(frozen=True)
class DelaySpec:
    """One-way delay distribution descriptor, all values in microseconds."""

    family: str  # fixed | uniform | exponential | lognormal
    value_us: int = 0
    low_us: int = 0
    high_us: int = 0
    mean_us: float = 0.0
    median_us: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.family not in _DRAWS:
            raise ValueError(f"unknown delay family {self.family!r}")
        # the draw is chosen once; a module function, not a bound method,
        # so the spec holds no reference to itself
        object.__setattr__(self, "_draw", _DRAWS[self.family])
        if self.family == "lognormal":
            # a median of 0 or below fails at the first draw, with ValueError
            mu = math.log(self.median_us) if self.median_us > 0 else math.nan
            object.__setattr__(self, "_log_median", mu)

    def sample(self, rng: random.Random) -> int:
        return max(1, int(round(self._draw(self, rng))))


@dataclass
class NetworkModel:
    """Delay distribution, drop probability and scheduled delay shifts."""

    delay: DelaySpec = field(default_factory=lambda: DelaySpec("fixed", value_us=1000))
    drop_prob: float = 0.0
    shifts: list = field(default_factory=list)  # [(at_us, DelaySpec)], sorted

    def spec_at(self, now_us: int) -> DelaySpec:
        spec = self.delay
        for at_us, shifted in self.shifts:
            if now_us >= at_us:
                spec = shifted
            else:
                break
        return spec

    def sample_delay(self, rng: random.Random, now_us: int) -> int:
        spec = self.spec_at(now_us) if self.shifts else self.delay
        return spec.sample(rng)


@dataclass
class NodeClock:
    """Local clock with true offset and ppm drift since its last sync."""

    node_id: int
    offset_us: int = 0
    drift_ppm: int = 0
    last_sync_us: int = 0

    def read(self, true_now_us: int) -> int:
        elapsed = true_now_us - self.last_sync_us
        return true_now_us + self.offset_us + (elapsed * self.drift_ppm) // 1_000_000


def _mix(seed: int, salt: int) -> int:
    # splitmix64-style scramble so sub-streams are decorrelated
    z = (seed + salt * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class Engine:
    """Single-threaded deterministic event engine.

    One instance must never be driven from two threads; independent
    instances (distinct seeds) may run in parallel.
    """

    def __init__(self, seed: int, network: Optional[NetworkModel] = None):
        self.seed = seed
        self.network = network or NetworkModel()
        self.now = 0
        self.trace = Trace()
        self.rng_net = random.Random(_mix(seed, 1))
        self.rng_sync = random.Random(_mix(seed, 2))
        self.rng_workload = random.Random(_mix(seed, 3))
        self.clocks: dict[int, NodeClock] = {}
        self.crashed: dict[int, int] = {}  # node -> crash time
        self.send_counts: dict[str, int] = {}
        self._heap: list = []  # (fire_time, target, seq, entry)
        self._seq = 0
        self._cancelled: set[int] = set()
        self._fifo_horizon: dict[tuple, int] = {}  # (frm, to) -> last arrival
        self._on_message: dict[int, Callable] = {}
        self._on_timer: dict[int, Callable] = {}
        # detail text of the last fields sent: one broadcast passes one dict
        # to consecutive sends, and its arrivals all share that text
        self._sent_fields = None
        self._sent_detail = ""

    # -- node registry -----------------------------------------------------

    def add_node(self, node_id: int, on_message=None, on_timer=None,
                 clock: Optional[NodeClock] = None):
        self.clocks[node_id] = clock or NodeClock(node_id)
        if on_message is not None:
            self._on_message[node_id] = on_message
        if on_timer is not None:
            self._on_timer[node_id] = on_timer

    def release(self):
        """Drop every node's handlers.  They refer back, through the nodes
        and the runtime, to this engine; without them a finished run is
        freed by reference counting once it is dropped.  Events still
        queued do nothing after this."""
        self._on_message.clear()
        self._on_timer.clear()

    def is_crashed(self, node_id: int) -> bool:
        return node_id in self.crashed

    # -- scheduling --------------------------------------------------------

    def _push(self, fire_time: int, target: int, entry) -> int:
        self._seq += 1
        heapq.heappush(self._heap, (fire_time, target, self._seq, entry))
        return self._seq

    def schedule_crash(self, node_id: int, at_us: int):
        self._push(at_us, node_id, ("crash",))

    def set_timer(self, node_id: int, delay_us: int, key, data=None) -> int:
        return self.set_timer_at(node_id, self.now + delay_us, key, data)

    def set_timer_at(self, node_id: int, at_us: int, key, data=None) -> int:
        return self._push(max(at_us, self.now), node_id, ("timer", key, data))

    def cancel_timer(self, token: int):
        self._cancelled.add(token)

    # -- messaging ---------------------------------------------------------

    def send(self, frm: int, to: int, kind: str, msg_id: str, payload,
             fields=NO_FIELDS):
        if frm in self.crashed:
            raise CrashedNodeError(f"node {frm} crashed at {self.crashed[frm]}")
        self.send_counts[kind] = self.send_counts.get(kind, 0) + 1
        if self.network.drop_prob > 0 and self.rng_net.random() < self.network.drop_prob:
            self.trace.add(self.now, frm, "DROP", msg_id,
                           {"kind": kind, "to": to})
            return
        if fields is not self._sent_fields:
            self._sent_fields = fields
            self._sent_detail = detail_text(fields)
        delay = self.network.sample_delay(self.rng_net, self.now)
        # Links are FIFO per ordered pair: a message never overtakes an
        # earlier one on the same link, even when its own delay draw is lower.
        arrival = max(self.now + delay,
                      self._fifo_horizon.get((frm, to), 0))
        self._fifo_horizon[(frm, to)] = arrival
        self._push(arrival, to, ("arr", frm, kind, msg_id, payload, fields,
                                 self._sent_detail))

    def broadcast(self, frm: int, dests, kind: str, msg_id: str, payload,
                  fields=NO_FIELDS):
        for dest in dests:
            if dest != frm:
                self.send(frm, dest, kind, msg_id, payload, fields)

    # -- clocks ------------------------------------------------------------

    def read_clock(self, node_id: int) -> int:
        if node_id in self.crashed:
            raise CrashedNodeError(f"node {node_id} crashed")
        return self.clocks[node_id].read(self.now)

    def sync_clock_probabilistic(self, node_id: int, reference: int,
                                 bound_us: int, max_attempts: int) -> int:
        """Cristian-style sync: succeed when a round trip has RTT/2 <= bound.
        A crashed reference answers none of the attempts."""
        if node_id in self.crashed:
            raise CrashedNodeError("sync endpoint crashed")
        clock = self.clocks[node_id]
        attempts = 0 if reference in self.crashed else max_attempts
        for attempt in range(1, attempts + 1):
            d_out = self.network.sample_delay(self.rng_sync, self.now)
            d_back = self.network.sample_delay(self.rng_sync, self.now)
            half = (d_out + d_back + 1) // 2
            if half <= bound_us:
                # reference stamped its reading d_back ago
                ref_read = self.clocks[reference].read(self.now - d_back)
                estimate = ref_read + half
                clock.offset_us = estimate - self.now
                clock.last_sync_us = self.now
                self.trace.add(self.now, node_id, "SYNC", "",
                               {"eps": half, "attempts": attempt})
                return half
        self.trace.add(self.now, node_id, "SYNC_FAIL", "",
                       {"bound": bound_us, "attempts": max_attempts})
        raise SyncFailedError(node_id, bound_us, max_attempts)

    # -- main loop ---------------------------------------------------------

    def run_until(self, end_us: int) -> int:
        processed = 0
        heap = self._heap
        while heap and heap[0][0] <= end_us:
            fire_time, target, seq, entry = heapq.heappop(heap)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self.now = fire_time
            tag = entry[0]
            if tag == "crash":
                if target not in self.crashed:
                    self.crashed[target] = fire_time
                    self.trace.add(fire_time, target, "CRASH")
                processed += 1
                continue
            if target in self.crashed:
                continue  # crashed nodes neither receive nor act
            if tag == "arr":
                _, frm, kind, msg_id, payload, fields, detail = entry
                self.trace.add(fire_time, target, kind, msg_id, fields, detail)
                handler = self._on_message.get(target)
                if handler is not None:
                    handler(frm, kind, msg_id, payload)
            else:  # timer
                _, key, data = entry
                handler = self._on_timer.get(target)
                if handler is not None:
                    handler(key, data)
            processed += 1
        if end_us > self.now:
            self.now = end_us
        return processed

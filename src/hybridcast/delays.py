"""Empirical one-way delay tracking and the pessimistic insurance bound.

Delays are measured as receiver clock minus sender timestamp with no
offset correction, so a sample can be wrong by up to the sync accuracy;
the estimator adds that accuracy back once, keeping the estimate
pessimistic.  The insurance bound assumes the sender always crashes
during its first redundant broadcast, leaving one recipient to relay
both copies:

    D = d (first copy reaches a relayer)
      + eta + theta (relayer waits out the second-copy timeout)
      + eta (relayer's own two copies are eta apart)
      + d (the relayed second copy reaches the last recipient)
      + margin

The first three terms are the instant by which the rank-0 relayer fires,
ts + d + eta + theta, measured from the broadcast rather than from the
arrival of copy 1: the relayer waits as long for a copy 1 that arrived
early as for one that took the full d, so D is unchanged.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass

from .errors import EmptyWindowError, NonPositiveDelayError


@dataclass(frozen=True)
class DelayBoundConfig:
    percentile: float = 0.9999
    eta_us: int = 2000
    theta_us: int = 1000
    epsilon_us: int = 0
    safety_margin_us: int = 0

    def __post_init__(self):
        if not (0.0 < self.percentile < 1.0):
            raise ValueError(f"percentile must be in (0,1), got {self.percentile}")


def nearest_rank(sorted_values, q: float):
    """Nearest-rank quantile: 1-based index ceil(q*n) of a non-empty
    sorted sequence, clamped to [1, n]."""
    n = len(sorted_values)
    rank = -(-int(q * n * 10**9) // 10**9)  # ceil without float fuzz at integers
    return sorted_values[min(max(rank, 1), n) - 1]


class DelayDistribution:
    """Bounded FIFO window of observed delays with an exact sorted mirror.

    Both are ``array('q')`` buffers of unboxed 8-byte ints, so a sample
    costs 16 bytes, not a deque slot, a list slot and an int object.  The
    FIFO grows until it holds ``window_size`` samples and is a ring from
    then on: ``_head`` indexes the oldest sample, which the next one
    overwrites.
    """

    def __init__(self, window_size: int = 10_000):
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.window_size = window_size
        self._fifo = array("q")
        self._head = 0
        self._sorted = array("q")

    def __len__(self):
        return len(self._fifo)

    def observe(self, delay_us: int):
        if delay_us <= 0:
            raise NonPositiveDelayError(f"delay {delay_us}us is not positive")
        fifo, ordered = self._fifo, self._sorted
        if len(fifo) < self.window_size:
            fifo.append(delay_us)
        else:
            head = self._head
            del ordered[bisect.bisect_left(ordered, fifo[head])]
            fifo[head] = delay_us
            head += 1
            self._head = 0 if head == self.window_size else head
        bisect.insort(ordered, delay_us)

    def window(self) -> list[int]:
        """The samples in the window, oldest first."""
        head = self._head
        return self._fifo[head:].tolist() + self._fifo[:head].tolist()

    def quantile(self, q: float) -> int:
        """Nearest-rank quantile of the window (see ``nearest_rank``)."""
        if not self._sorted:
            raise EmptyWindowError("quantile of empty window")
        if not (0.0 < q <= 1.0):
            raise ValueError(f"quantile fraction must be in (0,1], got {q}")
        return nearest_rank(self._sorted, q)


def estimate_worst_case(dist: DelayDistribution, cfg: DelayBoundConfig) -> int:
    """Pessimistic per-node worst-case one-way delay estimate."""
    return dist.quantile(cfg.percentile) + cfg.epsilon_us


def compute_D(d_us: int, cfg: DelayBoundConfig) -> int:
    """Insurance bound from the always-crash-during-copy-1 timeline."""
    if d_us <= 0:
        raise NonPositiveDelayError(f"worst-case delay {d_us}us is not positive")
    return 2 * d_us + 2 * cfg.eta_us + cfg.theta_us + cfg.safety_margin_us


class DelayEstimator:
    """Per-origin delay windows owned by one node.

    Raw observations within epsilon below zero are clamped to 1us (clock
    error makes them explicable); anything worse is discarded and counted.
    """

    def __init__(self, window_size: int = 10_000, default_d_us: int = 20_000):
        self.window_size = window_size
        self.default_d_us = default_d_us
        self.per_origin: dict[int, DelayDistribution] = {}
        self.discarded = 0
        # origin -> estimate under _estimates_cfg; record drops its origin
        self._estimates: dict[int, int] = {}
        self._estimates_cfg = None

    def record(self, origin: int, raw_delay_us: int, epsilon_us: int):
        if raw_delay_us <= 0:
            if raw_delay_us > -epsilon_us:
                raw_delay_us = 1
            else:
                self.discarded += 1
                return
        dist = self.per_origin.get(origin)
        if dist is None:
            dist = self.per_origin[origin] = DelayDistribution(self.window_size)
        dist.observe(raw_delay_us)
        self._estimates.pop(origin, None)

    def worst_case(self, cfg: DelayBoundConfig) -> int:
        """Max over origins of the pessimistic estimate; a prior before data."""
        estimates = self._estimates
        if cfg is not self._estimates_cfg:
            estimates.clear()
            self._estimates_cfg = cfg
        best = 0
        for origin, dist in self.per_origin.items():
            est = estimates.get(origin)
            if est is None:
                if not len(dist):
                    continue
                est = estimates[origin] = estimate_worst_case(dist, cfg)
            if est > best:
                best = est
        return best if best > 0 else self.default_d_us

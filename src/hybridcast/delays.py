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

d is a high percentile of the last W delays from an origin, and a window
keeps only the samples that can still be that percentile (a k-skyband,
as in top-k queries over sliding windows).  The nearest-rank q-percentile
of n samples is the k-th largest with k = n - ceil(q*n) + 1, which never
falls as n grows, so no window of at most W samples asks for a sample
deeper than kmax = W - ceil(q*W) + 1 from the top.  A sample with kmax
later samples at least as large as it is never the percentile again:
every window that still holds it also holds those later samples, which
rank above it.  At q = 0.9999 and W = 10,000, kmax is 2, and a window of
lognormal delays keeps a few dozen samples instead of ten thousand.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heapify, heapreplace
from itertools import accumulate
from operator import sub

from .errors import EmptyWindowError, NonPositiveDelayError

_MIN_PRUNE_EVERY = 32  # samples between two prunes, at the least
# departed survivors are compacted away once there are _MIN_COMPACT of them
# and they fill 1/_COMPACT_SHARE of the arrival-order arrays
_MIN_COMPACT = 16
_COMPACT_SHARE = 8


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


def _rank(q: float, n: int) -> int:
    """1-based nearest-rank index ceil(q*n) of n samples, clamped to [1, n]."""
    rank = -(-int(q * n * 10**9) // 10**9)  # ceil without float fuzz at integers
    return min(max(rank, 1), n)


def nearest_rank(sorted_values, q: float):
    """Nearest-rank quantile of a non-empty sorted sequence."""
    return sorted_values[_rank(q, len(sorted_values)) - 1]


class DelayDistribution:
    """The nearest-rank ``q`` percentile of the last ``window_size`` delays.

    It keeps only the survivors: the samples with fewer than ``kmax``
    later samples at least as large (see the module docstring).  They are
    held twice, in packed arrays of unboxed ints: oldest first, for
    expiry, and sorted, for the lookup.  Beside each survivor in arrival
    order is a 4-byte gap, its arrival number less that of the survivor
    before it, so ``_head_leaves``, the arrival that pushes the oldest
    survivor out, follows as survivors leave.  Survivors before ``_head``
    have left the window; they are compacted away in batches.

    Pruning is lazy: once as many samples have arrived as the last prune
    kept, one sweep from newest to oldest, with a min-heap of the
    ``kmax`` largest samples kept so far, drops every sample that has
    ``kmax`` later ones at least as large.  The newest sample is always
    kept, so a new sample is always one arrival after the survivor before
    it, and gaps above 1 come only from pruning.

    ``value`` is the percentile of the window, updated on every
    ``observe``; it is 0 until the first sample.
    """

    def __init__(self, window_size: int, q: float):
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if not (0.0 < q <= 1.0):
            raise ValueError(f"quantile fraction must be in (0,1], got {q}")
        self.window_size = window_size
        self.q = q
        self.kmax = window_size - _rank(q, window_size) + 1
        self.value = 0
        self._seen = 0  # samples observed; the arrival number of the newest
        self._vals = array("q")  # survivors, oldest first
        self._gaps = array("I")  # arrival-number gap to the survivor before
        self._head = 0  # index of the oldest survivor still in the window
        self._head_leaves = 0  # the arrival that pushes it out
        self._sorted = array("q")  # survivors still in the window, sorted
        self._prune_at = _MIN_PRUNE_EVERY  # arrival number of the next prune
        self._fill_rank = 1  # _rank(q, seen) while the window fills

    def __len__(self):
        """Samples in the window, kept or not."""
        return min(self._seen, self.window_size)

    def kept(self) -> int:
        """Samples held: all that can still be the percentile, and the
        ones that cannot but arrived since the last prune."""
        return len(self._sorted)

    def observe(self, delay_us: int):
        if delay_us <= 0:
            raise NonPositiveDelayError(f"delay {delay_us}us is not positive")
        seen = self._seen = self._seen + 1
        vals, ordered = self._vals, self._sorted
        if seen == self._head_leaves:  # the oldest survivor leaves
            head = self._head
            del ordered[bisect_left(ordered, vals[head])]
            head += 1
            if head < len(vals):
                self._head_leaves += self._gaps[head]
            if head >= _MIN_COMPACT and head * _COMPACT_SHARE >= len(vals):
                del vals[:head]
                del self._gaps[:head]
                head = 0
            self._head = head
        if not ordered:  # this sample becomes the oldest survivor
            self._head_leaves = seen + self.window_size
        vals.append(delay_us)
        self._gaps.append(1)
        insort(ordered, delay_us)
        if seen == self._prune_at:
            self._prune()
            ordered = self._sorted
        if seen < self.window_size:
            # the rank moves with the count: by one, when q*seen passes it
            if int(self.q * seen * 10**9) > self._fill_rank * 10**9:
                self._fill_rank += 1
            # the k-th largest, k = seen - rank + 1
            self.value = ordered[self._fill_rank - seen - 1]
        else:
            self.value = ordered[-self.kmax]

    def _prune(self):
        head, kmax = self._head, self.kmax
        if len(self._vals) - head > kmax:
            live = self._vals[head:].tolist()
            # the newest kmax have fewer than kmax later samples: all stay
            cut = len(live) - kmax
            top = live[cut:]  # min-heap of the kmax largest kept so far
            heapify(top)
            low = top[0]
            older = []  # indices of the older ones kept, newest first
            for i in range(cut - 1, -1, -1):
                v = live[i]
                if v > low:
                    heapreplace(top, v)
                    low = top[0]
                    older.append(i)
                # else kmax later samples are at least v: it is never needed
            if len(older) < cut:
                # the arrival that pushes each one out, oldest first
                leaves = list(accumulate(self._gaps[head + 1:],
                                         initial=self._head_leaves))
                keep = older[::-1] + list(range(cut, len(live)))
                kept_vals = [live[i] for i in keep]
                kept_leaves = [leaves[i] for i in keep]
                self._vals = array("q", kept_vals)
                self._gaps = array("I", [1])
                self._gaps.extend(map(sub, kept_leaves[1:], kept_leaves))
                self._head, self._head_leaves = 0, kept_leaves[0]
                kept_vals.sort()
                self._sorted = array("q", kept_vals)
        self._prune_at = self._seen + max(len(self._sorted), _MIN_PRUNE_EVERY)

    def quantile(self) -> int:
        """The window's percentile, ``value``; an empty window raises."""
        if not self._seen:
            raise EmptyWindowError("quantile of empty window")
        return self.value


def compute_D(d_us: int, cfg: DelayBoundConfig) -> int:
    """Insurance bound from the always-crash-during-copy-1 timeline."""
    if d_us <= 0:
        raise NonPositiveDelayError(f"worst-case delay {d_us}us is not positive")
    return 2 * d_us + 2 * cfg.eta_us + cfg.theta_us + cfg.safety_margin_us


class DelayEstimator:
    """Per-origin delay windows owned by one node, at ``cfg.percentile``.

    Raw observations within ``cfg.epsilon_us`` below zero are clamped to
    1us (clock error makes them explicable); anything worse is discarded
    and counted.
    """

    def __init__(self, cfg: DelayBoundConfig, window_size: int = 10_000,
                 default_d_us: int = 20_000):
        self.cfg = cfg
        self.window_size = window_size
        self.default_d_us = default_d_us
        self.per_origin: dict[int, DelayDistribution] = {}
        self.discarded = 0

    def record(self, origin: int, raw_delay_us: int):
        if raw_delay_us <= 0:
            if raw_delay_us > -self.cfg.epsilon_us:
                raw_delay_us = 1
            else:
                self.discarded += 1
                return
        dist = self.per_origin.get(origin)
        if dist is None:
            dist = self.per_origin[origin] = DelayDistribution(
                self.window_size, self.cfg.percentile)
        dist.observe(raw_delay_us)

    def estimate(self, origin: int) -> int:
        """Pessimistic worst-case delay from one origin: its percentile
        plus the clock accuracy."""
        return self.per_origin[origin].value + self.cfg.epsilon_us

    def worst_case(self) -> int:
        """Max over origins of the pessimistic estimate; a prior before data."""
        best = 0
        for dist in self.per_origin.values():
            if dist.value > best:
                best = dist.value
        return best + self.cfg.epsilon_us if best else self.default_d_us

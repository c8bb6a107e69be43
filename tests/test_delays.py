import math
import random
import tracemalloc

import pytest

from hybridcast.delays import (
    DelayBoundConfig,
    DelayDistribution,
    DelayEstimator,
    compute_D,
)
from hybridcast.errors import EmptyWindowError, NonPositiveDelayError


def oracle_quantile(values, q):
    """Independent nearest-rank reference: 1-based rank ceil(q*n)."""
    ordered = sorted(values)
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def percentile_of(values, window, q):
    """The q window's value after observing ``values`` in order."""
    dist = DelayDistribution(window, q)
    for v in values:
        dist.observe(v)
    return dist.quantile()


class TestDelayDistribution:
    def test_rejects_nonpositive(self):
        dist = DelayDistribution(4, 0.5)
        with pytest.raises(NonPositiveDelayError):
            dist.observe(0)
        with pytest.raises(NonPositiveDelayError):
            dist.observe(-5)

    def test_empty_quantile_raises(self):
        with pytest.raises(EmptyWindowError):
            DelayDistribution(4, 0.5).quantile()

    def test_bad_fraction_raises(self):
        with pytest.raises(ValueError):
            DelayDistribution(4, 0.0)
        with pytest.raises(ValueError):
            DelayDistribution(4, 1.5)
        with pytest.raises(ValueError):
            DelayDistribution(0, 0.5)

    def test_quantile_known_values(self):
        values = (30, 10, 50, 20, 40)
        # frozen oracle values for [10, 20, 30, 40, 50]
        assert percentile_of(values, 10, 0.5) == 30
        assert percentile_of(values, 10, 0.2) == 10
        assert percentile_of(values, 10, 0.21) == 20
        assert percentile_of(values, 10, 1.0) == 50
        assert percentile_of(values, 10, 0.0001) == 10

    def test_quantile_matches_oracle(self):
        values = [((i * 37) % 91) + 1 for i in range(60)]
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.9999):
            assert percentile_of(values, 100, q) == oracle_quantile(values, q)

    def test_window_evicts_oldest(self):
        dist = DelayDistribution(3, 1.0)
        for v in (100, 1, 2, 3):
            dist.observe(v)
        assert len(dist) == 3
        assert dist.quantile() == 3

    def test_window_wraps_around_in_order(self):
        values = range(1, 12)  # 11 samples: the window slides seven times
        assert [percentile_of(values, 4, q) for q in (0.25, 0.5, 1.0)] \
            == [8, 9, 11]

    def test_window_costs_at_most_24_bytes_per_sample(self):
        # at q = 0.5 any of half the window can be the median, and this
        # sawtooth keeps nearly all of it
        samples = 20_000
        dist = DelayDistribution(samples, 0.5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(samples):
                # a fresh int per sample, as a measured delay is
                dist.observe(1000 + (i * 7919) % 1_000_000)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert dist.kept() > 0.9 * samples
        assert grown <= 24 * samples

    def test_p9999_window_keeps_a_few_dozen_samples(self):
        rng = random.Random(1)
        delays = [max(1, round(rng.lognormvariate(math.log(5000), 0.5)))
                  for _ in range(50_000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dist = DelayDistribution(10_000, 0.9999)
            for v in delays:
                dist.observe(v)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert dist.quantile() == oracle_quantile(delays[-10_000:], 0.9999)
        assert dist.kept() <= 64
        assert grown <= 4096

    def test_duplicate_values_survive_eviction(self):
        values = (5, 5, 5, 5, 7)
        assert percentile_of(values, 3, 0.5) == 5
        assert percentile_of(values, 3, 0.66) == 5
        assert percentile_of(values, 3, 1.0) == 7


class TestBound:
    def test_compute_D_frozen_value(self):
        cfg = DelayBoundConfig(eta_us=2000, theta_us=1000, epsilon_us=100,
                               safety_margin_us=50)
        # crash-during-copy-1 worst case: d + eta + theta + eta + d + margin
        # = 2*10000 + 2*2000 + 1000 + 50
        assert compute_D(10_000, cfg) == 25_050

    def test_compute_D_rejects_nonpositive_d(self):
        with pytest.raises(NonPositiveDelayError):
            compute_D(0, DelayBoundConfig())

    def test_estimate_adds_clock_accuracy(self):
        est = DelayEstimator(DelayBoundConfig(percentile=0.5, epsilon_us=40),
                             window_size=10)
        for v in (100, 200, 300):
            est.record(1, v)
        assert est.estimate(1) == 200 + 40
        assert est.worst_case() == 200 + 40

    def test_percentile_validated(self):
        with pytest.raises(ValueError):
            DelayBoundConfig(percentile=1.0)
        with pytest.raises(ValueError):
            DelayBoundConfig(percentile=0.0)


class TestDelayEstimator:
    def test_default_before_samples(self):
        est = DelayEstimator(DelayBoundConfig(), window_size=10,
                             default_d_us=12_345)
        assert est.worst_case() == 12_345

    def test_clamps_small_negative_to_one(self):
        est = DelayEstimator(DelayBoundConfig(epsilon_us=100), window_size=10)
        est.record(3, -50)
        assert len(est.per_origin[3]) == 1
        assert est.per_origin[3].quantile() == 1
        assert est.discarded == 0

    def test_discards_impossible_negative(self):
        est = DelayEstimator(DelayBoundConfig(epsilon_us=100), window_size=10)
        est.record(3, -500)
        assert 3 not in est.per_origin
        assert est.discarded == 1

    def test_worst_case_is_max_over_origins(self):
        est = DelayEstimator(DelayBoundConfig(percentile=0.9999),
                             window_size=10)
        for _ in range(5):
            est.record(1, 100)
            est.record(2, 900)
        assert est.worst_case() == 900

    def test_windows_take_the_configured_percentile(self):
        est = DelayEstimator(DelayBoundConfig(percentile=0.5), window_size=10)
        for v in (100, 200, 300, 400, 500):
            est.record(1, v)
        assert est.per_origin[1].q == 0.5
        assert est.worst_case() == 300

import math
import tracemalloc

import pytest

from hybridcast.delays import (
    DelayBoundConfig,
    DelayDistribution,
    DelayEstimator,
    compute_D,
    estimate_worst_case,
)
from hybridcast.errors import EmptyWindowError, NonPositiveDelayError


def oracle_quantile(values, q):
    """Independent nearest-rank reference: 1-based rank ceil(q*n)."""
    ordered = sorted(values)
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


class TestDelayDistribution:
    def test_rejects_nonpositive(self):
        dist = DelayDistribution(4)
        with pytest.raises(NonPositiveDelayError):
            dist.observe(0)
        with pytest.raises(NonPositiveDelayError):
            dist.observe(-5)

    def test_empty_quantile_raises(self):
        with pytest.raises(EmptyWindowError):
            DelayDistribution(4).quantile(0.5)

    def test_bad_fraction_raises(self):
        dist = DelayDistribution(4)
        dist.observe(10)
        with pytest.raises(ValueError):
            dist.quantile(0.0)
        with pytest.raises(ValueError):
            dist.quantile(1.5)

    def test_quantile_known_values(self):
        dist = DelayDistribution(10)
        for v in (30, 10, 50, 20, 40):
            dist.observe(v)
        # frozen oracle values for [10, 20, 30, 40, 50]
        assert dist.quantile(0.5) == 30
        assert dist.quantile(0.2) == 10
        assert dist.quantile(0.21) == 20
        assert dist.quantile(1.0) == 50
        assert dist.quantile(0.0001) == 10

    def test_quantile_matches_oracle(self):
        dist = DelayDistribution(100)
        values = [((i * 37) % 91) + 1 for i in range(60)]
        for v in values:
            dist.observe(v)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.9999):
            assert dist.quantile(q) == oracle_quantile(values, q)

    def test_window_evicts_oldest(self):
        dist = DelayDistribution(3)
        for v in (100, 1, 2, 3):
            dist.observe(v)
        assert dist.window() == [1, 2, 3]
        assert dist.quantile(1.0) == 3

    def test_window_wraps_around_in_order(self):
        dist = DelayDistribution(4)
        for v in range(1, 12):  # 11 samples: the ring turns almost thrice
            dist.observe(v)
        assert dist.window() == [8, 9, 10, 11]
        assert [dist.quantile(q) for q in (0.25, 0.5, 1.0)] == [8, 9, 11]

    def test_window_costs_at_most_24_bytes_per_sample(self):
        samples = 20_000
        dist = DelayDistribution(samples)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(samples):
                # a fresh int per sample, as a measured delay is
                dist.observe(1000 + (i * 7919) % 1_000_000)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= 24 * samples

    def test_duplicate_values_survive_eviction(self):
        dist = DelayDistribution(3)
        for v in (5, 5, 5, 5, 7):
            dist.observe(v)
        assert sorted(dist.window()) == [5, 5, 7]
        assert dist.quantile(0.5) == 5


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
        dist = DelayDistribution(10)
        for v in (100, 200, 300):
            dist.observe(v)
        cfg = DelayBoundConfig(percentile=0.5, epsilon_us=40)
        assert estimate_worst_case(dist, cfg) == 200 + 40

    def test_percentile_validated(self):
        with pytest.raises(ValueError):
            DelayBoundConfig(percentile=1.0)
        with pytest.raises(ValueError):
            DelayBoundConfig(percentile=0.0)


class TestDelayEstimator:
    def test_default_before_samples(self):
        est = DelayEstimator(window_size=10, default_d_us=12_345)
        assert est.worst_case(DelayBoundConfig()) == 12_345

    def test_clamps_small_negative_to_one(self):
        est = DelayEstimator(window_size=10, default_d_us=1)
        est.record(3, -50, epsilon_us=100)
        assert est.per_origin[3].window() == [1]
        assert est.discarded == 0

    def test_discards_impossible_negative(self):
        est = DelayEstimator(window_size=10, default_d_us=1)
        est.record(3, -500, epsilon_us=100)
        assert 3 not in est.per_origin
        assert est.discarded == 1

    def test_worst_case_is_max_over_origins(self):
        est = DelayEstimator(window_size=10, default_d_us=1)
        for _ in range(5):
            est.record(1, 100, epsilon_us=0)
            est.record(2, 900, epsilon_us=0)
        cfg = DelayBoundConfig(percentile=0.9999)
        assert est.worst_case(cfg) == 900

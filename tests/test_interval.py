import math

import numpy as np
import pytest

from robustmean import (
    ConfigurationError,
    EmptySelectionError,
    IntervalConfig,
    interval_count,
    interval_estimate,
    shortest_interval,
)
from robustmean.interval import interval_columns


def brute_shortest(values, m):
    """Oracle: scan all windows of m consecutive order statistics."""
    arr = np.sort(np.asarray(values, dtype=float))
    best = None
    for i in range(arr.size - m + 1):
        width = arr[i + m - 1] - arr[i]
        if best is None or width < best[0]:
            best = (width, arr[i], arr[i + m - 1])
    return best[1], best[2]


class TestShortestInterval:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(3, 40))
            m = int(rng.integers(1, n + 1))
            vals = np.sort(rng.standard_normal(n))
            win = shortest_interval(vals, m)
            a, b = brute_shortest(vals, m)
            assert (win.a, win.b) == (a, b)

    def test_tie_breaks_to_smallest_left_endpoint(self):
        win = shortest_interval([0.0, 1.0, 2.0, 3.0], 2)
        assert (win.a, win.b) == (0.0, 1.0)

    def test_requires_sorted_input(self):
        with pytest.raises(ConfigurationError):
            shortest_interval([3.0, 1.0, 2.0], 2)

    @pytest.mark.parametrize("values", [[np.nan, 1.0, 2.0], [1.0, np.nan, 0.5],
                                        [0.0, 1.0, np.inf]])
    def test_rejects_non_finite(self, values):
        # Unchecked, the first gives Interval(nan, 1.0), and the NaN in the
        # second hides that 0.5 follows 1.0.
        with pytest.raises(ConfigurationError, match="finite"):
            shortest_interval(values, 2)

    def test_m_bounds(self):
        with pytest.raises(ConfigurationError):
            shortest_interval([1.0, 2.0], 3)
        win = shortest_interval([1.0, 2.0], 2)
        assert win.length == 1.0


class TestIntervalCount:
    def test_formula(self):
        cfg = IntervalConfig(epsilon=0.05, delta=0.05)
        n = 1000
        lid = math.log(20)
        log4d = math.log(4) + lid
        alpha = max(0.05, lid / n)
        raw = n * (1 - 2 * alpha - math.sqrt(2 * alpha * log4d / n) - log4d / n)
        assert interval_count(n, cfg) == math.ceil(raw)

    def test_alpha_switches_to_rate_for_small_epsilon(self):
        # With epsilon=0 the effective corruption level is ln(1/d)/n.
        cfg = IntervalConfig(epsilon=0.0, delta=0.05)
        n = 100
        lid = math.log(20)
        log4d = math.log(4) + lid
        alpha = lid / n
        raw = n * (1 - 2 * alpha - math.sqrt(2 * alpha * log4d / n) - log4d / n)
        assert interval_count(n, cfg) == math.ceil(raw)

    def test_clamped_to_valid_range(self):
        cfg = IntervalConfig(epsilon=0.4, log_inv_delta=50.0)
        assert 1 <= interval_count(10, cfg) <= 10


class TestIntervalEstimate:
    def test_recovers_contaminated_gaussian_mean(self):
        rng = np.random.default_rng(5)
        n = 2000
        data = rng.standard_normal(2 * n) + 3.0
        corrupt = rng.random(2 * n) < 0.05
        data[corrupt] = 1000.0
        cfg = IntervalConfig(epsilon=0.05, delta=0.05)
        est = interval_estimate(data, cfg)
        assert abs(est - 3.0) < 0.2

    def test_membership_is_closed(self):
        # First half: tight cluster at 0 and 1.  m lands so the window is
        # [0, 0]; second-half points exactly at the endpoints must count.
        z1 = [0.0] * 9 + [5.0]
        z2 = [0.0, 0.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0]
        cfg = IntervalConfig(epsilon=0.0, log_inv_delta=0.01)
        est = interval_estimate(z1 + z2, cfg)
        m = interval_count(10, cfg)
        assert m <= 9  # window stays inside the cluster at 0
        assert est == 0.0

    def test_empty_selection_raises(self):
        z1 = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0]
        z2 = [100.0] * 8
        cfg = IntervalConfig(epsilon=0.0, log_inv_delta=0.01)
        with pytest.raises(EmptySelectionError):
            interval_estimate(z1 + z2, cfg)

    def test_precondition_violation_raises(self):
        cfg = IntervalConfig(epsilon=0.2, delta=0.05)
        with pytest.raises(ConfigurationError):
            interval_estimate(np.zeros(20), cfg)  # n=10 too small for eps=0.2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # Unchecked, an inf far outside the window gives a finite estimate
        # and a NaN ends in EmptySelectionError.
        data = np.random.default_rng(2).standard_normal(400)
        data[250] = bad
        with pytest.raises(ConfigurationError):
            interval_estimate(data, IntervalConfig(epsilon=0.02, delta=0.05))

    def test_requires_even_count(self):
        cfg = IntervalConfig(epsilon=0.0, delta=0.1)
        with pytest.raises(ConfigurationError):
            interval_estimate(np.zeros(7), cfg)

    def test_columns_match_per_column_calls(self):
        # One column pass gives each column's interval_estimate bit for bit:
        # lognormal columns, one rounded to force ties, and one whose
        # interval holds no second-half point, where both raise.
        rng = np.random.default_rng(4)
        data = rng.lognormal(size=(400, 5))
        data[:, 1] = np.round(data[:, 1], 1)
        cfg = IntervalConfig(epsilon=0.02, delta=0.05)
        expected = [interval_estimate(column, cfg) for column in data.T]
        assert interval_columns(data, cfg).tolist() == expected
        empty = np.concatenate([np.zeros(200), np.full(200, 100.0)])
        with pytest.raises(EmptySelectionError):
            interval_estimate(empty, cfg)
        with pytest.raises(EmptySelectionError):
            interval_columns(np.column_stack([data, empty]), cfg)

    def test_log_inv_delta_equivalent_to_delta(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal(400)
        a = interval_estimate(data, IntervalConfig(epsilon=0.02, delta=0.05))
        b = interval_estimate(
            data, IntervalConfig(epsilon=0.02, log_inv_delta=math.log(20)))
        assert a == b


def test_config_validation():
    with pytest.raises(ConfigurationError):
        IntervalConfig(epsilon=0.6, delta=0.05)
    with pytest.raises(ConfigurationError):
        IntervalConfig(epsilon=0.1)  # neither delta nor log_inv_delta
    with pytest.raises(ConfigurationError):
        IntervalConfig(epsilon=0.1, log_inv_delta=-1.0)

import math

import numpy as np
import pytest

from robustmean import ConfigurationError, l2_loss, opt_bound, quantile_error


def brute_quantile(losses, delta):
    """Oracle: smallest alpha among the losses such that at most a delta
    fraction strictly exceed it."""
    arr = np.sort(np.asarray(losses, dtype=float))
    for alpha in arr:
        if np.mean(arr > alpha) <= delta:
            return float(alpha)
    return float(arr[-1])


class TestQuantileError:
    def test_worked_examples(self):
        assert quantile_error(range(1, 101), 0.05) == 95.0
        assert quantile_error([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(1, 60))
            losses = rng.exponential(size=n)
            delta = float(rng.uniform(0.01, 0.9))
            assert quantile_error(losses, delta) == brute_quantile(losses, delta)

    def test_no_interpolation(self):
        # result is always one of the observed losses
        losses = [0.1, 0.7, 0.9, 5.0]
        for d in (0.05, 0.3, 0.6, 0.9):
            assert quantile_error(losses, d) in losses

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            quantile_error([], 0.1)
        with pytest.raises(ConfigurationError):
            quantile_error([1.0], 0.0)


class TestL2Loss:
    def test_basic(self):
        assert l2_loss([3.0, 4.0], [0.0, 0.0]) == 5.0
        assert l2_loss([1.0], [1.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError, match="dimension mismatch"):
            l2_loss([1.0, 2.0], [1.0])


class TestOptBound:
    def test_formula(self):
        val = opt_bound(n=200, trace_sigma=20.0, opnorm_sigma=1.0, delta=0.05)
        assert val == pytest.approx(
            math.sqrt(0.1) + math.sqrt(math.log(20) / 200))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            opt_bound(0, 1.0, 1.0, 0.05)
        with pytest.raises(ConfigurationError):
            opt_bound(10, -1.0, 1.0, 0.05)


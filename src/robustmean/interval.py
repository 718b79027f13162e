"""Robust univariate estimation via the shortest-interval two-split rule.

The first half of the data picks the shortest interval holding a prescribed
number of points; the estimate is the mean of second-half points landing in
that interval, column by column in one pass.  Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, EmptySelectionError
from .model import as_finite_matrix, check_range

LOG4 = math.log(4.0)


@dataclass(frozen=True)
class IntervalConfig:
    """Corruption level and failure probability for the interval estimator.

    Exactly one of ``delta`` and ``log_inv_delta`` (= ln(1/delta), useful
    when delta underflows) must be given.
    """

    epsilon: float
    delta: float = None
    log_inv_delta: float = None

    def __post_init__(self):
        check_range("epsilon", self.epsilon, 0.0, 0.5)
        if (self.delta is None) == (self.log_inv_delta is None):
            raise ConfigurationError(
                "give exactly one of delta and log_inv_delta")
        if self.log_inv_delta is None:
            check_range("delta", self.delta, 0.0, 1.0, closed=False)
            object.__setattr__(self, "log_inv_delta", math.log(1.0 / self.delta))
        check_range("log_inv_delta", self.log_inv_delta, 0.0)


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if self.a > self.b:
            raise ConfigurationError("interval needs a <= b")

    @property
    def length(self) -> float:
        return self.b - self.a

    def contains(self, x) -> np.ndarray:
        return (x >= self.a) & (x <= self.b)


def _shortest_windows(z: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Left and right ends of the shortest closed m-point window of each
    ascending column of z; ties go to the smallest left index."""
    i = (z[m - 1:] - z[:z.shape[0] - m + 1]).argmin(axis=0)  # first on ties
    cols = np.arange(z.shape[1])
    return z[i, cols], z[i + m - 1, cols]


def shortest_interval(values: Sequence[float], m: int) -> Interval:
    """Shortest closed interval [values[i], values[i+m-1]] over a sorted
    ascending sequence; ties broken by the smallest left index.  Non-finite
    or unsorted values, or m out of range, raise ``ConfigurationError``."""
    arr = as_finite_matrix(values, univariate=True, what="values")
    check_range("m", m, 1, arr.shape[0] + 1, kind=int)
    if np.any(np.diff(arr, axis=0) < 0):
        raise ConfigurationError("values must be sorted ascending")
    a, b = _shortest_windows(arr, m)
    return Interval(float(a[0]), float(b[0]))


def interval_count(n: int, config: IntervalConfig) -> int:
    """Number of first-half points the interval must hold, ceiled and clamped
    to [1, n]."""
    check_range("n", n, 1, kind=int)
    lid = config.log_inv_delta
    log4d = LOG4 + lid
    alpha = max(config.epsilon, lid / n)
    raw = n * (1.0 - 2.0 * alpha - math.sqrt(2.0 * alpha * log4d / n) - log4d / n)
    return min(max(math.ceil(raw), 1), n)


def check_precondition(n: int, config: IntervalConfig) -> None:
    """Feasibility requirement on (epsilon, delta, n) for the two-split rule."""
    check_range("n", n, 1, kind=int)
    log4d = LOG4 + config.log_inv_delta
    lhs = (
        2.0 * config.epsilon
        + math.sqrt(config.epsilon * log4d / n)
        + log4d / n
    )
    if lhs >= 0.5:
        raise ConfigurationError(
            f"interval precondition violated: 2e + sqrt(e*log(4/d)/n) + "
            f"log(4/d)/n = {lhs:.4f} >= 1/2"
        )


def interval_columns(samples, config: IntervalConfig) -> np.ndarray:
    """``interval_estimate`` of each column of a 2n x k matrix, bit for bit,
    in one pass; ``EmptySelectionError`` if any column's interval is empty."""
    data = as_finite_matrix(samples)
    if data.shape[0] < 4 or data.shape[0] % 2 != 0:
        raise ConfigurationError("need an even number of samples, at least 4")
    n = data.shape[0] // 2
    check_precondition(n, config)
    z1, z2 = data[:n], data[n:]
    a, b = _shortest_windows(np.sort(z1, axis=0), interval_count(n, config))
    inside = (z2 >= a) & (z2 <= b)
    if not inside.any(axis=0).all():
        raise EmptySelectionError("no second-half point lies in the interval")
    # A 1D array per column: the pairwise sum of one column's selection.
    return np.array([z2[inside[:, j], j].mean() for j in range(data.shape[1])])


def interval_estimate(samples, config: IntervalConfig) -> float:
    """Two-split robust mean of 2n reals, given as a sequence or one column:
    the first n values, in the given order (shuffle beforehand if it is not
    exchangeable), select the interval; the estimate averages the last n
    values in it (closed membership).  Data the gate
    ``as_finite_matrix(samples, univariate=True)`` refuses raise
    ``ConfigurationError``."""
    return float(interval_columns(as_finite_matrix(samples, univariate=True), config)[0])

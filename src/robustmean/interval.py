"""Robust univariate estimation via the shortest-interval two-split rule.

The first half of the data picks the shortest interval holding a prescribed
number of points; the estimate is the mean of second-half points landing in
that interval.  Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def shortest_interval(values: Sequence[float], m: int) -> Interval:
    """Shortest closed interval [values[i], values[i+m-1]] over a sorted
    ascending sequence; ties broken by the smallest left index."""
    arr = np.asarray(values, dtype=float).ravel()
    if not 1 <= m <= arr.size:
        raise ValueError(f"m={m} out of range for {arr.size} values")
    if np.any(np.diff(arr) < 0):
        raise ValueError("values must be sorted ascending")
    widths = arr[m - 1 :] - arr[: arr.size - m + 1]
    i = int(np.argmin(widths))  # argmin keeps the first (smallest i) on ties
    return Interval(float(arr[i]), float(arr[i + m - 1]))


def interval_count(n: int, config: IntervalConfig) -> int:
    """Number of first-half points the interval must hold, ceiled and clamped
    to [1, n]."""
    lid = config.log_inv_delta
    log4d = LOG4 + lid
    alpha = max(config.epsilon, lid / n)
    raw = n * (1.0 - 2.0 * alpha - math.sqrt(2.0 * alpha * log4d / n) - log4d / n)
    return min(max(math.ceil(raw), 1), n)


def check_precondition(n: int, config: IntervalConfig) -> None:
    """Feasibility requirement on (epsilon, delta, n) for the two-split rule."""
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


def interval_estimate(samples, config: IntervalConfig) -> float:
    """Two-split robust mean of 2n reals, given as a sequence or one column.

    The first n values select the interval; the estimate averages the last n
    values lying in it (closed membership).  The split follows the given
    order; shuffle beforehand if the order is not exchangeable.  Data the
    gate ``as_finite_matrix(samples, univariate=True)`` refuses raise
    ``ConfigurationError``.
    """
    data = as_finite_matrix(samples, univariate=True)[:, 0]
    if data.size < 4 or data.size % 2 != 0:
        raise ConfigurationError("need an even number of samples, at least 4")
    n = data.size // 2
    check_precondition(n, config)
    z1, z2 = data[:n], data[n:]
    m = interval_count(n, config)
    window = shortest_interval(np.sort(z1), m)
    inside = z2[window.contains(z2)]
    if inside.size == 0:
        raise EmptySelectionError("no second-half point lies in the interval")
    return float(inside.mean())

"""Loss, empirical quantile-error, and deviation-benchmark helpers."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .model import check_range


def l2_loss(estimate: Sequence[float], true_mean: Sequence[float]) -> float:
    """Euclidean distance between an estimate and the target mean."""
    a = np.asarray(estimate, dtype=float).ravel()
    b = np.asarray(true_mean, dtype=float).ravel()
    if a.shape != b.shape:
        raise ConfigurationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def quantile_error(losses: Sequence[float], delta: float) -> float:
    """Smallest alpha such that at most a delta fraction of losses exceed it.

    With sorted losses l_(1) <= ... <= l_(N) this is l_(m) for
    m = ceil((1 - delta) N); no interpolation.
    """
    check_range("delta", delta, 0.0, 1.0, closed=False)
    arr = np.sort(np.asarray(losses, dtype=float).ravel())
    check_range("number of losses", arr.size, 1, kind=int)
    # (1 - delta) N lies in (0, N] for delta in (0, 1), so 1 <= m <= N.
    return float(arr[math.ceil((1.0 - delta) * arr.size) - 1])


def opt_bound(
    n: int, trace_sigma: float, opnorm_sigma: float, delta: float
) -> float:
    """Sub-Gaussian deviation benchmark:
    sqrt(tr/n) + sqrt(opnorm * ln(1/delta) / n)."""
    check_range("n", n, 1, kind=int)
    check_range("delta", delta, 0.0, 1.0, closed=False)
    check_range("trace_sigma", trace_sigma, 0.0)
    check_range("opnorm_sigma", opnorm_sigma, 0.0)
    return math.sqrt(trace_sigma / n) + math.sqrt(
        opnorm_sigma * math.log(1.0 / delta) / n
    )

"""Loss, empirical quantile-error, and deviation-benchmark helpers."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def l2_loss(estimate: Sequence[float], true_mean: Sequence[float]) -> float:
    """Euclidean distance between an estimate and the target mean."""
    a = np.asarray(estimate, dtype=float).ravel()
    b = np.asarray(true_mean, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def quantile_error(losses: Sequence[float], delta: float) -> float:
    """Smallest alpha such that at most a delta fraction of losses exceed it.

    With sorted losses l_(1) <= ... <= l_(N) this is l_(m) for
    m = ceil((1 - delta) N); no interpolation.
    """
    arr = np.sort(np.asarray(losses, dtype=float).ravel())
    if arr.size == 0:
        raise ValueError("losses must be nonempty")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    m = math.ceil((1.0 - delta) * arr.size)
    m = min(max(m, 1), arr.size)
    return float(arr[m - 1])


def opt_bound(
    n: int, trace_sigma: float, opnorm_sigma: float, delta: float
) -> float:
    """Sub-Gaussian deviation benchmark:
    sqrt(tr/n) + sqrt(opnorm * ln(1/delta) / n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if trace_sigma < 0 or opnorm_sigma < 0:
        raise ValueError("moment summaries must be >= 0")
    return math.sqrt(trace_sigma / n) + math.sqrt(
        opnorm_sigma * math.log(1.0 / delta) / n
    )

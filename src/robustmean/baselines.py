"""Baseline and oracle estimators: sample mean, geometric median-of-means,
coordinate-wise filtering, ball-truncation with side information, and the
brute-force subset-search estimator with its population bias."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Union

import numpy as np

from .errors import ConfigurationError, ConvergenceError, EmptySelectionError
from .filtering import (
    FilterConfig,
    STOP_FIXED_STEPS,
    default_steps,
    filter_univariate,
    top_eigenpair,
)
from .model import MomentProfile, as_finite_matrix

SRM_MAX_N = 25


def sample_mean(samples) -> np.ndarray:
    """Plain arithmetic mean of the rows."""
    return as_finite_matrix(samples).mean(axis=0)


def geometric_median(points: np.ndarray, tol: float = 1e-10,
                     max_iter: int = 10_000) -> np.ndarray:
    """Geometric median of row vectors by Weiszfeld iteration.

    Uses the standard modified step when the iterate lands on a data point
    (within 1e-12), which keeps the objective non-increasing.
    """
    pts = np.atleast_2d(points)
    if pts.shape[0] == 1:
        return pts[0].copy()
    theta = pts.mean(axis=0)
    for _ in range(max_iter):
        dists = np.linalg.norm(pts - theta, axis=1)
        at_point = dists < 1e-12
        if at_point.any():
            # Modified Weiszfeld step (Vardi-Zhang) anchored at the
            # coinciding point.
            others = ~at_point
            if not others.any():
                return theta
            inv = 1.0 / dists[others]
            t_tilde = (pts[others] * inv[:, None]).sum(axis=0) / inv.sum()
            r_vec = ((pts[others] - theta) * inv[:, None]).sum(axis=0)
            r = np.linalg.norm(r_vec)
            eta = float(at_point.sum())
            if r <= eta:
                return theta  # optimality condition at the anchor
            lam = eta / r
            new_theta = (1.0 - lam) * t_tilde + lam * theta
        else:
            inv = 1.0 / dists
            new_theta = (pts * inv[:, None]).sum(axis=0) / inv.sum()
        step = np.linalg.norm(new_theta - theta)
        denom = max(np.linalg.norm(new_theta), 1e-300)
        theta = new_theta
        if step <= tol * denom:
            return theta
    raise ConvergenceError(
        "Weiszfeld iteration hit its iteration cap", last_iterate=theta
    )


def geometric_median_of_means(samples, blocks: int) -> np.ndarray:
    """Geometric median of the means of contiguous near-equal blocks."""
    data = as_finite_matrix(samples)
    if not 1 <= blocks <= data.shape[0]:
        raise ConfigurationError("blocks must lie in [1, n]")
    block_means = np.stack(
        [chunk.mean(axis=0) for chunk in np.array_split(data, blocks)]
    )
    return geometric_median(block_means)


def coordinatewise_filter(samples, delta: float, seed: int = 0) -> np.ndarray:
    """Univariate filtering applied to each coordinate independently, with
    per-coordinate derived seeds and the fixed-steps benchmark budget."""
    data = as_finite_matrix(samples)
    steps = min(default_steps(delta), data.shape[0] - 2)
    out = np.empty(data.shape[1])
    for j in range(data.shape[1]):
        cfg = FilterConfig(
            stop_mode=STOP_FIXED_STEPS,
            steps=steps,
            seed=int(np.random.SeedSequence([seed, j]).generate_state(1)[0]),
        )
        out[j] = filter_univariate(data[:, j], cfg).estimate[0]
    return out


@dataclass(frozen=True)
class RadiusRule:
    """Analytic truncation radius selected by the moment order and setting.

    Heavy-tail (epsilon = 0):
      k=2: sqrt(tr) / (r^{1/8} * (ln(1/d)/n)^{1/4})
      k=1: sqrt(tr) / (r^{1/4} * (ln(1/d)/n)^{1/2})
    Contaminated (epsilon > 0):
      k=1: sqrt(tr) / (eps + ln(1/d)/n)^{1/2}
      k=2: sqrt(tr) / (eps + ln(1/d)/n)^{1/4}
    where k, tr and r = tr / opnorm (the effective rank) come from
    ``moments``, the clean law's ``MomentProfile``.
    """

    moments: MomentProfile
    n: int
    delta: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError("delta must lie in (0, 1)")
        if not 0.0 <= self.epsilon < 0.5:
            raise ConfigurationError("epsilon must lie in [0, 0.5)")
        if self.moments.opnorm_sigma <= 0:
            raise ConfigurationError("need opnorm_sigma > 0")

    def radius(self) -> float:
        k = self.moments.k
        sqrt_tr = math.sqrt(self.moments.trace_sigma)
        rate = math.log(1.0 / self.delta) / self.n
        if self.epsilon > 0:
            power = 0.5 if k == 1 else 0.25
            return sqrt_tr / (self.epsilon + rate) ** power
        eff_rank = self.moments.effective_rank
        if k == 2:
            return sqrt_tr / (eff_rank ** 0.125 * rate ** 0.25)
        return sqrt_tr / (eff_rank ** 0.25 * rate ** 0.5)


@dataclass(frozen=True)
class OracleConfig:
    """Side information for ball truncation: the true mean and a radius
    (a literal positive real or a ``RadiusRule``)."""

    true_mean: np.ndarray
    radius: Union[float, RadiusRule]

    def __post_init__(self):
        object.__setattr__(
            self, "true_mean", np.asarray(self.true_mean, dtype=float).ravel()
        )
        if not isinstance(self.radius, RadiusRule) and self.radius <= 0:
            raise ConfigurationError("literal radius must be > 0")

    def radius_value(self) -> float:
        if isinstance(self.radius, RadiusRule):
            return self.radius.radius()
        return float(self.radius)


def _oracle_survivors(samples, config: OracleConfig) -> np.ndarray:
    data = as_finite_matrix(samples)
    p = data.shape[1]
    if config.true_mean.shape != (p,):
        raise ConfigurationError(
            f"true_mean has length {config.true_mean.size}; data has p={p}")
    radius = config.radius_value()
    dists = np.linalg.norm(data - config.true_mean, axis=1)
    survivors = data[dists <= radius]  # closed ball
    if survivors.shape[0] == 0:
        raise EmptySelectionError("all rows lie outside the truncation ball")
    return survivors


def oracle_truncated_mean(samples, config: OracleConfig) -> np.ndarray:
    """Mean of the rows within the closed ball around the true mean."""
    return _oracle_survivors(samples, config).mean(axis=0)


def oracle_survivor_covariance(samples, config: OracleConfig) -> float:
    """Operator norm (top eigenvalue) of the survivors' sample covariance."""
    survivors = _oracle_survivors(samples, config)
    centered = survivors - survivors.mean(axis=0)
    cov = centered.T @ centered / survivors.shape[0]
    lam, _ = top_eigenpair(cov)
    return float(lam)


def srm_bruteforce(samples, epsilon: float) -> np.ndarray:
    """Mean of the size-floor((1-eps)n) subset with the smallest within-subset
    scatter, by exhaustive enumeration (n <= 25).

    Ties resolve to the lexicographically smallest index set, which is the
    enumeration order.
    """
    data = as_finite_matrix(samples)
    n = data.shape[0]
    if n > SRM_MAX_N:
        raise ConfigurationError(
            f"subset search is exhaustive and limited to n <= {SRM_MAX_N}; "
            "use a sampled search (not provided) for larger n"
        )
    if not 0.0 <= epsilon < 1.0:
        raise ConfigurationError("epsilon must lie in [0, 1)")
    size = math.floor((1.0 - epsilon) * n)
    if size < 1:
        raise ConfigurationError("subset size floor((1-eps)n) must be >= 1")
    if size == n:
        return data.mean(axis=0)

    best_loss = math.inf
    best_mean = None
    for subset in combinations(range(n), size):
        rows = data[list(subset)]
        mean = rows.mean(axis=0)
        loss = float(np.sum((rows - mean) ** 2)) / size
        if loss < best_loss:
            best_loss = loss
            best_mean = mean
    return best_mean


def srm_population_bias(epsilon: float, trace_sigma: float) -> float:
    """Worst case, over the contamination gap, of the bias of the winner of
    the two-candidate comparison in `srm_keeps_contamination` on an isotropic
    base law: eps / sqrt((1-eps)(1-2eps)) * sqrt(trace).

    It is not a bound on subset search, which also trims inliers and so
    keeps contamination past that rule's threshold.  For N(0,1) inliers,
    eps=1/6 and the point mass at 1.75x the threshold distance, the search's
    population estimate is about 0.616 (truncated-normal moments; a window
    search at n=6000 agrees), against 0.224 from this formula.
    """
    if not 0.0 <= epsilon < 0.5:
        raise ConfigurationError("epsilon must lie in [0, 0.5)")
    if trace_sigma < 0:
        raise ConfigurationError("trace_sigma must be >= 0")
    if epsilon == 0.0:
        return 0.0
    return epsilon / math.sqrt((1.0 - epsilon) * (1.0 - 2.0 * epsilon)) * math.sqrt(
        trace_sigma
    )


def srm_mixture_risk(
    eta: float,
    trace_p: float,
    trace_q: float,
    mean_gap: float,
) -> float:
    """Population squared-loss risk of the untrimmed eta-mixture (the whole
    base law plus the contamination) at its own mean:
    (1-eta) trP + eta trQ + eta (1-eta) gap^2."""
    return (
        (1.0 - eta) * trace_p
        + eta * trace_q
        + eta * (1.0 - eta) * mean_gap**2
    )


def srm_keeps_contamination(
    epsilon: float, mean_gap: float, trace_p: float, trace_q: float = 0.0
) -> bool:
    """Whether the untrimmed eps/(1-eps)-mixture has no more risk than the
    clean law: gap^2 <= ((1-eps)/(1-2eps)) * (trP - trQ).

    `True` is enough for subset search to prefer keeping the contamination
    over the clean law.  `False` does not predict that the search drops it:
    the search also trims inliers on the far side.  For N(0,1) inliers at
    eps=1/6, the population search keeps all of a point mass up to about
    1.85x this threshold and part of it beyond; keeping all of it beats the
    clean law up to about 1.97x.
    """
    if not 0.0 <= epsilon < 0.5:
        raise ConfigurationError("epsilon must lie in [0, 0.5)")
    threshold = (1.0 - epsilon) / (1.0 - 2.0 * epsilon) * (trace_p - trace_q)
    return mean_gap**2 <= threshold

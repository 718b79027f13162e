"""Spectral sample-pruning mean estimator and its univariate form.

One point is removed per round, sampled with probability proportional to its
squared projection on the leading eigenvector of the survivors' sample
covariance, until a stop rule holds.  Sample covariances use the 1/|S|
(population) convention throughout.

One loop runs k filters ("lanes") in lockstep: ``filter_multivariate`` is
one lane, and ``filter_columns`` one univariate lane per column, with the
removals of separate ``filter_univariate`` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import lapack

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateScoresError,
    FilterExhaustedError,
)
from .model import as_finite_matrix

DEFAULT_THRESHOLD_FACTOR = 32.0

STOP_THRESHOLD = "threshold"
STOP_FIXED_STEPS = "fixed_steps"
STOP_CAPPED = "capped"
STOP_MODES = (STOP_THRESHOLD, STOP_FIXED_STEPS, STOP_CAPPED)


@dataclass(frozen=True)
class FilterConfig:
    """Configuration of a filtering run.

    ``stop_mode`` is one of:
      - ``threshold``: stop once the top eigenvalue drops below
        ``threshold_factor * cov_bound``;
      - ``fixed_steps``: remove exactly ``steps`` points, then stop;
      - ``capped``: threshold rule with a hard cap of ``steps`` removals.
    """

    cov_bound: float = 0.0
    threshold_factor: float = DEFAULT_THRESHOLD_FACTOR
    stop_mode: str = STOP_THRESHOLD
    steps: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.cov_bound < 0:
            raise ConfigurationError("cov_bound must be >= 0")
        if self.threshold_factor <= 0:
            raise ConfigurationError("threshold_factor must be > 0")
        if self.stop_mode not in STOP_MODES:
            raise ConfigurationError(f"unknown stop_mode {self.stop_mode!r}")
        if self.stop_mode in (STOP_FIXED_STEPS, STOP_CAPPED):
            if self.steps is None or self.steps < 0:
                raise ConfigurationError(f"{self.stop_mode} needs steps >= 0")


@dataclass(frozen=True)
class EstimateReport:
    """Estimator output: the estimate, the rows the estimator removed (the
    filter's, in removal order) and what it did, in ``diagnostics``."""

    estimate: np.ndarray
    removed_indices: Tuple[int, ...] = ()
    diagnostics: dict = field(default_factory=dict)


# The survivor statistics are recomputed exactly once trace(G at the last
# exact computation) exceeds _DRIFT_RATIO * m * trace(cov).  The downdates and
# the subtraction in G/m - mu mu^T leave an absolute error of about
# eps * trace(G at the last exact computation) / m in cov, so at this ratio
# float64 still keeps about 12 significant digits of cov.
_DRIFT_RATIO = 2.0**10


def top_eigenpair(matrix: np.ndarray) -> Tuple[float, np.ndarray]:
    """Leading eigenpair of a symmetric PSD matrix by an exact dense
    eigensolve that computes only that pair (LAPACK ``dsyevr``).

    Returns (0, e_1) for the zero matrix and (a, [1]) for the 1 x 1 matrix
    [[a]].  The eigenvector has unit norm; its sign is LAPACK's.  Raises
    ``ConvergenceError`` if LAPACK reports a failure.
    """
    p = matrix.shape[0]
    if p == 1:
        return float(matrix[0, 0]), np.ones(1)
    if not matrix.any():
        v = np.zeros(p)
        v[0] = 1.0
        return 0.0, v
    values, vectors, _, _, info = lapack.dsyevr(matrix, range="I", il=p, iu=p)
    if info != 0:
        raise ConvergenceError(f"LAPACK dsyevr failed with info={info}")
    return float(values[0]), vectors[:, 0]


class _Univariate:
    """Round statistics of k univariate lanes at once: a lane's top
    eigenvalue is its survivors' variance and its scores are their squared
    deviations.  ``data`` stacks the lanes in one column, lane j's n values
    as rows j*n to j*n + n - 1."""

    def __init__(self, data: np.ndarray):
        self.data = data.T.reshape(-1, 1)
        self.values = self.data.ravel()

    def round(self, alive: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # Row sums of the C-contiguous survivor matrix are the 1D sum() of
        # each row bit for bit, and sum()/m is mean() without its overhead.
        survivors = self.values.take(alive)
        m = alive.shape[1]
        scores = np.square(survivors - (survivors.sum(axis=1) / m)[:, None])
        return scores.sum(axis=1) / m, scores

    def remove(self, row: int) -> None:
        pass


class _Multivariate:
    """Round statistics of one lane from the survivors' shifted sum and Gram
    matrix G, downdated by one rank-one term per removed row."""

    def __init__(self, data: np.ndarray):
        self.data = data
        self._recentre(np.arange(data.shape[0]))

    def _recentre(self, alive: np.ndarray) -> None:
        self.shifted = self.data - self.data[alive].mean(axis=0)
        rows = self.shifted[alive]
        self.total = rows.sum(axis=0)
        self.gram = rows.T @ rows
        self.exact_trace = float(np.trace(self.gram))

    def _moments(self, m: int) -> Tuple[np.ndarray, np.ndarray]:
        mu = self.total / m
        # np.outer(mu, mu) and np.trace bit for bit, without their wrappers.
        return mu, self.gram / m - mu[:, None] * mu

    def round(self, alive: np.ndarray) -> Tuple[Tuple[float], np.ndarray]:
        alive = alive[0]
        m = alive.size
        mu, cov = self._moments(m)
        if self.exact_trace > _DRIFT_RATIO * m * cov.trace():
            self._recentre(alive)
            mu, cov = self._moments(m)
        lam, v = top_eigenpair(cov)
        return (lam,), np.square((self.shifted @ v)[alive] - mu @ v)[None]

    def remove(self, row: int) -> None:
        x = self.shifted[row]
        self.total -= x
        self.gram -= x[:, None] * x


def _weighted_picks(rngs: Sequence[np.random.Generator],
                    p: np.ndarray) -> List[int]:
    """For each row of ``p`` and its generator, ``rng.choice(p.shape[1],
    p=row)`` without its checks of ``row``: the same cumulative sum, uniform
    draw and search, so the same index and the same generator state
    afterwards."""
    picks = []
    for rng, cdf in zip(rngs, np.cumsum(p, axis=1)):
        cdf /= cdf[-1]  # by a scalar: faster than one broadcast division
        picks.append(int(cdf.searchsorted(rng.random(), side="right")))
    return picks


def _filter(lane_stats, data: np.ndarray, config: FilterConfig,
            seeds: Sequence[int]) -> List[EstimateReport]:
    """The filter loop on the n rows of ``data``, one lane per seed, with
    round statistics ``lane_stats(data)``.  The lanes run in lockstep: each
    remaining lane removes one row a round, so all have m survivors.  A lane
    whose stop rule holds leaves with its report; each other lane draws its
    pick from its own generator."""
    n = data.shape[0]
    if n < 2:
        raise FilterExhaustedError("need at least 2 points to filter")
    stats = lane_stats(data)
    # Row i of alive lists, in index order, the survivors of lane lanes[i]
    # as rows of stats.data, where lane j's rows start at j * n; the lane
    # draws from rngs[i].  default_rng(s) is default_rng(SeedSequence(s)).
    lanes = list(range(len(seeds)))
    rngs = [np.random.default_rng(s) for s in seeds]
    alive = np.arange(len(lanes) * n).reshape(len(lanes), n)
    removed: List[List[int]] = [[] for _ in lanes]
    eigenvalues: List[List[float]] = [[] for _ in lanes]
    reports: List[EstimateReport] = [None] * len(lanes)
    # The threshold rule is off under fixed_steps, the budget under threshold.
    threshold = -math.inf if config.stop_mode == STOP_FIXED_STEPS \
        else config.threshold_factor * config.cov_bound
    while True:
        lams, scores = stats.round(alive)
        totals = scores.sum(axis=1)
        spent = config.stop_mode != STOP_THRESHOLD and \
            n - alive.shape[1] >= config.steps
        going = []
        for i, lane in enumerate(lanes):
            lam = float(lams[i])
            reason = "threshold" if lam < threshold else \
                "budget" if spent else None
            if reason is None and lam <= 0.0:
                # Zero scatter: no point can be scored, so stop regardless of
                # the unmet stop rule.
                reason, lam = "zero_scatter", 0.0
            eigenvalues[lane].append(lam)
            if reason is not None:
                reports[lane] = EstimateReport(
                    stats.data[alive[i]].mean(axis=0), tuple(removed[lane]),
                    {"stop_reason": reason, "eigenvalues": eigenvalues[lane]})
            elif totals[i] <= 0.0:
                raise DegenerateScoresError(
                    "all scores zero with positive top eigenvalue")
            else:
                going.append(i)
        if not going:
            return reports
        if len(going) < len(lanes):
            lanes, rngs = [lanes[i] for i in going], [rngs[i] for i in going]
            alive, scores, totals = alive[going], scores[going], totals[going]
        picks = _weighted_picks(rngs, scores / totals[:, None])
        for lane, rows, pick in zip(lanes, alive, picks):
            row = int(rows[pick])
            stats.remove(row)
            removed[lane].append(row - lane * n)
            rows[pick:-1] = rows[pick + 1:]  # deletes the pick, in place
        alive = alive[:, :-1]
        if alive.shape[1] < 2:
            raise FilterExhaustedError(
                "fewer than 2 survivors before the stop condition held")


def filter_multivariate(samples, config: FilterConfig) -> EstimateReport:
    """Run the iterative spectral filter on an n x p dataset.

    Accepts a ``SampleSet`` or a raw array.  Deterministic given
    ``config.seed``: each round draws one survivor, in index order, with
    probability proportional to its score, exactly as ``rng.choice`` with
    those probabilities would.

    For p > 1 each round takes the survivors' top eigenpair exactly with
    ``top_eigenpair``.  Its covariance comes from the rows shifted by a
    centre: the survivors' shifted sum and Gram matrix G lose one rank-one
    term per removal, so cov = G/m - mu mu^T costs O(p^2) a round, plus one
    O(np) projection for the scores.  A drift guard re-centres the rows on
    the survivors and recomputes both exactly whenever the trace of G at the
    last exact computation exceeds 2^10 * m * trace(cov), as it does once a
    far outlier has been removed.  For p = 1 a round is the variance and the
    squared deviations of the survivors: no matrix and no eigensolve.  The
    estimate is the survivors' mean, computed from the data.

    ``diagnostics`` holds ``stop_reason`` (``threshold``, ``budget`` or
    ``zero_scatter``) and ``eigenvalues``, the top eigenvalue of every round,
    the last being the one the filter stopped on (clipped to 0.0 on a
    ``zero_scatter`` stop).
    """
    data = as_finite_matrix(samples)
    lane_stats = _Univariate if data.shape[1] == 1 else _Multivariate
    return _filter(lane_stats, data, config, [config.seed])[0]


def filter_univariate(samples: Sequence[float], config: FilterConfig) -> EstimateReport:
    """Univariate filtering: ``filter_multivariate`` on one column, whose
    p = 1 rounds score squared deviations from the survivors' mean and stop
    on their variance (population convention)."""
    values = np.asarray(samples, dtype=float).ravel()
    return filter_multivariate(values[:, None], config)


def filter_columns(samples, steps: int, seeds: Sequence[int]) -> np.ndarray:
    """The estimates of ``filter_univariate`` with ``clamp_steps(steps, n)``
    fixed steps and seed ``seeds[j]`` on each column j of an n x k dataset,
    the k filters run in lockstep: the same removals as k separate calls."""
    data = as_finite_matrix(samples)
    cfg = FilterConfig(stop_mode=STOP_FIXED_STEPS,
                       steps=clamp_steps(steps, data.shape[0]))
    return np.array([r.estimate[0] for r in _filter(_Univariate, data, cfg, seeds)])


def clamp_steps(steps: int, n: int) -> int:
    """A fixed-steps budget for n rows: at most n - 2, so 2 rows survive."""
    if n < 2:
        raise ConfigurationError(f"filtering needs at least 2 rows, got n={n}")
    return min(steps, n - 2)


def default_steps(delta: float) -> int:
    """Benchmark removal budget: ceil(2 * ln(1/delta))."""
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must lie in (0, 1)")
    return math.ceil(2.0 * math.log(1.0 / delta))


def stopping_cap(n: int, n_good: int, delta: float) -> int:
    """High-probability bound on removal rounds:
    ceil(18 * ln(1/delta) + 3 * (n - n_good))."""
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must lie in (0, 1)")
    if n_good > n:
        raise ConfigurationError("n_good cannot exceed n")
    return math.ceil(18.0 * math.log(1.0 / delta) + 3.0 * (n - n_good))


def cov_bound_hint(
    moments,
    n: int,
    p: int,
    delta: float,
    epsilon: float = 0.0,
) -> float:
    """Covariance upper-bound hint used to instantiate the filter, from the
    clean law's ``moments``.  The model is read from epsilon: 0 is the
    heavy-tailed model, > 0 Huber's; the formula is selected by that and
    ``moments.k``:

      - epsilon = 0, k=2:  opnorm
      - epsilon = 0, k=1:  opnorm + trace * ln(p/delta) / ln(1/delta)
      - epsilon > 0, k=1:  opnorm + trace * ln(p/delta) / (n*eps + ln(1/delta))
      - epsilon > 0, k=2:  opnorm + trace * ln(p/delta) / sqrt(n^2*eps + n*ln(1/delta))
    """
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must lie in (0, 1)")
    if not 0.0 <= epsilon < 0.5:
        raise ConfigurationError("epsilon must lie in [0, 0.5)")
    log_pd = math.log(p / delta)
    log_1d = math.log(1.0 / delta)
    base = moments.opnorm_sigma
    if epsilon == 0.0:
        if moments.k == 2:
            return base
        return base + moments.trace_sigma * log_pd / log_1d
    if moments.k == 1:
        return base + moments.trace_sigma * log_pd / (n * epsilon + log_1d)
    return base + moments.trace_sigma * log_pd / math.sqrt(
        n * n * epsilon + n * log_1d
    )

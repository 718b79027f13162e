"""Spectral sample-pruning mean estimator and its univariate form.

One point is removed per round, sampled with probability proportional to its
squared projection on the leading eigenvector of the survivors' sample
covariance, until a stop rule holds.  Sample covariances use the 1/|S|
(population) convention throughout.

One loop runs k filters ("lanes") in lockstep, a round's statistics one array
operation over them: ``filter_multivariate`` is one lane, ``filter_columns``
one univariate lane per column, with the removals of separate calls.
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
from .model import as_finite_matrix, check_range

THRESHOLD_FACTOR = 32.0


@dataclass(frozen=True)
class FilterConfig:
    """A filtering run's limits, each on when given: with ``cov_bound`` it
    stops once the top eigenvalue drops below ``THRESHOLD_FACTOR *
    cov_bound``, with ``steps`` after ``steps`` removals, with both at
    whichever comes first, and always at zero scatter."""

    cov_bound: Optional[float] = None
    steps: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.cov_bound is not None:
            check_range("cov_bound", self.cov_bound, 0.0)
        if self.steps is not None:
            check_range("steps", self.steps, 0, kind=int)
        check_range("seed", self.seed, 0, kind=int)


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

    Returns (0, e_1) for the zero matrix (sought only when LAPACK's
    eigenvalue is 0).  The eigenvector has unit norm and LAPACK's sign.
    Raises ``ConvergenceError`` if LAPACK reports a failure.
    """
    p = matrix.shape[0]
    values, vectors, _, _, info = lapack.dsyevr(matrix, range="I", il=p, iu=p)
    if info != 0:
        raise ConvergenceError(f"LAPACK dsyevr failed with info={info}")
    if values[0] == 0.0 and not matrix.any():
        v = np.zeros(p)
        v[0] = 1.0
        return 0.0, v
    return float(values[0]), vectors[:, 0]


class _Univariate:
    """Round statistics of k univariate lanes at once: a lane's top
    eigenvalue is its survivors' variance and its scores are their squared
    deviations.  ``data`` stacks the lanes in one column, lane j's n values
    as rows j*n to j*n + n - 1."""

    def __init__(self, data: np.ndarray):
        self.data = data.T.reshape(-1, 1)

    def round(self, alive: np.ndarray) -> Tuple[list, np.ndarray, np.ndarray]:
        # Row sums of the C-contiguous survivor matrix are the 1D sum() of
        # each row bit for bit, and sum()/m is mean() without its overhead.
        survivors = self.data.take(alive)
        m = alive.shape[1]
        survivors -= (survivors.sum(axis=1) / m)[:, None]
        scores = np.square(survivors, out=survivors)
        totals = scores.sum(axis=1)
        return (totals / m).tolist(), scores, totals

    def remove(self, rows: List[int]) -> None:
        pass


class _Multivariate:
    """Round statistics of one lane from the survivors' shifted sum and Gram
    matrix G, downdated by one rank-one term per removed row."""

    def __init__(self, data: np.ndarray):
        self.data = data
        self._recentre(slice(None))  # all rows, without copying them

    def _recentre(self, alive) -> None:
        self.shifted = self.data - self.data[alive].mean(axis=0)
        rows = self.shifted[alive]
        self.total = rows.sum(axis=0)
        self.gram = rows.T @ rows
        self.exact_trace = float(np.trace(self.gram))

    def _moments(self, m: int) -> Tuple[np.ndarray, np.ndarray]:
        mu = self.total / m
        # np.outer(mu, mu) and np.trace bit for bit, without their wrappers.
        return mu, self.gram / m - mu[:, None] * mu

    def round(self, alive: np.ndarray) -> Tuple[list, np.ndarray, np.ndarray]:
        m = alive.shape[1]
        mu, cov = self._moments(m)
        trace = cov.trace()
        if not math.isfinite(trace):  # overflow: inf, or NaN from inf - inf
            raise DegenerateScoresError("the survivors' covariance is not finite")
        if self.exact_trace > _DRIFT_RATIO * m * trace:
            self._recentre(alive[0])
            mu, cov = self._moments(m)
        lam, v = top_eigenpair(cov)
        scores = np.square((self.shifted @ v).take(alive) - mu @ v)
        return [lam], scores, scores.sum(axis=1)

    def remove(self, rows: List[int]) -> None:
        x = self.shifted[rows[0]]
        self.total -= x
        self.gram -= x[:, None] * x


def _weighted_picks(rngs: Sequence[np.random.Generator],
                    p: np.ndarray) -> List[int]:
    """For each row of ``p`` and its generator, ``rng.choice(p.shape[1],
    p=row)`` without its checks of ``row``: the same cdf over its last entry
    and draw, so the same index, the first entry above the draw (``choice``'s
    right-side binary search for one lane, one comparison pass for several; 0
    on an all-NaN row), and the same generator state afterwards."""
    cdf = p.cumsum(axis=1)
    cdf /= cdf[:, -1:].copy()  # a copy spares numpy's buffering of the overlap
    if len(rngs) == 1:
        return [int(cdf[0].searchsorted(rngs[0].random(), side="right"))]
    draws = np.array([rng.random() for rng in rngs])
    return (cdf > draws[:, None]).argmax(axis=1).tolist()


def _filter(lane_stats, data: np.ndarray, config: FilterConfig,
            seeds: Sequence[int]) -> List[EstimateReport]:
    """The filter loop on the n rows of ``data``, one lane per seed, with
    round statistics ``lane_stats(data)``.  The lanes run in lockstep: each
    remaining lane removes one row a round, so all have m survivors.  A
    round's statistics are array operations over the lanes, its stop rule and
    records plain Python; a lane's record becomes its report when it leaves."""
    n = data.shape[0]
    if n < 2:
        raise ConfigurationError(f"filtering needs at least 2 rows, got n={n}")
    stats = lane_stats(data)
    # lanes[i] is (lane, its eigenvalues, its removals), alive[i] its
    # survivors in index order as rows of stats.data (lane j's from j * n),
    # and rngs[i] its default_rng(seed), made at the first pick.
    lanes = [(lane, [], []) for lane in range(len(seeds))]
    alive = np.arange(len(lanes) * n).reshape(len(lanes), n)
    rngs = [None] * len(lanes)
    reports: List[EstimateReport] = [None] * len(lanes)
    threshold = -math.inf if config.cov_bound is None \
        else THRESHOLD_FACTOR * config.cov_bound
    budget = math.inf if config.steps is None else config.steps
    rounds = min(n - 1, budget + 1)  # the last spends the budget or leaves 1 row
    for r in range(rounds):  # round r starts with n - r survivors
        lams, scores, totals = stats.round(alive)
        for (_, history, _), lam in zip(lanes, lams):
            history.append(lam)
        # A lane stops below the threshold or at zero scatter (lam <= 0: no
        # point can be scored); every lam <= 0 is below a positive threshold.
        stop = [lam < threshold or lam <= 0.0 for lam in lams]
        spent = r >= budget
        if spent or any(stop):
            leaving = [i for i, s in enumerate(stop) if s or spent]
            for i, mean in zip(leaving, stats.data[alive[leaving]].mean(axis=1)):
                lane, history, removal = lanes[i]
                reason = "threshold" if lams[i] < threshold \
                    else "budget" if spent else "zero_scatter"
                if reason == "zero_scatter":
                    history[-1] = 0.0  # clipped
                reports[lane] = EstimateReport(mean, tuple(removal), {
                    "stop_reason": reason, "eigenvalues": history})
            if len(leaving) == len(lanes):
                return reports
            going = [i for i, s in enumerate(stop) if not s]
            lanes = [lanes[i] for i in going]
            rngs = [rngs[i] for i in going]
            alive, scores, totals = alive[going], scores[going], totals[going]
        listed = totals.tolist()  # scores are squares: a total is 0 or more
        if 0.0 in listed:
            raise DegenerateScoresError("zero scores with a positive eigenvalue")
        if not all(map(math.isfinite, listed)):
            raise DegenerateScoresError("squared deviations overflow")
        scores /= totals[:, None]
        if r == 0:  # the first pick: lanes that left make no generator
            rngs = [np.random.default_rng(seeds[lane]) for lane, _, _ in lanes]
        rows = []
        for (lane, _, removal), row, j in zip(lanes, alive,
                                              _weighted_picks(rngs, scores)):
            rows.append(int(row[j]))
            removal.append(rows[-1] - lane * n)
            row[j:-1] = row[j + 1:]  # the survivors after j move left
        stats.remove(rows)
        alive = alive[:, :-1]
    raise FilterExhaustedError("fewer than 2 survivors before the stop condition held")


def filter_multivariate(samples, config: FilterConfig) -> EstimateReport:
    """Run the iterative spectral filter on an n x p dataset, an array that
    ``model.as_finite_matrix`` accepts.  Deterministic given
    ``config.seed``: each round draws one survivor exactly as ``rng.choice``
    would with probabilities proportional to the scores in index order, by a
    right-side binary search of their cdf, over its last entry, for a draw.

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

    ``diagnostics`` holds ``stop_reason`` (the limit of ``config`` that
    ended the run, ``threshold`` or ``budget``, or ``zero_scatter``) and
    ``eigenvalues``, the top eigenvalue of every round, the last being the
    one the filter stopped on (clipped to 0.0 on a ``zero_scatter`` stop).
    Statistics that overflow, as squares of values near 1e200 do, raise
    ``DegenerateScoresError``: a score total that is not finite where a round
    would pick, and for p > 1 a covariance trace that is not finite in any
    round.
    """
    data = as_finite_matrix(samples)
    lane_stats = _Univariate if data.shape[1] == 1 else _Multivariate
    return _filter(lane_stats, data, config, [config.seed])[0]


def filter_univariate(samples: Sequence[float], config: FilterConfig) -> EstimateReport:
    """Univariate filtering: ``filter_multivariate`` on one column, whose
    p = 1 rounds score squared deviations from the survivors' mean and stop
    on their variance (population convention)."""
    return filter_multivariate(as_finite_matrix(samples, univariate=True),
                               config)


def filter_columns(samples, steps: int, seeds: Sequence[int]) -> np.ndarray:
    """The estimates of ``filter_univariate`` with ``clamp_steps(steps, n)``
    fixed steps and seed ``seeds[j]`` on each column j of an n x k dataset,
    the k filters run in lockstep: the same removals as k separate calls."""
    data = as_finite_matrix(samples)
    cfg = FilterConfig(steps=clamp_steps(steps, data.shape[0]))
    return np.array([r.estimate[0] for r in _filter(_Univariate, data, cfg, seeds)])


def clamp_steps(steps: int, n: int) -> int:
    """A fixed-steps budget for n rows: at most n - 2 (>= 0), so 2 survive."""
    return min(steps, max(n - 2, 0))


def default_steps(delta: float) -> int:
    """Benchmark removal budget: ceil(2 * ln(1/delta))."""
    check_range("delta", delta, 0.0, 1.0, closed=False)
    return math.ceil(2.0 * math.log(1.0 / delta))


def stopping_cap(n: int, n_good: int, delta: float) -> int:
    """High-probability bound on removal rounds for n >= 1 rows, n_good of
    them clean: ceil(18 * ln(1/delta) + 3 * (n - n_good))."""
    check_range("n", n, 1, kind=int)
    check_range("n_good", n_good, 0, n + 1, kind=int)
    check_range("delta", delta, 0.0, 1.0, closed=False)
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
    check_range("n", n, 1, kind=int)
    check_range("p", p, 1, kind=int)
    check_range("delta", delta, 0.0, 1.0, closed=False)
    check_range("epsilon", epsilon, 0.0, 0.5)
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

"""Spectral sample-pruning mean estimator and its univariate form.

One point is removed per round, sampled with probability proportional to its
squared projection on the leading eigenvector of the survivors' sample
covariance, until a stop rule holds.  Sample covariances use the 1/|S|
(population) convention throughout.

One loop runs k filters ("lanes") in lockstep, a round's statistics and picks
array operations over them.  ``filter_multivariate`` is one lane, which for
p > 1 scores every survivor in a round that picks; ``filter_columns`` is one
univariate lane per column, with the removals of separate calls.  A
univariate round reads block sums, not every survivor: it turns them into
block masses, finds the block where the draw falls and scores only that
block's rows.  Where a pick or stop decision lies within a rounding margin of
its boundary, the lane takes the exact arithmetic on its survivors for that
round, so every removal and estimate is the exact arithmetic's.  Every pick
from a full list of scores, that fallback's and the p > 1 lane's, is the same
cdf search as ``Generator.choice``'s (``_cdf_pick``).
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


def _cdf_pick(scores: np.ndarray, total: float, u: float) -> int:
    """``rng.choice(scores.size, p=scores / total)`` for a generator whose
    draw is ``u``, without its checks of p: the first entry above u of the
    cumsum of p over its last entry, by ``choice``'s right-side binary
    search (0 where that cdf is all NaN)."""
    cdf = (scores / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


# Univariate lanes sum their rows in blocks of _BLOCK rows, and decide from
# the sums only where their margin is at most _MARGIN_CAP (see _Univariate).
_BLOCK = 32
_MARGIN_CAP = 2.0**-20


class _Univariate:
    """Round statistics and picks of k univariate lanes, one per column of
    ``data``, from block sums: a round costs O(n/b + b) a lane, b =
    ``_BLOCK``, where scoring every survivor costs O(m).

    A lane keeps its values centred once, y = x - c with c their mean, the
    rows that pad its last block at 0; an alive mask; the sums of y, y^2 and
    the alive count over each block of b rows; and the lane totals S and Q
    of y and y^2.  A removal downdates its block and the totals.  Round 0 takes its variance
    from the centring pass itself, which is the exact arithmetic; a later
    round takes it as V~/m, V~ = Q - S^2/m.  A pick takes three steps: the
    block masses Q_k - 2 mu S_k + m_k mu^2 about mu = S/m, the block where
    the draw u times their sum falls, and the scores (y - mu)^2 of that
    block's b rows only.

    The exact arithmetic (``_exact``) scores the m survivors in index order
    by their squared deviations from their mean, takes the variance as the
    scores' total T over m, and picks the first entry above u of their
    cumsum divided by T and then by its last entry: ``Generator.choice``'s
    cdf c'_j.  Let F_j be the cdf of the survivors' squared deviations in
    exact arithmetic, V its total, sigma^2 = V/m, Q_0 the lane's Q at the
    last exact computation of its sums, rho = Q_0/V and eps = 2^-53.  To
    first order:

      - c'_j: the mean is off by at most d = (m+1) eps sum|x|/m, and sum|x|
        <= m|c| + sqrt(m Q_0); a centre off by d moves each F_j by at most
        2 d/sigma + 2 (d/sigma)^2, and the squares, the m-term sums, the
        quotients and the cumsum add (2m + 7) eps.  So |c'_j - F_j| <=
        2 (m+1) eps (|c| sqrt(m/V) + sqrt(rho)) + (2m + 7) eps.
      - F~_j, the sums' cdf: each maintained sum has taken at most n + n/b
        + 2b roundings since its exact computation, each at most eps times
        Q_0 for squares and sqrt(n Q_0) for values.  Through the rounding of
        y, mu, the block masses, their cumsum, the cdf before the block (its
        end minus its mass), the b scores and the quotient, |F~_j - F_j| <=
        20 (n+b) eps sqrt(n/m) rho.
      - the variance: V~/m and T/m both lie within (5n + 7b) eps sqrt(n/m)
        rho of V/m, relatively.

    The margin E = 2^-47 [(n+b) sqrt(n/m) Q_0/V~ + m |c| sqrt(m/V~)] is 64
    eps times the two terms that these bounds sum to at most 24 eps times;
    the room covers V~ for V and the roundings of the tests themselves.  A
    lane picks row j from its sums only if F~_{j-1} + E <= u < F~_j - E,
    hence c'_{j-1} <= u < c'_j, and takes a stop decision from V~/m only if
    E <= ``_MARGIN_CAP`` (so V~ > 0 and the first-order terms dominate) and
    V~/m lies more than E V~/m from the threshold.  Otherwise the lane runs
    the exact arithmetic on its compacted survivors that round and records
    its exact variance.  The drift guard: a lane whose E exceeds the cap is
    first re-centred on its survivors' mean and summed again exactly, as
    after a far outlier's removal, whose downdates leave no digits of V (V~
    may even be <= 0).  E is about 1e-11 rho at n = 2000: the chance that a
    pick falls back.
    """

    def __init__(self, data: np.ndarray):
        n, k = data.shape
        self.n = self.m = n
        self.data = data.T  # lane j's rows in row j, not copied
        width = -(-n // _BLOCK) * _BLOCK  # dead padding rows fill the last block
        self.alive = np.zeros((k, width), dtype=bool)
        self.alive[:, :n] = True
        self.values = np.zeros((k, width))
        rows = self.values[:, :n]
        rows[:] = self.data
        centre = rows.sum(axis=1) / n
        rows -= centre[:, None]  # the exact arithmetic's deviations in round 0
        self.offset = np.abs(centre)
        self.total, self.total_sq, self.exact_sq, self.mean, self.margin = \
            np.zeros((5, k))
        self.sums, self.squares, self.counts = np.zeros((3, k, width // _BLOCK))
        self.counts[:] = _BLOCK
        self.counts[:, -1] -= width - n

    def _recentre(self, lanes: np.ndarray) -> None:
        """Centre ``lanes`` on their survivors' mean, the dead rows at 0."""
        alive = self.alive[lanes, :self.n]
        data = self.data[lanes] * alive
        centre = data.sum(axis=1) / self.m
        self.offset[lanes] = np.abs(centre)
        self.values[lanes, :self.n] = (data - centre[:, None]) * alive
        self._sum(lanes, np.square(self.values[lanes]))

    def _sum(self, lanes, squares: np.ndarray) -> None:
        """Sum the blocks and totals of ``lanes``, and of their ``squares``,
        exactly."""
        shape = self.sums[lanes].shape + (_BLOCK,)
        self.sums[lanes] = self.values[lanes].reshape(shape).sum(axis=2)
        self.squares[lanes] = squares.reshape(shape).sum(axis=2)
        self.total[lanes] = self.sums[lanes].sum(axis=1)
        self.total_sq[lanes] = self.exact_sq[lanes] = self.squares[lanes].sum(axis=1)

    def _moments(self) -> np.ndarray:
        """The lanes' variances from their sums; sets their mean and margin.
        A scatter that is 0 or overflowed makes the margin inf or NaN."""
        m, n = self.m, self.n
        self.mean = self.total / m
        scatter = self.total_sq - self.total * self.mean
        self.margin = (2.0**-47 * math.sqrt(n / m) * (n + _BLOCK) * self.exact_sq
                       + 2.0**-47 * m**1.5 * self.offset * np.sqrt(scatter)) / scatter
        return scatter / m

    def _exact(self, i: int) -> Tuple[np.ndarray, float]:
        """Lane i's survivors' squared deviations from their mean and their
        total, by the exact arithmetic."""
        survivors = self.data[i, self.alive[i, :self.n]]
        survivors -= survivors.sum() / self.m
        scores = np.square(survivors, out=survivors)
        return scores, scores.sum()

    def round(self, threshold: float) -> list:
        if self.m == self.n:  # round 0: the centring was the exact arithmetic
            self.squared = np.square(self.values)  # summed by the first pick
            totals = self.squared[:, :self.n].sum(axis=1)
            self.exact = list(zip(self.squared[:, :self.n], totals))
            return (totals / self.n).tolist()
        with np.errstate(all="ignore"):
            lams = self._moments()
            sure = self.margin <= _MARGIN_CAP  # hence a finite scatter > 0
            if not sure.all():  # the drift guard
                self._recentre(np.flatnonzero(~sure))
                lams = self._moments()
                sure = self.margin <= _MARGIN_CAP
            if threshold > -math.inf:
                sure &= np.abs(lams - threshold) > self.margin * lams
        lams = lams.tolist()
        self.exact = [None] * len(lams)
        if not sure.all():
            for i in np.flatnonzero(~sure).tolist():
                self.exact[i] = scores, total = self._exact(i)
                lams[i] = float(total / self.m)
        return lams

    def means(self, leaving: List[int]) -> np.ndarray:
        data = self.data if len(leaving) == len(self.data) else self.data[leaving]
        survivors = data[self.alive[leaving, :self.n]]
        return survivors.reshape(len(leaving), self.m).mean(axis=1, keepdims=True)

    def keep(self, going: List[int]) -> None:
        for name, value in vars(self).items():  # every array is lane by lane
            if isinstance(value, np.ndarray):
                setattr(self, name, value[going])
        self.exact = [self.exact[i] for i in going]

    def pick(self, rngs: Sequence[np.random.Generator]) -> List[int]:
        for exact in self.exact:
            if exact is not None and not math.isfinite(exact[1]):
                raise DegenerateScoresError("squared deviations overflow")
        draws = [rng.random() for rng in rngs]
        u = np.array(draws)
        lanes = np.arange(u.size)
        with np.errstate(all="ignore"):  # lanes with an inf or NaN margin
            if self.m == self.n:
                self._sum(slice(None), self.squared)
                self.squared = None
                self._moments()
            mean = self.mean[:, None]
            masses = self.squares - mean * (2.0 * self.sums - self.counts * mean)
            cdf = masses.cumsum(axis=1)
            target = u * cdf[:, -1]
            margin = self.margin * cdf[:, -1]
            # The block where u * total falls (flat index lane * blocks +
            # block), and in it the first row whose cdf lies more than the
            # margin above u: certain if it is also the first row whose cdf
            # lies above u less the margin, and the block's start below it.
            block = (cdf > target[:, None]).argmax(axis=1) + lanes * cdf.shape[1]
            target -= cdf.take(block) - masses.take(block)
            partial = (np.square(self.values.reshape(-1, _BLOCK).take(block, axis=0) - mean)
                       * self.alive.reshape(-1, _BLOCK).take(block, axis=0)).cumsum(axis=1)
            above, below = target + margin, target - margin
            j = (partial > above[:, None]).argmax(axis=1)
            sure = (j == (partial > below[:, None]).argmax(axis=1)) \
                & (partial[:, -1] > above) & (below >= 0.0) \
                & (self.margin <= _MARGIN_CAP)
        picks = block * _BLOCK + j  # flat indices into values
        if not sure.all():
            for i in np.flatnonzero(~sure).tolist():
                scores, total = self.exact[i] or self._exact(i)
                picks[i] = i * self.values.shape[1] + np.flatnonzero(self.alive[i])[
                    _cdf_pick(scores, total, draws[i])]
            block = picks // _BLOCK
        # Every array here is C-contiguous, so reshape(-1) is a view of it.
        y = self.values.take(picks)
        y2 = y * y
        self.sums.reshape(-1)[block] -= y
        self.squares.reshape(-1)[block] -= y2
        self.counts.reshape(-1)[block] -= 1.0
        self.total -= y
        self.total_sq -= y2
        self.alive.reshape(-1)[picks] = False
        self.m -= 1
        return (picks % self.values.shape[1]).tolist()


class _Multivariate:
    """Round statistics and pick of one lane from the survivors' shifted sum
    and Gram matrix G, downdated by one rank-one term per removed row; a pick
    scores every survivor by its squared projection on the round's top
    eigenvector."""

    def __init__(self, data: np.ndarray):
        self.data = data
        self.alive = np.arange(data.shape[0])  # the survivors in index order
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

    def round(self, threshold: float) -> list:
        m = self.alive.size
        self.mu, cov = self._moments(m)
        trace = cov.trace()
        if not math.isfinite(trace):  # overflow: inf, or NaN from inf - inf
            raise DegenerateScoresError("the survivors' covariance is not finite")
        if self.exact_trace > _DRIFT_RATIO * m * trace:
            self._recentre(self.alive)
            self.mu, cov = self._moments(m)
        lam, self.v = top_eigenpair(cov)
        return [lam]

    def means(self, leaving: List[int]) -> list:
        return [self.data[self.alive].mean(axis=0)]

    def pick(self, rngs: Sequence[np.random.Generator]) -> List[int]:
        scores = np.square((self.shifted @ self.v).take(self.alive) - self.mu @ self.v)
        total = scores.sum()  # scores are squares: 0 or more, inf or NaN
        if total == 0.0:
            raise DegenerateScoresError("zero scores with a positive eigenvalue")
        if not math.isfinite(total):
            raise DegenerateScoresError("squared deviations overflow")
        j = _cdf_pick(scores, total, rngs[0].random())
        row = int(self.alive[j])
        self.alive[j:-1] = self.alive[j + 1:]  # the survivors after j move left
        self.alive = self.alive[:-1]
        x = self.shifted[row]
        self.total -= x
        self.gram -= x[:, None] * x
        return [row]


def _filter(lane_stats, data: np.ndarray, config: FilterConfig,
            seeds: Sequence[int]) -> List[EstimateReport]:
    """The filter loop on the n rows of ``data``, one lane per seed, with
    round statistics ``lane_stats(data)``, ``_Univariate``'s or one lane's
    ``_Multivariate``.  Either gives each lane's eigenvalue (``round``),
    survivors' mean (``means``) and removed row (``pick``); ``_Univariate``
    also drops the lanes that leave while others go on (``keep``).  The
    lanes run in lockstep: each remaining lane removes one row a round, so
    all have m survivors.  A round's statistics and picks are array
    operations over the lanes, its stop rule and records plain Python; a
    lane's record becomes its report when it leaves."""
    n = data.shape[0]
    if n < 2:
        raise ConfigurationError(f"filtering needs at least 2 rows, got n={n}")
    stats = lane_stats(data)
    # lanes[i] is (lane, its eigenvalues, its removals), the i-th lane of
    # stats, and rngs[i] its default_rng(seed), made at the first pick.
    lanes = [(lane, [], []) for lane in range(len(seeds))]
    rngs = [None] * len(lanes)
    reports: List[EstimateReport] = [None] * len(lanes)
    threshold = -math.inf if config.cov_bound is None \
        else THRESHOLD_FACTOR * config.cov_bound
    budget = math.inf if config.steps is None else config.steps
    rounds = min(n - 1, budget + 1)  # the last spends the budget or leaves 1 row
    for r in range(rounds):  # round r starts with n - r survivors
        lams = stats.round(threshold)
        for (_, history, _), lam in zip(lanes, lams):
            history.append(lam)
        # A lane stops below the threshold or at zero scatter (lam <= 0: no
        # point can be scored); every lam <= 0 is below a positive threshold.
        stop = [lam < threshold or lam <= 0.0 for lam in lams]
        spent = r >= budget
        if spent or any(stop):
            leaving = [i for i, s in enumerate(stop) if s or spent]
            for i, mean in zip(leaving, stats.means(leaving)):
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
            stats.keep(going)
        if r == 0:  # the first pick: lanes that left make no generator
            rngs = [np.random.default_rng(seeds[lane]) for lane, _, _ in lanes]
        for (_, _, removal), row in zip(lanes, stats.pick(rngs)):
            removal.append(row)
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
    O(np) projection for the scores in a round that picks.  A drift guard
    re-centres the rows on the survivors and recomputes both exactly
    whenever the trace of G at the last exact computation exceeds 2^10 * m *
    trace(cov), as it does once a far outlier has been removed.  For p = 1 a
    round is the variance and the squared deviations of the survivors, no
    matrix and no eigensolve, read from block sums (see ``_Univariate``):
    the same removals, stops and estimate, with each eigenvalue the
    survivors' variance to within its rounding margin (the exact one where
    the margin does not decide).  The estimate is the survivors' mean,
    computed from the data.  No bit of the report depends on the input's
    memory layout.

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
    the k filters run in lockstep: the same removals as k separate calls.
    A round costs O(n/32 + 32) a column: block masses, the block of the
    draw and its rows' scores, with the exact arithmetic where the margin
    does not decide (see ``_Univariate``).  ``seeds`` must hold one int >= 0
    per column."""
    data = as_finite_matrix(samples)
    if len(seeds) != data.shape[1]:
        raise ConfigurationError(
            f"filter_columns needs one seed per column: {len(seeds)} seeds "
            f"for {data.shape[1]} columns")
    # Plain ints >= 0, the usual seeds, skip check_range, whose per-seed
    # cost adds up over many lanes.
    if not all(type(seed) is int and seed >= 0 for seed in seeds):
        for seed in seeds:
            check_range("seed", seed, 0, kind=int)
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

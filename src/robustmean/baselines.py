"""Baseline and oracle estimators: sample mean, geometric median-of-means,
coordinate-wise filtering, ball-truncation with side information, and the
brute-force subset-search estimator."""

from __future__ import annotations

import math
from itertools import chain, combinations, islice, product

import numpy as np

from .errors import ConfigurationError, ConvergenceError, EmptySelectionError
from .filtering import default_steps, filter_columns
from .model import (
    MomentProfile, as_finite_matrix, as_float_array, check_range, derived_seed)

SRM_MAX_N = 25
# Sets R (see srm_bruteforce) enumerated per vectorised step of its screen.
_SRM_CHUNK = 2048
# Weiszfeld stops once a step is at most WEISZFELD_TOL times the new iterate's
# norm, and raises ConvergenceError after WEISZFELD_MAX_ITER steps.
WEISZFELD_TOL = 1e-10
WEISZFELD_MAX_ITER = 10_000


def sample_mean(samples) -> np.ndarray:
    """Plain arithmetic mean of the rows."""
    return as_finite_matrix(samples).mean(axis=0)


def geometric_median(points: np.ndarray) -> np.ndarray:
    """Geometric median of the rows of ``points`` (read through
    ``as_finite_matrix``, so non-finite rows raise ``ConfigurationError``
    before the first step) by Weiszfeld iteration.

    Uses the standard modified step when the iterate lands on a data point
    (within 1e-12), which keeps the objective non-increasing.  Distances and
    norms are ``np.linalg.norm``'s square roots of sums of squares, unwrapped."""
    pts = as_finite_matrix(points)
    theta = pts.mean(axis=0)
    for _ in range(WEISZFELD_MAX_ITER):
        dists = np.sqrt(np.square(pts - theta).sum(axis=1))
        if dists.min() < 1e-12:
            # Modified Weiszfeld step (Vardi-Zhang) anchored at the
            # coinciding point.
            at_point = dists < 1e-12
            others = ~at_point
            if not others.any():
                return theta
            inv = 1.0 / dists[others]
            t_tilde = (pts[others] * inv[:, None]).sum(axis=0) / inv.sum()
            r_vec = ((pts[others] - theta) * inv[:, None]).sum(axis=0)
            r = math.sqrt(r_vec.dot(r_vec))
            eta = float(at_point.sum())
            if r <= eta:
                return theta  # optimality condition at the anchor
            lam = eta / r
            new_theta = (1.0 - lam) * t_tilde + lam * theta
        else:
            inv = 1.0 / dists
            new_theta = (pts * inv[:, None]).sum(axis=0) / inv.sum()
        step = new_theta - theta
        denom = max(math.sqrt(new_theta.dot(new_theta)), 1e-300)
        theta = new_theta
        if math.sqrt(step.dot(step)) <= WEISZFELD_TOL * denom:
            return theta
    raise ConvergenceError(
        "Weiszfeld iteration hit its iteration cap", last_iterate=theta
    )


def geometric_median_of_means(samples, blocks: int) -> np.ndarray:
    """Geometric median of the means of contiguous near-equal blocks."""
    data = as_finite_matrix(samples)
    check_range(f"blocks with n={data.shape[0]}", blocks, 1, data.shape[0] + 1,
                kind=int)
    block_means = np.stack(
        [chunk.mean(axis=0) for chunk in np.array_split(data, blocks)]
    )
    return geometric_median(block_means)


def coordinatewise_filter(samples, delta: float, seed: int = 0) -> np.ndarray:
    """Univariate filtering applied to each coordinate independently, with
    per-coordinate derived seeds and the fixed-steps benchmark budget.  The
    p filters run in lockstep (``filter_columns``), with the removals of p
    separate ``filter_univariate`` calls."""
    data = as_finite_matrix(samples)
    check_range("seed", seed, 0, kind=int)
    return filter_columns(data, default_steps(delta),
                          [derived_seed(seed, j) for j in range(data.shape[1])])


def oracle_radius(moments: MomentProfile, n: int, delta: float,
                  epsilon: float = 0.0) -> float:
    """Analytic truncation radius for ``oracle_truncated_mean``.  The model
    is read from epsilon: 0 is the heavy-tailed model, > 0 Huber's.

    Heavy-tail (epsilon = 0):
      k=2: sqrt(tr) / (r^{1/8} * (ln(1/d)/n)^{1/4})
      k=1: sqrt(tr) / (r^{1/4} * (ln(1/d)/n)^{1/2})
    Contaminated (epsilon > 0):
      k=1: sqrt(tr) / (eps + ln(1/d)/n)^{1/2}
      k=2: sqrt(tr) / (eps + ln(1/d)/n)^{1/4}
    where k, tr and r = tr / opnorm (the effective rank) come from
    ``moments``, the clean law's ``MomentProfile``.
    """
    check_range("n", n, 1, kind=int)
    check_range("delta", delta, 0.0, 1.0, closed=False)
    check_range("epsilon", epsilon, 0.0, 0.5)
    if moments.opnorm_sigma <= 0:
        raise ConfigurationError("need opnorm_sigma > 0")
    k = moments.k
    sqrt_tr = math.sqrt(moments.trace_sigma)
    rate = math.log(1.0 / delta) / n
    if epsilon > 0:
        return sqrt_tr / (epsilon + rate) ** (0.5 if k == 1 else 0.25)
    eff_rank = moments.effective_rank
    if k == 2:
        return sqrt_tr / (eff_rank ** 0.125 * rate ** 0.25)
    return sqrt_tr / (eff_rank ** 0.25 * rate ** 0.5)


def oracle_truncated_mean(samples, center, radius: float) -> np.ndarray:
    """Mean of the rows within the closed ball of ``radius`` around
    ``center``, the true mean given as side information."""
    data = as_finite_matrix(samples)
    p = data.shape[1]
    center = as_finite_matrix(
        as_float_array(center, "center").ravel(), what="center")[:, 0]
    if center.shape != (p,):
        raise ConfigurationError(
            f"center has length {center.size}; data has p={p}")
    check_range("radius", radius, 0.0, closed=False)
    survivors = data[np.linalg.norm(data - center, axis=1) <= radius]
    if survivors.shape[0] == 0:
        raise EmptySelectionError("all rows lie outside the truncation ball")
    return survivors.mean(axis=0)


def srm_bruteforce(samples, epsilon: float) -> np.ndarray:
    """Mean of the size-floor((1-eps)n) subset with the smallest within-subset
    scatter, by exhaustive search (n <= SRM_MAX_N = 25): a screen keeps the
    subsets within ``slack`` of the smallest scatter, and the exhaustive
    loop's own arithmetic (``rows.mean``, the sum of squared deviations over
    size, ties to the lexicographically smallest index set) confirms them.
    ``slack`` bounds twice the screen's rounding plus twice the loss's, which
    grows with the raw magnitude of the data, so every subset of minimal
    loss is kept and the result is the loop's, bit for bit.

    Windows (p = 1): if a subset S of mean mu leaves out a row of value z
    strictly between min S and max S, putting z in place of the endpoint x
    farther from mu lowers the scatter by at least (x - z)^2 / size >=
    g^2 / size, g the smallest positive gap between values.  Once that
    exceeds slack, only value-windows (the rows strictly inside (lo, hi)
    and some copies of lo and of hi) can win: the sorted column's windows
    are screened and every choice of copies of the kept ones is confirmed.

    Complements (p > 1, or no certificate): a subset's scatter is the
    totals minus its complement's sums, A(S) - |sum_S y|^2 / size with A(S)
    the sum of |y|^2 over the centred rows y of S.  A complement of
    k = n - size rows is {a} + R with a < min R: only the C(n - 1, k - 1)
    sets R are enumerated, in chunks of ``_SRM_CHUNK`` whose sums serve
    every a, and only the complements (int8) within ``slack`` of the
    running minimum are kept, so working memory does not grow with
    C(n, size) unless most tie.
    """
    data = as_finite_matrix(samples)
    n, p = data.shape
    if n > SRM_MAX_N:
        raise ConfigurationError(
            f"subset search is exhaustive and limited to n <= {SRM_MAX_N}, "
            f"got n={n}"
        )
    check_range("epsilon", epsilon, 0.0, 1.0)
    size = math.floor((1.0 - epsilon) * n)
    if size < 1:
        raise ConfigurationError("subset size floor((1-eps)n) must be >= 1")
    if size == n:
        return data.mean(axis=0)

    centred = data - data.mean(axis=0)
    row_sq = np.square(centred).sum(axis=1)
    total_sq = float(row_sq.sum())
    total = centred.sum(axis=0)
    # With a margin of 2: twice the screen's error (the centring, the sums
    # and their cancellation against the totals, within a multiple of
    # u * total_sq), twice the loop's (its mean is off by up to
    # size * u * max|y| per coordinate, which adds size * |off|^2, and its
    # sum of squares is within (size * p + 2) * u relatively), the rounding
    # of the loop's division, and underflow; u = eps / 2.  The screen takes
    # a complement's rows from the totals one at a time, its first row last;
    # a sum of m terms is within (m - 1) * u of their absolute sum in any
    # order, so that order keeps its error within the same multiple.
    eps = np.finfo(float).eps
    slack = (8 * eps * (n + p + 2) ** 2 * (1 + n / size) * total_sq
             + size ** 3 * eps ** 2 * float(np.square(np.abs(data).max(axis=0)).sum())
             + 4 * (n + 2) * (p + 2) * math.ulp(0.0))
    if not math.isfinite(2 * n * total_sq + slack):
        slack = math.inf  # the screen's squares may overflow: confirm all
    if p == 1 and slack < math.inf:
        order = np.argsort(data[:, 0], kind="stable")
        gaps = np.diff(data[order, 0])
        gap = gaps[gaps > 0].min(initial=math.inf)  # inf if all values tie
        # Rounding g, its square and the division raise g^2 / size by a
        # factor under (1 + u)^4 < 2, so the exact g^2 / size exceeds slack.
        if gap ** 2 / size > 2 * slack:
            return _srm_windows(data, order, centred[order, 0], size, slack)
    # The R's come in lexicographic order: those with min R > a are a tail.
    k = n - size
    rests, count = combinations(range(1, n), k - 1), math.comb(n - 1, k - 1)
    best = math.inf
    kept = []  # (a, R's, scatters) within slack of the running minimum
    for done in range(0, count, _SRM_CHUNK):
        m = min(_SRM_CHUNK, count - done)
        chunk = np.fromiter(chain.from_iterable(islice(rests, m)), dtype=np.int8,
                            count=m * (k - 1)).reshape(m, k - 1)
        rest_total, rest_sq = np.broadcast_to(total, (m, p)), np.full(m, total_sq)
        for column in chunk.T:
            rest_total = rest_total - centred[column]
            rest_sq = rest_sq - row_sq[column]
        firsts = chunk[:, 0] if k > 1 else [n]
        tails = np.searchsorted(firsts, np.arange(firsts[-1]), side="right")
        for a, tail in enumerate(tails.tolist()):
            scatter = (rest_sq[tail:] - row_sq[a]
                       - np.square(rest_total[tail:] - centred[a]).sum(axis=1) / size)
            low = float(scatter.min())
            best = min(best, low)
            if not low > best + slack:  # an overflowed NaN stays
                near = ~(scatter > best + slack)
                kept.append((a, chunk[tail:][near], scatter[near]))
    kept = np.concatenate([np.insert(rest[~(scatter > best + slack)], 0, a, axis=1)
                           for a, rest, scatter in kept])

    def subsets(m):
        for done in range(0, len(kept), m):
            chunk = kept[done:done + m]
            inside = np.ones((len(chunk), n), dtype=bool)
            inside[np.arange(len(chunk))[:, None], chunk] = False
            yield np.broadcast_to(np.arange(n), inside.shape)[inside].reshape(-1, size)
    return _srm_confirm(data, size, subsets)


def _srm_windows(data, order, centred, size, slack):
    """``srm_bruteforce``'s window path; ``order`` sorts the column stably
    and ``centred`` is the centred column in that order."""
    values = data[order, 0]
    # A window's scatter is a sum of size terms, within the screen's bound.
    windows = centred[np.arange(len(centred) - size + 1)[:, None] + np.arange(size)]
    scatter = np.square(windows).sum(axis=1) - np.square(windows.sum(axis=1)) / size
    near = ~(scatter > scatter.min() + slack)
    near[1:] &= values[:-size] != values[size:]  # one-value windows: first of a run
    choices = []  # per window, the lazy product: inner rows, copies of lo, of hi
    for start in np.flatnonzero(near).tolist():
        window = values[start:start + size]
        lo, hi = window[0], window[-1]
        ends = [combinations(order[values == end].tolist(), int((window == end).sum()))
                for end in (lo, hi)]
        # With lo == hi every choice of copies holds the same rows, so the
        # first, the lexicographically smallest, stands for them all.
        choices.append(product([order[(lo < values) & (values < hi)].tolist()],
                               islice(ends[0], 1 if lo == hi else None),
                               ends[1] if lo < hi else [()]))
    flat = chain.from_iterable(chain.from_iterable(chain.from_iterable(choices)))

    def subsets(m):
        while (chunk := np.fromiter(islice(flat, m * size), dtype=np.intp)).size:
            yield np.sort(chunk.reshape(-1, size), axis=1)
    return _srm_confirm(data, size, subsets)


def _srm_confirm(data, size, subsets):
    """The exhaustive loop's pick among the candidates that ``subsets(m)``
    yields, arrays of at most m sorted index rows, m * size * p at most
    ``_SRM_CHUNK * n`` floats.  Each array is one pass of the loop's
    arithmetic (``rows.mean``, the sum of the squared deviations over size):
    the first strictly smaller loss wins, so NaN and +inf never do, and ties
    go to the lexicographically smallest row, the loop's first."""
    n, p = data.shape
    best, best_mean = (math.inf, []), None
    for rows in subsets(max(1, _SRM_CHUNK * n // (size * p))):
        picked = data.take(rows, axis=0)
        means = picked.sum(axis=1) / size  # picked.mean(axis=1) bit for bit
        picked -= means[:, None]
        losses = np.square(picked, out=picked).reshape(len(rows), -1).sum(axis=1) / size
        low = np.fmin.reduce(losses)  # NaN only if all are
        if not low < math.inf or low > best[0]:
            continue
        ties = (losses == low).nonzero()[0]
        i = ties[np.lexsort(rows[ties].T[::-1])[0]]
        if (low, rows[i].tolist()) < best:
            best, best_mean = (low, rows[i].tolist()), means[i].copy()
    return best_mean

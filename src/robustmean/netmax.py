"""Direction covers of the unit sphere and minimax-center aggregation.

A half-cover is a finite set of unit vectors within Euclidean distance 1/2
of every unit vector (optionally restricted to 2s-sparse unit vectors).  The
multivariate estimator runs a robust 1D estimator along every cover
direction and returns the point whose projections are uniformly closest to
those per-direction estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .errors import ConfigurationError, EstimatorError
from .filtering import EstimateReport, filter_columns
from .interval import IntervalConfig, interval_columns
from .model import (
    as_finite_matrix, as_float_array, check_range, check_type, derived_seed)

COVER_RADIUS = 0.5
DENSE_P_CAP = 12
SPARSE_BUDGET = 20.0  # cap on s * ln(6 e p / s) so inner confidences stay sane
CONSECUTIVE_COVERED = 100_000
HULL_P_CAP = 3  # dense covers (build_half_cover) and LPs (_minimax_lp) to this p use Qhull
SUPPORT_ENUM_CAP = 10_000
INNER_ESTIMATORS = ("interval1d", "filter1d")


@dataclass(frozen=True)
class CoverSet:
    """Unit directions forming a half-cover, optionally 2s-sparse."""

    directions: np.ndarray
    sparsity: Optional[int] = None  # max nonzeros per direction (2s)

    def __post_init__(self):
        what = "cover directions"
        arr = as_finite_matrix(
            np.atleast_2d(as_float_array(self.directions, what)), what=what)
        norms = np.linalg.norm(arr, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ConfigurationError("cover directions must be unit vectors")
        if self.sparsity is not None:
            check_range("cover sparsity", self.sparsity, 1, kind=int)
            if np.any(np.count_nonzero(arr, axis=1) > self.sparsity):
                raise ConfigurationError(
                    f"cover directions must have <= {self.sparsity} nonzeros")
        object.__setattr__(self, "directions", arr)

    @property
    def size(self) -> int:
        return self.directions.shape[0]

    @property
    def p(self) -> int:
        return self.directions.shape[1]


@dataclass(frozen=True)
class NetConfig:
    """Settings for the cover-based multivariate estimator.

    ``inner`` picks the per-direction 1D estimator.  The per-direction
    confidence is delta / 5^p (dense) or delta / (6 e p / s)^s (sparse),
    handled in log-space.
    """

    epsilon: float
    delta: float
    inner: str = "interval1d"
    sparsity: Optional[int] = None  # s, the sparsity of the mean

    def __post_init__(self):
        check_range("epsilon", self.epsilon, 0.0, 0.5)
        check_range("delta", self.delta, 0.0, 1.0, closed=False)
        if self.inner not in INNER_ESTIMATORS:
            raise ConfigurationError(f"unknown inner estimator {self.inner!r}")
        if self.sparsity is not None:
            check_range("sparsity s", self.sparsity, 1, kind=int)

    def log_inv_delta_inner(self, p: int) -> float:
        """ln(1/delta') for the per-direction union bound."""
        base = math.log(1.0 / self.delta)
        if self.sparsity is None:
            if p > DENSE_P_CAP:
                raise ConfigurationError(
                    f"dense covers are limited to p <= {DENSE_P_CAP}"
                )
            return base + p * math.log(5.0)
        s = self.sparsity
        penalty = s * math.log(6.0 * math.e * p / s)
        if penalty > SPARSE_BUDGET:
            raise ConfigurationError(
                "s * log(6 e p / s) too large for a usable inner confidence"
            )
        if math.comb(p, s) > SUPPORT_ENUM_CAP:
            raise ConfigurationError(f"C({p}, {s}) = {math.comb(p, s)} supports "
                                     f"exceed the cap of {SUPPORT_ENUM_CAP}")
        return base + penalty


def _square_norms(rows: np.ndarray) -> np.ndarray:
    # Sums of non-negative squares: zero exactly when every square is.
    return np.square(rows) @ np.ones(rows.shape[1])


def _unit(rows: np.ndarray) -> np.ndarray:
    """Nonzero rows scaled to unit norm, bit for bit as one row at a time."""
    # One dot product per row: each norm is np.linalg.norm(row)'s, bit for
    # bit, in any batch.  Row sums (_square_norms, einsum) can differ in the
    # last ulp: fine for a screen, not for a probe that joins a cover.
    return rows / np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]))[:, 0]


def _draw_rows(
    rng: np.random.Generator, batch: int, p: int, support_size: Optional[int]
) -> np.ndarray:
    """``batch`` nonzero Gaussian rows, 2s-sparse when ``support_size``
    (= 2s) is below ``p``: the random unit probes before normalising.

    The rows are exactly those of ``batch`` one-probe draws from the same
    stream: dense rows come from one ``standard_normal((batch, p))`` call,
    sparse ones from one ``standard_normal((batch, 2 p))`` call, each row's
    first p values kept at the 2s coordinates of its smallest last p values
    (a uniform 2s-support) and zeroed elsewhere.  A row whose squared norm
    (so its norm) is exactly zero is drawn again, the same way and after the
    batch, until it is not.
    """

    def draw(count: int) -> np.ndarray:
        if support_size is None or support_size >= p:
            return rng.standard_normal((count, p))
        rows, keys = np.hsplit(rng.standard_normal((count, 2 * p)), 2)
        np.put_along_axis(rows, keys.argpartition(support_size)[:, support_size:], 0.0, 1)
        return rows

    rows = draw(batch)
    zero = np.flatnonzero(_square_norms(rows) == 0.0)
    while zero.size:
        rows[zero] = draw(zero.size)
        zero = zero[_square_norms(rows[zero]) == 0.0]
    return rows


def build_half_cover(
    p: int, sparsity: Optional[int] = None, seed: int = 0
) -> CoverSet:
    """Greedy randomized half-cover construction.

    Starts from the signed coordinate axes, then draws random unit probes in
    batches of 2048 (if ``sparsity`` = s, Gaussian at the 2s coordinates of
    least Gaussian keys, 0 elsewhere): the first probe of a batch farther than
    1/2 from the cover joins it, until 10^5 consecutive probes are all covered.
    Only a joining probe is normalised (see ``_first_uncovered``).  At p <= 3 a
    dense cover below radius 1/2 stops early, with the cover of the streak.
    """
    check_range("p", p, 1, kind=int)
    check_range("seed", seed, 0, kind=int)
    support_size = None
    if sparsity is not None:
        check_type("sparsity s", sparsity, int)
        if not 1 <= sparsity <= p / 2:
            raise ConfigurationError(
                f"sparsity s must satisfy 1 <= s <= p/2, got s={sparsity}, p={p}")
        support_size = 2 * sparsity
    eye = np.eye(p)
    points = [e for pair in zip(eye, -eye) for e in pair]
    if p == 1:
        # {+1, -1} covers S^0 with radius 0.
        return CoverSet(np.array(points), sparsity=support_size)

    rng = np.random.default_rng(np.random.SeedSequence([seed, p, support_size or 0]))
    cover = np.array(points)
    covered_streak = 0
    batch = 2048
    while covered_streak < CONSECUTIVE_COVERED:
        rows = _draw_rows(rng, batch, p, support_size)
        first = _first_uncovered(rows, cover)
        if first is None:
            # Under 1/2 - 1e-9 each unit q has a row c with q.c > _SURELY_COVERED
            # + 4.9e-10 (Qhull errs 1e-15, the screen 1e-14): every later probe
            # passes.  At p = 4 a hull costs 3 batches and none is below 1/2.
            if (not covered_streak and p <= HULL_P_CAP and (support_size or p) >= p
                    and _covering_radius(cover) < COVER_RADIUS - 1e-9):
                break
            covered_streak += batch
            continue
        covered_streak = 0  # probes before `first` were covered but a miss resets
        cover = np.vstack([cover, _unit(rows[first:first + 1])])
    return CoverSet(cover, sparsity=support_size)


# For a nonzero row r, q = r / |r| and a unit cover row c, the computed r.c
# and sqrt(r.r) are within p u |r| and (p/2 + 1) u |r| (u = 2^-53), so
# comparing r.c with k times the computed norm compares q.c with k to within
# about 1e-14 (p <= 50, or 2s <= 50 nonzeros per sparse row); the whole
# distance matrix's (|q|^2 - 2 q.c) + |c|^2 is within as much of 2 - 2 q.c.
# So some q.c above 1 - (1/4 - 1e-12)/2 puts q within 1/2 of the cover, and
# every q.c below 1 - (1/4 + 1e-12)/2 farther than 1/2 from it, whatever the
# rounding.
_SURELY_COVERED = 1.0 - (COVER_RADIUS**2 - 1e-12) / 2.0
_SURELY_UNCOVERED = 1.0 - (COVER_RADIUS**2 + 1e-12) / 2.0


def _covering_radius(cover: np.ndarray) -> float:
    """Exact covering radius of unit rows around 0: at the nearest facet's normal."""
    return math.sqrt(2.0 - 2.0 * (-ConvexHull(cover).equations[:, -1]).min())


def _first_uncovered(rows: np.ndarray, cover: np.ndarray) -> Optional[int]:
    """Index of the first nonzero row whose direction is farther than 1/2
    from every cover row, or None: the answer of the whole distance matrix
    of ``_unit(rows)``, bit for bit.

    The column maxima of a cover x row product of the raw rows (far cheaper
    than the row maxima of a row x cover product) settle every row but those
    within about 1e-12 of the boundary.  Only if one of those comes first is
    the batch normalised and those rows judged, in order, by
    ``_nearest_distances`` of the whole batch.
    """
    norms = np.sqrt(_square_norms(rows))
    best = (cover @ np.ascontiguousarray(rows.T)).max(axis=0)
    near = np.flatnonzero(best <= _SURELY_COVERED * norms)
    if near.size == 0:
        return None
    if best[near[0]] < _SURELY_UNCOVERED * norms[near[0]]:
        return int(near[0])
    far = near[_nearest_distances(_unit(rows), cover)[near] > COVER_RADIUS]
    return int(far[0]) if far.size else None


def _nearest_distances(probes: np.ndarray, cover: np.ndarray) -> np.ndarray:
    """Each unit probe's distance to its nearest cover row, from the whole
    probe x cover matrix of (|q|^2 - 2 q.c) + |c|^2: a row of a product over
    fewer probes can round differently."""
    d2 = (np.sum(probes**2, axis=1)[:, None] - 2.0 * probes @ cover.T
          + np.sum(cover**2, axis=1)[None, :])
    return np.sqrt(np.maximum(d2.min(axis=1), 0.0))


def _worst_probe_distance(cover: CoverSet, probes: int) -> float:
    """Max over random unit probes (a fixed stream per p) of the distance to
    the nearest cover point."""
    rng = np.random.default_rng(np.random.SeedSequence([123, cover.p]))
    worst = 0.0
    for _ in range(probes // 2048 + 1):
        qs = _unit(_draw_rows(rng, 2048, cover.p, cover.sparsity))
        worst = max(worst, float(_nearest_distances(qs, cover.directions).max()))
    return worst


def certify_cover(cover: CoverSet, probes: int = 10_000) -> float:
    """Empirical coverage check: the worst probe distance of ``probes``
    random unit probes.  Raises if it exceeds the radius + 1e-9."""
    check_range("probes", probes, 1, kind=int)
    worst = _worst_probe_distance(cover, probes)
    if worst > COVER_RADIUS + 1e-9:
        raise EstimatorError(
            f"cover certification failed: worst probe distance {worst:.6f}"
        )
    return worst


def cover_to_csv(cover: CoverSet, path) -> None:
    np.savetxt(path, cover.directions, delimiter=",", fmt="%.17g")


def cover_from_csv(path, sparsity: Optional[int] = None) -> CoverSet:
    arr = np.loadtxt(path, delimiter=",", ndmin=2)
    return CoverSet(arr, sparsity=sparsity)


def _minimax_lp(directions: np.ndarray, targets: np.ndarray):
    """Minimize t subject to |u_j . theta - m_j| <= t: ``(theta, t)``, the
    targets scaled exactly by a power of two to below 1.  At <= HULL_P_CAP
    full-rank columns (HiGHS costs 10x more at p <= 3, 1/8 at p = 5) the
    least-squares start theta0 of gap g is feasible for t >= g: the optimum
    is the least-t vertex of the feasible set capped at t <= 2 g + 2^-10."""
    exp = math.frexp(float(np.abs(targets).max()))[1]
    m = np.ldexp(targets, -exp)
    count, p = directions.shape
    if p <= HULL_P_CAP:
        start, _, rank, _ = np.linalg.lstsq(directions, m, rcond=None)
    if p > HULL_P_CAP or rank < p:
        theta, t = _minimax_highs(directions, m)
        return np.ldexp(theta, exp), float(np.ldexp(t, exp))
    gap = minimax_objective(directions, m, start)
    cap = 2.0 * gap + 2.0**-10  # tight: 53-129 vertices on p = 3 nets, ~280 loose
    # Rows [a, b] of a . (theta, t) + b <= 0, the cap last.
    halfspaces = np.column_stack([np.vstack([directions, -directions, np.zeros(p)]),
                                  np.r_[-np.ones(2 * count), 1.0], np.r_[-m, m, -cap]])
    try:
        hull = HalfspaceIntersection(halfspaces, np.append(start, (gap + cap) / 2.0))
    except QhullError as exc:
        raise EstimatorError(f"minimax hull failed: {exc}") from None
    best = hull.intersections[np.argmin(hull.intersections[:, p])]
    return np.ldexp(best[:p], exp), float(np.ldexp(best[p], exp))


def _minimax_highs(directions: np.ndarray, targets: np.ndarray):
    """The same LP solved by HiGHS (``scipy.optimize.linprog``)."""
    count, p = directions.shape
    # variables: [theta_1..theta_p, t]
    a_ub = np.zeros((2 * count, p + 1))
    a_ub[:count, :p] = directions
    a_ub[count:, :p] = -directions
    a_ub[:, p] = -1.0
    b_ub = np.concatenate([targets, -targets])
    c = np.zeros(p + 1)
    c[p] = 1.0
    bounds = [(None, None)] * p + [(0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise EstimatorError(f"minimax LP failed: {res.message}")
    return res.x[:p], float(res.x[p])


def minimax_objective(
    directions: np.ndarray, targets: np.ndarray, theta: np.ndarray
) -> float:
    return float(np.abs(directions @ theta - targets).max())


def minimax_center(
    directions,
    targets: Sequence[float],
    constraint: Optional[int] = None,
):
    """Point minimizing the max absolute gap between its projections and the
    per-direction targets, optionally over s-sparse points.

    Returns ``(theta, diagnostics)``; ``diagnostics['objective']`` is the
    achieved sup-gap.  Each support of s = ``constraint`` coordinates (all p,
    mode ``dense``, when None or >= p; else ``exhaustive``) gets one LP over
    the directions touching it (Qhull at <= HULL_P_CAP full-rank columns, else
    HiGHS; a non-unique optimum gives a vertex of the optimal face).  Targets
    may have any finite magnitude.  Over 10^4 supports, or empty, non-finite
    or mismatched input (one target per direction), raises ``ConfigurationError``.
    """
    dirs = as_finite_matrix(
        np.atleast_2d(as_float_array(directions, "directions")), what="directions")
    m = as_finite_matrix(
        as_float_array(targets, "targets").ravel(), what="targets")[:, 0]
    if m.size != dirs.shape[0]:
        raise ConfigurationError("one target per direction required")
    p = dirs.shape[1]
    if constraint is not None:
        check_range("constraint", constraint, 1, kind=int)
    s = p if constraint is None else min(constraint, p)
    if math.comb(p, s) > SUPPORT_ENUM_CAP:
        raise ConfigurationError(f"C({p}, {s}) = {math.comb(p, s)} supports "
                                 f"exceed the cap of {SUPPORT_ENUM_CAP}")
    best_theta, best_obj = None, math.inf
    for support in combinations(range(p), s):
        cols = np.asarray(support)
        overlap = np.flatnonzero(np.any(dirs[:, cols] != 0.0, axis=1))
        theta = np.zeros(p)
        if overlap.size:
            theta[cols], _ = _minimax_lp(dirs[np.ix_(overlap, cols)], m[overlap])
        obj = minimax_objective(dirs, m, theta)
        if obj < best_obj - 1e-15:
            best_theta, best_obj = theta, obj
    return best_theta, {"objective": best_obj,
                        "mode": "dense" if s == p else "exhaustive"}


def net_estimate(samples, config: NetConfig, seed: int = 0):
    """Cover-based multivariate estimate: robust 1D estimation along every
    cover direction followed by minimax-center aggregation.  The inner
    estimator runs once, on the projections on all directions as columns.

    Returns an ``EstimateReport`` whose diagnostics carry the minimax
    objective, cover size, inner-estimator settings and ``targets``, the 1D
    estimate along each cover direction in cover order.  Non-finite samples
    raise ``ConfigurationError`` before the cover is built.  Per-direction
    failures propagate; there is no partial aggregation.
    """
    data = as_finite_matrix(samples)
    p = data.shape[1]
    lid = config.log_inv_delta_inner(p)
    cover = build_half_cover(p, sparsity=config.sparsity, seed=seed)
    # One product per direction: data @ cover.directions.T rounds some
    # projections differently.
    projections = np.column_stack([data @ u for u in cover.directions])
    if config.inner == "interval1d":
        targets = interval_columns(projections, IntervalConfig(
            epsilon=config.epsilon, log_inv_delta=lid))
    else:
        targets = filter_columns(
            projections, math.ceil(2.0 * lid),
            [derived_seed(seed, 1 + j) for j in range(cover.size)])

    theta, diag = minimax_center(cover.directions, targets,
                                 constraint=config.sparsity)
    diag.update(
        cover_size=cover.size,
        inner=config.inner,
        log_inv_delta_inner=lid,
        targets=targets.tolist(),
    )
    return EstimateReport(estimate=theta, diagnostics=diag)

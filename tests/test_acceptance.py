"""End-to-end statistical and exactness acceptance checks.

Each test is one pass/fail criterion.  Statistical checks use fixed seed
streams, so results are reproducible bit-for-bit; thresholds are the
contracted ones, not tuned to the realized draws.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import optimize
from scipy.stats import norm

from robustmean import (
    ContaminationSpec,
    DistributionSpec,
    FilterConfig,
    IntervalConfig,
    MomentProfile,
    build_half_cover,
    certify_cover,
    cov_bound_hint,
    default_steps,
    filter_multivariate,
    geometric_median_of_means,
    interval_estimate,
    l2_loss,
    minimax_center,
    opt_bound,
    oracle_radius,
    oracle_truncated_mean,
    population_moments,
    quantile_error,
    sample_dataset,
    sample_mean,
    shortest_interval,
    srm_bruteforce,
    stopping_cap,
    top_eigenpair,
)
from robustmean.bench import cell_hash
from robustmean.model import derived_seed

DELTA = 0.05


def _loss_sweep(spec, n, estimators, trials, master_seed=0):
    """Loss arrays per estimator over a shared seeded trial stream."""
    losses = {name: np.empty(trials) for name in estimators}
    truth = np.zeros(spec.p)
    for name, fn in estimators.items():
        cell = cell_hash(spec.family, name, n, spec.p)
        for t in range(trials):
            seed = derived_seed(master_seed, cell, t)
            samples = sample_dataset(spec, n, seed)
            losses[name][t] = l2_loss(fn(samples, seed), truth)
    return losses


def _fixed_steps_filter(steps):
    def fn(samples, seed):
        cfg = FilterConfig(steps=steps, seed=seed)
        return filter_multivariate(samples, cfg).estimate
    return fn


def test_01_heavy_tail_ordering_lognormal():
    # Lognormal, p=20, n=200: the delta-quantile error of the spectral
    # filter (fixed removal budget ceil(2 ln(1/delta))) beats both
    # geometric median-of-means (6 blocks) and the sample mean.
    spec = DistributionSpec("lognormal", p=20)
    estimators = {
        "filter": _fixed_steps_filter(default_steps(DELTA)),
        "gmom": lambda s, _: geometric_median_of_means(s, blocks=6),
        "mean": lambda s, _: sample_mean(s),
    }
    losses = _loss_sweep(spec, 200, estimators, trials=500)
    q = {k: quantile_error(v, DELTA) for k, v in losses.items()}
    assert q["filter"] < q["gmom"] and q["filter"] < q["mean"], q


def test_02_heavy_tail_ordering_pareto():
    # Same ordering for Pareto tail exponent 3 coordinates.
    spec = DistributionSpec("pareto", p=20, tail_beta=3.0)
    estimators = {
        "filter": _fixed_steps_filter(default_steps(DELTA)),
        "gmom": lambda s, _: geometric_median_of_means(s, blocks=6),
        "mean": lambda s, _: sample_mean(s),
    }
    losses = _loss_sweep(spec, 200, estimators, trials=500)
    q = {k: quantile_error(v, DELTA) for k, v in losses.items()}
    assert q["filter"] < q["gmom"] and q["filter"] < q["mean"], q


def test_03_contamination_bias_filter_vs_mean():
    # N(0, I_20) with 10% point-mass contamination at 50*e1, n=1000: the
    # threshold-mode filter (covariance-bound hint, capped rounds) keeps its
    # median loss within 3*(sqrt(eps) + sub-Gaussian benchmark), while the
    # sample mean's median loss is >= 4 (approximately eps * 50 = 5).
    eps, n, p = 0.1, 1000, 20
    q = ContaminationSpec("point_mass", location=[50.0] + [0.0] * (p - 1))
    spec = DistributionSpec("gaussian", p=p, covariance=np.eye(p),
                            epsilon=eps, q_spec=q)
    cb = cov_bound_hint(MomentProfile(2, float(p), 1.0),
                        n=n, p=p, delta=DELTA, epsilon=eps)
    cap = stopping_cap(n, round((1 - eps) * n), DELTA)

    def filt(samples, seed):
        cfg = FilterConfig(cov_bound=cb, steps=cap, seed=seed)
        return filter_multivariate(samples, cfg).estimate

    losses = _loss_sweep(spec, n, {
        "filter": filt, "mean": lambda s, _: sample_mean(s)}, trials=200)
    bound = 3.0 * (math.sqrt(eps) + opt_bound(n, float(p), 1.0, DELTA))
    assert np.median(losses["filter"]) <= bound
    assert np.median(losses["mean"]) >= 4.0


def test_04_interval_estimator_deviation():
    # 1D N(mu, 1) with 5% point-mass contamination at mu+100, n=2000 per
    # half: |estimate - mu| <= 4*(sqrt(2 eps) + sqrt(ln(1/delta)/n)) in at
    # least 95% of 500 trials.
    n, eps, mu = 2000, 0.05, 1.0
    bound = 4.0 * (math.sqrt(2 * eps) + math.sqrt(math.log(1 / DELTA) / n))
    cfg = IntervalConfig(epsilon=eps, delta=DELTA)
    hits = 0
    for t in range(500):
        rng = np.random.default_rng(np.random.SeedSequence([411, t]))
        data = rng.standard_normal(2 * n) + mu
        bad = rng.random(2 * n) < eps
        data[bad] = mu + 100.0
        hits += abs(interval_estimate(data, cfg) - mu) <= bound
    assert hits >= 475, hits


def _trimmed_keep_all_gap(eps: float) -> float:
    """Gap b at which the best subset that keeps all of an eps point mass,
    plus the best window of (1-2eps) N(0,1) inlier mass, has scatter 1, the
    clean law's.  Unlike d*, the inliers are trimmed on the far side."""
    inlier_share = (1 - 2 * eps) / (1 - eps)  # of the N(0,1) law

    def window_moments(lower_tail):
        a = norm.ppf(lower_tail)
        c = norm.ppf(lower_tail + inlier_share)
        mean = (norm.pdf(a) - norm.pdf(c)) / inlier_share
        # x * pdf(x) is 0 at an infinite window end
        ends = (a * norm.pdf(a) if math.isfinite(a) else 0.0) - \
            (c * norm.pdf(c) if math.isfinite(c) else 0.0)
        return mean, 1.0 + ends / inlier_share - mean**2

    def scatter(gap):
        def window_scatter(lower_tail):
            mean, var = window_moments(lower_tail)
            return ((1 - 2 * eps) * var
                    + eps * (1 - 2 * eps) / (1 - eps) * (gap - mean) ** 2
                    ) / (1 - eps)
        return optimize.minimize_scalar(
            window_scatter, bounds=(0.0, 1.0 - inlier_share),
            method="bounded", options={"xatol": 1e-12}).fun

    d_star = math.sqrt((1 - eps) / (1 - 2 * eps))
    return optimize.brentq(lambda gap: scatter(gap) - 1.0,
                           d_star, 3 * d_star, xtol=1e-12)


def test_05_subset_search_bias_and_decision_boundary():
    # Exhaustive subset search at n=12, 1D, eps=1/6 on either side of its
    # population boundary: a point-mass pair at half the untrimmed
    # threshold d* is kept, a pair at twice the trimmed boundary b is
    # dropped, each in >= 90% of 200 trials.  Below d* even the untrimmed
    # mixture beats the clean law, so keeping beats dropping for any inlier
    # law.  d* is not where the search drops the pair: it also trims the
    # far inliers, so keeping all of the contamination beats the clean law
    # up to b (about 1.97 d*), and between d* and b the population search
    # keeps all or part of it.  At 2b it keeps about 0.005% of it.
    n, n_bad, eps = 12, 2, 1.0 / 6.0
    size = n - n_bad  # floor((1-eps)n) = 10
    d_star = math.sqrt((1 - eps) / (1 - 2 * eps))  # trace(P)=1, trace(Q)=0
    b = _trimmed_keep_all_gap(eps)
    assert d_star < b
    rates = {}
    for mult, keep in ((0.5, True), (2.0, False)):
        d = mult * d_star if keep else mult * b
        agree = 0
        for t in range(200):
            rng = np.random.default_rng(
                np.random.SeedSequence([505, int(10 * mult), t]))
            data = np.concatenate(
                [rng.standard_normal(n - n_bad), [d] * n_bad])[:, None]
            # independent enumeration oracle for the winning subset
            best = min(
                itertools.combinations(range(n), size),
                key=lambda sub: float(
                    ((data[list(sub)] - data[list(sub)].mean()) ** 2).sum()),
            )
            np.testing.assert_allclose(
                srm_bruteforce(data, eps), data[list(best)].mean(axis=0),
                atol=1e-12)
            contaminated_kept = set(range(size, n)) <= set(best)
            contaminated_dropped = not (set(range(size, n)) & set(best))
            agree += contaminated_kept if keep else contaminated_dropped
        rates[mult] = agree
    assert rates[0.5] >= 180 and rates[2.0] >= 180, rates


def test_06_oracle_truncation_beats_mean():
    # Lognormal p=20, n=500 with the analytic heavy-tail radius: the
    # ball-truncated oracle mean has a smaller delta-quantile error than
    # the sample mean over 500 trials.
    spec = DistributionSpec("lognormal", p=20)
    mom = population_moments(spec)
    radius = oracle_radius(mom, n=500, delta=DELTA)
    losses = _loss_sweep(spec, 500, {
        "oracle": lambda s, _: oracle_truncated_mean(s, np.zeros(20), radius),
        "mean": lambda s, _: sample_mean(s),
    }, trials=500)
    assert quantile_error(losses["oracle"], DELTA) < \
        quantile_error(losses["mean"], DELTA)


def test_07_exact_primitive_oracles():
    # shortest interval vs exhaustive window scan; quantile error vs the
    # inf-definition scan; 1D block-median identity; minimax center vs a
    # dense grid.
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        size = int(rng.integers(1, 201))
        m = int(rng.integers(1, size + 1))
        vals = np.sort(rng.standard_normal(size))
        win = shortest_interval(vals, m)
        widths = [(vals[i + m - 1] - vals[i], vals[i], vals[i + m - 1])
                  for i in range(size - m + 1)]
        best = min(widths, key=lambda t: t[0])
        assert (win.a, win.b) == (best[1], best[2])

    for _ in range(10_000):
        size = int(rng.integers(1, 60))
        losses = rng.exponential(size=size)
        delta = float(rng.uniform(0.01, 0.99))
        got = quantile_error(losses, delta)
        srt = np.sort(losses)
        ref = next(a for a in srt if np.mean(srt > a) <= delta)
        assert got == ref

    for _ in range(50):
        size = 3 + 2 * int(rng.integers(0, 10))  # odd block count
        vals = rng.standard_normal(size)
        est = geometric_median_of_means(vals[:, None], blocks=size)
        assert abs(est[0] - np.median(vals)) <= 1e-8

    for _ in range(100):
        dirs = rng.standard_normal((8, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        targets = dirs @ rng.standard_normal(2) + 0.1 * rng.standard_normal(8)
        theta, diag = minimax_center(dirs, targets)
        gx, gy = np.meshgrid(np.linspace(-3, 3, 121), np.linspace(-3, 3, 121))
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        grid_best = np.abs(grid @ dirs.T - targets).max(axis=1).min()
        assert diag["objective"] <= grid_best + 2e-8


def test_08_filter_removal_distribution_and_invariants():
    # 99 points at the origin of R^2 plus one at (100, 0): first-round top
    # eigenvalue is 99 and the outlier is removed first with probability
    # 9801/9900; empirical rate over 10^5 seeded runs within +-0.005.
    data = np.zeros((100, 2))
    data[99] = [100.0, 0.0]
    mean = data.mean(axis=0)
    cov = (data - mean).T @ (data - mean) / 100
    lam, v = top_eigenpair(cov)
    assert lam == pytest.approx(99.0)
    scores = ((data - mean) @ v) ** 2
    assert scores[99] / scores.sum() == pytest.approx(9801 / 9900)

    hits = 0
    for s in range(100_000):
        rep = filter_multivariate(data, FilterConfig(cov_bound=1.0, seed=s))
        hits += rep.removed_indices[0] == 99
    assert abs(hits / 100_000 - 9801 / 9900) <= 0.005, hits

    # survivor-mean identity and threshold-stop invariant on random data
    rng = np.random.default_rng(88)
    for _ in range(1000):
        n = int(rng.integers(10, 40))
        p = int(rng.integers(1, 5))
        pts = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0)
        cfg = FilterConfig(cov_bound=float(rng.uniform(0.01, 0.2)), steps=n - 2,
                           seed=int(rng.integers(2**32)))
        rep = filter_multivariate(pts, cfg)
        survivors = np.delete(pts, list(rep.removed_indices), axis=0)
        np.testing.assert_allclose(rep.estimate, survivors.mean(axis=0),
                                   rtol=1e-12, atol=1e-12)
        if len(rep.removed_indices) < n - 2:  # threshold (not the cap) stopped it
            smean = survivors.mean(axis=0)
            scov = (survivors - smean).T @ (survivors - smean) / len(survivors)
            top = np.linalg.eigvalsh(np.atleast_2d(scov))[-1]
            assert top < 32.0 * cfg.cov_bound * (1 + 1e-8)


def test_09_cover_certification():
    # Dense half-covers for p in {2, 3, 4} pass a 10^4-probe coverage check
    # at radius 1/2 + 1e-9; the (p=6, s=1) sparse cover also certifies and
    # keeps supports of size <= 2.
    for p in (2, 3, 4):
        cover = build_half_cover(p, seed=0)
        worst = certify_cover(cover, probes=10_000)
        assert worst <= 0.5 + 1e-9
    sparse = build_half_cover(6, sparsity=1, seed=0)
    assert np.count_nonzero(sparse.directions, axis=1).max() <= 2
    assert certify_cover(sparse, probes=10_000) <= 0.5 + 1e-9


def test_10_conditional_moment_properties():
    # For x ~ N(0,1) and the one-sided event A = {x <= q_{1-eps}}:
    # |E[x | A]| <= 2 sqrt(eps) and Var(x | A) <= 1/(1 - eps), checked by
    # Monte Carlo at 10^6 draws.
    rng = np.random.default_rng(1010)
    x = rng.standard_normal(1_000_000)
    for eps in (0.01, 0.05, 0.1):
        q = np.quantile(x, 1 - eps)
        cond = x[x <= q]
        mc_err = 4.0 / math.sqrt(cond.size)  # generous CLT slack
        assert abs(cond.mean()) <= 2.0 * math.sqrt(eps)
        assert cond.var() <= 1.0 / (1.0 - eps) + mc_err


def test_11_clean_data_filter_is_benign():
    # N(0, I_20), n=500, no contamination: the fixed-budget filter's median
    # loss stays within 1.5x the sample mean's median loss.
    spec = DistributionSpec("gaussian", p=20, covariance=np.eye(20))
    losses = _loss_sweep(spec, 500, {
        "filter": _fixed_steps_filter(default_steps(DELTA)),
        "mean": lambda s, _: sample_mean(s),
    }, trials=500)
    assert np.median(losses["filter"]) <= 1.5 * np.median(losses["mean"])

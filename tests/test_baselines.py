import itertools
import math
import tracemalloc

import numpy as np
import pytest

from robustmean import (
    ConfigurationError,
    ContaminationSpec,
    ConvergenceError,
    DistributionSpec,
    EmptySelectionError,
    MomentProfile,
    coordinatewise_filter,
    geometric_median,
    geometric_median_of_means,
    oracle_radius,
    oracle_truncated_mean,
    sample_dataset,
    sample_mean,
    srm_bruteforce,
)
from robustmean import baselines
from robustmean.filtering import (
    FilterConfig,
    default_steps,
    filter_univariate,
)


class TestGeometricMedian:
    def test_univariate_equals_median(self):
        # Oracle: in 1D the geometric median is the ordinary median.
        rng = np.random.default_rng(0)
        for trial in range(10):
            vals = rng.standard_normal(2 * int(rng.integers(2, 20)) + 1)
            gm = geometric_median(vals[:, None])
            assert gm[0] == pytest.approx(float(np.median(vals)), abs=1e-8)

    def test_beats_candidate_points(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((30, 3))
        gm = geometric_median(pts)
        obj = np.linalg.norm(pts - gm, axis=1).sum()
        for cand in [pts.mean(axis=0), *pts[:5]]:
            assert obj <= np.linalg.norm(pts - cand, axis=1).sum() + 1e-7

    def test_anchored_at_a_data_point(self):
        # Heavily repeated point: the median is that point, and the anchored
        # update must terminate there rather than divide by zero.
        pts = np.vstack([np.zeros((5, 2)), [[1.0, 0.0]], [[0.0, 1.0]]])
        gm = geometric_median(pts)
        np.testing.assert_allclose(gm, [0.0, 0.0], atol=1e-8)

    def test_single_point(self):
        # One row takes the loop: its mean is the row, at distance 0.  Only a
        # -0.0 comes back +0.0, as from any mean (numpy's sums start at +0.0).
        for row in ([3.0, 4.0], [-0.0, 5e-324, 1e308]):
            pts = np.array([row])
            assert geometric_median(pts).tobytes() == (pts[0] + 0.0).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_before_a_step(self, monkeypatch, bad):
        # Unchecked, a NaN row runs all 10k steps, then ConvergenceError.
        def unreachable(*args, **kwargs):
            raise AssertionError("Weiszfeld stepped on non-finite input")

        pts = np.random.default_rng(4).standard_normal((6, 3))
        pts[2, 0] = bad
        monkeypatch.setattr(np, "sqrt", unreachable)  # each step's first call
        with pytest.raises(ConfigurationError):
            geometric_median(pts)

    def test_iteration_cap_raises_with_last_iterate(self, monkeypatch):
        # Three points off a line need many Weiszfeld steps; two are not
        # enough to meet the tolerance.
        monkeypatch.setattr(baselines, "WEISZFELD_MAX_ITER", 2)
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
        with pytest.raises(ConvergenceError) as info:
            geometric_median(pts)
        last = info.value.last_iterate
        assert last.shape == (2,) and np.all(np.isfinite(last))


def reference_geometric_median(points):
    """The Weiszfeld loop with ``np.linalg.norm`` for every distance and
    norm, as ``geometric_median`` computed them before it dropped the
    wrapper."""
    pts = np.atleast_2d(points)
    if pts.shape[0] == 1:
        return pts[0].copy()
    theta = pts.mean(axis=0)
    for _ in range(baselines.WEISZFELD_MAX_ITER):
        dists = np.linalg.norm(pts - theta, axis=1)
        at_point = dists < 1e-12
        if at_point.any():
            others = ~at_point
            if not others.any():
                return theta
            inv = 1.0 / dists[others]
            t_tilde = (pts[others] * inv[:, None]).sum(axis=0) / inv.sum()
            r = np.linalg.norm(((pts[others] - theta) * inv[:, None]).sum(axis=0))
            eta = float(at_point.sum())
            if r <= eta:
                return theta
            lam = eta / r
            new_theta = (1.0 - lam) * t_tilde + lam * theta
        else:
            inv = 1.0 / dists
            new_theta = (pts * inv[:, None]).sum(axis=0) / inv.sum()
        step = np.linalg.norm(new_theta - theta)
        denom = max(np.linalg.norm(new_theta), 1e-300)
        theta = new_theta
        if step <= baselines.WEISZFELD_TOL * denom:
            return theta
    raise ConvergenceError("cap", last_iterate=theta)


class TestGeometricMedianAgainstNormLoop:
    """Distances and norms without ``np.linalg.norm``'s wrapper give the
    same iterates, bit for bit."""

    def assert_same(self, pts):
        np.testing.assert_array_equal(geometric_median(pts),
                                      reference_geometric_median(pts))

    def test_lognormal_sets(self):
        for seed in range(100):
            self.assert_same(
                np.random.default_rng([80, seed]).lognormal(size=(20, 20)))

    def test_contaminated_block_means(self):
        for seed in range(100):
            data = np.random.default_rng([81, seed]).standard_normal((500, 20))
            data[:50] = 0.0
            data[:50, 0] = 50.0
            self.assert_same(np.stack(
                [chunk.mean(axis=0) for chunk in np.array_split(data, 6)]))

    def test_anchored_steps(self):
        # The start, the mean, is a data point in both sets, so the first
        # step is the anchored (Vardi-Zhang) one.  The cross's centre is
        # optimal; in the second set the anchor is not, and the iteration
        # moves off it.
        cross = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                          [0.0, -1.0]])
        lopsided = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.1], [1.0, -0.1],
                             [-3.0, 0.0]])
        for pts in (cross, lopsided):
            assert np.any(np.linalg.norm(pts - pts.mean(axis=0), axis=1) < 1e-12)
            self.assert_same(pts)
        assert geometric_median(lopsided)[0] > 0.5

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(baselines, "WEISZFELD_MAX_ITER", 3)
        pts = np.random.default_rng(82).lognormal(size=(20, 5))
        with pytest.raises(ConvergenceError) as ours:
            geometric_median(pts)
        with pytest.raises(ConvergenceError) as ref:
            reference_geometric_median(pts)
        np.testing.assert_array_equal(ours.value.last_iterate,
                                      ref.value.last_iterate)


class TestGmom:
    def test_one_block_is_sample_mean(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((17, 3))
        np.testing.assert_allclose(
            geometric_median_of_means(data, blocks=1), data.mean(axis=0))

    def test_n_blocks_univariate_is_median(self):
        vals = np.array([5.0, -1.0, 2.0, 0.0, 9.0])
        est = geometric_median_of_means(vals[:, None], blocks=5)
        assert est[0] == pytest.approx(2.0, abs=1e-8)

    def test_blocks_are_contiguous_near_equal(self):
        data = np.arange(10.0)[:, None]
        # 3 blocks: [0..3], [4..6], [7..9] -> means 1.5, 5, 8 -> median 5
        est = geometric_median_of_means(data, blocks=3)
        assert est[0] == pytest.approx(5.0, abs=1e-8)

    def test_block_count_validation(self):
        with pytest.raises(ConfigurationError):
            geometric_median_of_means(np.zeros((4, 1)), blocks=5)

    def test_resists_contamination(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((500, 2))
        data[:25] = 1000.0
        est = geometric_median_of_means(data, blocks=50)
        assert np.linalg.norm(est) < 1.0

    def test_rejects_non_finite_before_weiszfeld(self, monkeypatch):
        # Unchecked, one inf runs Weiszfeld to its 10k-iteration cap.
        def unreachable(*args, **kwargs):
            raise AssertionError("Weiszfeld ran on non-finite input")

        monkeypatch.setattr(baselines, "geometric_median", unreachable)
        data = np.random.default_rng(4).standard_normal((40, 3))
        data[7, 1] = np.inf
        with pytest.raises(ConfigurationError):
            geometric_median_of_means(data, blocks=6)


def test_sample_mean_matches_numpy():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((9, 4))
    np.testing.assert_array_equal(sample_mean(data), data.mean(axis=0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_mean_rejects_non_finite(bad):
    # Unchecked, the mean is NaN or inf.
    data = np.random.default_rng(4).standard_normal((9, 4))
    data[2, 3] = bad
    with pytest.raises(ConfigurationError):
        sample_mean(data)


def test_coordinatewise_filter_trims_per_axis_outliers():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((300, 3))
    data[0, 1] = 1e4  # single wild coordinate
    est = coordinatewise_filter(data, delta=0.05, seed=0)
    assert np.all(np.abs(est) < 1.0)


def reference_coordinatewise_filter(samples, delta, seed=0):
    """The per-column loop: one ``filter_univariate`` call per coordinate,
    with the same seeds and budget as ``coordinatewise_filter``."""
    data = np.asarray(samples, dtype=float)
    steps = min(default_steps(delta), data.shape[0] - 2)
    out = np.empty(data.shape[1])
    for j in range(data.shape[1]):
        cfg = FilterConfig(
            steps=steps,
            seed=int(np.random.SeedSequence([seed, j]).generate_state(1)[0]),
        )
        out[j] = filter_univariate(data[:, j], cfg).estimate[0]
    return out


class TestCoordinatewiseLockstep:
    """The p filters run in lockstep give the estimates of the per-column
    loop bit for bit."""

    def assert_identical(self, data, seed, delta=0.05):
        np.testing.assert_array_equal(
            coordinatewise_filter(data, delta=delta, seed=seed),
            reference_coordinatewise_filter(data, delta, seed))

    def test_lognormal(self):
        for seed in range(10):
            data = np.random.default_rng([60, seed]).lognormal(size=(500, 20))
            self.assert_identical(data, seed)

    def test_point_mass_contamination(self):
        data = np.random.default_rng(61).standard_normal((2000, 20))
        data[:200] = 0.0
        data[:200, 0] = 50.0
        self.assert_identical(data, 3)

    def test_student_t_shapes(self):
        rng = np.random.default_rng(62)
        for case in range(60):
            n, p = int(rng.integers(3, 301)), int(rng.integers(1, 8))
            self.assert_identical(rng.standard_t(2, size=(n, p)), case)

    def test_two_rows_zero_budget(self):
        data = np.random.default_rng(63).standard_normal((2, 5))
        self.assert_identical(data, 0)
        np.testing.assert_array_equal(
            coordinatewise_filter(data, delta=0.05), data.mean(axis=0))

    def test_column_reaching_zero_scatter_mid_run(self):
        # Column 0 is eight zeros and a pair +-1000: once both far points
        # are removed its scatter is zero, so it stops while the other
        # columns go on to the budget of 6.  The per-column call below
        # checks that it does so with coord's seed for column 0.
        data = np.random.default_rng(64).standard_normal((10, 3))
        data[:, 0] = 0.0
        data[8:, 0] = [1e3, -1e3]
        seed0 = int(np.random.SeedSequence([0, 0]).generate_state(1)[0])
        rep = filter_univariate(data[:, 0], FilterConfig(steps=6, seed=seed0))
        assert rep.diagnostics["stop_reason"] == "zero_scatter"
        assert sorted(rep.removed_indices) == [8, 9]
        self.assert_identical(data, 0)

    def test_one_row_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="n=1"):
            coordinatewise_filter(np.ones((1, 3)), delta=0.05)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_coordinatewise_filter_rejects_non_finite(bad):
    data = np.random.default_rng(5).standard_normal((300, 3))
    data[10, 2] = bad
    with pytest.raises(ConfigurationError):
        coordinatewise_filter(data, delta=0.05, seed=0)


class TestOracleTruncation:
    def test_keeps_only_ball(self):
        data = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [10.0, 0.0]])
        est = oracle_truncated_mean(data, [0.0, 0.0], 3.0)
        # boundary point [0,3] is inside (closed ball); [10,0] is not
        np.testing.assert_allclose(est, [1.0 / 3.0, 1.0])

    def test_empty_ball_raises(self):
        with pytest.raises(EmptySelectionError):
            oracle_truncated_mean(np.zeros((5, 1)), [100.0], 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # Unchecked, the row fails the ball test (NaN <= r is False) and the
        # oracle returns the finite mean of the other rows.
        data = np.random.default_rng(6).standard_normal((50, 2))
        data[4, 0] = bad
        with pytest.raises(ConfigurationError):
            oracle_truncated_mean(data, np.zeros(2), 3.0)

    @pytest.mark.parametrize("center", [[5.0], [0.0, 0.0, 0.0]])
    def test_rejects_center_of_wrong_length(self, center):
        # Unchecked, a 1-entry centre broadcasts to (5, 5).
        data = np.random.default_rng(6).standard_normal((50, 2))
        with pytest.raises(ConfigurationError, match="center"):
            oracle_truncated_mean(data, center, 10.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_radius_not_positive(self, radius):
        # Unchecked, a NaN radius keeps no row and raises EmptySelectionError,
        # and an infinite one (not a finite positive radius) keeps every row.
        data = np.random.default_rng(6).standard_normal((50, 2))
        with pytest.raises(ConfigurationError, match="radius"):
            oracle_truncated_mean(data, np.zeros(2), radius)


class TestRadiusRule:
    def test_heavy_tail_formulas(self):
        tr, op, n, d = 20.0, 1.0, 500, 0.05
        rate = math.log(1 / d) / n
        r = tr / op
        assert oracle_radius(MomentProfile(2, tr, op), n=n, delta=d) == \
            pytest.approx(math.sqrt(tr) / (r ** 0.125 * rate ** 0.25))
        assert oracle_radius(MomentProfile(1, tr, op), n=n, delta=d) == \
            pytest.approx(math.sqrt(tr) / (r ** 0.25 * rate ** 0.5))

    def test_contaminated_formulas(self):
        tr, op, n, d, e = 20.0, 1.0, 1000, 0.05, 0.1
        rate = math.log(1 / d) / n
        assert oracle_radius(MomentProfile(1, tr, op), n=n, delta=d,
                             epsilon=e) == \
            pytest.approx(math.sqrt(tr) / (e + rate) ** 0.5)
        assert oracle_radius(MomentProfile(2, tr, op), n=n, delta=d,
                             epsilon=e) == \
            pytest.approx(math.sqrt(tr) / (e + rate) ** 0.25)

    def test_validation(self):
        # k and opnorm <= trace are checked by the moment summary.
        with pytest.raises(ConfigurationError):
            oracle_radius(MomentProfile(3, 1.0, 1.0), n=10, delta=0.1)
        with pytest.raises(ConfigurationError):
            oracle_radius(MomentProfile(1, 1.0, 2.0), n=10, delta=0.1)
        with pytest.raises(ConfigurationError):
            oracle_radius(MomentProfile(1, 1.0, 0.0), n=10, delta=0.1)
        for delta, epsilon in ((0.0, 0.0), (1.0, 0.0), (0.1, -0.1),
                               (0.1, 0.5)):
            with pytest.raises(ConfigurationError):
                oracle_radius(MomentProfile(2, 1.0, 1.0), n=10, delta=delta,
                              epsilon=epsilon)


def brute_srm(data, epsilon):
    """Oracle: the exhaustive loop that ``srm_bruteforce`` once was, kept
    verbatim as the bit-for-bit reference."""
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    size = math.floor((1 - epsilon) * n)
    best_loss = math.inf
    best_mean = None
    for subset in itertools.combinations(range(n), size):
        rows = data[list(subset)]
        mean = rows.mean(axis=0)
        loss = float(np.sum((rows - mean) ** 2)) / size
        if loss < best_loss:
            best_loss = loss
            best_mean = mean
    return best_mean


SRM_EPSILONS = (0.1, 0.2, 0.3, 0.45)


def srm_epsilon(rng, n):
    """One of SRM_EPSILONS, or the epsilon that leaves one row or n - 1."""
    pick = rng.integers(len(SRM_EPSILONS) + 2)
    if pick == len(SRM_EPSILONS):
        return 1.0 - 1.5 / n  # size 1
    if pick == len(SRM_EPSILONS) + 1:
        return 0.5 / n  # size n - 1
    return SRM_EPSILONS[pick]


def assert_matches_loop(data, epsilon):
    np.testing.assert_array_equal(srm_bruteforce(data, epsilon),
                                  brute_srm(data, epsilon))


def assert_matches_loop_on_random_draws():
    rng = np.random.default_rng(11)
    edges = set()
    for _ in range(120):
        n, p = int(rng.integers(4, 15)), int(rng.integers(1, 4))
        epsilon = srm_epsilon(rng, n)
        size = math.floor((1 - epsilon) * n)
        edges.add("one" if size == 1 else "n-1" if size == n - 1 else "")
        assert_matches_loop(rng.standard_normal((n, p)), epsilon)
    assert {"one", "n-1"} <= edges


def assert_matches_loop_with_repeated_rows(mass):
    # Many subsets tie in exact arithmetic; the loop's rounding decides.
    rng = np.random.default_rng(int(mass * 10) % 997)
    for _ in range(30):
        n, p = int(rng.integers(4, 15)), int(rng.integers(1, 4))
        data = rng.standard_normal((n, p))
        data[rng.permutation(n)[:rng.integers(2, n)]] = mass
        assert_matches_loop(data, srm_epsilon(rng, n))


class TestSubsetSearch:
    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            data = rng.standard_normal((10, 2))
            est = srm_bruteforce(data, epsilon=0.2)
            np.testing.assert_allclose(est, brute_srm(data, 0.2))

    def test_keeps_nearby_contamination_and_drops_extremes(self):
        # 8 spread inliers (mean 0) plus 2 clones at 3 with eps = 0.2:
        # the minimum-scatter size-8 subset trades the extreme inliers for
        # both clones and its mean is 2, not 0.
        data = np.array(
            [[-6.0], [-4.0], [-2.0], [-1.0], [1.0], [2.0], [4.0], [6.0],
             [3.0], [3.0]])
        est = srm_bruteforce(data, epsilon=0.2)
        assert est[0] == pytest.approx(2.0)

    def test_matches_loop_bit_for_bit_on_random_draws(self):
        assert_matches_loop_on_random_draws()

    @pytest.mark.parametrize("mass", [0.5, 2.0, 5.0, 1e6])
    def test_matches_loop_bit_for_bit_with_repeated_rows(self, mass):
        assert_matches_loop_with_repeated_rows(mass)

    @pytest.mark.parametrize("mass", [None, 0.5, 2.0, 5.0, 1e6])
    def test_matches_loop_bit_for_bit_across_chunks(self, monkeypatch, mass):
        # Chunks of 5 sets R split every first row's block, so tied subsets
        # are screened in different chunks and blocks, out of their order.
        monkeypatch.setattr(baselines, "_SRM_CHUNK", 5)
        if mass is None:
            assert_matches_loop_on_random_draws()
        else:
            assert_matches_loop_with_repeated_rows(mass)

    def test_tie_break_across_chunks(self, monkeypatch):
        # Distinct integers with a subset size of 4 or 8: the loss of every
        # run of consecutive values is exact, so those runs tie and only the
        # confirm's lexicographic order picks the loop's.  Chunks of 5 sets R
        # screen them out of that order.
        monkeypatch.setattr(baselines, "_SRM_CHUNK", 5)
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(6, 13))
            size = 4 if n < 10 else 8
            data = rng.permutation(n).astype(float)[:, None] * [1.0, -2.0]
            assert_matches_loop(data[:, :rng.integers(1, 3)], 1 - (size + 0.5) / n)

    @pytest.mark.parametrize("n, p, epsilon, mass", [
        (18, 2, 0.3, None), (20, 1, 0.2, 2.0)])
    def test_matches_loop_bit_for_bit_at_larger_n(self, n, p, epsilon, mass):
        # k = 6 and k = 4 rows left out: C(17, 5) = 6,188 and C(19, 3) =
        # 969 sets R, several chunks for the first.
        rng = np.random.default_rng(n)
        data = rng.standard_normal((n, p))
        if mass is not None:
            data[rng.permutation(n)[:n // 2]] = mass
        assert_matches_loop(data, epsilon)

    @pytest.mark.parametrize("offset", [1e6, 1e9, 1e12])
    def test_matches_loop_bit_for_bit_far_from_origin(self, offset):
        # The loop's rounding grows with the raw magnitude, not the spread.
        rng = np.random.default_rng(int(math.log10(offset)))
        for _ in range(30):
            n, p = int(rng.integers(4, 15)), int(rng.integers(1, 4))
            assert_matches_loop(offset + rng.standard_normal((n, p)),
                                srm_epsilon(rng, n))

    def test_matches_loop_bit_for_bit_on_subset_search_1d_draws(self):
        # The benchmark's srm cell: n = 25 from N(0, 1) with each row a
        # point mass at 5 with probability 0.2.
        spec = DistributionSpec(
            "gaussian", p=1, covariance=np.eye(1), epsilon=0.2,
            q_spec=ContaminationSpec("point_mass", location=[5.0]))
        for seed in range(3):
            assert_matches_loop(sample_dataset(spec, 25, seed), 0.2)

    def test_matches_loop_when_squares_overflow(self):
        # Subsets with the far row have an infinite loss in the loop, and
        # the screen's totals overflow, so every subset is confirmed.
        data = np.random.default_rng(3).standard_normal((8, 2))
        data[2] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            assert_matches_loop(data, 0.3)

    @pytest.mark.parametrize("p", [1, 3])
    def test_working_memory_does_not_grow_with_subset_count(self, p):
        # C(25, 20) = 53,130 subsets, screened a chunk at a time at p = 3
        # (p = 1 takes the window path, which holds n - 19 windows): the peak
        # stays under 1 MiB; holding every complement at once as intp rows
        # takes about 2 MiB, and with a chunk of 10^6 it does not pass.
        data = np.random.default_rng(p).standard_normal((25, p))
        tracemalloc.start()
        try:
            srm_bruteforce(data, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_tied_subsets_hold_little_memory(self):
        # Every subset ties, and all hold the same rows: the window path
        # (p = 1) confirms the first; the complement screen (p = 3) keeps
        # all 53,130 complements and confirms them a chunk at a time.
        for p in (1, 3):
            tracemalloc.start()
            try:
                np.testing.assert_array_equal(
                    srm_bruteforce(np.zeros((25, p)), 0.2), np.zeros(p))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("chunk", [1, 5, baselines._SRM_CHUNK])
    @pytest.mark.parametrize("p", [2, 3])
    def test_subsets_of_equal_rows_are_confirmed_once(self, monkeypatch, p, chunk):
        # Rows picked from a few: many subsets hold equal rows in the same
        # order and tie, in one confirm chunk or across several (a chunk of
        # 1 holds one subset).  0.0 and -0.0 rows are equal values, not
        # equal floats: a mean of -0.0 rows alone is -0.0, so the sign is
        # compared too, and only the loop's tie-break gives its sign.
        monkeypatch.setattr(baselines, "_SRM_CHUNK", chunk)
        rng = np.random.default_rng(p)
        for _ in range(25):
            n = int(rng.integers(4, 15))
            pool = np.vstack([np.zeros(p), np.full(p, -0.0),
                              rng.standard_normal((int(rng.integers(0, 3)), p))])
            data = pool[rng.integers(len(pool), size=n)]
            epsilon = srm_epsilon(rng, n)
            assert (srm_bruteforce(data, epsilon).tobytes()
                    == brute_srm(data, epsilon).tobytes())

    def test_size_limit(self):
        with pytest.raises(ConfigurationError):
            srm_bruteforce(np.zeros((26, 1)), epsilon=0.1)

    def test_rejects_non_finite(self):
        # Unchecked, every subset with the NaN row loses the scatter
        # comparison and the search returns a finite mean of the others.
        data = np.random.default_rng(5).standard_normal((10, 1))
        data[3] = np.nan
        with pytest.raises(ConfigurationError):
            srm_bruteforce(data, epsilon=0.2)

    def test_epsilon_zero_is_sample_mean(self):
        data = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(
            srm_bruteforce(data, epsilon=0.0), data.mean(axis=0))


def count_window_searches(monkeypatch):
    """A list that gains one entry per call of ``srm_bruteforce``'s window
    path; the other calls take the complement screen."""
    calls, windows = [], baselines._srm_windows
    monkeypatch.setattr(baselines, "_srm_windows",
                        lambda *args: calls.append(1) or windows(*args))
    return calls


class TestSubsetSearchWindows:
    """The p = 1 window path against the verbatim loop."""

    def test_copies_straddle_the_window_edge(self, monkeypatch):
        # Four copies of -3 or 3 interleaved with nine inliers near 0: the
        # best 10 rows hold one copy.  At the low end the sorted window holds
        # the last copy; the loop takes the one whose rounding wins, else
        # the first.
        calls = count_window_searches(monkeypatch)
        rng = np.random.default_rng(29)
        for end in (-3.0, 3.0) * 5:
            data = np.insert(0.5 * rng.standard_normal(9),
                             np.sort(rng.choice(10, 4)), end)
            assert_matches_loop(data[:, None], 0.2)
        assert len(calls) == 10

    @pytest.mark.parametrize("n, epsilon", [(12, 0.3), (16, 0.2), (18, 0.45)])
    def test_two_valued_data(self, n, epsilon):
        # Fewer copies of each value than the subset size, so the best
        # windows hold both values; at an even split the two extreme
        # windows tie in exact arithmetic.
        rng = np.random.default_rng(n)
        size = math.floor((1 - epsilon) * n)
        for lows in range(n - size + 1, size):
            data = rng.permutation(np.repeat([0.1, 0.7], [lows, n - lows]))
            assert_matches_loop(data[:, None], epsilon)

    def test_sizes_one_and_n_minus_one(self):
        rng = np.random.default_rng(31)
        for n in range(2, 16):
            data = np.round(rng.standard_normal((n, 1)), 1)
            assert_matches_loop(data, 1.0 - 1.5 / n)
            assert_matches_loop(data, 0.5 / n)

    @pytest.mark.parametrize("offset", [1e6, 1e9, 1e12])
    def test_far_from_origin(self, offset):
        rng = np.random.default_rng(int(math.log10(offset)) + 40)
        for _ in range(20):
            n = int(rng.integers(4, 19))
            data = offset + rng.standard_normal((n, 1))
            data[rng.permutation(n)[:n // 4]] = offset + 1.5
            assert_matches_loop(data, srm_epsilon(rng, n))

    def test_subset_search_1d_draws(self, monkeypatch):
        calls = count_window_searches(monkeypatch)
        spec = DistributionSpec(
            "gaussian", p=1, covariance=np.eye(1), epsilon=0.2,
            q_spec=ContaminationSpec("point_mass", location=[5.0]))
        for seed in range(3, 8):
            assert_matches_loop(sample_dataset(spec, 25, seed), 0.2)
        assert len(calls) == 5

    def test_many_copies_of_both_window_end_values(self, monkeypatch):
        # Rows from five values: a window's end values have many copies
        # each, and every choice of them is a candidate.
        calls = count_window_searches(monkeypatch)
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(8, 15))
            data = rng.choice([-1.0, 0.0, 0.5, 1.0, 3.0], size=(n, 1),
                              p=[0.3, 0.1, 0.2, 0.3, 0.1])
            epsilon = srm_epsilon(rng, n)
            assert (srm_bruteforce(data, epsilon).tobytes()
                    == brute_srm(data, epsilon).tobytes())
        assert len(calls) == 40

    @pytest.mark.parametrize("chunk", [1, 5])
    def test_ties_straddle_confirm_chunks(self, monkeypatch, chunk):
        # Two-valued draws and runs of consecutive integers: candidates
        # that tie in exact arithmetic are confirmed in different chunks.
        monkeypatch.setattr(baselines, "_SRM_CHUNK", chunk)
        calls = count_window_searches(monkeypatch)
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(6, 15))
            epsilon = srm_epsilon(rng, n)
            for data in (rng.permutation(np.repeat([0.1, 0.7], [n // 2, n - n // 2])),
                         rng.permutation(n) - 2.0):
                assert (srm_bruteforce(data[:, None], epsilon).tobytes()
                        == brute_srm(data[:, None], epsilon).tobytes())
        assert len(calls) == 60

    def test_thousands_of_window_choices_hold_little_memory(self, monkeypatch):
        # 12 copies each of two values, 18 of 24 rows kept: the two extreme
        # windows tie in exact arithmetic, each with C(12, 6) = 924 choices
        # of copies, enumerated lazily into the confirm's chunks.
        calls = count_window_searches(monkeypatch)
        data = np.random.default_rng(24).permutation(
            np.repeat([0.1, 0.7], 12))[:, None]
        tracemalloc.start()
        try:
            estimate = srm_bruteforce(data, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 1
        assert peak < 2 * 2 ** 20
        assert estimate.tobytes() == brute_srm(data, 0.25).tobytes()

    def test_near_tie_falls_back_to_the_complement_screen(self, monkeypatch):
        # Two values 1e-9 apart: g^2 / size is far below slack, so the
        # certificate fails and the complement screen decides.
        calls = count_window_searches(monkeypatch)
        data = np.random.default_rng(37).standard_normal((12, 1))
        assert_matches_loop(data, 0.3)
        assert len(calls) == 1
        data[7] = data[2] + 1e-9
        assert_matches_loop(data, 0.3)
        assert len(calls) == 1

    def test_all_equal_rows_at_p_2(self):
        # The window path does not apply at p > 1: all C(16, 12) = 1,820
        # subsets tie in the complement screen, which confirms the first.
        assert_matches_loop(np.full((16, 2), [0.1, -3.7]), 0.2)

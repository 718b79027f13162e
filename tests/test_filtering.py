import copy
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from robustmean import (
    ConfigurationError,
    ConvergenceError,
    DegenerateScoresError,
    FilterConfig,
    FilterExhaustedError,
    MomentProfile,
    cov_bound_hint,
    default_steps,
    filter_multivariate,
    filter_univariate,
    stopping_cap,
    top_eigenpair,
)
from robustmean import filtering


class TestTopEigenpair:
    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.integers(2, 12)
            a = rng.standard_normal((p, p))
            mat = a @ a.T  # PSD
            lam, v = top_eigenpair(mat)
            ref = np.linalg.eigvalsh(mat)[-1]
            assert lam == pytest.approx(ref, rel=1e-8)
            # eigenpair residual contract
            assert np.linalg.norm(mat @ v - lam * v) <= 1e-8 * lam
            assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_zero_matrix(self):
        lam, v = top_eigenpair(np.zeros((4, 4)))
        assert lam == 0.0
        np.testing.assert_array_equal(v, [1.0, 0.0, 0.0, 0.0])

    def test_one_dimensional(self):
        lam, v = top_eigenpair(np.array([[2.5]]))
        assert lam == 2.5
        assert v.shape == (1,)

    def test_lapack_failure_raises(self, monkeypatch):
        def failing(a, **kwargs):
            p = a.shape[0]
            return np.zeros(p), np.zeros((p, 1)), 0, np.zeros(2, np.int32), 3

        monkeypatch.setattr(filtering, "lapack", SimpleNamespace(dsyevr=failing))
        with pytest.raises(ConvergenceError):
            top_eigenpair(np.diag([1.0, 2.0, 3.0]))


class StubGenerator:
    """A generator whose ``random()`` returns the given draws in turn."""

    def __init__(self, *draws):
        self.draws = [float(u) for u in draws]

    def random(self):
        return self.draws.pop(0)


class TestWeightedPick:
    """The filter's pick is ``Generator.choice`` with ``p = scores / total``
    given, minus its checks: for the generator's draw, the same index, and
    the same generator state afterwards."""

    def assert_same(self, scores, seed):
        total = scores.sum()
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        pick = filtering._cdf_pick(scores, total, ours.random())
        assert pick == ref.choice(scores.size, p=scores / total)
        assert ours.random() == ref.random()
        return pick

    def test_matches_generator_choice(self):
        rng = np.random.default_rng(40)
        for case in range(2000):
            n = int(rng.integers(2, 80))
            scores = rng.standard_normal(n) ** 2 * 10.0 ** rng.uniform(-6, 6, n)
            scores[rng.random(n) < 0.1] = 0.0
            if scores.sum() == 0.0:
                scores[0] = 1.0
            self.assert_same(scores, [41, case])

    def test_two_points(self):
        for case in range(200):
            a = np.random.default_rng([42, case]).random()
            self.assert_same(np.array([a, 1.0 - a]), [43, case])

    def test_single_nonzero_score(self):
        for n in (2, 5, 50):
            for where in range(n):
                scores = np.zeros(n)
                scores[where] = 3.7
                assert self.assert_same(scores, [44, n, where]) == where

    def test_draw_on_a_cdf_step(self):
        # Each draw u equals its cdf's first step exactly, so only a search
        # on the right side picks index 1, as Generator.choice does.
        for lane in range(50):
            u = np.random.default_rng([48, lane]).random()
            scores = np.array([u, 1.0 - u])
            assert scores.sum() == 1.0
            assert self.assert_same(scores, [48, lane]) == 1

    def test_draws_on_and_beside_each_cdf_quotient(self):
        # Draws u equal to some cdf[i] / c, one ulp either side of it, 0 and
        # the largest draw below 1, on cdfs ending above, below and at 1.0,
        # on flat runs of zero scores and with zero scores after the last.
        rng = np.random.default_rng(49)
        rows = [np.array([0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0]),
                np.array([5.0, 0.0, 0.0, 0.0]),
                np.array([0.0, 0.0, 0.0, 3.0]),
                np.array([0.25, 0.25, 0.5])]
        for scale in (1.0, 0.7, 3.0, 1.0 + 2.0**-40):
            for m in (2, 9, 60):
                scores = rng.standard_normal(m) ** 2
                scores[rng.random(m) < 0.3] = 0.0
                scores[rng.integers(m)] = 1.0
                rows.append(scale * scores / scores.sum())
        assert any(row.cumsum()[-1] != 1.0 for row in rows)
        for row in rows:
            cdf = row.cumsum()
            quotients = cdf / cdf[-1]
            draws = {0.0, np.nextafter(1.0, 0.0)}
            for q in quotients[quotients < 1.0]:
                draws.update((np.nextafter(q, 0.0), q, np.nextafter(q, 1.0)))
            for u in sorted(draws):
                self.assert_picks_as_before(row, u)
                self.assert_picks_as_before(np.pad(row, (0, 3)), u)

    @staticmethod
    def assert_picks_as_before(p, u):
        """``_cdf_pick`` of ``p`` over a total of 1 picks what dividing the
        whole cdf by its last entry picks."""
        cdf = p.cumsum()
        assert filtering._cdf_pick(p, 1.0, u) == (cdf / cdf[-1] > u).argmax(), u

    def test_overflowed_scores_pick_the_first_row_as_before(self):
        # Squared deviations of values near 1e200 overflow: the total is inf,
        # the scores over it NaN or 0, the cdf all NaN, and the pick is row 0.
        rows = [np.array([np.nan, 0.0, 0.0, 0.0]), np.array([0.5, 0.5, 0.0, 0.0]),
                np.array([0.0, 0.0, 0.0, 1.0])]
        with np.errstate(invalid="ignore"):
            for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
                for row in rows:
                    self.assert_picks_as_before(row, u)
                assert filtering._cdf_pick(
                    np.array([0.0, np.inf, 0.0, 0.0]), np.inf, u) == 0
        # The filters refuse to pick from such scores, or to stop on the
        # eigenvalue of a covariance that overflowed.
        cfg = FilterConfig(steps=1)
        with np.errstate(over="ignore", invalid="ignore"):
            for values in ([1e200, 0.0, 0.0, 0.0], [0.0, 0.0, 1e200, 0.0]):
                with pytest.raises(DegenerateScoresError):
                    filter_univariate(values, cfg)
            data = np.array([[1e200, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]]).T
            with pytest.raises(DegenerateScoresError):
                filtering.filter_columns(data, 1, [5, 6])
            with pytest.raises(DegenerateScoresError):
                filter_multivariate([[1e200, 0.0], [0.0, 1.0], [1.0, 0.0],
                                     [0.0, 0.0]], FilterConfig(cov_bound=1.0))

    def test_lanes_with_different_scores(self):
        # Lanes of scores on very different scales, each with its own
        # generator.
        rng = np.random.default_rng(46)
        for case in range(300):
            k, n = int(rng.integers(2, 25)), int(rng.integers(2, 80))
            scores = rng.standard_normal((k, n)) ** 2 * 10.0 ** rng.uniform(
                -6, 6, (k, n))
            scores[rng.random((k, n)) < 0.1] = 0.0
            scores[scores.sum(axis=1) == 0.0, 0] = 1.0
            for lane in range(k):
                self.assert_same(scores[lane], [47, case, lane])


class TestFilterMechanics:
    def test_fixed_steps_removes_exactly_that_many(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((60, 3))
        rep = filter_multivariate(data, FilterConfig(steps=7, seed=5))
        assert len(rep.removed_indices) == 7
        assert len(set(rep.removed_indices)) == 7
        survivors = np.delete(data, list(rep.removed_indices), axis=0)
        np.testing.assert_allclose(rep.estimate, survivors.mean(axis=0))

    def test_zero_steps_returns_sample_mean(self):
        data = np.arange(12.0).reshape(6, 2)
        rep = filter_multivariate(data, FilterConfig(steps=0))
        np.testing.assert_allclose(rep.estimate, data.mean(axis=0))
        assert len(rep.removed_indices) == 0

    def test_threshold_stop_reports_small_eigenvalue(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((500, 4))
        data[:10] += 40.0
        cfg = FilterConfig(cov_bound=1.0, seed=3)
        rep = filter_multivariate(data, cfg)
        assert rep.diagnostics["eigenvalues"][-1] < 32.0
        # most gross outliers gone, and the estimate is near the inlier mean
        assert sum(1 for i in rep.removed_indices if i < 10) >= 7
        assert np.linalg.norm(rep.estimate) < 1.0

    def test_capped_mode_stops_at_cap(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((100, 3))
        cfg = FilterConfig(cov_bound=1e-9, steps=4)
        rep = filter_multivariate(data, cfg)
        assert len(rep.removed_indices) == 4  # threshold unreachable, cap binds

    def test_removal_probability_proportional_to_projection(self):
        # 99 tight points and one at distance d: the outlier carries
        # essentially all of the squared projection mass, so it is removed
        # first almost always.  Oracle: exact first-round probability.
        data = np.zeros((100, 2))
        rng = np.random.default_rng(8)
        data[:99] = 0.01 * rng.standard_normal((99, 2))
        data[99] = [25.0, 0.0]
        mean = data.mean(axis=0)
        cov = (data - mean).T @ (data - mean) / 100
        lam, v = top_eigenpair(cov)
        scores = ((data - mean) @ v) ** 2
        p_outlier = scores[99] / scores.sum()
        assert p_outlier > 0.98
        hits = 0
        trials = 400
        for s in range(trials):
            rep = filter_multivariate(data, FilterConfig(steps=1, seed=s))
            hits += rep.removed_indices[0] == 99
        # binomial(400, p_outlier): allow 4 standard deviations of slack
        sd = math.sqrt(trials * p_outlier * (1 - p_outlier))
        assert abs(hits - trials * p_outlier) <= 4 * sd + 1

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((40, 2))
        cfg = FilterConfig(steps=5, seed=11)
        r1 = filter_multivariate(data, cfg)
        r2 = filter_multivariate(data, cfg)
        assert r1.removed_indices == r2.removed_indices
        np.testing.assert_array_equal(r1.estimate, r2.estimate)

    def test_identical_points_stop_without_scores(self):
        data = np.ones((10, 3))
        rep = filter_multivariate(data, FilterConfig(cov_bound=0.0))
        np.testing.assert_allclose(rep.estimate, np.ones(3))
        assert rep.diagnostics["eigenvalues"][-1] == 0.0

    @pytest.mark.parametrize("config", [
        FilterConfig(steps=0),
        FilterConfig(cov_bound=1.0),
        FilterConfig(cov_bound=1.0, steps=3)])
    @pytest.mark.parametrize("p", [1, 3])
    def test_one_row_is_a_configuration_error(self, config, p):
        with pytest.raises(ConfigurationError, match="n=1"):
            filter_multivariate(np.ones((1, p)), config)

    def test_exhaustion_raises(self):
        data = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(FilterExhaustedError):
            filter_multivariate(data, FilterConfig(steps=3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("p", [1, 4])
    def test_rejects_non_finite(self, bad, p):
        data = np.random.default_rng(8).standard_normal((50, p))
        data[17, p - 1] = bad
        with pytest.raises(ConfigurationError):
            filter_multivariate(data, FilterConfig(steps=3, seed=0))

    def test_univariate_wraps_column(self):
        vals = [0.0, 0.1, -0.1, 0.05, 30.0]
        rep = filter_univariate(vals, FilterConfig(steps=1, seed=0))
        assert rep.estimate.shape == (1,)
        assert rep.removed_indices == (4,)


def _reference_filter(data, config):
    """Plain filter loop: every round takes the survivors' exact mean and
    covariance and a dense eigensolve, and makes the filter's RNG call.
    Returns the removed indices, the estimate and the eigenvalue of each
    round."""
    data = np.asarray(data, dtype=float).reshape(len(data), -1)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    alive = np.arange(data.shape[0])
    removed, eigenvalues = [], []
    while True:
        survivors = data[alive]
        mean = survivors.mean(axis=0)
        centered = survivors - mean
        values, vectors = np.linalg.eigh(centered.T @ centered / alive.size)
        eigenvalues.append(values[-1])
        done = (config.steps is not None and len(removed) >= config.steps
                or config.cov_bound is not None
                and values[-1] < filtering.THRESHOLD_FACTOR * config.cov_bound)
        if done:
            return tuple(removed), mean, eigenvalues
        scores = (centered @ vectors[:, -1]) ** 2
        pick = rng.choice(alive.size, p=scores / scores.sum())
        removed.append(int(alive[pick]))
        alive = np.delete(alive, pick)


class TestAgainstExactReference:
    """The incremental statistics and the p = 1 loop remove the same points
    as the exact per-round recomputation."""

    def assert_matches(self, data, config, filt=filter_multivariate):
        rep = filt(data, config)
        removed, mean, eigenvalues = _reference_filter(data, config)
        assert rep.removed_indices == removed
        np.testing.assert_allclose(rep.estimate, mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rep.diagnostics["eigenvalues"],
                                   eigenvalues, rtol=1e-9)
        return rep

    def test_lognormal_fixed_steps(self):
        for seed in range(5):
            data = np.random.default_rng([30, seed]).lognormal(size=(500, 20))
            self.assert_matches(data, FilterConfig(steps=6, seed=seed))

    def test_contaminated_threshold(self):
        data = np.random.default_rng(31).standard_normal((1000, 20))
        data[:100] = 0.0
        data[:100, 0] = 50.0
        rep = self.assert_matches(data, FilterConfig(cov_bound=1.0, seed=2))
        assert len(rep.removed_indices) >= 90

    @pytest.mark.parametrize("scale", [1e2, 1e6, 1e8, 1e12])
    def test_far_outliers(self, scale):
        # Without the drift guard, downdating rows at 1e6 and beyond leaves
        # too few digits of the inliers' covariance and the removals differ.
        for seed in range(10):
            data = np.random.default_rng([32, seed]).standard_normal((303, 5))
            data[:3] = 0.0
            data[:3, 0] = scale
            self.assert_matches(data, FilterConfig(steps=8, seed=seed))

    def test_univariate(self):
        for seed in range(5):
            rng = np.random.default_rng([33, seed])
            self.assert_matches(rng.lognormal(size=500), FilterConfig(
                steps=6, seed=seed),
                filt=filter_univariate)
            values = rng.standard_normal(400)
            values[:40] = 20.0
            self.assert_matches(values, FilterConfig(cov_bound=2.0 / 32, seed=seed),
                filt=filter_univariate)


def count_generators(monkeypatch):
    """A list that gains the seed of each ``np.random.default_rng`` call."""
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: made.append(seed) or default_rng(seed))
    return made


@pytest.mark.parametrize("p", [1, 3])
def test_a_call_that_stops_in_round_zero_makes_no_generator(monkeypatch, p):
    data = np.random.default_rng(78).standard_normal((400, p))
    made = count_generators(monkeypatch)
    report = filter_multivariate(data, FilterConfig(cov_bound=10.0, seed=5))
    assert report.removed_indices == ()
    assert report.diagnostics["stop_reason"] == "threshold"
    assert made == []
    # A call that removes a row makes its generator at the first pick.
    report = filter_multivariate(data, FilterConfig(steps=2, seed=5))
    assert len(report.removed_indices) == 2
    assert made == [5]


def lane_seeds(entropy, k):
    """k int seeds, seed j drawing the stream of ``default_rng([entropy, j])``:
    ``SeedSequence`` reads an int as its 32-bit words, and a trailing zero
    word leaves its pool unchanged."""
    return [entropy | j << 32 for j in range(k)]


class TestLanes:
    """Lanes run in lockstep report what separate ``filter_univariate``
    calls report: removals, eigenvalues, stop reason and estimate."""

    def assert_matches_separate_calls(self, data, config, seeds):
        reports = filtering._filter(filtering._Univariate, data, config, seeds)
        assert len(reports) == len(seeds)
        for j, (rep, seed) in enumerate(zip(reports, seeds)):
            ref = filter_univariate(data[:, j], replace(config, seed=seed))
            assert rep.removed_indices == ref.removed_indices
            assert rep.diagnostics == ref.diagnostics
            np.testing.assert_array_equal(rep.estimate, ref.estimate)
        return reports

    def test_lane_seeds_draw_the_list_seed_streams(self):
        for entropy, j in [(0, 0), (48, 1), (75, 6)]:
            ours = np.random.default_rng(lane_seeds(entropy, 7)[j])
            ref = np.random.default_rng([entropy, j])
            assert ours.random(3).tolist() == ref.random(3).tolist()

    def test_lanes_stopping_in_different_rounds(self):
        # Threshold stops: lanes leave the survivor matrix at different
        # rounds and the rest go on.
        rng = np.random.default_rng(70)
        for case in range(20):
            data = rng.standard_normal((200, 6))
            for j in range(6):
                data[:3 * j, j] += 30.0  # column j has 3j outliers
            for config in (
                    FilterConfig(cov_bound=1.5 / 32),
                    FilterConfig(cov_bound=1.5 / 32, steps=9)):
                reports = self.assert_matches_separate_calls(
                    data, config, lane_seeds(case, 6))
                assert len({len(r.removed_indices) for r in reports}) > 1

    def test_zero_scatter_lane(self):
        data = np.random.default_rng(71).standard_normal((30, 3))
        data[:, 1] = 4.0
        reports = self.assert_matches_separate_calls(
            data, FilterConfig(steps=5), [0, 1, 2])
        assert reports[1].diagnostics["stop_reason"] == "zero_scatter"
        assert reports[0].diagnostics["stop_reason"] == "budget"

    def test_twenty_lognormal_lanes(self):
        # coord's shape on heavy-tailed data: 20 lanes of 500 values, 6 steps.
        config = FilterConfig(steps=6)
        for seed in range(50):
            data = np.random.default_rng([73, seed]).lognormal(size=(500, 20))
            reports = self.assert_matches_separate_calls(
                data, config, lane_seeds(seed, 20))
            assert {r.diagnostics["stop_reason"] for r in reports} == {"budget"}

    def test_zero_scatter_lanes_leave_at_round_zero(self):
        # Constant columns leave before any removal; the others spend their
        # budget in the survivor matrix without them.
        data = np.random.default_rng(74).standard_normal((60, 7))
        data[:, [0, 3, 4]] = [2.0, -1.0, 0.0]
        reports = self.assert_matches_separate_calls(
            data, FilterConfig(steps=9),
            lane_seeds(75, 7))
        for j, rep in enumerate(reports):
            if j in (0, 3, 4):
                assert rep.diagnostics == {"stop_reason": "zero_scatter",
                                           "eigenvalues": [0.0]}
                assert rep.removed_indices == ()
            else:
                assert rep.diagnostics["stop_reason"] == "budget"
                assert len(rep.removed_indices) == 9

    def test_lanes_leaving_before_the_first_pick_get_no_generator(self, monkeypatch):
        data = np.random.default_rng(76).standard_normal((60, 7))
        data[:, [0, 3, 4]] = [2.0, -1.0, 0.0]
        seeds = lane_seeds(77, 7)
        made = count_generators(monkeypatch)
        reports = filtering._filter(filtering._Univariate, data, FilterConfig(
            steps=4), seeds)
        assert made == [seeds[j] for j in (1, 2, 5, 6)]
        assert [len(r.removed_indices) for r in reports] == [0, 4, 4, 0, 0, 4, 4]

    def test_zero_scores_with_positive_eigenvalue_raise(self, monkeypatch):
        # An eigenvalue that says "go on" while every score is 0: no pick can
        # be drawn.  Constant rows project to 0 on any direction.
        monkeypatch.setattr(filtering, "top_eigenpair",
                            lambda cov: (1.0, np.array([1.0, 0.0])))
        with pytest.raises(DegenerateScoresError, match="zero scores"):
            filter_multivariate(np.full((6, 2), 3.0), FilterConfig(steps=3))

    def test_exhaustion_raises(self):
        with pytest.raises(FilterExhaustedError):
            filtering._filter(filtering._Univariate, np.arange(6.0).reshape(3, 2),
                              FilterConfig(steps=3),
                              [0, 1])

    def test_filter_columns_clamps_the_budget(self):
        data = np.random.default_rng(72).standard_normal((5, 3))
        np.testing.assert_array_equal(
            filtering.filter_columns(data, 100, [7, 8, 9]),
            [filter_univariate(data[:, j], FilterConfig(steps=3, seed=seed)).estimate[0]
             for j, seed in enumerate([7, 8, 9])])
        with pytest.raises(ConfigurationError, match="n=1"):
            filtering.filter_columns(np.ones((1, 3)), 6, [0, 1, 2])

    @pytest.mark.parametrize("seeds", [[7, 8], [7, 8, 9, 10], [7, -3, 9],
                                       [7, 8.0, 9], [7, True, 9]])
    def test_filter_columns_needs_one_int_seed_per_column(self, seeds):
        data = np.random.default_rng(79).standard_normal((20, 3))
        with pytest.raises(ConfigurationError, match="seed"):
            filtering.filter_columns(data, 2, seeds)


def _reference_lanes(data, config, seeds):
    """The per-survivor arithmetic, one lane per column and seed: every round
    scores all m survivors by their squared deviations from their mean, takes
    the variance as the scores' total over m, stops below the threshold, at
    zero scatter or on the budget, and picks the first entry above the lane
    generator's draw of the scores' cdf over their total and its last entry.
    Returns each lane's removals, estimate, stop reason and eigenvalues."""
    threshold = -math.inf if config.cov_bound is None \
        else filtering.THRESHOLD_FACTOR * config.cov_bound
    budget = math.inf if config.steps is None else config.steps
    lanes = []
    for column, seed in zip(np.asarray(data, dtype=float).T, seeds):
        alive, removed, eigenvalues, rng = np.arange(column.size), [], [], None
        while True:
            survivors = column[alive]
            survivors -= survivors.sum() / alive.size
            scores = np.square(survivors)
            total = scores.sum()
            eigenvalues.append(float(total / alive.size))
            lam, spent = eigenvalues[-1], len(removed) >= budget
            if lam < threshold or lam <= 0.0 or spent:
                reason = "threshold" if lam < threshold \
                    else "budget" if spent else "zero_scatter"
                if reason == "zero_scatter":
                    eigenvalues[-1] = 0.0
                lanes.append((tuple(removed), column[alive].mean(), reason,
                              eigenvalues))
                break
            if not math.isfinite(total):
                raise DegenerateScoresError("squared deviations overflow")
            rng = rng or np.random.default_rng(seed)
            cdf = (scores / total).cumsum()
            cdf /= cdf[-1]
            j = int(cdf.searchsorted(rng.random(), side="right"))
            removed.append(int(alive[j]))
            alive = np.delete(alive, j)
            if alive.size == 1:
                raise FilterExhaustedError("one survivor")
    return lanes


class TestBlockSums:
    """Univariate lanes that pick from block sums remove, stop and estimate
    as the per-survivor arithmetic does; their eigenvalues are within the
    margin's bound of its own."""

    def assert_as_reference(self, data, config, seeds):
        try:
            expected = _reference_lanes(data, config, seeds)
        except (DegenerateScoresError, FilterExhaustedError) as error:
            with pytest.raises(type(error)):
                filtering._filter(filtering._Univariate, data, config, seeds)
            return None
        reports = filtering._filter(filtering._Univariate, data, config, seeds)
        for rep, (removed, mean, reason, eigenvalues) in zip(reports, expected):
            assert rep.removed_indices == removed
            assert rep.estimate.tolist() == [mean]
            assert rep.diagnostics["stop_reason"] == reason
            np.testing.assert_allclose(rep.diagnostics["eigenvalues"],
                                       eigenvalues, rtol=filtering._MARGIN_CAP)
        return reports

    def test_twenty_lognormal_lanes_and_a_point_mass(self):
        for seed in range(20):
            data = np.random.default_rng([80, seed]).lognormal(size=(500, 20))
            self.assert_as_reference(data, FilterConfig(steps=6),
                                     lane_seeds(seed, 20))
        for seed in range(3):
            data = np.random.default_rng([81, seed]).standard_normal((2000, 20))
            data[:200] = 0.0
            data[:200, 0] = 50.0
            self.assert_as_reference(data, FilterConfig(steps=6),
                                     lane_seeds(seed, 20))

    @pytest.mark.parametrize("n", [2, 3, 17, 31, 33, 45, 100, 333])
    def test_row_counts_off_the_block_size(self, n):
        assert n % filtering._BLOCK or n < filtering._BLOCK
        for seed in range(10):
            data = np.random.default_rng([82, n, seed]).lognormal(size=(n, 4))
            self.assert_as_reference(
                data, FilterConfig(steps=filtering.clamp_steps(12, n)),
                lane_seeds(seed, 4))
            self.assert_as_reference(data, FilterConfig(cov_bound=0.5 / 32),
                                     lane_seeds(seed, 4))

    @pytest.mark.parametrize("scale", [1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
    def test_far_outliers_and_the_drift_guard(self, scale, monkeypatch):
        recentred = []
        recentre = filtering._Univariate._recentre
        monkeypatch.setattr(filtering._Univariate, "_recentre", lambda self, lanes: (
            recentred.append(len(lanes)), recentre(self, lanes)))
        for seed in range(10):
            data = np.random.default_rng([83, seed]).standard_normal((303, 5))
            data[:3] = 0.0
            data[:3, 0] = scale
            data[:2, 3] = -scale
            self.assert_as_reference(data, FilterConfig(steps=8),
                                     lane_seeds(seed, 5))
        # Past 1e4 the removals leave too few digits in the sums: the lanes
        # of the outliers are re-centred.
        assert bool(recentred) == (scale >= 1e4)

    def test_constant_columns(self):
        data = np.random.default_rng(84).standard_normal((70, 6))
        data[:, 1] = 2.0  # stops at round 0
        data[:, 2] = 0.0
        data[:2, 2] = [40.0, -30.0]  # constant once both are removed
        data[:, 4] = -1.5
        data[5, 4] = 1e3
        for seed in range(10):
            reports = self.assert_as_reference(data, FilterConfig(steps=12),
                                               lane_seeds(seed, 6))
            assert reports[1].diagnostics["eigenvalues"] == [0.0]
        reasons = [rep.diagnostics["stop_reason"] for rep in reports]
        assert reasons == ["budget", "zero_scatter", "zero_scatter", "budget",
                           "zero_scatter", "budget"]
        assert len(reports[2].removed_indices) == 2

    def test_threshold_stops_in_different_rounds(self):
        rng = np.random.default_rng(85)
        for case in range(10):
            data = rng.standard_normal((300, 6))
            for j in range(6):
                data[:3 * j, j] += 30.0
            for config in (FilterConfig(cov_bound=1.5 / 32),
                           FilterConfig(cov_bound=1.5 / 32, steps=10)):
                reports = self.assert_as_reference(data, config,
                                                   lane_seeds(case, 6))
                assert len({len(r.removed_indices) for r in reports}) > 1
                assert "threshold" in {r.diagnostics["stop_reason"]
                                       for r in reports}

    def test_overflow_raises(self):
        data = np.random.default_rng(86).standard_normal((50, 3))
        data[7, 1] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            for config in (FilterConfig(steps=3), FilterConfig(cov_bound=1.0)):
                with pytest.raises(DegenerateScoresError):
                    _reference_lanes(data, config, [0, 1, 2])
                assert self.assert_as_reference(data, config, [0, 1, 2]) is None

    def test_draws_on_and_beside_each_cdf_quotient_fall_back(self, monkeypatch):
        # A draw on a cdf quotient of the exact arithmetic, or one ulp beside
        # it, lies within the margin: the lane takes the exact arithmetic and
        # picks what Generator.choice picks.  A draw midway between two far
        # quotients is decided by the sums alone.
        exact = []
        exact_scores = filtering._Univariate._exact
        monkeypatch.setattr(filtering._Univariate, "_exact", lambda self, i: (
            exact.append(i), exact_scores(self, i))[1])
        rng = np.random.default_rng(87)
        for n, k in ((9, 1), (40, 3), (70, 2)):
            data = rng.lognormal(size=(n, k))
            stats = filtering._Univariate(data)
            stats.round(-math.inf)
            first = stats.pick([StubGenerator(0.5) for _ in range(k)])
            stats.round(-math.inf)  # round 1: sums, not the centring pass
            for lane in range(k):
                alive = np.delete(np.arange(n), first[lane])
                survivors = data[alive, lane]
                scores = np.square(survivors - survivors.sum() / (n - 1))
                cdf = (scores / scores.sum()).cumsum()
                quotients = cdf / cdf[-1]
                draws = {}
                for q in quotients[quotients < 1.0]:
                    for u in (np.nextafter(q, 0.0), q, np.nextafter(q, 1.0)):
                        draws[u] = True
                gaps = np.diff(np.concatenate([[0.0], quotients]))
                widest = int(gaps.argmax())
                draws[quotients[widest] - gaps[widest] / 2] = False
                for u, falls_back in draws.items():
                    trial = copy.deepcopy(stats)
                    others = [StubGenerator(0.5) for _ in range(k)]
                    others[lane] = StubGenerator(u)
                    exact.clear()
                    pick = trial.pick(others)[lane]
                    assert pick == alive[(quotients > u).argmax()], (n, u)
                    assert (lane in exact) == falls_back, (n, u)


class TestDiagnostics:
    def test_stop_reason_and_eigenvalues(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((300, 4))
        data[:20] += 40.0
        cases = [
            (FilterConfig(steps=3), "budget"),
            (FilterConfig(cov_bound=1e-9, steps=2),
             "budget"),
            (FilterConfig(cov_bound=1.0), "threshold"),
        ]
        for samples in (data, data[:, 0]):
            for cfg, reason in cases:
                filt = filter_multivariate if samples.ndim == 2 \
                    else filter_univariate
                rep = filt(samples, cfg)
                lams = rep.diagnostics["eigenvalues"]
                assert rep.diagnostics["stop_reason"] == reason
                assert len(lams) == len(rep.removed_indices) + 1
                if reason == "threshold":
                    assert lams[-1] < 32.0 <= min(lams[:-1])
        lams = filter_univariate(data[:, 0], cases[0][0]).diagnostics[
            "eigenvalues"]
        assert lams[0] == pytest.approx(np.var(data[:, 0]), rel=1e-12)

    def test_zero_scatter(self):
        rep = filter_multivariate(np.ones((10, 3)), FilterConfig(cov_bound=0.0))
        assert rep.diagnostics["stop_reason"] == "zero_scatter"
        assert rep.diagnostics["eigenvalues"] == [0.0]
        rep = filter_univariate(np.full(5, 2.0), FilterConfig(cov_bound=0.0))
        assert rep.diagnostics["stop_reason"] == "zero_scatter"


class TestBudgets:
    def test_default_steps(self):
        assert default_steps(0.05) == math.ceil(2 * math.log(20))  # 6
        assert default_steps(0.05) == 6

    def test_stopping_cap_formula(self):
        assert stopping_cap(100, 90, 0.05) == math.ceil(
            18 * math.log(20) + 30)
        with pytest.raises(ConfigurationError):
            stopping_cap(10, 20, 0.05)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FilterConfig(cov_bound=-1.0)
        with pytest.raises(ConfigurationError):
            FilterConfig(steps=-1)


class TestCovBoundHint:
    def test_heavy_tail_k2_is_opnorm(self):
        m = MomentProfile(2, trace_sigma=20.0, opnorm_sigma=1.0)
        assert cov_bound_hint(m, n=100, p=20, delta=0.05) == 1.0

    def test_heavy_tail_k1_worked_example(self):
        # opnorm 1, trace 20, p=20, delta=0.05:
        # 1 + 20 * ln(400) / ln(20) = 41.0000...
        m = MomentProfile(1, trace_sigma=20.0, opnorm_sigma=1.0)
        val = cov_bound_hint(m, n=100, p=20, delta=0.05)
        assert val == pytest.approx(
            1.0 + 20.0 * math.log(400) / math.log(20))
        assert val == pytest.approx(41.0, abs=0.01)

    def test_huber_formulas(self):
        m1 = MomentProfile(1, trace_sigma=20.0, opnorm_sigma=1.0)
        v1 = cov_bound_hint(m1, n=1000, p=20, delta=0.05, epsilon=0.1)
        assert v1 == pytest.approx(
            1.0 + 20.0 * math.log(400) / (100.0 + math.log(20)))
        m2 = MomentProfile(2, trace_sigma=20.0, opnorm_sigma=1.0)
        v2 = cov_bound_hint(m2, n=1000, p=20, delta=0.05, epsilon=0.1)
        assert v2 == pytest.approx(
            1.0 + 20.0 * math.log(400)
            / math.sqrt(1e6 * 0.1 + 1000 * math.log(20)))

    def test_rejects_bad_settings(self):
        # The epsilon range is checked for either moment order.
        for k in (1, 2):
            m = MomentProfile(k, trace_sigma=1.0, opnorm_sigma=1.0)
            for epsilon in (0.7, -0.1, math.nan):
                with pytest.raises(ConfigurationError, match="epsilon"):
                    cov_bound_hint(m, n=10, p=2, delta=0.05, epsilon=epsilon)
            with pytest.raises(ConfigurationError, match="delta"):
                cov_bound_hint(m, n=10, p=2, delta=1.0)

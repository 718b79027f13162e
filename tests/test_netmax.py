import itertools
import math

import numpy as np
import pytest
from scipy import stats
from scipy.spatial import ConvexHull, QhullError

from robustmean import (
    ConfigurationError,
    CoverSet,
    EstimatorError,
    IntervalConfig,
    NetConfig,
    build_half_cover,
    certify_cover,
    cover_from_csv,
    cover_to_csv,
    interval_estimate,
    minimax_center,
    net_estimate,
)
from robustmean import netmax
from robustmean.filtering import FilterConfig, filter_univariate
from robustmean.netmax import _draw_rows, _unit, minimax_objective


def grid_minimax(directions, targets, grid):
    """Oracle: evaluate the sup-gap objective on an explicit grid of points
    and return the best value found."""
    best = math.inf
    for theta in grid:
        best = min(best, minimax_objective(directions, targets, np.asarray(theta)))
    return best


def reference_random_unit(rng, p, support_size):
    """Reference probe: one unit vector per call, the draw that
    ``certify_cover`` batches: ``_unit(_draw_rows(...))``.  A sparse probe is
    one ``standard_normal(2 p)`` draw, its first p values kept at the
    ``support_size`` coordinates of its least last p values; a zero probe is
    drawn again the same way."""

    def draw():
        if support_size is None or support_size >= p:
            return rng.standard_normal(p)
        row = rng.standard_normal(2 * p)
        row[np.argsort(row[p:])[support_size:]] = 0.0
        return row[:p]

    v = draw()
    norm = np.linalg.norm(v)
    while norm == 0.0:
        v = draw()
        norm = np.linalg.norm(v)
    return v / norm


def reference_first_uncovered(probes, cover):
    """The first probe farther than 1/2 from every cover row, or None, from
    the whole probe x cover distance matrix."""
    d2 = (np.sum(probes**2, axis=1)[:, None] - 2.0 * probes @ cover.T
          + np.sum(cover**2, axis=1)[None, :])
    mindist = np.sqrt(np.maximum(d2.min(axis=1), 0.0))
    uncovered = np.flatnonzero(mindist > netmax.COVER_RADIUS)
    return int(uncovered[0]) if uncovered.size else None


def reference_half_cover(p, sparsity, seed):
    """``build_half_cover`` with one ``reference_random_unit`` call per
    probe and the whole distance matrix per batch; returns the
    directions."""
    support_size = None if sparsity is None else 2 * sparsity
    rng = np.random.default_rng(np.random.SeedSequence([seed, p, support_size or 0]))
    eye = np.eye(p)
    cover = np.array([e for pair in zip(eye, -eye) for e in pair])
    covered_streak = 0
    while covered_streak < netmax.CONSECUTIVE_COVERED:
        probes = np.stack(
            [reference_random_unit(rng, p, support_size) for _ in range(2048)])
        first = reference_first_uncovered(probes, cover)
        if first is None:
            covered_streak += 2048
            continue
        covered_streak = 0
        cover = np.vstack([cover, probes[first]])
    return cover


def reference_worst_distance(cover, probes=10_000, seed=123):
    """``certify_cover``'s worst probe distance, one probe per call."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, cover.p]))
    dirs = cover.directions
    worst = 0.0
    for _ in range(probes // 2048 + 1):
        qs = np.stack([reference_random_unit(rng, cover.p, cover.sparsity)
                       for _ in range(2048)])
        d2 = (np.sum(qs**2, axis=1)[:, None] - 2.0 * qs @ dirs.T
              + np.sum(dirs**2, axis=1)[None, :])
        worst = max(worst, float(np.sqrt(np.maximum(d2.min(axis=1), 0.0)).max()))
    return worst


class ZeroFirstRow:
    """Generator stand-in whose first ``standard_normal`` draw has an
    all-zero first row."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.zeroed = False

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        if not self.zeroed:
            np.atleast_2d(out)[0] = 0.0
            self.zeroed = True
        return out


class TestBatchedProbes:
    @pytest.mark.parametrize(
        "p, sparsity, seed",
        [(p, None, seed) for p in (2, 3, 4) for seed in (0, 1, 2)] + [(6, 1, 1)]
        # p = 3 covers that stop on their hull (radius 0.4956 and 0.4986).
        + [(3, None, 3), (3, None, 5)],
    )
    def test_same_cover_and_certificate_as_per_probe_draws(
            self, p, sparsity, seed):
        cover = build_half_cover(p, sparsity=sparsity, seed=seed)
        np.testing.assert_array_equal(
            cover.directions, reference_half_cover(p, sparsity, seed))
        # The worst distance, unjudged: the p=4, seed=2 cover has a probe at
        # 0.506 in either form.
        assert (netmax._worst_probe_distance(cover, 10_000)
                == reference_worst_distance(cover))

    @pytest.mark.parametrize("support_size", [None, 2])
    def test_zero_norm_row_is_redrawn(self, support_size):
        # The build screens the raw rows, the zero row already drawn again;
        # certify_cover normalises the same rows.
        rng = ZeroFirstRow(seed=3)
        cover = np.vstack([np.eye(6), -np.eye(6)])
        with np.errstate(divide="raise", invalid="raise"):
            rows = _draw_rows(rng, 16, 6, support_size)
            netmax._first_uncovered(rows, cover)
            probes = _unit(rows)
        assert rng.zeroed
        assert rows.shape == probes.shape == (16, 6)
        np.testing.assert_allclose(
            np.linalg.norm(probes, axis=1), 1.0, rtol=0, atol=1e-12)
        if support_size is not None:
            assert np.count_nonzero(rows, axis=1).max() <= support_size

    def test_sparse_probe_law(self):
        # Each 2-subset of 6 coordinates is a support with probability 1/15,
        # and the values on it are iid standard normal.
        rows = _draw_rows(np.random.default_rng(0), 60_000, 6, 2)
        nonzero = rows != 0.0
        assert np.all(nonzero.sum(axis=1) == 2)
        # One code per support: the sum of 2^j over its coordinates j.
        _, counts = np.unique(nonzero @ 2 ** np.arange(6), return_counts=True)
        assert counts.size == 15
        sd = math.sqrt(60_000 * (1 / 15) * (14 / 15))
        assert np.abs(counts - 4000).max() < 5 * sd
        assert stats.kstest(rows[nonzero], "norm").pvalue > 1e-6


def boundary_probes(cover, row, rng, edge=0.875, ulps=40):
    """Unit probes whose inner product with ``cover[row]`` steps through the
    floats around ``edge``, kept where every other cover row is clearly
    farther than 1/2.  Around 7/8 their distance to it is 1/2 to within a
    few ulps."""
    c = cover[row]
    w = rng.standard_normal(c.size)
    w -= (w @ c) * c
    w /= np.linalg.norm(w)
    a = edge + np.arange(-ulps, ulps + 1) * np.spacing(edge)
    probes = a[:, None] * c + np.sqrt(1.0 - a * a)[:, None] * w
    others = np.delete(cover, row, axis=0)
    return probes[(probes @ others.T).max(axis=1) < 0.85]


class TestFirstUncovered:
    """The screen of the raw rows returns the probe that the whole distance
    matrix of the normalised rows picks, also where only the last ulps of a
    distance decide, and whatever the rows' norms."""

    def test_boundary_probes_match_full_matrix(self, monkeypatch):
        rng = np.random.default_rng(11)
        # A partial cover, as in the middle of a build: the signed axes and
        # the first probes that joined them.
        cover = build_half_cover(3, seed=0).directions[:9]
        # Probes around 7/8, the boundary, and around 7/8 - 5e-13, the lower
        # edge of the band that the screen leaves to the exact path.
        edges = [np.concatenate([boundary_probes(cover, row, rng, edge=edge)
                                 for row in range(cover.shape[0])])
                 for edge in (0.875, 0.875 - 5e-13)]
        lower = np.arange(sum(map(len, edges))) >= len(edges[0])
        covered = _unit(_draw_rows(rng, 2048, 3, None))
        covered = covered[(covered @ cover.T).max(axis=1) > 0.9][:100]
        # In _first_uncovered only the exact path normalises: count it.
        exact_paths, unit = [], netmax._unit
        monkeypatch.setattr(netmax, "_unit",
                            lambda rows: exact_paths.append(1) or unit(rows))
        for scale in (1e-3, 1.0, 1e3):
            rows = scale * np.concatenate(edges)
            verdicts = [reference_first_uncovered(_unit(r[None]), cover)
                        for r in rows]
            exact = []
            for r, verdict in zip(rows, verdicts):
                calls = len(exact_paths)
                assert netmax._first_uncovered(r[None], cover) == verdict
                exact.append(len(exact_paths) > calls)
            uncovered, exact = np.equal(verdicts, 0), np.array(exact)
            # Around 7/8 the rows straddle the boundary and the exact path
            # decides each one.  Near 7/8 - 5e-13 every row is uncovered:
            # the screen settles those a few ulps below, the exact path the
            # others.
            assert 50 < np.count_nonzero(uncovered[~lower]) < np.count_nonzero(~lower) - 50
            assert np.all(exact[~lower]) and np.all(uncovered[lower])
            assert 0 < np.count_nonzero(exact[lower]) < np.count_nonzero(lower)
            for _ in range(50):
                batch = np.concatenate(
                    [scale * covered, rows[rng.permutation(len(rows))[:60]]])
                batch = batch[rng.permutation(len(batch))]
                assert netmax._first_uncovered(batch, cover) == \
                    reference_first_uncovered(_unit(batch), cover)

    def test_all_covered_batch(self):
        cover = build_half_cover(3, seed=0).directions
        probes = _unit(_draw_rows(np.random.default_rng(5), 2048, 3, None))
        assert reference_first_uncovered(probes, cover) is None
        assert netmax._first_uncovered(probes, cover) is None


class TestCoverConstruction:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_dense_cover_is_certified(self, p):
        cover = build_half_cover(p, seed=0)
        assert cover.p == p
        worst = certify_cover(cover, probes=20_000)
        assert worst <= 0.5 + 1e-9

    def test_p1_cover_is_signs(self):
        cover = build_half_cover(1)
        assert sorted(cover.directions[:, 0]) == [-1.0, 1.0]

    def test_sparse_cover_directions_have_bounded_support(self):
        cover = build_half_cover(6, sparsity=1, seed=1)
        nnz = np.count_nonzero(cover.directions, axis=1)
        assert nnz.max() <= 2  # supports of size 2s = 2
        certify_cover(cover, probes=20_000)

    def test_sparsity_over_half_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            build_half_cover(3, sparsity=2)

    @pytest.mark.parametrize("sparsity", [0, -1])
    def test_sparsity_below_one_rejected_before_any_draw(self, monkeypatch,
                                                         sparsity):
        # Unchecked, s = 0 redraws all-zero probes forever.
        def unreachable(*args):
            raise AssertionError("a probe was drawn")

        monkeypatch.setattr(netmax, "_draw_rows", unreachable)
        with pytest.raises(ConfigurationError, match="sparsity"):
            build_half_cover(3, sparsity=sparsity)

    def test_deterministic_given_seed(self):
        a = build_half_cover(3, seed=5)
        b = build_half_cover(3, seed=5)
        np.testing.assert_array_equal(a.directions, b.directions)

    def test_certify_detects_bad_cover(self):
        # Two antipodal points cannot half-cover S^2.
        bad = CoverSet(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
        with pytest.raises(EstimatorError, match="certification failed"):
            certify_cover(bad, probes=5000)


class TestHullExit:
    """The exact covering radius, and the build's exit on it."""

    @pytest.mark.parametrize("p, radius", [
        (2, math.sqrt(2.0 - math.sqrt(2.0))),  # at (1, 1) / sqrt(2)
        (3, math.sqrt(2.0 - 2.0 / math.sqrt(3.0))),  # at (1, 1, 1) / sqrt(3)
    ])
    def test_radius_of_signed_axes(self, p, radius):
        eye = np.eye(p)
        assert abs(netmax._covering_radius(np.vstack([eye, -eye])) - radius) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_radius_is_attained_and_never_exceeded(self, seed):
        cover = build_half_cover(3, seed=seed)
        radius = netmax._covering_radius(cover.directions)
        equations = ConvexHull(cover.directions).equations
        normal = equations[np.argmax(equations[:, -1]), :-1]
        assert abs(netmax._nearest_distances(normal[None], cover.directions)[0]
                   - radius) <= 1e-12
        assert netmax._worst_probe_distance(cover, 10**6) <= radius

    @pytest.mark.parametrize("p", [2, 3])
    def test_same_cover_as_the_streak(self, monkeypatch, p):
        exits = [build_half_cover(p, seed=seed).directions for seed in range(50)]
        monkeypatch.setattr(netmax, "_covering_radius", lambda cover: math.inf)
        for seed, cover in enumerate(exits):
            np.testing.assert_array_equal(
                cover, build_half_cover(p, seed=seed).directions)

    @pytest.mark.parametrize("seed, fires", [(3, True), (5, True), (0, False),
                                             (1, False)])
    def test_exit_fires_only_below_one_half(self, monkeypatch, seed, fires):
        draws, draw_rows = [], netmax._draw_rows

        def counted(*args):
            draws.append(1)
            return draw_rows(*args)

        monkeypatch.setattr(netmax, "_draw_rows", counted)
        build_half_cover(3, seed=seed)
        with_exit = len(draws)
        monkeypatch.setattr(netmax, "_covering_radius", lambda cover: math.inf)
        draws.clear()
        build_half_cover(3, seed=seed)
        # The streak runs 49 covered batches after the last admission, the
        # exit one.
        assert len(draws) - with_exit == (48 if fires else 0)


class TestCoverCsv:
    def test_round_trip(self, tmp_path):
        cover = build_half_cover(3, seed=2)
        path = tmp_path / "cover.csv"
        cover_to_csv(cover, path)
        back = cover_from_csv(path)
        np.testing.assert_array_equal(back.directions, cover.directions)

    def test_unit_norm_enforced_on_load(self, tmp_path):
        path = tmp_path / "bad.csv"
        np.savetxt(path, np.array([[2.0, 0.0]]), delimiter=",")
        with pytest.raises(ConfigurationError):
            cover_from_csv(path)


class TestMinimaxCenter:
    def test_axis_directions_recover_coordinates(self):
        dirs = np.eye(3)
        targets = np.array([1.0, -2.0, 0.5])
        theta, diag = minimax_center(dirs, targets)
        np.testing.assert_allclose(theta, targets, atol=1e-8)
        assert diag["objective"] <= 1e-8
        assert diag["mode"] == "dense"

    def test_beats_grid_oracle(self):
        rng = np.random.default_rng(3)
        dirs = rng.standard_normal((12, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        targets = dirs @ np.array([0.7, -0.3]) + 0.05 * rng.standard_normal(12)
        theta, diag = minimax_center(dirs, targets)
        grid = itertools.product(np.linspace(-2, 2, 81), repeat=2)
        assert diag["objective"] <= grid_minimax(dirs, targets, grid) + 1e-9

    def test_exact_two_direction_case(self):
        # Directions e1 with targets 0 and 1: best theta_1 is 1/2, gap 1/2.
        dirs = np.array([[1.0], [1.0]])
        theta, diag = minimax_center(dirs, [0.0, 1.0])
        assert theta[0] == pytest.approx(0.5, abs=1e-9)
        assert diag["objective"] == pytest.approx(0.5, abs=1e-9)

    def test_sparse_exhaustive_finds_support(self):
        dirs = np.eye(4)
        targets = np.array([0.01, 5.0, -0.02, 0.0])
        theta, diag = minimax_center(dirs, targets, constraint=1)
        assert diag["mode"] == "exhaustive"
        support = np.flatnonzero(theta)
        np.testing.assert_array_equal(support, [1])
        # best 1-sparse theta zeroes the big coordinate's gap
        assert diag["objective"] == pytest.approx(0.02, abs=1e-9)

    def test_sparse_never_beats_dense(self):
        rng = np.random.default_rng(4)
        dirs = rng.standard_normal((10, 4))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        targets = rng.standard_normal(10)
        _, dense = minimax_center(dirs, targets)
        _, sparse = minimax_center(dirs, targets, constraint=2)
        assert dense["objective"] <= sparse["objective"] + 1e-9

    def test_sparse_refused_above_enumeration_cap(self, monkeypatch):
        # C(30, 4) = 27405 supports exceed the cap: refused before any LP.
        def unreachable(*args):
            raise AssertionError("an LP was solved")

        rng = np.random.default_rng(8)
        dirs = rng.standard_normal((120, 30))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        targets = dirs @ rng.standard_normal(30)
        monkeypatch.setattr(netmax, "_minimax_lp", unreachable)
        with pytest.raises(ConfigurationError, match="27405 supports"):
            minimax_center(dirs, targets, constraint=4)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_dense_is_the_one_lp_over_every_direction(self, p):
        # The dense search is one support of all p columns, touched by every
        # unit direction: the LP's theta, bit for bit.
        for seed in range(5):
            dirs = build_half_cover(p, seed=seed).directions
            rng = np.random.default_rng([p, seed])
            targets = dirs @ rng.standard_normal(p) + rng.standard_normal(len(dirs))
            theta, diag = minimax_center(dirs, targets)
            assert theta.tobytes() == netmax._minimax_lp(dirs, targets)[0].tobytes()
            assert diag == {"objective": minimax_objective(dirs, targets, theta),
                            "mode": "dense"}

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            minimax_center(np.eye(2), [1.0])  # target count mismatch
        with pytest.raises(ConfigurationError):
            minimax_center(np.empty((0, 2)), [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # Unchecked, a NaN target reaches linprog as "Invalid input".
        with pytest.raises(ConfigurationError, match="targets must be finite"):
            minimax_center(np.eye(2), [1.0, bad])
        with pytest.raises(ConfigurationError, match="directions must be finite"):
            minimax_center([[1.0, 0.0], [bad, 1.0]], [1.0, 0.0])


class TestMinimaxLp:
    """The LP at <= HULL_P_CAP full-rank columns is one halfspace
    intersection; HiGHS (``_minimax_highs``) is its reference."""

    @staticmethod
    def odd_targets(dirs, seed):
        # m(-u) = -m(u), as a sign-equivariant 1D estimator gives: opposite
        # directions never bind as a pair, so the optimum is unique.
        rng = np.random.default_rng(seed)
        p = dirs.shape[1]
        return dirs @ rng.standard_normal(p) + np.sin(3.0 * dirs @ rng.standard_normal(p))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_hull_agrees_with_highs_on_covers(self, p):
        for seed in range(10):
            dirs = build_half_cover(p, seed=seed).directions
            targets = self.odd_targets(dirs, [p, seed])
            theta, t = netmax._minimax_lp(dirs, targets)
            ref, ref_t = netmax._minimax_highs(dirs, targets)
            assert np.all(np.abs(theta - ref) <= 1e-12 * (1.0 + np.abs(ref)))
            assert t == pytest.approx(ref_t, rel=1e-12, abs=1e-12)
            assert t == pytest.approx(minimax_objective(dirs, targets, theta),
                                      rel=1e-12, abs=1e-15)

    def test_no_linprog_at_full_rank_up_to_three_columns(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("linprog was called")

        monkeypatch.setattr(netmax, "linprog", unreachable)
        for p in (1, 2, 3):
            dirs = build_half_cover(p, seed=0).directions
            netmax._minimax_lp(dirs, self.odd_targets(dirs, p))
        # Demo 03's 1-sparse search: one 1-column LP per support.
        dirs = build_half_cover(6, sparsity=1, seed=0).directions
        minimax_center(dirs, self.odd_targets(dirs, 6), constraint=1)

    @pytest.mark.parametrize("dirs, targets", [
        ([[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0]),  # rank 1 < 2 columns
        (np.eye(4), [1.0, -2.0, 0.5, 0.0]),  # 4 columns
    ], ids=["rank-1", "four-columns"])
    def test_highs_above_the_cap_or_below_full_rank(self, monkeypatch, dirs,
                                                    targets):
        calls = []
        highs = netmax._minimax_highs
        monkeypatch.setattr(netmax, "_minimax_highs",
                            lambda *args: calls.append(args) or highs(*args))
        dirs, targets = np.array(dirs), np.array(targets)
        theta, t = netmax._minimax_lp(dirs, targets)
        assert len(calls) == 1
        assert t == pytest.approx(minimax_objective(dirs, targets, theta), abs=1e-9)
        assert t == pytest.approx(0.5 if len(dirs) == 2 else 0.0, abs=1e-9)

    @pytest.mark.parametrize("dirs, targets", [
        (np.eye(3), [1.0, -2.0, 0.5]),  # exact fit: t = 0
        ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], [0.0, 1.0, 2.0, 3.0]),
        ([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], [1.0, 5.0, 2.0]),  # zero row
        # Non-unique: theta_2 is free in [-1/2, 1/2]; any vertex will do.
        ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.0, 1.0, 0.0]),
    ], ids=["exact-fit", "duplicated", "zero-row", "non-unique"])
    def test_degenerate_optimum_matches_highs_objective(self, dirs, targets):
        dirs, targets = np.array(dirs), np.array(targets)
        theta, t = netmax._minimax_lp(dirs, targets)
        ref, _ = netmax._minimax_highs(dirs, targets)
        objective = minimax_objective(dirs, targets, theta)
        assert objective == pytest.approx(
            minimax_objective(dirs, targets, ref), rel=1e-15, abs=1e-15)
        assert t == pytest.approx(objective, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("scale", [5e-324, 1e-300, 1e-30, 1e30, 1e300,
                                       np.finfo(float).max])
    @pytest.mark.parametrize("dirs, targets, theta, t", [
        ([[1.0], [-1.0]], [1.0, 0.5], [0.25], 0.75),
        (np.eye(2), [1.0, -0.5], [1.0, -0.5], 0.0),
        (np.eye(4), [1.0, -0.5, 0.25, 0.0], [1.0, -0.5, 0.25, 0.0], 0.0),
    ], ids=["p1-hull", "p2-hull", "p4-highs"])
    def test_any_finite_target_magnitude(self, scale, dirs, targets, theta, t):
        # HiGHS reads |b| >= 1e20 as infinite and meets constraints to 1e-7:
        # unscaled, 1e20 fails and 1e-300 returns the origin.
        got, got_t = netmax._minimax_lp(np.array(dirs), scale * np.array(targets))
        np.testing.assert_allclose(got, scale * np.array(theta), rtol=1e-15,
                                   atol=5e-324)
        assert got_t == pytest.approx(scale * t, rel=1e-15, abs=5e-324)

    def test_qhull_failure_is_an_estimator_error(self, monkeypatch):
        def fail(*args):
            raise QhullError("QH6023 qhull input error")

        monkeypatch.setattr(netmax, "HalfspaceIntersection", fail)
        with pytest.raises(EstimatorError, match="minimax hull failed: QH6023"):
            minimax_center(np.eye(2), [1.0, 0.0])


class TestNetConfig:
    def test_dense_inner_confidence(self):
        cfg = NetConfig(epsilon=0.05, delta=0.05)
        assert cfg.log_inv_delta_inner(3) == pytest.approx(
            math.log(20) + 3 * math.log(5))

    def test_dense_dimension_cap(self):
        cfg = NetConfig(epsilon=0.05, delta=0.05)
        with pytest.raises(ConfigurationError):
            cfg.log_inv_delta_inner(13)

    def test_sparse_inner_confidence(self):
        cfg = NetConfig(epsilon=0.05, delta=0.05, sparsity=1)
        assert cfg.log_inv_delta_inner(20) == pytest.approx(
            math.log(20) + math.log(6 * math.e * 20))

    def test_supports_above_enumeration_cap_rejected_before_any_draw(
            self, monkeypatch):
        # s ln(6 e p / s) = 19.2 is within budget, but the C(30, 4) = 27405
        # supports are not: refused before a cover is built.
        def unreachable(*args):
            raise AssertionError("a probe was drawn")

        monkeypatch.setattr(netmax, "_draw_rows", unreachable)
        data = np.random.default_rng(13).standard_normal((50, 30))
        with pytest.raises(ConfigurationError, match="27405 supports"):
            net_estimate(data, NetConfig(epsilon=0.0, delta=0.1, sparsity=4))


class TestNetEstimate:
    def test_recovers_shifted_gaussian_mean(self):
        rng = np.random.default_rng(7)
        mu = np.array([1.0, -0.5])
        data = rng.standard_normal((4000, 2)) + mu
        cfg = NetConfig(epsilon=0.0, delta=0.1)
        rep = net_estimate(data, cfg, seed=0)
        assert np.linalg.norm(rep.estimate - mu) < 0.25
        diag = rep.diagnostics
        assert diag["cover_size"] >= 4
        assert len(diag["targets"]) == diag["cover_size"]
        dirs = build_half_cover(2, seed=0).directions
        assert minimax_objective(dirs, np.array(diag["targets"]),
                                 rep.estimate) == diag["objective"]

    def test_resists_point_mass_contamination(self):
        rng = np.random.default_rng(8)
        n = 4000
        data = rng.standard_normal((n, 2))
        bad = rng.random(n) < 0.05
        data[bad] = [200.0, 200.0]
        cfg = NetConfig(epsilon=0.05, delta=0.1)
        rep = net_estimate(data, cfg, seed=1)
        assert np.linalg.norm(rep.estimate) < 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_before_cover(self, monkeypatch, bad):
        def unreachable(*args, **kwargs):
            raise AssertionError("cover built for non-finite input")

        monkeypatch.setattr(netmax, "build_half_cover", unreachable)
        data = np.random.default_rng(11).standard_normal((400, 3))
        data[17, 2] = bad
        with pytest.raises(ConfigurationError):
            net_estimate(data, NetConfig(epsilon=0.05, delta=0.1), seed=0)

    def test_filter_inner_runs(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((600, 2)) + [2.0, 0.0]
        cfg = NetConfig(epsilon=0.0, delta=0.1, inner="filter1d")
        rep = net_estimate(data, cfg, seed=2)
        assert rep.diagnostics["inner"] == "filter1d"
        assert np.linalg.norm(rep.estimate - [2.0, 0.0]) < 0.5

    def test_filter_targets_match_per_direction_calls(self):
        # The lockstep lanes give each direction's target as one
        # filter_univariate call on its projection, seeded [seed, 1 + j].
        for seed in range(3):
            data = np.random.default_rng([11, seed]).lognormal(size=(150, 3))
            cfg = NetConfig(epsilon=0.0, delta=0.1, inner="filter1d")
            rep = net_estimate(data, cfg, seed=seed)
            cover = build_half_cover(3, seed=seed)
            steps = min(math.ceil(2.0 * cfg.log_inv_delta_inner(3)), 148)
            expected = [
                filter_univariate(data @ u, FilterConfig(
                    steps=steps,
                    seed=int(np.random.SeedSequence(
                        [seed, 1 + j]).generate_state(1)[0]),
                )).estimate[0]
                for j, u in enumerate(cover.directions)
            ]
            assert rep.diagnostics["targets"] == expected

    def test_interval_targets_match_per_direction_calls(self):
        # The column pass gives each direction's target as one
        # interval_estimate call on its projection; the last dataset is
        # rounded so that many projections tie.
        datasets = [(seed, np.random.default_rng([12, seed]).lognormal(size=(400, 3)))
                    for seed in range(3)]
        datasets.append((0, np.round(datasets[0][1], 1)))
        for seed, data in datasets:
            cfg = NetConfig(epsilon=0.0, delta=0.1)
            rep = net_estimate(data, cfg, seed=seed)
            inner = IntervalConfig(
                epsilon=0.0, log_inv_delta=cfg.log_inv_delta_inner(3))
            expected = [interval_estimate(data @ u, inner)
                        for u in build_half_cover(3, seed=seed).directions]
            assert rep.diagnostics["targets"] == expected

    def test_filter_inner_on_one_row_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="n=1"):
            net_estimate(np.ones((1, 2)), NetConfig(
                epsilon=0.0, delta=0.1, inner="filter1d"))

    def test_sparse_estimate_has_sparse_support(self):
        rng = np.random.default_rng(10)
        mu = np.zeros(6)
        mu[2] = 3.0
        data = rng.standard_normal((6000, 6)) + mu
        cfg = NetConfig(epsilon=0.0, delta=0.1, sparsity=1)
        rep = net_estimate(data, cfg, seed=3)
        assert np.count_nonzero(rep.estimate) <= 1
        assert abs(rep.estimate[2] - 3.0) < 0.6

import copy
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from robustmean import (
    ConfigurationError,
    ContaminationSpec,
    DistributionSpec,
    MomentProfile,
    population_moments,
    sample_dataset,
)
from robustmean import baselines, bench, filtering, interval, model, netmax
from robustmean.model import LOGNORMAL_SHIFT, LOGNORMAL_VAR


def test_sampling_is_deterministic_given_seed():
    spec = DistributionSpec("lognormal", p=4)
    a = sample_dataset(spec, 50, seed=42)
    b = sample_dataset(spec, 50, seed=42)
    c = sample_dataset(spec, 50, seed=43)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gaussian_respects_covariance():
    cov = np.diag([4.0, 1.0])
    spec = DistributionSpec("gaussian", p=2, covariance=cov)
    data = sample_dataset(spec, 200_000, seed=0)
    emp = data.T @ data / data.shape[0]
    np.testing.assert_allclose(emp, cov, atol=0.05)


def _covariances():
    rng = np.random.default_rng(90)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((5, 2))
    return {"identity": np.eye(20), "spd": a @ a.T + 0.1 * np.eye(6),
            "rank_deficient": b @ b.T, "p1": np.array([[2.5]]),
            # A zero-variance coordinate: a zero row in the factor.
            "zero_variance": np.diag([2.0, 0.0, 1.0])}


@pytest.mark.parametrize("name", ["identity", "spd", "rank_deficient", "p1",
                                  "zero_variance"])
def test_gaussian_rows_are_multivariate_normal_svd(name):
    # The factor built once per spec gives Generator.multivariate_normal's
    # rows bit for bit, signed zeros included, and leaves the generator
    # where it leaves it, so the contamination draws that follow are the same.
    cov = _covariances()[name]
    spec = DistributionSpec("gaussian", p=cov.shape[0], covariance=cov)
    for seed in range(5):
        for count in (1, 7, 300):
            ours = np.random.default_rng([91, seed])
            ref = np.random.default_rng([91, seed])
            rows = model._draw_clean(spec, count, ours)
            expected = ref.multivariate_normal(
                np.zeros(spec.p), spec.covariance, size=count, method="svd")
            assert rows.shape == expected.shape
            assert rows.tobytes() == expected.tobytes()
            assert ours.random() == ref.random()


def _reference_dataset(spec, n, seed):
    """``sample_dataset``'s stream, the rows made by the full SVD factor's
    matmul, the point masses by a tiled copy of the location and the
    contaminated rows assigned through a boolean mask."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    u, sv, _ = np.linalg.svd(spec.covariance)
    data = np.zeros(spec.p) + rng.standard_normal((n, spec.p)) @ (u * np.sqrt(sv)).T
    if spec.epsilon > 0:
        mask = rng.random(n) < spec.epsilon
        count = int(mask.sum())
        q = spec.q_spec
        data[mask] = np.tile(q.location, (count, 1)) if q.kind == "point_mass" \
            else q.location + q.scale * rng.standard_normal((count, spec.p))
    return data


_ROTATION = np.linalg.qr(np.random.default_rng(92).standard_normal((4, 4)))[0]


@pytest.mark.parametrize("cov, diagonal, q_spec", [
    (np.eye(1), True, None),
    (np.eye(3), True, None),
    (np.eye(20), True, None),
    (np.diag([9.0, 4.0, 1.0]), True, None),
    # The SVD orders the singular values, so diag(1, 4) gets a permuted factor.
    (np.diag([1.0, 4.0]), False, None),
    # A zero scale: z * 0.0 is -0.0 for negative z, and 0.0 after the mean.
    (np.diag([1.0, 0.0]), True, None),
    (_ROTATION @ np.diag([4.0, 3.0, 2.0, 1.0]) @ _ROTATION.T, False, None),
    (np.eye(1), True, ContaminationSpec("point_mass", location=[5.0])),
    (np.eye(3), True,
     ContaminationSpec("point_mass", location=[0.0, -0.0, 5.0])),
    (np.diag([1.0, 0.0]), True, ContaminationSpec("point_mass", location=[-0.0, 0.0])),
    (np.eye(2), True,
     ContaminationSpec("shifted_gaussian", location=[3.0, -0.0], scale=0.5)),
], ids=["p1", "p3", "p20", "diag941", "diag14", "diag10", "dense",
        "point_mass_p1", "point_mass", "point_mass_diag10", "shifted"])
def test_sampling_matches_the_full_factor_matmul(cov, diagonal, q_spec):
    # A diagonal factor is kept as its diagonal and scales the rows; the
    # data are the matmul's bit for bit, signed zeros included.
    p = cov.shape[0]
    spec = DistributionSpec("gaussian", p=p, covariance=cov,
                            epsilon=0.0 if q_spec is None else 0.3, q_spec=q_spec)
    assert (spec.factor.ndim == 1) == diagonal
    for seed in range(20):
        for n in (1, 9, 200):
            assert (sample_dataset(spec, n, seed).tobytes()
                    == _reference_dataset(spec, n, seed).tobytes())


def test_lognormal_is_centered():
    spec = DistributionSpec("lognormal", p=1)
    data = sample_dataset(spec, 400_000, seed=7)
    # se of the mean is sqrt(var/n) ~ 0.0034; allow 4 sigma
    assert abs(data.mean()) < 4 * math.sqrt(LOGNORMAL_VAR / data.shape[0])
    assert abs(LOGNORMAL_SHIFT - math.exp(0.5)) < 1e-15


def test_pareto_is_centered_and_positive_skewed():
    spec = DistributionSpec("pareto", p=1, tail_beta=5.0)
    data = sample_dataset(spec, 400_000, seed=11)
    var = 5.0 / (16.0 * 3.0)
    assert abs(data.mean()) < 4 * math.sqrt(var / data.shape[0])
    assert data.min() >= 1.0 - 5.0 / 4.0 - 1e-12  # support is [1, inf) shifted


def test_contamination_rate_matches_epsilon():
    q = ContaminationSpec("point_mass", location=[100.0])
    spec = DistributionSpec("lognormal", p=1, epsilon=0.2, q_spec=q)
    data = sample_dataset(spec, 100_000, seed=3)
    frac = np.mean(data[:, 0] == 100.0)
    assert abs(frac - 0.2) < 0.006  # ~4.7 binomial sd


def test_shifted_gaussian_contamination_center():
    q = ContaminationSpec("shifted_gaussian", location=[50.0, 0.0], scale=0.5)
    spec = DistributionSpec(
        "gaussian", p=2, covariance=np.eye(2), epsilon=0.3, q_spec=q
    )
    data = sample_dataset(spec, 50_000, seed=9)
    outliers = data[data[:, 0] > 25.0]
    assert abs(outliers.shape[0] / data.shape[0] - 0.3) < 0.01
    np.testing.assert_allclose(outliers.mean(axis=0), [50.0, 0.0], atol=0.05)


def test_population_moments_gaussian():
    cov = np.diag([3.0, 1.0, 1.0])
    m = population_moments(DistributionSpec("gaussian", p=3, covariance=cov))
    assert m.k == 2
    assert m.trace_sigma == pytest.approx(5.0)
    assert m.opnorm_sigma == pytest.approx(3.0)
    assert m.effective_rank == pytest.approx(5.0 / 3.0)


def test_population_moments_lognormal():
    m = population_moments(DistributionSpec("lognormal", p=20))
    assert m.k == 2
    assert m.trace_sigma == pytest.approx(20 * (math.e - 1) * math.e)
    assert m.opnorm_sigma == pytest.approx((math.e - 1) * math.e)


def test_population_moments_pareto_k_by_tail():
    m3 = population_moments(DistributionSpec("pareto", p=2, tail_beta=3.0))
    assert m3.k == 1
    assert m3.opnorm_sigma == pytest.approx(3.0 / (4.0 * 1.0))
    m5 = population_moments(DistributionSpec("pareto", p=2, tail_beta=5.0))
    assert m5.k == 2
    with pytest.raises(ConfigurationError):
        population_moments(DistributionSpec("pareto", p=2, tail_beta=1.5))


@pytest.mark.parametrize("spec", [
    DistributionSpec("gaussian", p=2, covariance=np.diag([2.0, 1.0])),
    DistributionSpec("lognormal", p=3),
    DistributionSpec("pareto", p=2, tail_beta=5.0),
], ids=["gaussian", "lognormal", "pareto"])
def test_population_moments_of_a_contaminated_spec_are_its_clean_ones(spec):
    q = ContaminationSpec("point_mass", location=np.full(spec.p, 50.0))
    contaminated = DistributionSpec(spec.family, p=spec.p,
                                    covariance=spec.covariance,
                                    tail_beta=spec.tail_beta, epsilon=0.2,
                                    q_spec=q)
    assert population_moments(contaminated) == population_moments(spec)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        DistributionSpec("gaussian", p=2)  # missing covariance
    with pytest.raises(ConfigurationError):
        DistributionSpec("gaussian", p=2, covariance=[[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ConfigurationError):
        DistributionSpec("lognormal", p=1, epsilon=0.1)  # no q_spec
    with pytest.raises(ConfigurationError):
        DistributionSpec("lognormal", p=1, epsilon=0.6,
                         q_spec=ContaminationSpec("point_mass", location=[1.0]))
    with pytest.raises(ConfigurationError):
        MomentProfile(k=3, trace_sigma=1.0, opnorm_sigma=1.0)


CONTAMINATED_JSON = {
    "family": "gaussian", "p": 2, "covariance": [[1.0, 0.0], [0.0, 1.0]],
    "epsilon": 0.1, "q_spec": {"kind": "point_mass", "location": [5.0, 0.0]},
}


def test_json_decode():
    spec = DistributionSpec.from_json_dict(CONTAMINATED_JSON)
    assert spec.family == "gaussian"
    assert spec.epsilon == 0.1
    np.testing.assert_array_equal(spec.covariance, np.eye(2))
    np.testing.assert_array_equal(spec.q_spec.location, [5.0, 0.0])

    shifted = DistributionSpec.from_json_dict({
        "family": "lognormal", "p": 1, "epsilon": 0.2, "q_spec": {
            "kind": "shifted_gaussian", "location": [3.0], "scale": 2}})
    assert shifted == DistributionSpec("lognormal", p=1, epsilon=0.2, q_spec=(
        ContaminationSpec("shifted_gaussian", location=[3.0], scale=2.0)))

    plain = DistributionSpec("pareto", p=3, tail_beta=3.0)
    doc = {"family": "pareto", "p": 3, "tail_beta": 3.0}
    assert DistributionSpec.from_json_dict(doc) == plain


def test_json_nested_contamination_rejected():
    # The contamination's keys sit on the spec itself, as its fields do.
    doc = {"family": "gaussian", "p": 1, "covariance": [[1.0]], "contamination": {
        "epsilon": 0.1, "q_spec": {"kind": "shifted_gaussian", "shift": [3.0]}}}
    with pytest.raises(ConfigurationError, match="does not read \\['contamination'\\]"):
        DistributionSpec.from_json_dict(doc)


LEVELS = {"spec": DistributionSpec, "q_spec": ContaminationSpec}
SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "schemas"
                     / "distribution_spec.schema.json").read_text())


def _level(doc, level):
    """The object at ``level`` of a distribution document."""
    return doc if level == "spec" else doc["q_spec"]


@pytest.mark.parametrize("level", LEVELS)
def test_json_reader_keys_are_the_schema(level):
    required, optional = model.json_keys(LEVELS[level])
    schema = SCHEMA if level == "spec" else SCHEMA["properties"]["q_spec"]
    assert set(required) | set(optional) == set(schema["properties"])
    assert set(required) == set(schema["required"])


@pytest.mark.parametrize("level", LEVELS)
def test_json_unknown_key_rejected(level):
    doc = copy.deepcopy(CONTAMINATED_JSON)
    _level(doc, level)["contamnation"] = {}
    with pytest.raises(ConfigurationError, match="'contamnation'"):
        DistributionSpec.from_json_dict(doc)


@pytest.mark.parametrize("level, key", [
    (level, key) for level, cls in LEVELS.items() for key in model.json_keys(cls)[0]])
def test_json_missing_key_rejected(level, key):
    doc = copy.deepcopy(CONTAMINATED_JSON)
    del _level(doc, level)[key]
    with pytest.raises(ConfigurationError, match=f"missing \\['{key}'\\]"):
        DistributionSpec.from_json_dict(doc)


@pytest.mark.parametrize("contamination", [None, [0.1], "point_mass"])
def test_json_non_object_rejected(contamination):
    doc = dict(CONTAMINATED_JSON, q_spec=contamination)
    with pytest.raises(ConfigurationError, match="must be a JSON object"):
        DistributionSpec.from_json_dict(doc)


def _gaussian(cov, location=(5.0, 0.0)):
    return DistributionSpec(
        "gaussian", p=2, covariance=np.array(cov, dtype=float), epsilon=0.1,
        q_spec=ContaminationSpec("point_mass", location=list(location)))


def test_spec_equality_compares_arrays_by_value():
    # Distinct but equal covariance and location arrays: the generated
    # dataclass __eq__ raised ValueError on the tuple of arrays.
    a, b = _gaussian([[2.0, 0.5], [0.5, 1.0]]), _gaussian([[2.0, 0.5], [0.5, 1.0]])
    assert a.covariance is not b.covariance
    assert a == b and not a != b
    assert DistributionSpec("lognormal", p=3) == DistributionSpec("lognormal", p=3)
    shifted = ContaminationSpec("shifted_gaussian", location=[1.0, 2.0], scale=0.5)
    assert shifted == ContaminationSpec("shifted_gaussian", location=np.array([1.0, 2.0]),
                                        scale=0.5)


def test_spec_equality_tells_unequal_specs_apart():
    base = _gaussian(np.eye(2))
    assert base != _gaussian(2 * np.eye(2))
    assert base != _gaussian(np.eye(2), location=(5.0, 1.0))
    assert not base == DistributionSpec("gaussian", p=2, covariance=np.eye(2))
    assert DistributionSpec("pareto", p=1, tail_beta=3.0) != \
        DistributionSpec("pareto", p=1, tail_beta=4.0)
    assert ContaminationSpec("shifted_gaussian", location=[1.0], scale=0.5) != \
        ContaminationSpec("shifted_gaussian", location=[1.0], scale=1.0)
    assert ContaminationSpec("point_mass", location=[1.0]) != \
        ContaminationSpec("shifted_gaussian", location=[1.0])
    assert base != "gaussian"


def test_spec_equality_leaves_out_the_derived_factor():
    a, b = _gaussian(np.eye(2)), _gaussian(np.eye(2))
    assert b.factor.ndim == 1  # the diagonal of a diagonal factor
    object.__setattr__(b, "factor", -b.factor)
    assert not np.array_equal(a.factor, b.factor)
    assert a == b


@pytest.mark.parametrize("spec", [
    DistributionSpec("gaussian", p=3, covariance=np.diag([3.0, 1.0, 1.0])),
    DistributionSpec("lognormal", p=4),
    DistributionSpec("pareto", p=2, tail_beta=3.0),
], ids=["gaussian", "lognormal", "pareto"])
def test_spec_moments_are_computed_once(monkeypatch, spec):
    calls = []
    monkeypatch.setattr(model, "population_moments",
                        lambda s: calls.append(s) or population_moments(s))
    spec = replace(spec)  # a new spec: no moments kept from another test
    assert spec.moments == population_moments(spec)
    assert spec.moments is spec.moments
    assert len(calls) == 1
    # Not a field: a spec that kept other moments is still equal.
    other = copy.deepcopy(spec)
    other.__dict__["moments"] = MomentProfile(1, 9.0, 1.0)
    assert other == spec


def test_infinite_variance_moments_raise_on_every_request():
    spec = DistributionSpec("pareto", p=2, tail_beta=2.0)
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            spec.moments
        ctx = bench.RunContext(delta=0.1, spec=spec)
        with pytest.raises(ConfigurationError):
            ctx.moments("cov_bound")


def _in_range(value, low, high=math.inf, closed=True):
    return lambda: model.check_range("value", value, low, high, closed)


def _with(value, at=(3, 1), shape=(8, 2)):
    data = np.zeros(shape)
    data[at] = value
    return data


FIXED = filtering.FilterConfig(steps=1)
ROWS = np.random.default_rng(12).standard_normal((20, 2))
MOMENTS = MomentProfile(2, trace_sigma=2.0, opnorm_sigma=1.0)

# name -> (call, expected): what the call returns, or ConfigurationError if
# the input gate must refuse it.  The cases past the gate's own are the
# library-level inputs that escaped it before: flattened, returned, or
# failing later with another exception.
GATE_CASES = {
    # The data gate.
    "1-D is one column": (lambda: model.as_finite_matrix([1.0, 2.0]).shape, (2, 1)),
    "n x p": (lambda: model.as_finite_matrix(np.ones((4, 3))).shape, (4, 3)),
    "n x 1, univariate": (lambda: model.as_finite_matrix(
        np.ones((4, 1)), univariate=True).shape, (4, 1)),
    "gated rows": (lambda: model.as_finite_matrix(
        model.as_finite_matrix(np.ones(5))).shape, (5, 1)),
    "(0, p)": (lambda: model.as_finite_matrix(np.ones((0, 3))), ConfigurationError),
    "(n, 0)": (lambda: model.as_finite_matrix(np.ones((5, 0))), ConfigurationError),
    "empty 1-D": (lambda: model.as_finite_matrix(np.ones(0)), ConfigurationError),
    "3-D": (lambda: model.as_finite_matrix(np.ones((4, 2, 2))), ConfigurationError),
    "scalar": (lambda: model.as_finite_matrix(3.0), ConfigurationError),
    "n x 2, univariate": (lambda: model.as_finite_matrix(
        np.ones((4, 2)), univariate=True), ConfigurationError),
    "1 x n, univariate": (lambda: model.as_finite_matrix(
        np.ones((1, 4)), univariate=True), ConfigurationError),
    "NaN": (lambda: model.as_finite_matrix(_with(math.nan)), ConfigurationError),
    "+inf": (lambda: model.as_finite_matrix(_with(math.inf)), ConfigurationError),
    "-inf": (lambda: model.as_finite_matrix(_with(-math.inf)), ConfigurationError),
    "a string value": (lambda: model.as_finite_matrix(["x", 1.0]),
                       ConfigurationError),
    "ragged rows": (lambda: model.as_finite_matrix([[1.0], [2.0, 3.0]]),
                    ConfigurationError),
    "a dict": (lambda: model.as_finite_matrix({"a": 1}), ConfigurationError),
    # Only arrays of an integer or float dtype are numbers: numeric strings,
    # bools and complex values were converted before.
    "numeric strings": (lambda: baselines.sample_mean(["1e3", "2"]),
                        ConfigurationError),
    "bools": (lambda: model.as_finite_matrix([True, False]), ConfigurationError),
    "complex": (lambda: model.as_finite_matrix(np.array([1.0 + 1.0j, 2.0])),
                ConfigurationError),
    "a bool among floats is a float": (lambda: model.as_finite_matrix(
        [1.0, True]).ravel().tolist(), [1.0, 1.0]),
    # The arrays of covers and specs go through the same gate.
    "cover with a NaN row": (lambda: netmax.certify_cover(netmax.CoverSet(
        [[1.0, 0.0], [math.nan, 0.0]])), ConfigurationError),
    "covariance with inf": (lambda: DistributionSpec(
        "gaussian", p=2, covariance=[[math.inf, 0.0], [0.0, 1.0]]),
                            ConfigurationError),
    "contamination location NaN": (lambda: ContaminationSpec(
        "point_mass", location=[math.nan]), ConfigurationError),
    "contamination shift inf": (lambda: ContaminationSpec(
        "shifted_gaussian", location=[math.inf]), ConfigurationError),
    # A ragged array is refused where each call site shapes it.
    "ragged cover": (lambda: netmax.CoverSet([[1.0], [0.6, 0.8]]),
                     ConfigurationError),
    "ragged minimax directions": (lambda: netmax.minimax_center(
        [[1.0], [0.6, 0.8]], [0.0, 0.0]), ConfigurationError),
    "ragged minimax targets": (lambda: netmax.minimax_center(
        [[1.0, 0.0], [0.0, 1.0]], [[0.0], [1.0, 2.0]]), ConfigurationError),
    "ragged contamination location": (lambda: ContaminationSpec(
        "point_mass", location=[[1.0], [2.0, 3.0]]), ConfigurationError),
    "ragged contamination shift": (lambda: ContaminationSpec(
        "shifted_gaussian", location=[[1.0], [2.0, 3.0]]), ConfigurationError),
    "ragged oracle centre": (lambda: baselines.oracle_truncated_mean(
        ROWS, [[0.0], [1.0, 2.0]], 3.0), ConfigurationError),
    # The shapes they flatten or lift stay accepted.
    "scalar contamination location": (lambda: ContaminationSpec(
        "point_mass", location=5).location.tolist(), [5.0]),
    "1-D cover direction": (lambda: netmax.CoverSet([0.6, 0.8]).directions.shape,
                            (1, 2)),
    # The range check: (0, 1) for delta, [0, 1/2) for epsilon, [0, inf) or
    # (0, inf) for a scale.
    "delta 0": (_in_range(0.0, 0.0, 1.0, closed=False), ConfigurationError),
    "delta 1": (_in_range(1.0, 0.0, 1.0, closed=False), ConfigurationError),
    "delta tiny": (_in_range(5e-324, 0.0, 1.0, closed=False), None),
    "delta below 1": (_in_range(math.nextafter(1.0, 0.0), 0.0, 1.0,
                                closed=False), None),
    "epsilon 0": (_in_range(0.0, 0.0, 0.5), None),
    "epsilon below 0": (_in_range(-1e-300, 0.0, 0.5), ConfigurationError),
    "epsilon below 1/2": (_in_range(math.nextafter(0.5, 0.0), 0.0, 0.5), None),
    "epsilon 1/2": (_in_range(0.5, 0.0, 0.5), ConfigurationError),
    "scale 0, closed": (_in_range(0.0, 0.0), None),
    "scale 0, open": (_in_range(0.0, 0.0, closed=False), ConfigurationError),
    "scale int": (_in_range(3, 0.0, closed=False), None),
    "scale largest float": (_in_range(1.7976931348623157e308, 0.0), None),
    "scale +inf": (_in_range(math.inf, 0.0), ConfigurationError),
    "scale -inf": (_in_range(-math.inf, 0.0), ConfigurationError),
    "scale NaN": (_in_range(math.nan, 0.0), ConfigurationError),
    "scale NaN, open": (_in_range(math.nan, 0.0, closed=False), ConfigurationError),
    "None": (_in_range(None, 0.0), ConfigurationError),
    "string": (_in_range("0.1", 0.0, 1.0), ConfigurationError),
    "bool": (_in_range(True, 0.0), ConfigurationError),
    "delta and log_inv_delta": (lambda: interval.IntervalConfig(
        epsilon=0.1, delta=0.05, log_inv_delta=math.log(20.0)), ConfigurationError),
    # Inputs that escaped the gate.
    "filter_univariate on n x 2": (lambda: filtering.filter_univariate(
        ROWS[:6], FIXED), ConfigurationError),
    "interval_estimate on n x 2": (lambda: interval.interval_estimate(
        ROWS, interval.IntervalConfig(epsilon=0.0, delta=0.1)), ConfigurationError),
    "sample_mean on 3-D": (lambda: baselines.sample_mean(np.ones((4, 2, 2))),
                           ConfigurationError),
    "sample_mean on (0, p)": (lambda: baselines.sample_mean(np.ones((0, 3))),
                              ConfigurationError),
    "srm_bruteforce on (n, 0)": (lambda: baselines.srm_bruteforce(
        np.ones((5, 0)), 0.2), ConfigurationError),
    "filter_multivariate on 3-D": (lambda: filtering.filter_multivariate(
        np.ones((6, 2, 2)), FIXED), ConfigurationError),
    "filter_multivariate on (n, 0)": (lambda: filtering.filter_multivariate(
        np.ones((5, 0)), FIXED), ConfigurationError),
    "geometric_median with a NaN row": (lambda: baselines.geometric_median(
        _with(math.nan, at=(2, 0), shape=(4, 2))), ConfigurationError),
    "oracle with a NaN centre": (lambda: baselines.oracle_truncated_mean(
        ROWS, [math.nan, 0.0], 3.0), ConfigurationError),
    "oracle with an inf radius": (lambda: baselines.oracle_truncated_mean(
        ROWS, [0.0, 0.0], math.inf), ConfigurationError),
    "cov_bound NaN": (lambda: filtering.FilterConfig(cov_bound=math.nan),
                      ConfigurationError),
    "cov_bound inf": (lambda: filtering.FilterConfig(cov_bound=math.inf),
                      ConfigurationError),
    "fractional steps": (lambda: filtering.FilterConfig(steps=1.5),
                         ConfigurationError),
    "RunContext delta 5": (lambda: bench.RunContext(delta=5.0), ConfigurationError),
    "log_inv_delta NaN": (lambda: interval.IntervalConfig(
        epsilon=0.1, log_inv_delta=math.nan), ConfigurationError),
    "log_inv_delta inf": (lambda: interval.IntervalConfig(
        epsilon=0.1, log_inv_delta=math.inf), ConfigurationError),
    "delta 5 beside log_inv_delta": (lambda: interval.IntervalConfig(
        epsilon=0.1, delta=5.0, log_inv_delta=1.0), ConfigurationError),
    "NetConfig delta None": (lambda: netmax.NetConfig(epsilon=0.1, delta=None),
                             ConfigurationError),
    "cov_bound_hint delta None": (lambda: filtering.cov_bound_hint(
        MOMENTS, n=10, p=2, delta=None), ConfigurationError),
    "MomentProfile NaN trace": (lambda: MomentProfile(2, math.nan, 1.0),
                                ConfigurationError),
    "contamination scale NaN": (lambda: ContaminationSpec(
        "shifted_gaussian", location=[1.0], scale=math.nan), ConfigurationError),
    "pareto tail_beta NaN": (lambda: DistributionSpec(
        "pareto", p=1, tail_beta=math.nan), ConfigurationError),
    # Counts and seeds must be ints, seeds >= 0.
    "spec p 2.0": (lambda: DistributionSpec("lognormal", p=2.0),
                   ConfigurationError),
    "sample_dataset n 2.5": (lambda: sample_dataset(
        DistributionSpec("lognormal", p=2), 2.5, 0), ConfigurationError),
    "sample_dataset seed -1": (lambda: sample_dataset(
        DistributionSpec("lognormal", p=2), 5, -1), ConfigurationError),
    "FilterConfig seed 1.5": (lambda: filtering.FilterConfig(seed=1.5),
                              ConfigurationError),
    "FilterConfig seed -1": (lambda: filtering.FilterConfig(seed=-1),
                             ConfigurationError),
    "NetConfig sparsity 1.5": (lambda: netmax.NetConfig(
        epsilon=0.1, delta=0.1, sparsity=1.5), ConfigurationError),
    "build_half_cover p 2.0": (lambda: netmax.build_half_cover(2.0),
                               ConfigurationError),
    "CoverSet sparsity '2'": (lambda: netmax.CoverSet(np.eye(2), sparsity="2"),
                              ConfigurationError),
    "CoverSet sparsity 1.5": (lambda: netmax.CoverSet(np.eye(2), sparsity=1.5),
                              ConfigurationError),
    "CoverSet sparsity True": (lambda: netmax.CoverSet(np.eye(2), sparsity=True),
                               ConfigurationError),
    "build_half_cover sparsity 1.5": (lambda: netmax.build_half_cover(
        4, sparsity=1.5), ConfigurationError),
    "net_estimate seed 1.5": (lambda: netmax.net_estimate(
        ROWS, netmax.NetConfig(epsilon=0.1, delta=0.1), seed=1.5),
                              ConfigurationError),
    "coordinatewise_filter seed 1.5": (lambda: baselines.coordinatewise_filter(
        ROWS, delta=0.1, seed=1.5), ConfigurationError),
    "gmom blocks True": (lambda: baselines.geometric_median_of_means(
        ROWS, blocks=True), ConfigurationError),
    "gmom blocks 2.0": (lambda: baselines.geometric_median_of_means(
        ROWS, blocks=2.0), ConfigurationError),
    "oracle_radius n 0": (lambda: baselines.oracle_radius(
        MOMENTS, n=0, delta=0.1), ConfigurationError),
    "cov_bound_hint p 0": (lambda: filtering.cov_bound_hint(
        MOMENTS, n=10, p=0, delta=0.1), ConfigurationError),
    "cov_bound_hint n 0": (lambda: filtering.cov_bound_hint(
        MOMENTS, n=0, p=2, delta=0.1, epsilon=0.1), ConfigurationError),
    "TrialConfig master_seed -1": (lambda: bench.TrialConfig(
        DistributionSpec("lognormal", p=2), [bench.MethodSpec("mean")], [10],
        [2], 0.1, master_seed=-1), ConfigurationError),
    "stopping_cap n 10.5": (lambda: filtering.stopping_cap(10.5, 2, 0.1),
                            ConfigurationError),
    "stopping_cap n_good 2.25": (lambda: filtering.stopping_cap(10, 2.25, 0.1),
                                 ConfigurationError),
    "interval_count n 0": (lambda: interval.interval_count(
        0, interval.IntervalConfig(epsilon=0.1, delta=0.1)), ConfigurationError),
    "check_precondition n 0": (lambda: interval.check_precondition(
        0, interval.IntervalConfig(epsilon=0.1, delta=0.1)), ConfigurationError),
    "minimax_center constraint 0": (lambda: netmax.minimax_center(
        np.eye(3), [1.0, 2.0, 3.0], constraint=0), ConfigurationError),
    "minimax_center constraint -1": (lambda: netmax.minimax_center(
        np.eye(3), [1.0, 2.0, 3.0], constraint=-1), ConfigurationError),
    "minimax_center constraint 1.5": (lambda: netmax.minimax_center(
        np.eye(3), [1.0, 2.0, 3.0], constraint=1.5), ConfigurationError),
    "minimax_center constraint True": (lambda: netmax.minimax_center(
        np.eye(3), [1.0, 2.0, 3.0], constraint=True), ConfigurationError),
    # A certificate drawn from no probes proves nothing.
    "certify_cover probes -5": (lambda: netmax.certify_cover(
        netmax.CoverSet([[1.0, 0.0], [-1.0, 0.0]]), probes=-5), ConfigurationError),
    # A spec refuses the fields its family does not read.
    "lognormal covariance": (lambda: DistributionSpec(
        "lognormal", p=2, covariance=[[1.0, 0.0], [0.0, 1.0]]), ConfigurationError),
    "gaussian tail_beta": (lambda: DistributionSpec(
        "gaussian", p=1, covariance=[[1.0]], tail_beta=3.0), ConfigurationError),
    "contamination without a location": (lambda: ContaminationSpec(
        "shifted_gaussian"), ConfigurationError),
    # A sweep config fails before its first trial.
    "TrialConfig n 0": (lambda: bench.TrialConfig(
        DistributionSpec("lognormal", p=2), [bench.MethodSpec("mean")], [0],
        [2], 0.1), ConfigurationError),
    "TrialConfig p 0": (lambda: bench.TrialConfig(
        DistributionSpec("lognormal", p=2), [bench.MethodSpec("mean")], [10],
        [0], 0.1), ConfigurationError),
    "TrialConfig no methods": (lambda: bench.TrialConfig(
        DistributionSpec("lognormal", p=2), [], [10], [2], 0.1), ConfigurationError),
    "TrialConfig contaminated p sweep": (lambda: bench.TrialConfig(
        _gaussian(np.eye(2)), [bench.MethodSpec("mean")], [10], [2, 3], 0.1),
                                         ConfigurationError),
}


@pytest.mark.parametrize("name", GATE_CASES)
def test_input_gate(name):
    call, expected = GATE_CASES[name]
    if expected is ConfigurationError:
        with pytest.raises(ConfigurationError):
            call()
    else:
        assert call() == expected


def test_estimates_do_not_depend_on_memory_layout():
    # The gate hands every estimator C-ordered rows: a Fortran-ordered array
    # and a strided view give the bits of their C-ordered copies.
    x = np.random.default_rng(91).lognormal(size=(300, 6))
    wide = np.random.default_rng(92).lognormal(size=(600, 12))
    for data, copy_ in ((np.asfortranarray(x), x),
                        (wide[::2, ::2], wide[::2, ::2].copy())):
        a, b = (filtering.filter_multivariate(d, filtering.FilterConfig(steps=20))
                for d in (data, copy_))
        assert a.removed_indices == b.removed_indices
        assert a.diagnostics == b.diagnostics
        assert a.estimate.tolist() == b.estimate.tolist()
        for estimator in (lambda d: baselines.coordinatewise_filter(d, 0.05, 3),
                          baselines.sample_mean,
                          lambda d: baselines.geometric_median_of_means(d, 7)):
            assert estimator(data).tolist() == estimator(copy_).tolist()

"""Synthetic data model: sampling distributions, contamination, and moments.

All sampling is driven by ``numpy.random.Generator`` seeded through
``numpy.random.SeedSequence``, so identical ``(spec, n, seed)`` triples
produce identical datasets on any platform.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ConfigurationError

_PSD_TOL = 1e-10

FAMILIES = ("gaussian", "lognormal", "pareto")

# Per-coordinate variance of exp(N(0,1)): (e - 1) * e.
LOGNORMAL_VAR = (math.e - 1.0) * math.e
# Mean of exp(N(0,1)); subtracted so the population mean is 0.
LOGNORMAL_SHIFT = math.exp(0.5)


def as_float_array(values, what: str) -> np.ndarray:
    """An array of numbers as a C-ordered float array of its own shape,
    converted once, so that its memory layout changes no result's bits; a
    ragged array, or one whose own dtype is not of an integer or float kind
    (bool, string, complex, object), raises ``ConfigurationError``."""
    try:
        data = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what} must be an array of numbers: {exc}") from None
    if data.dtype.kind not in "iuf":
        raise ConfigurationError(f"{what} must be an array of numbers, not {data.dtype}")
    return data.astype(float, order="C", copy=False)


def as_finite_matrix(samples, univariate: bool = False,
                     what: str = "samples") -> np.ndarray:
    """``as_float_array(samples)`` as an n x p matrix, the one gate of every
    estimator's data and of the arrays in covers and specs: 1D input becomes
    one column, and anything but n >= 1 rows of p >= 1 finite numbers (p = 1
    if ``univariate``) raises ``ConfigurationError`` naming ``what``."""
    data = as_float_array(samples, what)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2 or 0 in data.shape or univariate and data.shape[1] != 1:
        expected = "univariate, an n x 1 matrix with n >= 1" if univariate \
            else "an n x p matrix with n, p >= 1"
        raise ConfigurationError(f"{what} must be {expected}, got shape {data.shape}")
    if not np.isfinite(data).all():
        raise ConfigurationError(f"{what} must be finite")
    return data


def _same_fields(a, b):
    """Field-by-field equality of two spec dataclasses: array fields compare
    with ``np.array_equal``, and fields declared ``compare=False`` are left
    out."""
    if type(a) is not type(b):
        return NotImplemented
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.compare and not (
                np.array_equal(x, y) if isinstance(x, np.ndarray)
                or isinstance(y, np.ndarray) else x == y):
            return False
    return True


@dataclass(frozen=True)
class ContaminationSpec:
    """How contaminated rows are drawn.

    ``point_mass`` puts all mass at ``location``; ``shifted_gaussian`` draws
    N(location, scale^2 I).
    """

    kind: str
    location: Optional[np.ndarray] = None
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("point_mass", "shifted_gaussian"):
            raise ConfigurationError(f"unknown contamination kind {self.kind!r}")
        if self.location is None:
            raise ConfigurationError(f"{self.kind} contamination needs a location")
        check_range("contamination scale", self.scale, 0.0)
        what = "contamination location"  # any shape, flattened to a vector
        object.__setattr__(self, "location", as_finite_matrix(
            as_float_array(self.location, what).ravel(), what=what)[:, 0])

    __eq__ = _same_fields

    def draw(self, rng: np.random.Generator, count: int, p: int) -> np.ndarray:
        if self.kind == "point_mass":
            return np.broadcast_to(self.location, (count, p))
        return self.location + self.scale * rng.standard_normal((count, p))


@dataclass(frozen=True)
class DistributionSpec:
    """Declarative description of a base distribution plus optional mixing.

    The base law always has population mean zero: gaussian rows are
    N(0, covariance); lognormal coordinates are i.i.d. exp(N(0,1)) shifted by
    -e^{1/2}; pareto coordinates are i.i.d. standard Pareto(tail_beta) shifted
    by -tail_beta/(tail_beta - 1). With contamination, each row is
    independently replaced by a contaminated draw with probability epsilon.
    """

    family: str
    p: int
    covariance: Optional[np.ndarray] = None
    tail_beta: Optional[float] = None
    epsilon: float = 0.0
    q_spec: Optional[ContaminationSpec] = None
    # The SVD factor, or its diagonal if diagonal; derived, so equality leaves it out.
    factor: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False)

    __eq__ = _same_fields

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}")
        check_range("dimension p", self.p, 1, kind=int)
        if self.family == "gaussian":
            if self.covariance is None:
                raise ConfigurationError("gaussian spec needs a covariance matrix")
            cov = as_finite_matrix(self.covariance, what="covariance")
            if cov.shape != (self.p, self.p):
                raise ConfigurationError("covariance must be p x p")
            if not np.allclose(cov, cov.T, atol=_PSD_TOL):
                raise ConfigurationError("covariance must be symmetric")
            eigvals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
            if eigvals.min() < -_PSD_TOL:
                raise ConfigurationError("covariance must be PSD")
            object.__setattr__(self, "covariance", 0.5 * (cov + cov.T))
            u, sv, _ = np.linalg.svd(self.covariance)
            factor = u * np.sqrt(sv)
            diagonal = np.diagonal(factor)
            object.__setattr__(self, "factor", diagonal.copy() if np.array_equal(
                factor, np.diag(diagonal)) else factor)
        elif self.family == "pareto":  # > 1, so the mean exists
            check_range("pareto tail_beta", self.tail_beta, 1.0, closed=False)
        for key, family in (("covariance", "gaussian"), ("tail_beta", "pareto")):
            if self.family != family and getattr(self, key) is not None:
                raise ConfigurationError(f"a {self.family} spec reads no {key}")
        check_range("contamination epsilon", self.epsilon, 0.0, 0.5)
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.epsilon > 0 and self.q_spec is None:
            raise ConfigurationError("epsilon > 0 requires a contamination spec")
        if self.q_spec is not None and self.q_spec.location.shape != (self.p,):
            raise ConfigurationError("contamination location dimension must equal p")

    @functools.cached_property
    def moments(self) -> "MomentProfile":
        """``population_moments(self)``, kept after the first request."""
        return population_moments(self)

    @classmethod
    def from_json_dict(cls, doc) -> "DistributionSpec":
        """The spec of a JSON object whose keys are the init fields, and whose
        ``q_spec`` is an object with the keys of ``ContaminationSpec``; a
        missing required key or an unknown key is a ``ConfigurationError``."""
        doc = read_object(doc, *json_keys(cls), "distribution", SPEC_NUMBERS)
        if "q_spec" in doc:
            doc = dict(doc, q_spec=ContaminationSpec(**read_object(
                doc["q_spec"], *json_keys(ContaminationSpec),
                "distribution.q_spec", SPEC_NUMBERS)))
        return cls(**doc)


# The numeric keys of the spec levels, each with the type it must have.
SPEC_NUMBERS = {"p": int, "tail_beta": float, "epsilon": float, "scale": float}


def check_type(what: str, value, kind) -> None:
    """Raise ``ConfigurationError`` unless ``value`` has the type ``kind``:
    ``int``, ``float`` (which takes an int too) or the tuple of strings that
    ``what`` accepts.  A bool is neither an int nor a float."""
    if isinstance(kind, tuple):
        ok = isinstance(value, str) and value in kind
        expected = f"one of {list(kind)}"
    else:
        number = numbers.Integral if kind is int else numbers.Real
        ok = isinstance(value, number) and not isinstance(value, bool)
        expected = kind.__name__
    if not ok:
        raise ConfigurationError(f"{what} must be {expected}, got {value!r}")


def check_range(what: str, value, low: float, high: float = math.inf,
                closed: bool = True, kind=float) -> None:
    """Raise ``ConfigurationError`` unless ``value`` is a real number, or an
    int if ``kind`` is ``int`` (see ``check_type``), in [low, high), or in
    (low, high) if not ``closed``.  The upper end is always open, so
    high = inf rejects +-inf, and NaN fails."""
    check_type(what, value, kind)
    if not ((low <= value if closed else low < value) and value < high):
        raise ConfigurationError(
            f"{what} must lie in {'[' if closed else '('}{low:g}, {high:g}), "
            f"got {value!r}")


def json_keys(cls):
    """The (required, optional) JSON keys of a dataclass: its init fields
    without and with a default."""
    init = [f for f in fields(cls) if f.init]
    required = tuple(f.name for f in init
                     if f.default is MISSING and f.default_factory is MISSING)
    return required, tuple(f.name for f in init if f.name not in required)


def read_object(doc, required, optional, name: str, kinds=None) -> dict:
    """``doc`` if it is a JSON object with every ``required`` key, no key
    outside ``required`` and ``optional``, and a value of the type that
    ``kinds`` gives (see ``check_type``) for each key there, else a
    ``ConfigurationError``."""
    accepted = (*required, *optional)
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"{name} must be a JSON object, not {type(doc).__name__}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigurationError(f"{name} is missing {missing}")
    unknown = sorted(set(doc) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"{name} does not read {unknown}; it accepts {list(accepted) or 'none'}")
    for key, kind in (kinds or {}).items():
        if key in doc:
            check_type(f"{name} key {key!r}", doc[key], kind)
    return doc


@dataclass(frozen=True)
class MomentProfile:
    """Moment summary of a clean distribution: 2k bounded moments plus
    trace and operator norm of its covariance."""

    k: int
    trace_sigma: float
    opnorm_sigma: float

    def __post_init__(self):
        if self.k not in (1, 2):
            raise ConfigurationError("k must be 1 or 2")
        check_range("trace_sigma", self.trace_sigma, 0.0)
        check_range("opnorm_sigma", self.opnorm_sigma, 0.0)
        if self.opnorm_sigma > self.trace_sigma + 1e-12:
            raise ConfigurationError("opnorm_sigma cannot exceed trace_sigma")

    @property
    def effective_rank(self) -> float:
        if self.opnorm_sigma == 0.0:
            return 1.0
        return self.trace_sigma / self.opnorm_sigma


def _draw_clean(spec: DistributionSpec, count: int, rng: np.random.Generator):
    if spec.family == "gaussian":
        # rng.multivariate_normal(zeros, covariance, method="svd") without its
        # per-call SVD and PSD check; adding its zero mean turns -0.0 to 0.0.
        # A diagonal factor scales the rows: every other term of the matmul's
        # dot products is +-0, which leaves a nonzero product as it is.
        z = rng.standard_normal((count, spec.p))
        rows = np.multiply(z, spec.factor, out=z) if spec.factor.ndim == 1 \
            else z @ spec.factor.T
        rows += 0.0
        return rows
    if spec.family == "lognormal":
        return np.exp(rng.standard_normal((count, spec.p))) - LOGNORMAL_SHIFT
    beta = spec.tail_beta
    # numpy's pareto is the Lomax form; +1 gives standard Pareto on [1, inf).
    return (rng.pareto(beta, size=(count, spec.p)) + 1.0) - beta / (beta - 1.0)


def derived_seed(*entropy: int) -> int:
    """A seed derived from the integers ``entropy``: the first 32-bit word of
    ``SeedSequence(entropy)``'s state."""
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def sample_dataset(spec: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. rows from ``spec``, deterministic given ``seed``, as an
    n x p float64 matrix.

    With contamination, each row is independently replaced by a contaminated
    draw with probability ``spec.epsilon`` (a true mixture, not a fixed
    outlier count).
    """
    check_range("n", n, 1, kind=int)
    check_range("seed", seed, 0, kind=int)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    data = _draw_clean(spec, n, rng)
    if spec.epsilon > 0:
        # Indices, not the boolean mask: the same rows, assigned faster.
        rows = (rng.random(n) < spec.epsilon).nonzero()[0]
        if rows.size:
            data[rows] = spec.q_spec.draw(rng, rows.size, spec.p)
    return data


def population_moments(spec: DistributionSpec) -> MomentProfile:
    """Analytic moment summary of the clean component of ``spec``."""
    if spec.family == "gaussian":
        eigvals = np.linalg.eigvalsh(spec.covariance)
        return MomentProfile(
            k=2,
            trace_sigma=float(np.trace(spec.covariance)),
            opnorm_sigma=float(max(eigvals.max(), 0.0)),
        )
    if spec.family == "lognormal":
        return MomentProfile(
            k=2, trace_sigma=spec.p * LOGNORMAL_VAR, opnorm_sigma=LOGNORMAL_VAR
        )
    beta = spec.tail_beta
    if beta <= 2.0:
        raise ConfigurationError("pareto with tail_beta <= 2 has infinite variance")
    var = beta / ((beta - 1.0) ** 2 * (beta - 2.0))
    k = 2 if beta > 4.0 else 1
    return MomentProfile(k=k, trace_sigma=spec.p * var, opnorm_sigma=var)

"""Synthetic benchmark harness: the method table shared with the CLI, seeded
trial sweeps over (method, n, p), quantile-error summaries, and CSV emission.

Per-trial seeds are derived as SeedSequence([master_seed, cell_hash, trial])
where cell_hash is a 64-bit BLAKE2b digest of "family|method|n|p"; results
are therefore reproducible regardless of execution order.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import IO, Callable, Dict, List, Optional, Sequence, get_type_hints

import numpy as np

from . import baselines, filtering, interval, metrics, model, netmax
from .errors import ConfigurationError, EstimatorError


@dataclass(frozen=True)
class MethodSpec:
    """One benchmark method: a name in ``METHODS`` plus settings, which must
    be keys that its runner reads, each with a value of the declared type."""

    name: str
    settings: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in METHODS:
            raise ConfigurationError(f"unknown method {self.name!r}")
        declared = METHODS[self.name].settings
        model.read_object(self.settings, (), declared, f"method {self.name!r}",
                          declared)


@dataclass(frozen=True)
class TrialConfig:
    distribution: model.DistributionSpec
    methods: Sequence[MethodSpec]
    n_values: Sequence[int]
    p_values: Sequence[int]
    delta: float
    trials: int = 2000
    master_seed: int = 0
    specs: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        model.check_range("'delta'", self.delta, 0.0, 1.0, closed=False)
        model.check_range("'trials'", self.trials, 1, kind=int)
        model.check_range("'master_seed'", self.master_seed, 0, kind=int)
        for key in ("n_values", "p_values"):
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigurationError(
                    f"{key!r} must be a nonempty list of int, got {values!r}")
            for value in values:
                model.check_range(f"each of {key!r}", value, 1, kind=int)
            object.__setattr__(self, key, tuple(values))
        methods = tuple(
            m if isinstance(m, MethodSpec) else MethodSpec(
                **model.read_object(m, *model.json_keys(MethodSpec), "a method entry"))
            for m in self.methods
        )
        if not methods:
            raise ConfigurationError("'methods' must name at least one method")
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "specs", {  # refuses an unreachable p here
            p: respec(self.distribution, p) for p in self.p_values})

    @classmethod
    def from_json_dict(cls, doc) -> "TrialConfig":
        """The config of a JSON object whose keys are the field names, and
        whose method entries are objects with the keys of ``MethodSpec``; a
        missing required key or an unknown key is a ``ConfigurationError``."""
        doc = model.read_object(doc, *model.json_keys(cls), "a sweep config")
        return cls(**dict(doc, distribution=model.DistributionSpec.from_json_dict(
            doc["distribution"])))


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One trial of a sweep; its fields are the records file's columns."""

    method: str
    family: str
    n: int
    p: int
    delta: float
    epsilon: float
    trial_index: int
    loss: float  # +inf marks a failed trial

    @property
    def failed(self) -> bool:
        return math.isinf(self.loss)

    def sort_key(self):
        return (self.method, self.family, self.n, self.p, self.trial_index)


# The records file's columns: the fields of ``TrialRecord``, each parsed by
# its declared type, then ``failed``, a 0/1 flag derived from the loss.
_RECORD_TYPES = get_type_hints(TrialRecord)
CSV_FIELDS = (*_RECORD_TYPES, "failed")
# The ``model.check_range`` bounds of what a trial records, the loss aside.
_RECORD_RANGES = {"n": (1,), "p": (1,), "delta": (0.0, 1.0, False),
                  "epsilon": (0.0, 0.5), "trial_index": (0,)}

# The columns of a ``summarize`` row, in the order ``emit_summary_csv``
# writes them.
SUMMARY_FIELDS = ("method", "n", "p", "q_delta", "mean_loss", "failure_rate",
                  "trials")


def cell_hash(family: str, method: str, n: int, p: int) -> int:
    digest = hashlib.blake2b(
        f"{family}|{method}|{n}|{p}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def respec(spec: model.DistributionSpec, p: int) -> model.DistributionSpec:
    """Re-dimension an isotropic spec to dimension p."""
    if p == spec.p:
        return spec
    if spec.q_spec is not None:
        raise ConfigurationError(
            "cannot re-dimension a contaminated spec; sweep a single p"
        )
    if spec.family == "gaussian":
        cov = np.asarray(spec.covariance)
        diag = np.diag(cov)
        if not (np.allclose(cov, np.diag(diag)) and np.allclose(diag, diag[0])):
            raise ConfigurationError(
                "p sweeps require an isotropic gaussian covariance"
            )
        return replace(spec, p=p, covariance=diag[0] * np.eye(p))
    return replace(spec, p=p)


@dataclass(frozen=True)
class RunContext:
    """What a runner reads besides its settings: ``center`` is the oracle's
    centre (zeros when ``None``); ``spec`` is the sampling law, ``None`` for
    data from a file, which leaves no law to derive defaults from."""

    delta: float
    epsilon: float = 0.0
    seed: int = 0
    center: Optional[np.ndarray] = None
    spec: Optional[model.DistributionSpec] = None

    def __post_init__(self):
        model.check_range("delta", self.delta, 0.0, 1.0, closed=False)

    def moments(self, setting: str) -> model.MomentProfile:
        """The clean law's moments, from which ``setting`` is derived."""
        if self.spec is None:
            raise ConfigurationError(f"{setting} is not set and there is no "
                                     "distribution spec to derive it from")
        return self.spec.moments


# name -> runner(samples, settings, ctx) -> estimate; a runner's ``settings``
# map the keys it reads to their types (``int``, ``float`` or the tuple of
# strings a key accepts), and its ``context`` names the ``RunContext`` fields
# besides delta and seed that it reads on data with no spec (deriving a
# setting from the spec reads epsilon too).  Runners look library functions
# up on their modules at call time, so a patched module attribute sees every
# call.
METHODS: Dict[str, Callable] = {}


def _method(name: str, context: Sequence[str] = (), **settings):
    def register(runner):
        runner.settings = settings
        runner.context = context
        METHODS[name] = runner
        return runner
    return register


@_method("mean")
def _mean(samples, s, ctx):
    return baselines.sample_mean(samples)


@_method("gmom", blocks=int)
def _gmom(samples, s, ctx):
    blocks = s.get("blocks")
    if blocks is None:
        blocks = min(filtering.default_steps(ctx.delta), samples.shape[0])
    return baselines.geometric_median_of_means(samples, blocks=blocks)


@_method("coord")
def _coord(samples, s, ctx):
    return baselines.coordinatewise_filter(
        samples, delta=ctx.delta, seed=ctx.seed)


@_method("filter", stop_mode=("threshold", "fixed_steps", "capped"),
         cov_bound=float, steps=int)
def _filter(samples, s, ctx):
    # stop_mode passes on the bound (threshold), the steps (fixed_steps) or both
    # (capped), derived if absent.  Unset: the limits given, or by epsilon if none.
    n, p = samples.shape
    cov_bound, steps = s.get("cov_bound"), s.get("steps")
    stop_mode = s.get("stop_mode")
    if stop_mode is None and cov_bound is None and steps is None:
        stop_mode = "threshold" if ctx.epsilon > 0 else "fixed_steps"
    if stop_mode == "fixed_steps":
        cov_bound = None
    elif stop_mode and cov_bound is None:
        cov_bound = filtering.cov_bound_hint(
            ctx.moments("cov_bound"), n=n, p=p,
            delta=ctx.delta, epsilon=ctx.epsilon)
    if stop_mode == "threshold":
        steps = None
    elif stop_mode and steps is None:
        steps = filtering.clamp_steps(filtering.default_steps(ctx.delta), n)
    cfg = filtering.FilterConfig(cov_bound=cov_bound, steps=steps, seed=ctx.seed)
    return filtering.filter_multivariate(samples, cfg).estimate


@_method("oracle", radius=float, context=("center",))
def _oracle(samples, s, ctx):
    radius = s.get("radius")
    if radius is None:
        radius = baselines.oracle_radius(
            ctx.moments("radius"), n=samples.shape[0], delta=ctx.delta,
            epsilon=ctx.epsilon)
    center = np.zeros(samples.shape[1]) if ctx.center is None else ctx.center
    return baselines.oracle_truncated_mean(samples, center, radius)


@_method("interval", context=("epsilon",))
def _interval(samples, s, ctx):
    cfg = interval.IntervalConfig(epsilon=ctx.epsilon, delta=ctx.delta)
    return np.array([interval.interval_estimate(samples, cfg)])


@_method("net", inner=netmax.INNER_ESTIMATORS, sparsity=int,
         context=("epsilon",))
def _net(samples, s, ctx):
    cfg = netmax.NetConfig(epsilon=ctx.epsilon, delta=ctx.delta,
                           inner=s.get("inner", "interval1d"),
                           sparsity=s.get("sparsity"))
    return netmax.net_estimate(samples, cfg, seed=ctx.seed).estimate


@_method("srm", context=("epsilon",))
def _srm(samples, s, ctx):
    return baselines.srm_bruteforce(samples, epsilon=ctx.epsilon)


METHOD_NAMES = tuple(METHODS)


def run_trial(
    config: TrialConfig, method: MethodSpec, n: int, p: int, trial_index: int
) -> TrialRecord:
    spec = config.specs[p]
    cell = cell_hash(spec.family, method.name, n, p)
    seed = model.derived_seed(config.master_seed, cell, trial_index)
    samples = model.sample_dataset(spec, n, seed)
    truth = np.zeros(p)  # synthetic families are centered; truth is the
    # clean-component mean under contamination as well
    ctx = RunContext(delta=config.delta, epsilon=spec.epsilon, seed=seed,
                     center=truth, spec=spec)
    try:
        estimate = METHODS[method.name](samples, method.settings, ctx)
        loss = metrics.l2_loss(estimate, truth)
    except EstimatorError:
        loss = math.inf
    return TrialRecord(
        method=method.name,
        family=spec.family,
        n=n,
        p=p,
        delta=config.delta,
        epsilon=spec.epsilon,
        trial_index=trial_index,
        loss=loss,
    )


def run_sweep(config: TrialConfig) -> List[TrialRecord]:
    """Execute every (method, n, p, trial) cell; deterministic given
    master_seed regardless of execution order."""
    records = [
        run_trial(config, method, n, p, t)
        for method in config.methods
        for n in config.n_values
        for p in config.p_values
        for t in range(config.trials)
    ]
    records.sort(key=TrialRecord.sort_key)
    return records


def summarize(records: Sequence[TrialRecord], delta: float):
    """Group records by (method, n, p) and report the delta-quantile error of
    successful trials, the mean loss, and the failure rate, as one dict per
    group with the keys ``SUMMARY_FIELDS``."""
    model.check_range("delta", delta, 0.0, 1.0, closed=False)
    model.check_range("number of records", len(records), 1, kind=int)
    groups: Dict[tuple, List[TrialRecord]] = {}
    for rec in records:
        groups.setdefault((rec.method, rec.n, rec.p), []).append(rec)
    rows = []
    for (method, n, p), recs in sorted(groups.items()):
        losses = [r.loss for r in recs if not r.failed]
        rows.append(dict(zip(SUMMARY_FIELDS, (
            method, n, p,
            metrics.quantile_error(losses, delta) if losses else math.inf,
            float(np.mean(losses)) if losses else math.inf,
            (len(recs) - len(losses)) / len(recs),
            len(recs)))))
    return rows


def _write_rows(fh, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``fh`` as CSV, floats to 17
    significant digits."""
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                     for row in rows)


def emit_csv(records: Sequence[TrialRecord], path) -> None:
    """Write one record per line, its fields in ``CSV_FIELDS`` order; a
    failed trial has an empty loss and failed=1."""
    with open(path, "w", newline="") as fh:
        _write_rows(fh, CSV_FIELDS, (
            ["" if name == "loss" and rec.failed else getattr(rec, name)
             for name in _RECORD_TYPES] + [int(rec.failed)]
            for rec in records))


def read_csv(path) -> List[TrialRecord]:
    """The records of a file in the form ``emit_csv`` writes, each cell
    parsed by its field's type.  A header without a required column of
    ``CSV_FIELDS``, with another column or with one twice, a row of another
    length, a cell of another type, range or name than a trial's, or a line
    without failed=0 and a loss in [0, inf) or failed=1 and no loss is a
    ``ConfigurationError`` naming the line."""
    required, optional = model.json_keys(TrialRecord)
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(set(header)) < len(header):
            raise ConfigurationError(f"{path} line 1 repeats a column: {header}")
        model.read_object(dict.fromkeys(header), (*required, "failed"),
                          optional, f"{path} line 1")
        for line in filter(None, reader):  # blank lines carry no record
            try:
                if len(line) != len(header):
                    raise ValueError(
                        f"{len(line)} cells, but the header has {len(header)}")
                row = dict(zip(header, line))
                failed, loss = row.pop("failed"), row["loss"]
                row["loss"] = loss or "inf"
                record = TrialRecord(**{key: _RECORD_TYPES[key](cell)
                                        for key, cell in row.items()})
                if not (0 <= record.loss < math.inf if failed == "0"
                        else failed == "1" and not loss):
                    raise ValueError(
                        f"failed={failed!r} beside loss={loss!r}; a record has "
                        "failed=0 and a loss in [0, inf), or failed=1 and no loss")
                for key, bounds in _RECORD_RANGES.items():
                    model.check_range(key, getattr(record, key), *bounds)
                model.check_type("method", record.method, METHOD_NAMES)
                model.check_type("family", record.family, model.FAMILIES)
            except (ValueError, ConfigurationError) as exc:
                raise ConfigurationError(
                    f"{path} line {reader.line_num}: {exc}") from None
            records.append(record)
    return records


def emit_summary_csv(rows, fh: IO[str]) -> None:
    """Write ``summarize`` rows to the open text file ``fh`` (opened with
    ``newline=""``), values to 17 significant digits."""
    _write_rows(fh, SUMMARY_FIELDS,
                ([row[key] for key in SUMMARY_FIELDS] for row in rows))

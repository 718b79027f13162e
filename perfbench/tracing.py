"""Span tracing of the library's layers, installed from outside the package.

Every wrapped function is patched in each namespace that binds it (modules
that did ``from .filtering import top_eigenpair`` hold their own name), and
all patches are undone by ``Tracer.restore``.  Spans stay in memory until
``write_spans``.  Checks that need a call's inputs and outputs keep
references and run after the traced loop, so they add no time to any span.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function) pairs whose calls become spans, named "module.function".
LAYER_FUNCTIONS = (
    ("bench", "run_trial"),
    ("bench", "summarize"),
    ("model", "sample_dataset"),
    ("metrics", "l2_loss"),
    ("filtering", "top_eigenpair"),
    ("filtering", "filter_multivariate"),
    ("filtering", "filter_univariate"),
    ("interval", "interval_estimate"),
    ("netmax", "build_half_cover"),
    ("netmax", "net_estimate"),
    ("netmax", "minimax_center"),
    ("baselines", "sample_mean"),
    ("baselines", "geometric_median_of_means"),
    ("baselines", "geometric_median"),
    ("baselines", "coordinatewise_filter"),
    ("baselines", "oracle_truncated_mean"),
    ("baselines", "srm_bruteforce"),
)
LAYERS = ("model", "filtering", "interval", "netmax", "baselines", "metrics",
          "bench")

# filter_univariate is a thin reshape around filter_multivariate; its inner
# call is accounted to the univariate span so that filter_multivariate's
# counts describe only the multivariate filter.
PASSTHROUGH_UNDER = {"filtering.filter_multivariate": "filtering.filter_univariate"}

PER_TRIAL = "1/trial"
MS_PER_TRIAL = "ms/trial"

# name -> unit of every per-layer metric the traced run reports.
PER_LAYER_METRICS = {
    "filtering.top_eigenpair.calls": PER_TRIAL,
    "filtering.top_eigenpair.trivial_calls": PER_TRIAL,
    "filtering.top_eigenpair.self_ms": MS_PER_TRIAL,
    "filtering.filter_multivariate.calls": PER_TRIAL,
    "filtering.filter_multivariate.self_ms": MS_PER_TRIAL,
    "filtering.rounds": PER_TRIAL,
    "filtering.removal_precision": "ratio",
    "filtering.filter_univariate.calls": PER_TRIAL,
    "filtering.filter_univariate.self_ms": MS_PER_TRIAL,
    "filtering.errors": "count",
    "netmax.build_half_cover.calls": PER_TRIAL,
    "netmax.build_half_cover.self_ms": MS_PER_TRIAL,
    "netmax.cover_size": "count",
    "netmax.net_estimate.self_ms": MS_PER_TRIAL,
    "netmax.minimax_center.calls": PER_TRIAL,
    "netmax.minimax_center.self_ms": MS_PER_TRIAL,
    "netmax.errors": "count",
    "interval.interval_estimate.calls": PER_TRIAL,
    "interval.interval_estimate.self_ms": MS_PER_TRIAL,
    "interval.errors": "count",
    "baselines.srm_bruteforce.calls": PER_TRIAL,
    "baselines.srm_bruteforce.self_ms": MS_PER_TRIAL,
    "baselines.srm_subsets": PER_TRIAL,
    "baselines.geometric_median.calls": PER_TRIAL,
    "baselines.geometric_median.self_ms": MS_PER_TRIAL,
    "baselines.geometric_median_of_means.self_ms": MS_PER_TRIAL,
    "baselines.coordinatewise_filter.self_ms": MS_PER_TRIAL,
    "baselines.oracle_truncated_mean.self_ms": MS_PER_TRIAL,
    "baselines.sample_mean.self_ms": MS_PER_TRIAL,
    "baselines.errors": "count",
    "model.sample_dataset.calls": PER_TRIAL,
    "model.sample_dataset.self_ms": MS_PER_TRIAL,
    "model.errors": "count",
    "bench.run_trial.calls": PER_TRIAL,
    "bench.run_trial.self_ms": MS_PER_TRIAL,
    "bench.summarize.self_ms": MS_PER_TRIAL,
    "bench.errors": "count",
    "metrics.l2_loss.self_ms": MS_PER_TRIAL,
    "metrics.errors": "count",
    "trace.trial_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Counts that must repeat exactly when a trial is replayed with its seed.
REPEATED_COUNTS = (
    "filtering.top_eigenpair",
    "filtering.filter_multivariate",
    "filtering.filter_univariate",
    "interval.interval_estimate",
    "netmax.build_half_cover",
    "netmax.minimax_center",
    "baselines.srm_bruteforce",
    "baselines.geometric_median",
    "model.sample_dataset",
)


class Span:
    __slots__ = ("name", "trial", "parent", "start", "end", "child", "error",
                 "attrs")

    def __init__(self, name, trial, parent):
        self.name = name
        self.trial = trial
        self.parent = parent  # index into Tracer.spans, or None
        self.start = self.end = 0.0
        self.child = 0.0  # summed duration of direct children
        self.error = None
        self.attrs = None

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Records one span per wrapped call; one caller, so no waiting time."""

    def __init__(self, program):
        self.program = program
        self.spans = []
        self.trial = None
        self._stack = []  # indices of open spans
        self._patches = []  # (namespace, attribute, original)
        self.filter_calls = []  # (span index, data, report)
        self.lp_calls = []  # (directions, targets, theta, t) of each LP solve

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        namespaces = [self.program.package] + [
            getattr(self.program, name) for name in LAYERS
        ]
        for module_name, func_name in LAYER_FUNCTIONS:
            original = getattr(getattr(self.program, module_name), func_name)
            wrapped = self._wrap(f"{module_name}.{func_name}", original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patches.append((namespace, attr, original))
                        setattr(namespace, attr, wrapped)
        self._observe_lp()

    def _observe_lp(self) -> None:
        """Keep each minimax LP's inputs and returned ``(theta, t)``; no span,
        so minimax_center's self time still includes its LP solves."""
        netmax = self.program.netmax
        solve = netmax._minimax_lp
        calls = self.lp_calls

        def observed(directions, targets):
            theta, t = solve(directions, targets)
            calls.append((directions, targets, theta, t))
            return theta, t

        self._patches.append((netmax, "_minimax_lp", solve))
        netmax._minimax_lp = observed

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        passthrough = PASSTHROUGH_UNDER.get(name)
        observe = getattr(self, "_observe_" + name.split(".")[1], None)
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else None
            if passthrough and parent is not None and \
                    spans[parent].name == passthrough:
                return fn(*args, **kwargs)
            span = Span(name, self.trial, parent)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    spans[parent].child += span.end - span.start
            if observe is not None:
                observe(index, args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    # -- per-call observations (O(1) here; array checks are deferred) --------

    def _observe_filter_multivariate(self, index, args, kwargs, report):
        samples = args[0] if args else kwargs["samples"]
        self.spans[index].attrs = {"rounds": len(report.removed_indices)}
        self.filter_calls.append((index, samples, report))

    def _observe_top_eigenpair(self, index, args, kwargs, result):
        matrix = args[0] if args else kwargs["matrix"]
        if np.shape(matrix)[0] == 1:  # p == 1 shortcut: no power iteration
            self.spans[index].attrs = {"eigen_trivial": 1}

    def _observe_build_half_cover(self, index, args, kwargs, cover):
        self.spans[index].attrs = {"cover_size": cover.size}

    def _observe_srm_bruteforce(self, index, args, kwargs, result):
        samples = args[0] if args else kwargs["samples"]
        epsilon = args[1] if len(args) > 1 else kwargs["epsilon"]
        n = np.shape(getattr(samples, "data", samples))[0]
        self.spans[index].attrs = {
            "srm_subsets": math.comb(n, math.floor((1.0 - epsilon) * n))}

    # -- results ------------------------------------------------------------

    def counts(self, trial) -> dict:
        """Count signature of one trial id, compared across a replay."""
        out = Counter()
        for span in self.spans:
            if span.trial != trial:
                continue
            if span.name in REPEATED_COUNTS:
                out[span.name + ".calls"] += 1
            for key, value in (span.attrs or {}).items():
                out[key] += value
        return dict(out)

    def failure_classes(self, trials) -> dict:
        """Exception classes that turned a run_trial call into loss=inf: the
        errors of spans whose parent is a run_trial span."""
        out = Counter()
        for span in self.spans:
            if span.trial in trials and span.error and span.parent is not None \
                    and self.spans[span.parent].name == "bench.run_trial":
                out[span.error] += 1
        return dict(out)

    def layer_metrics(self, trials, trial_seconds, point_mass) -> dict:
        """Per-layer metrics over the spans of ``trials`` (a set of trial ids),
        normalised per trial where the unit says so."""
        count = len(trial_seconds)
        calls = Counter()
        self_s = defaultdict(float)
        errors = Counter()
        attrs = Counter()
        selected = set()
        for index, span in enumerate(self.spans):
            if span.trial not in trials:
                continue
            selected.add(index)
            calls[span.name] += 1
            self_s[span.name] += span.self_seconds
            if span.error:
                errors[span.name.split(".")[0]] += 1
            for key, value in (span.attrs or {}).items():
                attrs[key] += value

        hits = rounds = 0
        if point_mass is not None:
            for index, samples, report in self.filter_calls:
                if index in selected and report.removed_indices:
                    data = np.asarray(getattr(samples, "data", samples))
                    removed = data[list(report.removed_indices)]
                    hits += int(np.all(removed == point_mass, axis=1).sum())
                    rounds += len(report.removed_indices)

        metrics = {}
        for name, unit in PER_LAYER_METRICS.items():
            base, _, field = name.rpartition(".")
            if field == "calls":
                value = calls[base] / count
            elif field == "self_ms":
                value = 1000.0 * self_s[base] / count
            elif field == "errors":
                value = errors[base]
            else:
                continue
            metrics[name] = value
        trivial = attrs["eigen_trivial"]
        metrics["filtering.top_eigenpair.calls"] -= trivial / count
        metrics["filtering.top_eigenpair.trivial_calls"] = trivial / count
        metrics["filtering.rounds"] = attrs["rounds"] / count
        metrics["filtering.removal_precision"] = hits / rounds if rounds else 0.0
        builds = calls["netmax.build_half_cover"]
        metrics["netmax.cover_size"] = attrs["cover_size"] / builds if builds else 0
        metrics["baselines.srm_subsets"] = attrs["srm_subsets"] / count
        metrics["trace.trial_ms"] = 1000.0 * sum(trial_seconds) / count
        return metrics

    def check_calls(self) -> list:
        """Deferred output checks; returns a list of failure messages."""
        failures = []
        for index, samples, report in self.filter_calls:
            data = np.asarray(getattr(samples, "data", samples), dtype=float)
            if data.ndim == 1:
                data = data[:, None]
            survivors = np.delete(data, list(report.removed_indices), axis=0)
            if not np.allclose(report.estimate, survivors.mean(axis=0),
                               rtol=1e-12, atol=1e-12):
                failures.append(
                    f"filter estimate is not its survivors' mean (span {index})")
        objective = self.program.netmax.minimax_objective
        for call, (directions, targets, theta, t) in enumerate(self.lp_calls):
            recomputed = objective(directions, targets, theta)
            at_origin = objective(directions, targets,
                                  np.zeros(directions.shape[1]))
            # HiGHS meets its constraints to a feasibility tolerance of 1e-7.
            if not math.isclose(t, recomputed, rel_tol=1e-6, abs_tol=1e-7):
                failures.append(
                    f"minimax LP objective t={t!r} != recomputed "
                    f"{recomputed!r} (LP call {call})")
            if recomputed > at_origin * (1 + 1e-9):
                failures.append(
                    f"minimax LP center worse than the origin (LP call {call})")
        return failures

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "trial": span.trial,
                    "parent": span.parent, "start": span.start,
                    "end": span.end, "error": span.error,
                }) + "\n")

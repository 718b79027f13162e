"""The benchmark's workloads: each builds its ``bench.TrialConfig`` list from a
seed, and is validated before anything is timed.

A workload runs every (config, method, n, p) cell once per trial index, in
``run_sweep``'s serial order.  Trial seeds are derived per cell from the
master seed, so a trial's inputs depend only on (seed, cell, trial index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

DELTA = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    # q_delta.<method> is taken over trial indices [0, accuracy_trials), so it
    # is deterministic per seed; the timed loop never stops before them.
    accuracy_trials: int
    # The traced run covers trial indices [0, trace_trials), so its count
    # metrics repeat exactly for a given seed.
    trace_trials: int
    build: Callable  # (program, seed) -> list of TrialConfig


def _spec(program, family, p, epsilon=0.0, location=None):
    model = program.model
    kwargs = {}
    if family == "gaussian":
        kwargs["covariance"] = np.eye(p)
    if epsilon:
        kwargs["epsilon"] = epsilon
        kwargs["q_spec"] = model.ContaminationSpec("point_mass", location=location)
    return model.DistributionSpec(family, p=p, **kwargs)


def _config(program, spec, methods, n, seed):
    bench = program.bench
    return bench.TrialConfig(
        distribution=spec,
        methods=[bench.MethodSpec(name, settings) for name, settings in methods],
        n_values=[n],
        p_values=[spec.p],
        delta=DELTA,
        master_seed=seed,
    )


THRESHOLD = {"stop_mode": "threshold"}


def _heavy_tail_p20(program, seed):
    spec = _spec(program, "lognormal", 20)
    methods = [("filter", {}), ("coord", {}), ("gmom", {}), ("oracle", {}),
               ("mean", {})]
    return [_config(program, spec, methods, 500, seed)]


def _contaminated_p20(program, seed):
    location = np.zeros(20)
    location[0] = 50.0
    spec = _spec(program, "gaussian", 20, epsilon=0.1, location=location)
    methods = [("filter", THRESHOLD), ("coord", {}), ("gmom", {}),
               ("oracle", {}), ("mean", {})]
    return [_config(program, spec, methods, 2000, seed)]


def _net_p3(program, seed):
    spec = _spec(program, "lognormal", 3)
    return [_config(program, spec, [("net", {"inner": "interval1d"})], 400, seed)]


def _subset_search_1d(program, seed):
    spec = _spec(program, "gaussian", 1, epsilon=0.2, location=[5.0])
    methods = [("interval", {}), ("filter", THRESHOLD), ("gmom", {}),
               ("mean", {})]
    return [_config(program, spec, [("srm", {})], 25, seed),
            _config(program, spec, methods, 4000, seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "heavy-tail-p20",
            accuracy_trials=100, trace_trials=150, build=_heavy_tail_p20),
        Workload(
            "contaminated-p20",
            accuracy_trials=40, trace_trials=40, build=_contaminated_p20),
        Workload(
            "net-p3",
            accuracy_trials=10, trace_trials=5, build=_net_p3),
        Workload(
            "subset-search-1d",
            accuracy_trials=10, trace_trials=5, build=_subset_search_1d),
    )
}


def cells(configs) -> List[Tuple]:
    """Every (config, method, n, p) of a trial, in ``run_sweep``'s order."""
    return [
        (config, method, n, p)
        for config in configs
        for method in config.methods
        for n in config.n_values
        for p in config.p_values
    ]


def validate(program, configs) -> None:
    """Reject cells that ``run_trial`` would abort on mid-loop.

    ``run_trial`` catches only ``EstimatorError``; a ``ConfigurationError``
    from an infeasible interval cell or an oversized subset search would end
    the timed loop, so both are checked up front.
    """
    interval, netmax = program.interval, program.netmax
    for config, method, n, p in cells(configs):
        eps = config.distribution.epsilon
        if method.name == "srm" and n > program.baselines.SRM_MAX_N:
            raise program.errors.ConfigurationError(
                f"srm cell n={n} exceeds SRM_MAX_N={program.baselines.SRM_MAX_N}")
        if method.name == "interval":
            if n % 2:
                raise program.errors.ConfigurationError(
                    f"interval cell needs an even n, got {n}")
            interval.check_precondition(
                n // 2, interval.IntervalConfig(epsilon=eps, delta=config.delta))
        if method.name == "net" and method.settings.get("inner") == "interval1d":
            lid = netmax.NetConfig(
                epsilon=eps, delta=config.delta,
                sparsity=method.settings.get("sparsity"),
            ).log_inv_delta_inner(p)
            interval.check_precondition(
                n // 2, interval.IntervalConfig(epsilon=eps, log_inv_delta=lid))

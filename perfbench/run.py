"""Trial-sweep benchmark of robustmean.

Usage, from the repository root:

    python3 perfbench/run.py --workload heavy-tail-p20 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 24

A single-process closed loop with one caller: each trial index runs every
(method, n, p) cell of the workload once through ``bench.run_trial``.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it adds a
traced pass over a fixed number of trials and reports per-layer metrics.
Trial and set-up times are scaled to a reference machine speed measured in
the same run (see ``speed.py``); the unscaled wall times are printed too.  The
last stdout line is the result object; the line before it holds provenance,
the accuracy figures and the check results.  The exit code is 0 only when
every output check passes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = 1
# BLAS threads are pinned before numpy loads: p <= 20 matrices gain nothing
# from threads, and a fixed count keeps runs comparable across machines.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("ROBUSTMEAN_THREADS", None)

import speed  # noqa: E402  (numpy loads only after the pinning above)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up is repeated at least SETUP_MIN_REPEATS times and until the set-ups
# have taken SETUP_BUDGET_S; setup_s is the median.
SETUP_MIN_REPEATS = 5
SETUP_BUDGET_S = 3.0
# Seconds of trials between two runs of the calibration kernel.
KERNEL_INTERVAL_S = 0.4
# The warm-up trial of each set-up runs on the same input whatever --seed
# is, so that setup_s measures the same work in every run.
WARMUP_SEED = 0
MIN_TAIL_BEYOND = 10
# The tail percentile is capped at TAIL_CAP: higher percentiles of a few
# hundred trials move with the seed's rarest inputs, not with the program.
TAIL_CAP = 90
RATE_BLOCKS = 5
QDELTA_REL_TOL = 1e-9

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here: no program to import, or an invalid
    workload."""


def load_program():
    """Import robustmean from this checkout's ``src`` (never an installed copy)."""
    if not (SRC / "robustmean" / "__init__.py").is_file():
        raise BenchmarkError(f"no robustmean package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "robustmean"]:
        del sys.modules[name]
    package = importlib.import_module("robustmean")
    if Path(package.__file__).resolve().parent != SRC / "robustmean":
        raise BenchmarkError(f"robustmean imported from {package.__file__}")
    names = ("bench", "model", "filtering", "interval", "netmax", "baselines",
             "metrics", "errors")
    return SimpleNamespace(
        package=package,
        **{n: importlib.import_module(f"robustmean.{n}") for n in names})


def set_up(workload, seed):
    """One set-up: import, build and validate the configs, warm each cell."""
    program = load_program()
    configs = workload.build(program, seed)
    try:
        workloads.validate(program, configs)
    except program.errors.ConfigurationError as exc:
        raise BenchmarkError(f"invalid workload {workload.name}: {exc}") from exc
    for config, method, n, p in workloads.cells(
            workload.build(program, WARMUP_SEED)):
        program.bench.run_trial(config, method, n, p, 0)
    return program, configs, workloads.cells(configs)


def set_ups(workload, seed):
    """Repeated set-ups; returns the last one's program, configs and cells,
    and the raw and speed-scaled seconds of each set-up."""
    meter = speed.Speedometer(interval=0.0)
    meter.measure()
    raw = []
    while len(raw) < SETUP_MIN_REPEATS or sum(raw) < SETUP_BUDGET_S:
        t0 = time.perf_counter()
        program, configs, cells = set_up(workload, seed)
        raw.append(time.perf_counter() - t0)
        meter.add(raw[-1])
    return program, configs, cells, raw, meter.scaled()


def trial_loop(program, cells, keep_going, records, tracer=None):
    """Run trial indices 0, 1, ... while ``keep_going(trials_done, elapsed)``,
    with the calibration kernel between trials.  Returns the raw and the
    speed-scaled seconds of each trial."""
    clock = time.perf_counter
    meter = speed.Speedometer(interval=KERNEL_INTERVAL_S)
    meter.measure()
    durations = []
    start = clock()
    t = 0
    while keep_going(t, clock() - start):
        if tracer is not None:
            tracer.trial = t
        t0 = clock()
        for config, method, n, p in cells:
            records.append(program.bench.run_trial(config, method, n, p, t))
        durations.append(clock() - t0)
        if tracer is not None:
            tracer.trial = None
        meter.add(durations[-1])
        t += 1
    meter.finish()
    return durations, meter.scaled()


def tail(durations):
    """Highest percentile with at least 10 samples beyond it, but never above
    TAIL_CAP nor below the upper median.  Returns (value, percentile,
    samples)."""
    ordered = sorted(durations)
    count = len(ordered)
    rank = max(min(count - MIN_TAIL_BEYOND, count * TAIL_CAP // 100),
               count // 2 + 1)
    return ordered[rank - 1], math.floor(100 * rank / count), count


def block_rate(durations):
    """Trials per second as the median over RATE_BLOCKS consecutive blocks of
    the loop: one block slowed by a busy machine does not move it."""
    blocks = min(RATE_BLOCKS, len(durations))
    size, extra = divmod(len(durations), blocks)
    rates, start = [], 0
    for b in range(blocks):
        stop = start + size + (b < extra)
        rates.append((stop - start) / sum(durations[start:stop]))
        start = stop
    return statistics.median(rates)


def q_delta_by_method(program, records, accuracy_trials):
    rows = program.bench.summarize(
        [r for r in records if r.trial_index < accuracy_trials], workloads.DELTA)
    return {row["method"]: row["q_delta"] for row in rows}


def provenance(seed):
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "ROBUSTMEAN_THREADS": "unset",
        "machine": platform.machine(),
    }


def check_records(records, failures):
    nan = sum(1 for r in records if math.isnan(r.loss))
    if nan:
        failures.append(f"{nan} trial losses are NaN")


def check_q_delta(workload, seed, q_delta, failures):
    with open(HERE / "reference.json") as fh:
        recorded = json.load(fh)["q_delta"].get(workload.name, {}).get(str(seed))
    if recorded is None:
        return f"unchecked: seed {seed} is not recorded in reference.json"
    mismatches = [
        f"q_delta.{m} = {q_delta.get(m)!r}, recorded {recorded.get(m)!r}"
        for m in sorted(set(q_delta) | set(recorded))
        if m not in q_delta or m not in recorded
        or not math.isclose(q_delta[m], recorded[m], rel_tol=QDELTA_REL_TOL)
    ]
    failures.extend(mismatches)
    return "mismatch" if mismatches else "matched"


def run_workload(workload, seed, seconds, traced):
    import numpy  # noqa: F401  dependency import stays out of set-up time
    import scipy.optimize  # noqa: F401

    program, configs, cells, raw_setups, setups = set_ups(workload, seed)

    failures = []
    records = []
    if traced:
        def keep_going(t, elapsed):
            return t < 1 or elapsed < seconds / 2
    else:
        def keep_going(t, elapsed):
            return t < workload.accuracy_trials or elapsed < seconds
    raw, durations = trial_loop(program, cells, keep_going, records)
    check_records(records, failures)
    detail = {"workload": workload.name, "provenance": provenance(seed),
              "trials": len(durations), "calls": len(records),
              "setups": len(setups)}
    failed = sum(1 for r in records if r.failed)
    attempted = len(records)

    if not traced:
        value, percentile, samples = tail(durations)
        q_delta = q_delta_by_method(program, records, workload.accuracy_trials)
        detail["q_delta_check"] = check_q_delta(workload, seed, q_delta, failures)
        detail["q_delta"] = {f"q_delta.{m}": q_delta[m]
                             for m in program.bench.METHOD_NAMES if m in q_delta}
        detail["q_delta_trials"] = workload.accuracy_trials
        detail["trial_ms_tail_percentile"] = percentile
        detail["trial_ms_samples"] = samples
        detail["failure_rate"] = failed / attempted
        # Unscaled wall times of the same run, for reference only.
        detail["wall"] = {
            "trials_per_s": block_rate(raw),
            "trial_ms_p50": 1000.0 * statistics.median(raw),
            "trial_ms_tail": 1000.0 * tail(raw)[0],
            "setup_s": statistics.median(raw_setups),
        }
        metrics = {
            "trials_per_s": block_rate(durations),
            "trial_ms_p50": 1000.0 * statistics.median(durations),
            "trial_ms_tail": 1000.0 * value,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        metrics, trace_detail, traced_records = run_traced(
            program, workload, cells, configs,
            len(durations) / sum(durations), failures)
        units = tracing.PER_LAYER_METRICS
        detail.update(trace_detail)
        failed += sum(1 for r in traced_records if r.failed)
        attempted += len(traced_records)

    detail["checks"] = failures or (
        "passed" if traced or detail["q_delta_check"] == "matched"
        else "passed, except q_delta: " + detail["q_delta_check"])
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return detail, result


def run_traced(program, workload, cells, configs, untraced_trials_per_s,
               failures):
    tracer = tracing.Tracer(program)
    records = []
    tracer.install()
    try:
        raw, durations = trial_loop(program, cells,
                                    lambda t, _: t < workload.trace_trials,
                                    records, tracer)
        tracer.trial = "summary"
        program.bench.summarize(records, workloads.DELTA)
        tracer.trial = "replay"
        replay = [program.bench.run_trial(config, method, n, p, 0)
                  for config, method, n, p in cells]
    finally:
        tracer.restore()
        tracer.trial = None

    check_records(records + replay, failures)
    if tracer.counts(0) != tracer.counts("replay"):
        failures.append(f"trial 0 counts {tracer.counts(0)} != replay "
                        f"{tracer.counts('replay')}")
    if [r.loss for r in records[:len(cells)]] != [r.loss for r in replay]:
        failures.append("trial 0 losses differ on replay")
    found = tracer.check_calls()
    failures.extend(found[:5])
    if len(found) > 5:
        failures.append(f"... and {len(found) - 5} more failed call checks")

    q_spec = configs[0].distribution.q_spec
    point_mass = q_spec.location if q_spec is not None and \
        q_spec.kind == "point_mass" else None
    measured = set(range(workload.trace_trials)) | {"summary"}
    metrics = tracer.layer_metrics(measured, raw, point_mass)
    metrics["trace.overhead_ratio"] = (
        len(durations) / sum(durations)) / untraced_trials_per_s

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}.jsonl"
    tracer.write_spans(spans_path)
    trial_ms = metrics["trace.trial_ms"]
    shares = {
        name[: -len(".self_ms")]: round(value / trial_ms, 4)
        for name, value in metrics.items()
        if name.endswith(".self_ms") and value > 0
    }
    detail = {
        "traced_trials": len(durations),
        "self_time_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "failure_classes": tracer.failure_classes(measured),
        "waiting_ms": 0.0,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail, records + replay


def run_all(args):
    """Run every workload in its own process and print the 14 end-to-end
    figures of each: the five timed metrics, failure_rate and q_delta.*."""
    everything, ok, attempted, failed = {}, True, 0, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            raise BenchmarkError(f"workload {name} exited {proc.returncode}")
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        rows = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        if not args.trace:
            rows["failure_rate"] = (detail["failure_rate"], "ratio")
            rows.update({k: (v, "loss") for k, v in detail["q_delta"].items()})
        print(f"== {name}  checks: {detail['checks']}")
        for key, (value, unit) in rows.items():
            print(f"  {key:45s} {value:14.6g} {unit}")
            everything[f"{name}/{key}"] = {"value": value, "unit": unit}
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": everything}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        if args.workload == "all":
            return run_all(args)
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)} or all")
        detail, result = run_workload(workloads.WORKLOADS[args.workload],
                                      args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

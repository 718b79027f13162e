"""Command-line interface.

Subcommands::

    robustmean bench run --config sweep.json --out records.csv
    robustmean bench summarize --in records.csv --delta 0.05 [--out summary.csv]
    robustmean estimate --method filter --in data.csv [flags]
    robustmean cover build --p 3 [--sparsity 1] --out cover.csv

``estimate`` runs the benchmark's own runner, ``bench.METHODS[method]``, on
the rows of a CSV file.  ``--delta``, ``--epsilon`` (0 when absent),
``--seed`` and ``--true-mean`` (the oracle's centre) form its
``bench.RunContext``.  Every other flag is the method setting of the same
name, generated from the table: ``--cov-bound`` from ``cov_bound``, with
the type or the choices that the table declares.  A setting flag or a
context flag (``--epsilon``, ``--true-mean``) is passed on only when given,
so the method's defaults apply, and giving one the method does not read
(``--blocks`` or ``--epsilon`` with ``--method filter``) is a configuration
error.  File data has no distribution spec, so ``--stop-mode threshold``
or ``capped`` needs ``--cov-bound`` and the oracle needs ``--radius``.

Exit codes: 0 success, 2 configuration error, 3 estimator failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench, model, netmax
from .errors import ConfigurationError, EstimatorError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ESTIMATOR = 3

# RunContext field -> the flag that sets it, for the fields a runner declares.
_CONTEXT_FLAGS = {"epsilon": "--epsilon", "center": "--true-mean"}


def _settings() -> dict:
    """Method setting -> (its type, the methods that read it), from
    ``bench.METHODS``; each setting is the ``estimate`` flag of that name."""
    table: dict = {}
    for name, runner in bench.METHODS.items():
        for key, kind in runner.settings.items():
            table.setdefault(key, (kind, []))[1].append(name)
    return table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustmean", description="Robust mean estimation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="benchmark sweeps")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_run = bench_sub.add_parser("run", help="execute a sweep from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(run=_cmd_bench_run)

    p_sum = bench_sub.add_parser("summarize", help="quantile-error summary")
    p_sum.add_argument("--in", dest="infile", required=True)
    p_sum.add_argument("--delta", type=float, required=True)
    p_sum.add_argument("--out", default=None, help="summary CSV (default stdout)")
    p_sum.set_defaults(run=_cmd_bench_summarize)

    p_est = sub.add_parser("estimate", help="estimate the mean of a CSV dataset")
    p_est.add_argument("--method", required=True, choices=bench.METHOD_NAMES)
    p_est.add_argument("--in", dest="infile", required=True,
                       help="CSV with one observation per row")
    p_est.add_argument("--epsilon", type=float, default=None)
    p_est.add_argument("--delta", type=float, default=0.05)
    p_est.add_argument("--seed", type=int, default=0)
    for key, (kind, readers) in _settings().items():
        typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        p_est.add_argument("--" + key.replace("_", "-"), default=None,
                           help=f"read by {', '.join(readers)}", **typed)
    p_est.add_argument("--true-mean", default=None,
                       help="comma-separated oracle center (default zeros)")
    p_est.set_defaults(run=_cmd_estimate)

    p_cover = sub.add_parser("cover", help="sphere cover utilities")
    cover_sub = p_cover.add_subparsers(dest="cover_command", required=True)
    p_build = cover_sub.add_parser("build", help="build and certify a half-cover")
    p_build.add_argument("--p", type=int, required=True)
    p_build.add_argument("--sparsity", type=int, default=None)
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(run=_cmd_cover_build)
    return parser


def _cmd_estimate(args) -> int:
    samples = model.as_finite_matrix(
        np.loadtxt(args.infile, delimiter=",", ndmin=2))
    spec = bench.MethodSpec(args.method, {
        key: getattr(args, key) for key in _settings()
        if getattr(args, key) is not None
    })
    runner = bench.METHODS[spec.name]
    context = {}
    if args.epsilon is not None:
        context["epsilon"] = args.epsilon
    if args.true_mean is not None:
        context["center"] = np.array([float(x) for x in args.true_mean.split(",")])
    unread = [_CONTEXT_FLAGS[key] for key in context if key not in runner.context]
    if unread:
        raise ConfigurationError(
            f"method {spec.name!r} does not read {unread}")
    ctx = bench.RunContext(delta=args.delta, seed=args.seed, **context)
    estimate = runner(samples, spec.settings, ctx)
    print(",".join(f"{x:.17g}" for x in np.atleast_1d(estimate)))
    return EXIT_OK


def _cmd_bench_run(args) -> int:
    with open(args.config) as fh:
        config = bench.TrialConfig.from_json_dict(json.load(fh))
    records = bench.run_sweep(config)
    bench.emit_csv(records, args.out)
    return EXIT_OK


def _cmd_bench_summarize(args) -> int:
    rows = bench.summarize(bench.read_csv(args.infile), args.delta)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            bench.emit_summary_csv(rows, fh)
    else:
        bench.emit_summary_csv(rows, sys.stdout)
    return EXIT_OK


def _cmd_cover_build(args) -> int:
    cover = netmax.build_half_cover(args.p, sparsity=args.sparsity, seed=args.seed)
    netmax.certify_cover(cover)
    netmax.cover_to_csv(cover, args.out)
    print(f"cover of size {cover.size} written to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigurationError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EstimatorError as exc:
        print(f"estimator failure: {exc}", file=sys.stderr)
        return EXIT_ESTIMATOR
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""robustmean: robust mean estimation under contamination and heavy tails.

Estimators
----------
- :func:`filter_multivariate` / :func:`filter_univariate` — iterative
  spectral pruning of high-influence points.
- :func:`interval_estimate` — univariate two-split shortest-interval rule.
- :func:`net_estimate` — sphere-cover reduction of the multivariate problem
  to 1D, aggregated by a minimax center.
- :mod:`robustmean.baselines` — sample mean, geometric median-of-means,
  coordinate-wise filtering, oracle ball truncation, subset search.

The benchmark harness lives in :mod:`robustmean.bench`; the CLI entry point
is ``robustmean`` (see :mod:`robustmean.cli`).
"""

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateScoresError,
    EmptySelectionError,
    EstimatorError,
    FilterExhaustedError,
    RobustMeanError,
)
from .model import (
    ContaminationSpec,
    DistributionSpec,
    MomentProfile,
    population_moments,
    sample_dataset,
)
from .filtering import (
    EstimateReport,
    FilterConfig,
    cov_bound_hint,
    default_steps,
    filter_multivariate,
    filter_univariate,
    stopping_cap,
    top_eigenpair,
)
from .interval import (
    Interval,
    IntervalConfig,
    interval_count,
    interval_estimate,
    shortest_interval,
)
from .netmax import (
    CoverSet,
    NetConfig,
    build_half_cover,
    certify_cover,
    cover_from_csv,
    cover_to_csv,
    minimax_center,
    net_estimate,
)
from .baselines import (
    coordinatewise_filter,
    geometric_median,
    geometric_median_of_means,
    oracle_radius,
    oracle_truncated_mean,
    sample_mean,
    srm_bruteforce,
)
from .metrics import l2_loss, opt_bound, quantile_error
from .bench import MethodSpec, TrialConfig, TrialRecord, run_sweep, summarize

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ConvergenceError",
    "DegenerateScoresError",
    "EmptySelectionError",
    "EstimatorError",
    "FilterExhaustedError",
    "RobustMeanError",
    "ContaminationSpec",
    "DistributionSpec",
    "MomentProfile",
    "population_moments",
    "sample_dataset",
    "EstimateReport",
    "FilterConfig",
    "cov_bound_hint",
    "default_steps",
    "filter_multivariate",
    "filter_univariate",
    "stopping_cap",
    "top_eigenpair",
    "Interval",
    "IntervalConfig",
    "interval_count",
    "interval_estimate",
    "shortest_interval",
    "CoverSet",
    "NetConfig",
    "build_half_cover",
    "certify_cover",
    "cover_from_csv",
    "cover_to_csv",
    "minimax_center",
    "net_estimate",
    "coordinatewise_filter",
    "geometric_median",
    "geometric_median_of_means",
    "oracle_radius",
    "oracle_truncated_mean",
    "sample_mean",
    "srm_bruteforce",
    "l2_loss",
    "opt_bound",
    "quantile_error",
    "MethodSpec",
    "TrialConfig",
    "TrialRecord",
    "run_sweep",
    "summarize",
]

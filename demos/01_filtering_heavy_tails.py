"""Spectral filtering on heavy-tailed data.

The estimator repeatedly finds the direction of largest sample variance and
removes one point sampled proportionally to its squared projection along
that direction.  A handful of removals is enough to tame the far tail of a
lognormal sample; we compare against the plain mean and geometric
median-of-means on the usual high-confidence (quantile-of-loss) metric.
"""

import numpy as np

from robustmean import (
    DistributionSpec,
    FilterConfig,
    default_steps,
    filter_multivariate,
    geometric_median_of_means,
    l2_loss,
    quantile_error,
    sample_dataset,
    sample_mean,
)

P, N, DELTA, TRIALS = 20, 200, 0.05, 100

spec = DistributionSpec("lognormal", p=P)
steps = default_steps(DELTA)
print(f"lognormal coordinates, p={P}, n={N}, removal budget {steps}\n")

losses = {"mean": [], "gmom": [], "filter": []}
for t in range(TRIALS):
    samples = sample_dataset(spec, N, seed=t)
    losses["mean"].append(l2_loss(sample_mean(samples), np.zeros(P)))
    losses["gmom"].append(
        l2_loss(geometric_median_of_means(samples, blocks=6), np.zeros(P)))
    cfg = FilterConfig(steps=steps, seed=t)
    rep = filter_multivariate(samples, cfg)
    losses["filter"].append(l2_loss(rep.estimate, np.zeros(P)))

print(f"{'method':<10} {'median loss':>12} {'q_0.05 loss':>12}")
for name, vals in losses.items():
    print(f"{name:<10} {np.median(vals):>12.4f} "
          f"{quantile_error(vals, DELTA):>12.4f}")

print("""
The quantile column is the high-confidence error: the smallest radius that
contains all but a delta fraction of trial losses.  The sample mean is fine
on a typical trial but pays dearly in the tail; the filter closes most of
that gap by discarding a few high-leverage points.""")

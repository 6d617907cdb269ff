"""Sample rows as the pinned estimator outputs were recorded on.

Until the heavy-radial sampler scaled its normal rows in one pass, it
divided each row by ``np.linalg.norm`` and then multiplied by
sqrt(n) * rho.  The two roundings differ from the fused factor by a few
ulp, and the pinned hex values of the small-ball and Rademacher tests
were recorded on the two-pass rows.  ``recorded_sample_matrix`` rebuilds
those rows from the same draws, so the pins keep testing the estimators
rather than the sampler's last bits.
"""

import math

import numpy as np

from lminlab import distributions as dist


def recorded_sample_matrix(spec: dist.DistributionSpec, m: int, rng: np.random.Generator) -> np.ndarray:
    """``dist.sample_matrix`` with the two-pass heavy-radial scaling; other
    families are delegated unchanged."""
    if spec.family != "heavy-radial" or spec.n == 1:
        return dist.sample_matrix(spec, m, rng)
    theta = rng.standard_normal((m, spec.n))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    s0 = dist.pareto_threshold(spec.eta)
    rho = s0 * (1.0 - rng.random(m)) ** (-1.0 / (2.0 + spec.eta))
    theta *= math.sqrt(spec.n) * rho[:, None]
    return theta

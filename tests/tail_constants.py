"""The sharp marginal tail constant of the heavy families, the oracle of
the declared-tail tests."""

import math

from lminlab import distributions as dist


def radial_tail_constant(spec: dist.DistributionSpec) -> float:
    """Sharp marginal tail constant sup_u u^(2+eta) P{|<X,e1>| >= u} of a
    heavy family.

    Exact and sphere-uniform for heavy-radial; coordinate-direction only for
    heavy-iid (the sphere-wide constant for heavy-iid is empirical).
    """
    s0 = dist.pareto_threshold(spec.eta)
    q = 2.0 + spec.eta
    if spec.family == "heavy-radial":
        return (math.sqrt(spec.n) * s0) ** q * dist._proj_abs_moment(spec.n, q)
    return s0**q

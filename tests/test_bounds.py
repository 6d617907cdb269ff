"""Tests for floor predictions, constants, and anchor calibration."""

import math

import numpy as np
import pytest

from lminlab import bounds as bd
from lminlab.errors import InvalidParameterError

K = bd.ConstantSet()


def test_regime_selection_and_tolerance():
    assert bd.regime_for_eta(5.0) == "eta-gt-2"
    assert bd.regime_for_eta(2.0) == "eta-eq-2"
    assert bd.regime_for_eta(2.0 + 5e-10) == "eta-eq-2"
    assert bd.regime_for_eta(1.0) == "eta-lt-2"
    with pytest.raises(InvalidParameterError):
        bd.regime_for_eta(0.0)


def test_floor_regime_part1_plugin():
    p = bd.floor_regime(5.0, 0.25, K, N=100)
    assert p.regime == "eta-gt-2"
    assert p.floor == pytest.approx(0.5, abs=1e-15)
    assert p.prob_failure == pytest.approx(math.log(math.e / 0.25) * math.exp(-25), rel=1e-12)


def test_floor_regime_eta2_vacuous_not_clamped():
    beta = math.exp(-2)
    p = bd.floor_regime(2.0, beta, K, N=100)
    expected = 1 - math.exp(-1) * 2**1.5
    assert p.floor == pytest.approx(expected, abs=1e-12)
    assert p.floor < 0
    assert "vacuous" in p.flags
    assert 0 <= p.prob_failure <= 1


def test_floor_regime_beta_one_degenerate_edge():
    p = bd.floor_regime(1.0, 1.0, K, N=100)
    assert p.floor == 1.0
    assert "degenerate-edge" in p.flags
    assert p.prob_failure == 1.0


def test_floor_regime_validates():
    with pytest.raises(InvalidParameterError):
        bd.floor_regime(1.0, 0.0, K, N=10)
    with pytest.raises(InvalidParameterError):
        bd.floor_regime(1.0, 1.5, K, N=10)


def test_floor_regime_monotone_in_beta():
    # the log-carrying rate functions peak at beta = e^-3 (eta = 2) and
    # beta = 1/e (eta < 2); below those the floor is nonincreasing in beta
    ranges = {4.0: 1.0, 2.0: math.exp(-3), 0.7: math.exp(-1)}
    for eta, top in ranges.items():
        grid = np.linspace(0.005, top, 12)
        floors = [bd.floor_regime(eta, b, K, N=50).floor for b in grid]
        assert all(a >= b - 1e-12 for a, b in zip(floors, floors[1:])), eta


def test_exponent_continuity_at_eta_2():
    # part 3's exponent eta/(2+eta) -> 1/2 as eta -> 2, matching part 2's
    # sqrt(beta) power
    for eta in (2.0 - 1e-6, 2.0 - 1e-9):
        assert eta / (2 + eta) == pytest.approx(0.5, abs=1e-6)
    assert 2.0 / (2 + 2.0) == 0.5


def test_probabilities_clamped_and_monotone_in_n():
    for regime_eta in (5.0, 2.0, 1.0):
        probs = [bd.floor_regime(regime_eta, 0.3, K, N=nn).prob_failure for nn in (1, 5, 50, 500)]
        assert all(0 <= p <= 1 for p in probs)
        assert all(a >= b - 1e-15 for a, b in zip(probs, probs[1:]))


def test_basic_floor_plugin_and_gate():
    p = bd.basic_floor(0.25, 0.25, r_n=1 / 300, N=64)
    assert p.precondition_ok  # threshold tau q/16 = 1/256
    assert p.floor == pytest.approx(1 / 128)
    assert "squared-scale" in p.flags
    p2 = bd.basic_floor(0.25, 0.25, r_n=1 / 200, N=64)
    assert not p2.precondition_ok


def test_basic_floor_vacuous_at_zero_q():
    p = bd.basic_floor(0.25, 0.0, r_n=0.01, N=64)
    assert not p.precondition_ok
    assert p.floor == 0.0
    assert "vacuous" in p.flags


def test_basic_floor_never_exceeds_one_under_unit_normalization():
    # tau^2 Q(2 tau)/2 <= 1 whenever Q <= 1 and 2 tau is within the support
    # scale; with constants fixed at their stated values the floor stays <= 1
    for tau in np.linspace(0.01, 1.0, 25):
        for q in np.linspace(0.0, 1.0, 25):
            assert bd.basic_floor(tau, q, 0.0, 10).floor <= 1.0


def test_basic_floor_below_unit_l2_on_analytic_families():
    # with Q(2 tau) from the quadrature tail, tau^2 Q(2 tau)/2 never exceeds
    # the unit second moment of the marginals
    from lminlab import distributions as dist

    for spec in (
        dist.DistributionSpec("gaussian-iid", 4),
        dist.DistributionSpec("heavy-radial", 4, eta=1.0),
        dist.DistributionSpec("atomic-mixture", 4, mixture_p=0.3),
    ):
        for tau in np.linspace(0.05, 4.0, 40):
            q2tau = dist.theoretical_tail(spec, 2 * tau)
            assert bd.basic_floor(tau, q2tau, 0.0, 10).floor <= 1.0


def test_basic_floor_failure_prob_upper_bounds_exact_oracle():
    # exhaustive-enumeration cross-check: wherever the applicability gate
    # passes, the exact failure probability sits below the predicted one
    from lminlab import empirical_process as ep

    checked = 0
    for inst, tau in ep.random_instances(60, rng=3):
        rep = ep.tiny_smallball_oracle(inst, tau)
        pred = bd.basic_floor(tau, float(rep.q2tau), rep.r_n, inst.N)
        assert pred.precondition_ok == rep.hypothesis_ok
        if pred.precondition_ok:
            assert 1 - float(rep.exact_prob) <= pred.prob_failure + 1e-15
            assert pred.floor == pytest.approx(rep.floor, abs=1e-15)
            checked += 1
    assert checked > 0


def test_isomorphic_floor_plugin_and_gate():
    band = bd.CovarianceBand(1.0, 1.0, 1.0)
    p = bd.isomorphic_floor(band, n=10, N=100, k=K)
    assert p.precondition_ok and p.floor == 1.0
    assert p.prob_failure == pytest.approx(math.exp(-100), rel=1e-12)
    p2 = bd.isomorphic_floor(band, n=10, N=9, k=K)
    assert not p2.precondition_ok


def test_isomorphic_floor_rademacher_band():
    band = bd.CovarianceBand(1.0, 1.0, math.sqrt(2))
    p = bd.isomorphic_floor(band, n=4, N=1000, k=K)
    assert p.floor == pytest.approx(0.5, rel=1e-12)


def test_general_floor_plugin_and_limits():
    p = bd.general_floor(1.0, 1.0, 1.0, 10, 100, K)
    assert p.floor == 1.0 and p.precondition_ok
    p0 = bd.general_floor(1.0, 0.0, 1.0, 10, 10**9, K)
    assert not p0.precondition_ok  # required N diverges as q -> 0
    # atom mass caps the floor: q2tau <= 1 - p gives floor <= c tau sqrt(1-p)
    p3 = bd.general_floor(0.5, 0.5, 1.0, 10, 10**6, K)
    assert p3.floor == pytest.approx(0.5 * math.sqrt(0.5))


def test_constant_set_positive():
    with pytest.raises(InvalidParameterError):
        bd.ConstantSet(c3=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: bd.basic_floor(x, 0.5, 0.01, 100),
        lambda x: bd.basic_floor(1.0, 0.5, x, 100),
        lambda x: bd.general_floor(x, 0.5, 1.0, 3, 100, K),
        lambda x: bd.general_floor(1.0, 0.5, x, 3, 100, K),
        lambda x: bd.CovarianceBand(x, 1.0, 1.0),
        lambda x: bd.CovarianceBand(1.0, x, 1.0),
        lambda x: bd.CovarianceBand(1.0, 1.0, x),
        lambda x: bd.ConstantSet(c2=x),
    ],
    ids=["basic-tau", "basic-r_n", "general-tau", "general-A", "band-a", "band-A", "band-B", "constant"],
)
def test_floors_reject_nonfinite_inputs(call, bad):
    with pytest.raises(InvalidParameterError, match="finite"):
        call(bad)


def test_tail_floor_accepts_infinite_eta():
    # families without a polynomial tail report under eta-gt-2 with eta = inf
    assert bd.floor_regime(math.inf, 0.25, K, 100).floor == pytest.approx(0.5)

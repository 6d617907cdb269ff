"""Tests for floor predictions, their regimes, gates and constants."""

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


def _pred(regime, floor, pfail, constants, ok, detail, flags=()):
    return bd.BoundPrediction(regime, floor, pfail, constants, ok, detail, flags)


_TAIL_K = {"c0": 1.0, "c1": 1.0, "c2": 1.0}
_EQ2_K = {"c3": 1.0, "c4": 1.0}
_ISO_K = {"iso_c0": 1.0, "iso_c1": 1.0, "iso_c2": 1.0}
_GEN_K = {"gen_c1": 1.0, "gen_c2": 1.0, "gen_c3": 1.0}
_BAND = bd.CovarianceBand(1.0, 1.0, 1.0)

# Every field of every floor's prediction, flags in order, and the message of
# each refusal (overflow and validation order), as the floors gave them
# before they shared one builder.
_PINNED = {
    "tail-gt2": (
        lambda: bd.floor_regime(5.0, 0.25, K, 100),
        _pred("eta-gt-2", 0.5, 3.314072213251322e-11, _TAIL_K, True, "eta=5.0, beta=0.25, N=100"),
    ),
    "tail-gt2-vacuous": (
        lambda: bd.floor_regime(5.0, 1.0, K, 100),
        _pred("eta-gt-2", 0.0, 3.720075976020836e-44, _TAIL_K, True, "eta=5.0, beta=1.0, N=100", ("vacuous",)),
    ),
    "tail-gt2-clamped": (
        lambda: bd.floor_regime(5.0, 0.01, K, 1),
        _pred("eta-gt-2", 0.9, 1.0, _TAIL_K, True, "eta=5.0, beta=0.01, N=1"),
    ),
    "tail-inf-eta": (
        lambda: bd.floor_regime(math.inf, 0.25, K, 100),
        _pred("eta-gt-2", 0.5, 3.314072213251322e-11, _TAIL_K, True, "eta=inf, beta=0.25, N=100"),
    ),
    "tail-eq2": (
        lambda: bd.floor_regime(2.0, 0.5, K, 100),
        _pred("eta-eq-2", 0.5919407812651885, 8.881784197001244e-16, _EQ2_K, True, "eta=2.0, beta=0.5, N=100"),
    ),
    "tail-eq2-vacuous": (
        lambda: bd.floor_regime(2.0, math.exp(-2), K, 100),
        _pred(
            "eta-eq-2", -0.04052019004577789, 1.757626762331334e-12, _EQ2_K, True,
            "eta=2.0, beta=0.1353352832366127, N=100", ("vacuous",),
        ),
    ),
    "tail-eq2-edge": (
        lambda: bd.floor_regime(2.0, 1.0, K, 100),
        _pred("eta-eq-2", 1.0, 1.0, _EQ2_K, True, "eta=2.0, beta=1.0, N=100", ("degenerate-edge",)),
    ),
    "tail-lt2": (
        lambda: bd.floor_regime(1.0, 0.25, K, 100),
        _pred(
            "eta-lt-2", 0.29757738028556535, 8.881784197001244e-16, {"c5": 1.0, "c6": 1.0}, True,
            "eta=1.0, beta=0.25, N=100",
        ),
    ),
    "tail-lt2-edge": (
        lambda: bd.floor_regime(1.0, 1.0, K, 100),
        _pred("eta-lt-2", 1.0, 1.0, {"c5": 1.0, "c6": 1.0}, True, "eta=1.0, beta=1.0, N=100", ("degenerate-edge",)),
    ),
    "tail-lt2-vacuous": (
        lambda: bd.floor_regime(1.0, 0.25, bd.ConstantSet(c6=10.0), 100),
        _pred(
            "eta-lt-2", -6.024226197144347, 8.881784197001244e-16, {"c5": 1.0, "c6": 10.0}, True,
            "eta=1.0, beta=0.25, N=100", ("vacuous",),
        ),
    ),
    "tail-overflow": (
        lambda: bd.floor_regime(2.0, 0.05, bd.ConstantSet(c4=1.7e308), 10),
        "floor 1 - c * rate overflows float range for these inputs",
    ),
    "tail-beta-first": (lambda: bd.floor_regime(0.0, 1.5, K, 0), "beta must be in (0, 1], got 1.5"),
    "tail-N-before-eta": (lambda: bd.floor_regime(0.0, 0.5, K, 0), "N must be >= 1, got 0"),
    "basic": (
        lambda: bd.basic_floor(0.25, 0.25, 1 / 300, 64),
        _pred(
            "basic-smallball", 0.0078125, 1.0, {}, True, "r_n=0.0033333333333333335 vs tau*q2tau/16=0.00390625",
            ("squared-scale",),
        ),
    ),
    "basic-zero-q": (
        lambda: bd.basic_floor(0.25, 0.0, 0.01, 64),
        _pred(
            "basic-smallball", 0.0, 1.0, {}, False, "r_n=0.01 vs tau*q2tau/16=0.0", ("squared-scale", "vacuous")
        ),
    ),
    "basic-overflow": (
        lambda: bd.basic_floor(1e200, 0.5, 0.1, 10),
        "floor tau^2 q2tau/2 overflows float range for these inputs",
    ),
    "basic-finite-first": (lambda: bd.basic_floor(-1.0, 2.0, math.nan, 0), "r_n must be finite, got nan"),
    "basic-tau-before-q": (lambda: bd.basic_floor(-1.0, 2.0, 0.0, 0), "tau must be > 0, got -1.0"),
    "basic-q-before-N": (lambda: bd.basic_floor(1.0, 2.0, 0.0, 0), "q2tau must be in [0, 1], got 2.0"),
    "isomorphic": (
        lambda: bd.isomorphic_floor(_BAND, 10, 100, K),
        _pred("isomorphic", 1.0, 3.720075976020836e-44, _ISO_K, True, "N=100 vs c0*B^4*(A/a)^2*n=10"),
    ),
    "isomorphic-inf-threshold": (
        lambda: bd.isomorphic_floor(bd.CovarianceBand(1.0, 1.0, 1e100), 4, 10, K),
        _pred("isomorphic", 1e-200, 1.0, _ISO_K, False, "N=10 vs c0*B^4*(A/a)^2*n=inf"),
    ),
    "isomorphic-vacuous": (
        lambda: bd.isomorphic_floor(bd.CovarianceBand(1e-300, 1.0, 1e200), 4, 10, K),
        _pred("isomorphic", 0.0, 1.0, _ISO_K, False, "N=10 vs c0*B^4*(A/a)^2*n=inf", ("vacuous",)),
    ),
    "isomorphic-overflow": (
        lambda: bd.isomorphic_floor(bd.CovarianceBand(10.0, 10.0, 1.0), 4, 10, bd.ConstantSet(iso_c2=1e308)),
        "floor c2 a/B^2 overflows float range for these inputs",
    ),
    "isomorphic-n-before-N": (lambda: bd.isomorphic_floor(_BAND, 0, 0, K), "n must be >= 1, got 0"),
    "general": (
        lambda: bd.general_floor(1.0, 1.0, 1.0, 10, 100, K),
        _pred("general-smallball", 1.0, 7.440151952041672e-44, _GEN_K, True, "N=100 vs c1*A*n/(tau^2 q^2)=10"),
    ),
    "general-inf-threshold": (
        lambda: bd.general_floor(1e-200, 0.5, 1.0, 4, 10, K),
        _pred(
            "general-smallball", 7.071067811865475e-201, 0.1641699972477976, _GEN_K, False,
            "N=10 vs c1*A*n/(tau^2 q^2)=inf",
        ),
    ),
    "general-zero-q": (
        lambda: bd.general_floor(1.0, 0.0, 1.0, 10, 10**9, K),
        _pred(
            "general-smallball", 0.0, 1.0, _GEN_K, False, "N=1000000000 vs c1*A*n/(tau^2 q^2)=inf", ("vacuous",)
        ),
    ),
    "general-overflow": (
        lambda: bd.general_floor(10.0, 0.5, 1.0, 4, 10, bd.ConstantSet(gen_c2=1e308)),
        "floor c2 tau sqrt(q2tau) overflows float range for these inputs",
    ),
    "general-tau-before-q": (lambda: bd.general_floor(-1.0, 2.0, -1.0, 0, 0, K), "tau must be > 0, got -1.0"),
    "general-q-before-A": (lambda: bd.general_floor(1.0, 2.0, -1.0, 0, 0, K), "q2tau must be in [0, 1], got 2.0"),
    "general-A-before-n": (lambda: bd.general_floor(1.0, 0.5, -1.0, 0, 0, K), "A must be > 0, got -1.0"),
    "general-n-before-N": (lambda: bd.general_floor(1.0, 0.5, 1.0, 0, 0, K), "n must be >= 1, got 0"),
}


@pytest.mark.parametrize("call,expected", _PINNED.values(), ids=_PINNED.keys())
def test_floor_predictions_pinned(call, expected):
    if isinstance(expected, str):
        with pytest.raises(InvalidParameterError) as info:
            call()
        assert str(info.value) == expected
        return
    assert call() == expected

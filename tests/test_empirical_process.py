"""Tests for the truncation ramp, exact identities, VC checks, and the
exhaustive tiny-instance oracle."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from tail_constants import radial_tail_constant

from lminlab import distributions as dist
from lminlab import empirical_process as ep
from lminlab import rademacher as rad
from lminlab.errors import BudgetExceededError, InvalidInputError, InvalidParameterError


# ---------------------------------------------------------------------------
# truncation ramp
# ---------------------------------------------------------------------------


def test_phi_values():
    assert ep.truncation_phi(1.0, 3.0) == 1.0
    assert ep.truncation_phi(1.0, 1.5) == 0.5
    assert ep.truncation_phi(1.0, 0.99) == 0.0
    assert ep.truncation_phi(1.0, 2.0) == 1.0
    assert ep.truncation_phi(1.0, 1.0) == 0.0


def test_phi_rejects_bad_u():
    with pytest.raises(InvalidParameterError):
        ep.truncation_phi(0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        ep.truncation_phi(-1.0, 1.0)


def test_phi_indicator_sandwich_exact_grid():
    us = np.linspace(0.05, 5.0, 100)
    ts = np.linspace(0.0, 12.0, 100)
    for u in us:
        vals = ep.truncation_phi(u, ts)
        upper = (ts >= u).astype(float)
        lower = (ts >= 2 * u).astype(float)
        assert np.all(vals <= upper) and np.all(vals >= lower)


def test_phi_lipschitz_exact_grid():
    rng = np.random.default_rng(0)
    for u in np.linspace(0.1, 3.0, 20):
        t1 = rng.uniform(0, 8, 100)
        t2 = rng.uniform(0, 8, 100)
        lhs = np.abs(ep.truncation_phi(u, t1) - ep.truncation_phi(u, t2))
        assert np.all(lhs <= np.abs(t1 - t2) / u + 1e-12)


# ---------------------------------------------------------------------------
# second-moment identity
# ---------------------------------------------------------------------------


def test_identity_constant_values():
    lhs, rhs, gap = ep.second_moment_identity([1.0, 1.0, 1.0])
    assert lhs == rhs == 1.0 and gap == 0.0


def test_identity_closed_form():
    lhs, rhs, gap = ep.second_moment_identity([0.0, 2.0])
    assert lhs == 2.0 and rhs == pytest.approx(2.0, abs=1e-15)


def test_identity_random_battery():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = rng.standard_normal(int(rng.integers(1, 120))) * rng.uniform(0.01, 50)
        lhs, _, gap = ep.second_moment_identity(v)
        assert gap <= 1e-12 * max(lhs, 1e-300)


def test_identity_batch_matches_rows_bit_for_bit():
    """A (k, N) batch gives, entry for entry, the floats of the 1-D calls on
    its rows, for every N in 1..60, with zeros and ties among the values."""
    rng = np.random.default_rng(7)
    for N in range(1, 61):
        batch = rng.standard_normal((6, N)) * rng.uniform(0.1, 10, size=(6, 1))
        batch[1] = 0.0
        batch[2, ::2] = 0.0
        batch[3] = batch[3, 0]
        batch[4] = np.round(batch[4])
        batch[5, N // 2 :] = -batch[5, : N - N // 2]
        sides = ep.second_moment_identity(batch)
        assert all(side.shape == (6,) for side in sides)
        for i, row in enumerate(batch):
            single = ep.second_moment_identity(row)
            assert all(type(x) is float for x in single)
            assert single == tuple(float(side[i]) for side in sides)


@pytest.mark.parametrize("values", [3.0, [], np.zeros((2, 0)), np.zeros((0, 3)), [[1.0, np.nan]]])
def test_identity_rejects_bad_values(values):
    with pytest.raises(InvalidInputError):
        ep.second_moment_identity(values)


# ---------------------------------------------------------------------------
# dyadic level tails of the sharp marginal
# ---------------------------------------------------------------------------


def test_dyadic_sigma_equality_for_sharp_marginal():
    # heavy-iid coordinate marginal attains tail = L_sharp 2^(-j(2+eta)) at
    # u = 2^j once past the plateau
    eta = 1.0
    spec = dist.DistributionSpec("heavy-iid", 3, eta=eta)
    sharp = radial_tail_constant(spec)  # u0^(2+eta) for the scalar law
    for j in (1, 2, 3):
        tail = dist.theoretical_tail(spec, 2.0**j)
        assert tail == pytest.approx(sharp * 2.0 ** (-j * (2 + eta)), rel=1e-12)


# ---------------------------------------------------------------------------
# VC brute force
# ---------------------------------------------------------------------------


def test_vc_halfspaces_planar_generic():
    pts = np.random.default_rng(3).standard_normal((10, 2))
    assert ep.vc_bruteforce(pts, "halfspaces") == 3


def test_vc_halfspaces_line():
    pts = np.random.default_rng(4).standard_normal((8, 1))
    assert ep.vc_bruteforce(pts, "halfspaces") == 2


def test_vc_abs_threshold_line_generic():
    pts = np.array([[0.5], [1.3], [-2.1], [0.9], [-0.3], [1.7]])
    assert ep.vc_bruteforce(pts, "abs-threshold") == 1


def test_vc_singleton():
    assert ep.vc_bruteforce(np.array([[1.0]]), "abs-threshold") == 1
    assert ep.vc_bruteforce(np.array([[1.0, 2.0]]), "halfspaces") == 1


def test_vc_budget_guard():
    with pytest.raises(BudgetExceededError):
        ep.vc_bruteforce(np.zeros((26, 2)), "halfspaces")
    with pytest.raises(BudgetExceededError):
        ep.vc_bruteforce(np.zeros((5, 4)), "halfspaces")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("klass", ["halfspaces", "abs-threshold"])
def test_vc_rejects_nonfinite_points(klass, bad):
    with pytest.raises(InvalidInputError, match="finite"):
        ep.vc_bruteforce(np.array([[0.5], [bad], [1.3]]), klass)


def _linprog_separable(dichotomies) -> np.ndarray:
    """Reference verdicts from one scipy LP over all dichotomies.

    Dichotomy k owns variables (w_k, b_k, s_k) and the rows
    y_i (w_k . x_i + b_k) >= 1 - s_k, s_k >= 0; the blocks share nothing, so
    minimizing sum s_k minimizes each s_k.  A strictly separable dichotomy
    reaches s_k = 0 (scale w); otherwise a point of both hulls forces
    s_k >= 1.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    blocks, cost, bounds = [], [], []
    for inside, outside in dichotomies:
        x = np.vstack([inside, outside])
        y = np.r_[np.ones(len(inside)), -np.ones(len(outside))]
        blocks.append(np.hstack([-y[:, None] * np.hstack([x, np.ones((len(x), 1))]), -np.ones((len(x), 1))]))
        cost += [0.0] * (x.shape[1] + 1) + [1.0]
        bounds += [(None, None)] * (x.shape[1] + 1) + [(0, None)]
    a_ub = sparse.block_diag(blocks, format="csr")
    res = linprog(cost, A_ub=a_ub, b_ub=-np.ones(a_ub.shape[0]), bounds=bounds, method="highs")
    assert res.status == 0
    slack = res.x[np.cumsum([block.shape[1] for block in blocks]) - 1]
    assert np.all((slack < 1e-6) | (slack > 1 - 1e-6))
    return slack < 0.5


def test_halfspace_separable_matches_linprog():
    """The min-norm-point test agrees with an LP on 3000 seeded dichotomies
    in dim 1-3 of 2-8 points, 30% of the point sets rounded to one decimal
    so that ties and touching hulls occur."""
    rng = np.random.default_rng(17)
    dichotomies = []
    for _ in range(3000):
        m = int(rng.integers(2, 9))
        pts = rng.standard_normal((m, int(rng.integers(1, 4))))
        if rng.random() < 0.3:
            pts = np.round(pts, 1)
        inside = rng.permutation(m) < rng.integers(1, m)
        dichotomies.append((pts[inside], pts[~inside]))
    expected = _linprog_separable(dichotomies)
    got = np.array([ep._halfspace_separable(inside, outside) for inside, outside in dichotomies])
    assert 0.2 < expected.mean() < 0.9
    np.testing.assert_array_equal(got, expected)


def test_halfspace_separable_edge_cases():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert ep._halfspace_separable(pts[:2], np.empty((0, 2)))
    assert ep._halfspace_separable(np.empty((0, 2)), pts)
    assert not ep._halfspace_separable(pts[:2], pts[[2]])  # the midpoint touches
    assert ep._halfspace_separable(pts[:2], pts[[3]])
    assert not ep._halfspace_separable(pts[[3]], pts[[3]])  # a coincident pair
    assert not ep._halfspace_separable(np.zeros((1, 2)), np.zeros((2, 2)))  # all differences 0


# ---------------------------------------------------------------------------
# tiny oracle
# ---------------------------------------------------------------------------


def _ordered_tuple_oracle(inst, tau):
    """Reference oracle: enumerates all n_atoms^N ordered sample tuples and
    decides the event in floats; returns (q2tau, exact_prob, hypothesis_ok,
    verdict, r_n)."""
    F = np.array(inst.functions, dtype=float)
    n_atoms, N = F.shape[1], inst.N
    q2tau = min(sum((p for p, v in zip(inst.probs, f) if abs(v) >= 2.0 * tau), Fraction(0)) for f in F)
    floor = tau**2 * float(q2tau) / 2.0
    T = np.array(list(itertools.product(range(n_atoms), repeat=N)))
    denom = math.lcm(*(p.denominator for p in inst.probs))
    num = np.prod(np.array([int(p * denom) for p in inst.probs])[T], axis=1)
    vals = F[:, T]  # (nf, n_tuples, N)
    success = np.all((vals**2).mean(axis=2) >= floor, axis=0)
    exact_prob = Fraction(int(num[success].sum()), denom**N)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=N)))
    r_n = 0.0
    for start in range(0, len(T), 4096):
        sl = slice(start, start + 4096)
        sup = np.abs(vals[:, sl] @ signs.T).max(axis=0)
        r_n += float((num[sl] / denom**N) @ sup.mean(axis=1))
    r_n /= N
    hypothesis_ok = r_n <= tau * float(q2tau) / 16.0
    bound = 1.0 - 2.0 * math.exp(-float(q2tau) ** 2 * N / 8.0)
    if not hypothesis_ok:
        verdict = "not-applicable"
    else:
        verdict = "holds" if float(exact_prob) >= bound else "violated"
    return q2tau, exact_prob, hypothesis_ok, verdict, r_n


def test_oracle_matches_ordered_tuple_reference():
    applicable = 0
    for seed in (0, 1, 2):
        for inst, tau in ep.random_instances(30, rng=seed):
            rep = ep.tiny_smallball_oracle(inst, tau)
            q2tau, exact_prob, hypothesis_ok, verdict, r_n = _ordered_tuple_oracle(inst, tau)
            assert (rep.q2tau, rep.exact_prob, rep.hypothesis_ok, rep.verdict) == (
                q2tau,
                exact_prob,
                hypothesis_ok,
                verdict,
            )
            assert rep.r_n == pytest.approx(r_n, rel=1e-12, abs=0.0)
            applicable += hypothesis_ok
    assert applicable >= 5  # both verdict branches are compared


def test_oracle_event_exact_at_a_tie():
    # tau = 0.13, Q(2 tau) = 2/5 (the atom at 1.0), N = 5: the tuples with one
    # draw of the atom at 0.13 and four of the zero atom have P_N f^2 equal to
    # the floor tau^2 Q/2 exactly, which float arithmetic puts below the floor.
    tau = 0.13
    inst = ep.FiniteInstance(
        probs=(Fraction(2, 5), Fraction(1, 5), Fraction(2, 5)), functions=((1.0, tau, 0.0),), N=5
    )
    rep = ep.tiny_smallball_oracle(inst, tau)
    assert rep.q2tau == Fraction(2, 5)
    floor = Fraction(tau) ** 2 * rep.q2tau / 2
    brute = Fraction(0)
    for t in itertools.product(range(3), repeat=5):
        if sum(Fraction(inst.functions[0][a]) ** 2 for a in t) / 5 >= floor:
            brute += math.prod(inst.probs[a] for a in t)
    assert rep.exact_prob == brute == 1 - Fraction(2, 5) ** 5
    assert rep.floor == tau**2 * 0.4 / 2.0  # reported floor stays a float


def test_oracle_constant_function():
    inst = ep.FiniteInstance(
        probs=(Fraction(1, 2), Fraction(1, 2)), functions=((1.0, 1.0),), N=6
    )
    rep = ep.tiny_smallball_oracle(inst, tau=0.25)
    assert rep.q2tau == 1
    assert rep.floor == pytest.approx(1 / 32)
    assert rep.exact_prob == 1
    assert float(rep.exact_prob) >= rep.bound
    # R_N for f == c is |c| E|sum eps|/N, enumerated independently here
    signs = np.array([[1 if (k >> i) & 1 else -1 for i in range(6)] for k in range(64)])
    expected_rn = np.abs(signs.sum(axis=1)).mean() / 6
    assert rep.r_n == pytest.approx(expected_rn, abs=1e-13)


def test_oracle_two_atom_identity_function():
    inst = ep.FiniteInstance(
        probs=(Fraction(1, 2), Fraction(1, 2)), functions=((0.0, 1.0),), N=6
    )
    rep = ep.tiny_smallball_oracle(inst, tau=0.1)
    assert rep.q2tau == Fraction(1, 2)
    # floor = tau^2 Q/2 = 0.0025; P_N f^2 = (# ones)/6, fails only when all
    # six draws hit the zero atom
    assert rep.exact_prob == Fraction(63, 64)
    # brute-force check of the event probability by direct enumeration
    total = Fraction(0)
    for code in range(2**6):
        ones = bin(code).count("1")
        if ones / 6 >= rep.floor:
            total += Fraction(1, 64)
    assert total == rep.exact_prob


def test_oracle_zero_functions_applicable():
    inst = ep.FiniteInstance(
        probs=(Fraction(1, 3), Fraction(2, 3)), functions=((0.0, 0.0),), N=5
    )
    rep = ep.tiny_smallball_oracle(inst, tau=0.5)
    assert rep.hypothesis_ok  # R_N = 0 = tau Q(2 tau)/16
    assert rep.verdict == "holds"
    assert rep.exact_prob == 1


def test_oracle_gated_when_hypothesis_fails():
    inst = ep.FiniteInstance(
        probs=(Fraction(1, 2), Fraction(1, 2)), functions=((-1.0, 1.0),), N=4
    )
    rep = ep.tiny_smallball_oracle(inst, tau=0.25)
    assert not rep.hypothesis_ok
    assert rep.verdict == "not-applicable"


def test_oracle_budget_guard(monkeypatch):
    # The largest instance the caps allow: C(15, 10) = 3003 multisets x 2^10
    # signs fits the budget.  f = 1 on every atom, so the event always holds
    # and R_N = E|eps_1 + ... + eps_10| / 10 = 252/1024.
    inst = ep.FiniteInstance(
        probs=(Fraction(1, 6),) * 6, functions=((1.0,) * 6,), N=10
    )
    rep = ep.tiny_smallball_oracle(inst, tau=0.25)
    assert rep.exact_prob == 1
    assert abs(rep.r_n - 0.24609375) <= 1e-15
    monkeypatch.setattr(ep, "_ORACLE_BUDGET", 3003 * 1024 - 1)
    with pytest.raises(BudgetExceededError):
        ep.tiny_smallball_oracle(inst, tau=0.25)


def test_oracle_probabilities_are_exact_rationals():
    rng = np.random.default_rng(5)
    for inst, tau in ep.random_instances(10, rng=rng):
        rep = ep.tiny_smallball_oracle(inst, tau)
        assert isinstance(rep.exact_prob, Fraction)
        assert 0 <= rep.exact_prob <= 1


def test_oracle_battery_no_violations():
    battery = ep.random_instances(100, rng=42)
    reports, applicable, violated = ep.oracle_battery(battery)
    assert len(reports) == 100
    assert violated == 0
    assert applicable >= 5  # the battery exercises the applicable branch


def test_multiset_tables_are_read_only():
    classes, counts = ep._multisets(3, 4)
    assert classes.shape == (math.comb(6, 4), 4) and (counts.sum(axis=1) == 4).all()
    for table in (classes, counts):
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_oracle_battery_same_cold_and_warm():
    """The cached multiset and sign tables change no report: a battery run
    with empty caches equals the same battery run again on full ones."""
    battery = ep.random_instances(40, rng=3)
    ep._multisets.cache_clear()
    rad._all_sign_vectors.cache_clear()
    cold = ep.oracle_battery(battery)
    assert ep._multisets.cache_info().currsize == len({(len(inst.probs), inst.N) for inst, _ in battery})
    assert ep.oracle_battery(battery) == cold


def test_finite_instance_validation():
    with pytest.raises(InvalidParameterError):
        ep.FiniteInstance(probs=(Fraction(1, 2),), functions=((1.0,),), N=2)  # sum != 1
    with pytest.raises(InvalidParameterError):
        ep.FiniteInstance(
            probs=(Fraction(1, 2), Fraction(1, 2)), functions=((1.0,),), N=2
        )  # value count mismatch
    with pytest.raises(InvalidParameterError):
        ep.FiniteInstance(
            probs=(Fraction(1, 2), Fraction(1, 2)), functions=((1.0, 1.0),), N=11
        )
    with pytest.raises(InvalidParameterError):
        ep.FiniteInstance(
            probs=(Fraction(1, 2), Fraction(1, 2)), functions=((1.0, math.inf),), N=2
        )

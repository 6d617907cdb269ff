"""Tests for the distribution families: quadrature oracles, isotropy,
declared tails, determinism, config round-trips."""

import math
import tracemalloc
import types

import numpy as np
import pytest
from recorded_samples import recorded_sample_matrix
from scipy import integrate, special
from tail_constants import radial_tail_constant

from lminlab import bounds as bd
from lminlab import distributions as dist
from lminlab.errors import InvalidParameterError

ALL_SPECS = [
    dist.DistributionSpec("gaussian-iid", 6),
    dist.DistributionSpec("heavy-iid", 6, eta=2.0),
    dist.DistributionSpec("heavy-radial", 6, eta=2.0),
    dist.DistributionSpec("rademacher-vec", 6),
    dist.DistributionSpec("atomic-mixture", 6, mixture_p=0.4),
    dist.DistributionSpec("uniform-cube", 6),
]


def scalar_second_moment(eta: float) -> float:
    """Quadrature oracle: E xi^2 = 2 int u P{|xi| > u} du for the scalar law."""
    u0 = dist.pareto_threshold(eta)
    plateau, _ = integrate.quad(lambda u: 2 * u, 0, u0)
    tail, _ = integrate.quad(lambda u: 2 * u * (u / u0) ** -(2 + eta), u0, np.inf)
    return plateau + tail


@pytest.mark.parametrize("eta,expected", [(2.0, math.sqrt(0.5)), (1.0, math.sqrt(1 / 3))])
def test_pareto_threshold_values(eta, expected):
    assert dist.pareto_threshold(eta) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0, 5.0, 25.0])
def test_pareto_threshold_unit_variance(eta):
    assert scalar_second_moment(eta) == pytest.approx(1.0, abs=1e-10)


def test_pareto_threshold_large_eta_limit():
    # tail mass vanishes and the variance concentrates at the plateau
    assert dist.pareto_threshold(1e9) == pytest.approx(1.0, abs=1e-6)


def test_pareto_threshold_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        dist.pareto_threshold(0.0)
    with pytest.raises(InvalidParameterError):
        dist.pareto_threshold(-1.0)


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        dist.DistributionSpec("no-such-family", 3)
    with pytest.raises(InvalidParameterError):
        dist.DistributionSpec("heavy-iid", 3)  # eta required
    with pytest.raises(InvalidParameterError):
        dist.DistributionSpec("gaussian-iid", 3, eta=1.0)
    with pytest.raises(InvalidParameterError):
        dist.DistributionSpec("atomic-mixture", 3, mixture_p=1.0)
    with pytest.raises(InvalidParameterError):
        dist.DistributionSpec("gaussian-iid", 0)


def test_sampling_deterministic():
    spec = dist.DistributionSpec("heavy-radial", 5, eta=1.5)
    a = dist.sample_matrix(spec, 100, np.random.default_rng(123))
    b = dist.sample_matrix(spec, 100, np.random.default_rng(123))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n,m", [(2, 50), (3, 500), (8, 2049), (64, 2048), (100, 1600)])
def test_heavy_radial_one_pass_scaling(n, m):
    """The fused row factor sqrt(n) * rho / ||g|| moves rows by at most a
    few ulp from the two-pass arithmetic the pinned estimator tests were
    recorded on, keeps the norms at sqrt(n) * rho and draws exactly what it
    did."""
    spec = dist.DistributionSpec("heavy-radial", n, eta=5.0)
    for seed in range(5):
        fused, two_pass, replay = (np.random.default_rng(seed) for _ in range(3))
        x = dist.sample_matrix(spec, m, fused)
        y = recorded_sample_matrix(spec, m, two_pass)
        assert np.all(np.abs(x - y) <= 8 * np.spacing(np.abs(y)))
        replay.standard_normal((m, n))
        rho = dist.pareto_threshold(5.0) * (1.0 - replay.random(m)) ** (-1.0 / 7.0)
        assert np.allclose(np.linalg.norm(x, axis=1), math.sqrt(n) * rho, rtol=1e-14, atol=0)
        assert fused.random() == two_pass.random() == replay.random()


def test_heavy_radial_n1_is_signed_radius():
    spec = dist.DistributionSpec("heavy-radial", 1, eta=5.0)
    x = dist.sample_matrix(spec, 200, np.random.default_rng(3))
    replay = np.random.default_rng(3)
    signs = np.sign(replay.standard_normal((200, 1)))
    rho = dist.pareto_threshold(5.0) * (1.0 - replay.random(200)) ** (-1.0 / 7.0)
    assert np.array_equal(x, signs * rho[:, None])


def test_sample_matrix_rejects_unindexable_size():
    spec = dist.DistributionSpec("gaussian-iid", 4)
    with pytest.raises(InvalidParameterError, match="array size limit"):
        dist.sample_matrix(spec, 2**62, np.random.default_rng(0))


def test_rademacher_vec_values_exact():
    spec = dist.DistributionSpec("rademacher-vec", 4)
    x = dist.sample_matrix(spec, 500, np.random.default_rng(0))
    assert set(np.unique(x)) == {-1.0, 1.0}


def _dense_sample(spec, m, rng):
    """The sign-drawing samplers as written before their signs were drawn
    in chunks, each step a whole-array temporary."""
    n = spec.n
    if spec.family == "heavy-iid":
        mags = dist.pareto_threshold(spec.eta) * (1.0 - rng.random((m, n))) ** (-1.0 / (2.0 + spec.eta))
        signs = rng.integers(0, 2, size=(m, n)) * 2.0 - 1.0
        return signs * mags
    if spec.family == "rademacher-vec":
        return rng.integers(0, 2, size=(m, n)) * 2.0 - 1.0
    p = spec.mixture_p
    coin = rng.random(m) < p
    g = rng.standard_normal((m, n)) / math.sqrt(1.0 - p)
    g[coin] = 0.0
    return g


SIGN_SPECS = [
    dist.DistributionSpec("heavy-iid", 5, eta=3.0),
    dist.DistributionSpec("heavy-iid", 8, eta=0.5),
    dist.DistributionSpec("rademacher-vec", 5),
    dist.DistributionSpec("rademacher-vec", 1),
    dist.DistributionSpec("atomic-mixture", 5, mixture_p=0.3),
]


@pytest.mark.parametrize("spec", SIGN_SPECS, ids=lambda s: f"{s.family}-n{s.n}")
@pytest.mark.parametrize("m", [1, 3, 13107, 13108, 26215])
def test_chunked_samplers_match_dense_draw(spec, m):
    """Bit for bit, and with the generator left where the dense draw left
    it; 13107 to 26215 rows of 5 put the sign count just below and just
    above one and two chunks."""
    chunked, dense = np.random.default_rng(m), np.random.default_rng(m)
    assert np.array_equal(dist.sample_matrix(spec, m, chunked), _dense_sample(spec, m, dense))
    assert chunked.integers(0, 2**63, 3).tolist() == dense.integers(0, 2**63, 3).tolist()


@pytest.mark.parametrize(
    "spec",
    [
        dist.DistributionSpec("rademacher-vec", 8),
        dist.DistributionSpec("heavy-iid", 8, eta=3.0),
        dist.DistributionSpec("atomic-mixture", 8, mixture_p=0.3),
    ],
    ids=lambda s: s.family,
)
def test_sign_sampler_memory_is_output_plus_chunk(spec):
    """The dense samplers held two or three output-sized temporaries
    (12.9 MB at the peak for rademacher-vec, 19.3 MB for heavy-iid); the
    chunked ones hold the output and one chunk of signs."""
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        x = dist.sample_matrix(spec, 100_000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes + 2**20, peak


def test_heavy_radial_memory_is_output_plus_two_vectors():
    """The radii and the row norms are built in place: beside its output the
    sampler holds two m-vectors (the expression form held about four, 9.6 MB
    at the peak of this draw)."""
    m = 100_000
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        x = dist.sample_matrix(dist.DistributionSpec("heavy-radial", 8, eta=3.0), m, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes + 2 * m * 8 + 2**20, peak


def test_assemble_like_row_norms():
    # isotropy gives E ||X||^2 = n for every family
    rng = np.random.default_rng(10)
    for spec in ALL_SPECS:
        x = dist.sample_matrix(spec, 40000, rng)
        mean_sq = (x**2).sum(axis=1).mean()
        assert mean_sq == pytest.approx(spec.n, rel=0.1), spec.family


@pytest.mark.parametrize(
    "spec",
    [
        dist.DistributionSpec("gaussian-iid", 20),
        dist.DistributionSpec("heavy-iid", 20, eta=3.0),
        dist.DistributionSpec("heavy-radial", 20, eta=3.0),
        dist.DistributionSpec("rademacher-vec", 20),
        dist.DistributionSpec("atomic-mixture", 20, mixture_p=0.4),
        dist.DistributionSpec("uniform-cube", 20),
    ],
    ids=lambda s: s.family,
)
def test_isotropy_invariant(spec):
    # 1e5 draws, entrywise tolerance 0.02.  Heavy families run at eta = 3:
    # below eta = 2 the squared marginal has infinite variance and the
    # diagonal entries converge at a stable-law rate, not 1/sqrt(M).
    m = 100000
    x = dist.sample_matrix(spec, m, np.random.default_rng(5))
    cov = x.T @ x / m
    assert np.abs(cov - np.eye(spec.n)).max() <= 0.02


@pytest.mark.parametrize("family", ["heavy-iid", "heavy-radial"])
def test_isotropy_heavy_slow_diagnostic(family):
    # eta = 1: the squared marginals have infinite variance, so convergence is
    # stable-law slow.  heavy-iid off-diagonals (products of independent
    # coordinates) still have unit variance and obey the 5/sqrt(M) entry
    # tolerance; everything else gets a relaxed allowance.
    spec = dist.DistributionSpec(family, 10, eta=1.0)
    m = 100000
    x = dist.sample_matrix(spec, m, np.random.default_rng(5))
    cov = x.T @ x / m
    off = cov - np.diag(np.diag(cov))
    if family == "heavy-iid":
        assert np.abs(off).max() <= 5.0 / math.sqrt(m)
    else:
        assert np.abs(off).max() <= 0.1
    assert np.abs(np.diag(cov) - 1.0).max() <= 0.1


def test_declared_tails_hold():
    # empirical marginal tail <= L/u^(2+eta) + 3 binomial stderr on a grid,
    # with L the family's sharp constant clamped to >= 1
    m = 200000
    for family in ("heavy-iid", "heavy-radial"):
        for eta in (1.0, 2.0, 5.0):
            spec = dist.DistributionSpec(family, 10, eta=eta)
            x = dist.sample_matrix(spec, m, np.random.default_rng(21))
            proj = np.abs(x[:, 0])
            L = max(1.0, radial_tail_constant(spec))
            for u in (1.0, 2.0, 4.0, 8.0):
                bound = L / u ** (2 + eta)
                emp = float((proj >= u).mean())
                se = math.sqrt(max(emp * (1 - emp), 1e-12) / m)
                assert emp <= bound + 3 * se, (family, eta, u)


def test_radial_tail_constant_is_sharp():
    # heavy-radial: empirical tail <= L_sharp/u^(2+eta) + 3 se with the exact
    # constant, at thresholds in the pure power regime
    spec = dist.DistributionSpec("heavy-radial", 10, eta=1.0)
    L = radial_tail_constant(spec)
    m = 400000
    x = dist.sample_matrix(spec, m, np.random.default_rng(7))
    proj = np.abs(x[:, 0])
    for u in (2.0, 4.0, 8.0):
        emp = float((proj >= u).mean())
        se = math.sqrt(emp * (1 - emp) / m)
        assert emp <= L / u**3 + 3 * se
        # quadrature tail matches the sharp constant here (power regime)
        assert dist.theoretical_tail(spec, u) == pytest.approx(L / u**3, rel=1e-8)


def test_theoretical_tail_trivial_values():
    gauss = dist.DistributionSpec("gaussian-iid", 3)
    assert dist.theoretical_tail(gauss, 0.0) == 1.0
    heavy = dist.DistributionSpec("heavy-iid", 3, eta=2.0)
    assert dist.theoretical_tail(heavy, dist.pareto_threshold(2.0)) == 1.0
    rad = dist.DistributionSpec("rademacher-vec", 3)
    assert dist.theoretical_tail(rad, 1.0) == 1.0
    assert dist.theoretical_tail(rad, 1.0001) == 0.0


def test_theoretical_tail_gaussian_quadrature_oracle():
    # oracle: 2 * integral of the standard normal density over [u, inf)
    gauss = dist.DistributionSpec("gaussian-iid", 3)
    for u in (0.2, 1.0, 2.5):
        oracle, _ = integrate.quad(
            lambda x: 2 * math.exp(-x * x / 2) / math.sqrt(2 * math.pi), u, np.inf
        )
        assert dist.theoretical_tail(gauss, u) == pytest.approx(oracle, rel=1e-10)
    assert dist.theoretical_tail(gauss, 0.2) == pytest.approx(0.8415, abs=5e-5)


def _radial_tail_by_quad(n, eta, u):
    """Reference heavy-radial tail: adaptive quadrature of the same two
    pieces, split at the kink, with no absolute tolerance floor."""
    s0 = dist.pareto_threshold(eta)
    root_n = math.sqrt(n)
    opts = dict(epsabs=0.0, epsrel=1e-12, limit=200)

    def integrand(phi):
        s = u / (root_n * math.sin(phi))
        return (1.0 if s <= s0 else (s / s0) ** -(2 + eta)) * math.cos(phi) ** (n - 2)

    z_star = u / (root_n * s0)
    if z_star >= 1.0:
        val, _ = integrate.quad(integrand, 0.0, math.pi / 2, **opts)
    else:
        phi_star = math.asin(z_star)
        val = integrate.quad(integrand, 0.0, phi_star, **opts)[0]
        val += integrate.quad(lambda phi: math.cos(phi) ** (n - 2), phi_star, math.pi / 2, **opts)[0]
    return min(1.0, 2.0 * dist._sphere_proj_const(n) * val)


def test_theoretical_tail_radial_matches_adaptive_quadrature():
    """The fixed Gauss-Legendre rule agrees with adaptive quadrature to 1e-8
    relative over 648 points, also deep in the tail."""
    for n in (2, 3, 5, 10, 30, 100):
        for eta in (0.25, 0.5, 1.0, 2.0, 5.0, 20.0):
            spec = dist.DistributionSpec("heavy-radial", n, eta=eta)
            for u in np.geomspace(0.01, 30.0, 18):
                expected = _radial_tail_by_quad(n, eta, float(u))
                assert dist.theoretical_tail(spec, float(u)) == pytest.approx(expected, rel=1e-8), (n, eta, u)


def test_theoretical_tail_radial_matches_mc():
    spec = dist.DistributionSpec("heavy-radial", 7, eta=2.0)
    m = 400000
    x = dist.sample_matrix(spec, m, np.random.default_rng(3))
    proj = np.abs(x[:, 0])
    for u in (0.3, 1.0, 2.0):
        th = dist.theoretical_tail(spec, u)
        emp = float((proj >= u).mean())
        se = math.sqrt(th * (1 - th) / m)
        assert abs(emp - th) <= 4 * se, u


def test_marginal_moments_quadrature_oracle():
    # oracle: E|xi|^q = q int u^(q-1) P{|xi| >= u} du
    for spec in ALL_SPECS:
        for q in (1.0, 2.0):
            oracle, _ = integrate.quad(
                lambda u: q * u ** (q - 1) * dist.theoretical_tail(spec, u),
                0,
                np.inf,
                limit=300,
            )
            assert dist.marginal_abs_moment(spec, q) == pytest.approx(oracle, rel=1e-6), (
                spec.family,
                q,
            )


def test_closed_forms_match_scipy_special(monkeypatch):
    """math.erfc/math.lgamma stand in for scipy.special's erfc/gammaln; the
    reference is the same code with scipy.special's functions swapped back in."""
    specs = [
        dist.DistributionSpec("gaussian-iid", 6),
        dist.DistributionSpec("atomic-mixture", 6, mixture_p=0.3),
        dist.DistributionSpec("heavy-radial", 8, eta=5.0),
        dist.DistributionSpec("heavy-radial", 64, eta=5.0),
    ]
    u_grid, q_grid = (0.1, 0.5, 1.0, 2.0, 3.5, 5.0), (0.5, 1.0, 2.0, 3.0, 4.0, 6.5)

    def values():
        out = []
        for spec in specs:
            out += [dist.theoretical_tail(spec, u) for u in u_grid]
            out += [dist.marginal_abs_moment(spec, q) for q in q_grid]
        out += [dist._proj_abs_moment(n, q) for n in (2, 3, 8, 64) for q in q_grid]
        return out

    got = values()
    scipy_math = types.SimpleNamespace(**{k: v for k, v in vars(math).items() if not k.startswith("_")})
    scipy_math.erfc = lambda x: float(special.erfc(x))
    scipy_math.lgamma = lambda x: float(special.gammaln(x))
    monkeypatch.setattr(dist, "math", scipy_math)
    assert got == pytest.approx(values(), rel=1e-13, abs=0)


def test_marginal_moment_divergence():
    spec = dist.DistributionSpec("heavy-iid", 3, eta=1.0)
    assert dist.marginal_abs_moment(spec, 3.0) == math.inf


# The analytic band of an isotropic family: a = A = 1, and
# B = ||xi||_L2 / ||xi||_L1 = 1 / E|xi| for the coordinate marginal.


def test_analytic_band_gaussian():
    B = 1.0 / dist.marginal_abs_moment(dist.DistributionSpec("gaussian-iid", 4), 1.0)
    assert B == pytest.approx(math.sqrt(math.pi / 2), rel=1e-10)


def test_analytic_band_rademacher_coordinate():
    B = 1.0 / dist.marginal_abs_moment(dist.DistributionSpec("rademacher-vec", 4), 1.0)
    assert B == 1.0


def test_analytic_band_atomic_mixture():
    # B scales by 1/sqrt(1-p); at p = 0.5 that is sqrt(2) x the Gaussian B
    spec = dist.DistributionSpec("atomic-mixture", 4, mixture_p=0.5)
    B = 1.0 / dist.marginal_abs_moment(spec, 1.0)
    expected = math.sqrt(2.0) * math.sqrt(math.pi / 2)
    assert B == pytest.approx(expected, rel=1e-10)
    # MC validation of the L1 norm behind it
    x = dist.sample_matrix(spec, 300000, np.random.default_rng(2))
    l1 = float(np.abs(x[:, 0]).mean())
    assert 1.0 / l1 == pytest.approx(B, rel=0.02)


def test_covariance_band_validation():
    with pytest.raises(InvalidParameterError):
        bd.CovarianceBand(a=0.0, A=1.0, B=1.0)
    with pytest.raises(InvalidParameterError):
        bd.CovarianceBand(a=2.0, A=1.0, B=1.0)
    with pytest.raises(InvalidParameterError):
        bd.CovarianceBand(a=1.0, A=1.0, B=0.9)


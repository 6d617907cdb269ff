"""Tests for the small-ball sandwich: direction search, moment ratios,
Paley-Zygmund bounds, and the curve report."""

import math
import tracemalloc

import numpy as np
import pytest
from recorded_samples import recorded_sample_matrix

from lminlab import distributions as dist
from lminlab import smallball as sb
from lminlab.errors import InvalidParameterError, UnsupportedQueryError

GAUSS_ALPHA = math.sqrt(2 / math.pi)  # L1 norm of a standard normal
GAUSS_BETA2 = math.sqrt(math.pi / 2)


@pytest.fixture(scope="module")
def gauss_samples():
    spec = dist.DistributionSpec("gaussian-iid", 5)
    return dist.sample_matrix(spec, 200000, np.random.default_rng(31))


def test_q_direction_u_zero_is_one(gauss_samples):
    t = np.eye(5)[0]
    assert sb.q_direction(gauss_samples, t, 0.0) == 1.0


def test_q_direction_matches_quadrature(gauss_samples):
    spec = dist.DistributionSpec("gaussian-iid", 5)
    t = np.eye(5)[0]
    m = len(gauss_samples)
    for u in (0.2, 1.0):
        emp = sb.q_direction(gauss_samples, t, u)
        th = dist.theoretical_tail(spec, u)
        assert abs(emp - th) <= 3 * math.sqrt(th * (1 - th) / m)


def test_q_direction_atomic_mixture():
    spec = dist.DistributionSpec("atomic-mixture", 4, mixture_p=0.5)
    x = dist.sample_matrix(spec, 100000, np.random.default_rng(9))
    q = sb.q_direction(x, np.eye(4)[0], 0.01)
    # the atom at zero removes exactly p of the mass as u -> 0+
    assert q == pytest.approx(0.5, abs=0.02)


def test_q_direction_validates():
    x = np.ones((10, 2))
    with pytest.raises(InvalidParameterError):
        sb.q_direction(x, np.array([1.0, 1.0]), 0.1)  # not unit norm
    with pytest.raises(InvalidParameterError):
        sb.q_direction(x, np.array([1.0, 0.0]), -0.1)


def test_search_matches_coordinate_on_rotation_invariant(gauss_samples):
    # direction-independence: the search minimum equals the e1 value within noise
    q_e1 = sb.q_direction(gauss_samples, np.eye(5)[0], 0.3)
    q_min, t = sb.q_inf_search(gauss_samples, 0.3, budget=128, rng=4)
    se = math.sqrt(q_e1 * (1 - q_e1) / len(gauss_samples))
    assert q_min <= q_e1 + 1e-12
    assert q_min >= q_e1 - 5 * se
    assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-12)


def test_search_finds_degenerate_hyperplane():
    # X supported on a hyperplane: Q(u) = 0 at the normal direction
    rng = np.random.default_rng(5)
    x = np.zeros((50000, 3))
    x[:, :2] = rng.standard_normal((50000, 2))
    q, t = sb.q_inf_search(x, 0.1, budget=400, rng=4)
    assert q == 0.0
    assert abs(t[2]) > 0.99


def test_search_budget_one_is_single_random_direction(gauss_samples):
    q, t = sb.q_inf_search(gauss_samples, 0.4, budget=1, rng=123)
    # replicate the single direction the search draws
    rng = np.random.default_rng(123)
    g = rng.standard_normal((1, 5))
    d = g[0] / np.linalg.norm(g[0])
    assert np.allclose(t, d)
    assert q == sb.q_direction(gauss_samples, d, 0.4)


def test_search_dominates_coordinate_direction(gauss_samples):
    # budget large enough to include e1 in the pool
    q, _ = sb.q_inf_search(gauss_samples, 0.5, budget=64, rng=8)
    assert q <= sb.q_direction(gauss_samples, np.eye(5)[0], 0.5) + 1e-15


def test_search_monotone_in_u_for_fixed_pool(gauss_samples):
    # a budget covering exactly the base pool (no refinement) keeps the search
    # set identical across u
    n = gauss_samples.shape[1]
    budget = int(round(0.8 * 50)) + 2 * n  # all baseline directions, no refinement
    prev = 1.1
    for u in (0.1, 0.3, 0.6, 1.0, 1.8):
        q, _ = sb.q_inf_search(gauss_samples, u, budget=budget, rng=99)
        assert q <= prev + 1e-15
        prev = q


def test_moment_ratios_gaussian_analytic():
    r = sb.moment_ratios(dist.DistributionSpec("gaussian-iid", 5), p=2.0)
    assert r.alpha == pytest.approx(GAUSS_ALPHA, rel=1e-10)
    assert r.beta_p == pytest.approx(GAUSS_BETA2, rel=1e-10)


def test_moment_ratios_analytic_requires_rotation_invariance():
    with pytest.raises(UnsupportedQueryError):
        sb.moment_ratios(dist.DistributionSpec("rademacher-vec", 4), p=2.0)


def test_moment_ratios_empirical_close_to_analytic(gauss_samples):
    r = sb.moment_ratios(gauss_samples, p=2.0, budget=192, rng=6)
    assert r.alpha == pytest.approx(GAUSS_ALPHA, rel=0.02)
    assert r.beta_p == pytest.approx(GAUSS_BETA2, rel=0.02)
    assert r.beta_p >= 1.0
    assert not r.degenerate


def test_moment_ratios_rademacher_n1():
    spec = dist.DistributionSpec("rademacher-vec", 1)
    x = dist.sample_matrix(spec, 4000, np.random.default_rng(3))
    r = sb.moment_ratios(x, p=2.0, budget=32, rng=1)
    assert r.alpha == pytest.approx(1.0, abs=1e-12)
    assert r.beta_p == pytest.approx(1.0, abs=1e-12)


def test_moment_ratios_khintchine_extreme_direction():
    # sign vectors in the plane: the worst L2/L1 ratio over the sphere is
    # sqrt(2), attained at the diagonal; the search should find it
    spec = dist.DistributionSpec("rademacher-vec", 2)
    x = dist.sample_matrix(spec, 40000, np.random.default_rng(4))
    r = sb.moment_ratios(x, p=2.0, budget=256, rng=5)
    assert r.beta_p == pytest.approx(math.sqrt(2), abs=0.03)
    # in higher dimension the ratio stays below sqrt(2)
    x4 = dist.sample_matrix(dist.DistributionSpec("rademacher-vec", 4), 40000, np.random.default_rng(4))
    r4 = sb.moment_ratios(x4, p=2.0, budget=256, rng=5)
    assert r4.beta_p <= math.sqrt(2) + 0.03


def test_moment_ratios_degenerate_zero_vector():
    x = np.zeros((1000, 3))
    r = sb.moment_ratios(x, p=2.0, budget=32, rng=2)
    assert r.alpha == 0.0
    assert r.degenerate


def test_paley_zygmund_gaussian_number():
    r = sb.MomentRatios(alpha=GAUSS_ALPHA, beta_p=GAUSS_BETA2, p=2.0)
    val, vac = sb.paley_zygmund_lower(r, 0.2)
    assert not vac
    assert val == pytest.approx(0.357, abs=5e-4)
    # the bound sits below the true tail
    assert val <= dist.theoretical_tail(dist.DistributionSpec("gaussian-iid", 2), 0.2)


def test_paley_zygmund_limits_and_plugin():
    r = sb.MomentRatios(alpha=1.0, beta_p=1.0, p=2.0)
    assert sb.paley_zygmund_lower(r, 0.5).value == pytest.approx(0.25, abs=1e-15)
    # u -> 0 limit is (1/beta_p)^q
    r2 = sb.MomentRatios(alpha=1.0, beta_p=2.0, p=2.0)
    assert sb.paley_zygmund_lower(r2, 1e-12).value == pytest.approx(0.25, rel=1e-6)


def test_paley_zygmund_vacuous_beyond_alpha():
    r = sb.MomentRatios(alpha=0.5, beta_p=1.5, p=2.0)
    val, vac = sb.paley_zygmund_lower(r, 0.5)
    assert val == 0.0 and vac
    val, vac = sb.paley_zygmund_lower(r, 0.7)
    assert val == 0.0 and vac


def test_pz_sandwich_analytic_no_mc_noise():
    # quadrature-exact: PZ lower <= analytic tail on a grid, for every
    # rotation-invariant family
    for spec in (
        dist.DistributionSpec("gaussian-iid", 4),
        dist.DistributionSpec("heavy-radial", 4, eta=2.0),
        dist.DistributionSpec("atomic-mixture", 4, mixture_p=0.3),
    ):
        r = sb.moment_ratios(spec, p=2.0)
        for u in np.linspace(0.0, 1.2, 13):
            assert sb.paley_zygmund_lower(r, u).value <= dist.theoretical_tail(spec, u) + 1e-12


def test_pz_validity_on_empirical_data(gauss_samples):
    # empirical PZ bound never exceeds the empirical tail at the minimizing
    # direction by more than 3 binomial stderr
    r = sb.moment_ratios(gauss_samples, p=2.0, budget=128, rng=11)
    m = len(gauss_samples)
    for u in (0.1, 0.3, 0.5):
        pz = sb.paley_zygmund_lower(r, u).value
        q = sb.q_direction(gauss_samples, r.alpha_dir, u)
        assert pz <= q + 3 * math.sqrt(max(q * (1 - q), 1e-12) / m)


def test_curve_invariants_and_csv(tmp_path, gauss_samples):
    u_grid = [0.0, 0.1, 0.2, 0.4, 0.8, 1.6]
    curve = sb.small_ball_curve(gauss_samples, u_grid, budget=200, rng=12)
    assert curve.upper[0] == 1.0
    assert np.all(np.diff(curve.upper) <= 1e-15)
    assert np.all((curve.lower >= 0) & (curve.lower <= 1))
    se = curve.stderr()
    assert np.all(curve.lower <= curve.upper + 3 * se)
    norms = np.linalg.norm(curve.argmin_dirs, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)

    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "u,q_upper,q_lower,dir_index,stderr"
    assert len(lines) == 1 + len(u_grid)


def test_curve_rejects_bad_grid(gauss_samples):
    with pytest.raises(InvalidParameterError):
        sb.small_ball_curve(gauss_samples, [0.4, 0.2], budget=32, rng=1)
    with pytest.raises(InvalidParameterError):
        sb.small_ball_curve(gauss_samples, [], budget=32, rng=1)
    for bad in ([0.1, math.nan], [0.1, math.inf]):
        with pytest.raises(InvalidParameterError):
            sb.small_ball_curve(gauss_samples, bad, budget=32, rng=1)


# Seeded searches recorded before the refinement loops were folded into one
# helper: (family, spec kwargs, seed, curve upper, curve dir_indices,
# q_inf_search value, moment_ratios alpha, moment_ratios beta_p), floats in hex.
# n = 3 and these budgets leave refinement steps in every search, and several
# dir_indices point past the 102-direction base pool at refined candidates, so
# a change in the draw order or the keep rule moves these values.  Like every
# seeded output they hold for a fixed numpy/BLAS build (recorded on numpy 2.4.6,
# OpenBLAS 0.3.31), on the heavy-radial rows of ``recorded_sample_matrix``.
SEARCH_PINS = [
    ("gaussian-iid", {}, 1, ["0x1.c189374bc6a7fp-1", "0x1.47ae147ae147bp-1", "0x1.89374bc6a7efap-2"], [48, 107, 9], "0x1.1eb851eb851ecp-1", "0x1.8561a3bb487e7p-1", "0x1.483d154a7b5d8p+0"),
    ("gaussian-iid", {}, 2, ["0x1.cac083126e979p-1", "0x1.4ed916872b021p-1", "0x1.95810624dd2f2p-2"], [72, 46, 111], "0x1.2b020c49ba5e3p-1", "0x1.8b7256dbf11d6p-1", "0x1.48af05dcdf0a0p+0"),
    ("heavy-radial", {"eta": 3.0}, 1, ["0x1.ccccccccccccdp-1", "0x1.624dd2f1a9fbep-1", "0x1.c28f5c28f5c29p-2"], [48, 9, 106], "0x1.47ae147ae147bp-1", "0x1.895ace65a9781p-1", "0x1.360cf13db9489p+0"),
    ("heavy-radial", {"eta": 3.0}, 2, ["0x1.d2f1a9fbe76c9p-1", "0x1.6872b020c49bap-1", "0x1.ccccccccccccdp-2"], [80, 0, 60], "0x1.48b4395810625p-1", "0x1.97bcaf6dbcaeep-1", "0x1.3549bb68f4ad1p+0"),
    ("atomic-mixture", {"mixture_p": 0.5}, 1, ["0x1.c28f5c28f5c29p-2", "0x1.5604189374bc7p-2", "0x1.0000000000000p-2"], [113, 33, 66], "0x1.3d70a3d70a3d7p-2", "0x1.f9b0653741ccfp-2", "0x1.d77217416e5afp+0"),
    ("atomic-mixture", {"mixture_p": 0.5}, 2, ["0x1.ba5e353f7ced9p-2", "0x1.5810624dd2f1bp-2", "0x1.e353f7ced9168p-3"], [116, 42, 54], "0x1.45a1cac083127p-2", "0x1.feb75618394d2p-2", "0x1.db9b2b5c99444p+0"),
]


@pytest.mark.parametrize("family,kw,seed,upper,indices,q,alpha,beta", SEARCH_PINS)
def test_seeded_searches_pinned(family, kw, seed, upper, indices, q, alpha, beta):
    x = recorded_sample_matrix(dist.DistributionSpec(family, 3, **kw), 500, np.random.default_rng(seed))
    curve = sb.small_ball_curve(x, (0.1, 0.4, 0.8), budget=120, rng=seed)
    assert [v.hex() for v in curve.upper.tolist()] == upper
    assert curve.dir_indices.tolist() == indices
    assert sb.q_inf_search(x, 0.5, budget=64, rng=seed)[0].hex() == q
    r = sb.moment_ratios(x, p=2.0, budget=64, rng=seed)
    assert (r.alpha.hex(), r.beta_p.hex()) == (alpha, beta)


# Outputs of the estimators as they were before they walked the samples in
# row blocks, when they built the whole samples x directions matrix (recorded
# on numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread), floats in hex: curve
# upper, lower, dir_indices and argmin_dirs at u = 0.1/0.4/0.8; q_inf_search
# at u = 0.5 (value, direction); moment_ratios at p = 2 and p = 3 (alpha,
# beta_p, alpha_dir, beta_dir).  Budget 60 at n = 3 leaves 6 refinement steps
# and a 60-direction final pool; N = 3293 = 3 * (2**16 // 60) + 17 rows then
# span three full blocks and a ragged one, while 200 rows fit in one block.
# The heavy-radial rows come from ``recorded_sample_matrix``.
STREAMED_PINS = [
    (
        "heavy-radial", {"eta": 3.0}, 3, 3293,
        ["0x1.dbeda7385caabp-1", "0x1.76168b777cc61p-1", "0x1.f2c8b9f4a65d7p-2"],
        ["0x1.118b7d76d4a1ep-1", "0x1.78217c4586db2p-3", "0x1.519995e2eeabep-11"],
        [38, 38, 38],
        ["0x1.a2f1fd047dadep-2", "-0x1.94674aa2351cdp-1", "-0x1.d3dbef4e2d798p-2"] * 3,
        ("0x1.5725b447d5165p-1", ["-0x1.10a3926dd0b4ep-1", "0x1.7a7c4634fc604p-1", "0x1.a6303d23d6c23p-2"]),
        [
            ["0x1.a58900fbb7e40p-1", "0x1.33bb3bf2274f3p+0", "-0x1.c3f83f42a2a9ep-2", "0x1.8270c7c06a01cp-1",
             "0x1.f0f1e1f55ebbcp-2", "-0x1.c3f83f42a2a9ep-2", "0x1.8270c7c06a01cp-1", "0x1.f0f1e1f55ebbcp-2"],
            ["0x1.a5be66495d350p-1", "0x1.629285895b286p+0", "-0x1.8c44798914784p-2", "0x1.9c6a0604f5c06p-1",
             "0x1.cb9269147049bp-2", "0x1.94d667489645dp-2", "0x1.c667c47c60470p-1", "0x1.e4c017d34b840p-3"],
        ],
    ),
    (
        "gaussian-iid", {}, 4, 200,
        ["0x1.b851eb851eb85p-1", "0x1.3851eb851eb85p-1", "0x1.6666666666666p-2"],
        ["0x1.bea67e23803fap-2", "0x1.b1d2c6aa928f5p-4", "0x0.0p+0"],
        [50, 50, 3],
        ["0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"] * 2
        + ["0x1.c353f8a221641p-2", "0x1.8b220705c5fa3p-1", "-0x1.5716aeef90730p-2", "0x1.4063980af6972p-2"],
        ("0x1.1c28f5c28f5c3p-1", ["0x1.02edb8f968f15p-1", "0x1.e54a95c510837p-2", "-0x1.5f17c7bb0524ep-1", "0x1.c74ff9de4c8ffp-3"]),
        [
            ["0x1.61d2e9d3d1b84p-1", "0x1.4b8f816360ee5p+0", "0x1.ac39545b02f02p-1", "-0x1.00cb966bc088fp-2",
             "0x1.286e4be76a031p-4", "-0x1.ed98a3bfdd7cbp-2", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"],
            ["0x1.681d6f957c1d2p-1", "0x1.8b2e4aeebcfbap+0", "0x1.1210d9ff04fedp-1", "-0x1.7db4efad767eep-1",
             "-0x1.f17fb11d5e24ap-3", "-0x1.41a363bf69b5fp-2", "0x1.0069f56eca053p-2", "0x1.3653142ddb74dp-1",
             "0x1.68d1bec464f64p-1", "-0x1.153caaff3dad6p-2"],
        ],
    ),
]


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("family,kw,n,N,upper,lower,indices,argmin_dirs,q,ratios", STREAMED_PINS)
def test_streamed_estimators_reproduce_dense_outputs(family, kw, n, N, upper, lower, indices, argmin_dirs, q, ratios):
    x = recorded_sample_matrix(dist.DistributionSpec(family, n, **kw), N, np.random.default_rng(7))
    if N > 1000:
        assert N > 3 * (sb._BLOCK_ELEMENTS // 60)
    curve = sb.small_ball_curve(x, (0.1, 0.4, 0.8), budget=60, rng=8)
    assert _hex(curve.upper) == upper and _hex(curve.lower) == lower
    assert curve.dir_indices.tolist() == indices and _hex(curve.argmin_dirs) == argmin_dirs
    value, direction = sb.q_inf_search(x, 0.5, budget=60, rng=9)
    assert (value.hex(), _hex(direction)) == q
    for p, seed, expected in zip((2.0, 3.0), (10, 11), ratios):
        r = sb.moment_ratios(x, p=p, budget=60, rng=seed)
        assert _hex([r.alpha, r.beta_p]) + _hex(r.alpha_dir) + _hex(r.beta_dir) == expected


def test_curve_memory_bounded_by_block():
    """The dense curve held 100 000 x 253 projections twice over (about
    580 MB at its peak); the streamed one holds a block at a time."""
    x = dist.sample_matrix(dist.DistributionSpec("heavy-radial", 8, eta=3.0), 100_000, np.random.default_rng(5))
    tracemalloc.start()
    try:
        sb.small_ball_curve(x, (0.1, 0.2, 0.4, 0.8), budget=256, rng=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak

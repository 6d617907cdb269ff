"""Tests for the small-ball sandwich: direction search, moment ratios,
Paley-Zygmund bounds, and the curve report."""

import math
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from recorded_samples import recorded_sample_matrix

from lminlab import distributions as dist
from lminlab import experiments as ex
from lminlab import smallball as sb
from lminlab.errors import InvalidInputError, InvalidParameterError, UnsupportedQueryError

GAUSS_ALPHA = math.sqrt(2 / math.pi)  # L1 norm of a standard normal


@pytest.fixture(scope="module")
def gauss_samples():
    spec = dist.DistributionSpec("gaussian-iid", 5)
    return dist.sample_matrix(spec, 200000, np.random.default_rng(31))


def _tail(samples, t, u):
    """Empirical fraction of draws with |<X_i, t>| >= u."""
    return sb._marginals(samples, t[None], [u]).tail[0, 0]


def test_q_direction_u_zero_is_one(gauss_samples):
    t = np.eye(5)[0]
    assert _tail(gauss_samples, t, 0.0) == 1.0


def test_q_direction_matches_quadrature(gauss_samples):
    spec = dist.DistributionSpec("gaussian-iid", 5)
    t = np.eye(5)[0]
    m = len(gauss_samples)
    for u in (0.2, 1.0):
        emp = _tail(gauss_samples, t, u)
        th = dist.theoretical_tail(spec, u)
        assert abs(emp - th) <= 3 * math.sqrt(th * (1 - th) / m)


def test_q_direction_atomic_mixture():
    spec = dist.DistributionSpec("atomic-mixture", 4, mixture_p=0.5)
    x = dist.sample_matrix(spec, 100000, np.random.default_rng(9))
    q = _tail(x, np.eye(4)[0], 0.01)
    # the atom at zero removes exactly p of the mass as u -> 0+
    assert q == pytest.approx(0.5, abs=0.02)


def test_search_matches_coordinate_on_rotation_invariant(gauss_samples):
    # direction-independence: the search minimum equals the e1 value within noise
    q_e1 = _tail(gauss_samples, np.eye(5)[0], 0.3)
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
    assert q == _tail(gauss_samples, d, 0.4)


def test_search_dominates_coordinate_direction(gauss_samples):
    # budget large enough to include e1 in the pool
    q, _ = sb.q_inf_search(gauss_samples, 0.5, budget=64, rng=8)
    assert q <= _tail(gauss_samples, np.eye(5)[0], 0.5) + 1e-15


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
    r = sb.moment_ratios(dist.DistributionSpec("gaussian-iid", 5))
    assert r.alpha == pytest.approx(GAUSS_ALPHA, rel=1e-10)


def test_moment_ratios_analytic_requires_rotation_invariance():
    with pytest.raises(UnsupportedQueryError):
        sb.moment_ratios(dist.DistributionSpec("rademacher-vec", 4))


def test_moment_ratios_empirical_close_to_analytic(gauss_samples):
    r = sb.moment_ratios(gauss_samples, budget=192, rng=6)
    assert r.alpha == pytest.approx(GAUSS_ALPHA, rel=0.02)


def test_moment_ratios_rademacher_n1():
    spec = dist.DistributionSpec("rademacher-vec", 1)
    x = dist.sample_matrix(spec, 4000, np.random.default_rng(3))
    r = sb.moment_ratios(x, budget=32, rng=1)
    assert r.alpha == pytest.approx(1.0, abs=1e-12)


def test_moment_ratios_khintchine_extreme_direction():
    # Szarek's constant: E|sum t_i eps_i| >= 1/sqrt(2) on the unit sphere,
    # with equality at (e_1 + e_2)/sqrt(2); the search should come close
    # to it in the plane and in dimension 4
    for n in (2, 4):
        x = dist.sample_matrix(dist.DistributionSpec("rademacher-vec", n), 40000, np.random.default_rng(4))
        r = sb.moment_ratios(x, budget=256, rng=5)
        assert r.alpha == pytest.approx(1 / math.sqrt(2), abs=0.03)


def test_moment_ratios_degenerate_zero_vector():
    x = np.zeros((1000, 3))
    r = sb.moment_ratios(x, budget=32, rng=2)
    assert r.alpha == 0.0


def test_paley_zygmund_gaussian_number():
    r = sb.MomentRatios(alpha=GAUSS_ALPHA)
    val = sb.paley_zygmund_lower(r, 0.2)
    assert val == pytest.approx(0.357, abs=5e-4)
    # the bound sits below the true tail
    assert val <= dist.theoretical_tail(dist.DistributionSpec("gaussian-iid", 2), 0.2)


def test_paley_zygmund_limits_and_plugin():
    r = sb.MomentRatios(alpha=1.0)
    assert sb.paley_zygmund_lower(r, 0.5) == pytest.approx(0.25, abs=1e-15)
    # u -> 0 limit is alpha^2
    r2 = sb.MomentRatios(alpha=0.5)
    assert sb.paley_zygmund_lower(r2, 1e-12) == pytest.approx(0.25, rel=1e-6)


def test_paley_zygmund_vacuous_beyond_alpha():
    r = sb.MomentRatios(alpha=0.5)
    assert sb.paley_zygmund_lower(r, 0.5) == 0.0
    assert sb.paley_zygmund_lower(r, 0.7) == 0.0


@pytest.mark.parametrize("u", [-0.1, math.nan])
def test_paley_zygmund_refuses_negative_or_nan_u(u):
    with pytest.raises(InvalidParameterError):
        sb.paley_zygmund_lower(sb.MomentRatios(alpha=0.5), u)


def test_pz_sandwich_analytic_no_mc_noise():
    # quadrature-exact: PZ lower <= analytic tail on a grid, for every
    # rotation-invariant family
    for spec in (
        dist.DistributionSpec("gaussian-iid", 4),
        dist.DistributionSpec("heavy-radial", 4, eta=2.0),
        dist.DistributionSpec("atomic-mixture", 4, mixture_p=0.3),
    ):
        r = sb.moment_ratios(spec)
        for u in np.linspace(0.0, 1.2, 13):
            assert sb.paley_zygmund_lower(r, u) <= dist.theoretical_tail(spec, u) + 1e-12


def test_pz_validity_on_empirical_data(gauss_samples):
    # empirical PZ bound never exceeds the empirical tail at the minimizing
    # direction by more than 3 binomial stderr
    r = sb.moment_ratios(gauss_samples, budget=128, rng=11)
    m = len(gauss_samples)
    for u in (0.1, 0.3, 0.5):
        pz = sb.paley_zygmund_lower(r, u)
        q = _tail(gauss_samples, r.alpha_dir, u)
        assert pz <= q + 3 * math.sqrt(max(q * (1 - q), 1e-12) / m)


@pytest.mark.parametrize(
    "family,kw",
    [("gaussian-iid", {}), ("heavy-radial", {"eta": 5.0}), ("atomic-mixture", {"mixture_p": 0.3})],
    ids=["gaussian-iid", "heavy-radial", "atomic-mixture"],
)
def test_curve_lower_side_below_exact_tail(family, kw):
    # a searched alpha overestimates the infimum, but on these isotropic
    # families the Paley-Zygmund lower side still sits below the exact Q
    spec = dist.DistributionSpec(family, 4, **kw)
    x = dist.sample_matrix(spec, 20000, np.random.default_rng(13))
    u_grid = np.linspace(0.0, 1.2, 13)
    curve = sb.small_ball_curve(x, u_grid, budget=64, rng=14)
    exact = np.array([dist.theoretical_tail(spec, u) for u in u_grid])
    assert np.all(curve.lower <= exact)


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

    # the CSV table of the curve, as ``lminlab smallball`` writes it, reads
    # back bit for bit
    path = tmp_path / "curve.csv"
    ex.write_table(zip(curve.u_grid, curve.upper, curve.lower, curve.dir_indices, se), path)
    table = np.loadtxt(path, delimiter=",", ndmin=2)
    assert table.shape == (len(u_grid), 5)
    for column, values in zip(table.T, (curve.u_grid, curve.upper, curve.lower, curve.dir_indices, se)):
        assert np.array_equal(column, values)


def test_curve_rejects_bad_grid(gauss_samples):
    with pytest.raises(InvalidParameterError):
        sb.small_ball_curve(gauss_samples, [0.4, 0.2], budget=32, rng=1)
    with pytest.raises(InvalidParameterError):
        sb.small_ball_curve(gauss_samples, [], budget=32, rng=1)
    for bad in ([0.1, math.nan], [0.1, math.inf]):
        with pytest.raises(InvalidParameterError):
            sb.small_ball_curve(gauss_samples, bad, budget=32, rng=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_estimators_refuse_non_finite_samples(bad):
    x = np.ones((50, 3))
    x[17, 1] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        sb.small_ball_curve(x, [0.1, 0.5], budget=32, rng=1)
    with pytest.raises(InvalidInputError, match="finite"):
        sb.moment_ratios(x, budget=32, rng=1)


# Seeded searches recorded before the refinement loops were folded into one
# helper: (family, spec kwargs, seed, curve upper, curve dir_indices,
# q_inf_search value, moment_ratios alpha), floats in hex.  The alphas were
# re-recorded when the alpha search became the only chain of moment_ratios.
# n = 3 and these budgets leave refinement steps in every search, and several
# dir_indices point past the 102-direction base pool at refined candidates, so
# a change in the draw order or the keep rule moves these values.  Like every
# seeded output they hold for a fixed numpy/BLAS build (recorded on numpy 2.4.6,
# OpenBLAS 0.3.31), on the heavy-radial rows of ``recorded_sample_matrix``.
SEARCH_PINS = [
    ("gaussian-iid", {}, 1, ["0x1.c189374bc6a7fp-1", "0x1.47ae147ae147bp-1", "0x1.89374bc6a7efap-2"], [48, 107, 9], "0x1.1eb851eb851ecp-1", "0x1.8561a3bb487e7p-1"),
    ("gaussian-iid", {}, 2, ["0x1.cac083126e979p-1", "0x1.4ed916872b021p-1", "0x1.95810624dd2f2p-2"], [72, 46, 111], "0x1.2b020c49ba5e3p-1", "0x1.8b1eb6eec238cp-1"),
    ("heavy-radial", {"eta": 3.0}, 1, ["0x1.ccccccccccccdp-1", "0x1.624dd2f1a9fbep-1", "0x1.c28f5c28f5c29p-2"], [48, 9, 106], "0x1.47ae147ae147bp-1", "0x1.895ace65a9781p-1"),
    ("heavy-radial", {"eta": 3.0}, 2, ["0x1.d2f1a9fbe76c9p-1", "0x1.6872b020c49bap-1", "0x1.ccccccccccccdp-2"], [80, 0, 60], "0x1.48b4395810625p-1", "0x1.97bcaf6dbcaeep-1"),
    ("atomic-mixture", {"mixture_p": 0.5}, 1, ["0x1.c28f5c28f5c29p-2", "0x1.5604189374bc7p-2", "0x1.0000000000000p-2"], [113, 33, 66], "0x1.3d70a3d70a3d7p-2", "0x1.f9b0653741ccfp-2"),
    ("atomic-mixture", {"mixture_p": 0.5}, 2, ["0x1.ba5e353f7ced9p-2", "0x1.5810624dd2f1bp-2", "0x1.e353f7ced9168p-3"], [116, 42, 54], "0x1.45a1cac083127p-2", "0x1.00a0af2855648p-1"),
]


@pytest.mark.parametrize("family,kw,seed,upper,indices,q,alpha", SEARCH_PINS)
def test_seeded_searches_pinned(family, kw, seed, upper, indices, q, alpha):
    x = recorded_sample_matrix(dist.DistributionSpec(family, 3, **kw), 500, np.random.default_rng(seed))
    curve = sb.small_ball_curve(x, (0.1, 0.4, 0.8), budget=120, rng=seed)
    assert [v.hex() for v in curve.upper.tolist()] == upper
    assert curve.dir_indices.tolist() == indices
    assert sb.q_inf_search(x, 0.5, budget=64, rng=seed)[0].hex() == q
    r = sb.moment_ratios(x, budget=64, rng=seed)
    assert r.alpha.hex() == alpha


# Outputs of the estimators as they were before they walked the samples in
# row blocks, when they built the whole samples x directions matrix (recorded
# on numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread), floats in hex: curve
# upper, lower, dir_indices and argmin_dirs at u = 0.1/0.4/0.8; q_inf_search
# at u = 0.5 (value, direction); moment_ratios (alpha, alpha_dir).  The curve's
# lower column was re-recorded when the lower side became (alpha - u)^2; the
# alpha and alpha_dir pins did not move.  Budget 60 at n = 3 leaves 6
# refinement steps and a 60-direction final pool; N = 3293 =
# 3 * (2**16 // 60) + 17 rows then span three full blocks and a ragged one,
# while 200 rows fit in one block.
# The heavy-radial rows come from ``recorded_sample_matrix``.
STREAMED_PINS = [
    (
        "heavy-radial", {"eta": 3.0}, 3, 3293,
        ["0x1.dbeda7385caabp-1", "0x1.76168b777cc61p-1", "0x1.f2c8b9f4a65d7p-2"],
        ["0x1.0d4019be417b7p-1", "0x1.7239cc607acd4p-3", "0x1.4c4cc17634f56p-11"],
        [38, 38, 38],
        ["0x1.a2f1fd047dadep-2", "-0x1.94674aa2351cdp-1", "-0x1.d3dbef4e2d798p-2"] * 3,
        ("0x1.5725b447d5165p-1", ["-0x1.10a3926dd0b4ep-1", "0x1.7a7c4634fc604p-1", "0x1.a6303d23d6c23p-2"]),
        ["0x1.a58900fbb7e40p-1", "-0x1.c3f83f42a2a9ep-2", "0x1.8270c7c06a01cp-1", "0x1.f0f1e1f55ebbcp-2"],
    ),
    (
        "gaussian-iid", {}, 4, 200,
        ["0x1.b851eb851eb85p-1", "0x1.3851eb851eb85p-1", "0x1.6666666666666p-2"],
        ["0x1.6634023c79c56p-2", "0x1.5bea8b6d964eap-4", "0x0.0p+0"],
        [50, 50, 3],
        ["0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"] * 2
        + ["0x1.c353f8a221641p-2", "0x1.8b220705c5fa3p-1", "-0x1.5716aeef90730p-2", "0x1.4063980af6972p-2"],
        ("0x1.1c28f5c28f5c3p-1", ["0x1.02edb8f968f15p-1", "0x1.e54a95c510837p-2", "-0x1.5f17c7bb0524ep-1", "0x1.c74ff9de4c8ffp-3"]),
        ["0x1.61d2e9d3d1b84p-1", "0x1.ac39545b02f02p-1", "-0x1.00cb966bc088fp-2", "0x1.286e4be76a031p-4",
         "-0x1.ed98a3bfdd7cbp-2"],
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
    r = sb.moment_ratios(x, budget=60, rng=10)
    assert _hex([r.alpha]) + _hex(r.alpha_dir) == ratios


def test_curve_projects_each_direction_once(monkeypatch):
    # n = 8 and budget 256: a 221-direction base pool, 4 x 8 refinement
    # candidates, and the 221-direction pool of the alpha search
    x = dist.sample_matrix(dist.DistributionSpec("heavy-radial", 8, eta=3.0), 2000, np.random.default_rng(5))
    projected = []
    marginals = sb._marginals

    def recording(samples, dirs, *args, **kwargs):
        projected.append(dirs.shape[0])
        return marginals(samples, dirs, *args, **kwargs)

    monkeypatch.setattr(sb, "_marginals", recording)
    sb.small_ball_curve(x, (0.1, 0.2, 0.4, 0.8), budget=256, rng=6)
    # the moment ratios run beside the tail search, so the order is not defined
    assert sorted(projected) == [32, 221, 221]


@pytest.mark.parametrize(
    "n,N,block_rows",
    [(1, 70_000, None), (3, 2 * 255 + 7, 255), (3, 2 * 256 + 7, 256), (3, 2 * 257 + 7, 257), (3, 2 * 511 + 7, 511)],
    ids=["one-direction-70000-rows", "blocks-of-255", "blocks-of-256", "blocks-of-257", "blocks-of-511"],
)
def test_marginals_tails_equal_dense_counts(monkeypatch, n, N, block_rows):
    """The folded byte counter equals the dense count, also where every row
    passes u = 0 and a cell's count would overflow a byte."""
    if block_rows is not None:
        monkeypatch.setattr(sb, "_BLOCK_ELEMENTS", block_rows * n)
    rng = np.random.default_rng(N)
    x = rng.standard_normal((N, 2))
    dirs = rng.standard_normal((n, 2))
    us = (0.0, 0.3, 1.0)
    dense = np.stack([(np.abs(x @ dirs.T) >= u).sum(axis=0) for u in us])
    assert np.array_equal(sb._marginals(x, dirs, us).tail, dense / N)
    assert sb._marginals(x, dirs).tail.shape == (0, n)


class _InlineExecutor:
    """Stand-in for the curve's one-worker pool that runs the submitted call
    on the calling thread, when it is submitted or when its result is read."""

    def __init__(self, run_at):
        self.run_at = run_at

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        if self.run_at == "submit":
            future.set_result(fn(*args, **kwargs))
        else:
            future.result = lambda: fn(*args, **kwargs)
        return future


@pytest.mark.parametrize("run_at", ["submit", "result"])
def test_curve_without_worker_thread_is_identical(monkeypatch, run_at):
    """The moment ratios give the same curve and leave the generator in the
    same state whether they run on the worker, before the tail search or
    after it."""
    x = dist.sample_matrix(dist.DistributionSpec("heavy-radial", 8, eta=3.0), 3000, np.random.default_rng(5))

    def curve():
        rng = np.random.default_rng(6)
        c = sb.small_ball_curve(x, (0.1, 0.2, 0.4, 0.8), budget=256, rng=rng)
        return c, rng.bit_generator.state

    threaded, threaded_state = curve()
    monkeypatch.setattr(sb, "ThreadPoolExecutor", lambda max_workers: _InlineExecutor(run_at))
    inline, inline_state = curve()
    for name in ("upper", "lower", "argmin_dirs", "dir_indices"):
        assert np.array_equal(getattr(threaded, name), getattr(inline, name)), name
    assert threaded_state == inline_state


def test_generator_after_curve_pinned():
    # the next draw after a seeded curve, recorded before the beta_p search
    # was deleted: the curve draws the same shapes, so it must not move
    x = recorded_sample_matrix(dist.DistributionSpec("heavy-radial", 3, eta=3.0), 3293, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    sb.small_ball_curve(x, (0.1, 0.4, 0.8), budget=60, rng=rng)
    assert rng.random().hex() == "0x1.bbb8dcd750d5cp-3"


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

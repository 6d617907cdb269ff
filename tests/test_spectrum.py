"""Tests for matrix assembly and extreme singular values."""

import math

import numpy as np
import pytest

from lminlab import blas, cli
from lminlab import distributions as dist
from lminlab import spectrum as sp
from lminlab.errors import InvalidInputError, InvalidParameterError
from lminlab.streams import SeedRecord


def _matrix(values) -> sp.SampleMatrix:
    values = np.asarray(values, dtype=float)
    return sp.SampleMatrix(values.shape[0], values.shape[1], values, SeedRecord(0))


def test_assemble_deterministic_and_scaled():
    spec = dist.DistributionSpec("rademacher-vec", 2)
    m1 = sp.assemble(spec, 2, seed=7)
    m2 = sp.assemble(spec, 2, seed=7)
    assert np.array_equal(m1.values, m2.values)
    assert np.allclose(np.abs(m1.values), 1 / np.sqrt(2))


def test_assemble_row_norms_isotropy():
    spec = dist.DistributionSpec("gaussian-iid", 100)
    m = sp.assemble(spec, 1600, seed=3)
    # E ||row||^2 = n/N for rows X_i/sqrt(N)
    mean_sq = (m.values**2).sum(axis=1).mean()
    assert mean_sq == pytest.approx(100 / 1600, rel=0.05)


def test_gram_matches_double_loop_oracle():
    rng = np.random.default_rng(11)
    m = _matrix(rng.standard_normal((5, 3)))
    g = sp.gram(m)
    oracle = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            oracle[i, j] = sum(m.values[k, i] * m.values[k, j] for k in range(5))
    assert np.abs(g - oracle).max() <= 1e-12
    assert np.array_equal(g, g.T)


def test_gram_rank_one():
    g = sp.gram(_matrix([[1.0, 0.0]]))
    assert np.allclose(g, [[1.0, 0.0], [0.0, 0.0]])


def test_lambda_extremes_diagonal():
    # rows diag(3,1)/sqrt(2): singular values 3/sqrt(2), 1/sqrt(2)
    m = _matrix(np.diag([3.0, 1.0]) / np.sqrt(2))
    r = sp.lambda_extremes(m)
    assert r.lambda_max == pytest.approx(3 / np.sqrt(2), rel=1e-12)
    assert r.lambda_min == pytest.approx(1 / np.sqrt(2), rel=1e-12)
    assert r.residual <= 1e-8


def test_lambda_extremes_rank_deficient_exact_zero():
    m = _matrix([[1.0, 0.0]])
    assert sp.lambda_extremes(m).lambda_min == 0.0


def test_lambda_extremes_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        _matrix([[np.nan, 0.0]])


def test_scaling_equivariance():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((12, 6))
    r1 = sp.lambda_extremes(_matrix(vals))
    r2 = sp.lambda_extremes(_matrix(2.5 * vals))
    assert r2.lambda_min == pytest.approx(2.5 * r1.lambda_min, rel=1e-10)
    assert r2.lambda_max == pytest.approx(2.5 * r1.lambda_max, rel=1e-10)


def test_orthogonal_invariance():
    rng = np.random.default_rng(6)
    vals = rng.standard_normal((12, 6))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    r1 = sp.lambda_extremes(_matrix(vals))
    r2 = sp.lambda_extremes(_matrix(vals @ q))
    assert r2.lambda_min == pytest.approx(r1.lambda_min, abs=1e-10)
    assert r2.lambda_max == pytest.approx(r1.lambda_max, abs=1e-10)


def test_variational_consistency():
    rng = np.random.default_rng(8)
    m = _matrix(rng.standard_normal((30, 7)))
    r = sp.lambda_extremes(m)
    for _ in range(50):
        t = rng.standard_normal(7)
        t /= np.linalg.norm(t)
        norm = np.linalg.norm(m.values @ t)
        assert r.lambda_min - 1e-10 <= norm <= r.lambda_max + 1e-10


def test_inertia_bracket_exact_diagonal_gram():
    g = np.diag([4.0, 1.0, 0.25])
    w = sp._BRACKET_K * 3 * np.finfo(float).eps * 4.0
    assert sp.inertia_bracket(g, 0.25) == w
    assert sp.inertia_bracket(g, 4.0, upper=True) == w
    # an interior eigenvalue, or an end moved by more than w, does not bracket
    assert sp.inertia_bracket(g, 1.0) is None
    assert sp.inertia_bracket(g, 1.0, upper=True) is None
    for shift in (-4 * w, 4 * w):
        assert sp.inertia_bracket(g, 0.25 + shift) is None
        assert sp.inertia_bracket(g, 4.0 + shift, upper=True) is None


def test_inertia_bracket_rank_deficient_gram_at_zero():
    # N < n: a 3 x 6 matrix has a Gram of rank 3, reported as lambda_min = 0
    m = _matrix(np.random.default_rng(4).standard_normal((3, 6)) / np.sqrt(3))
    g = sp.gram(m)
    r = sp.lambda_extremes(m, vectors=False)
    assert r.lambda_min == 0.0
    assert sp.inertia_bracket(g, 0.0) is not None
    assert sp.inertia_bracket(g, r.lambda_max**2, upper=True) is not None
    assert sp.inertia_bracket(g, 1e-6 * r.lambda_max**2) is None


def test_power_iteration_diagonal():
    m = _matrix([[2.0, 0.0], [0.0, 1.0]])  # gram diag(4, 1)
    assert sp.lambda_min_power(m) == pytest.approx(1.0, rel=1e-10)


def test_power_iteration_cross_method_battery():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = _matrix(rng.standard_normal((20, 10)) / np.sqrt(20))
        r = sp.lambda_extremes(m)
        p = sp.lambda_min_power(m)
        assert p == pytest.approx(r.lambda_min**2, rel=1e-8)


def test_power_iteration_multiplicity_two():
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    g = q @ np.diag([0.4, 0.4, 1.0, 2.0, 3.0]) @ q.T
    vals = np.linalg.cholesky(g).T
    assert sp.lambda_min_power(_matrix(vals)) == pytest.approx(0.4, rel=1e-9)


def _singular(column: str) -> sp.SampleMatrix:
    values = np.array([[1, 2, 0, 1], [3, 1, 1, 0], [0, 2, 2, 1], [1, 1, 0, 4], [2, 0, 1, 1], [1, 3, 1, 2]], float)
    if column == "zero":
        values[:, 2] = 0.0
    else:
        values[:, 3] = values[:, 1]
    return _matrix(values)


@pytest.mark.parametrize("column", ["zero", "duplicate"])
def test_power_iteration_singular_gram(column):
    with pytest.raises(InvalidInputError, match="gram not invertible"):
        sp.lambda_min_power(_singular(column))


def test_power_iteration_duplicated_column_battery():
    """A duplicated column makes the Gram singular.  LU seldom meets an
    exactly zero pivot there, so the estimate's round-off level must catch
    what it lets through: every matrix raises, none returns round-off."""
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        N = int(rng.integers(n, 4 * n + 1))
        values = rng.standard_normal((N, n)) / np.sqrt(N)
        j, k = rng.choice(n, 2, replace=False)
        values[:, k] = values[:, j]
        with pytest.raises(InvalidInputError, match="gram"):
            sp.lambda_min_power(_matrix(values))


def test_spectrum_power_on_wide_matrix_exits_2(tmp_path, capsys):
    """N < n: the Gram is singular, so ``--power`` has no eigenvalue to report."""
    matrix = tmp_path / "m.bin"
    argv = ["sample", "--family", "gaussian-iid", "--n", "10", "--N", "4", "--seed", "1", "--out", str(matrix)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(["spectrum", "--matrix", str(matrix), "--power"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: gram") and captured.out == ""


@pytest.mark.filterwarnings("error")
def test_power_iteration_rejects_overflowing_gram():
    with pytest.raises(InvalidInputError, match="non-finite"):
        sp.lambda_min_power(_matrix(np.eye(3) * 1e200))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("vectors", [True, False])
def test_extremes_reject_overflowing_gram(vectors):
    """``gram`` holds the finite check, so every spectral path shares it."""
    with pytest.raises(InvalidInputError, match="non-finite"):
        sp.lambda_extremes(_matrix(np.eye(3) * 1e200), vectors=vectors)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_overflowing_gram_exits_2(tmp_path, capsys, fmt):
    path, out = tmp_path / "big.bin", tmp_path / "out.txt"
    _matrix(np.eye(3) * 1e200).save(path)
    assert cli.main(["spectrum", "--matrix", str(path), "--format", fmt, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: gram has non-finite entries\n" and captured.out == ""
    assert not out.exists()


def test_eigenvalue_only_solve_matches_eigh():
    """Sweep trials solve with ``eigvalsh``; over 200 seeded Grams of each
    benchmark shape its extremes agree with the ``eigh`` path's to 1e-13."""
    worst = 0.0
    with blas._single_threaded_blas:
        for spec, N in (
            (dist.DistributionSpec("gaussian-iid", 100), 1600),
            (dist.DistributionSpec("heavy-radial", 64, eta=5.0), 2048),
        ):
            for seed in range(200):
                m = sp.assemble(spec, N, seed)
                full, fast = sp.lambda_extremes(m), sp.lambda_extremes(m, vectors=False)
                assert math.isnan(fast.residual) and full.residual <= 1e-12
                for a, b in ((full.lambda_min, fast.lambda_min), (full.lambda_max, fast.lambda_max)):
                    worst = max(worst, abs(a - b) / a)
    assert worst <= 1e-13, worst


def test_eigenvalue_only_solve_rank_deficient_and_clamped():
    m = _matrix([[1.0, 0.0]])
    r = sp.lambda_extremes(m, vectors=False)
    assert (r.lambda_min, r.lambda_max) == (0.0, 1.0)
    assert sp.lambda_extremes(_matrix(np.zeros((3, 2))), vectors=False).lambda_min == 0.0


def test_gram_singular_to_round_off_reports_exact_zero():
    # an atomic-mixture row is 0 with probability p, so at n = 5, N = 8 about
    # a fifth of the trials have fewer than 5 nonzero rows and a singular
    # Gram, whose smallest eigenvalue comes out as round-off of either sign
    spec = dist.DistributionSpec("atomic-mixture", 5, mixture_p=0.3)
    deficient = 0
    for t in range(3000):
        m = sp.assemble(spec, 8, SeedRecord(11, 0, t))
        full_rank = np.count_nonzero(np.any(m.values != 0.0, axis=1)) >= 5
        deficient += not full_rank
        g = sp.gram(m)
        for vectors, smallest in ((True, np.linalg.eigh(g)[0][0]), (False, np.linalg.eigvalsh(g)[0])):
            lambda_min = sp.lambda_extremes(m, vectors=vectors).lambda_min
            # a full-rank trial keeps the plain root of its smallest eigenvalue
            assert lambda_min == (math.sqrt(smallest) if full_rank else 0.0)
            assert lambda_min > 0.0 or not full_rank
    assert deficient > 300


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("column", ["zero", "duplicate"])
def test_spectrum_power_singular_gram_exits_2(tmp_path, capsys, column):
    """A singular Gram is an input error, reported without a warning."""
    path = tmp_path / "m.bin"
    _singular(column).save(path)
    assert cli.main(["spectrum", "--matrix", str(path), "--power"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: gram not invertible") and captured.err.count("\n") == 1


def test_gaussian_median_near_asymptotic_edge():
    # n=100, N=1600: median lambda_min over 200 trials near 1 - sqrt(beta)
    spec = dist.DistributionSpec("gaussian-iid", 100)
    lmins = []
    for t in range(200):
        m = sp.assemble(spec, 1600, SeedRecord(42, 0, t))
        lmins.append(sp.lambda_extremes(m).lambda_min)
    assert abs(float(np.median(lmins)) - 0.75) <= 0.05


def test_save_load_roundtrip(tmp_path):
    spec = dist.DistributionSpec("heavy-iid", 4, eta=2.0)
    m = sp.assemble(spec, 9, SeedRecord(77, 1, 2))
    path = tmp_path / "m.bin"
    m.save(path)
    loaded = sp.SampleMatrix.load(path)
    assert np.array_equal(loaded.values, m.values)
    assert loaded.seed == m.seed
    assert (loaded.N, loaded.n) == (9, 4)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 48)
    with pytest.raises(InvalidInputError):
        sp.SampleMatrix.load(path)


def _saved_bytes(tmp_path):
    m = sp.assemble(dist.DistributionSpec("gaussian-iid", 3), 5, SeedRecord(1, 0, 0))
    path = tmp_path / "m.bin"
    m.save(path)
    return path.read_bytes()


@pytest.mark.parametrize(
    "mangle",
    [lambda b: b[:20], lambda b: b[:-8], lambda b: b + b"\x00"],
    ids=["truncated-header", "truncated-body", "trailing-bytes"],
)
def test_load_rejects_wrong_length(tmp_path, mangle):
    path = tmp_path / "bad.bin"
    path.write_bytes(mangle(_saved_bytes(tmp_path)))
    with pytest.raises(InvalidInputError):
        sp.SampleMatrix.load(path)


def test_assemble_validates_n():
    spec = dist.DistributionSpec("gaussian-iid", 3)
    with pytest.raises(InvalidParameterError):
        sp.assemble(spec, 0, seed=1)


_LAW_TRIALS = 20000


@pytest.mark.parametrize("n, N", [(5, 12), (8, 8), (3, 40)])
def test_trial_matrix_has_the_law_of_the_gaussian_rows(n, N):
    """Seeded bidiagonal factors against directly drawn N x n Gaussian rows:
    the extreme eigenvalues of their Grams agree in law (two-sample KS), and
    W = N * Gram has the Wishart moments E tr W = nN and
    E tr W^2 = nN(N+n+1)."""
    from scipy import stats

    spec = dist.DistributionSpec("gaussian-iid", n)
    factors = np.stack([sp.trial_matrix(spec, N, SeedRecord(17, 0, t)).values for t in range(_LAW_TRIALS)])
    rows = np.random.default_rng(18).standard_normal((_LAW_TRIALS, N, n)) / math.sqrt(N)
    w_factor = N * np.matmul(factors.transpose(0, 2, 1), factors)
    w_rows = N * np.matmul(rows.transpose(0, 2, 1), rows)
    eig_factor = np.linalg.eigvalsh(w_factor)
    eig_rows = np.linalg.eigvalsh(w_rows)
    for k in (0, -1):
        assert stats.ks_2samp(eig_factor[:, k], eig_rows[:, k]).pvalue > 1e-3
    tr = np.trace(w_factor, axis1=1, axis2=2)
    tr_sq = np.einsum("tij,tji->t", w_factor, w_factor)
    for sample, exact in ((tr, n * N), (tr_sq, n * N * (N + n + 1))):
        assert abs(sample.mean() - exact) <= 4 * sample.std(ddof=1) / math.sqrt(_LAW_TRIALS)


def test_trial_matrix_structure_and_fallback():
    spec = dist.DistributionSpec("gaussian-iid", 6)
    record = SeedRecord(4, 1, 2)
    m = sp.trial_matrix(spec, 50, record)
    assert (m.N, m.n, m.values.shape, m.seed) == (6, 6, (6, 6), record)
    assert np.all(np.isfinite(m.values)) and np.all(np.diag(m.values) > 0)
    assert np.all(np.diag(m.values, -1) > 0)
    assert np.array_equal(m.values, np.tril(np.triu(m.values, -1)))
    assert np.array_equal(m.values, sp.trial_matrix(spec, 50, SeedRecord(4, 1, 2)).values)
    assert not np.array_equal(m.values, sp.trial_matrix(spec, 50, SeedRecord(4, 1, 3)).values)
    for spec, N in (
        (dist.DistributionSpec("gaussian-iid", 6), 4),
        (dist.DistributionSpec("heavy-radial", 6, eta=5.0), 50),
        (dist.DistributionSpec("atomic-mixture", 6, mixture_p=0.3), 50),
    ):
        m = sp.trial_matrix(spec, N, record)
        direct = sp.assemble(spec, N, record)
        assert (m.N, m.n, m.seed) == (direct.N, direct.n, direct.seed)
        assert m.values.tobytes() == direct.values.tobytes()


def _diagonals(spec, N, record):
    m = sp.trial_matrix(spec, N, record)
    return m, np.diag(m.values), np.diag(m.values, -1)


@pytest.mark.parametrize("n, N", [(100, 1600), (40, 40), (12, 24), (2, 5), (1, 1)])
def test_bidiagonal_extremes_match_svd(n, N):
    """Over 300 seeded chi factors, both squared extremes are within
    4 * n * eps * sigma_max^2 of the singular values numpy's SVD gives."""
    spec = dist.DistributionSpec("gaussian-iid", n)
    factors = [_diagonals(spec, N, SeedRecord(29, 0, t)) for t in range(300)]
    lmin, lmax = sp.bidiagonal_extremes(np.array([f[1] for f in factors]), np.array([f[2] for f in factors]))
    eps = np.finfo(float).eps
    for (m, _, _), lo, hi in zip(factors, lmin, lmax):
        sigma = np.linalg.svd(m.values, compute_uv=False)
        bound = 4 * n * eps * sigma[0] ** 2
        assert abs(lo**2 - sigma[-1] ** 2) <= bound
        assert abs(hi**2 - sigma[0] ** 2) <= bound


def test_bidiagonal_extremes_do_not_depend_on_the_batch():
    """A factor's extremes are the same bits solved alone, in any batch and
    in any position of it."""
    rng = np.random.default_rng(3)
    diag, sub = map(np.array, zip(*(sp.chi_factor(30, 30 + 10 * t, SeedRecord(5, 0, t)) for t in range(40))))
    diag[7] *= 1e-3  # a factor on another scale in the same batch
    lmin, lmax = sp.bidiagonal_extremes(diag, sub)
    for t in range(40):
        alone = sp.bidiagonal_extremes(diag[t : t + 1], sub[t : t + 1])
        assert (alone[0][0], alone[1][0]) == (lmin[t], lmax[t])
    order = rng.permutation(40)[:17]
    part = sp.bidiagonal_extremes(diag[order], sub[order])
    assert np.array_equal(part[0], lmin[order]) and np.array_equal(part[1], lmax[order])


@pytest.mark.parametrize(
    "diag, sub",
    [
        ([1.0, 2.0, 3.0], [0.0, 0.0]),  # diagonal: zero pivots above zero off-diagonals
        ([1.0, 1.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
        ([0.0, 0.0, 0.0], [0.0, 0.0]),
        ([0.0, 1.0, 0.0], [1.0, 0.0]),  # rank one
        ([1.0, 1.0], [1.0]),
        ([3.0], []),
        ([1e-160, 2e-160, 3e-160], [1e-160, 4e-160]),  # squares would underflow
        ([1e200, 2e200, 3e200], [1e200, 4e200]),  # squares would overflow
    ],
)
def test_bidiagonal_extremes_structured_factors(diag, sub):
    n = len(diag)
    b = np.diag(diag) + np.diag(sub, -1)
    sigma = np.linalg.svd(b, compute_uv=False)
    lmin, lmax = sp.bidiagonal_extremes([diag], np.reshape(sub, (1, n - 1)))
    if sigma[0] == 0:
        assert (lmin[0], lmax[0]) == (0.0, 0.0)
        return
    # on the scale sigma_max = 1, where the squares neither overflow nor underflow
    bound = 4 * n * np.finfo(float).eps
    assert abs((lmin[0] / sigma[0]) ** 2 - (sigma[-1] / sigma[0]) ** 2) <= bound
    assert abs((lmax[0] / sigma[0]) ** 2 - 1.0) <= bound


def test_bidiagonal_extremes_validates():
    lmin, lmax = sp.bidiagonal_extremes(np.zeros((0, 3)), np.zeros((0, 2)))
    assert lmin.shape == lmax.shape == (0,)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match="bidiagonal factor 1 has non-finite entries"):
            sp.bidiagonal_extremes([[1.0, 1.0], [1.0, bad]], [[1.0], [1.0]])
        with pytest.raises(InvalidInputError, match="bidiagonal factor 0 has non-finite entries"):
            sp.bidiagonal_extremes([[1.0, 1.0]], [[bad]])
    for diag, sub in (([1.0, 1.0], [1.0]), ([[1.0, 1.0]], [[1.0, 1.0]]), (np.zeros((2, 0)), np.zeros((2, 0)))):
        with pytest.raises(InvalidParameterError):
            sp.bidiagonal_extremes(diag, sub)


def test_chi_factor_is_the_trial_matrix():
    spec = dist.DistributionSpec("gaussian-iid", 7)
    record = SeedRecord(8, 2, 3)
    m, diag, sub = _diagonals(spec, 20, record)
    a, b = sp.chi_factor(7, 20, record)
    assert a.tobytes() == diag.tobytes() and b.tobytes() == sub.tobytes()
    assert m.values.tobytes() == (np.diag(a) + np.diag(b, -1)).tobytes()

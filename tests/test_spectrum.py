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

"""Tests for the linear-class Rademacher complexity estimator."""

import math
import tracemalloc

import numpy as np
import pytest
from recorded_samples import recorded_sample_matrix

from lminlab import distributions as dist
from lminlab import rademacher as rad
from lminlab.errors import InvalidInputError, InvalidParameterError


def test_single_row_unit_vector():
    est = rad.rademacher_linear(np.array([[1.0, 0.0, 0.0]]), method="exact")
    assert est.value == 1.0
    assert est.exact and est.stderr == 0.0


def test_sign_table_is_cached_and_read_only():
    signs = rad._all_sign_vectors(3)
    assert rad._all_sign_vectors(3) is signs
    assert signs.tolist() == [[2.0 * ((i >> j) & 1) - 1.0 for j in range(3)] for i in range(8)]
    with pytest.raises(ValueError):
        signs[0, 0] = 1.0


def test_two_equal_rows_enumeration():
    # e1 twice: ++/-- give norm 1, +-/-+ give 0, so the average is 1/2
    rows = np.array([[1.0, 0.0], [1.0, 0.0]])
    est = rad.rademacher_linear(rows, method="exact")
    assert est.value == pytest.approx(0.5, abs=1e-15)
    assert est.draws == 4


def test_mc_matches_exact_within_3_stderr():
    rng = np.random.default_rng(14)
    for k in range(20):
        rows = dist.sample_matrix(dist.DistributionSpec("gaussian-iid", 3), 10, rng)
        exact = rad.rademacher_linear(rows, method="exact")
        mc = rad.rademacher_linear(rows, draws=2000, rng=rng, method="mc")
        assert abs(mc.value - exact.value) <= 3 * mc.stderr, k


def test_exact_homogeneity():
    rng = np.random.default_rng(15)
    rows = rng.standard_normal((8, 4))
    base = rad.rademacher_linear(rows, method="exact").value
    scaled = rad.rademacher_linear(3.0 * rows, method="exact").value
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_per_sample_jensen_bound():
    # conditioned on the rows, E_eps || sum eps X ||/N <= sqrt(sum ||X_j||^2)/N
    rng = np.random.default_rng(16)
    for _ in range(10):
        rows = rng.standard_normal((12, 5))
        est = rad.rademacher_linear(rows, method="exact")
        assert est.value <= np.sqrt((rows**2).sum()) / 12 + 1e-12


def test_population_mean_below_isotropic_bound():
    # the sqrt(n/N) bound governs the expectation over the sample; averaging
    # exact enumerations over independent samples must stay below it
    rng = np.random.default_rng(7)
    spec = dist.DistributionSpec("uniform-cube", 6)
    vals = [
        rad.rademacher_linear(dist.sample_matrix(spec, 12, rng), method="exact").value
        for _ in range(100)
    ]
    assert np.mean(vals) <= rad.rademacher_upper(6, 12)


def test_auto_selects_exact_then_mc():
    rng = np.random.default_rng(2)
    small = rad.rademacher_linear(rng.standard_normal((14, 2)), rng=1)
    big = rad.rademacher_linear(rng.standard_normal((15, 2)), rng=1)
    assert small.exact and not big.exact


def test_upper_bound_values():
    assert rad.rademacher_upper(5, 5) == 1.0
    assert rad.rademacher_upper(100, 1600) == pytest.approx(0.25)
    with pytest.raises(InvalidParameterError):
        rad.rademacher_upper(0, 5)


def test_exact_cap_enforced():
    with pytest.raises(InvalidParameterError):
        rad.rademacher_linear(np.ones((15, 2)), method="exact")


def test_mc_refuses_draws_beyond_array_limit():
    with pytest.raises(InvalidParameterError, match="array size limit"):
        rad.rademacher_linear(np.ones((20, 2)), draws=10**20, method="mc")


@pytest.mark.parametrize("method", ["exact", "mc"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_rows_refused(method, bad):
    rows = np.ones((12, 2))
    rows[5, 0] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        rad.rademacher_linear(rows, draws=100, rng=1, method=method)


# Monte Carlo estimates as they were before the signs were drawn in blocks,
# when one (draws, N) sign matrix was drawn at once (recorded on numpy 2.4.6,
# OpenBLAS 0.3.31, one BLAS thread): (N, draws, value, stderr, the
# generator's next random()), floats in hex.  Heavy-radial rows, n = 8, drawn
# with seed N by ``recorded_sample_matrix``; signs drawn with seed draws.  At N = 2049 a block holds 510
# rows, so 1537 odd draws are three blocks and a ragged one of 7 rows, with
# draws x N odd; N = 4095 takes 2000 draws in 7 blocks of 256 rows and one
# of 208; N = 15 fits in one block.  With BLAS at two threads the dense
# product gave value 0x1.f28aec8a575c2p-5 at N = 2049.
MC_PINS = [
    (2049, 1537, "0x1.f28aec8a575c0p-5", "0x1.a241e0c46e133p-12", "0x1.ca8f47f64d19cp-2"),
    (4095, 2000, "0x1.5c928722b8b04p-5", "0x1.fad352d06da04p-13", "0x1.7a7e9b61b428cp-3"),
    (15, 3, "0x1.f57421381ab45p-1", "0x1.7b77fb1d1b8a4p-3", "0x1.41858be88e9bcp-2"),
]


@pytest.mark.parametrize("N,draws,value,stderr,following", MC_PINS)
def test_blocked_mc_reproduces_dense_output(N, draws, value, stderr, following):
    rows = recorded_sample_matrix(dist.DistributionSpec("heavy-radial", 8, eta=3.0), N, np.random.default_rng(N))
    rng = np.random.default_rng(draws)
    est = rad.rademacher_linear(rows, draws=draws, rng=rng, method="mc")
    assert (est.value.hex(), est.stderr.hex(), rng.random().hex()) == (value, stderr, following)


@pytest.mark.parametrize("N,draws", [(2049, 1537), (2049, 1020), (2048, 1537), (513, 2045), (15, 3)])
def test_blocked_mc_leaves_generator_as_one_dense_draw(N, draws):
    rows = np.ones((N, 2))
    blocked, dense = np.random.default_rng(4), np.random.default_rng(4)
    rad.rademacher_linear(rows, draws=draws, rng=blocked, method="mc")
    dense.integers(0, 2, (draws, N))
    assert blocked.integers(0, 2**63) == dense.integers(0, 2**63)


def test_mc_memory_bounded_by_block():
    """The dense path held 2000 x 4096 signs as int64 and as float (about
    131 MB at its peak); the blocked one holds one 256-row sign buffer and
    one chunk of integer draws, about 8.7 MB at its peak (16.9 MB while each
    block's integers were drawn at once)."""
    rows = dist.sample_matrix(dist.DistributionSpec("heavy-radial", 8, eta=3.0), 4096, np.random.default_rng(5))
    tracemalloc.start()
    try:
        rad.rademacher_linear(rows, draws=2000, rng=1, method="mc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak

"""Rademacher complexity of the linear class on a fixed sample.

For linear functionals over the unit sphere the supremum collapses to a
Euclidean norm:

    R_N = E_eps || (1/N) sum_j eps_j X_j ||_2

so no direction search is needed.  For N <= 14 the expectation over sign
vectors is enumerated exactly (2^N terms); otherwise it is a Monte Carlo
average.  Generic-class Rademacher estimation is out of scope.

The Monte Carlo path draws its sign vectors in blocks of at most
``_BLOCK_ELEMENTS`` signs, with BLAS pinned to one thread, so its memory does
not grow with draws x N and its output does not depend on the BLAS thread
count.  Every block's signs are written into one float buffer: a fresh block
array each time would be returned to the OS and faulted back in per block.  Each block has an even number of rows: the generator makes integers
in [0, 2) from 32-bit halves of its 64-bit outputs and drops an unused half
at the end of a call, so even blocks leave it in the state one call for all
draws would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import InvalidInputError, InvalidParameterError
from .streams import as_generator

EXACT_MAX_N = 14
DEFAULT_DRAWS = 2000
# signs held at once by the Monte Carlo path: a block of draws times N
_BLOCK_ELEMENTS = 2**20


@dataclass(frozen=True)
class RademacherEstimate:
    value: float
    stderr: float
    draws: int
    exact: bool


def _all_sign_vectors(N: int) -> np.ndarray:
    """(2^N, N) array of +-1 rows, bit i of the row index giving sign i."""
    idx = np.arange(1 << N, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(N)) & 1
    return bits.astype(float) * 2.0 - 1.0


def rademacher_linear(
    rows: np.ndarray,
    draws: int = DEFAULT_DRAWS,
    rng: np.random.Generator | int | None = None,
    method: str = "auto",
) -> RademacherEstimate:
    """Estimate E_eps ||(1/N) sum eps_j X_j|| for the given raw sample rows.

    ``method`` is "auto" (exact enumeration when N <= 14, else Monte Carlo),
    "exact", or "mc".  Exact results have stderr 0; Monte Carlo needs
    ``draws`` >= 2 for its standard error.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.size == 0:
        raise InvalidInputError(f"rows must be a nonempty 2-D array, got shape {rows.shape}")
    N = rows.shape[0]
    if method not in ("auto", "exact", "mc"):
        raise InvalidParameterError(f"unknown method {method!r}")
    if method == "auto":
        method = "exact" if N <= EXACT_MAX_N else "mc"

    if method == "exact":
        if N > EXACT_MAX_N:
            raise InvalidParameterError(f"exact enumeration capped at N={EXACT_MAX_N}, got {N}")
        signs = _all_sign_vectors(N)
        norms = np.linalg.norm(signs @ rows, axis=1) / N
        return RademacherEstimate(value=float(norms.mean()), stderr=0.0, draws=1 << N, exact=True)

    if draws < 2:
        raise InvalidParameterError(f"draws must be >= 2 for a standard error, got {draws}")
    rng = as_generator(rng)
    norms = np.empty(draws)
    buffer = np.empty((0, N))
    with blas._single_threaded_blas:
        for block in blas.row_blocks(draws, N, _BLOCK_ELEMENTS, multiple=2):
            if len(buffer) < block.stop - block.start:
                buffer = np.empty((block.stop - block.start, N))
            signs = buffer[: block.stop - block.start]
            np.multiply(rng.integers(0, 2, size=signs.shape), 2.0, out=signs)
            signs -= 1.0
            norms[block] = np.linalg.norm(signs @ rows, axis=1) / N
    stderr = float(norms.std(ddof=1) / np.sqrt(draws))
    return RademacherEstimate(value=float(norms.mean()), stderr=stderr, draws=draws, exact=False)


def rademacher_upper(A: float, n: int, N: int) -> float:
    """Jensen bound A * sqrt(n/N) for isotropic rows with marginal L2 <= A."""
    if A <= 0 or n < 1 or N < 1:
        raise InvalidParameterError(f"need A > 0, n >= 1, N >= 1; got A={A}, n={n}, N={N}")
    return A * np.sqrt(n / N)

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
count.  Every block's signs are written by ``streams.fill_signs`` into one
float buffer, so the path holds one sign block and one chunk of draws: a
fresh block array each time would be returned to the OS and faulted back in
per block.  The blocks leave the generator in the state one call for all
draws would, whatever their sizes, since it keeps the spare 32-bit half of
an output in its state between calls.  Each block still has an even number
of rows because the row count fixes the BLAS block layout, and the results
pinned in the tests were recorded on that layout: the product rounds
differently with other block lengths (on 2049 Gaussian rows in dimension 1,
blocks of 511 rows instead of 510 move the estimate by one ulp; in
dimension 4, blocks of 64 rows instead of 256 do).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import InvalidInputError, InvalidParameterError
from .streams import as_generator, check_array_size, fill_signs

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


@functools.cache
def _all_sign_vectors(N: int) -> np.ndarray:
    """Read-only (2^N, N) array of +-1 rows, bit i of the row index giving
    sign i.  Cached per N: the exact paths ask for the same table again and
    again, and it holds at most 2^14 x 14 floats."""
    idx = np.arange(1 << N, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(N)) & 1
    signs = bits.astype(float) * 2.0 - 1.0
    signs.flags.writeable = False
    return signs


def rademacher_linear(
    rows: np.ndarray,
    draws: int = DEFAULT_DRAWS,
    rng: np.random.Generator | int | None = None,
    method: str = "auto",
) -> RademacherEstimate:
    """Estimate E_eps ||(1/N) sum eps_j X_j|| for the given raw sample rows.

    ``method`` is "auto" (exact enumeration when N <= 14, else Monte Carlo),
    "exact", or "mc".  Exact results have stderr 0; Monte Carlo needs
    ``draws`` >= 2 for its standard error, and a ``draws`` beyond numpy's
    largest array size raises ``InvalidParameterError``.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.size == 0:
        raise InvalidInputError(f"rows must be a nonempty 2-D array, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise InvalidInputError("rows must be finite")
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
    check_array_size("draws", draws)
    rng = as_generator(rng)
    norms = np.empty(draws)
    buffer = np.empty((0, N))
    with blas._single_threaded_blas:
        for block in blas.row_blocks(draws, N, _BLOCK_ELEMENTS, multiple=2):
            if len(buffer) < block.stop - block.start:
                buffer = np.empty((block.stop - block.start, N))
            signs = fill_signs(rng, buffer[: block.stop - block.start])
            norms[block] = np.linalg.norm(signs @ rows, axis=1) / N
    stderr = float(norms.std(ddof=1) / np.sqrt(draws))
    return RademacherEstimate(value=float(norms.mean()), stderr=stderr, draws=draws, exact=False)


def rademacher_upper(n: int, N: int) -> float:
    """Jensen bound sqrt(n/N) on E R_N for N isotropic rows in dimension n."""
    if n < 1 or N < 1:
        raise InvalidParameterError(f"need n >= 1, N >= 1; got n={n}, N={N}")
    return np.sqrt(n / N)

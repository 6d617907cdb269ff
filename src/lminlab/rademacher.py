"""Rademacher complexity of the linear class on a fixed sample.

For linear functionals over the unit sphere the supremum collapses to a
Euclidean norm:

    R_N = E_eps || (1/N) sum_j eps_j X_j ||_2

so no direction search is needed.  For N <= 14 the expectation over sign
vectors is enumerated exactly (2^N terms); otherwise it is a Monte Carlo
average.  Generic-class Rademacher estimation is out of scope.

The Monte Carlo path draws its sign vectors in blocks, with BLAS pinned to
one thread, so its memory does not grow with draws x N and its output does
not depend on the BLAS thread count.  A block holds as many signs as the
sample has entries, but at least ``_BLOCK_ELEMENTS`` (1 MB) and at most
``_MAX_BLOCK_ELEMENTS`` (8 MB): a small sample stays in cache however often
the blocks re-read it, while a sample of 2^17 entries or more is read once
per n rows of signs, up to 256 rows at N = 4096 (2000 draws on 4096 x 256
rows took about 140 ms in 32-row blocks, 115 ms in 256-row ones).
Every block's signs are written by ``streams.fill_signs`` into one float
buffer, so the path holds one sign block and one chunk of integer draws: a
fresh block array each time would be returned to the OS and faulted back in
per block.  The blocks leave the generator in the state one call for all
draws would, whatever their sizes, since it keeps the spare 32-bit half of
an output in its state between calls.  The products do depend on the block
sizes, in their last bits.  Each block has an even number of rows because
the results pinned in the tests were recorded on even blocks, and on
OpenBLAS 0.3.31 a product of at most 10^6 multiply-adds takes the
small-matrix kernel, which rounds differently from the blocked one.  So a
block that lands on the other kernel under other block sizes can move an
estimate by ulps (blocks of 2^17 signs instead of 2^20 moved 17 of 144
(family, n <= 8, N, draws, seed) estimates, by one or two ulps each).
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
# signs held at once by the Monte Carlo path (a block of draws times N): as
# many as the sample has entries, but at least _BLOCK_ELEMENTS and at most
# _MAX_BLOCK_ELEMENTS
_BLOCK_ELEMENTS = 2**17
_MAX_BLOCK_ELEMENTS = 2**20


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
    block_elements = min(max(rows.size, _BLOCK_ELEMENTS), _MAX_BLOCK_ELEMENTS)
    with blas._single_threaded_blas:
        for block in blas.row_blocks(draws, N, block_elements, multiple=2):
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

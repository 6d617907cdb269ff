"""OpenBLAS thread pinning and the row blocks the estimators walk under it.

A threaded BLAS reduces in an order that depends on its thread count, so a
product can change in the last ulp with ``OPENBLAS_NUM_THREADS``.  Code whose
seeded output must not depend on that count runs its BLAS calls inside
``_single_threaded_blas``, which pins the OpenBLAS numpy calls (lminlab
runs on numpy alone and never loads scipy's own OpenBLAS).  The sweep, the
estimators in ``smallball`` and ``rademacher``, ``verify``'s spectral check,
``spectrum.lambda_min_power`` and ``lminlab spectrum`` hold it, and so do
both threads of ``smallball.small_ball_curve``.  The
estimators also walk their samples in fixed row blocks (``row_blocks``), so
their memory is bounded by the block size and each block's product takes
the same BLAS path whatever the total row count.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading

import numpy.linalg

# (getter, setter) symbol pairs: the scipy-openblas wheels (the 64-bit-index
# build numpy bundles and its 32-bit twin) and a plain OpenBLAS.
_OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


@functools.cache
def _openblas_controls() -> tuple:
    """((get_num_threads, set_num_threads),) of numpy's OpenBLAS, or ``()``.

    Looked up once, on the handle of numpy's linear-algebra extension: a
    lookup on a module handle also searches the libraries it depends on, so
    it finds the OpenBLAS numpy calls whatever its file is named.
    """
    lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__, mode=os.RTLD_NOLOAD)
    for get_name, set_name in _OPENBLAS_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return ((get, set_),)
    return ()


class _SingleThreadedBlas:
    """Context manager pinning numpy's OpenBLAS to one thread.

    While it is held, parallelism comes only from lminlab's own threads
    (the sweep pool and the small-ball curve's worker): a threaded BLAS
    under them oversubscribes the cores, and its reductions change in the
    last ulp with its thread count.  Thread counts are process state, so
    overlapping holders, on one thread or several, share one pin: the first
    to enter saves the count, the last to leave restores it, also when the
    body raises.  Without a control symbol (a non-OpenBLAS build) it does
    nothing.  Another OpenBLAS in the process, such as the one a caller's
    scipy loads, keeps its thread count; lminlab never calls BLAS through
    one.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple((set_, get()) for get, set_ in _openblas_controls())
                for set_, _ in self._saved:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, count in self._saved:
                    set_(count)


_single_threaded_blas = _SingleThreadedBlas()


def row_blocks(n_rows: int, row_elements: int, block_elements: int, multiple: int = 1) -> list[slice]:
    """Consecutive slices covering rows ``[0, n_rows)``.

    Each block holds as many rows as fit ``block_elements`` elements at
    ``row_elements`` per row, rounded down to a multiple of ``multiple`` but
    never fewer than ``multiple`` rows; the last block takes what is left.
    The block length depends only on its arguments, never on the machine.
    """
    step = max(multiple, block_elements // row_elements // multiple * multiple)
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]

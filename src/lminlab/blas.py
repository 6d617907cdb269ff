"""OpenBLAS thread pinning and the row blocks the estimators walk under it.

A threaded BLAS reduces in an order that depends on its thread count, so a
product can change in the last ulp with ``OPENBLAS_NUM_THREADS``.  Code whose
seeded output must not depend on that count runs its BLAS calls inside
``_single_threaded_blas``.  The estimators in ``smallball`` and
``rademacher`` also walk their samples in fixed row blocks (``row_blocks``),
so their memory is bounded by the block size and each block's product takes
the same BLAS path whatever the total row count.
"""

from __future__ import annotations

import ctypes
import os
import threading


class _DlPhdrInfo(ctypes.Structure):
    # leading fields of struct dl_phdr_info; only the name is read
    _fields_ = [("dlpi_addr", ctypes.c_void_p), ("dlpi_name", ctypes.c_char_p)]


_PHDR_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_DlPhdrInfo), ctypes.c_size_t, ctypes.c_void_p)

# (getter, setter) symbol pairs: the scipy-openblas wheels (64-bit-index build
# bundled with numpy, 32-bit one with scipy) and a plain OpenBLAS.
_OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


def _loaded_libraries() -> list[str]:
    """Paths of the shared libraries loaded in this process (empty where the
    C library has no ``dl_iterate_phdr``)."""
    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
    except (OSError, TypeError, AttributeError):
        return []
    iterate.argtypes = [_PHDR_CALLBACK, ctypes.c_void_p]
    iterate.restype = ctypes.c_int
    paths = []

    def collect(info, size, data):
        if info.contents.dlpi_name:
            paths.append(os.fsdecode(info.contents.dlpi_name))
        return 0

    iterate(_PHDR_CALLBACK(collect), None)
    return paths


def _openblas_controls() -> list:
    """(get_num_threads, set_num_threads) of every loaded OpenBLAS library."""
    controls = []
    for path in _loaded_libraries():
        if "openblas" not in os.path.basename(path).lower():
            continue
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


class _SingleThreadedBlas:
    """Context manager pinning every loaded OpenBLAS to one thread.

    The sweep pool is the only source of parallelism while it is held: a
    threaded BLAS under a thread pool oversubscribes the cores, and its
    reductions change in the last ulp with its thread count.  Thread counts
    are process state, so overlapping holders share one pin: the first to
    enter saves the counts, the last to leave restores them, also when the
    body raises.  Without a control symbol (a non-OpenBLAS build) it does
    nothing.  Only libraries loaded on entry are pinned, so no code a trial
    runs may import scipy, whose OpenBLAS would run unpinned.
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

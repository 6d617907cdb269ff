"""Deterministic substream seeding for parallel Monte Carlo.

Every trial of a sweep draws from its own ``numpy`` Generator seeded by a
64-bit value derived from ``(master_seed, beta_index, trial_index)`` with the
splitmix64 finalizer.  The derivation is a fixed, published recipe so runs are
portable: results are identical whether trials execute sequentially or in a
parallel map.

Derivation (all arithmetic mod 2**64)::

    mix(x):  x += 0x9E3779B97F4A7C15
             x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
             x = (x ^ (x >> 27)) * 0x94D049BB133111EB
             return x ^ (x >> 31)

    derived = mix(mix(mix(master) ^ mix(beta_index)) ^ mix(trial_index))

Random signs come from ``fill_signs``, which writes them into the caller's
array a chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

_MASK64 = (1 << 64) - 1
# signs drawn per generator call by fill_signs: 256 KB of int32 draws that
# become 512 KB of floats
_SIGN_CHUNK = 2**16


def splitmix64(x: int) -> int:
    """One splitmix64 step: advance by the golden-gamma and finalize."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def check_seed(seed: int) -> int:
    """``seed`` when it is a master seed, in [0, 2^64); anything else would
    be reduced mod 2^64 and then recorded under another value."""
    if not 0 <= seed <= _MASK64:
        raise InvalidParameterError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def check_array_size(what: str, count: int) -> None:
    """Refuse ``count`` float64 values, named ``what``, that no numpy array
    can hold: numpy limits an array's bytes, not its elements, to the largest
    ``np.intp``."""
    limit = np.iinfo(np.intp).max
    if count * 8 > limit:
        raise InvalidParameterError(f"{what} at 8 bytes each exceed numpy's array size limit of {limit} bytes")


def substream_seed(master: int, beta_index: int = 0, trial_index: int = 0) -> int:
    """Derive the 64-bit substream seed for one trial of one grid point."""
    h = splitmix64(master & _MASK64)
    h = splitmix64(h ^ splitmix64(beta_index & _MASK64))
    h = splitmix64(h ^ splitmix64(trial_index & _MASK64))
    return h


@dataclass(frozen=True)
class SeedRecord:
    """Provenance of one sampled matrix: master seed plus derivation indices."""

    master: int
    beta_index: int = 0
    trial_index: int = 0

    @property
    def derived(self) -> int:
        return substream_seed(self.master, self.beta_index, self.trial_index)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(self.derived)


def as_generator(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Accept a Generator, an int seed, or None (fresh entropy)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def fill_signs(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float array ``out`` with +-1 and return it.

    The values, and the state ``rng`` is left in, are those of
    ``rng.integers(0, 2, out.shape) * 2.0 - 1.0``, but no temporary is
    larger than ``_SIGN_CHUNK`` signs.  Integers in [0, 2) take the top bit
    of successive 32-bit outputs whatever the dtype and the call size, and
    the generator keeps a spare 32-bit half in its state between calls, so
    chunking does not move the stream.
    """
    if not out.flags.c_contiguous or out.dtype.kind != "f":
        raise InvalidParameterError(
            f"fill_signs needs a C-contiguous float array, got {out.dtype} with strides {out.strides}"
        )
    flat = out.reshape(-1)
    for start in range(0, flat.size, _SIGN_CHUNK):
        chunk = flat[start : start + _SIGN_CHUNK]
        np.multiply(rng.integers(0, 2, chunk.size, dtype=np.int32), 2.0, out=chunk)
        chunk -= 1.0
    return out

"""Row-normalized sample matrices and their extreme singular values.

The sample matrix stores rows X_i/sqrt(N).  Extremes are computed from the
n x n Gram matrix with a symmetric eigensolver; an independent inverse-power
path cross-validates the smallest eigenvalue.  At desk scale (n <= ~500) the
Gram route is the fast one and its squaring loss is irrelevant above ~1e-6.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, sample_matrix
from .errors import InvalidInputError, InvalidParameterError, NoConvergenceError
from .streams import SeedRecord

_MAGIC = b"SMAT"
_VERSION = 1
_HEADER = struct.Struct("<IQQQQQ")  # after the magic: version, N, n, seed fields


@dataclass(frozen=True)
class SampleMatrix:
    """N x n array of rows X_i/sqrt(N) with the seed record it was drawn from."""

    N: int
    n: int
    values: np.ndarray
    seed: SeedRecord

    def __post_init__(self):
        if self.N < 1 or self.n < 1:
            raise InvalidParameterError(f"need N, n >= 1, got N={self.N}, n={self.n}")
        if self.values.shape != (self.N, self.n):
            raise InvalidInputError(f"values shape {self.values.shape} != ({self.N}, {self.n})")
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("matrix entries must be finite")

    def save(self, path) -> None:
        """Binary layout: magic, u32 version, u64 N, u64 n, 3 x u64 seed
        fields (master, beta_index, trial_index), then row-major float64,
        all little-endian."""
        header = _MAGIC + _HEADER.pack(
            _VERSION,
            self.N,
            self.n,
            self.seed.master,
            self.seed.beta_index,
            self.seed.trial_index,
        )
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "SampleMatrix":
        """Read a file written by ``save``; a bad magic or version, a
        truncated header or body, or trailing bytes raise
        ``InvalidInputError``, and so does a file that cannot be read."""
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise InvalidInputError(f"cannot read matrix file {path}: {exc.strerror}") from exc
        magic = blob[: len(_MAGIC)]
        if magic != _MAGIC:
            raise InvalidInputError(f"bad magic {magic!r}")
        offset = len(_MAGIC) + _HEADER.size
        if len(blob) < offset:
            raise InvalidInputError(f"truncated header: {len(blob)} bytes, need {offset}")
        version, N, n, master, bidx, tidx = _HEADER.unpack_from(blob, len(_MAGIC))
        if version != _VERSION:
            raise InvalidInputError(f"unsupported version {version}")
        body = len(blob) - offset
        if body != N * n * 8:
            raise InvalidInputError(
                f"body holds {body} bytes, a {N}x{n} float64 matrix needs {N * n * 8}"
            )
        data = np.frombuffer(blob, dtype="<f8", offset=offset).reshape(N, n)
        record = SeedRecord(master=master, beta_index=bidx, trial_index=tidx)
        return cls(N=int(N), n=int(n), values=data.astype(float), seed=record)


@dataclass(frozen=True)
class SpectralResult:
    """Extreme singular values with a backward-error estimate."""

    lambda_min: float
    lambda_max: float
    method: str
    residual: float


def assemble(spec: DistributionSpec, N: int, seed: int | SeedRecord) -> SampleMatrix:
    """Draw N independent rows and scale by 1/sqrt(N); deterministic in seed."""
    if N < 1:
        raise InvalidParameterError(f"N must be >= 1, got {N}")
    record = seed if isinstance(seed, SeedRecord) else SeedRecord(seed)
    rows = sample_matrix(spec, N, record.generator())
    rows /= np.sqrt(N)  # in place: one N x n buffer per trial, not two
    return SampleMatrix(N=N, n=spec.n, values=rows, seed=record)


def gram(m: SampleMatrix) -> np.ndarray:
    """Exact Gram matrix of the columns (symmetric to round-off)."""
    g = m.values.T @ m.values
    return (g + g.T) / 2.0


def lambda_extremes(m: SampleMatrix) -> SpectralResult:
    """Extreme singular values via the symmetric eigenproblem of the Gram.

    For N < n the matrix is rank deficient and lambda_min is reported as
    exactly 0.  The residual is max ||G v - mu v|| over the two extreme
    eigenpairs, scaled by lambda_max (machine-level for a healthy solve).
    """
    g = gram(m)
    vals, vecs = np.linalg.eigh(g)
    lam_max = float(np.sqrt(max(vals[-1], 0.0)))
    if m.N < m.n:
        lam_min = 0.0
    else:
        lam_min = float(np.sqrt(max(vals[0], 0.0)))
    res = 0.0
    for idx in (0, len(vals) - 1):
        v = vecs[:, idx]
        res = max(res, float(np.linalg.norm(g @ v - vals[idx] * v)))
    scale = lam_max if lam_max > 0 else 1.0
    return SpectralResult(lambda_min=lam_min, lambda_max=lam_max, method="sym-eig", residual=res / scale)


_POWER_TOL = 1e-13
_POWER_MAX_ITER = 20000


def lambda_min_power(m: SampleMatrix) -> float:
    """Smallest eigenvalue of the Gram matrix by inverse iteration.

    Independent validation path for ``lambda_extremes`` (compare against
    lambda_min**2).  Unshifted inverse iteration runs until the Rayleigh
    quotient changes by at most ``_POWER_TOL`` (relative), then two
    Rayleigh-quotient steps polish the estimate.  Raises
    ``NoConvergenceError`` with diagnostics after ``_POWER_MAX_ITER``
    iterations.
    """
    from scipy import linalg as sla  # loaded on first use, off lminlab's import path

    g = gram(m)
    n = g.shape[0]
    ident = np.eye(n)
    try:
        lu = sla.lu_factor(g)
    except ValueError as exc:
        raise InvalidInputError(f"gram not factorizable: {exc}") from exc
    # Deterministic start vector with a ramp so it is not an eigenvector of
    # structured test matrices.
    v = np.ones(n) + np.linspace(0.0, 0.5, n)
    v /= np.linalg.norm(v)
    est = float("inf")
    for _ in range(_POWER_MAX_ITER):
        w = sla.lu_solve(lu, v)
        norm_w = np.linalg.norm(w)
        if not np.isfinite(norm_w) or norm_w == 0.0:
            if not np.isfinite(est):
                raise InvalidInputError("gram is numerically singular")
            break  # solve blew up: v is numerically the eigenvector already
        v = w / norm_w
        new_est = float(v @ g @ v)
        if abs(new_est - est) <= _POWER_TOL * max(1.0, abs(new_est)):
            est = new_est
            break
        est = new_est
    else:
        raise NoConvergenceError("inverse power iteration did not converge", _POWER_MAX_ITER, est)
    # Rayleigh-quotient polish (cubic); a singular factorization here means
    # the estimate is already at an eigenvalue.
    for _ in range(2):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu2 = sla.lu_factor(g - est * ident)
                w = sla.lu_solve(lu2, v)
        except (ValueError, sla.LinAlgError):
            break
        norm_w = np.linalg.norm(w)
        if not np.isfinite(norm_w) or norm_w == 0.0:
            break
        v = w / norm_w
        est = float(v @ g @ v)
    return est

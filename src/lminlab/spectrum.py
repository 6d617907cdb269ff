"""Row-normalized sample matrices and their extreme singular values.

The sample matrix stores rows X_i/sqrt(N).  Extremes are computed from the
n x n Gram matrix with a symmetric eigensolver: eigenvalues only for sweep
trials, which report nothing else, and eigenpairs with a residual for
``lminlab spectrum`` and ``verify``.  An independent inverse-power path, an
LU inverse plus shifted solves on numpy alone, cross-validates the smallest
eigenvalue.  At desk scale (n <= ~500) the Gram route is the fast one and
its squaring loss is irrelevant above ~1e-6.  A Gram with a non-finite
entry is an input error on every path.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import blas
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
    """Extreme singular values with a backward-error estimate (NaN when the
    solve computed no eigenvectors)."""

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
    """Exact Gram matrix of the columns (symmetric to round-off).

    Entries large enough to overflow make it non-finite, which raises
    ``InvalidInputError`` instead of handing inf or NaN to a solver.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = m.values.T @ m.values
        g = (g + g.T) / 2.0
    if not np.all(np.isfinite(g)):
        raise InvalidInputError("gram has non-finite entries")
    return g


def lambda_extremes(m: SampleMatrix, vectors: bool = True) -> SpectralResult:
    """Extreme singular values via the symmetric eigenproblem of the Gram.

    For N < n the matrix is rank deficient and lambda_min is reported as
    exactly 0.  With ``vectors`` the solver is ``eigh`` and the residual is
    max ||G v - mu v|| over the two extreme eigenpairs, scaled by lambda_max
    (machine-level for a healthy solve).  Without it the solver is
    ``eigvalsh``, which skips the eigenvectors, and the residual is NaN: a
    sweep trial reports only the extremes.  The two solvers' extremes agree
    to round-off but not bit for bit.
    """
    g = gram(m)
    if vectors:
        vals, vecs = np.linalg.eigh(g)
    else:
        vals = np.linalg.eigvalsh(g)
    lam_max = float(np.sqrt(max(vals[-1], 0.0)))
    if m.N < m.n:
        lam_min = 0.0
    else:
        lam_min = float(np.sqrt(max(vals[0], 0.0)))
    if not vectors:
        return SpectralResult(lambda_min=lam_min, lambda_max=lam_max, method="sym-eig", residual=math.nan)
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
    lambda_min**2): the Gram is inverted once by LU, not by the symmetric
    eigensolver.  Unshifted inverse iteration runs until the Rayleigh
    quotient changes by at most ``_POWER_TOL`` (relative), then two
    Rayleigh-quotient steps, each a fresh shifted solve, polish the estimate
    and any error of the explicit inverse.  BLAS runs on one thread, so the
    result does not depend on the BLAS thread count.  A non-finite Gram
    (see ``gram``) or a singular one raises ``InvalidInputError``;
    ``NoConvergenceError`` carries diagnostics after ``_POWER_MAX_ITER``
    iterations.
    """
    with blas._single_threaded_blas:
        g = gram(m)
        n = g.shape[0]
        try:
            g_inv = np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise InvalidInputError(f"gram not invertible: {exc}") from exc
        # Deterministic start vector with a ramp so it is not an eigenvector of
        # structured test matrices.
        v = np.ones(n) + np.linspace(0.0, 0.5, n)
        v /= np.linalg.norm(v)
        est = float("inf")
        for _ in range(_POWER_MAX_ITER):
            w = g_inv @ v
            norm_w = np.linalg.norm(w)
            if not np.isfinite(norm_w) or norm_w == 0.0:
                if not np.isfinite(est):
                    raise InvalidInputError("gram is numerically singular")
                break  # step blew up: v is numerically the eigenvector already
            v = w / norm_w
            new_est = float(v @ g @ v)
            if abs(new_est - est) <= _POWER_TOL * max(1.0, abs(new_est)):
                est = new_est
                break
            est = new_est
        else:
            raise NoConvergenceError("inverse power iteration did not converge", _POWER_MAX_ITER, est)
        # Rayleigh-quotient polish (cubic); a singular shifted solve means the
        # estimate is already at an eigenvalue.
        ident = np.eye(n)
        for _ in range(2):
            try:
                w = np.linalg.solve(g - est * ident, v)
            except np.linalg.LinAlgError:
                break
            norm_w = np.linalg.norm(w)
            if not np.isfinite(norm_w) or norm_w == 0.0:
                break
            v = w / norm_w
            est = float(v @ g @ v)
    return est

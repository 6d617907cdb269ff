"""Row-normalized sample matrices and their extreme singular values.

The sample matrix stores rows X_i/sqrt(N).  A sweep trial solves
``trial_matrix``: for gaussian-iid that is an n x n bidiagonal chi factor
whose Gram has the law of the N x n rows' Gram, and for every other family
the rows themselves.  Gaussian-iid sweep trials are solved in batches by
``bidiagonal_extremes``: Sturm-count bisection on the tridiagonal Gram of
each factor, elementwise numpy with no BLAS or LAPACK, and no dense matrix.
Every other extreme is computed from the n x n Gram matrix with a symmetric
eigensolver: eigenvalues only for sweep trials, which report nothing else,
and eigenpairs with a residual for ``lminlab spectrum``.  ``verify``
certifies the sweep's eigenvalue-only solve by ``inertia_bracket``: two
Cholesky factorizations around each extreme, by Sylvester's law of
inertia.  An inverse-power path, an LU inverse plus shifted solves on numpy
alone, serves only ``lminlab spectrum --power``.  At desk scale (n <= ~500)
the Gram route is the fast one and its squaring loss is irrelevant above
~1e-6.  A Gram or a factor with a non-finite entry is an input error on
every path.
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
_EPS = np.finfo(float).eps


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


def trial_matrix(spec: DistributionSpec, N: int, record: SeedRecord) -> SampleMatrix:
    """The matrix a sweep trial solves: its Gram has the law of the Gram of
    ``assemble(spec, N, record)``.

    For gaussian-iid with N >= n this is the n x n lower-bidiagonal chi
    model of the N x n Gaussian matrix (Silverstein 1985; Dumitriu and
    Edelman 2002): from the record's substream, n chi-squares with df N,
    N-1, ..., N-n+1, whose roots form the diagonal, then n-1 chi-squares
    with df n-1, ..., 1, whose roots form the subdiagonal, all divided by
    sqrt(N).  It takes 2n-1 draws instead of N*n.  Every other family, and
    N < n, returns ``assemble(spec, N, record)``.
    """
    n = spec.n
    if spec.family != "gaussian-iid" or N < n:
        return assemble(spec, N, record)
    diag, sub = chi_factor(n, N, record)
    return SampleMatrix(N=n, n=n, values=np.diag(diag) + np.diag(sub, -1), seed=record)


def chi_factor(n: int, N: int, record: SeedRecord) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (n) and subdiagonal (n-1) of the bidiagonal chi factor
    ``trial_matrix`` builds for a gaussian-iid trial with N >= n, drawn
    from the record's substream in the order that docstring gives."""
    df = np.concatenate([float(N) - np.arange(n), np.arange(n - 1, 0, -1.0)])
    chi = np.sqrt(record.generator().chisquare(df))
    chi /= math.sqrt(N)
    return chi[:n], chi[n:]


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

    lambda_min is reported as exactly 0 when the Gram is singular to
    round-off: for N < n, and when its smallest eigenvalue is at most
    n * eps * max|G|, the rule of ``lambda_min_power``.  A Gram's largest
    entry sits on its diagonal, so that costs O(n).  With ``vectors`` the
    solver is ``eigh`` and the residual is max ||G v - mu v|| over the two
    extreme eigenpairs, scaled by lambda_max (machine-level for a healthy
    solve).  Without it the solver is ``eigvalsh``, which skips the
    eigenvectors, and the residual is NaN: a sweep trial reports only the
    extremes.  The two solvers' extremes agree to round-off but not bit for
    bit.
    """
    g = gram(m)
    if vectors:
        vals, vecs = np.linalg.eigh(g)
    else:
        vals = np.linalg.eigvalsh(g)
    lam_max = float(np.sqrt(max(vals[-1], 0.0)))
    if m.N < m.n or vals[0] <= m.n * _EPS * g.diagonal().max():
        lam_min = 0.0
    else:
        lam_min = float(np.sqrt(vals[0]))
    if not vectors:
        return SpectralResult(lambda_min=lam_min, lambda_max=lam_max, method="sym-eig", residual=math.nan)
    res = 0.0
    for idx in (0, len(vals) - 1):
        v = vecs[:, idx]
        res = max(res, float(np.linalg.norm(g @ v - vals[idx] * v)))
    scale = lam_max if lam_max > 0 else 1.0
    return SpectralResult(lambda_min=lam_min, lambda_max=lam_max, method="sym-eig", residual=res / scale)


# half-width of an inertia bracket, in units of n * eps * max diag G
_BRACKET_K = 16


def inertia_bracket(g: np.ndarray, mu: float, upper: bool = False) -> float | None:
    """Half-width w of a Sylvester-inertia bracket of the estimate ``mu`` of
    the smallest eigenvalue of the symmetric ``g`` (the largest with
    ``upper``), or None when the bracket fails.

    A Cholesky factorization exists exactly when a symmetric matrix is
    positive definite (Sylvester's law of inertia), and it is backward
    stable, so two factorizations locate an eigenvalue: G - (mu - w) I must
    factor and G - (mu + w) I must not; with ``upper``, (mu + w) I - G must
    and (mu - w) I - G must not.  w = ``_BRACKET_K`` * n * eps * max diag G,
    a few times the round-off of a zero eigenvalue, so a rank-deficient Gram
    brackets at mu = 0 and a zero matrix never brackets.
    """
    n = g.shape[0]
    w = _BRACKET_K * n * _EPS * float(g.diagonal().max())
    sign = -1.0 if upper else 1.0
    ident = np.eye(n)

    def definite(shift):
        try:
            np.linalg.cholesky(sign * (g - shift * ident))
        except np.linalg.LinAlgError:
            return False
        return True

    return w if definite(mu - sign * w) and not definite(mu + sign * w) else None


def bidiagonal_extremes(diag, sub) -> tuple[np.ndarray, np.ndarray]:
    """Extreme singular values of a batch of n x n lower-bidiagonal factors.

    Row t of ``diag`` (T x n) is the diagonal a of factor B_t and row t of
    ``sub`` (T x (n-1)) its subdiagonal b.  Returns ``(lambda_min,
    lambda_max)``, two arrays of length T.  Each end is found by bisection
    on Sturm counts of the tridiagonal B^T B, whose diagonal is
    a_i^2 + b_i^2 and whose squared off-diagonal is (b_i a_{i+1})^2.  Both
    ends of all T factors advance together in one vector, one pivot at a
    time, from Gershgorin's interval clamped at 0.  Every element stops on
    its own tolerance, eps times its Gershgorin bound, and all arithmetic is
    elementwise, so an element's bits do not depend on the rest of the
    batch.  No BLAS or LAPACK runs.  Each factor is first scaled by a power
    of two, which is exact, so that its squares neither overflow nor
    underflow.  The squared extremes are within a few eps * lambda_max^2 of
    the exact ones.  An empty last dimension of ``diag`` or mismatched
    shapes raise ``InvalidParameterError``; a non-finite factor raises
    ``InvalidInputError``.
    """
    a = np.asarray(diag, dtype=float)
    b = np.asarray(sub, dtype=float)
    if a.ndim != 2 or a.shape[1] < 1 or b.shape != (a.shape[0], a.shape[1] - 1):
        raise InvalidParameterError(
            f"need diag of shape (T, n) with n >= 1 and sub of shape (T, n - 1), got {a.shape} and {b.shape}"
        )
    count, n = a.shape
    top = np.maximum(np.abs(a).max(axis=1, initial=0.0), np.abs(b).max(axis=1, initial=0.0))
    bad = ~np.isfinite(top)
    if bad.any():
        raise InvalidInputError(f"bidiagonal factor {int(np.flatnonzero(bad)[0])} has non-finite entries")
    # scale each factor by a power of two, exactly, so that its entries are
    # below 1 and their squares neither overflow nor lose bits to underflow
    shift = np.frexp(top)[1]
    d, e2, lo, hi = _gram_tridiagonal(np.ldexp(a.T, -shift, order="C"), np.ldexp(b.T, -shift, order="C"))
    # row 0 seeks lambda_min^2, the first x with 1 eigenvalue below it, and
    # row 1 lambda_max^2, the first x with all n below it
    lo, hi = np.stack([lo, lo]), np.stack([hi, hi])
    tol = _EPS * hi
    wanted = np.array([[1], [n]])
    pivots = np.empty((n, 2, count))
    active = hi - lo > tol
    while active.any():
        x = lo + 0.5 * (hi - lo)
        below = _sturm_counts(d, e2, x, pivots) < wanted
        stuck = (x == lo) | (x == hi)
        lo = np.where(active & below, x, lo)
        hi = np.where(active & ~below, x, hi)
        active &= (hi - lo > tol) & ~stuck
    lam_min, lam_max = np.ldexp(np.sqrt(lo + 0.5 * (hi - lo)), shift)
    return lam_min, lam_max


def _gram_tridiagonal(a, b):
    """Diagonal d (n x T) and squared off-diagonal e2 ((n-1) x T) of the
    Grams B^T B of the factors whose diagonals are the columns of ``a`` and
    subdiagonals the columns of ``b``, with each Gram's Gershgorin interval
    [lo, hi], clamped at 0 and widened by 2 n eps of its bound for the
    rounding of d and e2."""
    n = a.shape[0]
    d = a * a
    d[:-1] += b * b
    e2 = b * a[1:]
    e2 *= e2
    e = np.sqrt(e2)
    radius = np.zeros_like(d)
    radius[:-1] += e
    radius[1:] += e
    upper = (d + radius).max(axis=0)
    slack = 2.0 * n * _EPS * upper
    return d, e2, np.maximum((d - radius).min(axis=0) - slack, 0.0), upper + slack


def _sturm_counts(d, e2, x, pivots) -> np.ndarray:
    """Number of eigenvalues below x[k, j] of the tridiagonal with diagonal
    d[:, j] and squared off-diagonal e2[:, j], from the signs of the LDL^T
    pivots of T - x I, written into ``pivots`` (n x 2 x T).

    The pivots run in IEEE arithmetic: a zero or tiny pivot makes the next
    one -inf and the one after restart.  Only a zero pivot above a zero
    off-diagonal gives 0/0; those elements are counted again with LAPACK's
    rule (dstebz), which moves a pivot smaller than pivmin to -pivmin.
    """
    np.subtract(d[:, None, :], x, out=pivots)
    step = np.empty_like(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for e2_row, previous, row in zip(e2, pivots, pivots[1:]):
            np.divide(e2_row, previous, out=step)
            np.subtract(row, step, out=row)
    counts = np.count_nonzero(pivots < 0, axis=0)
    redo = np.nonzero(np.isnan(pivots[-1]))
    if redo[0].size:
        cols, xs = redo[1], x[redo]
        pivmin = np.finfo(float).tiny * np.maximum(1.0, e2[:, cols].max(axis=0, initial=0.0))
        q = d[0, cols] - xs
        safe = np.zeros(cols.size, dtype=counts.dtype)
        for i in range(len(d)):
            if i:
                q = d[i, cols] - xs - e2[i - 1, cols] / q
            q = np.where(np.abs(q) < pivmin, -pivmin, q)
            safe += q < 0
        counts[redo] = safe
    return counts


_POWER_TOL = 1e-13
_POWER_MAX_ITER = 20000


def lambda_min_power(m: SampleMatrix) -> float:
    """Smallest eigenvalue of the Gram matrix by inverse iteration.

    The path of ``lminlab spectrum --power``, its only caller (compare
    against lambda_min**2): the Gram is inverted once by LU, not by the
    symmetric eigensolver.  Unshifted inverse iteration runs until the
    Rayleigh quotient changes by at most ``_POWER_TOL`` (relative), then two
    Rayleigh-quotient steps, each a fresh shifted solve, polish the estimate
    and any error of the explicit inverse.  BLAS runs on one thread, so the
    result does not depend on the BLAS thread count.  A non-finite Gram
    (see ``gram``) or a singular one raises ``InvalidInputError``: singular
    when LU fails or when the estimate is at most n * eps * max|G|, the
    round-off level of a zero eigenvalue.  ``NoConvergenceError`` carries
    diagnostics after ``_POWER_MAX_ITER`` iterations.
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
    level = n * _EPS * float(np.abs(g).max())
    if est <= level:
        raise InvalidInputError(
            f"gram is numerically singular: smallest eigenvalue estimate {est:.3g} <= n * eps * max|G| = {level:.3g}"
        )
    return est

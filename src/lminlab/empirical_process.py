"""Instrumentation for the empirical-process machinery behind the floors.

Contents:

- the piecewise-linear truncation phi_u squeezed between the indicators of
  {t >= u} and {t >= 2u}, Lipschitz with constant 1/u;
- the exact layered-integral identity P_N f^2 = 2 int_0^inf u P_N{|f|>u} du;
- a brute-force VC shattering checker at tiny dimension;
- an exhaustive tiny-instance oracle that enumerates every sample multiset
  and every sign vector of a finite probability space, with exact rational
  probability arithmetic and an exactly decided event, and compares the
  exact success probability of the small-ball floor event against its
  predicted bound.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, InvalidInputError, InvalidParameterError
from .rademacher import _all_sign_vectors
from .streams import as_generator

# ---------------------------------------------------------------------------
# truncation function and exact identities
# ---------------------------------------------------------------------------


def truncation_phi(u: float, t) -> float | np.ndarray:
    """Ramp from 0 at t <= u to 1 at t >= 2u: clip(t/u - 1, 0, 1).

    Accepts scalar or array t >= 0; u must be > 0.
    """
    if u <= 0:
        raise InvalidParameterError(f"u must be > 0, got {u}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise InvalidParameterError("t must be >= 0")
    out = np.clip(t_arr / u - 1.0, 0.0, 1.0)
    return float(out) if np.isscalar(t) else out


def second_moment_identity(values):
    """Mean of squares vs the exact layered integral 2 int u P_N{|v|>u} du.

    The integral is computed piecewise over the sorted magnitudes (the
    empirical tail is a step function), giving an independent path to the same
    quantity; returns (lhs, rhs, gap).  Both sides reduce along the last
    axis: a 1-D input gives three Python floats, a (k, N) batch three arrays
    of shape (k,) whose i-th entries equal, bit for bit, the 1-D call on row i.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.size == 0:
        raise InvalidInputError(f"values must be a nonempty array of at least 1 dimension, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("values must be finite")
    lhs = (v**2).mean(axis=-1)
    mags = np.sort(np.abs(v), axis=-1)
    N = mags.shape[-1]
    edges = np.concatenate([np.zeros(mags.shape[:-1] + (1,)), mags], axis=-1)
    # On (edges[k], edges[k+1]) exactly N-k values exceed u.
    counts = N - np.arange(N)
    rhs = (counts * (edges[..., 1:] ** 2 - edges[..., :-1] ** 2)).sum(axis=-1) / N
    if v.ndim == 1:
        lhs, rhs = float(lhs), float(rhs)
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# brute-force VC dimension
# ---------------------------------------------------------------------------

_VC_MAX_POINTS = 25
_VC_MAX_DIM = 3
_SEPARATION_TOL = 1e-12  # relative to the largest squared difference


def _min_norm_point(points: np.ndarray, tol: float) -> np.ndarray:
    """Point of least norm in conv(points), by Wolfe's algorithm (1976).

    A major cycle adds the point that minimizes <x, p> to the corral (the
    affinely independent support of x); minor cycles move x to the affine
    min-norm point of the corral and, while some of its weights are <= 0,
    step back to the hull and drop the point whose weight reaches 0 first.
    Stops once |x|^2 <= tol (x is the origin up to ``tol``), or no point
    improves |x|^2 - <x, p> by more than ``tol``, or round-off stalls the
    descent.
    """
    corral = [int(np.argmin(np.einsum("ij,ij->i", points, points)))]
    weights = np.ones(1)
    x = points[corral[0]]
    while x @ x > tol:
        k = int(np.argmin(points @ x))
        if x @ x - points[k] @ x <= tol:
            break
        corral.append(k)
        weights = np.append(weights, 0.0)
        while True:
            # affine min-norm weights: min |mu P|^2 subject to sum(mu) = 1
            m = len(corral)
            kkt = np.ones((m + 1, m + 1))
            kkt[:m, :m] = points[corral] @ points[corral].T
            kkt[m, m] = 0.0
            mu = np.linalg.lstsq(kkt, np.eye(m + 1)[m], rcond=None)[0][:m]
            if np.all(mu > 0):
                weights = mu
                break
            # step from weights towards mu until the first weight reaches 0,
            # and drop that point (one still at weight 0 allows no step)
            blocking = np.flatnonzero(mu <= 0)
            w = weights[blocking]
            ratio = np.divide(w, w - mu[blocking], out=np.zeros_like(w), where=w > 0)
            weights = weights + ratio.min() * (mu - weights)
            weights[blocking[np.argmin(ratio)]] = 0.0
            keep = weights > 0
            corral = [c for c, kept in zip(corral, keep) if kept]
            weights = weights[keep]
        new = weights @ points[corral]
        if new @ new >= x @ x:
            break
        x = new
    return x


def _halfspace_separable(inside: np.ndarray, outside: np.ndarray) -> bool:
    """Strict linear separability by the min-norm point of a difference set.

    Two finite sets are strictly separable by a hyperplane exactly when
    their hulls are disjoint, that is when the origin is not in
    conv{a - b : a in inside, b in outside}.  The min-norm point of that
    hull (Wolfe) decides it: separable when its squared norm exceeds
    ``_SEPARATION_TOL`` times the largest squared difference.  A coincident
    inside/outside pair puts the origin among the differences, so it is
    never separable; an empty side always is.
    """
    if inside.size == 0 or outside.size == 0:
        return True  # a far-away halfspace realizes the empty/full dichotomy
    diffs = (inside[:, None, :] - outside[None, :, :]).reshape(-1, inside.shape[1])
    tol = _SEPARATION_TOL * float(np.einsum("ij,ij->i", diffs, diffs).max())
    x = _min_norm_point(diffs, tol)
    return bool(x @ x > tol)


def _abs_threshold_realizable(inside_mags: np.ndarray, outside_mags: np.ndarray) -> bool:
    """Feasibility of {|x| > s} picking exactly the inside points (s > 0)."""
    if inside_mags.size == 0:
        return True  # s above every magnitude
    lo = float(outside_mags.max()) if outside_mags.size else 0.0
    hi = float(inside_mags.min())
    return lo < hi and hi > 0


def _dichotomy_realizable(points: np.ndarray, mask: np.ndarray, klass: str) -> bool:
    if klass == "halfspaces":
        return _halfspace_separable(points[mask], points[~mask])
    # abs-threshold on the line: {x : |x| > u}
    mags = np.abs(points[:, 0])
    return _abs_threshold_realizable(mags[mask], mags[~mask])


def _is_shattered(points: np.ndarray, klass: str) -> bool:
    k = len(points)
    # Halfspaces are complement-closed, so only dichotomies containing point 0
    # need testing.
    n_masks = 1 << (k - 1) if klass == "halfspaces" else 1 << k
    offset = 1 << (k - 1) if klass == "halfspaces" else 0
    for code in range(n_masks):
        bits = (code + offset) if klass == "halfspaces" else code
        mask = np.array([(bits >> i) & 1 == 1 for i in range(k)])
        if not _dichotomy_realizable(points, mask, klass):
            return False
    return True


def vc_bruteforce(points, klass: str = "halfspaces") -> int:
    """Largest subset size shattered by the class, by dichotomy enumeration.

    ``klass`` is "halfspaces" (dim <= 3; a dichotomy is realizable when the
    min-norm point of conv{a - b : a in, b out} is not the origin, found by
    Wolfe's algorithm) or "abs-threshold" ({x : |x| > u}, points on the
    line only; other dimensions raise ``InvalidParameterError``).  Capped
    at 25 points; a NaN or infinite coordinate is an ``InvalidInputError``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidInputError("points must be a nonempty 2-D array")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("points must be finite")
    m, dim = pts.shape
    if klass not in ("halfspaces", "abs-threshold"):
        raise InvalidParameterError(f"unknown class {klass!r}")
    if klass == "abs-threshold" and dim != 1:
        raise InvalidParameterError(f"abs-threshold points must lie on the line (dim 1), got dim {dim}")
    if m > _VC_MAX_POINTS or dim > _VC_MAX_DIM:
        raise BudgetExceededError(
            f"enumeration capped at {_VC_MAX_POINTS} points in dim <= {_VC_MAX_DIM}, "
            f"got {m} points in dim {dim}"
        )
    best = 0
    for k in range(1, m + 1):
        found = False
        for subset in itertools.combinations(range(m), k):
            if _is_shattered(pts[list(subset)], klass):
                found = True
                break
        if not found:
            break
        best = k
    return best


# ---------------------------------------------------------------------------
# exact tiny-instance oracle
# ---------------------------------------------------------------------------

_ORACLE_MAX_ATOMS = 6
_ORACLE_MAX_FUNCTIONS = 4
_ORACLE_MAX_N = 10
_ORACLE_BUDGET = 1 << 26  # multisets x sign vectors


@dataclass(frozen=True)
class FiniteInstance:
    """A finite probability space with exact rational atom weights.

    ``probs`` are Fractions summing to 1 exactly (<= 6 atoms); ``functions``
    are real-valued functions given by their values on the atoms (<= 4);
    ``N`` <= 10 is the sample size enumerated by the oracle.
    """

    probs: tuple
    functions: tuple
    N: int

    def __post_init__(self):
        if not (1 <= len(self.probs) <= _ORACLE_MAX_ATOMS):
            raise InvalidParameterError(f"need 1..{_ORACLE_MAX_ATOMS} atoms, got {len(self.probs)}")
        if not all(isinstance(p, Fraction) and p > 0 for p in self.probs):
            raise InvalidParameterError("probs must be positive Fractions")
        if sum(self.probs, Fraction(0)) != 1:
            raise InvalidParameterError(f"probs must sum to 1 exactly, got {sum(self.probs)}")
        if not (1 <= len(self.functions) <= _ORACLE_MAX_FUNCTIONS):
            raise InvalidParameterError(
                f"need 1..{_ORACLE_MAX_FUNCTIONS} functions, got {len(self.functions)}"
            )
        for f in self.functions:
            if len(f) != len(self.probs):
                raise InvalidParameterError("each function needs one value per atom")
            if not all(math.isfinite(v) for v in f):
                raise InvalidParameterError("function values must be finite")
        if not (1 <= self.N <= _ORACLE_MAX_N):
            raise InvalidParameterError(f"need 1 <= N <= {_ORACLE_MAX_N}, got {self.N}")


@dataclass(frozen=True)
class OracleReport:
    """Exact enumeration results for one instance at one tau."""

    tau: float
    q2tau: Fraction
    r_n: float
    floor: float
    exact_prob: Fraction
    bound: float
    hypothesis_ok: bool
    verdict: str  # "holds" | "violated" | "not-applicable"


@functools.cache
def _multisets(n_atoms: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (classes, counts) of the multisets of N draws from n_atoms
    atoms: one sorted atom-index tuple per multiset, and counts[c, a] the
    multiplicity of atom a in multiset c.  Cached, since a battery meets
    the same (n_atoms, N) many times."""
    classes = np.array(list(itertools.combinations_with_replacement(range(n_atoms), N)), dtype=np.int64)
    counts = (classes[:, :, None] == np.arange(n_atoms)).sum(axis=1)
    classes.flags.writeable = False
    counts.flags.writeable = False
    return classes, counts


def tiny_smallball_oracle(inst: FiniteInstance, tau: float) -> OracleReport:
    """Exhaustive verification of the small-ball floor on a finite instance.

    Every quantity below is invariant under reordering a sample tuple (a
    permutation of the tuple permutes the sign vectors), so the oracle
    enumerates the C(N+k-1, N) multisets of N draws from the k atoms, each
    weighted by the exact probability of its multinomial-many ordered tuples,
    and all 2^N sign vectors, producing:

    - Q(2 tau): min over functions of the exact atom mass with |f| >= 2 tau;
    - the exact Rademacher average over tuples and sign vectors;
    - the exact probability of {min_f P_N f^2 >= tau^2 Q(2 tau)/2}, with the
      event decided in exact rational arithmetic on the float inputs;
    - the predicted success bound 1 - 2 exp(-Q(2 tau)^2 N / 8);
    - a verdict: when the applicability condition R_N <= tau Q(2 tau)/16
      holds, exact probability >= bound must hold ("holds"/"violated"),
      otherwise "not-applicable".
    """
    if tau <= 0:
        raise InvalidParameterError(f"tau must be > 0, got {tau}")
    n_atoms = len(inst.probs)
    N = inst.N
    work = math.comb(N + n_atoms - 1, N) << N
    if work > _ORACLE_BUDGET:
        raise BudgetExceededError(
            f"C({N + n_atoms - 1}, {N}) multisets x 2^{N} signs = {work} "
            f"exceeds budget {_ORACLE_BUDGET}"
        )

    F = np.array([[float(v) for v in f] for f in inst.functions])  # (nf, n_atoms)

    # Q(2 tau) exactly.
    q2tau = Fraction(1)
    for fi in range(len(inst.functions)):
        mass = sum(
            (p for p, v in zip(inst.probs, F[fi]) if abs(v) >= 2.0 * tau), Fraction(0)
        )
        q2tau = min(q2tau, mass)
    floor = tau**2 * float(q2tau) / 2.0

    classes, counts = _multisets(n_atoms, N)

    # Exact multiset probabilities as integers over a common denominator D^N:
    # multinomial(N; counts) prod_a w_a^c_a, each term at most D^N.
    denom = math.lcm(*(p.denominator for p in inst.probs))
    if denom ** N >= (1 << 62):
        raise BudgetExceededError(f"probability denominator {denom}^{N} too large for exact sums")
    weights = np.array([int(p * denom) for p in inst.probs], dtype=np.int64)
    fact = np.array([math.factorial(k) for k in range(N + 1)], dtype=np.int64)
    multinomial = fact[N] // np.prod(fact[counts], axis=1)
    class_num = multinomial * np.prod(weights[classes], axis=1)  # sums to denom**N

    # Event {min_f P_N f^2 >= tau^2 Q(2 tau)/2}, decided exactly.  Every float
    # is m/2^k, so over the common denominator 2^e of the squares, with
    # f_a^2 = sq[f, a]/2^e and tau^2 = t_sq/2^e, the event for a multiset
    # reads 2 den(Q) sum_a c_a sq[f, a] >= N num(Q) t_sq in integers.
    ratios = [v.as_integer_ratio() for v in F.flat] + [float(tau).as_integer_ratio()]
    den_sq = max(d for _, d in ratios) ** 2
    scaled = [m * m * (den_sq // (d * d)) for m, d in ratios]
    sq = np.array(scaled[:-1], dtype=object).reshape(F.shape)
    lhs = 2 * q2tau.denominator * (counts.astype(object) @ sq.T)  # (n_classes, nf)
    success = np.all(lhs >= N * q2tau.numerator * scaled[-1], axis=1)
    exact_prob = Fraction(int(class_num[success].sum()), denom**N)

    # Exact Rademacher average: E_tuple E_sign max_f |sum_i eps_i f(x_i)| / N.
    signs = _all_sign_vectors(N)  # (2^N, N)
    sup = np.abs(F[:, classes] @ signs.T).max(axis=0)  # (n_classes, 2^N)
    r_n = float((class_num / float(denom**N)) @ sup.mean(axis=1)) / N

    hypothesis_ok = r_n <= tau * float(q2tau) / 16.0
    bound = 1.0 - 2.0 * math.exp(-float(q2tau) ** 2 * N / 8.0)
    if not hypothesis_ok:
        verdict = "not-applicable"
    else:
        verdict = "holds" if float(exact_prob) >= bound else "violated"
    return OracleReport(
        tau=tau,
        q2tau=q2tau,
        r_n=r_n,
        floor=floor,
        exact_prob=exact_prob,
        bound=bound,
        hypothesis_ok=hypothesis_ok,
        verdict=verdict,
    )


def random_instances(
    count: int,
    rng: np.random.Generator | int | None = None,
) -> list[tuple[FiniteInstance, float]]:
    """Randomized oracle battery: (instance, tau) pairs, each instance with
    2 to 4 atoms, 1 to 3 functions and a sample size N in 2..8.

    Function values mix zeros, moderate, and large magnitudes so the battery
    exercises degenerate (applicable) and non-degenerate (gated) instances.
    """
    rng = as_generator(rng)
    out = []
    for _ in range(count):
        n_atoms = int(rng.integers(2, 5))
        n_funcs = int(rng.integers(1, 4))
        N = int(rng.integers(2, 9))
        ints = rng.integers(1, 7, size=n_atoms)
        total = int(ints.sum())
        probs = tuple(Fraction(int(v), total) for v in ints)
        kind = rng.random()
        if kind < 0.15:
            funcs = tuple(tuple(0.0 for _ in range(n_atoms)) for _ in range(n_funcs))
        else:
            scale = 4.0 if kind < 0.5 else 0.8
            funcs = tuple(
                tuple(
                    float(np.float64(rng.standard_normal() * scale).round(3)) * int(rng.random() > 0.2)
                    for _ in range(n_atoms)
                )
                for _ in range(n_funcs)
            )
        tau = float(rng.choice([0.125, 0.25, 0.5, 1.0]))
        out.append((FiniteInstance(probs=probs, functions=funcs, N=N), tau))
    return out


def oracle_battery(
    instances: Sequence[tuple[FiniteInstance, float]],
) -> tuple[list[OracleReport], int, int]:
    """Run the oracle over a battery; returns (reports, n_applicable, n_violated)."""
    reports = [tiny_smallball_oracle(inst, tau) for inst, tau in instances]
    applicable = sum(1 for r in reports if r.hypothesis_ok)
    violated = sum(1 for r in reports if r.verdict == "violated")
    return reports, applicable, violated

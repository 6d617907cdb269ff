"""Samplers and analytic descriptors for isotropic random-vector families.

Six families, all isotropic by construction (E<X,t>^2 = ||t||^2 for unit t):

- ``gaussian-iid``     iid standard normal coordinates
- ``heavy-iid``        iid unit-variance truncated-Pareto coordinates,
                       P{|xi| > u} = min(1, (u/u0)^-(2+eta))
- ``heavy-radial``     X = r * theta with theta uniform on the sphere and
                       r = sqrt(n) * rho, rho truncated-Pareto with E rho^2 = 1;
                       the projection tail is exact and direction-independent
- ``rademacher-vec``   iid +-1 coordinates
- ``atomic-mixture``   X = 0 with probability p, else a Gaussian rescaled by
                       1/sqrt(1-p) so the covariance stays the identity
- ``uniform-cube``     iid uniform on [-sqrt(3), sqrt(3)] coordinates

Analytic quantities (marginal tails, absolute moments) refer to a coordinate
direction; for rotation-invariant families (gaussian-iid, heavy-radial,
atomic-mixture) they are direction-independent and therefore also the
sphere-uniform values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UnsupportedQueryError
from .streams import _SIGN_CHUNK, as_generator, check_array_size, fill_signs

FAMILIES = (
    "gaussian-iid",
    "heavy-iid",
    "heavy-radial",
    "rademacher-vec",
    "atomic-mixture",
    "uniform-cube",
)

_HEAVY = ("heavy-iid", "heavy-radial")
_ROTATION_INVARIANT = ("gaussian-iid", "heavy-radial", "atomic-mixture")


@dataclass(frozen=True)
class DistributionSpec:
    """Recipe for one isotropic family in dimension ``n``.

    A finite ``eta`` > 0 is required for the heavy families and rejected
    elsewhere; ``mixture_p`` only applies to atomic-mixture.  ``seed`` is an
    optional default seed carried through config round-trips.
    """

    family: str
    n: int
    eta: float | None = None
    mixture_p: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameterError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {self.n}")
        if self.family in _HEAVY:
            if self.eta is None or not (math.isfinite(self.eta) and self.eta > 0):
                raise InvalidParameterError(f"{self.family} requires a finite eta > 0, got {self.eta}")
        elif self.eta is not None:
            raise InvalidParameterError(f"eta only applies to heavy families, not {self.family}")
        if self.family == "atomic-mixture":
            if not (0 <= self.mixture_p < 1):
                raise InvalidParameterError(f"mixture_p must be in [0,1), got {self.mixture_p}")
        elif self.mixture_p != 0.0:
            raise InvalidParameterError("mixture_p only applies to atomic-mixture")

    @property
    def rotation_invariant(self) -> bool:
        return self.family in _ROTATION_INVARIANT


def pareto_threshold(eta: float) -> float:
    """Plateau edge u0 of the unit-variance truncated-Pareto scalar.

    The scalar law P{|xi| > u} = min(1, (u/u0)^-(2+eta)) has
    E xi^2 = u0^2 (1 + 2/eta); unit variance forces u0 = sqrt(eta/(eta+2)).
    """
    if eta <= 0:
        raise InvalidParameterError(f"eta must be > 0, got {eta}")
    return math.sqrt(eta / (eta + 2.0))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_matrix(spec: DistributionSpec, m: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Draw ``m`` independent copies of X as the rows of an (m, n) array.

    Draw order per family is fixed (documented here) so identical seeds give
    bit-identical output:

    - gaussian-iid: one (m, n) block of standard normals
    - heavy-iid: (m, n) uniforms for magnitudes, then (m, n) sign bits
      (magnitudes computed in place, signs multiplied in a chunk at a time)
    - heavy-radial: (m, n) normals for directions, then m uniforms for radii;
      for n > 1 each normal row g_i is scaled in place, in one pass, by
      sqrt(n) * rho_i / ||g_i||, with the norm from a row-wise ``einsum``
      (no m x n temporary); the radii and norms are built in place, so
      two m-vectors are all it holds beside its output
    - rademacher-vec: (m, n) sign bits
    - atomic-mixture: m uniforms for the atom coin, then (m, n) normals
      (normals are drawn even for atom rows, so the stream layout does not
      depend on the coin outcomes)
    - uniform-cube: one (m, n) uniform block on [-sqrt(3), sqrt(3)]

    Sign bits come from ``streams.fill_signs``, which draws them as one
    ``integers(0, 2, (m, n))`` call would, so heavy-iid and rademacher-vec
    hold their output and one chunk of signs; atomic-mixture scales its
    normals in place.  An m x n array beyond numpy's largest array size
    raises ``InvalidParameterError``.
    """
    n = spec.n
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
    check_array_size("m x n samples", m * n)
    rng = as_generator(rng)
    fam = spec.family

    if fam == "gaussian-iid":
        return rng.standard_normal((m, n))

    if fam == "heavy-iid":
        out = rng.random((m, n))
        np.subtract(1.0, out, out=out)
        np.power(out, -1.0 / (2.0 + spec.eta), out=out)
        out *= pareto_threshold(spec.eta)
        flat = out.reshape(-1)
        signs = np.empty(min(flat.size, _SIGN_CHUNK))
        for start in range(0, flat.size, _SIGN_CHUNK):
            chunk = flat[start : start + _SIGN_CHUNK]
            chunk *= fill_signs(rng, signs[: chunk.size])
        return out

    if fam == "heavy-radial":
        g = rng.standard_normal((m, n))
        rho = rng.random(m)
        np.subtract(1.0, rho, out=rho)
        np.power(rho, -1.0 / (2.0 + spec.eta), out=rho)
        rho *= pareto_threshold(spec.eta)
        if n == 1:
            theta = np.sign(g)
            theta[theta == 0] = 1.0
            theta *= rho[:, None]
            return theta
        # one in-place pass over the normals: a sweep draws one of these per trial
        rho *= math.sqrt(n)
        norms = np.einsum("ij,ij->i", g, g)
        rho /= np.sqrt(norms, out=norms)
        g *= rho[:, None]
        return g

    if fam == "rademacher-vec":
        return fill_signs(rng, np.empty((m, n)))

    if fam == "atomic-mixture":
        p = spec.mixture_p
        coin = rng.random(m) < p
        g = rng.standard_normal((m, n))
        g /= math.sqrt(1.0 - p)
        g[coin] = 0.0
        return g

    if fam == "uniform-cube":
        s = math.sqrt(3.0)
        return rng.uniform(-s, s, size=(m, n))

    raise InvalidParameterError(f"unknown family {fam!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# analytic marginals (coordinate direction)
# ---------------------------------------------------------------------------


def _sphere_proj_const(n: int) -> float:
    """Normalizer c_n of the sphere-projection density c_n (1-z^2)^((n-3)/2)."""
    return math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0)) / math.sqrt(math.pi)


def _proj_abs_moment(n: int, q: float) -> float:
    """E |Z|^q for Z = <theta, e1>, theta uniform on the unit sphere in R^n."""
    return math.exp(math.lgamma(n / 2.0) + math.lgamma((q + 1.0) / 2.0) - math.lgamma((n + q) / 2.0)) / math.sqrt(math.pi)


def _pareto_survival(s: float, s0: float, eta: float) -> float:
    if s <= s0:
        return 1.0
    return (s / s0) ** -(2.0 + eta)


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 64-node Gauss-Legendre rule on [-1, 1],
    computed once, on first use: ``numpy.polynomial`` stays off lminlab's
    import path."""
    from numpy.polynomial import legendre

    return legendre.leggauss(64)


def _gauss_legendre(f, a: float, b: float) -> float:
    """int_a^b f by the 64-node Gauss-Legendre rule; ``f`` takes an array."""
    nodes, weights = _legendre_rule()
    half = 0.5 * (b - a)
    return half * float(weights @ f(a + half * (nodes + 1.0)))


def _radial_tail(n: int, eta: float, u: float) -> float:
    """P{ sqrt(n) rho |Z| >= u } by Gauss-Legendre quadrature over the sphere
    projection."""
    if u <= 0:
        return 1.0
    s0 = pareto_threshold(eta)
    root_n = math.sqrt(n)
    if n == 1:
        return _pareto_survival(u / root_n, s0, eta)
    # Substitute z = sin(phi): E h(|Z|) = 2 c_n int_0^{pi/2} h(sin phi) cos^{n-2}(phi) dphi.
    # The survival of u/(sqrt(n) sin phi) is (sin(phi)/z_star)^(2+eta) below the
    # kink sin(phi) = z_star and 1 above it.
    c_n = _sphere_proj_const(n)
    z_star = u / (root_n * s0)

    def power_branch(phi: np.ndarray) -> np.ndarray:
        return (np.sin(phi) / z_star) ** (2.0 + eta) * np.cos(phi) ** (n - 2)

    if z_star >= 1.0:
        val = _gauss_legendre(power_branch, 0.0, math.pi / 2)
    else:
        phi_star = math.asin(z_star)
        lo = _gauss_legendre(power_branch, 0.0, phi_star)
        hi = _gauss_legendre(lambda phi: np.cos(phi) ** (n - 2), phi_star, math.pi / 2)
        val = lo + hi
    return min(1.0, 2.0 * c_n * val)


def theoretical_tail(spec: DistributionSpec, u: float) -> float:
    """Marginal tail P{|<X, e1>| >= u} for a coordinate direction.

    Exact closed forms where available, a fixed 64-node Gauss-Legendre rule
    for heavy-radial (relative error <= 1e-8 against adaptive quadrature).
    Rotation-invariant families make this the tail in every direction.
    """
    if u < 0:
        raise InvalidParameterError(f"u must be >= 0, got {u}")
    fam = spec.family
    if u == 0:
        return 1.0
    if fam == "gaussian-iid":
        return math.erfc(u / math.sqrt(2.0))
    if fam == "heavy-iid":
        return _pareto_survival(u, pareto_threshold(spec.eta), spec.eta)
    if fam == "heavy-radial":
        return _radial_tail(spec.n, spec.eta, u)
    if fam == "rademacher-vec":
        return 1.0 if u <= 1.0 else 0.0
    if fam == "atomic-mixture":
        p = spec.mixture_p
        return float((1.0 - p) * math.erfc(u * math.sqrt((1.0 - p) / 2.0)))
    if fam == "uniform-cube":
        return max(0.0, 1.0 - u / math.sqrt(3.0))
    raise UnsupportedQueryError(f"{fam} has no analytic marginal tail")  # pragma: no cover


def marginal_abs_moment(spec: DistributionSpec, q: float) -> float:
    """E |<X, e1>|^q for a coordinate direction (inf if the moment diverges)."""
    if q <= 0:
        raise InvalidParameterError(f"q must be > 0, got {q}")
    fam = spec.family
    gauss = math.exp(q / 2.0 * math.log(2.0) + math.lgamma((q + 1.0) / 2.0)) / math.sqrt(math.pi)
    if fam == "gaussian-iid":
        return gauss
    if fam == "heavy-iid":
        if q >= 2.0 + spec.eta:
            return math.inf
        u0 = pareto_threshold(spec.eta)
        return u0**q * (2.0 + spec.eta) / (2.0 + spec.eta - q)
    if fam == "heavy-radial":
        if q >= 2.0 + spec.eta:
            return math.inf
        s0 = pareto_threshold(spec.eta)
        rho_q = s0**q * (2.0 + spec.eta) / (2.0 + spec.eta - q)
        return spec.n ** (q / 2.0) * rho_q * _proj_abs_moment(spec.n, q)
    if fam == "rademacher-vec":
        return 1.0
    if fam == "atomic-mixture":
        return (1.0 - spec.mixture_p) ** (1.0 - q / 2.0) * gauss
    if fam == "uniform-cube":
        return 3.0 ** (q / 2.0) / (q + 1.0)
    raise UnsupportedQueryError(f"{fam} has no analytic moments")  # pragma: no cover

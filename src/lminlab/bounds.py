"""Predicted floors on lambda_min and their failure probabilities.

Every theorem-shaped floor is evaluated with explicit, overridable constants
(all default to 1; the underlying results only prove existence).  Every
floor follows one rule: a floor beyond float range is refused, its failure
probability is clamped to [0, 1], and a floor that comes out <= 0 is
reported as-is with a "vacuous" flag after any other flag.

Regimes over the tail surplus eta (aspect ratio beta = n/N):

- eta > 2:  floor 1 - c2 sqrt(beta),
            failure c0 log(e/beta) exp(-c1 N beta)
- eta = 2:  floor 1 - c4 sqrt(beta) log^(3/2)(1/beta),
            failure exp(-c3 N beta log(1/beta))
- eta < 2:  floor 1 - c6 (beta log(1/beta))^(eta/(2+eta)),
            failure exp(-c5 N beta log(1/beta))

plus the small-ball floor (tau^2 Q(2tau)/2 on the squared scale, no free
constants), the L1/L2-equivalence floor c2 a/B^2, and the generalized
small-ball floor c2 tau sqrt(Q(2tau)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidParameterError

ETA_EQ_TOL = 1e-9


@dataclass(frozen=True)
class ConstantSet:
    """Named positive floor constants; every field is one constant."""

    c0: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    c4: float = 1.0
    c5: float = 1.0
    c6: float = 1.0
    iso_c0: float = 1.0
    iso_c1: float = 1.0
    iso_c2: float = 1.0
    gen_c1: float = 1.0
    gen_c2: float = 1.0
    gen_c3: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0):
                raise InvalidParameterError(f"constant {name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class CovarianceBand:
    """Marginal norm bounds: a <= ||<X,t>||_L2 <= A and ||.||_L2 <= B ||.||_L1."""

    a: float
    A: float
    B: float

    def __post_init__(self):
        _require_finite(a=self.a, A=self.A, B=self.B)
        if not (0 < self.a <= self.A):
            raise InvalidParameterError(f"need 0 < a <= A, got a={self.a}, A={self.A}")
        if self.B < 1:
            raise InvalidParameterError(f"B must be >= 1, got {self.B}")


@dataclass(frozen=True)
class BoundPrediction:
    """A regime-tagged floor with its failure probability and gate status."""

    regime: str
    floor: float
    prob_failure: float
    constants: dict
    precondition_ok: bool
    precondition_detail: str
    flags: tuple = ()


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value}")


def _require_counts(**counts: int) -> None:
    """Each count is >= 1 and converts to a float: the formulas mix it with
    floats, and an integer beyond float range would raise ``OverflowError``."""
    for name, value in counts.items():
        if value < 1:
            raise InvalidParameterError(f"{name} must be >= 1, got {value}")
        if value > sys.float_info.max:
            raise InvalidParameterError(f"{name} is beyond float range ({len(str(value))} digits)")


def _power(x: float, p: float) -> float:
    """``x**p``, or inf where that is beyond float range."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def _require_smallball(tau: float, q2tau: float) -> None:
    """The small-ball inputs: tau > 0 and Q(2tau) in [0, 1]."""
    if tau <= 0:
        raise InvalidParameterError(f"tau must be > 0, got {tau}")
    if not (0 <= q2tau <= 1):
        raise InvalidParameterError(f"q2tau must be in [0, 1], got {q2tau}")


def _prediction(
    regime: str, floor: float, formula: str, pfail: float, constants: dict, ok: bool, detail: str, flags=()
) -> BoundPrediction:
    """The prediction of every floor, built by the module's rule; ``formula``
    names the floor when it is refused.  A floor that underflows comes out 0,
    as any float product does."""
    if not math.isfinite(floor):
        raise InvalidParameterError(f"floor {formula} overflows float range for these inputs")
    return BoundPrediction(
        regime=regime,
        floor=floor,
        prob_failure=min(1.0, max(0.0, pfail)),
        constants=constants,
        precondition_ok=ok,
        precondition_detail=detail,
        flags=(*flags, "vacuous") if floor <= 0 else flags,
    )


def regime_for_eta(eta: float) -> str:
    if not (eta > 0):
        raise InvalidParameterError(f"eta must be > 0, got {eta}")
    if abs(eta - 2.0) <= ETA_EQ_TOL:
        return "eta-eq-2"
    return "eta-gt-2" if eta > 2.0 else "eta-lt-2"


def regime_rate(regime: str, beta: float, eta: float | None = None) -> float:
    """Theoretical deficit-rate function of beta for a tail regime."""
    if not (0 < beta <= 1):
        raise InvalidParameterError(f"beta must be in (0, 1], got {beta}")
    if regime == "eta-gt-2":
        return math.sqrt(beta)
    if regime == "eta-eq-2":
        return math.sqrt(beta) * math.log(1.0 / beta) ** 1.5 if beta < 1 else 0.0
    if regime == "eta-lt-2":
        if eta is None or not (0 < eta < 2):
            raise InvalidParameterError(f"eta-lt-2 rate needs eta in (0, 2), got {eta}")
        return (beta * math.log(1.0 / beta)) ** (eta / (2.0 + eta)) if beta < 1 else 0.0
    raise InvalidParameterError(f"unknown rate regime {regime!r}")


def floor_regime(eta: float, beta: float, k: ConstantSet, N: int) -> BoundPrediction:
    """Tail-regime floor for tail surplus eta at aspect ratio beta.

    The theorems' constants depend on eta and on the tail constant L of
    sup_t E|<t,X>|^(2+eta) <= L; here they are the ``k`` values, so L is no
    argument.  The regime is selected by eta (above/at/below 2, tolerance
    1e-9).  N enters the failure probability only.  The boundary beta = 1
    makes the log-rate regimes degenerate and is flagged.
    """
    if not (0 < beta <= 1):
        raise InvalidParameterError(f"beta must be in (0, 1], got {beta}")
    _require_counts(N=N)
    regime = regime_for_eta(eta)
    detail = f"eta={eta}, beta={beta}, N={N}"
    if regime == "eta-gt-2":
        pfail = k.c0 * math.log(math.e / beta) * math.exp(-k.c1 * N * beta)
        constants = {"c0": k.c0, "c1": k.c1, "c2": k.c2}
        return _prediction(regime, 1.0 - k.c2 * math.sqrt(beta), "1 - c * rate", pfail, constants, True, detail)
    # the log-rate regimes differ only in their constants and rate
    constants = {"c3": k.c3, "c4": k.c4} if regime == "eta-eq-2" else {"c5": k.c5, "c6": k.c6}
    c_fail, c_floor = constants.values()
    floor = 1.0 - c_floor * regime_rate(regime, beta, eta)
    pfail = math.exp(-c_fail * N * beta * math.log(1.0 / beta)) if beta < 1 else 1.0
    flags = ("degenerate-edge",) if beta == 1.0 else ()
    return _prediction(regime, floor, "1 - c * rate", pfail, constants, True, detail, flags)


def basic_floor(tau: float, q2tau: float, r_n: float, N: int) -> BoundPrediction:
    """Small-ball floor tau^2 Q(2tau)/2 on the squared (lambda_min^2) scale.

    Applies when the Rademacher complexity satisfies r_n <= tau Q(2tau)/16;
    there are no free constants.  Failure probability 2 exp(-Q(2tau)^2 N / 8).
    """
    _require_finite(tau=tau, r_n=r_n)
    _require_smallball(tau, q2tau)
    _require_counts(N=N)
    threshold = tau * q2tau / 16.0
    return _prediction(
        "basic-smallball",
        _power(tau, 2) * q2tau / 2.0,
        "tau^2 q2tau/2",
        2.0 * math.exp(-(q2tau**2) * N / 8.0),
        {},
        r_n <= threshold,
        f"r_n={r_n} vs tau*q2tau/16={threshold}",
        ("squared-scale",),
    )


def isomorphic_floor(band: CovarianceBand, n: int, N: int, k: ConstantSet) -> BoundPrediction:
    """L1/L2-equivalence floor c2 a / B^2, gated on N >= c0 B^4 (A/a)^2 n.

    The failure probability uses the exponent exp(-c1 N / B^4).
    """
    _require_counts(n=n, N=N)
    needed = k.iso_c0 * _power(band.B, 4) * _power(band.A / band.a, 2) * n
    return _prediction(
        "isomorphic",
        k.iso_c2 * band.a / _power(band.B, 2),
        "c2 a/B^2",
        math.exp(-k.iso_c1 * N / _power(band.B, 4)),
        {"iso_c0": k.iso_c0, "iso_c1": k.iso_c1, "iso_c2": k.iso_c2},
        N >= needed,
        f"N={N} vs c0*B^4*(A/a)^2*n={needed:.6g}",
    )


def general_floor(
    tau: float, q2tau: float, A: float, n: int, N: int, k: ConstantSet
) -> BoundPrediction:
    """Generalized small-ball floor c2 tau sqrt(Q(2tau)).

    Needs only (E||X||^2)^(1/2) <= A sqrt(n) and Q(2tau) > 0; gated on
    N >= c1 A n / (tau^2 Q(2tau)^2).
    """
    _require_finite(tau=tau, A=A)
    _require_smallball(tau, q2tau)
    if A <= 0:
        raise InvalidParameterError(f"A must be > 0, got {A}")
    _require_counts(n=n, N=N)
    scale = _power(tau, 2) * q2tau**2
    needed = k.gen_c1 * A * n / scale if scale > 0 else math.inf
    return _prediction(
        "general-smallball",
        k.gen_c2 * tau * math.sqrt(q2tau),
        "c2 tau sqrt(q2tau)",
        2.0 * math.exp(-k.gen_c3 * N * q2tau**2),
        {"gen_c1": k.gen_c1, "gen_c2": k.gen_c2, "gen_c3": k.gen_c3},
        N >= needed,
        f"N={N} vs c1*A*n/(tau^2 q^2)={needed:.6g}",
    )

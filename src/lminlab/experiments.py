"""Beta-sweep harness: samplers -> spectra -> floors, with exponent fitting,
deterministic parallel trials, config parsing, and a one-command verify suite.

N is derived from the aspect ratio by N = ceil(n/beta) so n/N <= beta holds
exactly.  Every trial draws from the substream keyed by (master seed,
beta index, trial index).  Aggregation is a sequential reduce in fixed index
order, and numpy's OpenBLAS is pinned to one thread while a sweep runs,
which makes sweep output byte-identical regardless of worker count and BLAS
thread count.
"""

from __future__ import annotations

import configparser
import csv
import inspect
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import bounds as bd
from . import distributions as dist
from . import empirical_process as ep
from . import rademacher as rad
from . import smallball as sb
from . import spectrum as sp
from .blas import _single_threaded_blas
from .errors import CalibrationUnavailableError, ConfigError, InvalidInputError, InvalidParameterError
from .streams import SeedRecord, check_seed

ROWS_HEADER = ["family", "eta", "n", "N", "beta", "trial", "lambda_min", "lambda_max", "seed"]
SUMMARY_HEADER = [
    "family",
    "eta",
    "n",
    "beta",
    "median_lmin",
    "p05_lmin",
    "deficit",
    "floor_regime",
    "floor_value",
    "precondition_ok",
]


# Version of the sweep result JSON, bumped whenever a change moves its
# fields or its seeded values.
RESULT_FORMAT_VERSION = 2


@dataclass(frozen=True)
class OutputPaths:
    rows: str | None = None
    summary: str | None = None
    result: str | None = None


def _sweep_values(beta_grid: tuple, trials: int, seed: int) -> dict:
    """The [sweep] values of a config, once checked: a nonempty grid of
    distinct betas in (0, 1], at least one trial and a seed in [0, 2^64)."""
    if len(beta_grid) == 0:
        raise InvalidParameterError("beta_grid must be nonempty")
    for b in beta_grid:
        if not (0 < b <= 1):
            raise InvalidParameterError(f"beta values must be in (0, 1], got {b}")
    if len(set(beta_grid)) < len(beta_grid):
        raise InvalidParameterError(f"beta values must be distinct, got {list(beta_grid)}")
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    return {"beta_grid": beta_grid, "trials": trials, "seed": check_seed(seed)}


@dataclass(frozen=True)
class ExperimentConfig:
    spec: dist.DistributionSpec
    beta_grid: tuple
    trials: int
    seed: int
    constants: bd.ConstantSet = field(default_factory=bd.ConstantSet)
    outputs: OutputPaths = field(default_factory=OutputPaths)

    def __post_init__(self):
        _sweep_values(self.beta_grid, self.trials, self.seed)

    def sample_size(self, beta: float) -> int:
        return max(self.spec.n, math.ceil(self.spec.n / beta))


@dataclass(frozen=True)
class TrialRow:
    family: str
    eta: float | None
    n: int
    N: int
    beta: float
    trial: int
    lambda_min: float
    lambda_max: float
    seed: int


@dataclass(frozen=True)
class BetaSummary:
    family: str
    eta: float | None
    n: int
    N: int
    beta: float
    mean_lmin: float
    median_lmin: float
    p05_lmin: float
    deficit: float
    floor_regime: str
    floor_value: float
    precondition_ok: bool


@dataclass(frozen=True)
class SweepResult:
    config_seed: int
    rows: tuple
    summaries: tuple
    fit: FitResult | None
    failures: tuple

    def rows_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(ROWS_HEADER)
            for r in self.rows:
                w.writerow(
                    [
                        r.family,
                        "" if r.eta is None else repr(float(r.eta)),
                        r.n,
                        r.N,
                        repr(float(r.beta)),
                        r.trial,
                        repr(float(r.lambda_min)),
                        repr(float(r.lambda_max)),
                        r.seed,
                    ]
                )

    def summary_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(SUMMARY_HEADER)
            for s in self.summaries:
                w.writerow(
                    [
                        s.family,
                        "" if s.eta is None else repr(float(s.eta)),
                        s.n,
                        repr(float(s.beta)),
                        repr(float(s.median_lmin)),
                        repr(float(s.p05_lmin)),
                        repr(float(s.deficit)),
                        s.floor_regime,
                        repr(float(s.floor_value)),
                        s.precondition_ok,
                    ]
                )

    def to_json_dict(self) -> dict:
        return {
            "format_version": RESULT_FORMAT_VERSION,
            "seed": self.config_seed,
            "rows": [vars(r) for r in self.rows],
            "summaries": [vars(s) for s in self.summaries],
            "fit": None if self.fit is None else vars(self.fit),
            "failures": list(self.failures),
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)


def _trial(cfg: ExperimentConfig, beta_index: int, trial_index: int):
    beta = cfg.beta_grid[beta_index]
    N = cfg.sample_size(beta)
    record = SeedRecord(cfg.seed, beta_index, trial_index)
    m = sp.assemble(cfg.spec, N, record)
    res = sp.lambda_extremes(m, vectors=False)
    return TrialRow(
        family=cfg.spec.family,
        eta=cfg.spec.eta,
        n=cfg.spec.n,
        N=N,
        beta=beta,
        trial=trial_index,
        lambda_min=res.lambda_min,
        lambda_max=res.lambda_max,
        seed=record.derived,
    )


def _regime_for_spec(spec: dist.DistributionSpec) -> tuple[str, float]:
    """Regime tag and the eta used for floors.

    Families without a declared polynomial tail (bounded or Gaussian
    marginals) satisfy every eta > 2 tail bound, so they report under the
    eta-gt-2 regime with eta = inf.
    """
    if spec.eta is not None:
        return bd.regime_for_eta(spec.eta), spec.eta
    return "eta-gt-2", math.inf


def run_sweep(cfg: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Execute the sweep: trials (parallelizable), per-beta aggregation,
    floor predictions, and an exponent fit when enough grid points allow.

    A trial that raises is recorded in ``failures`` and excluded from
    aggregation; the sweep continues.  Trials run on at most
    ``min(threads, os.cpu_count())`` workers.  BLAS runs single-threaded for
    the duration of the call and gets its previous thread counts back on
    return.
    """
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads}")
    with _single_threaded_blas:
        return _run_sweep(cfg, threads)


def _run_sweep(cfg: ExperimentConfig, threads: int) -> SweepResult:
    tasks = [(b, t) for b in range(len(cfg.beta_grid)) for t in range(cfg.trials)]
    results: dict[tuple[int, int], TrialRow] = {}
    failures: list[str] = []

    def run_one(key):
        b, t = key
        try:
            return key, _trial(cfg, b, t), None
        except Exception as exc:  # noqa: BLE001 - per-trial isolation is the contract
            return key, None, f"beta_index={b} trial={t}: {exc!r}"

    workers = min(threads, os.cpu_count() or 1)
    if workers == 1:
        outcomes = map(run_one, tasks)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_one, tasks))
    for key, row, err in outcomes:
        if err is None:
            results[key] = row
        else:
            failures.append(err)

    rows = tuple(results[k] for k in sorted(results))
    regime, eta_eff = _regime_for_spec(cfg.spec)

    summaries = []
    for beta in cfg.beta_grid:
        lmins = np.array([r.lambda_min for r in rows if r.beta == beta])
        if lmins.size == 0:
            continue
        N = cfg.sample_size(beta)
        median = float(np.median(lmins))
        pred = bd.floor_regime(eta_eff, beta, cfg.constants, N)
        summaries.append(
            BetaSummary(
                family=cfg.spec.family,
                eta=cfg.spec.eta,
                n=cfg.spec.n,
                N=N,
                beta=beta,
                mean_lmin=float(lmins.mean()),
                median_lmin=median,
                p05_lmin=float(np.quantile(lmins, 0.05)),
                deficit=1.0 - median,
                floor_regime=pred.regime,
                floor_value=pred.floor,
                precondition_ok=pred.precondition_ok,
            )
        )

    fit = None
    fit_rows = [(s.beta, s.deficit) for s in summaries if s.deficit > 0]
    if len(fit_rows) >= 4:
        fit = fit_exponent(fit_rows, regime=regime)
    return SweepResult(
        config_seed=cfg.seed,
        rows=rows,
        summaries=tuple(summaries),
        fit=fit,
        failures=tuple(failures),
    )


# The rate variable of each regime: beta itself for eta >= 2, and
# beta*log(1/beta) below eta = 2 (where the predicted exponent is eta/(2+eta)).
_FIT_RATES = {
    "eta-gt-2": lambda b: b,
    "eta-eq-2": lambda b: b,
    "eta-lt-2": lambda b: b * math.log(1.0 / b),
}


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit deficit ~ constant * rate(beta)^exponent."""

    exponent: float
    constant: float
    half_width: float
    n_used: int
    n_excluded: int
    regime: str


def fit_exponent(rows, regime: str = "eta-gt-2") -> FitResult:
    """Fit log(deficit) on log(rate(beta)) over (beta, deficit) rows, with the
    regime's rate variable from ``_FIT_RATES``.

    Rows with deficit <= 0 are excluded (and counted); at least 4 usable rows
    with at least 2 distinct betas are required and the rate must be positive
    on each.  A non-finite beta or deficit is an input error.  The half-width
    is 2 standard errors of the slope.
    """
    if regime not in _FIT_RATES:
        raise InvalidParameterError(f"unknown regime {regime!r}")
    rate = _FIT_RATES[regime]
    rows = list(rows)
    for b, d in rows:
        if not (math.isfinite(b) and math.isfinite(d)):
            raise InvalidInputError(f"fit rows must be finite, got beta={b}, deficit={d}")
    usable = [(b, d) for b, d in rows if d > 0]
    if len(usable) < 4:
        raise CalibrationUnavailableError(
            f"need >= 4 rows with positive deficit, got {len(usable)}"
        )
    x = np.array([rate(b) for b, _ in usable])
    if np.any(x <= 0):
        raise CalibrationUnavailableError("rate variable vanishes on the grid (beta = 1 row?)")
    lx, ly = np.log(x), np.log(np.array([d for _, d in usable]))
    if np.all(lx == lx[0]):
        raise CalibrationUnavailableError("need >= 2 distinct betas among the usable rows, got 1")
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = ly - (slope * lx + intercept)
    s2 = float(resid @ resid) / (len(usable) - 2)
    sxx = float(((lx - lx.mean()) ** 2).sum())
    half = 2.0 * math.sqrt(s2 / sxx)
    try:
        constant = math.exp(intercept)
    except OverflowError:
        raise CalibrationUnavailableError(f"fitted constant exp({intercept:.6g}) overflows float range") from None
    return FitResult(
        exponent=slope,
        constant=constant,
        half_width=half,
        n_used=len(usable),
        n_excluded=len(rows) - len(usable),
        regime=regime,
    )


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

def _beta_grid(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


# section -> (the object built from it, {key: parser of the key's value}).
# A key without a default in the object's signature is required.
_FORMAT = {
    "distribution": (
        dist.DistributionSpec,
        {"family": str, "n": int, "eta": float, "mixture_p": float, "seed": int},
    ),
    "sweep": (_sweep_values, {"beta_grid": _beta_grid, "trials": int, "seed": int}),
    "constants": (bd.ConstantSet, {f.name: float for f in fields(bd.ConstantSet)}),
    "outputs": (OutputPaths, {"rows": str, "summary": str, "result": str}),
}


def _new_parser() -> configparser.ConfigParser:
    """A config parser that reads keys and values literally: ``n`` is not
    ``N``, and ``%`` is a plain character."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    return parser


def read_config(path) -> dict:
    """Every section of a config file, built into its object: a
    ``DistributionSpec``, the [sweep] values, a ``ConstantSet`` and
    ``OutputPaths``, keyed by section name.

    Every command reads its config through here, so a file is valid for all
    of them or for none: an unreadable file, an unknown section or key, a
    missing required key or a bad value raises ``ConfigError``.
    """
    parser = _new_parser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    # configparser would copy the keys of a [DEFAULT] section into every section
    present = set(parser.sections()) | ({parser.default_section} if parser.defaults() else set())
    unknown = present - set(_FORMAT)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    sections = {}
    for name in parser.sections():
        build, parsers = _FORMAT[name]
        values = dict(parser[name])
        unknown = set(values) - set(parsers)
        if unknown:
            raise ConfigError(f"unknown [{name}] keys: {sorted(unknown)}")
        params = inspect.signature(build).parameters.values()
        missing = [p.name for p in params if p.default is p.empty and p.name not in values]
        if missing:
            raise ConfigError(f"missing [{name}] keys: {missing}")
        try:
            sections[name] = build(**{key: parsers[key](text) for key, text in values.items()})
        except ValueError as exc:
            raise ConfigError(f"bad [{name}] section: {exc}") from exc
    return sections


def parse_config(path) -> ExperimentConfig:
    """A sweep's config: ``read_config`` with the [distribution] and [sweep]
    sections required; [constants] and [outputs] are optional."""
    sections = read_config(path)
    if "distribution" not in sections or "sweep" not in sections:
        raise ConfigError("config requires [distribution] and [sweep] sections")
    return ExperimentConfig(
        spec=sections["distribution"],
        constants=sections.get("constants", bd.ConstantSet()),
        outputs=sections.get("outputs", OutputPaths()),
        **sections["sweep"],
    )


def _format_value(value) -> str:
    """A value as its config text; floats, numpy ones too, by ``repr`` of
    the Python float, which reads back exactly."""
    if isinstance(value, tuple):
        return " ".join(repr(float(v)) for v in value)
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_config(cfg: ExperimentConfig, path) -> None:
    """Write ``cfg`` in the format ``parse_config`` reads back; unset
    values are left out."""
    objects = {
        "distribution": vars(cfg.spec),
        "sweep": _sweep_values(cfg.beta_grid, cfg.trials, cfg.seed),
        "constants": vars(cfg.constants),
        "outputs": vars(cfg.outputs),
    }
    parser = _new_parser()
    for name, values in objects.items():
        section = {key: _format_value(value) for key, value in values.items() if value is not None}
        if section:
            parser[name] = section
    with open(path, "w") as fh:
        parser.write(fh)


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple
    budget: int

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "budget": self.budget,
            "ok": self.ok,
            "checks": [vars(c) for c in self.checks],
        }


_VERIFY_SEED = 20260809


def verify_suite(budget: int = 100) -> VerifyReport:
    """One-command execution of the module invariants and oracles.

    ``budget`` (>= 1) scales the oracle battery and instance counts; checks
    whose minimum cost exceeds the budget are reported as "skipped".  Every
    check draws from one generator with a fixed seed.  The truncation ramp
    is looked up as ``empirical_process.truncation_phi`` on each call, so a
    corrupted ramp patched in there must make the phi checks fail.
    """
    if budget < 1:
        raise InvalidParameterError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(_VERIFY_SEED)
    checks: list[CheckResult] = []

    phi = ep.truncation_phi

    def add(name, ok, detail):
        checks.append(CheckResult(name, "pass" if ok else "fail", detail))

    # indicator sandwich and Lipschitz property of the truncation ramp
    us = np.linspace(0.05, 4.0, 25)
    ts = np.linspace(0.0, 10.0, 60)
    ok, worst = True, 0.0
    for u in us:
        vals = phi(u, ts)
        lo = (ts >= 2 * u).astype(float)
        hi = (ts >= u).astype(float)
        bad = ~((lo <= vals) & (vals <= hi))
        if bad.any():
            ok = False
            worst = max(worst, float(np.maximum(lo - vals, vals - hi)[bad].max()))
    add("phi-sandwich", ok, f"worst violation {worst:.3g}")
    ok = True
    for u in us[:10]:
        t1 = rng.uniform(0, 5, 40)
        t2 = rng.uniform(0, 5, 40)
        lhs = np.abs(phi(u, t1) - phi(u, t2))
        if np.any(lhs > np.abs(t1 - t2) / u + 1e-12):
            ok = False
    add("phi-lipschitz", ok, "|phi(t1)-phi(t2)| <= |t1-t2|/u on random pairs")

    n_ident = min(1000, max(10, 10 * budget))
    worst = 0.0
    for _ in range(n_ident):
        v = rng.standard_normal(int(rng.integers(1, 60))) * rng.uniform(0.1, 10)
        lhs, _, gap = ep.second_moment_identity(v)
        worst = max(worst, gap / max(lhs, 1e-300))
    add("second-moment-identity", worst <= 1e-12, f"worst relative gap {worst:.3g} over {n_ident}")

    spec = dist.DistributionSpec("gaussian-iid", 4)
    ratios = sb.moment_ratios(spec, p=2.0)
    ok = True
    details = []
    for u in (0.1, 0.2, 0.4):
        pz = sb.paley_zygmund_lower(ratios, u).value
        tail = dist.theoretical_tail(spec, u)
        details.append(f"u={u}: {pz:.4f} <= {tail:.4f}")
        if pz > tail:
            ok = False
    add("pz-sandwich-analytic", ok, "; ".join(details))

    n_spec = min(100, budget)
    if n_spec < 5:
        checks.append(CheckResult("spectral-cross-method", "skipped", f"budget {budget} < 5"))
    else:
        worst = 0.0
        for _ in range(n_spec):
            vals = rng.standard_normal((20, 10)) / np.sqrt(20)
            m = sp.SampleMatrix(20, 10, vals, SeedRecord(0))
            r = sp.lambda_extremes(m)
            p = sp.lambda_min_power(m)
            worst = max(worst, abs(p - r.lambda_min**2) / r.lambda_min**2)
        add("spectral-cross-method", worst <= 1e-8, f"worst relative gap {worst:.3g} over {n_spec}")

    if budget < 20:
        checks.append(CheckResult("rademacher-exact-vs-mc", "skipped", f"budget {budget} < 20"))
    else:
        ok, worst = True, 0.0
        for _ in range(20):
            rows = rng.standard_normal((10, 3))
            exact = rad.rademacher_linear(rows, method="exact")
            mc = rad.rademacher_linear(rows, draws=2000, rng=rng, method="mc")
            z = abs(mc.value - exact.value) / mc.stderr
            worst = max(worst, z)
            if z > 3:
                ok = False
        add("rademacher-exact-vs-mc", ok, f"worst |mc-exact|/stderr {worst:.2f}")

    if budget < 10:
        checks.append(CheckResult("tiny-oracle-battery", "skipped", f"budget {budget} < 10"))
    else:
        battery = ep.random_instances(budget, rng=rng)
        _, applicable, violated = ep.oracle_battery(battery)
        add(
            "tiny-oracle-battery",
            violated == 0,
            f"{budget} instances, {applicable} applicable, {violated} violated",
        )

    m_iso = 20000
    x = dist.sample_matrix(spec, m_iso, rng)
    cov = x.T @ x / m_iso
    dev = float(np.abs(cov - np.eye(4)).max())
    add("isotropy-quick", dev <= 5.0 / math.sqrt(m_iso), f"max covariance deviation {dev:.4f}")

    return VerifyReport(checks=tuple(checks), budget=budget)

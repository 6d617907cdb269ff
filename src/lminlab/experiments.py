"""Beta-sweep harness: samplers -> spectra -> floors, with exponent fitting,
deterministic parallel trials, config parsing, and a one-command verify suite.

N is derived from the aspect ratio by N = ceil(n/beta) so n/N <= beta holds
exactly.  Every trial draws from the substream keyed by (master seed,
beta index, trial index): a gaussian-iid trial the n x n bidiagonal factor
of ``spectrum.chi_factor`` in place of N x n normals, every other family its
N rows by ``spectrum.assemble``.  Gaussian-iid trials are solved in
fixed-size blocks by ``spectrum.bidiagonal_extremes`` on the calling
thread; every other family's trials are solved one by one on the worker
pool.  A trial that raises becomes a ``TrialFailure`` record.  Aggregation
is a sequential reduce in fixed index order, and numpy's OpenBLAS is pinned
to one thread while a sweep runs, which makes sweep output byte-identical
regardless of worker count, block size and BLAS thread count.  The result
JSON is strict: a non-finite value is an error, never ``NaN`` in the file.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import inspect
import itertools
import json
import math
import os
import re
import sys
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
from .errors import (
    CalibrationUnavailableError,
    ConfigError,
    InvalidInputError,
    InvalidParameterError,
    LminlabError,
)
from .streams import SeedRecord, check_array_size, check_seed

# Version of the sweep result JSON, bumped whenever a change moves its
# fields or its seeded values.
RESULT_FORMAT_VERSION = 7


@dataclass(frozen=True)
class OutputPaths:
    rows: str | None = None
    summary: str | None = None
    result: str | None = None


def _sweep_values(beta_grid: tuple, trials: int, seed: int) -> dict:
    """The [sweep] values of a config, once checked: a nonempty grid of
    distinct betas in (0, 1], at least one trial, no more trials x betas
    float64 values than numpy's array size limit allows, and a seed in
    [0, 2^64)."""
    if len(beta_grid) == 0:
        raise InvalidParameterError("beta_grid must be nonempty")
    for b in beta_grid:
        if not (0 < b <= 1):
            raise InvalidParameterError(f"beta values must be in (0, 1], got {b}")
    if len(set(beta_grid)) < len(beta_grid):
        raise InvalidParameterError(f"beta values must be distinct, got {list(beta_grid)}")
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    check_array_size(f"trials x {len(beta_grid)} betas", trials * len(beta_grid))
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
        for beta in self.beta_grid:
            try:
                self.sample_size(beta)
            except OverflowError:
                raise InvalidParameterError(f"N = ceil(n/beta) is beyond float range at beta = {beta}") from None

    def sample_size(self, beta: float) -> int:
        return math.ceil(self.spec.n / beta)


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
    median_lmin: float
    p05_lmin: float
    deficit: float
    floor_regime: str
    floor_value: float
    precondition_ok: bool
    floor_flags: str


@dataclass(frozen=True)
class TrialFailure:
    """A trial that raised: its grid position, the derived seed of its
    substream, and the exception's type name and message."""

    beta_index: int
    trial: int
    seed: int
    error: str
    message: str


@dataclass(frozen=True)
class SweepResult:
    config_seed: int
    rows: tuple
    summaries: tuple
    fit: FitResult | None
    failures: tuple

    def rows_csv(self, path) -> None:
        write_table(_record_table(TrialRow, self.rows), path)

    def summary_csv(self, path) -> None:
        write_table(_record_table(BetaSummary, self.summaries), path)

    def to_json_dict(self) -> dict:
        return {
            "format_version": RESULT_FORMAT_VERSION,
            "seed": self.config_seed,
            "rows": [vars(r) for r in self.rows],
            "summaries": [vars(s) for s in self.summaries],
            "fit": None if self.fit is None else vars(self.fit),
            "failures": [vars(f) for f in self.failures],
        }


@contextlib.contextmanager
def open_output(path=None):
    """The file ``path`` opened for text writing with no newline
    translation, or stdout when ``path`` is None."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", newline="") as fh:
        yield fh


def json_text(obj) -> str:
    """``obj`` as JSON indented by one space.  A NaN or infinite float,
    which JSON cannot hold, raises ``LminlabError`` naming its key, never
    ``NaN`` or ``Infinity``: the encoder finds it, and only then is the
    document walked again for the key.  The encoder's small pieces are
    joined 256 at a time: ``json.dumps`` holds them all at once, about 0.8 MB
    for a 500-row sweep result of 110 KB."""
    pieces = json.JSONEncoder(indent=1, allow_nan=False).iterencode(obj)
    parts = []
    try:
        while block := "".join(itertools.islice(pieces, 256)):
            parts.append(block)
    except ValueError:
        found = _nonfinite(obj)
        if found is None:
            raise
        key, value = found
        raise LminlabError(f"{key.lstrip('.')} is {value}, which JSON cannot hold") from None
    return "".join(parts)


def _nonfinite(obj):
    """(key path, value) of the first non-finite float in ``obj``, with
    paths such as ``.summaries[0].floor_value``, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else ("", obj)
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return None
    for key, value in items:
        found = _nonfinite(value)
        if found is not None:
            step = f"[{key}]" if isinstance(obj, (list, tuple)) else f".{key}"
            return step + found[0], found[1]
    return None


def write_table(rows, path=None) -> None:
    """Write ``rows`` as CSV to the file ``path``, or to stdout when ``path``
    is None.  ``csv.writer`` writes every float, numpy's too, by its
    ``repr``, and None as an empty cell."""
    with open_output(path) as fh:
        csv.writer(fh).writerows(rows)


def _record_table(record_type, records) -> list:
    """The table of ``records``: a header of ``record_type``'s field names,
    then one row of field values per record."""
    return [[f.name for f in fields(record_type)], *(vars(r).values() for r in records)]


def _row(cfg: ExperimentConfig, record: SeedRecord, lambda_min: float, lambda_max: float) -> TrialRow:
    beta = cfg.beta_grid[record.beta_index]
    return TrialRow(
        family=cfg.spec.family,
        eta=cfg.spec.eta,
        n=cfg.spec.n,
        N=cfg.sample_size(beta),
        beta=beta,
        trial=record.trial_index,
        lambda_min=lambda_min,
        lambda_max=lambda_max,
        seed=record.derived,
    )


def _failure(record: SeedRecord, exc: Exception) -> TrialFailure:
    return TrialFailure(record.beta_index, record.trial_index, record.derived, type(exc).__name__, str(exc))


def _trial(cfg: ExperimentConfig, beta_index: int, trial_index: int) -> TrialRow:
    """One trial's N rows (``spectrum.assemble``) solved on their own: the
    pool's unit of work for every family but gaussian-iid."""
    record = SeedRecord(cfg.seed, beta_index, trial_index)
    m = sp.assemble(cfg.spec, cfg.sample_size(cfg.beta_grid[beta_index]), record)
    res = sp.lambda_extremes(m)
    return _row(cfg, record, res.lambda_min, res.lambda_max)


# Gaussian-iid trials per ``spectrum.bidiagonal_extremes`` call; a trial's
# values do not depend on the trials solved with it.
_GAUSSIAN_BLOCK = 256


def _gaussian_outcomes(cfg: ExperimentConfig) -> list:
    """((beta_index, trial), row, failure) of every trial of a gaussian-iid
    sweep, with one of row and failure None.  Each trial draws its chi
    factor from its own substream; the drawn trials of a beta are solved in
    blocks of ``_GAUSSIAN_BLOCK`` on the calling thread.  A trial whose draw
    raises fails alone."""
    outcomes = []
    for b, beta in enumerate(cfg.beta_grid):
        N = cfg.sample_size(beta)
        for start in range(0, cfg.trials, _GAUSSIAN_BLOCK):
            drawn = []
            for t in range(start, min(start + _GAUSSIAN_BLOCK, cfg.trials)):
                record = SeedRecord(cfg.seed, b, t)
                try:
                    drawn.append((record, sp.chi_factor(cfg.spec.n, N, record)))
                except Exception as exc:  # noqa: BLE001 - per-trial isolation is the contract
                    outcomes.append(((b, t), None, _failure(record, exc)))
            if drawn:
                outcomes += _solve_gaussian(cfg, drawn)
    return outcomes


def _solve_gaussian(cfg: ExperimentConfig, drawn: list) -> list:
    """Outcomes, as ``_gaussian_outcomes`` gives them, of the drawn
    (record, (diag, sub)) trials solved as one batch; when the batch
    raises, each trial is solved alone, so only those that raise fail."""
    try:
        lmins, lmaxs = sp.bidiagonal_extremes(
            np.array([diag for _, (diag, _) in drawn]), np.array([sub for _, (_, sub) in drawn])
        )
    except Exception as exc:  # noqa: BLE001 - per-trial isolation is the contract
        if len(drawn) > 1:
            return [outcome for trial in drawn for outcome in _solve_gaussian(cfg, [trial])]
        record = drawn[0][0]
        return [((record.beta_index, record.trial_index), None, _failure(record, exc))]
    return [
        ((record.beta_index, record.trial_index), _row(cfg, record, float(lo), float(hi)), None)
        for (record, _), lo, hi in zip(drawn, lmins, lmaxs)
    ]


def run_sweep(cfg: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Execute the sweep: trials (parallelizable), per-beta aggregation,
    floor predictions, and an exponent fit when enough grid points allow.

    A trial that raises is recorded in ``failures`` as a ``TrialFailure``
    and excluded from aggregation; the sweep continues.  Gaussian-iid
    trials are solved in blocks of ``_GAUSSIAN_BLOCK`` on the calling
    thread, whatever ``threads`` is; the trials of every other family run
    on at most ``min(threads, os.cpu_count())`` workers.  BLAS runs
    single-threaded for the duration of the call and gets its previous
    thread counts back on return.
    """
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads}")
    with _single_threaded_blas:
        return _run_sweep(cfg, threads)


def _pooled_outcomes(cfg: ExperimentConfig, threads: int) -> list:
    """((beta_index, trial), row, failure) of every trial, each run by
    ``_trial`` on a pool of at most ``min(threads, os.cpu_count())``
    workers, with one of row and failure None."""

    def run_one(key):
        b, t = key
        try:
            return key, _trial(cfg, b, t), None
        except Exception as exc:  # noqa: BLE001 - per-trial isolation is the contract
            return key, None, _failure(SeedRecord(cfg.seed, b, t), exc)

    tasks = [(b, t) for b in range(len(cfg.beta_grid)) for t in range(cfg.trials)]
    workers = min(threads, os.cpu_count() or 1)
    if workers == 1:
        return list(map(run_one, tasks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, tasks))


def _run_sweep(cfg: ExperimentConfig, threads: int) -> SweepResult:
    if cfg.spec.family == "gaussian-iid":
        outcomes = _gaussian_outcomes(cfg)
    else:
        outcomes = _pooled_outcomes(cfg, threads)
    outcomes.sort(key=lambda outcome: outcome[0])
    rows = tuple(row for _, row, _ in outcomes if row is not None)
    failures = [failure for _, _, failure in outcomes if failure is not None]
    # a family with no declared polynomial tail (bounded or Gaussian marginals) meets every eta > 2 bound
    eta = math.inf if cfg.spec.eta is None else cfg.spec.eta
    regime = bd.regime_for_eta(eta)

    summaries = []
    for beta in cfg.beta_grid:
        lmins = np.array([r.lambda_min for r in rows if r.beta == beta])
        if lmins.size == 0:
            continue
        N = cfg.sample_size(beta)
        median = float(np.median(lmins))
        pred = bd.floor_regime(eta, beta, cfg.constants, N)
        summaries.append(
            BetaSummary(
                family=cfg.spec.family,
                eta=cfg.spec.eta,
                n=cfg.spec.n,
                N=N,
                beta=beta,
                median_lmin=median,
                p05_lmin=float(np.quantile(lmins, 0.05)),
                deficit=1.0 - median,
                floor_regime=pred.regime,
                floor_value=pred.floor,
                precondition_ok=pred.precondition_ok,
                floor_flags=";".join(pred.flags),
            )
        )

    try:
        fit = fit_exponent([(s.beta, s.deficit) for s in summaries], regime=regime)
    except CalibrationUnavailableError:
        fit = None
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

    A row is usable when its deficit and its rate are positive (below eta = 2
    the rate is 0 at beta = 1) and its rate is finite (1/beta overflows at a
    subnormal beta); the others are excluded and counted.  At
    least 4 usable rows with at least 2 distinct betas are required.  A
    non-finite beta or deficit is an input error.  The half-width is 2
    standard errors of the slope.
    """
    if regime not in _FIT_RATES:
        raise InvalidParameterError(f"unknown regime {regime!r}")
    rate = _FIT_RATES[regime]
    rows = list(rows)
    for b, d in rows:
        if not (math.isfinite(b) and math.isfinite(d)):
            raise InvalidInputError(f"fit rows must be finite, got beta={b}, deficit={d}")
    usable = [(b, d) for b, d in rows if d > 0 and b > 0 and 0 < rate(b) < math.inf]
    if len(usable) < 4:
        raise CalibrationUnavailableError(
            f"need >= 4 rows with positive deficit and rate, got {len(usable)}"
        )
    x = np.array([rate(b) for b, _ in usable])
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

# A section header line holds the header and at most a ``;`` or ``#``
# comment.  configparser's own pattern drops any other text after the "]",
# so ``[constants] c2 = 5`` would read as an empty [constants]; with this one
# that line is not a header and fails as a key outside its section.
_SECTION_HEADER = re.compile(r"\[(?P<header>[^\]]+)\]\s*(?:[;#].*)?$")


def read_config(path) -> dict:
    """Every section of a config file, built into its object: a
    ``DistributionSpec``, the [sweep] values, a ``ConstantSet`` and
    ``OutputPaths``, keyed by section name.

    Every command reads its config through here, so a file is valid for all
    of them or for none: an unreadable file, an unknown section or key, a
    missing required key or a bad value raises ``ConfigError``.
    """
    # keys and values are literal: ``n`` is not ``N``, and ``%`` is a plain character
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    parser.SECTCRE = _SECTION_HEADER
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
    corrupted ramp patched in there must make the phi checks fail; likewise
    ``empirical_process.second_moment_identity``, whose gap the check
    recomputes from the returned sides.  The identity's vectors are drawn
    one by one, then checked in one batch per length.
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
    by_length: dict[int, list] = {}
    for _ in range(n_ident):
        v = rng.standard_normal(int(rng.integers(1, 60))) * rng.uniform(0.1, 10)
        by_length.setdefault(len(v), []).append(v)
    worst = 0.0
    for group in by_length.values():
        lhs, rhs, _ = ep.second_moment_identity(np.stack(group))
        worst = max(worst, float((np.abs(lhs - rhs) / np.maximum(lhs, 1e-300)).max()))
    add("second-moment-identity", worst <= 1e-12, f"worst relative gap {worst:.3g} over {n_ident}")

    spec = dist.DistributionSpec("gaussian-iid", 4)
    ratios = sb.moment_ratios(spec)
    ok = True
    details = []
    for u in (0.1, 0.2, 0.4):
        pz = sb.paley_zygmund_lower(ratios, u)
        tail = dist.theoretical_tail(spec, u)
        details.append(f"u={u}: {pz:.4f} <= {tail:.4f}")
        if pz > tail:
            ok = False
    add("pz-sandwich-analytic", ok, "; ".join(details))

    n_spec = min(100, budget)
    if n_spec < 5:
        checks.append(CheckResult("spectral-cross-method", "skipped", f"budget {budget} < 5"))
    else:
        # the sweep's eigenvalue-only solve, certified by inertia brackets
        held, worst = 0, 0.0
        with _single_threaded_blas:
            for _ in range(n_spec):
                vals = rng.standard_normal((20, 10)) / np.sqrt(20)
                m = sp.SampleMatrix(20, 10, vals, SeedRecord(0))
                r = sp.lambda_extremes(m)
                w = sp.inertia_bracket(r.gram, r.lambda_min**2, r.lambda_max**2)
                if w is not None:
                    held += 1
                    worst = max(worst, w / r.lambda_min**2)
        add(
            "spectral-cross-method",
            held == n_spec and worst <= 1e-8,
            f"bracket held on {held} of {n_spec}, worst relative half-width {worst:.3g}",
        )

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

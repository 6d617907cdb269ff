"""Tests for the sweep harness, config parsing, exponent fitting, and the
verification suite."""

import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lminlab

from lminlab import bounds as bd
from lminlab import distributions as dist
from lminlab import experiments as ex
from lminlab import spectrum as sp
from lminlab.errors import CalibrationUnavailableError, ConfigError, InvalidInputError, InvalidParameterError, LminlabError
from lminlab.streams import SeedRecord

CONFIG_TEXT = """\
[distribution]
family = heavy-radial
n = 16
eta = 5.0

[sweep]
beta_grid = 0.5 0.25
trials = 4
seed = 11

[constants]
c2 = 1.25

[outputs]
rows = rows.csv
"""


def small_config(**kw):
    spec = dist.DistributionSpec("gaussian-iid", 12)
    defaults = dict(spec=spec, beta_grid=(0.5, 0.25), trials=6, seed=5)
    defaults.update(kw)
    return ex.ExperimentConfig(**defaults)


def test_sample_size_respects_aspect_ratio():
    cfg = small_config(beta_grid=(0.3, 1.0))
    for beta in cfg.beta_grid:
        N = cfg.sample_size(beta)
        assert N >= cfg.spec.n
        assert cfg.spec.n / N <= beta + 1e-15


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        small_config(beta_grid=(1.5,))
    with pytest.raises(InvalidParameterError):
        small_config(beta_grid=())
    with pytest.raises(InvalidParameterError):
        small_config(trials=0)


@pytest.mark.parametrize("seed,ok", [(-1, False), (2**64, False), (2**64 - 1, True), (0, True)])
def test_sweep_seed_must_fit_64_bits(tmp_path, seed, ok):
    """A [sweep] seed is reduced mod 2^64 when trials derive their streams,
    so -1 would run the trials of 2^64 - 1 while recording -1."""
    path = tmp_path / "cfg.ini"
    path.write_text(CONFIG_TEXT.replace("seed = 11", f"seed = {seed}"))
    if ok:
        assert small_config(seed=seed).seed == ex.parse_config(path).seed == seed
        return
    with pytest.raises(InvalidParameterError, match=r"seed must be in \[0, 2\^64\)"):
        small_config(seed=seed)
    with pytest.raises(ConfigError, match=r"bad \[sweep\] section: seed must be in \[0, 2\^64\)"):
        ex.parse_config(path)


@pytest.mark.parametrize("trials,ok", [(10**400, False), (2**59, False), (2**59 - 1, True)])
def test_sweep_trials_must_fit_array_limit(tmp_path, trials, ok):
    """trials x betas float64 values beyond numpy's array size limit are
    refused where the config is read, so a sweep never starts on them.
    CONFIG_TEXT has two betas, so 2^59 (2^63 bytes) is the first refused
    trials count."""
    path = tmp_path / "cfg.ini"
    path.write_text(CONFIG_TEXT.replace("trials = 4", f"trials = {trials}"))
    if ok:
        assert ex.parse_config(path).trials == trials
        return
    message = r"trials x 2 betas at 8 bytes each exceed numpy's array size limit of 9223372036854775807 bytes$"
    with pytest.raises(InvalidParameterError, match=message):
        small_config(trials=trials)
    with pytest.raises(ConfigError, match=r"bad \[sweep\] section: " + message):
        ex.parse_config(path)


def test_run_sweep_deterministic_across_threads(tmp_path):
    cfg = small_config()
    r1 = ex.run_sweep(cfg, threads=1)
    r8 = ex.run_sweep(cfg, threads=8)
    p1, p8 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1.rows_csv(p1)
    r8.rows_csv(p8)
    assert p1.read_bytes() == p8.read_bytes()
    s1, s8 = tmp_path / "sa.csv", tmp_path / "sb.csv"
    r1.summary_csv(s1)
    r8.summary_csv(s8)
    assert s1.read_bytes() == s8.read_bytes()


def test_run_sweep_clamps_workers_to_cpu_count(tmp_path, monkeypatch):
    started = []
    real_pool = ex.ThreadPoolExecutor

    def recording_pool(max_workers):
        started.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(ex, "ThreadPoolExecutor", recording_pool)
    cfg = small_config(spec=dist.DistributionSpec("heavy-radial", 8, eta=5.0))  # gaussian-iid starts no pool
    paths = [tmp_path / "serial.csv", tmp_path / "clamped.csv", tmp_path / "unknown.csv"]
    ex.run_sweep(cfg, threads=1).rows_csv(paths[0])
    monkeypatch.setattr(ex.os, "cpu_count", lambda: 2)
    ex.run_sweep(cfg, threads=2 + 2).rows_csv(paths[1])
    monkeypatch.setattr(ex.os, "cpu_count", lambda: None)  # unknown: one worker
    ex.run_sweep(cfg, threads=3).rows_csv(paths[2])
    assert started == [2]
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


def test_sweep_output_independent_of_blas_and_pool_threads(tmp_path):
    """Seeded sweep CSVs hash the same for every OPENBLAS_NUM_THREADS and
    --threads; each run is a fresh process because OpenBLAS reads the
    variable when it loads."""
    configs = {
        "gaussian": "family = gaussian-iid\nn = 100\n\n[sweep]\nbeta_grid = 0.0625 0.25\ntrials = 20\n",
        "radial": "family = heavy-radial\neta = 5\nn = 16\n\n[sweep]\nbeta_grid = 0.0625 0.25\ntrials = 10\n",
    }
    src = str(Path(lminlab.__file__).resolve().parents[1])
    hashes = {}
    for (name, text), blas, pool in itertools.product(configs.items(), ("1", "2"), ("1", "2")):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(f"[distribution]\n{text}seed = 20260809\n")
        prefix = tmp_path / f"{name}-blas{blas}-pool{pool}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "lminlab.cli", "sweep", "--config", str(cfg), "--threads", pool, "--out", str(prefix)],
            env=env,
            check=True,
            capture_output=True,
            timeout=300,
        )
        digest = hashlib.sha256()
        for suffix in (".rows.csv", ".summary.csv"):
            digest.update(Path(f"{prefix}{suffix}").read_bytes())
        hashes.setdefault(name, {})[(blas, pool)] = digest.hexdigest()
    for name, runs in hashes.items():
        assert len(set(runs.values())) == 1, (name, runs)


def _run_fresh_python(code: str, tmp_path) -> subprocess.CompletedProcess:
    src = str(Path(lminlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize(
    "distribution",
    [
        "family = gaussian-iid",
        "family = heavy-iid\neta = 1.5",
        "family = heavy-radial\neta = 5",
        "family = rademacher-vec",
        "family = atomic-mixture\nmixture_p = 0.3",
        "family = uniform-cube",
    ],
    ids=lambda d: d.split()[2],
)
def test_cli_sweep_never_imports_scipy(tmp_path, distribution):
    """The sweep pins only numpy's OpenBLAS, so neither ``import lminlab.cli``
    nor a trial may load scipy, whose own OpenBLAS the pin leaves alone."""
    (tmp_path / "cfg.ini").write_text(
        f"[distribution]\n{distribution}\nn = 4\n\n[sweep]\nbeta_grid = 0.5 0.25\ntrials = 2\nseed = 3\n"
    )
    code = (
        "import sys\n"
        "from lminlab import cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "assert cli.main(['sweep', '--config', 'cfg.ini', '--threads', '2', '--out', 'run']) == 0\n"
        "assert 'scipy' not in sys.modules, 'sweep'\n"
    )
    proc = _run_fresh_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_verify_never_imports_scipy(tmp_path):
    """``verify``, ``spectrum``, the inverse iteration, the heavy-radial tail
    and ``vc_bruteforce`` on both classes run on numpy alone."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from lminlab import cli\n"
        "from lminlab import distributions as dist\n"
        "from lminlab import empirical_process as ep\n"
        "from lminlab import spectrum as sp\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "assert cli.main(['verify', '--budget', '10']) == 0\n"
        "assert 'scipy' not in sys.modules, 'verify'\n"
        "assert cli.main(['sample', '--family', 'gaussian-iid', '--n', '4', '--N', '9', '--out', 'm.bin']) == 0\n"
        "assert cli.main(['spectrum', '--matrix', 'm.bin']) == 0\n"
        "assert 'scipy' not in sys.modules, 'spectrum'\n"
        "assert sp.lambda_min_power(sp.SampleMatrix.load('m.bin')) > 0.0\n"
        "assert 'scipy' not in sys.modules, 'lambda_min_power'\n"
        "tail = dist.theoretical_tail(dist.DistributionSpec('heavy-radial', 8, eta=5.0), 0.5)\n"
        "assert 0.0 < tail < 1.0 and 'scipy' not in sys.modules, 'heavy-radial tail'\n"
        "assert ep.vc_bruteforce(np.random.default_rng(3).standard_normal((5, 2)), 'halfspaces') == 3\n"
        "assert ep.vc_bruteforce(np.array([[0.5], [-1.3], [2.1]]), 'abs-threshold') == 1\n"
        "assert 'scipy' not in sys.modules, 'vc_bruteforce'\n"
    )
    proc = _run_fresh_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS (budget 10)" in proc.stdout


def test_run_sweep_repeat_bit_identical():
    cfg = small_config(trials=1)
    r1 = ex.run_sweep(cfg)
    r2 = ex.run_sweep(cfg)
    assert r1 == r2


def test_run_sweep_row_and_summary_shapes():
    cfg = small_config()
    r = ex.run_sweep(cfg)
    assert len(r.rows) == len(cfg.beta_grid) * cfg.trials
    assert len(r.summaries) == len(cfg.beta_grid)
    for s in r.summaries:
        assert 0 <= s.p05_lmin <= s.median_lmin <= 1.5
        assert s.deficit == pytest.approx(1 - s.median_lmin)
        assert s.floor_regime == "eta-gt-2"
    assert r.fit is None  # only 2 grid points


def test_result_json_summary_fields():
    r = ex.run_sweep(small_config(trials=2))
    expected = [
        "family",
        "eta",
        "n",
        "N",
        "beta",
        "median_lmin",
        "p05_lmin",
        "deficit",
        "floor_regime",
        "floor_value",
        "precondition_ok",
        "floor_flags",
    ]
    for summary in r.to_json_dict()["summaries"]:
        assert list(summary) == expected


def test_result_json_format_version():
    payload = ex.run_sweep(small_config(trials=2)).to_json_dict()
    assert list(payload) == ["format_version", "seed", "rows", "summaries", "fit", "failures"]
    assert payload["format_version"] == 7


@pytest.mark.parametrize(
    "spec,flags",
    [
        (dist.DistributionSpec("heavy-radial", 6, eta=1.0), "degenerate-edge"),
        (dist.DistributionSpec("atomic-mixture", 6, mixture_p=0.3), "vacuous"),
    ],
    ids=["heavy-radial-eta-1", "atomic-mixture"],
)
def test_summary_carries_floor_flags(spec, flags):
    """A beta = 1 summary keeps the flags of its floor, joined as
    ``lminlab bounds`` prints them, so a degenerate or vacuous floor does
    not read as a plain number; the beta = 1/2 floor has none."""
    r = ex.run_sweep(small_config(spec=spec, beta_grid=(1.0, 0.5), trials=3))
    assert [s.floor_flags for s in r.summaries] == [flags, ""]
    assert r.to_json_dict()["summaries"][0]["floor_flags"] == flags


def test_sweep_trials_compute_no_eigenvectors(monkeypatch):
    """Trials report only the extremes, so they solve for eigenvalues alone;
    an ``eigh`` that raises must not reach a single trial."""

    def eigh(*args, **kwargs):
        raise AssertionError("a sweep trial called eigh")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    for spec in (dist.DistributionSpec("gaussian-iid", 12), dist.DistributionSpec("heavy-radial", 8, eta=5.0)):
        r = ex.run_sweep(small_config(spec=spec), threads=2)
        assert r.failures == () and len(r.rows) == 12


def test_gaussian_sweep_trials_draw_no_rows(monkeypatch):
    """A gaussian-iid trial draws its bidiagonal chi factor, never the N x n
    rows, while a heavy-radial trial still samples its rows."""

    def sample_matrix(*args, **kwargs):
        raise RuntimeError("a sweep trial drew rows")

    monkeypatch.setattr(dist, "sample_matrix", sample_matrix)
    monkeypatch.setattr(ex.sp, "sample_matrix", sample_matrix)
    r = ex.run_sweep(small_config(), threads=2)
    assert r.failures == () and len(r.rows) == 12
    r = ex.run_sweep(small_config(spec=dist.DistributionSpec("heavy-radial", 8, eta=5.0)), threads=2)
    assert r.rows == () and len(r.failures) == 12
    assert {(f.error, f.message) for f in r.failures} == {("RuntimeError", "a sweep trial drew rows")}


def test_gaussian_sweep_forms_no_gram(monkeypatch):
    """Gaussian-iid trials are solved on their bidiagonal factors: no Gram,
    no LAPACK eigensolver and no thread pool."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a gaussian-iid trial formed a Gram or called LAPACK")

    for target, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"), (ex.sp, "gram"), (ex, "ThreadPoolExecutor")):
        monkeypatch.setattr(target, name, forbidden)
    r = ex.run_sweep(small_config(), threads=8)
    assert r.failures == () and len(r.rows) == 12


def test_gaussian_rows_do_not_depend_on_blocks_or_threads(monkeypatch):
    """A gaussian-iid row holds the same Python floats for every block size
    and --threads, and they are ``bidiagonal_extremes`` of the trial's
    ``chi_factor``."""
    cfg = small_config(beta_grid=(0.5, 0.25, 1.0), trials=11)
    reference = ex.run_sweep(cfg)
    for block, threads in ((1, 1), (4, 2), (11, 8), (256, 1)):
        monkeypatch.setattr(ex, "_GAUSSIAN_BLOCK", block)
        assert ex.run_sweep(cfg, threads=threads) == reference
    for row in reference.rows:
        assert type(row.lambda_min) is float and type(row.lambda_max) is float
        b = cfg.beta_grid.index(row.beta)
        diag, sub = ex.sp.chi_factor(cfg.spec.n, row.N, SeedRecord(cfg.seed, b, row.trial))
        lmin, lmax = ex.sp.bidiagonal_extremes(diag[None], sub[None])
        assert (row.lambda_min, row.lambda_max) == (lmin[0], lmax[0])


def test_gaussian_nonfinite_factor_fails_alone(monkeypatch):
    """A trial whose factor is not finite fails with ``InvalidInputError``;
    the other trials of its beta keep their values, and no NaN reaches a row."""
    reference = ex.run_sweep(small_config())
    real_factor = ex.sp.chi_factor

    def corrupt(n, N, record):
        diag, sub = real_factor(n, N, record)
        if (record.beta_index, record.trial_index) == (1, 3):
            diag[2] = math.nan
        return diag, sub

    monkeypatch.setattr(ex.sp, "chi_factor", corrupt)
    r = ex.run_sweep(small_config())
    assert [(f.beta_index, f.trial, f.error) for f in r.failures] == [(1, 3, "InvalidInputError")]
    assert r.rows == tuple(row for row in reference.rows if (row.beta, row.trial) != (0.25, 3))
    assert all(math.isfinite(row.lambda_min) and math.isfinite(row.lambda_max) for row in r.rows)


def test_run_sweep_csv_headers(tmp_path):
    cfg = small_config()
    r = ex.run_sweep(cfg)
    rows_path, summary_path = tmp_path / "r.csv", tmp_path / "s.csv"
    r.rows_csv(rows_path)
    r.summary_csv(summary_path)
    assert rows_path.read_text().splitlines()[0] == "family,eta,n,N,beta,trial,lambda_min,lambda_max,seed"
    assert (
        summary_path.read_text().splitlines()[0]
        == "family,eta,n,N,beta,median_lmin,p05_lmin,deficit,floor_regime,floor_value,precondition_ok,floor_flags"
    )


def test_csv_columns_are_record_fields(tmp_path):
    """Each CSV's header is its record's field names; the summary CSV has
    the JSON summaries' keys, in order, and the same values."""
    r = ex.run_sweep(small_config(trials=2))
    rows_path, summary_path = tmp_path / "r.csv", tmp_path / "s.csv"
    r.rows_csv(rows_path)
    r.summary_csv(summary_path)
    with open(rows_path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(summary_path, newline="") as fh:
        summaries = list(csv.reader(fh))
    assert rows[0] == [f.name for f in dataclasses.fields(ex.TrialRow)]
    assert summaries[0] == [f.name for f in dataclasses.fields(ex.BetaSummary)]
    assert len(rows) == 1 + len(r.rows)
    payload = r.to_json_dict()["summaries"]
    assert len(summaries) == 1 + len(payload)
    for cells, summary in zip(summaries[1:], payload):
        assert list(summary) == summaries[0]
        expected = ["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in summary.values()]
        assert cells == expected


def test_fit_exponent_noiseless_sqrt():
    rows = [(b, b**0.5) for b in (0.5, 0.25, 0.125, 0.0625, 0.03125)]
    fit = ex.fit_exponent(rows, regime="eta-gt-2")
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.constant == pytest.approx(1.0, rel=1e-12)
    assert fit.half_width <= 1e-10


def test_fit_exponent_noiseless_lt2_rate():
    # deficit = (beta log(1/beta))^(1/3) fits exponent 1/3 on the lt-2 rate
    # variable, matching eta/(2+eta) at eta = 1
    rows = [(b, (b * math.log(1 / b)) ** (1 / 3)) for b in (0.5, 0.25, 0.125, 0.0625)]
    fit = ex.fit_exponent(rows, regime="eta-lt-2")
    assert fit.exponent == pytest.approx(1 / 3, abs=1e-12)


def test_fit_exponent_excludes_nonpositive():
    rows = [(0.5, 0.7), (0.25, 0.5), (0.125, 0.35), (0.0625, 0.25), (0.03125, -0.1)]
    fit = ex.fit_exponent(rows, regime="eta-gt-2")
    assert isinstance(fit, ex.FitResult)
    assert (fit.n_used, fit.n_excluded, fit.regime) == (4, 1, "eta-gt-2")
    with pytest.raises(CalibrationUnavailableError):
        ex.fit_exponent(rows[:3], regime="eta-gt-2")
    # a non-finite beta or deficit is an input error, not an excluded row
    for bad in [(0.125, math.nan), (0.125, math.inf), (math.nan, 0.3), (-math.inf, 0.3)]:
        with pytest.raises(InvalidInputError):
            ex.fit_exponent(rows + [bad], regime="eta-gt-2")


def test_fit_exponent_excludes_rows_without_positive_rate():
    """A row whose rate variable is not positive is left out and counted,
    like one with deficit <= 0: beta = 1 and beta = 0 below eta = 2, a
    negative beta above it."""
    rows = [(0.5, 0.7), (0.25, 0.5), (0.125, 0.35), (0.0625, 0.25)]
    for regime, extra in (("eta-lt-2", [(1.0, 0.9), (0.0, 0.95)]), ("eta-gt-2", [(-0.5, 0.9)])):
        fit = ex.fit_exponent(extra + rows, regime=regime)
        assert fit == dataclasses.replace(ex.fit_exponent(rows, regime=regime), n_excluded=len(extra))


def test_fit_exponent_excludes_rows_with_infinite_rate():
    """Below eta = 2 a subnormal beta overflows 1/beta, so its rate variable
    is infinite: the row is left out and counted, not handed to the fit."""
    rows = [(0.5, 0.4), (0.25, 0.3), (0.125, 0.2), (0.0625, 0.1)]
    fit = ex.fit_exponent([(5e-324, 0.5)] + rows, regime="eta-lt-2")
    assert fit == dataclasses.replace(ex.fit_exponent(rows, regime="eta-lt-2"), n_excluded=1)


def test_parse_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(CONFIG_TEXT)
    cfg = ex.parse_config(path)
    assert cfg.spec.family == "heavy-radial" and cfg.spec.eta == 5.0
    assert cfg.beta_grid == (0.5, 0.25)
    assert cfg.trials == 4 and cfg.seed == 11
    assert cfg.constants.c2 == 1.25
    assert ex.read_config(path)["constants"] == cfg.constants
    assert cfg.outputs.rows == "rows.csv"

    # the same config with every optional key spelled out reads back equal
    explicit = tmp_path / "explicit.ini"
    explicit.write_text(
        """\
[distribution]
family = heavy-radial
n = 16
eta = 5.0
mixture_p = 0.0

[sweep]
beta_grid = 0.5 0.25
trials = 4
seed = 11

[constants]
c0 = 1.0
c1 = 1.0
c2 = 1.25
c3 = 1.0
c4 = 1.0
c5 = 1.0
c6 = 1.0
iso_c0 = 1.0
iso_c1 = 1.0
iso_c2 = 1.0
gen_c1 = 1.0
gen_c2 = 1.0
gen_c3 = 1.0

[outputs]
rows = rows.csv
"""
    )
    assert ex.parse_config(explicit) == cfg


def test_parse_config_rejects_unknown(tmp_path):
    cases = [
        (CONFIG_TEXT + "\n[mystery]\nx = 1\n", "mystery"),
        ("[DEFAULT]\nseed = 3\n\n" + CONFIG_TEXT.replace("seed = 11\n", ""), "DEFAULT"),
        (CONFIG_TEXT.replace("trials = 4", "trials = 4\nbogus_key = 2"), "bogus_key"),
        (CONFIG_TEXT.replace("n = 16", "n = 16\nbogus = 1"), "bogus"),
        (CONFIG_TEXT.replace("c2 = 1.25", "c2 = 1.25\nc99 = 1.0"), "c99"),
        # the VC-bound constant and the tail constant L are gone
        (CONFIG_TEXT.replace("c2 = 1.25", "c2 = 1.25\nkappa = 1.0"), "kappa"),
        (CONFIG_TEXT.replace("eta = 5.0", "eta = 5.0\nL = 2"), "'L'"),
        # keys are case-sensitive
        (CONFIG_TEXT.replace("n = 16", "N = 16"), "'N'"),
        ("family = gaussian-iid\n", "section header"),
        # text after a section header that is not a comment
        ("[constants] c2 = 5\n", "section header"),
        (CONFIG_TEXT.replace("[constants]\nc2 = 1.25", "[constants] c2 = 5"), "'\\[constants\\] c2'"),
    ]
    bad = tmp_path / "bad.ini"
    for text, match in cases:
        bad.write_text(text)
        for read in (ex.parse_config, ex.read_config):
            with pytest.raises(ConfigError, match=match):
                read(bad)
    for read in (ex.parse_config, ex.read_config):
        with pytest.raises(ConfigError, match="cannot read config file"):
            read(tmp_path / "missing.ini")


def test_readme_config_block_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0])
    cfg = ex.parse_config(path)
    assert cfg.spec == dist.DistributionSpec("heavy-radial", 64, eta=5.0)
    assert cfg.beta_grid == (0.5, 0.25, 0.125, 0.0625, 0.03125)
    assert (cfg.trials, cfg.seed) == (100, 20260809)
    assert cfg.constants == bd.ConstantSet()
    assert cfg.outputs == ex.OutputPaths("rows.csv", "summary.csv", "result.json")


def test_readme_format_table_is_current():
    """README.md's table of result formats has one row per format_version,
    newest first, from ``RESULT_FORMAT_VERSION`` down to 2, and links the
    history in CHANGES.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    versions = [int(v) for v in re.findall(r"^\| (\d+) +\|", readme, flags=re.M)]
    assert versions == list(range(ex.RESULT_FORMAT_VERSION, 1, -1))
    assert "(CHANGES.md)" in readme


def test_degradation_ordering_atomic_mixture():
    # more atom mass -> smaller Q -> smaller median lambda_min
    medians = []
    ses = []
    for p in (0.0, 0.3, 0.6):
        spec = dist.DistributionSpec("atomic-mixture", 16, mixture_p=p)
        cfg = ex.ExperimentConfig(spec=spec, beta_grid=(0.25,), trials=60, seed=17)
        r = ex.run_sweep(cfg, threads=4)
        lmins = np.array([row.lambda_min for row in r.rows])
        medians.append(float(np.median(lmins)))
        ses.append(1.2533 * lmins.std(ddof=1) / math.sqrt(len(lmins)))
    assert medians[1] <= medians[0] + 3 * (ses[0] + ses[1])
    assert medians[2] <= medians[1] + 3 * (ses[1] + ses[2])
    assert medians[2] < medians[0]  # strict drop across the full range


def test_gaussian_sweep_fits_sqrt_scaling():
    # asymptotic edge behavior predicts deficit ~ sqrt(beta)
    cfg = ex.ExperimentConfig(
        spec=dist.DistributionSpec("gaussian-iid", 32),
        beta_grid=(0.5, 0.25, 0.125, 0.0625, 0.03125),
        trials=50,
        seed=8,
    )
    r = ex.run_sweep(cfg, threads=8)
    assert 0.4 <= r.fit.exponent <= 0.6


def test_coverage_after_anchor_calibration():
    # sweep-level version of the coverage contract on a light grid
    spec = dist.DistributionSpec("heavy-radial", 32, eta=1.0)
    cfg = ex.ExperimentConfig(spec=spec, beta_grid=(0.5, 0.25, 0.125), trials=60, seed=23)
    r = ex.run_sweep(cfg, threads=4)
    regime = bd.regime_for_eta(1.0)
    anchor = r.summaries[0]
    anchor_min = min(row.lambda_min for row in r.rows if row.beta == anchor.beta)
    c = (1 - anchor_min) / bd.regime_rate(regime, anchor.beta, 1.0)
    for s in r.summaries[1:]:
        floor = 1 - c * bd.regime_rate(regime, s.beta, 1.0)
        assert s.p05_lmin >= floor


def test_run_sweep_isolates_trial_failures(monkeypatch):
    real_trial = ex._trial
    real_factor = ex.sp.chi_factor

    def flaky(cfg, beta_index, trial_index):
        if (beta_index, trial_index) == (0, 2):
            raise RuntimeError("synthetic numerical failure")
        return real_trial(cfg, beta_index, trial_index)

    def flaky_factor(n, N, record):
        if (record.beta_index, record.trial_index) == (0, 2):
            raise RuntimeError("synthetic numerical failure")
        return real_factor(n, N, record)

    monkeypatch.setattr(ex, "_trial", flaky)
    monkeypatch.setattr(ex.sp, "chi_factor", flaky_factor)  # a gaussian-iid trial's own step
    for spec in (dist.DistributionSpec("gaussian-iid", 12), dist.DistributionSpec("heavy-radial", 8, eta=5.0)):
        cfg = small_config(spec=spec)
        r = ex.run_sweep(cfg)
        assert r.failures == (
            ex.TrialFailure(
                beta_index=0,
                trial=2,
                seed=SeedRecord(cfg.seed, 0, 2).derived,
                error="RuntimeError",
                message="synthetic numerical failure",
            ),
        )
        assert r.to_json_dict()["failures"] == [
            {
                "beta_index": 0,
                "trial": 2,
                "seed": SeedRecord(cfg.seed, 0, 2).derived,
                "error": "RuntimeError",
                "message": "synthetic numerical failure",
            }
        ]
        assert len(r.rows) == len(cfg.beta_grid) * cfg.trials - 1
        assert len(r.summaries) == len(cfg.beta_grid)  # aggregation continues


def test_verify_suite_passes_and_reports():
    report = ex.verify_suite(budget=25)
    assert report.ok
    names = {c.name for c in report.checks}
    assert "phi-sandwich" in names and "tiny-oracle-battery" in names
    payload = report.to_json_dict()
    assert payload["ok"] is True


def test_verify_suite_mutation_detected(monkeypatch):
    def corrupted_phi(u, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.clip(t_arr / u - 0.5, 0.0, 1.0)  # ramp starts too early
        return float(out) if np.isscalar(t) else out

    monkeypatch.setattr(ex.ep, "truncation_phi", corrupted_phi)
    report = ex.verify_suite(budget=10)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["phi-sandwich"] == "fail"
    assert not report.ok


def test_verify_identity_mutation_detected(monkeypatch):
    """A second-moment identity whose rhs is off by 1e-9 relative, patched
    into ``empirical_process``, must make its check fail, even though it
    returns the gap of the correct sides."""
    original = ex.ep.second_moment_identity

    def corrupted(values):
        lhs, rhs, gap = original(values)
        return lhs, rhs * (1 + 1e-9), gap

    monkeypatch.setattr(ex.ep, "second_moment_identity", corrupted)
    report = ex.verify_suite(budget=10)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["second-moment-identity"] == "fail"
    assert not report.ok


# Every check of verify_suite(budget) as (name, status, detail), recorded
# before the identity check was batched and the oracle tables were cached.
VERIFY_PINS = {
    100: [
        ("phi-sandwich", "pass", "worst violation 0"),
        ("phi-lipschitz", "pass", "|phi(t1)-phi(t2)| <= |t1-t2|/u on random pairs"),
        ("second-moment-identity", "pass", "worst relative gap 5.33e-16 over 1000"),
        ("pz-sandwich-analytic", "pass", "u=0.1: 0.4870 <= 0.9203; u=0.2: 0.3575 <= 0.8415; u=0.4: 0.1583 <= 0.6892"),
        ("spectral-cross-method", "pass", "bracket held on 100 of 100, worst relative half-width 1.57e-12"),
        ("rademacher-exact-vs-mc", "pass", "worst |mc-exact|/stderr 2.16"),
        ("tiny-oracle-battery", "pass", "100 instances, 18 applicable, 0 violated"),
        ("isotropy-quick", "pass", "max covariance deviation 0.0175"),
    ],
    10: [
        ("phi-sandwich", "pass", "worst violation 0"),
        ("phi-lipschitz", "pass", "|phi(t1)-phi(t2)| <= |t1-t2|/u on random pairs"),
        ("second-moment-identity", "pass", "worst relative gap 5.33e-16 over 100"),
        ("pz-sandwich-analytic", "pass", "u=0.1: 0.4870 <= 0.9203; u=0.2: 0.3575 <= 0.8415; u=0.4: 0.1583 <= 0.6892"),
        ("spectral-cross-method", "pass", "bracket held on 10 of 10, worst relative half-width 7.19e-13"),
        ("rademacher-exact-vs-mc", "skipped", "budget 10 < 20"),
        ("tiny-oracle-battery", "pass", "10 instances, 3 applicable, 0 violated"),
        ("isotropy-quick", "pass", "max covariance deviation 0.0146"),
    ],
}


@pytest.mark.parametrize("budget", sorted(VERIFY_PINS))
def test_verify_report_pinned(budget):
    """Every check's name, status and detail is pinned, so a change to the
    order in which verify draws from its generator shows here."""
    report = ex.verify_suite(budget)
    assert [(c.name, c.status, c.detail) for c in report.checks] == VERIFY_PINS[budget]


def _spectral_check(report):
    (check,) = [c for c in report.checks if c.name == "spectral-cross-method"]
    return check


def test_verify_spectral_check_brackets_the_sweep_solver(monkeypatch):
    """The spectral check certifies ``lambda_extremes`` on each of its 100
    matrices, and never runs the inverse iteration."""
    seen = []
    original = sp.lambda_extremes

    def recording(m):
        seen.append(m)
        return original(m)

    def forbidden(m):
        raise AssertionError("verify ran lambda_min_power")

    monkeypatch.setattr(sp, "lambda_extremes", recording)
    monkeypatch.setattr(sp, "lambda_min_power", forbidden)
    report = ex.verify_suite(budget=100)
    assert report.ok
    check = _spectral_check(report)
    found = re.fullmatch(r"bracket held on 100 of 100, worst relative half-width (\S+)", check.detail)
    assert check.status == "pass" and found and float(found.group(1)) <= 1e-8
    assert len(seen) == 100
    # a 1e-6 relative error at either end alone, either way, fails the
    # bracket on every one
    for m in seen:
        g = sp.gram(m)
        r = original(m)
        lo, hi = r.lambda_min**2, r.lambda_max**2
        for factor in (1 - 1e-6, 1 + 1e-6):
            assert sp.inertia_bracket(g, (factor * r.lambda_min) ** 2, hi) is None
            assert sp.inertia_bracket(g, lo, (factor * r.lambda_max) ** 2) is None


def test_verify_spectral_check_detects_inflated_lambda_min(monkeypatch):
    original = sp.lambda_extremes

    def inflated(m):
        r = original(m)
        return dataclasses.replace(r, lambda_min=r.lambda_min * (1 + 1e-6))

    monkeypatch.setattr(sp, "lambda_extremes", inflated)
    report = ex.verify_suite(budget=100)
    check = _spectral_check(report)
    assert check.status == "fail" and check.detail.startswith("bracket held on 0 of 100,")
    assert not report.ok


def test_verify_suite_reduced_budget_skips():
    report = ex.verify_suite(budget=5)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["tiny-oracle-battery"] == "skipped"
    assert statuses["rademacher-exact-vs-mc"] == "skipped"
    assert report.ok  # skipped checks do not fail the run


def test_json_text_is_json_dumps():
    """Joined in blocks of encoder pieces, the text is still that of one
    ``json.dumps``: empty containers and strings, nesting, non-ASCII, and
    thousands of pieces."""
    doc = {
        "rows": [{"x": 1.5, "y": None, "z": "é", "": ""}] * 300,
        "empty": [[], {}, ""] * 200,
        "nested": {"a": {"b": [1, [2, [3]]]}},
    }
    assert ex.json_text(doc) == json.dumps(doc, indent=1, allow_nan=False)
    assert ex.json_text([]) == "[]"


def test_json_text_names_late_nonfinite_key():
    doc = {"rows": [{"x": 1.0}] * 1000, "summaries": [{"floor_value": 0.5}, {"floor_value": math.inf}]}
    with pytest.raises(LminlabError, match=r"^summaries\[1\]\.floor_value is inf, which JSON cannot hold$"):
        ex.json_text(doc)

"""Tests for the sweep harness, config parsing, exponent fitting, and the
verification suite."""

import hashlib
import itertools
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
from lminlab.errors import CalibrationUnavailableError, ConfigError, InvalidInputError, InvalidParameterError

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
    cfg = small_config()
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
    """``verify``, ``spectrum --power`` and the heavy-radial tail run on numpy
    alone; only ``vc_bruteforce`` loads scipy."""
    code = (
        "import sys\n"
        "from lminlab import cli\n"
        "from lminlab import distributions as dist\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "assert cli.main(['verify', '--budget', '10']) == 0\n"
        "assert 'scipy' not in sys.modules, 'verify'\n"
        "assert cli.main(['sample', '--family', 'gaussian-iid', '--n', '4', '--N', '9', '--out', 'm.bin']) == 0\n"
        "assert cli.main(['spectrum', '--matrix', 'm.bin', '--power']) == 0\n"
        "assert 'scipy' not in sys.modules, 'spectrum --power'\n"
        "tail = dist.theoretical_tail(dist.DistributionSpec('heavy-radial', 8, eta=5.0), 0.5)\n"
        "assert 0.0 < tail < 1.0 and 'scipy' not in sys.modules, 'heavy-radial tail'\n"
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
        "mean_lmin",
        "median_lmin",
        "p05_lmin",
        "deficit",
        "floor_regime",
        "floor_value",
        "precondition_ok",
    ]
    for summary in r.to_json_dict()["summaries"]:
        assert list(summary) == expected


def test_result_json_format_version():
    payload = ex.run_sweep(small_config(trials=2)).to_json_dict()
    assert list(payload) == ["format_version", "seed", "rows", "summaries", "fit", "failures"]
    assert payload["format_version"] == 2


def test_sweep_trials_compute_no_eigenvectors(monkeypatch):
    """Trials report only the extremes, so they solve for eigenvalues alone;
    an ``eigh`` that raises must not reach a single trial."""

    def eigh(*args, **kwargs):
        raise AssertionError("a sweep trial called eigh")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    for spec in (dist.DistributionSpec("gaussian-iid", 12), dist.DistributionSpec("heavy-radial", 8, eta=5.0)):
        r = ex.run_sweep(small_config(spec=spec), threads=2)
        assert r.failures == () and len(r.rows) == 12


def test_run_sweep_csv_headers(tmp_path):
    cfg = small_config()
    r = ex.run_sweep(cfg)
    rows_path, summary_path = tmp_path / "r.csv", tmp_path / "s.csv"
    r.rows_csv(rows_path)
    r.summary_csv(summary_path)
    assert rows_path.read_text().splitlines()[0] == "family,eta,n,N,beta,trial,lambda_min,lambda_max,seed"
    assert (
        summary_path.read_text().splitlines()[0]
        == "family,eta,n,beta,median_lmin,p05_lmin,deficit,floor_regime,floor_value,precondition_ok"
    )


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

    out = tmp_path / "copy.ini"
    ex.write_config(cfg, out)
    cfg2 = ex.parse_config(out)
    assert cfg2.spec == cfg.spec
    assert cfg2.beta_grid == cfg.beta_grid
    assert cfg2.constants.c2 == cfg.constants.c2


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
    c = bd.anchor_constant(1 - anchor_min, anchor.beta, regime, 1.0)
    for s in r.summaries[1:]:
        floor = 1 - c * bd.regime_rate(regime, s.beta, 1.0)
        assert s.p05_lmin >= floor


def test_run_sweep_isolates_trial_failures(monkeypatch):
    real_trial = ex._trial

    def flaky(cfg, beta_index, trial_index):
        if (beta_index, trial_index) == (0, 2):
            raise RuntimeError("synthetic numerical failure")
        return real_trial(cfg, beta_index, trial_index)

    monkeypatch.setattr(ex, "_trial", flaky)
    cfg = small_config()
    r = ex.run_sweep(cfg)
    assert len(r.failures) == 1
    assert "beta_index=0 trial=2" in r.failures[0]
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


def test_verify_suite_reduced_budget_skips():
    report = ex.verify_suite(budget=5)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["tiny-oracle-battery"] == "skipped"
    assert statuses["rademacher-exact-vs-mc"] == "skipped"
    assert report.ok  # skipped checks do not fail the run

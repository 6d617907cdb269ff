"""CLI smoke tests through the argparse entry point."""

import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lminlab import bounds as bd
from lminlab import cli
from lminlab import distributions as dist
from lminlab import experiments as ex
from lminlab import rademacher as rad
from lminlab import spectrum as sp
from lminlab.errors import InvalidParameterError


def test_sample_then_spectrum(tmp_path, capsys):
    matrix = tmp_path / "m.bin"
    rc = cli.main(
        ["sample", "--family", "gaussian-iid", "--n", "8", "--N", "32", "--seed", "5", "--out", str(matrix)]
    )
    assert rc == 0
    m = sp.SampleMatrix.load(matrix)
    assert (m.N, m.n) == (32, 8)

    out = tmp_path / "spec.json"
    rc = cli.main(["spectrum", "--matrix", str(matrix), "--power", "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    gap = abs(payload["lambda_min_sq_power"] - payload["lambda_min"] ** 2)
    assert gap <= 1e-8 * payload["lambda_min"] ** 2


def test_smallball_csv(tmp_path):
    out = tmp_path / "curve.csv"
    rc = cli.main(
        [
            "smallball",
            "--family",
            "gaussian-iid",
            "--n",
            "4",
            "--samples",
            "20000",
            "--u-grid",
            "0.1,0.4",
            "--budget",
            "64",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "u,q_upper,q_lower,dir_index,stderr"
    assert len(lines) == 3


def test_rademacher_json(tmp_path):
    out = tmp_path / "rad.json"
    rc = cli.main(
        ["rademacher", "--family", "rademacher-vec", "--n", "4", "--N", "8", "--seed", "2", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["exact"] is True
    assert payload["value"] <= payload["upper_bound"] + 3e-1


def test_bounds_tail(capsys):
    rc = cli.main(["bounds", "--regime", "tail", "--eta", "5", "--beta", "0.25", "--N", "100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "floor,0.5" in out


def test_sweep_and_fit(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[distribution]\nfamily = gaussian-iid\nn = 10\n\n"
        "[sweep]\nbeta_grid = 0.5 0.25 0.125 0.0625\ntrials = 12\nseed = 9\n\n"
        f"[outputs]\nsummary = {tmp_path / 'summary.csv'}\n"
    )
    rc = cli.main(["sweep", "--config", str(cfg), "--threads", "2"])
    assert rc == 0
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("family,eta,n,N,beta")
    assert len(summary) == 5

    rc = cli.main(["fit", "--rows", str(tmp_path / "summary.csv"), "--regime", "eta-gt-2", "--format", "json", "--out", str(tmp_path / "fit.json")])
    assert rc == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert 0.2 <= fit["exponent"] <= 0.8


def test_verify_small_budget(capsys):
    rc = cli.main(["verify", "--budget", "12"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "overall: PASS" in out


def test_verify_text_report_to_out_file(tmp_path, capsys):
    out = tmp_path / "v.txt"
    rc = cli.main(["verify", "--budget", "12", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().splitlines()
    assert lines[0].startswith("[PASS   ] phi-sandwich:")
    assert lines[-1] == "overall: PASS (budget 12)"


def test_error_exit_code(capsys):
    rc = cli.main(["sweep"])  # missing --config
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bounds_missing_flags_graceful(capsys):
    rc = cli.main(["bounds", "--regime", "tail", "--N", "100"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--eta" in err and "--beta" in err


def test_bounds_unreadable_config(tmp_path, capsys):
    missing = tmp_path / "missing.ini"
    rc = cli.main(["bounds", "--regime", "tail", "--eta", "3", "--beta", "0.1", "--N", "1000", "--config", str(missing)])
    assert rc == 2
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,rc,expected",
    [
        ("[constants] c2 = 5\n", 2, "section header"),
        ("[outputs]\nrows = r.csv\n[constants] c2 = 5\n", 2, "unknown [outputs] keys: ['[constants] c2']"),
        ("[constants]   ; a comment\nc2 = 5\n", 0, '""c2"": 5.0'),
        ("[constants]   # a comment\nc2 = 5\n", 0, '""c2"": 5.0'),
    ],
    ids=["key-on-first-header", "key-on-later-header", "semicolon-comment", "hash-comment"],
)
def test_bounds_config_text_after_section_header(tmp_path, capsys, text, rc, expected):
    """Text after a section header is an error unless it is a comment:
    configparser alone would drop it and run with c2 = 1.0."""
    cfg = tmp_path / "k.ini"
    cfg.write_text(text)
    assert cli.main(["bounds", "--regime", "tail", "--eta", "5", "--beta", "0.25", "--N", "100", "--config", str(cfg)]) == rc
    captured = capsys.readouterr()
    assert expected in (captured.out if rc == 0 else captured.err)


@pytest.mark.parametrize(
    "mangle",
    [lambda b: b[:30], lambda b: b[:-1], lambda b: b + b"\x00" * 8],
    ids=["truncated-header", "truncated-body", "trailing-bytes"],
)
def test_spectrum_malformed_matrix_exits_2(tmp_path, capsys, mangle):
    matrix = tmp_path / "m.bin"
    assert cli.main(["sample", "--family", "gaussian-iid", "--n", "4", "--N", "8", "--out", str(matrix)]) == 0
    matrix.write_bytes(mangle(matrix.read_bytes()))
    capsys.readouterr()
    rc = cli.main(["spectrum", "--matrix", str(matrix)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_smallball_bad_distribution_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "f.ini"
    cfg.write_text("[distribution]\nfamily = gaussian-iid\nn = abc\n")
    rc = cli.main(["smallball", "--config", str(cfg), "--samples", "100"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: bad [distribution] section")


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--matrix", "nope.bin"], ["fit", "--rows", "nope.csv"]],
    ids=["spectrum-matrix", "fit-rows"],
)
def test_missing_input_file_exits_2(tmp_path, capsys, argv):
    rc = cli.main(argv[:-1] + [str(tmp_path / argv[-1])])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_smallball_stdout_matches_out_file(tmp_path, capsys):
    argv = ["smallball", "--family", "heavy-radial", "--n", "4", "--eta", "3", "--samples", "3000"]
    argv += ["--u-grid", "0.1 0.2,0.4", "--budget", "48", "--seed", "7"]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "curve.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert stdout.encode() == out.read_bytes()


@pytest.mark.parametrize("grid", ["0.1 abc", "0.1 nan", "0.1,inf"])
def test_smallball_bad_u_grid_exits_2(capsys, grid):
    rc = cli.main(["smallball", "--family", "gaussian-iid", "--n", "2", "--samples", "100", "--u-grid", grid])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_bounds_tail_rejects_nan_eta(capsys):
    rc = cli.main(["bounds", "--regime", "tail", "--eta", "nan", "--beta", "0.25", "--N", "100"])
    assert rc == 2
    assert capsys.readouterr().err == "error: eta must be > 0, got nan\n"


def test_fit_single_beta_exits_2(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    rows.write_text("beta,deficit\n0.25,0.1\n0.25,0.2\n0.25,0.3\n0.25,0.4\n")
    rc = cli.main(["fit", "--rows", str(rows), "--format", "json"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "distinct betas" in captured.err and captured.out == ""


def test_sweep_rejects_duplicate_betas(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[distribution]\nfamily = gaussian-iid\nn = 4\n\n"
        "[sweep]\nbeta_grid = 0.25 0.25 0.125 0.0625 0.03125\ntrials = 10\nseed = 1\n"
    )
    rc = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "beta values must be distinct" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_sweep_rejects_nonpositive_threads_before_creating_outputs(tmp_path, capsys, threads):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[distribution]\nfamily = gaussian-iid\nn = 4\n\n[sweep]\nbeta_grid = 0.5\ntrials = 2\nseed = 1\n")
    rc = cli.main(["sweep", "--config", str(cfg), "--threads", threads, "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: threads must be >= 1, got {threads}\n"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "family,n,beta",
    [("gaussian-iid", "4", "1e-320"), ("uniform-cube", "4", "1e-320"), ("uniform-cube", "1" + "0" * 400, "1.0")],
    ids=["gaussian-tiny-beta", "cube-tiny-beta", "cube-huge-n"],
)
def test_sweep_rejects_beta_whose_sample_size_overflows(tmp_path, capsys, family, n, beta):
    """A config whose N = ceil(n/beta) is beyond float range is refused
    before any output file is created."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        f"[distribution]\nfamily = {family}\nn = {n}\n\n[sweep]\nbeta_grid = {beta} 0.5\ntrials = 2\nseed = 1\n"
    )
    rc = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: N = ceil(n/beta) is beyond float range at beta = {beta}\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_sweep_below_eta_2_fits_without_the_beta_one_row(tmp_path, capsys):
    """Below eta = 2 the fit's rate variable beta log(1/beta) is 0 at
    beta = 1, so that row is left out of the fit, not the whole sweep."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[distribution]\nfamily = heavy-radial\nn = 6\neta = 1\n\n"
        "[sweep]\nbeta_grid = 1 0.5 0.25 0.125 0.0625\ntrials = 20\nseed = 3\n"
    )
    rc = cli.main(["sweep", "--config", str(cfg), "--threads", "2", "--out", str(tmp_path / "run")])
    assert rc == 0, capsys.readouterr().err
    result = json.loads((tmp_path / "run.json").read_text())
    assert len(result["rows"]) == 100 and len(result["summaries"]) == 5
    assert result["fit"]["regime"] == "eta-lt-2" and result["fit"]["n_used"] == 4


def test_fit_on_sweep_summary_reproduces_the_sweep_fit(tmp_path, capsys):
    """The sweep and ``lminlab fit`` keep the same rows: on the sweep's own
    summary CSV, whose beta = 1 row has a zero rate below eta = 2, ``fit``
    gives the sweep's fit, with that row counted in ``n_excluded``."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[distribution]\nfamily = heavy-radial\nn = 6\neta = 1\n\n"
        "[sweep]\nbeta_grid = 1 0.5 0.25 0.125 0.0625\ntrials = 20\nseed = 7\n"
    )
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    rc = cli.main(
        ["fit", "--rows", str(tmp_path / "run.summary.csv"), "--regime", "eta-lt-2",
         "--format", "json", "--out", str(tmp_path / "fit.json")]
    )
    assert rc == 0, capsys.readouterr().err
    sweep_fit = json.loads((tmp_path / "run.json").read_text())["fit"]
    assert json.loads((tmp_path / "fit.json").read_text()) == sweep_fit
    assert (sweep_fit["n_used"], sweep_fit["n_excluded"]) == (4, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["--regime", "tail", "--eta", "5", "--beta", "0.25", "--config", "CONSTANTS"],
        ["--regime", "basic", "--tau", "nan", "--q2tau", "0.5", "--rn", "0.01"],
        ["--regime", "isomorphic", "--n", "3", "--B", "nan"],
        ["--regime", "general", "--tau", "1", "--q2tau", "0.5", "--n", "3", "--A", "nan"],
    ],
    ids=["tail-constant-inf", "basic-tau-nan", "isomorphic-B-nan", "general-A-nan"],
)
def test_bounds_rejects_nonfinite_inputs(tmp_path, capsys, argv):
    constants = tmp_path / "k.ini"
    constants.write_text("[constants]\nc2 = inf\n")
    argv = [str(constants) if a == "CONSTANTS" else a for a in argv]
    rc = cli.main(["bounds", *argv, "--N", "100"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,rc,expected",
    [
        (["--regime", "isomorphic", "--B", "1e100", "--n", "4"], 0, "precondition_ok,False"),
        (["--regime", "general", "--tau", "1e-200", "--q2tau", "0.5", "--n", "4"], 0, "precondition_ok,False"),
        (["--regime", "basic", "--tau", "1e200", "--q2tau", "0.5", "--rn", "0.1"], 2, "overflows float range"),
        (["--regime", "tail", "--eta", "2", "--beta", "0.05", "--config", "CONSTANTS"], 2, "overflows float range"),
    ],
    ids=["isomorphic-threshold", "general-threshold", "basic-floor", "tail-floor"],
)
def test_bounds_beyond_float_range(tmp_path, capsys, argv, rc, expected):
    """A precondition threshold beyond float range is inf, so the
    precondition fails; a floor that overflows is an input error."""
    constants = tmp_path / "k.ini"
    constants.write_text("[constants]\nc4 = 1.7e308\n")
    argv = [str(constants) if a == "CONSTANTS" else a for a in argv]
    assert cli.main(["bounds", *argv, "--N", "10"]) == rc
    captured = capsys.readouterr()
    assert expected in (captured.out if rc == 0 else captured.err)


HUGE = "1" + "0" * 400  # an integer beyond float range


@pytest.mark.parametrize(
    "argv,name",
    [
        (["--regime", "tail", "--eta", "3", "--beta", "0.5", "--N", HUGE], "N"),
        (["--regime", "basic", "--tau", "0.5", "--q2tau", "0.5", "--rn", "0.01", "--N", HUGE], "N"),
        (["--regime", "general", "--tau", "0.5", "--q2tau", "0.5", "--n", "4", "--N", HUGE], "N"),
        (["--regime", "general", "--tau", "0.5", "--q2tau", "0.5", "--n", HUGE, "--N", "100"], "n"),
        (["--regime", "isomorphic", "--n", HUGE, "--N", "100"], "n"),
    ],
    ids=["tail-N", "basic-N", "general-N", "general-n", "isomorphic-n"],
)
def test_bounds_huge_integer_count_exits_2(capsys, argv, name):
    assert cli.main(["bounds", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {name} is beyond float range (401 digits)\n" and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--N", HUGE, "--out", "m.bin"],
        ["rademacher", "--N", HUGE],
        ["smallball", "--samples", HUGE],
    ],
    ids=["sample-N", "rademacher-N", "smallball-samples"],
)
def test_sampling_huge_count_exits_2(tmp_path, capsys, monkeypatch, argv):
    """A row count whose m x n array numpy cannot index is a parameter error."""
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--family", "gaussian-iid", "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: m x n samples at 8 bytes each exceed numpy's array size limit of {np.iinfo(np.intp).max} bytes\n"
    )
    assert captured.out == "" and not (tmp_path / "m.bin").exists()


def test_rademacher_huge_draws_exits_2(tmp_path, capsys):
    """A draw count numpy cannot index is refused before anything is allocated
    or written."""
    out = tmp_path / "r.json"
    argv = ["rademacher", "--family", "gaussian-iid", "--n", "3", "--N", "20", "--method", "mc"]
    assert cli.main([*argv, "--draws", "100000000000000000000", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: draws at 8 bytes each exceed numpy's array size limit of {np.iinfo(np.intp).max} bytes\n"
    )
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["rademacher", "--n", "1", "--N", "15", "--draws", str(2**63 - 1)],
        ["rademacher", "--n", "1", "--N", "15", "--draws", str(2**60)],
        ["rademacher", "--n", "1", "--N", str(2**63 - 1), "--draws", "4"],
        ["sample", "--n", "1", "--N", str(2**63 - 1)],
    ],
    ids=["rademacher-draws-intp-max", "rademacher-draws-2^60", "rademacher-N-intp-max", "sample-N-intp-max"],
)
def test_count_within_elements_but_beyond_bytes_exits_2(tmp_path, capsys, argv):
    """numpy limits an array's bytes, not its elements: a count that numpy
    could index but whose float64 values it cannot hold exits 2 with one
    ``error:`` line, before anything is written."""
    out = tmp_path / "out.bin"
    assert cli.main([*argv, "--family", "gaussian-iid", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "numpy's array size limit" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--N", "1000000000000", "--out", "m.bin"],
        ["rademacher", "--N", "1000000000000"],
        ["smallball", "--samples", "1000000000000"],
    ],
    ids=["sample-N", "rademacher-N", "smallball-samples"],
)
def test_unallocatable_count_exits_2(tmp_path, argv):
    """A row count numpy can index but not allocate (a 1e12 x 4 array) is an
    input error.  The child process caps its own address space at 64 GiB, so
    the allocation fails at once whatever the host's overcommit policy."""
    code = (
        "import resource, sys\n"
        "from lminlab import cli\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "soft = 1 << 36 if hard == resource.RLIM_INFINITY else min(1 << 36, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
        f"sys.exit(cli.main({[*argv, '--family', 'gaussian-iid', '--n', '4']!r}))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: Unable to allocate") and proc.stderr.count("\n") == 1
    assert proc.stdout == "" and not (tmp_path / "m.bin").exists()


def test_fit_subnormal_beta_row_is_excluded(tmp_path, capsys):
    """Below eta = 2 a subnormal beta has an infinite rate variable; the fit
    leaves its row out and counts it."""
    rows = tmp_path / "rows.csv"
    rows.write_text("beta,deficit\n5e-324,0.5\n0.5,0.4\n0.25,0.3\n0.125,0.2\n0.0625,0.1\n")
    rc = cli.main(["fit", "--rows", str(rows), "--regime", "eta-lt-2", "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    payload = json.loads(captured.out)
    assert (payload["n_used"], payload["n_excluded"]) == (4, 1)


def test_fit_constant_overflow_exits_2(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    rows.write_text("beta,deficit\n1e-3,1e300\n1e-4,1e297\n1e-6,1e290\n1e-8,1e283\n")
    assert cli.main(["fit", "--rows", str(rows)]) == 2
    captured = capsys.readouterr()
    assert "fitted constant" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "cell,message",
    [("abc", "line 4"), ("", "line 4"), ("inf", "finite"), ("nan", "finite")],
    ids=["non-numeric", "empty", "inf", "nan"],
)
def test_fit_rejects_bad_cells(tmp_path, capsys, cell, message):
    rows = tmp_path / "rows.csv"
    rows.write_text(f"beta,deficit\n0.5,0.7\n0.25,0.5\n0.125,{cell}\n0.0625,0.25\n0.03125,0.18\n")
    rc = cli.main(["fit", "--rows", str(rows)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--family", "gaussian-iid", "--n", "2", "--N", "4", "--out", "m.bin", "--format", "json"],
        ["sample", "--family", "gaussian-iid", "--n", "2", "--N", "4", "--out", "m.bin", "--threads", "2"],
        ["spectrum", "--matrix", "m.bin", "--config", "c.ini"],
        ["spectrum", "--matrix", "m.bin", "--seed", "1"],
        ["smallball", "--family", "gaussian-iid", "--n", "2", "--format", "json"],
        ["rademacher", "--family", "gaussian-iid", "--n", "2", "--N", "4", "--threads", "2"],
        ["bounds", "--regime", "tail", "--eta", "5", "--beta", "0.25", "--N", "100", "--seed", "1"],
        ["sweep", "--config", "c.ini", "--seed", "123"],
        ["sweep", "--config", "c.ini", "--format", "json"],
        ["verify", "--budget", "12", "--seed", "1"],
        ["verify", "--budget", "12", "--config", "c.ini"],
        ["fit", "--rows", "r.csv", "--threads", "2"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_undeclared_shared_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize(
    "config_seed,seed_flag,expected",
    [(None, None, 0), (11, None, 11), (11, 0, 0), (11, 5, 5), (None, 5, 5)],
    ids=["neither", "config-only", "flag-0-beats-config", "flag-beats-config", "flag-only"],
)
def test_seed_rule_flag_then_config_then_zero(tmp_path, capsys, config_seed, seed_flag, expected):
    cfg = tmp_path / "d.ini"
    text = "[distribution]\nfamily = heavy-radial\nn = 3\neta = 4\n"
    cfg.write_text(text if config_seed is None else text + f"seed = {config_seed}\n")
    flag = [] if seed_flag is None else ["--seed", str(seed_flag)]
    ref = tmp_path / "ref.ini"
    ref.write_text(text)

    def outputs(config, extra):
        matrix = tmp_path / "m.bin"
        assert cli.main(["sample", "--config", str(config), "--N", "6", "--out", str(matrix), *extra]) == 0
        sample_line = capsys.readouterr().out
        assert cli.main(["smallball", "--config", str(config), "--samples", "200", "--budget", "8", *extra]) == 0
        curve = capsys.readouterr().out
        assert cli.main(["rademacher", "--config", str(config), "--N", "20", "--draws", "50", "--method", "mc", *extra]) == 0
        return sample_line, matrix.read_bytes(), curve, capsys.readouterr().out

    got = outputs(cfg, flag)
    want = outputs(ref, ["--seed", str(expected)])
    assert got[0].endswith(f"(seed {expected})\n")
    assert got == want


@pytest.mark.parametrize("flag,value", [("--eta", "nan"), ("--eta", "inf")])
def test_nonfinite_eta_or_L_rejected(tmp_path, capsys, flag, value):
    with pytest.raises(InvalidParameterError, match="finite eta"):
        dist.DistributionSpec("heavy-iid", 3, eta=float(value))

    matrix = tmp_path / "m.bin"
    rc = cli.main(["sample", "--family", "heavy-iid", "--n", "3", "--N", "4", "--eta", "2", flag, value, "--out", str(matrix)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:") and "finite eta" in err
    assert not matrix.exists()

    # a sweep config fails before any trial runs
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        f"[distribution]\nfamily = heavy-iid\nn = 3\neta = {value}\n\n"
        "[sweep]\nbeta_grid = 0.5 0.25\ntrials = 3\nseed = 1\n"
    )
    rc = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 2 and "finite eta" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini"]


@pytest.mark.parametrize("draws", [0, 1])
def test_rademacher_mc_needs_two_draws(tmp_path, capsys, draws):
    rows = np.ones((20, 3))
    with pytest.raises(InvalidParameterError, match="draws must be >= 2"):
        rad.rademacher_linear(rows, draws=draws, rng=0, method="mc")
    out = tmp_path / "rad.json"
    argv = ["rademacher", "--family", "gaussian-iid", "--n", "3", "--N", "20", "--method", "mc"]
    rc = cli.main([*argv, "--draws", str(draws), "--format", "json", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: draws must be >= 2")
    assert not out.exists()


@pytest.mark.parametrize("budget", [0, -3])
def test_verify_rejects_budget_below_one(capsys, budget):
    with pytest.raises(InvalidParameterError, match="budget must be >= 1"):
        ex.verify_suite(budget=budget)
    rc = cli.main(["verify", "--budget", str(budget)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: budget must be >= 1, got {budget}\n" and captured.out == ""


SPEC_ARGS = ["--family", "heavy-iid", "--n", "3", "--eta", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", *SPEC_ARGS, "--N", "4", "--out", "m.bin"],
        ["smallball", *SPEC_ARGS],
        ["rademacher", *SPEC_ARGS, "--N", "4"],
        ["bounds", "--regime", "tail", "--eta", "2", "--beta", "0.25", "--N", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_tail_constant_flag_is_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--L", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --L 2" in capsys.readouterr().err


VALID_SECTIONS = {
    "distribution": "family = gaussian-iid\nn = 3\n",
    "sweep": "beta_grid = 0.5\ntrials = 2\nseed = 1\n",
    "constants": "c2 = 0.5\n",
}
# one section of the valid config replaced or added, and a piece of the error
BAD_SECTIONS = [
    ({"bogus": "x = 1\n"}, "bogus"),
    ({"distribution": "family = gaussian-iid\nn = abc\n"}, "bad [distribution] section"),
    ({"distribution": "family = heavy-iid\nn = 3\neta = 2\nL = 2\n"}, "'L'"),
    ({"sweep": "beta_grid = 0.5\ntrials = 0\nseed = 1\n"}, "trials must be >= 1"),
    ({"constants": "c2 = -1\n"}, "constant c2"),
]


def _config_text(sections: dict) -> str:
    return "".join(f"[{name}]\n{body}\n" for name, body in sections.items())


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--N", "4", "--out", "OUT"],
        ["smallball", "--samples", "100", "--budget", "8"],
        ["rademacher", "--N", "8"],
        ["bounds", "--regime", "tail", "--eta", "5", "--beta", "0.25", "--N", "100"],
        ["sweep", "--out", "OUT"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_rejects_the_same_config_files(tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.ini"
    out = tmp_path / "out"
    argv = [str(out) if a == "OUT" else a for a in argv] + ["--config", str(cfg)]
    cfg.write_text(_config_text(VALID_SECTIONS))
    assert cli.main(argv) == 0
    capsys.readouterr()
    for bad, message in BAD_SECTIONS:
        for path in tmp_path.iterdir():
            path.unlink()
        cfg.write_text(_config_text({**VALID_SECTIONS, **bad}))
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 2, bad
        assert captured.err.startswith("error:") and message in captured.err, bad
        assert captured.out == "" and list(tmp_path.iterdir()) == [cfg], bad


def test_percent_in_config_value_is_literal(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(_config_text({**VALID_SECTIONS, "outputs": "rows = run%1.csv\n"}))
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == "wrote 2 trial rows to run%1.csv\n"
    assert (tmp_path / "run%1.csv").read_text().startswith("family,eta,n,N,beta,trial")


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--family", "gaussian-iid", "--n", "2", "--N", "4", "--out", "MISSING"],
        ["bounds", "--regime", "tail", "--eta", "5", "--beta", "0.25", "--N", "100", "--out", "MISSING"],
        ["verify", "--budget", "1", "--out", "MISSING"],
        ["sweep", "--config", "CONFIG"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_path_exits_2(tmp_path, capsys, monkeypatch, argv):
    """Also a sweep fails before it runs a trial."""

    def run_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before its output paths were checked")

    monkeypatch.setattr(ex, "run_sweep", run_sweep)
    missing = str(tmp_path / "no-such-dir" / "out")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(_config_text({**VALID_SECTIONS, "outputs": f"rows = {missing}\n"}))
    argv = [{"MISSING": missing, "CONFIG": str(cfg)}.get(a, a) for a in argv]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: [Errno 2]") and missing in err


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2^64"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--N", "4", "--out", "m.bin"],
        ["smallball", "--samples", "100", "--budget", "8"],
        ["rademacher", "--N", "8"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, monkeypatch, argv, seed):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[distribution]\nfamily = gaussian-iid\nn = 2\nseed = {seed}\n")
    for extra in (["--family", "gaussian-iid", "--n", "2", "--seed", str(seed)], ["--config", str(cfg)]):
        rc = cli.main([*argv, *extra])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: seed must be in [0, 2^64), got {seed}\n" and captured.out == ""
        assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", ["sweep", "bounds"])
def test_nonfinite_json_value_exits_2(tmp_path, capsys, monkeypatch, command):
    """JSON has no NaN: the command names the key and exits 2 instead of
    writing ``NaN``."""
    real = bd.floor_regime
    monkeypatch.setattr(bd, "floor_regime", lambda *a, **kw: dataclasses.replace(real(*a, **kw), floor=math.nan))
    out = tmp_path / "out.json"
    if command == "sweep":
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[distribution]\nfamily = gaussian-iid\nn = 4\n\n[sweep]\nbeta_grid = 0.5\ntrials = 2\nseed = 1\n\n"
            f"[outputs]\nresult = {out}\n"
        )
        argv, key = ["sweep", "--config", str(cfg)], "summaries[0].floor_value"
    else:
        argv = ["bounds", "--regime", "tail", "--eta", "5", "--beta", "0.25", "--N", "100", "--format", "json"]
        argv, key = [*argv, "--out", str(out)], "floor"
    rc = cli.main(argv)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {key} is nan, which JSON cannot hold\n"
    assert not out.exists() or out.read_text() == ""


def test_nonfinite_sweep_result_writes_no_output(tmp_path, capsys, monkeypatch):
    """A sweep whose result JSON would hold a NaN exits 2 before writing
    any output: earlier rows, summary and result files keep their bytes."""
    real = bd.floor_regime
    monkeypatch.setattr(bd, "floor_regime", lambda *a, **kw: dataclasses.replace(real(*a, **kw), floor=math.nan))
    outputs = {name: tmp_path / name for name in ("rows.csv", "summary.csv", "result.json")}
    for name, path in outputs.items():
        path.write_bytes(f"earlier {name}\n".encode())
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[distribution]\nfamily = uniform-cube\nn = 3\n\n[sweep]\nbeta_grid = 0.5\ntrials = 2\nseed = 1\n\n"
        "[outputs]\n" + "".join(f"{key} = {outputs[name]}\n" for key, name in
                                (("rows", "rows.csv"), ("summary", "summary.csv"), ("result", "result.json")))
    )
    rc = cli.main(["sweep", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: summaries[0].floor_value is nan, which JSON cannot hold\n"
    assert captured.out == ""
    for name, path in outputs.items():
        assert path.read_bytes() == f"earlier {name}\n".encode()


def test_readme_names_every_subcommand_and_flag():
    """README.md shows every subcommand as a ``lminlab`` command line and
    names every long flag the parser declares."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = []
    for name, parser in commands.choices.items():
        if f"lminlab {name}" not in readme:
            missing.append(name)
        flags = {o for action in parser._actions for o in action.option_strings if o.startswith("--")}
        missing += [f for f in sorted(flags - {"--help"}) if not re.search(rf"(?<![\w-]){f}(?![\w-])", readme)]
    assert missing == []

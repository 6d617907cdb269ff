"""CLI smoke tests through the argparse entry point."""

import json

import numpy as np
import pytest

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
    assert summary[0].startswith("family,eta,n,beta")
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
        f"error: m * n has 401 digits, beyond numpy's array size limit {np.iinfo(np.intp).max}\n"
    )
    assert captured.out == "" and not (tmp_path / "m.bin").exists()


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

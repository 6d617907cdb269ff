"""Command-line interface.

Subcommands: sample, spectrum, smallball, rademacher, bounds, sweep, verify,
fit.  The shared flags (--seed, --threads, --out, --format, --config) are
declared only by the subcommands that read them; any other is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from . import blas
from . import bounds as bd
from . import distributions as dist
from . import experiments as ex
from . import rademacher as rad
from . import smallball as sb
from . import spectrum as sp
from .errors import ConfigError, InvalidInputError, InvalidParameterError, LminlabError
from .streams import check_seed


_FLAGS = {
    "seed": dict(type=int, default=None, help="master seed (default: the config's [distribution] seed, else 0)"),
    "threads": dict(type=int, default=1, help="worker threads for sweeps"),
    "out": dict(type=str, default=None, help="output path (default stdout)"),
    "format": dict(choices=("csv", "json"), default="csv", dest="fmt"),
    "config": dict(type=str, default=None, help="config file path"),
}


def _flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Declare the named shared flags on one subcommand."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def _emit(pairs: dict, args) -> None:
    """Write a flat key->value record as csv rows or a json object."""
    if args.fmt == "json":
        text = ex.json_text(pairs)  # raises before the output is opened
        with ex.open_output(args.out) as fh:
            fh.write(text + "\n")
    else:
        ex.write_table(pairs.items(), args.out)


def _spec_from_args(args) -> dist.DistributionSpec:
    if args.config:
        sections = ex.read_config(args.config)
        if "distribution" not in sections:
            raise ConfigError("config lacks a [distribution] section")
        return sections["distribution"]
    if args.family is None or args.n is None:
        raise ConfigError("need --family and --n (or --config)")
    return dist.DistributionSpec(
        family=args.family,
        n=args.n,
        eta=args.eta,
        mixture_p=args.mixture_p,
    )


def _seed(args, spec: dist.DistributionSpec) -> int:
    """--seed, else the config's [distribution] seed, else 0; a seed outside
    [0, 2^64) is an error."""
    seed = args.seed
    if seed is None:
        seed = spec.seed if spec.seed is not None else 0
    return check_seed(seed)


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=dist.FAMILIES, default=None)
    p.add_argument("--n", type=int, default=None, help="ambient dimension")
    p.add_argument("--eta", type=float, default=None, help="tail exponent surplus")
    p.add_argument("--mixture-p", type=float, default=0.0, dest="mixture_p")


def cmd_sample(args) -> int:
    spec = _spec_from_args(args)
    if args.out is None:
        raise ConfigError("sample requires --out for the matrix file")
    seed = _seed(args, spec)
    m = sp.assemble(spec, args.N, seed)
    m.save(args.out)
    print(f"wrote {args.N}x{spec.n} matrix to {args.out} (seed {seed})")
    return 0


def cmd_spectrum(args) -> int:
    m = sp.SampleMatrix.load(args.matrix)
    with blas._single_threaded_blas:  # bits independent of the BLAS thread count
        res = sp.lambda_extremes(m)
        width = sp.inertia_bracket(res.gram, res.lambda_min**2, res.lambda_max**2)
    out = {
        "N": m.N,
        "n": m.n,
        "lambda_min": res.lambda_min,
        "lambda_max": res.lambda_max,
        "bracket_half_width": width,
    }
    _emit(out, args)
    return 0


def cmd_smallball(args) -> int:
    spec = _spec_from_args(args)
    rng = np.random.default_rng(_seed(args, spec))
    samples = dist.sample_matrix(spec, args.samples, rng)
    try:
        u_grid = [float(tok) for tok in args.u_grid.replace(",", " ").split()]
    except ValueError as exc:
        raise InvalidParameterError(f"--u-grid: {exc}") from exc
    curve = sb.small_ball_curve(samples, u_grid, budget=args.budget, rng=rng)
    columns = zip(curve.u_grid, curve.upper, curve.lower, curve.dir_indices, curve.stderr())
    ex.write_table([["u", "q_upper", "q_lower", "dir_index", "stderr"], *columns], args.out)
    if args.out:
        print(f"wrote curve to {args.out}")
    return 0


def cmd_rademacher(args) -> int:
    spec = _spec_from_args(args)
    rng = np.random.default_rng(_seed(args, spec))
    rows = dist.sample_matrix(spec, args.N, rng)
    est = rad.rademacher_linear(rows, draws=args.draws, rng=rng, method=args.method)
    _emit(
        {
            "value": est.value,
            "stderr": est.stderr,
            "draws": est.draws,
            "exact": est.exact,
            "upper_bound": rad.rademacher_upper(spec.n, args.N),
        },
        args,
    )
    return 0


def _constants_from_args(args) -> bd.ConstantSet:
    if not args.config:
        return bd.ConstantSet()
    return ex.read_config(args.config).get("constants", bd.ConstantSet())


def _require(args, names: tuple) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise ConfigError(f"--regime {args.regime} requires {', '.join(missing)}")


def cmd_bounds(args) -> int:
    k = _constants_from_args(args)
    if args.regime == "tail":
        _require(args, ("eta", "beta"))
        pred = bd.floor_regime(args.eta, args.beta, k, args.N)
    elif args.regime == "basic":
        _require(args, ("tau", "q2tau", "rn"))
        pred = bd.basic_floor(args.tau, args.q2tau, args.rn, args.N)
    elif args.regime == "isomorphic":
        _require(args, ("n",))
        band = bd.CovarianceBand(a=args.a, A=args.A, B=args.B)
        pred = bd.isomorphic_floor(band, args.n, args.N, k)
    else:
        _require(args, ("tau", "q2tau", "n"))
        pred = bd.general_floor(args.tau, args.q2tau, args.A, args.n, args.N, k)
    d = dataclasses.asdict(pred)
    d["constants"] = json.dumps(d["constants"])
    d["flags"] = ";".join(pred.flags)
    _emit(d, args)
    return 0


def cmd_sweep(args) -> int:
    if not args.config:
        raise ConfigError("sweep requires --config")
    cfg = ex.parse_config(args.config)
    if args.threads < 1:  # before the output files below are created
        raise InvalidParameterError(f"threads must be >= 1, got {args.threads}")
    rows_path = cfg.outputs.rows or (args.out and args.out + ".rows.csv")
    summary_path = cfg.outputs.summary or (args.out and args.out + ".summary.csv")
    json_path = cfg.outputs.result or (args.out and args.out + ".json")
    paths = [path for path in (rows_path, summary_path, json_path) if path]
    if not paths:
        raise ConfigError("sweep needs output paths ([outputs] section or --out prefix)")
    for path in paths:
        # an unwritable output fails here, before any trial runs; appending
        # leaves an earlier run's file as it was until the sweep succeeds
        open(path, "a").close()
    result = ex.run_sweep(cfg, threads=args.threads)
    # a value the result JSON cannot hold fails the sweep before any output
    # is written, so the three files never disagree
    text = ex.json_text(result.to_json_dict())
    if rows_path:
        result.rows_csv(rows_path)
        print(f"wrote {len(result.rows)} trial rows to {rows_path}")
    if summary_path:
        result.summary_csv(summary_path)
        print(f"wrote {len(result.summaries)} summaries to {summary_path}")
    if json_path:
        with ex.open_output(json_path) as fh:
            fh.write(text)
        print(f"wrote result json to {json_path}")
    if result.failures:
        print(f"{len(result.failures)} trial(s) failed", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    report = ex.verify_suite(budget=args.budget)
    if args.fmt == "json":
        _emit(report.to_json_dict(), args)
    else:
        lines = [f"[{c.status.upper():7s}] {c.name}: {c.detail}" for c in report.checks]
        lines.append(f"overall: {'PASS' if report.ok else 'FAIL'} (budget {report.budget})")
        with ex.open_output(args.out) as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if report.ok else 1


def cmd_fit(args) -> int:
    rows = []
    try:
        fh = open(args.rows, newline="")
    except OSError as exc:
        raise InvalidInputError(f"cannot read rows file {args.rows}: {exc.strerror}") from exc
    with fh:
        reader = csv.DictReader(fh)
        cols = reader.fieldnames or []
        if "beta" not in cols or "deficit" not in cols:
            raise ConfigError(f"{args.rows} needs 'beta' and 'deficit' columns, has {cols}")
        for rec in reader:
            try:
                rows.append((float(rec["beta"]), float(rec["deficit"])))
            except (TypeError, ValueError) as exc:
                raise InvalidInputError(
                    f"{args.rows} line {reader.line_num}: beta and deficit must be numbers, "
                    f"got {rec['beta']!r}, {rec['deficit']!r}"
                ) from exc
    _emit(vars(ex.fit_exponent(rows, regime=args.regime)), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lminlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a sample matrix and write the binary file")
    _add_spec_flags(p)
    p.add_argument("--N", type=int, required=True, help="row count")
    _flags(p, "seed", "out", "config")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("spectrum", help="extreme singular values of a matrix file")
    p.add_argument("--matrix", required=True, help="matrix file from 'sample'")
    _flags(p, "out", "format")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("smallball", help="small-ball sandwich curve to CSV")
    _add_spec_flags(p)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--u-grid", default="0.1 0.2 0.4 0.8", dest="u_grid")
    p.add_argument("--budget", type=int, default=256)
    _flags(p, "seed", "out", "config")
    p.set_defaults(func=cmd_smallball)

    p = sub.add_parser("rademacher", help="Rademacher complexity of a fresh sample")
    _add_spec_flags(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--draws", type=int, default=rad.DEFAULT_DRAWS)
    p.add_argument("--method", choices=("auto", "exact", "mc"), default="auto")
    _flags(p, "seed", "out", "format", "config")
    p.set_defaults(func=cmd_rademacher)

    p = sub.add_parser("bounds", help="evaluate a floor prediction from flags")
    p.add_argument("--regime", choices=("tail", "basic", "isomorphic", "general"), required=True)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--q2tau", type=float, default=None)
    p.add_argument("--rn", type=float, default=None)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--N", type=int, required=True)
    _flags(p, "out", "format", "config")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="run a beta sweep from a config file")
    _flags(p, "threads", "out", "config")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the oracle/invariant suite")
    p.add_argument("--budget", type=int, default=100)
    _flags(p, "out", "format")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fit", help="fit a deficit scaling exponent from CSV rows")
    p.add_argument("--rows", required=True, help="CSV with beta and deficit columns")
    p.add_argument("--regime", choices=tuple(ex._FIT_RATES), default="eta-gt-2")
    _flags(p, "out", "format")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    """Run one subcommand.  An ``LminlabError``, an ``OSError`` or a
    ``MemoryError`` (a count too large to allocate) prints one ``error:``
    line and returns 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LminlabError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

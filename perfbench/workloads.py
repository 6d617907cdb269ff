"""The four benchmark workloads.

Each workload writes its inputs from the seed (``prepare``), makes one small
warm-up call so that imports and lazy BLAS start-up are paid before timing
(``warm_up``), runs the timed call (``call``) and then checks the call's
outputs (``check``).  ``check`` returns the digest of the outputs, the number
of operations attempted and the list of failed ones.  The calls look the
lminlab functions up as module attributes at call time, so the span wrappers
of ``tracing`` see them.

Why these four (one layer isolated per workload):

- sweep-edge-t2: the criterion-1 sweep through ``cli.main``; spectrum-heavy
  and the only workload on the sweep thread pool, so BLAS oversubscription
  and eigensolver changes show here.
- sweep-radial-t1: the criterion-2 sweep at one thread; sampling-heavy, the
  plain single-threaded baseline that a thread-pool change bypasses.
- verify-oracle: ``lminlab verify --budget 100``; the exact oracle battery
  and the inverse-power path, no sweep code.
- estimate-floor-inputs: the small-ball curve and Rademacher estimate that
  the floors take as inputs; the only workload where ``smallball`` and
  ``rademacher`` do most of the work, and the memory-heavy one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

import numpy as np


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class Sweep:
    """``lminlab sweep --config ... --threads T`` through ``cli.main``."""

    def __init__(self, name, distribution: dict, beta_grid: str, trials: int, threads: int, check):
        self.name = name
        self.distribution = distribution
        self.beta_grid = beta_grid
        self.trials = trials
        self.threads = max(1, min(threads, os.cpu_count() or 1))
        self._check = check

    def _write_config(self, path, trials: int) -> None:
        lines = ["[distribution]"]
        lines += [f"{k} = {v}" for k, v in self.distribution.items()]
        lines += [
            "[sweep]",
            f"beta_grid = {self.beta_grid}",
            f"trials = {trials}",
            f"seed = {self.seed}",
            "[outputs]",
            f"rows = {self.rows}",
            f"summary = {self.summary}",
            f"result = {self.result}",
        ]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def prepare(self, lm, workdir: str, seed: int) -> None:
        self.lm = lm
        self.seed = seed
        self.rows = os.path.join(workdir, "rows.csv")
        self.summary = os.path.join(workdir, "summary.csv")
        self.result = os.path.join(workdir, "result.json")
        self.config = os.path.join(workdir, "sweep.ini")
        self.warm_config = os.path.join(workdir, "warm.ini")
        self._write_config(self.config, self.trials)
        self._write_config(self.warm_config, 1)

    def _sweep(self, config: str) -> int:
        return self.lm.cli.main(["sweep", "--config", config, "--threads", str(self.threads)])

    def warm_up(self) -> None:
        self._sweep(self.warm_config)

    def call(self) -> int:
        return self._sweep(self.config)

    def check(self, code: int):
        with open(self.rows, "rb") as fh:
            rows = fh.read()
        with open(self.summary, "rb") as fh:
            summary = fh.read()
        with open(self.result) as fh:
            result = json.load(fh)
        failures = result["failures"]
        checks = [("exit code 0", code == 0, f"exit code {code}")] + self._check(result)
        failed = [f"trial {f}" for f in failures] + [f"{n}: {d}" for n, ok, d in checks if not ok]
        attempted = len(result["rows"]) + len(failures) + len(checks)
        return _digest(rows, summary), attempted, failed


def _edge_median(result) -> list:
    median = result["summaries"][0]["median_lmin"]
    return [("median lambda_min in 0.75 +- 0.05", abs(median - 0.75) <= 0.05, f"median {median!r}")]


def _radial_exponent(result) -> list:
    fit = result["fit"]
    exponent = None if fit is None else fit["exponent"]
    ok = exponent is not None and 0.35 <= exponent <= 0.65
    return [("fitted exponent in [0.35, 0.65]", ok, f"exponent {exponent!r}")]


class Verify:
    """``lminlab verify --budget 100 --format json`` through ``cli.main``.

    The verify suite draws from its own fixed seed, so the workload seed does
    not change its inputs.
    """

    name = "verify-oracle"
    threads = 1
    budget = 100

    def prepare(self, lm, workdir: str, seed: int) -> None:
        self.lm = lm
        self.report = os.path.join(workdir, "verify.json")

    def _verify(self, budget: int) -> int:
        argv = ["verify", "--budget", str(budget), "--format", "json", "--out", self.report]
        return self.lm.cli.main(argv)

    def warm_up(self) -> None:
        self._verify(10)

    def call(self) -> int:
        return self._verify(self.budget)

    def check(self, code: int):
        with open(self.report, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        oracle = [c["detail"] for c in report["checks"] if c["name"] == "tiny-oracle-battery"]
        match = re.search(r"(\d+) violated", oracle[0]) if oracle else None
        checks = [
            ("report.ok and exit code 0", report["ok"] and code == 0, f"exit code {code}"),
            ("oracle reports 0 violated", match is not None and match.group(1) == "0", repr(oracle)),
        ]
        failed = [f"verify check {c['name']}: {c['detail']}" for c in report["checks"] if c["status"] == "fail"]
        failed += [f"{n}: {d}" for n, ok, d in checks if not ok]
        return _digest(raw), len(report["checks"]) + len(checks), failed


class FloorInputs:
    """The inputs of the small-ball floors, heavy-radial eta=3, n=8:
    100 000 samples -> small_ball_curve (u-grid 0.1/0.2/0.4/0.8, budget 256),
    rademacher_linear by Monte Carlo on N=4096 with 2000 draws, then
    basic_floor and general_floor at tau=0.2."""

    name = "estimate-floor-inputs"
    threads = 1
    u_grid = (0.1, 0.2, 0.4, 0.8)
    tau = 0.2

    def prepare(self, lm, workdir: str, seed: int) -> None:
        self.lm = lm
        self.seed = seed
        self.spec = lm.distributions.DistributionSpec("heavy-radial", 8, eta=3.0)

    def _estimate(self, samples: int, budget: int, N: int, draws: int) -> dict:
        lm = self.lm
        rng = np.random.default_rng(self.seed)
        x = lm.distributions.sample_matrix(self.spec, samples, rng)
        curve = lm.smallball.small_ball_curve(x, self.u_grid, budget=budget, rng=rng)
        rows = lm.distributions.sample_matrix(self.spec, N, rng)
        rn = lm.rademacher.rademacher_linear(rows, draws=draws, rng=rng, method="mc")
        q2tau = float(curve.lower[self.u_grid.index(2 * self.tau)])
        basic = lm.bounds.basic_floor(self.tau, q2tau, rn.value, N)
        general = lm.bounds.general_floor(self.tau, q2tau, 1.0, self.spec.n, N, lm.bounds.ConstantSet())
        return {"curve": curve, "rn": rn, "basic": basic, "general": general}

    def warm_up(self) -> None:
        self._estimate(samples=2000, budget=16, N=256, draws=100)

    def call(self) -> dict:
        self.out = self._estimate(samples=100_000, budget=256, N=4096, draws=2000)
        return 0

    def check(self, code: int):
        curve, rn = self.out["curve"], self.out["rn"]
        floors = [self.out["basic"], self.out["general"]]
        scalars = [rn.value, rn.stderr] + [p.floor for p in floors] + [p.prob_failure for p in floors]
        checks = [
            ("q_lower <= q_upper", bool(np.all(curve.lower <= curve.upper)), repr(curve.lower - curve.upper)),
            ("q_upper nonincreasing", bool(np.all(np.diff(curve.upper) <= 0)), repr(curve.upper)),
            (
                "every output finite",
                bool(np.all(np.isfinite(curve.upper)) and np.all(np.isfinite(curve.lower)))
                and all(math.isfinite(v) for v in scalars),
                repr(scalars),
            ),
        ]
        failed = [f"{n}: {d}" for n, ok, d in checks if not ok]
        digest = _digest(
            curve.upper.tobytes(),
            curve.lower.tobytes(),
            curve.dir_indices.tobytes(),
            np.array(scalars).tobytes(),
        )
        return digest, len(checks), failed


def make(name: str):
    if name == "sweep-edge-t2":
        return Sweep(
            name,
            {"family": "gaussian-iid", "n": 100},
            beta_grid="0.0625",
            trials=200,
            threads=2,
            check=_edge_median,
        )
    if name == "sweep-radial-t1":
        return Sweep(
            name,
            {"family": "heavy-radial", "n": 64, "eta": 5.0},
            beta_grid="0.5 0.25 0.125 0.0625 0.03125",
            trials=100,
            threads=1,
            check=_radial_exponent,
        )
    if name == "verify-oracle":
        return Verify()
    if name == "estimate-floor-inputs":
        return FloorInputs()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sweep-edge-t2", "sweep-radial-t1", "verify-oracle", "estimate-floor-inputs")

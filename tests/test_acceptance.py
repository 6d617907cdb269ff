"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from fractions import Fraction

import numpy as np

from lminlab import bounds as bd
from lminlab import distributions as dist
from lminlab import empirical_process as ep
from lminlab import experiments as ex
from lminlab import rademacher as rad
from lminlab import smallball as sb
from lminlab import spectrum as sp
from lminlab.streams import SeedRecord

SEED = 20260809


def _report(num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail} ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_gaussian_edge_median():
    # gaussian-iid, n=100, N=1600, 200 trials: median lambda_min in 0.75 +- 0.05
    t0 = time.time()
    spec = dist.DistributionSpec("gaussian-iid", 100)
    cfg = ex.ExperimentConfig(spec=spec, beta_grid=(0.0625,), trials=200, seed=SEED)
    r = ex.run_sweep(cfg, threads=8)
    median = r.summaries[0].median_lmin
    elapsed_ok = (time.time() - t0) <= 60
    ok = abs(median - 0.75) <= 0.05 and elapsed_ok
    _report(1, ok, f"median lambda_min {median:.4f} target 0.75 +- 0.05", t0)


def test_criterion_2_regime1_exponent():
    # heavy-radial eta=5, n=64, beta in {1/2..1/32}, 100 trials/point:
    # fitted deficit exponent vs beta in [0.35, 0.65]
    t0 = time.time()
    spec = dist.DistributionSpec("heavy-radial", 64, eta=5.0)
    betas = (0.5, 0.25, 0.125, 0.0625, 0.03125)
    cfg = ex.ExperimentConfig(spec=spec, beta_grid=betas, trials=100, seed=SEED)
    r = ex.run_sweep(cfg, threads=8)
    exponent = r.fit.exponent
    elapsed_ok = (time.time() - t0) <= 300
    ok = 0.35 <= exponent <= 0.65 and elapsed_ok
    _report(2, ok, f"fitted exponent {exponent:.4f} target [0.35, 0.65]", t0)


def test_criterion_3_calibrate_then_holdout_coverage():
    # for eta in {1, 2, 5} on heavy-radial: the regime constant is calibrated
    # at the largest beta as the smallest constant whose floor covers every
    # anchor trial (the predicted failure probability at this scale is
    # ~exp(-n), so all anchor observations must sit above the floor); at every
    # smaller beta the empirical 5th-percentile lambda_min must be >= the
    # calibrated floor.  Zero violations allowed.
    t0 = time.time()
    betas = (0.5, 0.25, 0.125, 0.0625)
    anchor_trials = 2000
    violations = []
    details = []
    for eta in (1.0, 2.0, 5.0):
        spec = dist.DistributionSpec("heavy-radial", 64, eta=eta)
        regime = bd.regime_for_eta(eta)
        N0 = math.ceil(64 / betas[0])
        anchor_lmins = np.array(
            [
                sp.lambda_extremes(sp.assemble(spec, N0, SeedRecord(SEED, 0, t))).lambda_min
                for t in range(anchor_trials)
            ]
        )
        c = (1.0 - float(anchor_lmins.min())) / bd.regime_rate(regime, betas[0], eta)
        cfg = ex.ExperimentConfig(spec=spec, beta_grid=betas, trials=200, seed=SEED)
        r = ex.run_sweep(cfg, threads=8)
        margins = []
        for s in r.summaries[1:]:
            floor = 1.0 - c * bd.regime_rate(regime, s.beta, eta)
            margins.append(s.p05_lmin - floor)
            if s.p05_lmin < floor:
                violations.append((eta, s.beta))
        details.append(f"eta={eta}: c={c:.3f} min margin {min(margins):+.4f}")
    _report(3, not violations, "; ".join(details) + f"; violations={violations}", t0)


def test_criterion_4_exact_oracle_battery():
    # >= 100 randomized finite instances (<= 4 atoms, <= 3 functions, N <= 8),
    # exact enumeration of tuples and sign vectors: every applicable instance
    # satisfies exact success probability >= the predicted bound, exactly
    t0 = time.time()
    battery = ep.random_instances(120, rng=SEED)
    reports, applicable, violated = ep.oracle_battery(battery)
    elapsed_ok = (time.time() - t0) <= 120
    ok = violated == 0 and len(reports) >= 100 and applicable > 0 and elapsed_ok
    _report(
        4,
        ok,
        f"{len(reports)} instances, {applicable} applicable, {violated} violated (zero tolerance)",
        t0,
    )


def test_criterion_5_paley_zygmund_sandwich():
    # gaussian marginals, p=2: analytic bound <= quadrature tail on the grid;
    # reference values 0.357 (bound at u=0.2) and 0.8415 (tail at u=0.2)
    t0 = time.time()
    spec = dist.DistributionSpec("gaussian-iid", 4)
    ratios = sb.moment_ratios(spec)
    checks = []
    for u in (0.1, 0.2, 0.4):
        lower = sb.paley_zygmund_lower(ratios, u)
        tail = dist.theoretical_tail(spec, u)
        checks.append(lower <= tail)
    pz02 = sb.paley_zygmund_lower(ratios, 0.2)
    tail02 = dist.theoretical_tail(spec, 0.2)
    value_ok = abs(pz02 - 0.357464) <= 1e-5 and abs(tail02 - 0.841481) <= 1e-5
    ok = all(checks) and value_ok
    _report(5, ok, f"bound(0.2)={pz02:.6f} <= tail(0.2)={tail02:.6f}; all grid points ordered", t0)


def test_criterion_6_second_moment_identity():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        v = rng.standard_normal(int(rng.integers(1, 200))) * rng.uniform(0.001, 100)
        lhs, _, gap = ep.second_moment_identity(v)
        worst = max(worst, gap / max(lhs, 1e-300))
    _report(6, worst <= 1e-12, f"worst relative gap {worst:.3g} over 1000 inputs", t0)


def test_criterion_7_rademacher_consistency():
    # the sqrt(n/N) chain bounds the expectation over signs AND sample, so
    # exact enumerations are averaged over independent samples per family;
    # the MC estimator must match exact enumeration within 3 stderr on 20
    # fresh instances
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    configs = [
        (dist.DistributionSpec("rademacher-vec", 8), 10),
        (dist.DistributionSpec("gaussian-iid", 6), 14),
        (dist.DistributionSpec("uniform-cube", 10), 12),
        (dist.DistributionSpec("heavy-iid", 5, eta=3.0), 10),
        (dist.DistributionSpec("atomic-mixture", 6, mixture_p=0.3), 14),
    ]
    bound_ok = True
    details = []
    for spec, N in configs:
        vals = [
            rad.rademacher_linear(dist.sample_matrix(spec, N, rng), method="exact").value
            for _ in range(200)
        ]
        mean = float(np.mean(vals))
        bound = rad.rademacher_upper(spec.n, N)
        details.append(f"{spec.family}: {mean:.4f}<={bound:.4f}")
        if mean > bound:
            bound_ok = False

    mc_ok = True
    for _ in range(20):
        rows = dist.sample_matrix(dist.DistributionSpec("gaussian-iid", 4), 12, rng)
        exact = rad.rademacher_linear(rows, method="exact")
        mc = rad.rademacher_linear(rows, draws=2000, rng=rng, method="mc")
        if abs(mc.value - exact.value) > 3 * mc.stderr:
            mc_ok = False
    ok = bound_ok and mc_ok
    _report(7, ok, "; ".join(details) + f"; mc-vs-exact 3se: {'ok' if mc_ok else 'FAIL'}", t0)


def test_criterion_8_phi_properties_grid():
    # indicator sandwich and 1/u-Lipschitz bound, exactly, on a 100x100 grid
    t0 = time.time()
    us = np.linspace(0.05, 5.0, 100)
    ts = np.linspace(0.0, 12.0, 100)
    sandwich_ok = True
    lipschitz_ok = True
    for u in us:
        vals = ep.truncation_phi(u, ts)
        if not (np.all(vals <= (ts >= u)) and np.all(vals >= (ts >= 2 * u))):
            sandwich_ok = False
        diffs = np.abs(vals[:, None] - vals[None, :])
        bounds_ = np.abs(ts[:, None] - ts[None, :]) / u
        if not np.all(diffs <= bounds_ + 1e-12):
            lipschitz_ok = False
    ok = sandwich_ok and lipschitz_ok
    _report(8, ok, f"sandwich={'ok' if sandwich_ok else 'FAIL'}, lipschitz={'ok' if lipschitz_ok else 'FAIL'}", t0)


def test_criterion_9_vc_bruteforce():
    t0 = time.time()
    pts2 = np.random.default_rng(SEED).standard_normal((10, 2))
    halfspace_dim = ep.vc_bruteforce(pts2, "halfspaces")
    pts1 = np.array([[0.5], [1.3], [-2.1], [0.9], [-0.3], [1.7], [3.2]])
    abs_dim = ep.vc_bruteforce(pts1, "abs-threshold")
    elapsed = time.time() - t0
    ok = halfspace_dim == 3 and abs_dim == 1 and elapsed <= 10
    _report(9, ok, f"halfspaces R^2: {halfspace_dim} (want 3); abs-threshold R^1: {abs_dim} (want 1)", t0)


def test_criterion_10_reproducibility(tmp_path):
    # identical config and seed at 1 and 8 threads: byte-identical CSVs
    t0 = time.time()
    spec = dist.DistributionSpec("heavy-iid", 20, eta=2.0)
    cfg = ex.ExperimentConfig(spec=spec, beta_grid=(0.5, 0.25), trials=8, seed=SEED)
    r1 = ex.run_sweep(cfg, threads=1)
    r8 = ex.run_sweep(cfg, threads=8)
    files = {}
    for tag, res in (("t1", r1), ("t8", r8)):
        rows = tmp_path / f"{tag}.rows.csv"
        summary = tmp_path / f"{tag}.summary.csv"
        res.rows_csv(rows)
        res.summary_csv(summary)
        files[tag] = (rows.read_bytes(), summary.read_bytes())
    ok = files["t1"] == files["t8"]
    _report(10, ok, "rows+summary CSVs byte-identical across 1 and 8 threads", t0)


def test_oracle_spot_values_from_battery():
    # supplementary exactness spot-check behind criterion 4: a hand-computed
    # instance must reproduce its enumerated probability exactly
    inst = ep.FiniteInstance(
        probs=(Fraction(1, 2), Fraction(1, 2)), functions=((0.0, 1.0),), N=6
    )
    rep = ep.tiny_smallball_oracle(inst, tau=0.1)
    assert rep.exact_prob == Fraction(63, 64)
    assert rep.q2tau == Fraction(1, 2)

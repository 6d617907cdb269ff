"""The benchmark's span tracer wraps lminlab functions by name and binds their
parameters by name; tiny smallball calls and a tiny sweep run through it, so
a renamed target or parameter fails here."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from lminlab import (
    bounds,
    cli,
    distributions,
    empirical_process,
    experiments,
    rademacher,
    smallball,
    spectrum,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_smallball_and_sweep(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up there
    spec.loader.exec_module(tracing)
    lm = SimpleNamespace(
        bounds=bounds,
        cli=cli,
        distributions=distributions,
        empirical_process=empirical_process,
        experiments=experiments,
        rademacher=rademacher,
        smallball=smallball,
        spectrum=spectrum,
    )
    # a family whose trials run one by one through experiments._trial and
    # spectrum.lambda_extremes; gaussian-iid trials are solved in batches
    cfg = experiments.ExperimentConfig(
        spec=distributions.DistributionSpec("uniform-cube", 4), beta_grid=(0.5,), trials=2, seed=3
    )
    x = distributions.sample_matrix(distributions.DistributionSpec("gaussian-iid", 3), 200, np.random.default_rng(1))
    untraced = smallball.small_ball_curve(x, (0.1, 0.4), budget=24, rng=2)
    original = smallball.small_ball_curve

    tracer = tracing.Tracer()
    with tracing.installed(tracer, lm):
        curve = smallball.small_ball_curve(x, (0.1, 0.4), budget=24, rng=2)
        smallball.q_inf_search(x, 0.2, budget=24, rng=2)
        result = experiments.run_sweep(cfg, threads=1)
    assert smallball.small_ball_curve is original

    np.testing.assert_array_equal(curve.upper, untraced.upper)
    np.testing.assert_array_equal(curve.dir_indices, untraced.dir_indices)
    assert len(result.rows) == 2 and not result.failures
    names = {s.name for s in tracer.spans}
    assert {
        "smallball.small_ball_curve",
        "smallball.moment_ratios",
        "smallball.q_inf_search",
        "experiments.run_sweep",
        "experiments.trial",
        "spectrum.lambda_extremes",
        "bounds.floor",
    } <= names
    metrics = tracing.layer_metrics(tracer.spans, reps=1, threads=1)
    assert metrics["smallball.projections_computed"] > 0

"""Property test: ``parse_config`` reads the config file text of an
``ExperimentConfig`` back as an equal one for every family, with and without
optional keys."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lminlab import bounds as bd  # noqa: E402
from lminlab import distributions as dist  # noqa: E402
from lminlab import experiments as ex  # noqa: E402

FINITE_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
CONSTANT_NAMES = list(vars(bd.ConstantSet()))
PATHS = st.text(alphabet="abcxyz0123456789._/-%", min_size=1, max_size=20)


def optional(strategy):
    return st.none() | strategy


@st.composite
def specs(draw):
    family = draw(st.sampled_from(dist.FAMILIES))
    kw = {"n": draw(st.integers(1, 10**6)), "seed": draw(optional(st.integers(0, 2**64 - 1)))}
    if family in ("heavy-iid", "heavy-radial"):
        kw["eta"] = draw(FINITE_POSITIVE)
    if family == "atomic-mixture":
        kw["mixture_p"] = draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    return dist.DistributionSpec(family, **kw)


@st.composite
def configs(draw):
    spec = draw(specs())
    # a beta for which N = ceil(n/beta) is beyond float range is no valid config
    beta = st.floats(min_value=0.0, max_value=1.0, exclude_min=True).filter(lambda b: math.isfinite(spec.n / b))
    betas = draw(st.lists(beta, min_size=1, max_size=6, unique=True))
    constants = draw(st.dictionaries(st.sampled_from(CONSTANT_NAMES), FINITE_POSITIVE))
    outputs = draw(st.fixed_dictionaries({}, optional={k: PATHS for k in ("rows", "summary", "result")}))
    return ex.ExperimentConfig(
        spec=spec,
        beta_grid=tuple(betas),
        trials=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**64 - 1)),
        constants=bd.ConstantSet(**constants),
        outputs=ex.OutputPaths(**outputs),
    )


def config_text(cfg) -> str:
    """``cfg`` as config file text: floats by ``repr``, which reads back
    exactly, and unset keys left out."""
    sections = {
        "distribution": vars(cfg.spec),
        "sweep": {"beta_grid": cfg.beta_grid, "trials": cfg.trials, "seed": cfg.seed},
        "constants": vars(cfg.constants),
        "outputs": vars(cfg.outputs),
    }
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        for key, value in values.items():
            if isinstance(value, tuple):
                lines.append(f"{key} = {' '.join(map(repr, value))}")
            elif value is not None:
                lines.append(f"{key} = {value if isinstance(value, str) else repr(value)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cfg=configs())
def test_write_then_parse_config_is_identity(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("cfg") / "cfg.ini"
    path.write_text(config_text(cfg))
    assert ex.parse_config(path) == cfg

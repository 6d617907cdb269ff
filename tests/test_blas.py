"""Tests for the OpenBLAS thread pin and the row blocks walked under it."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import lminlab
from lminlab import blas
from lminlab import bounds as bd
from lminlab import distributions as dist
from lminlab import experiments as ex
from lminlab import rademacher as rad
from lminlab import smallball as sb


def small_config(spec=dist.DistributionSpec("gaussian-iid", 12)):
    return ex.ExperimentConfig(spec=spec, beta_grid=(0.5, 0.25), trials=6, seed=5)


@pytest.fixture
def blas_two_threads():
    """Every loaded OpenBLAS at two threads for the test, restored after."""
    controls = blas._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this numpy/scipy build")
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield [get for get, _ in controls]
    for (_, set_), count in zip(controls, saved):
        set_(count)


def test_run_sweep_pins_blas_and_restores(monkeypatch, blas_two_threads):
    getters = blas_two_threads
    seen = []
    real_trial = ex._trial
    real_factor = ex.sp.chi_factor

    def observed(cfg, beta_index, trial_index):
        seen.extend(get() for get in getters)
        if trial_index == 1:
            raise RuntimeError("synthetic numerical failure")
        return real_trial(cfg, beta_index, trial_index)

    def observed_factor(n, N, record):
        seen.extend(get() for get in getters)
        if record.trial_index == 1:
            raise RuntimeError("synthetic numerical failure")
        return real_factor(n, N, record)

    monkeypatch.setattr(ex, "_trial", observed)
    monkeypatch.setattr(ex.sp, "chi_factor", observed_factor)  # a gaussian-iid trial's own step
    for spec in (dist.DistributionSpec("gaussian-iid", 12), dist.DistributionSpec("heavy-radial", 8, eta=5.0)):
        seen.clear()
        r = ex.run_sweep(small_config(spec), threads=2)
        assert len(r.failures) == 2
        assert seen and set(seen) == {1}
        assert [get() for get in getters] == [2] * len(getters)

    def broken(*args, **kwargs):
        raise RuntimeError("synthetic aggregation failure")

    monkeypatch.setattr(bd, "floor_regime", broken)
    with pytest.raises(RuntimeError, match="aggregation"):
        ex.run_sweep(small_config(), threads=1)
    assert [get() for get in getters] == [2] * len(getters)


def test_overlapping_sweeps_share_one_pin(blas_two_threads):
    """A sweep that ends while another is running leaves BLAS pinned; the
    last one to end restores the counts."""
    getters = blas_two_threads
    pin = blas._single_threaded_blas
    b_inside, a_left = threading.Event(), threading.Event()
    seen = []

    def sweep_b():
        with pin:
            b_inside.set()
            a_left.wait(30)
            seen.append([get() for get in getters])

    worker = threading.Thread(target=sweep_b)
    with pin:
        worker.start()
        assert b_inside.wait(30)
    a_left.set()
    worker.join(30)
    assert not worker.is_alive()
    assert seen == [[1] * len(getters)]
    assert [get() for get in getters] == [2] * len(getters)


def test_pin_holders_on_many_threads(blas_two_threads):
    """Holders entering and leaving on more threads than cores, with thread
    switches forced often (as the small-ball curve's two threads do, block
    by block), always see one BLAS thread, and the last one out restores
    the counts."""
    getters = blas_two_threads
    pin = blas._single_threaded_blas
    seen = set()

    def holder():
        for _ in range(300):
            with pin:
                seen.update(get() for get in getters)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=holder) for _ in range(2 * (os.cpu_count() or 1) + 2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert seen == {1}
    assert [get() for get in getters] == [2] * len(getters)


def test_pin_finds_numpys_openblas():
    """An OpenBLAS build without a thread control fails here rather than
    skipping the pin tests, and loading scipy's own OpenBLAS does not take
    the pin off numpy's."""
    import scipy.linalg  # noqa: F401

    controls = blas._openblas_controls()
    blas_name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    assert controls or "openblas" not in blas_name.lower(), blas_name
    for get, set_ in controls:
        saved = get()
        set_(2)
        try:
            with blas._single_threaded_blas:
                assert get() == 1
            assert get() == 2
        finally:
            set_(saved)


@pytest.mark.parametrize(
    "rows,row_elements,block_elements,multiple,lengths",
    [
        (10, 3, 2**20, 2, [10]),  # verify's Rademacher calls: one block
        (7, 4, 8, 1, [2, 2, 2, 1]),
        (7, 3, 8, 2, [2, 2, 2, 1]),
        (9, 1, 7, 2, [6, 3]),
        (5, 100, 8, 2, [2, 2, 1]),  # a row longer than the budget
        (5, 100, 8, 1, [1, 1, 1, 1, 1]),
        (0, 3, 8, 1, []),
    ],
)
def test_row_blocks_cover_rows_in_order(rows, row_elements, block_elements, multiple, lengths):
    blocks = blas.row_blocks(rows, row_elements, block_elements, multiple)
    assert [b.stop - b.start for b in blocks] == lengths
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(rows))


def _estimators():
    # enough rows that every direction set of the curve spans several
    # blocks, the 6 refinement candidates (10 922 rows a block) included
    x = np.random.default_rng(3).standard_normal((12000, 3))
    return {
        "smallball": lambda: sb.small_ball_curve(x, (0.1, 0.4), budget=64, rng=1),
        "rademacher": lambda: rad.rademacher_linear(x, draws=700, rng=1, method="mc"),
    }


@pytest.mark.parametrize("estimator", ["smallball", "rademacher"])
def test_estimators_pin_blas_and_restore(monkeypatch, blas_two_threads, estimator):
    """Every block runs with BLAS at one thread, and the counts come back
    after the call, also when a block raises."""
    getters = blas_two_threads
    run = _estimators()[estimator]
    real_blocks = blas.row_blocks
    seen = []

    def observed(*args, **kwargs):
        blocks = real_blocks(*args, **kwargs)
        assert len(blocks) > 1
        for block in blocks:
            seen.extend(get() for get in getters)
            yield block

    monkeypatch.setattr(blas, "row_blocks", observed)
    run()
    assert seen and set(seen) == {1}
    assert [get() for get in getters] == [2] * len(getters)

    def broken(*args, **kwargs):
        yield real_blocks(*args, **kwargs)[0]
        raise RuntimeError("synthetic block failure")

    monkeypatch.setattr(blas, "row_blocks", broken)
    with pytest.raises(RuntimeError, match="block failure"):
        run()
    assert [get() for get in getters] == [2] * len(getters)


def _sample_then_spectrum(tmp_path, n: str, N: str) -> list[list[str]]:
    matrix = tmp_path / f"m{n}.bin"
    return [
        ["sample", "--family", "gaussian-iid", "--n", n, "--N", N, "--seed", "2", "--out", str(matrix)],
        ["spectrum", "--matrix", str(matrix), "--power", "--format", "json"],
    ]


def test_estimator_output_independent_of_blas_threads(tmp_path):
    """``lminlab smallball``, ``lminlab rademacher --method mc`` and
    ``lminlab spectrum --power`` on a sampled matrix write the same bytes for
    every OPENBLAS_NUM_THREADS; each run is a fresh process because OpenBLAS
    reads the variable when it loads.  The Rademacher case differed by 2 ulp
    of ``value`` between one and two threads while its product ran threaded.
    Unpinned, the eigensolve changed ``lambda_min``, ``lambda_max`` and
    ``residual`` of the 100-column spectrum, and the inverse iteration
    changed ``lambda_min_sq_power`` of the 200-column one."""
    commands = {
        "smallball": [
            ["smallball", "--family", "heavy-radial", "--n", "8", "--eta", "3", "--samples", "30000", "--seed", "2"]
        ],
        "rademacher": [
            ["rademacher", "--family", "gaussian-iid", "--n", "5", "--N", "2049", "--draws", "1537"]
            + ["--method", "mc", "--format", "json", "--seed", "2"]
        ],
        "spectrum-100": _sample_then_spectrum(tmp_path, "100", "1600"),
        "spectrum-200": _sample_then_spectrum(tmp_path, "200", "400"),
    }
    src = str(Path(lminlab.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for name, steps in commands.items():
            out = tmp_path / f"{name}-{threads}"
            for argv in steps[:-1] + [steps[-1] + ["--out", str(out)]]:
                subprocess.run(
                    [sys.executable, "-m", "lminlab.cli", *argv],
                    env=env,
                    check=True,
                    capture_output=True,
                    timeout=300,
                )
            outputs[name, threads] = out.read_bytes()
    for name in commands:
        assert outputs[name, "1"] == outputs[name, "2"], name

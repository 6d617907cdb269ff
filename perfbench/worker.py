"""One benchmark workload in one process; started by ``run.py``.

Set-up (import lminlab from ``src/``, write the inputs, one warm-up call) is
timed from the top of ``main``.  ``--setup-only`` stops there.  Otherwise the
timed call repeats until ``--seconds`` have passed (at least ``MIN_REPS``
times) and every repetition's outputs are checked.  With ``--trace 1``,
untraced and traced repetitions alternate: the traced ones give the
per-layer metrics, both together give the tracing overhead, and all of them
must give the same output digest.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_REPS = 3
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_DYNAMIC",
    "OMP_PROC_BIND",
    "OPENBLAS_CORETYPE",
)


def import_lminlab() -> SimpleNamespace:
    """Import lminlab from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lminlab
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

    if Path(lminlab.__file__).resolve().parent != src / "lminlab":
        raise ImportError(f"lminlab imported from {lminlab.__file__}, not from {src}")
    return SimpleNamespace(
        bounds=bounds,
        cli=cli,
        distributions=distributions,
        empirical_process=empirical_process,
        experiments=experiments,
        rademacher=rademacher,
        smallball=smallball,
        spectrum=spectrum,
    )


def machine_facts() -> dict:
    import numpy
    import scipy

    def blas(show_config) -> dict:
        deps = show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
    }


def steal_s() -> float | None:
    """Machine-wide CPU time stolen by the hypervisor so far (None where
    /proc/stat has no steal field).  Stolen time stretches wall time but not
    CPU time, so it is recorded beside every result."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop, unrelated to lminlab: a
    yardstick of the machine's speed at that moment.  On a shared host,
    slow phases stretch every timing of a run by one factor; this shows
    them."""
    times = []
    for _ in range(3):
        start, total = time.perf_counter(), 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def quiet(fn):
    """Call ``fn`` with the CLI's progress lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn()


class Run:
    """Repetitions of one workload's timed call, with their checks."""

    def __init__(self, workload):
        self.workload = workload
        self.walls = {False: [], True: []}
        self.cpus = []
        self.digests = []
        self.attempted = 0
        self.failed = []

    def rep(self, traced: bool, tracer=None) -> None:
        c0, w0 = time.process_time(), time.perf_counter()
        if tracer is None:
            code = quiet(self.workload.call)
        else:
            code = quiet(lambda: tracer.call("bench.rep", self.workload.call))
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        digest, attempted, failed = self.workload.check(code)
        self.attempted += attempted + 1  # + the digest check
        if self.digests and digest != self.digests[0]:
            failed = failed + [f"digest {digest[:16]} differs from first repetition {self.digests[0][:16]}"]
        self.failed += failed
        self.digests.append(digest)
        self.walls[traced].append(wall)
        if not traced:
            self.cpus.append(cpu)
        label = "traced" if traced else "untraced"
        print(
            f"rep {len(self.digests)} {label}: wall {wall:.4f} s, cpu {cpu:.4f} s, "
            f"digest {digest[:16]}, failed {len(failed)}"
        )
        for f in failed:
            print(f"  FAILED {f}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    lm = import_lminlab()
    import tracing
    import workloads

    workload = workloads.make(args.workload)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload.prepare(lm, workdir, args.seed)
        quiet(workload.warm_up)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        run = Run(workload)
        tracer = tracing.Tracer()
        calibration_start = calibration_s()
        steal_start = steal_s()
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(run.digests) % 2 == 1
            if traced:
                with tracing.installed(tracer, lm):
                    run.rep(True, tracer)
            else:
                run.rep(False)
            kinds = (False, True) if args.trace else (False,)
            if time.perf_counter() >= deadline and min(len(run.walls[k]) for k in kinds) >= MIN_REPS:
                break

    steal_end = steal_s()
    facts = machine_facts()
    facts["calibration_s"] = [calibration_start, calibration_s()]
    if steal_start is not None and steal_end is not None:
        facts["steal_s_during_run"] = steal_end - steal_start
    wall = statistics.median(run.walls[False])
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "reps": len(run.walls[False]),
        "traced_reps": len(run.walls[True]),
        "wall_s": wall,
        "cpu_s": statistics.median(run.cpus),
        "rep_wall_s": run.walls[False],
        "rep_cpu_s": run.cpus,
        "traced_rep_wall_s": run.walls[True],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": run.attempted,
        "failed": run.failed,
        "digests": run.digests,
        "facts": facts,
    }
    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, len(run.walls[True]), workload.threads)
        traced_wall = statistics.median(run.walls[True])
        layers["trace.overhead_frac"] = (traced_wall - wall) / wall
        out["layers"] = layers
        out["largest_self_times"] = tracing.largest_self_times(tracer.spans)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.dump(spans_path, {k: out[k] for k in ("workload", "seed", "facts")})
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

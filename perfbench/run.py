"""lminlab benchmark: one workload per invocation, in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): sweep-edge-t2, sweep-radial-t1, verify-oracle,
estimate-floor-inputs.  ``--workload all`` runs the four in turn, each
ending with its own JSON line.

With ``--trace 0`` the result carries the end-to-end metrics:

- setup_s: import lminlab, write the inputs and make one warm-up call; the
  median over ``SETUP_PROBES`` set-up-only processes and the measuring one;
- wall_s, cpu_s: median wall and process CPU time (user + sys, all threads)
  of one repetition of the timed call;
- peak_rss_mb: the measuring process's high-water mark;
- ok_frac: 1 - failed / attempted, where operations are sweep trials, verify
  checks and the benchmark's own correctness and digest checks.

With ``--trace 1`` a separate run records spans around each layer's calls
and the result carries the per-layer metrics of tracing.LAYER_METRICS.

Nothing here sets BLAS or OpenMP thread variables; the values found are
recorded with the other machine facts in ``perfbench/out/``.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402
from workloads import NAMES  # noqa: E402


def worker(args, extra, timeout) -> dict:
    """Run worker.py; relay its report lines and return its JSON result."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {args.workload} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(f"  {line}")
    return json.loads(lines[-1])


def run_one(args) -> dict:
    started = time.perf_counter()

    def left() -> float:
        return TIME_LIMIT_S - (time.perf_counter() - started)

    def probes(count: int) -> list:
        return [worker(args, ["--setup-only"], left())["setup_s"] for _ in range(count)]

    # Probes before and after the measuring process sample the machine at
    # both ends of the run, not only at its start.
    n_probes = 0 if args.trace else SETUP_PROBES
    setups = probes(n_probes // 2)
    res = worker(args, [], left())
    setups += [res["setup_s"]] + probes(n_probes - n_probes // 2)

    failed = len(res["failed"])
    attempted = res["attempted"]
    print(f"{args.workload} seed {args.seed}: facts {json.dumps(res['facts'])}")
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit} for name, unit, _ in LAYER_METRICS}
        top = ", ".join(f"{name} {value:.4f} s" for name, value in res["largest_self_times"])
        print(f"{args.workload}: largest self times over {res['traced_reps']} traced reps: {top}")
        print(f"{args.workload}: spans written to {res['spans_file']}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "cpu_s": {"value": res["cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
        }
        print(f"{args.workload}: wall_s is the median of {res['reps']} repetitions")
    for name, m in metrics.items():
        print(f"{args.workload}: {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for f in res["failed"]:
        print(f"{args.workload}: FAILED {f}")

    record = dict(res, setup_samples=setups, metrics=metrics)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "lminlab" / "__init__.py").is_file():
        print(f"error: no lminlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_one(argparse.Namespace(**dict(vars(args), workload=name)))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

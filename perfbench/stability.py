"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/stability.py --workloads verify-oracle --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per (workload, seed) with the ``run_seconds``
of BENCHMARK.json, then prints for each metric the median of the runs and
its spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
above a third of the metric's bound is marked; setup_s's spread is shown but
not held to its bound.  Each run's line also shows the machine yardstick
(``calibration_s`` at the start and end of the measuring window) and the
hypervisor steal time, which explain runs that are slow for the machine's
sake.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = [sys.executable, *bench["command"][1:]]
            cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"])]
            cmd += ["--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            facts = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())["facts"]
            line = ", ".join(f"{n} {v[-1]:.5g}" for n, v in values.items())
            calibration = "/".join(f"{c:.4f}" for c in facts["calibration_s"])
            steal = facts.get("steal_s_during_run")
            steal = "n/a" if steal is None else f"{steal:.2f}"
            print(f"{workload} seed {seed}: {line}; calibration_s {calibration}, steal_s {steal}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                mark = "  <-- above a third of the bound"
                ok = False
            print(f"{workload} {name}: median {med:.6g}, spread {spread:.4f} (bound {bounds[name]}){mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

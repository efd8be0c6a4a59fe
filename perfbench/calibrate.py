"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/calibrate.py [--write-baseline] [WORKLOAD ...]

Runs run.py once per seed, seeds 1 to 10, on each workload, one run at a
time, and prints for every end-to-end metric the median, the quartiles and
the quartile spread as a share of the median, next to the metric's bound
from BENCHMARK.json.
A spread must stay below the bound (setup_s excepted) and should stay below a
third of it.  --write-baseline stores the figures of the workloads measured
in baseline.json, with the per-layer figures of one traced run, keeping
those of the other workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, ROOT

SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} reported wrong results:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for w in args.workloads:
        runs = [run_once(w, s, spec["run_seconds"]) for s in SEEDS]
        table[w] = {name: summarize([r[name] for r in runs]) for name in bounds}
        for name, row in table[w].items():
            flag = "" if row["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{w:18} {name:14} median {row['median']:<12.6g} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"spread {row['spread']:.4f} bound {bounds[name]}{flag}", flush=True)
    if args.write_baseline:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
        for w, rows in table.items():
            baseline["workloads"][w] = {
                "python": platform.python_version(), "nproc": os.cpu_count(),
                "seeds": list(SEEDS),
                "run_seconds": spec["run_seconds"], "metrics": rows,
                "layers": run_once(w, SEEDS[0], spec["run_seconds"], trace=1)}
        path.write_text(json.dumps(baseline, indent=2) + "\n")


if __name__ == "__main__":
    main()

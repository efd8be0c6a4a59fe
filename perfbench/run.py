"""Run one hallforge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every round is a fresh interpreter
(worker.py) started one at a time: set-up, then every check of the workload
once, on inputs drawn from the seed.  With ``--trace 0`` the run makes the
workload's fixed number of rounds (ROUNDS, scaled by ``--seconds`` over
BENCHMARK.json's run_seconds) and reports the end-to-end metrics over them,
in times scaled to a reference machine speed (see end_to_end).  With ``--trace 1`` it runs one round untraced
and the same round traced, and reports the per-layer metrics of the traced
one.

Every check's identity must hold, and every round's results must hash to the
digest stored in expected.json; otherwise the run is reported as wrong and its
timings are withheld.  The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import REF_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "hallforge"

#: Rounds in an untraced run of BENCHMARK.json's run_seconds.  The count does
#: not depend on how fast the program runs, so every commit's figures come
#: from the same number of attempts.  Chosen so that a run takes about
#: run_seconds on the 2-vCPU machine where the baseline was measured.
ROUNDS = {"derived-assoc": 8, "crosscheck": 5, "kronecker-classes": 16, "warm-cache": 3}
#: A single interpreter that runs longer than this is killed.
CHILD_TIMEOUT_S = 170
#: The tail latency is read at the highest percentile with this many checks beyond it.
TAIL_BEYOND = 10


class BenchError(Exception):
    """A worker failed to start, crashed or timed out."""


def child_env(cache_dir: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("HALLFORGE_CACHE", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    if cache_dir is not None:
        env["HALLFORGE_CACHE"] = cache_dir
    return env


def spawn(args: list[str], env: dict) -> tuple[float, dict]:
    """Run worker.py to completion; returns (monotonic start, its JSON line)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, checks beyond it) at the highest percentile that
    leaves TAIL_BEYOND checks beyond it; the maximum when there are fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def static_counts() -> list[str]:
    lines = [f"python {platform.python_version()}", f"nproc {os.cpu_count()}"]
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = len(path.read_text(encoding="utf-8").splitlines())
        total += n
        lines.append(f"loc src/hallforge/{path.name} {n}")
    lines.append(f"loc src/hallforge total {total}")
    return lines


def end_to_end(rounds: list[tuple[float, dict]]) -> tuple[dict, str]:
    """The run's figures; returns (values, note).

    Every round runs the same checks in the same order, so round r's check i
    does the same work as round 0's.  The worker has already scaled every
    time to the reference speed (SpeedProbe), which takes out the machine's
    slow spells; what is left errs both ways, so each check counts with its
    median latency over the rounds.  A round gives one set-up against
    hundreds of checks; with so few samples the minimum is steadier, so
    setup_s is the fastest set-up over the rounds.  wall_s is setup_s plus
    the checks' median latencies, checks_per_s the checks over the sum of
    those, and the percentiles are taken over them.  peak_rss_mb is the
    median over rounds.
    """
    setup = min((r["setup_end"] - t_spawn - r["setup_probe_s"]) * r["setup_scale"]
                for t_spawn, r in rounds)
    per_check = [statistics.median(lat) for lat in zip(*(r["latencies"] for _, r in rounds))]
    value, pct, beyond = tail_latency(per_check)
    passed = sum(r["passed"] for _, r in rounds)
    attempted = sum(len(r["latencies"]) for _, r in rounds)
    values = {
        "wall_s": setup + sum(per_check),
        "setup_s": setup,
        "checks_per_s": len(per_check) / sum(per_check),
        "check_p50_ms": statistics.median(per_check) * 1000,
        "check_tail_ms": value * 1000,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for _, r in rounds),
        "passed_frac": passed / attempted,
    }
    reference = statistics.median(r["reference_ms"] for _, r in rounds)
    note = (f"{len(rounds)} rounds; check_tail_ms is p{pct:.2f} of "
            f"{len(per_check)} checks, {beyond} beyond it; reference loop median "
            f"{reference:.4f} ms, times scaled to {REF_NOMINAL_S * 1000:.4f} ms")
    return values, note


def verdict(rounds: list[dict], expected_digest: str, limited: bool) -> tuple[bool, list[str]]:
    """Correct when no check failed and every complete round matches the digest."""
    problems = []
    for i, r in enumerate(rounds):
        problems.extend(f"round {i}: {f}" for f in r["failures"])
        if r["complete"] and not limited and r["digest"] != expected_digest:
            problems.append(f"round {i}: result digest {r['digest']} != expected {expected_digest}")
    return not problems, problems


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(expected))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only this many checks per round (harness tests; skips the digest)")
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no hallforge sources under {PACKAGE}", file=sys.stderr)
        return 2

    exp = expected[args.workload]
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    for label in exp["bound_hits"]:
        common += ["--expected-bound", label]
    if args.limit is not None:
        common += ["--limit", str(args.limit)]
    info = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    info += static_counts()

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        if args.workload == "warm-cache":
            common += ["--cache-dir", cache_dir]
            env = child_env(cache_dir)
            t_fill, _ = spawn(common + ["--mode", "fill"], env)
            info.append(f"cache fill (cold CLI runs) {time.monotonic() - t_fill:.3f} s")
        else:
            env = child_env(None)

        if args.trace:
            plain = spawn(common + ["--round", "0"], env)
            spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            traced = spawn(common + ["--round", "0", "--trace", "--spans-out", str(spans)], env)
            rounds = [plain, traced]
            info.append(f"spans written to {spans.relative_to(ROOT)}")
        else:
            n_rounds = max(1, round(ROUNDS[args.workload] * args.seconds / spec["run_seconds"]))
            rounds = [spawn(common + ["--round", str(i)], env) for i in range(n_rounds)]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    results = [r for _, r in rounds]
    ok, problems = verdict(results, exp["digest"], args.limit is not None)
    attempted = sum(len(r["latencies"]) for r in results)
    failed = sum(r["failed"] for r in results)
    bound = sum(r["bound_expected"] for r in results)
    info.append(f"rounds {len(results)}, checks {attempted}, failed {failed}, "
                f"expected bound hits {bound}, digest "
                + ("skipped (--limit)" if args.limit is not None else
                   "ok" if ok else "or checks WRONG"))
    info += problems[:20]

    metrics: dict = {}
    if ok and args.trace:
        (t_plain, plain_r), (t_traced, traced_r) = rounds
        layers = dict(traced_r["layers"])
        layers["trace.wall_s"] = traced_r["last_end"] - t_traced
        layers["trace.untraced_wall_s"] = plain_r["last_end"] - t_plain
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers.get(m["name"], 0), "unit": m["unit"]}
    elif ok:
        values, note = end_to_end(rounds)
        info.append(note)
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for line in info:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

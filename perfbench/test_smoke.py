"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload with a few checks per round, untraced and traced, and
checks that every metric named in BENCHMARK.json is printed with its unit.
One full round checks that the result digest matches expected.json, and a
tampered digest must be reported as wrong.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed(workload, trace):
    result, out = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                        "--trace", trace, "--limit", "3")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} = " in out
    assert "loc src/hallforge total" in out and "nproc" in out


def test_full_round_matches_digest():
    result, out = bench("--workload", "derived-assoc", "--seed", "7", "--seconds", "1",
                        "--trace", "0")
    assert result["correct"] is True, out
    assert "digest ok" in out
    assert result["metrics"]["passed_frac"]["value"] == 1.0


def test_wrong_digest_is_reported_wrong():
    r = {"failures": [], "complete": True, "digest": "0" * 64}
    ok, problems = run.verdict([r], "1" * 64, limited=False)
    assert not ok and "digest" in problems[0]
    ok, _ = run.verdict([dict(r, failures=["x: mismatch"])], "0" * 64, limited=False)
    assert not ok
    assert run.verdict([r], "0" * 64, limited=False) == (True, [])


def test_tail_latency_leaves_ten_checks_beyond():
    value, pct, beyond = run.tail_latency([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)


def test_checks_count_at_their_median_and_setup_at_its_best():
    probe = {"setup_probe_s": 0.1, "setup_scale": 2.0, "reference_ms": 0.14}
    rounds = [(0.0, {"setup_end": 0.5, "latencies": [1.0, 3.0], "passed": 2,
                     "peak_rss_kb": 1024, **probe}),
              (10.0, {"setup_end": 10.2, "latencies": [2.0, 1.0], "passed": 2,
                      "peak_rss_kb": 3072, **probe}),
              (20.0, {"setup_end": 20.4, "latencies": [4.0, 2.0], "passed": 2,
                      "peak_rss_kb": 2048, **probe})]
    values, _ = run.end_to_end(rounds)
    assert values["setup_s"] == pytest.approx(0.2)
    assert values["wall_s"] == pytest.approx(4.2)
    assert values["checks_per_s"] == 0.5
    assert values["check_p50_ms"] == 2000.0
    assert values["peak_rss_mb"] == 2.0
    assert values["passed_frac"] == 1.0


def test_refuses_to_run_without_sources():
    """A directory holding only BENCHMARK.json and perfbench/ has nothing to measure."""
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.ROOT / ".perfbench_tmp"))
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crosscheck",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

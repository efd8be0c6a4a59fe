"""Every benchmark workload reproduces the result digest in perfbench/expected.json.

One untraced round of each workload, run through perfbench/run.py as its
README runs it, so a change to any result a workload checks fails here and
not only in the benchmark.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_matches_its_digest(workload):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "digest ok" in proc.stdout, proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True, proc.stdout

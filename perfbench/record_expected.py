"""Record the result digests and expected bound hits into expected.json.

    python3 perfbench/record_expected.py [WORKLOAD ...]

Runs round 0 of each workload once to learn which checks hit a resource
bound, then once more with those marked as expected, and stores the digest of
the results.  Run it only when a change is meant to alter results; a digest
that changes otherwise is a wrong answer.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import HERE, ROOT, child_env, spawn
from workloads import WORKLOADS


def record(name: str) -> dict:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    try:
        common = ["--workload", name, "--seed", "1", "--round", "0"]
        env = child_env(None)
        if name == "warm-cache":
            common += ["--cache-dir", cache_dir]
            env = child_env(cache_dir)
            spawn(common + ["--mode", "fill"], env)
        _, first = spawn(common, env)
        bound = first["bound_labels"]
        marks = [arg for label in bound for arg in ("--expected-bound", label)]
        _, second = spawn(common + marks, env)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if second["failed"]:
        raise SystemExit(f"{name}: checks failed, not recording: {second['failures']}")
    return {"digest": second["digest"], "bound_hits": bound}


def main() -> None:
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    for name in sys.argv[1:] or list(WORKLOADS):
        expected[name] = record(name)
        print(name, expected[name])
    path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

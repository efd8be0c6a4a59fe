"""One benchmark round in a fresh interpreter.

Started by run.py, one process at a time.  Imports hallforge from the
checkout's ``src``, sets the workload up, runs every check once on the inputs
drawn from (seed, round) and prints one JSON line: monotonic timestamps, the
latency of each check scaled to the reference speed (see SpeedProbe), the
outcome counts, the digest of the results and the peak resident memory.
``--mode fill`` fills the warm-cache workload's cache.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


#: Time of SpeedProbe's reference loop on the baseline machine (2 vCPUs,
#: Python 3.11.7) in its fast state.  Reported times are at this speed.
REF_NOMINAL_S = 1.4e-4
#: How often SpeedProbe samples the machine's speed.
PROBE_INTERVAL_S = 0.05


class SpeedProbe:
    """Samples the machine's speed while a round runs.

    On a shared machine the speed of a core flips between states up to 1.6x
    apart, in spells from a fraction of a second to minutes, so a slow spell
    can cover every round of a run.  Every PROBE_INTERVAL_S a SIGALRM handler
    times a fixed pure-Python loop, keeping the best of three.  A span of
    work is scaled by REF_NOMINAL_S over the mean of the samples that cover
    it, the one taken before it included, and the handler's own time is
    taken out of the span.  Signal handlers run in the main thread between
    bytecodes, so no thread is started.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    @staticmethod
    def _reference() -> float:
        """Dict, list and tuple work, the interpreter's staple in hallforge.

        It tracked the checks' slow spells better than a loop of integer
        arithmetic did: the spread of the runs' figures came out about half
        as wide.
        """
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        row = list(range(64))
        for i in range(600):
            key = (i * 7919) & 4095
            table[key] = table.get(key ^ 1, 0) + row[i & 63]
            row[i & 63] = (key, i)[0]
        return time.perf_counter() - t0

    def _sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(min(self._reference() for _ in range(3)))
        self.spent += time.perf_counter() - t0

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """(handler time since mark, scale factor for the span since mark)."""
        n0, spent0 = mark
        return self.spent - spent0, REF_NOMINAL_S / statistics.fmean(self.samples[n0 - 1:])


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def digest(results: list[tuple[str, str]]) -> str:
    """sha256 over (label, result) lines in canonical item order."""
    h = hashlib.sha256()
    for label, value in results:
        h.update(f"{label}\t{value}\n".encode("utf-8"))
    return h.hexdigest()


def main(argv: list[str] | None = None) -> dict:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--mode", choices=("round", "fill"), default="round")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--limit", type=int, default=None)
    ap.add_argument("--expected-bound", action="append", default=[],
                    help="label of a check expected to hit a resource bound")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    probe = SpeedProbe() if args.mode == "round" else None
    import hallforge  # noqa: F401  (import time belongs to set-up)
    import workloads as wl

    cls = wl.WORKLOADS[args.workload]
    work = cls(args.cache_dir) if cls is wl.WarmCache else cls()
    if args.mode == "fill":
        work.fill()
        return {"mode": "fill", "end": time.monotonic()}

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        with tracer.root("bench.setup"):
            work.setup()
    else:
        work.setup()
    items = work.items()

    # Every round runs the items in one fixed interleaved order, whatever the
    # seed: which check pays a first-touch cost, and so the tail latency, must
    # not depend on the seed, and interleaving spreads each kind of check over
    # the whole round so that a slow spell of the machine hits all alike.
    variant = work.shifts(round_rng(args.workload, args.seed, args.round))
    order = list(range(len(items)))
    random.Random(f"{args.workload}:order").shuffle(order)
    if args.limit is not None:
        order = order[:args.limit]

    expected_bound = set(args.expected_bound)
    results: dict[int, tuple[str, str]] = {}
    latencies = []
    counts = {wl.PASS: 0, "bound_expected": 0, "failed": 0}
    failures = []
    bound_labels = []
    clock = time.perf_counter
    setup_probe_s, setup_scale = probe.since((1, 0.0))  # all since the probe started
    setup_end = time.monotonic()
    for check_id, idx in enumerate(order):
        item = items[idx]
        # Handler time is taken out only when it falls inside [t0, t1].
        t0 = clock()
        mark = probe.mark()
        try:
            if tracer is not None:
                with tracer.root("bench.check", check_id):
                    outcome, value = work.check(item, variant)
            else:
                outcome, value = work.check(item, variant)
        except Exception as e:  # a check that crashes is a counted failure
            outcome, value = wl.ERROR, f"{type(e).__name__}: {e}"
        spent, scale = probe.since(mark)
        latencies.append((clock() - t0 - spent) * scale)
        label = work.label(item)
        if outcome == wl.BOUND:
            bound_labels.append(label)
        if outcome == wl.PASS:
            counts[wl.PASS] += 1
        elif outcome == wl.BOUND and label in expected_bound:
            counts["bound_expected"] += 1
        else:
            counts["failed"] += 1
            failures.append(f"{label}: {outcome} {value}"[:300])
        results[idx] = (label, value)
    last_end = time.monotonic()
    probe.stop()

    # Checks expected to hit a bound stay out of the digest, so that a change
    # which extends the engine's reach does not read as a wrong answer.
    canonical = [results[i] for i in sorted(results) if results[i][0] not in expected_bound]
    out = {
        "mode": "round",
        "setup_end": setup_end,
        "last_end": last_end,
        "setup_probe_s": setup_probe_s,
        "setup_scale": setup_scale,
        "reference_ms": statistics.median(probe.samples) * 1000,
        "latencies": latencies,
        "passed": counts[wl.PASS],
        "bound_expected": counts["bound_expected"],
        "failed": counts["failed"],
        "failures": failures[:20],
        "bound_labels": sorted(bound_labels),
        "digest": digest(canonical),
        "complete": len(results) == len(items),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if args.spans_out:
            tracer.write_spans(Path(args.spans_out))
    return out


if __name__ == "__main__":
    print(json.dumps(main()))

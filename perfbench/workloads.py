"""The four benchmark workloads.

A workload builds its domain in ``setup`` and lists a fixed, canonical set of
checks in ``items``.  One round runs every item once.  For the periodic and
graded domains the round's seed draws a global degree shift: shifting every
input by the same degree is a symmetry of the derived categories, so each
round does the same work on different inputs.  Results are shifted back
before they enter the digest, which therefore does not depend on the seed.

Why fixed item sets rather than fresh random samples per seed: the cost of a
cold run is dominated by a few first-touch computations (automorphism counts
of 4-dimensional classes, 2^16-candidate cone enumerations) costing seconds
each.  A random sample hits them or misses them by chance, and sampled rounds
of 1,800 triples still spread by +-15%, far beyond any usable bound.
"""
from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

# Outcomes of one check.
PASS = "pass"
BOUND = "bound"        # EnumerationTooLarge / RewriteBudgetExceeded
MISMATCH = "mismatch"  # the identity under test failed
ERROR = "error"        # any other exception

# Checks that need a class with a 4-dimensional vertex space are left out.
# Each such class costs one enumeration of 2^16 candidates (endomorphisms for
# Aut, or cone differentials), 3.5-10 s apiece.  A few of them made up most
# of a round, left two or three rounds per 30 s run, and let run-to-run
# spreads reach 27-42% on a shared 2-vCPU machine.  The one exception is the
# crosscheck pairs that hit the cone-oracle bound: their product still needs
# Aut of the 4-dimensional class on A1, once per round.
MAX_VERTEX_DIM = 3

KRONECKER = {"vertices": ["1", "2"],
             "arrows": [{"src": "1", "dst": "2", "label": "a"},
                        {"src": "1", "dst": "2", "label": "b"}]}


def _format_vector(reg, vec, unshift: int) -> str:
    """A HallVector as canonical text, with every term shifted back by -unshift."""
    from hallforge.complexes import format_graded
    terms = sorted((format_graded(reg, g.shift(-unshift)), str(c)) for g, c in vec.terms.items())
    return "{" + ", ".join(f"{k}: {v}" for k, v in terms) + "}"


class Workload:
    """Base class: subclasses fill in setup, items and check."""

    name = ""

    def setup(self) -> None:
        raise NotImplementedError

    def items(self) -> list:
        raise NotImplementedError

    def shifts(self, rng: random.Random) -> dict:
        """Per-round variant drawn from the round's generator (default: none)."""
        return {}

    def check(self, item, variant: dict) -> tuple[str, str]:
        """Run one check; returns (outcome, canonical result text)."""
        raise NotImplementedError

    def label(self, item) -> str:
        return repr(item)


class DerivedAssoc(Workload):
    """Associativity of the derived product on A2 over F_2, t = 3 and t = 5."""

    name = "derived-assoc"
    PERIODS = (3, 5)
    MAX_TOTAL = 2
    TRIPLES_PER_PERIOD = 200
    # The fixed sample of triples; --seed only shifts it.
    SAMPLE_SEED = "derived-assoc-sample"
    # Leaves out the ~5% of triples that pile dimension 4 onto one vertex in
    # one degree (see MAX_VERTEX_DIM).

    def setup(self) -> None:
        from hallforge import ClassRegistry, DerivedHall
        from hallforge.cli import graded_objects_within
        from hallforge.quivers import line_quiver
        self.reg = ClassRegistry(line_quiver(2), 2)
        self.objs = {t: graded_objects_within(self.reg, t, self.MAX_TOTAL) for t in self.PERIODS}
        self.dh = {t: DerivedHall(self.reg, t) for t in self.PERIODS}

    def _fits(self, t: int, triple) -> bool:
        return all(max(map(sum, zip(*(g.dims_at(d) for g in triple)))) <= MAX_VERTEX_DIM
                   for d in range(t))

    def items(self) -> list:
        rng = random.Random(self.SAMPLE_SEED)
        out = []
        for t in self.PERIODS:
            objs = self.objs[t]
            n = len(objs)
            chosen: set[tuple] = set()
            while len(chosen) < self.TRIPLES_PER_PERIOD:
                code = rng.randrange(n ** 3)
                idx = (code // (n * n), (code // n) % n, code % n)
                if idx not in chosen and self._fits(t, [objs[x] for x in idx]):
                    chosen.add(idx)
                    out.append((t,) + idx)
        return out

    def shifts(self, rng: random.Random) -> dict:
        return {t: rng.randrange(t) for t in self.PERIODS}

    def check(self, item, variant: dict) -> tuple[str, str]:
        t, i, j, k = item
        s = variant.get(t, 0)
        a, b, c = (self.objs[t][x].shift(s) for x in (i, j, k))
        res = self.dh[t].assoc_check(a, b, c)
        return (PASS if res.ok else MISMATCH), _format_vector(self.reg, res.lhs, s)

    def label(self, item) -> str:
        from hallforge.complexes import format_graded
        t = item[0]
        return f"t{t} " + " ".join(format_graded(self.reg, self.objs[t][x]) for x in item[1:])


class Crosscheck(Workload):
    """The product against its independent routes: cone counting at t = 1,
    generator-word rewriting at t = 0."""

    name = "crosscheck"
    # (stratum, vertices, period, max total dim per object)
    STRATA = (("A1t1", 1, 1, 3), ("A2t1", 2, 1, 2), ("A2t0", 2, 0, 3))
    # Z-graded inputs are moved by one of these global shifts per round.
    T0_SHIFTS = 3
    # t = 1 pairs whose cone puts dimension 4 on one vertex enumerate 2^16
    # candidate differentials, 7-10 s apiece, and are left out (see
    # MAX_VERTEX_DIM).  Larger cones stay: they exceed the oracle's bound and
    # fail at once, and their share is what passed_frac reports.
    SKIP_CONE_VERTEX_DIM = MAX_VERTEX_DIM + 1

    def setup(self) -> None:
        from hallforge import ClassRegistry, DerivedHall
        from hallforge.cli import graded_objects_within
        from hallforge.quivers import line_quiver
        self.regs, self.objs, self.dh = {}, {}, {}
        for name, n, t, max_total in self.STRATA:
            reg = ClassRegistry(line_quiver(n), 2)
            self.regs[name] = reg
            self.objs[name] = graded_objects_within(reg, t, max_total)
            self.dh[name] = DerivedHall(reg, t)

    def items(self) -> list:
        out = []
        for name, n, t, _ in self.STRATA:
            objs = self.objs[name]
            for i, j in itertools.product(range(len(objs)), repeat=2):
                if t == 1:
                    cone = [x + y for x, y in zip(objs[i].dims_at(0), objs[j].dims_at(0))]
                    if max(cone) == self.SKIP_CONE_VERTEX_DIM:
                        continue
                out.append((name, i, j))
        return out

    def shifts(self, rng: random.Random) -> dict:
        return {"A2t0": rng.randrange(self.T0_SHIFTS)}

    def check(self, item, variant: dict) -> tuple[str, str]:
        from hallforge.errors import EnumerationTooLarge, RewriteBudgetExceeded
        name, i, j = item
        s = variant.get(name, 0)
        a, b = self.objs[name][i].shift(s), self.objs[name][j].shift(s)
        try:
            res = self.dh[name].theorem_crosscheck(a, b)
        except (EnumerationTooLarge, RewriteBudgetExceeded) as e:
            return BOUND, type(e).__name__
        return (PASS if res.ok else MISMATCH), _format_vector(self.regs[name], res.lhs, s)

    def label(self, item) -> str:
        from hallforge.complexes import format_graded
        name, i, j = item
        reg, objs = self.regs[name], self.objs[name]
        return f"{name} {format_graded(reg, objs[i])} {format_graded(reg, objs[j])}"


class KroneckerClasses(Workload):
    """Classes, Aut and middle-term extension counts on the Kronecker quiver."""

    name = "kronecker-classes"
    MAX_TOTAL = 4
    MAX_PAIR_TOTAL = 4

    def setup(self) -> None:
        from hallforge import ClassRegistry
        from hallforge.quivers import quiver_from_dict
        self.reg = ClassRegistry(quiver_from_dict(KRONECKER), 2)
        self.classes = self.reg.all_classes_total_le(self.MAX_TOTAL)

    def items(self) -> list:
        def fits(dims) -> bool:
            return max(dims) <= MAX_VERTEX_DIM

        out = [("aut", i) for i, c in enumerate(self.classes) if fits(c.dims)]
        for i, a in enumerate(self.classes):
            for j, b in enumerate(self.classes):
                if (a.total_dim + b.total_dim <= self.MAX_PAIR_TOTAL
                        and fits([x + y for x, y in zip(a.dims, b.dims)])):
                    out.append(("ext", i, j))
        return out

    def check(self, item, variant: dict) -> tuple[str, str]:
        from hallforge.hall import ext1_count, ext1_middle_count, hall_number
        from hallforge.quivers import dims_add
        reg = self.reg
        if item[0] == "aut":
            c = self.classes[item[1]]
            aut, orbit = reg.aut_count(c), reg.orbit_size(c)
            ok = aut * orbit == reg.gl_product(c.dims)
            return (PASS if ok else MISMATCH), f"{reg.class_id_str(c)} orbit={orbit} aut={aut}"
        a, b = self.classes[item[1]], self.classes[item[2]]
        middles = reg.classes(dims_add(a.dims, b.dims))
        counts = [ext1_middle_count(reg, a, b, c) for c in middles]
        ext = ext1_count(reg, a, b)
        ok = sum(counts) == ext and min(counts) >= 0
        rows = " ".join(f"{reg.class_id_str(c)}:{hall_number(reg, a, b, c)}/{n}"
                        for c, n in zip(middles, counts))
        return (PASS if ok else MISMATCH), f"{rows} ext={ext}"

    def label(self, item) -> str:
        return " ".join([item[0]] + [self.reg.class_id_str(self.classes[i]) for i in item[1:]])


class WarmCache(Workload):
    """Repeated CLI invocations against a filled on-disk cache."""

    name = "warm-cache"
    COMMANDS = (("classes", "--max-dim", "4"),
                ("hall", "--max-dim", "4"),
                ("gamma", "--max-dim", "3"))
    # Twelve of each put check_tail_ms, which needs ten checks beyond it, on a
    # `hall` invocation, the slowest of the three.
    REPEATS = 12
    COLD_FILE = "cold_reports.json"

    def __init__(self, cache_dir: str | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else None

    @property
    def quiver_path(self) -> Path:
        return self.cache_dir / "kronecker.json"

    def argv(self, cmd: tuple) -> list[str]:
        return list(cmd) + ["--quiver", str(self.quiver_path)]

    @staticmethod
    def canonical(report: dict) -> str:
        return json.dumps({k: v for k, v in report.items() if k != "timing_ms"},
                          sort_keys=True, separators=(",", ":"))

    def fill(self) -> None:
        """Run each command once against the empty cache; keep the cold reports."""
        from hallforge.cli import dispatch
        self.quiver_path.write_text(json.dumps(KRONECKER))
        cold = {}
        for cmd in self.COMMANDS:
            report, code = dispatch(self.argv(cmd))
            if code != 0 or report is None:
                raise RuntimeError(f"cold run of {cmd[0]} exited with {code}")
            cold[cmd[0]] = self.canonical(report)
        (self.cache_dir / self.COLD_FILE).write_text(json.dumps(cold))

    def setup(self) -> None:
        import hallforge.cli  # noqa: F401  (the import is part of set-up)
        self.cold = json.loads((self.cache_dir / self.COLD_FILE).read_text())

    def items(self) -> list:
        return [(cmd, r) for r in range(self.REPEATS) for cmd in range(len(self.COMMANDS))]

    def check(self, item, variant: dict) -> tuple[str, str]:
        from hallforge.cli import dispatch
        cmd = self.COMMANDS[item[0]]
        report, code = dispatch(self.argv(cmd))
        if code != 0 or report is None:
            return MISMATCH, f"exit {code}"
        text = self.canonical(report)
        return (PASS if text == self.cold[cmd[0]] else MISMATCH), text

    def label(self, item) -> str:
        return f"{self.COMMANDS[item[0]][0]} #{item[1]}"


WORKLOADS = {w.name: w for w in (DerivedAssoc, Crosscheck, KroneckerClasses, WarmCache)}

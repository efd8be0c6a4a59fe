"""Command-line front end.

Every subcommand builds a registry for one (quiver, q) setup, runs a pipeline,
and prints a JSON report to stdout:

    {"command": ..., "fingerprint": ..., "results": ...,
     "counterexamples": [...], "timing_ms": ...}

Reports are deterministic for fixed inputs except for timing_ms.  Exit codes:
0 all checks pass, 1 a checked identity failed, 2 usage error, 3 a resource
bound (enumeration or rewriting budget) was hit, 4 an engine fault (an internal
consistency check failed, a zero scalar was inverted, or a scalar that must be
a power of q was not).  When $HALLFORGE_CACHE names
a directory, enumeration state is loaded from it, and saved to it when the run
added to it; a corrupt or mismatched cache file produces a warning on stderr
and a fresh start, never a report entry.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import json
import random
import sys
import time
from typing import Iterable

from .algebra import RELATION_FAMILIES, DerivedHall, relation_check
from .cache import cache_directory, cached_size, load_cache, save_cache
from .complexes import check_period, format_graded, graded_object, parse_graded
from .errors import (CacheInvalid, DivisionByZero, EnumerationTooLarge,
                     IncompatibleObjects, InternalInconsistency, InvalidField,
                     NotAPureQPower, NotASubobject, NotHereditarySetup,
                     RewriteBudgetExceeded, UnsupportedPeriod)
from .hall import gamma_sweep, green_sides, subquotient_tables
from .quivers import (Quiver, dims_sub, dimvecs_up_to, line_quiver,
                      quiver_from_dict, quiver_to_dict, subdimvecs)
from .reps import ClassRegistry

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

SAMPLE_CAP = 100

_USAGE_ERRORS = (InvalidField, NotHereditarySetup, UnsupportedPeriod,
                 IncompatibleObjects, NotASubobject)
# NotAPureQPower comes out of engine arithmetic (a', square roots), never user input.
_ENGINE_FAULTS = (InternalInconsistency, DivisionByZero, NotAPureQPower)


def report_fingerprint(quiver: Quiver, q: int, t: int,
                       max_dim: int | None, dim: tuple[int, ...] | None) -> str:
    """sha256 over the run setup: quiver, field size, periodicity, bounds."""
    payload = json.dumps({"quiver": quiver_to_dict(quiver), "q": q, "t": t,
                          "max_dim": max_dim,
                          "dim": list(dim) if dim is not None else None},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_quiver(path: str | None) -> Quiver:
    if path is None:
        return line_quiver(1)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise IncompatibleObjects(f"cannot read quiver file {path}: {e}") from None
    return quiver_from_dict(data)


def write_csv(path: str, fields: list[str], rows: list[dict]) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    except OSError as e:
        raise IncompatibleObjects(f"cannot write CSV file {path}: {e}") from None


def parse_dims(text: str, n_vertices: int) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise IncompatibleObjects(f"cannot parse dimension vector {text!r}") from None
    if len(dims) != n_vertices or any(d < 0 for d in dims):
        raise IncompatibleObjects(
            f"dimension vector {text!r} does not fit a quiver with {n_vertices} vertices")
    return dims


def dims_str(dims: tuple[int, ...]) -> str:
    return ",".join(str(d) for d in dims)


def graded_objects_within(reg: ClassRegistry, t: int, max_total: int) -> list:
    """All zero-differential class objects with total dim <= max_total.

    Degrees range over {0, 1} for t = 0 and over all residues for t > 0.
    The zero object is included.  Order is deterministic.
    """
    degrees = (0, 1) if t == 0 else tuple(range(t))
    nonzero = [c for c in reg.all_classes_total_le(max_total) if c.total_dim >= 1]
    out = []

    def extend(i: int, comps: dict, used: int) -> None:
        if i == len(degrees):
            out.append(graded_object(t, reg.quiver.n, dict(comps)))
            return
        extend(i + 1, comps, used)
        for cls in nonzero:
            if used + cls.total_dim <= max_total:
                comps[degrees[i]] = cls
                extend(i + 1, comps, used + cls.total_dim)
                del comps[degrees[i]]

    extend(0, {}, 0)
    return out


def _maybe_sample(objs: list, repeat: int, seed: int | None) -> tuple[int, Iterable]:
    """(count, tuples): every repeat-tuple of objs, or SAMPLE_CAP of them with a seed.

    Samples are drawn as indices into the product and decoded one at a time,
    so the product is never built; the draw picks the same tuples as
    sampling the list itself would.
    """
    n = len(objs)
    total = n ** repeat
    if seed is None or total <= SAMPLE_CAP:
        return total, itertools.product(objs, repeat=repeat)

    def decode(index: int) -> tuple:
        out = []
        for _ in range(repeat):
            index, k = divmod(index, n)
            out.append(objs[k])
        return tuple(reversed(out))

    return SAMPLE_CAP, map(decode, random.Random(seed).sample(range(total), SAMPLE_CAP))


# -- subcommand pipelines ---------------------------------------------------
# Each returns (results, counterexamples, exit_code, csv_fields, csv_rows).


def _swept_dims(args, reg: ClassRegistry) -> list:
    """--dim alone, else every dims vector of total <= --max-dim (default 2), smallest first."""
    if args.dim is not None:
        return [parse_dims(args.dim, reg.quiver.n)]
    bound = args.max_dim if args.max_dim is not None else 2
    return sorted(dimvecs_up_to(reg.quiver.n, bound), key=lambda d: (sum(d), d))


def cmd_classes(args, reg: ClassRegistry, t: int):
    rows = []
    for dims in _swept_dims(args, reg):
        for cls in reg.classes(dims):
            rows.append({"dims": dims_str(dims), "id": reg.class_id_str(cls),
                         "orbit": reg.orbit_size(cls), "aut": reg.aut_count(cls)})
    results = {"classes": rows, "count": len(rows)}
    return results, [], EXIT_OK, ["dims", "id", "orbit", "aut"], rows


def cmd_hall(args, reg: ClassRegistry, t: int):
    rows = []
    for dims in _swept_dims(args, reg):
        for c in reg.classes(dims):
            for b, quotients in subquotient_tables(reg, c).items():
                for a, g in quotients:
                    rows.append({"a": reg.class_id_str(a), "b": reg.class_id_str(b),
                                 "c": reg.class_id_str(c), "value": g})
    results = {"hall_numbers": rows, "count": len(rows)}
    return results, [], EXIT_OK, ["a", "b", "c", "value"], rows


def cmd_green(args, reg: ClassRegistry, t: int):
    bound = args.max_dim if args.max_dim is not None else 2
    checked = 0
    counterexamples = []
    for dsum in sorted(dimvecs_up_to(reg.quiver.n, bound), key=lambda d: (sum(d), d)):
        sides = []
        for da in subdimvecs(dsum):
            db = dims_sub(dsum, da)
            for a in reg.classes(da):
                for b in reg.classes(db):
                    sides.append((a, b))
        for (a, b), (a2, b2) in itertools.product(sides, repeat=2):
            lhs, rhs = green_sides(reg, a, b, a2, b2)
            checked += 1
            if lhs != rhs:
                counterexamples.append({
                    "a": reg.class_id_str(a), "b": reg.class_id_str(b),
                    "a2": reg.class_id_str(a2), "b2": reg.class_id_str(b2),
                    "lhs": str(lhs), "rhs": str(rhs)})
    results = {"checked": checked, "mismatches": len(counterexamples)}
    code = EXIT_MISMATCH if counterexamples else EXIT_OK
    return results, counterexamples, code, ["a", "b", "a2", "b2", "lhs", "rhs"], counterexamples


def cmd_gamma(args, reg: ClassRegistry, t: int):
    bound = args.max_dim if args.max_dim is not None else 2
    classes = reg.all_classes_total_le(bound)
    name = {c: reg.class_id_str(c) for c in classes}
    # A value is written as str(Fraction(num, den)) would write it.
    rows = [{"a": name[a], "b": name[b], "m": name[m], "n": name[n],
             "value": f"{num}/{den}" if den != 1 else str(num)}
            for a, b, terms in gamma_sweep(reg, classes) for m, n, num, den in terms]
    results = {"gamma": rows, "count": len(rows)}
    return results, [], EXIT_OK, ["a", "b", "m", "n", "value"], rows


def cmd_dha_mul(args, reg: ClassRegistry, t: int):
    if args.lhs is None or args.rhs is None:
        raise IncompatibleObjects("dha-mul needs both --lhs and --rhs")
    a = parse_graded(reg, t, args.lhs)
    b = parse_graded(reg, t, args.rhs)
    dh = DerivedHall(reg, t)
    prod = dh.multiply_graded(a, b)
    terms = prod.format(reg)
    results = {"t": t, "lhs": format_graded(reg, a), "rhs": format_graded(reg, b),
               "product": terms}
    rows = [{"basis": k, "coeff": v} for k, v in terms.items()]
    return results, [], EXIT_OK, ["basis", "coeff"], rows


def _first_mismatch(reg: ClassRegistry, result) -> dict:
    g = result.mismatches[0]
    return {"basis": format_graded(reg, g),
            "lhs": str(result.lhs.coeff(g)),
            "rhs": str(result.rhs.coeff(g))}


def cmd_dha_assoc(args, reg: ClassRegistry, t: int):
    bound = args.max_dim if args.max_dim is not None else 2
    dh = DerivedHall(reg, t)
    objs = graded_objects_within(reg, t, bound)
    checked, triples = _maybe_sample(objs, 3, args.seed)
    counterexamples = []
    for a, b, c in triples:
        res = dh.assoc_check(a, b, c)
        if not res.ok:
            row = {"a": format_graded(reg, a), "b": format_graded(reg, b),
                   "c": format_graded(reg, c)}
            row.update(_first_mismatch(reg, res))
            counterexamples.append(row)
    results = {"t": t, "objects": len(objs), "checked": checked,
               "mismatches": len(counterexamples), "seed": args.seed}
    code = EXIT_MISMATCH if counterexamples else EXIT_OK
    fields = ["a", "b", "c", "basis", "lhs", "rhs"]
    return results, counterexamples, code, fields, counterexamples


def _relation_instances(family: str, t: int):
    """(degree, offset) grid for one family; degree 0 throughout."""
    if family == "dh0_45":
        return [(0, 2), (0, 3)]
    if family == "dht_r3":
        top = t if t >= 5 and t % 2 == 1 else 5
        return [(0, off) for off in range(2, top - 1)]
    return [(0, 2)]


def cmd_relations(args, reg: ClassRegistry, t: int):
    bound = args.max_dim if args.max_dim is not None else 2
    classes = [c for c in reg.all_classes_total_le(bound) if c.total_dim >= 1]
    rows = []
    counterexamples = []
    for family in RELATION_FAMILIES:
        checked = 0
        failures = 0
        for a in classes:
            for b in classes:
                for degree, offset in _relation_instances(family, t):
                    res = relation_check(reg, family, a, b, degree=degree,
                                         offset=offset,
                                         t=t if family == "dht_r3" and t >= 5 and t % 2 == 1 else None)
                    checked += 1
                    if not res.ok:
                        failures += 1
                        row = {"family": family,
                               "a": reg.class_id_str(a), "b": reg.class_id_str(b),
                               "degree": degree, "offset": offset}
                        row.update(_first_mismatch(reg, res))
                        counterexamples.append(row)
        rows.append({"family": family, "checked": checked, "mismatches": failures})
    results = {"families": rows, "classes": len(classes)}
    code = EXIT_MISMATCH if counterexamples else EXIT_OK
    fields = ["family", "a", "b", "degree", "offset", "basis", "lhs", "rhs"]
    return results, counterexamples, code, fields, counterexamples


def cmd_crosscheck(args, reg: ClassRegistry, t: int):
    if t not in (0, 1):
        raise UnsupportedPeriod("crosscheck routes exist for t = 0 and t = 1")
    bound = args.max_dim if args.max_dim is not None else 2
    dh = DerivedHall(reg, t)
    objs = graded_objects_within(reg, t, bound)
    checked, pairs = _maybe_sample(objs, 2, args.seed)
    counterexamples = []
    for a, b in pairs:
        res = dh.theorem_crosscheck(a, b)
        if not res.ok:
            row = {"a": format_graded(reg, a), "b": format_graded(reg, b)}
            row.update(_first_mismatch(reg, res))
            counterexamples.append(row)
    results = {"t": t, "objects": len(objs), "checked": checked,
               "mismatches": len(counterexamples), "seed": args.seed}
    code = EXIT_MISMATCH if counterexamples else EXIT_OK
    fields = ["a", "b", "basis", "lhs", "rhs"]
    return results, counterexamples, code, fields, counterexamples


COMMANDS = {
    "classes": cmd_classes,
    "hall": cmd_hall,
    "green": cmd_green,
    "gamma": cmd_gamma,
    "dha-mul": cmd_dha_mul,
    "dha-assoc": cmd_dha_assoc,
    "relations": cmd_relations,
    "crosscheck": cmd_crosscheck,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args leaves it unchanged)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiver", metavar="PATH", default=None,
                        help="quiver description as JSON; default: one vertex, no arrows")
    common.add_argument("--q", type=int, default=2, metavar="P",
                        help="prime field size (default 2)")
    common.add_argument("--t", type=int, default=0, metavar="T",
                        help="complex periodicity: 0 or a positive odd integer (default 0)")
    common.add_argument("--max-dim", type=int, default=None, metavar="N",
                        help="total dimension bound for sweeps (default 2)")
    common.add_argument("--dim", default=None, metavar="CSV",
                        help="one dimension vector, comma-separated")
    common.add_argument("--lhs", default=None, metavar="OBJ",
                        help="left factor, e.g. '[k2@0, k1#1@1]'")
    common.add_argument("--rhs", default=None, metavar="OBJ",
                        help="right factor, same syntax as --lhs")
    common.add_argument("--seed", type=int, default=None, metavar="N",
                        help="sample large sweeps down to %d triples with this seed" % SAMPLE_CAP)
    common.add_argument("--csv", default=None, metavar="PATH",
                        help="also write the result rows as CSV")

    parser = argparse.ArgumentParser(
        prog="hallforge",
        description="Exact computations in Ringel-Hall and derived Hall algebras "
                    "of quiver representations over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("classes", parents=[common],
                   help="enumerate isomorphism classes with orbit and automorphism counts")
    sub.add_parser("hall", parents=[common],
                   help="nonzero subobject-counting structure constants")
    sub.add_parser("green", parents=[common],
                   help="verify the comultiplication compatibility identity on a sweep")
    sub.add_parser("gamma", parents=[common],
                   help="nonzero normalized 4-term exact sequence counts")
    sub.add_parser("dha-mul", parents=[common],
                   help="multiply two basis elements of the derived algebra")
    sub.add_parser("dha-assoc", parents=[common],
                   help="verify associativity of the derived product on a sweep")
    sub.add_parser("relations", parents=[common],
                   help="verify the generator-relation families on a sweep")
    sub.add_parser("crosscheck", parents=[common],
                   help="compare the product against an independent route")
    return parser


def dispatch(argv: list[str] | None = None) -> tuple[dict | None, int]:
    """Run one subcommand; returns (report, exit_code).  report is None when
    the run failed before producing results (usage, resource or engine errors)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        quiver = load_quiver(args.quiver)
        t = args.t
        check_period(t)
        dim = parse_dims(args.dim, quiver.n) if args.dim is not None else None
        if args.max_dim is not None and args.max_dim < 0:
            raise IncompatibleObjects(f"--max-dim must be nonnegative, got {args.max_dim}")
        reg = ClassRegistry(quiver, args.q)
        loaded = None
        if cache_directory() is not None:
            try:
                loaded = cached_size(reg) if load_cache(reg, t) else None
            except CacheInvalid as e:
                print(f"warning: ignoring cache: {e}", file=sys.stderr)
                reg = ClassRegistry(quiver, args.q)
        results, counterexamples, code, csv_fields, csv_rows = \
            COMMANDS[args.command](args, reg, t)
        # A run that added nothing to a cleanly loaded file leaves it untouched.
        if cache_directory() is not None and cached_size(reg) != loaded:
            try:
                save_cache(reg, t)
            except OSError as e:
                print(f"warning: could not write cache: {e}", file=sys.stderr)
        if args.csv is not None:
            write_csv(args.csv, csv_fields, csv_rows)
    except _USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return None, EXIT_USAGE
    except (EnumerationTooLarge, RewriteBudgetExceeded) as e:
        print(f"error: resource bound hit: {e}", file=sys.stderr)
        return None, EXIT_RESOURCE
    except _ENGINE_FAULTS as e:
        print(f"error: internal fault ({type(e).__name__}): {e}", file=sys.stderr)
        return None, EXIT_INTERNAL
    report = {
        "command": args.command,
        "fingerprint": report_fingerprint(quiver, args.q, t, args.max_dim, dim),
        "results": results,
        "counterexamples": counterexamples,
        "timing_ms": int((time.monotonic() - start) * 1000),
    }
    return report, code


def main(argv: list[str] | None = None) -> int:
    report, code = dispatch(argv)
    if report is not None:
        print(json.dumps(report, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())

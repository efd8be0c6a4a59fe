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
and a fresh start, never a report entry.  algebra and complexes are imported
like any module, but the package binds them unexecuted: only dha-mul,
dha-assoc, relations and crosscheck run their code.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys
import time
from typing import Iterable

from . import algebra, complexes
from .cache import cache_directory, cached_size, load_cache, save_cache, setup_fingerprint
from .errors import (CacheInvalid, DivisionByZero, EnumerationTooLarge,
                     IncompatibleObjects, InternalInconsistency, InvalidField,
                     NotASubobject, NotHereditarySetup, RewriteBudgetExceeded,
                     UnsupportedPeriod)
from .hall import gamma_sweep, green_sides, subquotient_tables
from .quivers import (Quiver, check_period, dims_key, dims_sub, dimvecs_up_to, line_quiver,
                      quiver_from_dict, subdimvecs)
from .reps import ClassRegistry

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

SAMPLE_CAP = 100
# An unsampled sweep of more tuples than this exits 3 before its first check.
# The largest full sweep run anywhere, A2 dha-assoc --t 5 --max-dim 2, has
# 357,911; A2 --max-dim 3 at t = 5 would have 39,651,821.
SWEEP_CAP = 2 ** 20

_USAGE_ERRORS = (InvalidField, NotHereditarySetup, UnsupportedPeriod,
                 IncompatibleObjects, NotASubobject)
_ENGINE_FAULTS = (InternalInconsistency, DivisionByZero)


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
    import csv
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
            out.append(complexes.graded_object(t, reg.quiver.n, comps.items()))
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
    sampling the list itself would.  Without a seed, more than SWEEP_CAP
    tuples raise EnumerationTooLarge before any is checked.
    """
    n = len(objs)
    total = n ** repeat
    if seed is None and total > SWEEP_CAP:
        raise EnumerationTooLarge(f"{total} {repeat}-tuples of {n} objects exceed bound "
                                  f"{SWEEP_CAP}; pass --seed to sample {SAMPLE_CAP} of them")
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
# Each returns (results, csv_fields, csv_rows); a check's rows are its
# counterexamples (see COMMANDS).


def _max_dim(args) -> int:
    """--max-dim, default 2."""
    return args.max_dim if args.max_dim is not None else 2


def _swept_dims(args, reg: ClassRegistry) -> list:
    """--dim alone, else every dims vector of total <= --max-dim, smallest first."""
    if args.dim is not None:
        return [args.dim]
    return dimvecs_up_to(reg.quiver.n, _max_dim(args))


def cmd_classes(args, reg: ClassRegistry, t: int):
    rows = []
    for dims in _swept_dims(args, reg):
        for cls in reg.classes(dims):
            rows.append({"dims": dims_key(dims), "id": reg.class_id_str(cls),
                         "orbit": reg.orbit_size(cls), "aut": reg.aut_count(cls)})
    return {"classes": rows, "count": len(rows)}, ["dims", "id", "orbit", "aut"], rows


def cmd_hall(args, reg: ClassRegistry, t: int):
    rows = []
    for dims in _swept_dims(args, reg):
        for c in reg.classes(dims):
            for b, quotients in subquotient_tables(reg, c).items():
                for a, g in quotients:
                    rows.append({"a": reg.class_id_str(a), "b": reg.class_id_str(b),
                                 "c": reg.class_id_str(c), "value": g})
    return {"hall_numbers": rows, "count": len(rows)}, ["a", "b", "c", "value"], rows


def cmd_green(args, reg: ClassRegistry, t: int):
    checked = 0
    counterexamples = []
    for dsum in dimvecs_up_to(reg.quiver.n, _max_dim(args)):
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
    return results, ["a", "b", "a2", "b2", "lhs", "rhs"], counterexamples


def cmd_gamma(args, reg: ClassRegistry, t: int):
    classes = reg.all_classes_total_le(_max_dim(args))
    name = {c: reg.class_id_str(c) for c in classes}
    # A value is written as str(Fraction(num, den)) would write it.
    rows = [{"a": name[a], "b": name[b], "m": name[m], "n": name[n],
             "value": f"{num}/{den}" if den != 1 else str(num)}
            for a, b, terms in gamma_sweep(reg, classes) for m, n, num, den in terms]
    return {"gamma": rows, "count": len(rows)}, ["a", "b", "m", "n", "value"], rows


def cmd_dha_mul(args, reg: ClassRegistry, t: int):
    if args.lhs is None or args.rhs is None:
        raise IncompatibleObjects("dha-mul needs both --lhs and --rhs")
    a = complexes.parse_graded(reg, t, args.lhs)
    b = complexes.parse_graded(reg, t, args.rhs)
    prod = algebra.DerivedHall(reg, t).multiply_graded(a, b)
    terms = prod.format(reg)
    results = {"t": t, "lhs": complexes.format_graded(reg, a),
               "rhs": complexes.format_graded(reg, b), "product": terms}
    return results, ["basis", "coeff"], [{"basis": k, "coeff": v} for k, v in terms.items()]


def _first_mismatch(reg: ClassRegistry, result) -> dict:
    g = result.mismatches[0]
    return {"basis": complexes.format_graded(reg, g),
            "lhs": str(result.lhs.coeff(g)),
            "rhs": str(result.rhs.coeff(g))}


def _sampled_checks(args, reg: ClassRegistry, t: int, check, names: tuple[str, ...]):
    """Run check on every tuple of len(names) graded objects within --max-dim, or on
    a --seed sample of them; a failing tuple is a counterexample row keyed by names."""
    objs = graded_objects_within(reg, t, _max_dim(args))
    checked, tuples = _maybe_sample(objs, len(names), args.seed)
    counterexamples = []
    for tup in tuples:
        res = check(*tup)
        if not res.ok:
            row = {name: complexes.format_graded(reg, g) for name, g in zip(names, tup)}
            row.update(_first_mismatch(reg, res))
            counterexamples.append(row)
    results = {"t": t, "objects": len(objs), "checked": checked,
               "mismatches": len(counterexamples), "seed": args.seed}
    return results, [*names, "basis", "lhs", "rhs"], counterexamples


def cmd_dha_assoc(args, reg: ClassRegistry, t: int):
    return _sampled_checks(args, reg, t, algebra.DerivedHall(reg, t).assoc_check,
                           ("a", "b", "c"))


def _relation_instances(family: str, t: int):
    """(degree, offset) grid for one family; degree 0 throughout."""
    if family == "dh0_45":
        return [(0, 2), (0, 3)]
    if family == "dht_r3":
        return [(0, off) for off in range(2, max(t, 5) - 1)]
    return [(0, 2)]


def cmd_relations(args, reg: ClassRegistry, t: int):
    if 0 < t < 5:
        raise UnsupportedPeriod(f"--t is the period of dht_r3, an odd t >= 5 (got {t}); "
                                "the default 0 runs it at t = 5")
    classes = [c for c in reg.all_classes_total_le(_max_dim(args)) if c.total_dim >= 1]
    rows = []
    counterexamples = []
    for family in algebra.RELATION_FAMILIES:
        checked = 0
        failures = 0
        for a in classes:
            for b in classes:
                for degree, offset in _relation_instances(family, t):
                    res = algebra.relation_check(reg, family, a, b, degree=degree,
                                                 offset=offset, t=t or None)
                    checked += 1
                    if not res.ok:
                        failures += 1
                        row = {"family": family,
                               "a": reg.class_id_str(a), "b": reg.class_id_str(b),
                               "degree": degree, "offset": offset}
                        row.update(_first_mismatch(reg, res))
                        counterexamples.append(row)
        rows.append({"family": family, "checked": checked, "mismatches": failures})
    fields = ["family", "a", "b", "degree", "offset", "basis", "lhs", "rhs"]
    return {"families": rows, "classes": len(classes)}, fields, counterexamples


def cmd_crosscheck(args, reg: ClassRegistry, t: int):
    if t not in (0, 1):
        raise UnsupportedPeriod("crosscheck routes exist for t = 0 and t = 1")
    return _sampled_checks(args, reg, t, algebra.DerivedHall(reg, t).theorem_crosscheck,
                           ("a", "b"))


# name: (pipeline, whether it is a check, its run options, help).  A check's
# rows are its counterexamples, and any of them makes the run exit
# EXIT_MISMATCH.  The options are OPTIONS flags; "a|b" makes a and b exclusive.
COMMANDS = {
    "classes": (cmd_classes, False, "--max-dim|--dim",
                "enumerate isomorphism classes with orbit and automorphism counts"),
    "hall": (cmd_hall, False, "--max-dim|--dim", "nonzero subobject-counting structure constants"),
    "green": (cmd_green, True, "--max-dim",
              "verify the comultiplication compatibility identity on a sweep"),
    "gamma": (cmd_gamma, False, "--max-dim", "nonzero normalized 4-term exact sequence counts"),
    "dha-mul": (cmd_dha_mul, False, "--t --lhs --rhs",
                "multiply two basis elements of the derived algebra"),
    "dha-assoc": (cmd_dha_assoc, True, "--t --max-dim --seed",
                  "verify associativity of the derived product on a sweep"),
    "relations": (cmd_relations, True, "--t --max-dim",
                  "verify the generator-relation families on a sweep"),
    "crosscheck": (cmd_crosscheck, True, "--t --max-dim --seed",
                   "compare the product against an independent route"),
}

# flag: add_argument keywords.  A command that does not take an option reads
# its default, so the pipelines, the fingerprint and the cache key see the
# same fields for every command.
OPTIONS = {
    "--t": dict(type=int, default=0, metavar="T",
                help="complex periodicity: 0 or a positive odd integer (default 0)"),
    "--max-dim": dict(type=int, default=None, metavar="N",
                      help="total dimension bound for sweeps (default 2)"),
    "--dim": dict(default=None, metavar="CSV", help="one dimension vector, comma-separated"),
    "--lhs": dict(default=None, metavar="OBJ", help="left factor, e.g. '[k2@0, k1#1@1]'"),
    "--rhs": dict(default=None, metavar="OBJ", help="right factor, same syntax as --lhs"),
    "--seed": dict(type=int, default=None, metavar="N",
                   help="sample large sweeps down to %d tuples with this seed; without "
                        "it, a sweep of more than %d tuples exits 3" % (SAMPLE_CAP, SWEEP_CAP)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args leaves it unchanged)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiver", metavar="PATH", default=None,
                        help="quiver description as JSON; default: one vertex, no arrows")
    common.add_argument("--q", type=int, default=2, metavar="P",
                        help="prime field size (default 2)")
    common.add_argument("--csv", default=None, metavar="PATH",
                        help="also write the result rows as CSV")
    common.set_defaults(**{flag[2:].replace("-", "_"): kw["default"]
                           for flag, kw in OPTIONS.items()})

    parser = argparse.ArgumentParser(
        prog="hallforge",
        description="Exact computations in Ringel-Hall and derived Hall algebras "
                    "of quiver representations over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, options, help_text) in COMMANDS.items():
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        for entry in options.split():
            group = cmd.add_mutually_exclusive_group() if "|" in entry else cmd
            for flag in entry.split("|"):
                group.add_argument(flag, **OPTIONS[flag])
    return parser


def dispatch(argv: list[str] | None = None) -> tuple[dict | None, int]:
    """Run one subcommand; returns (report, exit_code).  report is None when
    the run failed before producing results (usage, resource or engine errors)."""
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    # Counts are exact: |GL_130(F_2)| alone has more digits than Python's default
    # int-to-str limit, which the rows, the CSV and the JSON report all pass through.
    sys.set_int_max_str_digits(0)
    try:
        quiver = load_quiver(args.quiver)
        reg = ClassRegistry(quiver, args.q)  # validates the quiver, the run's one check of it
        t = args.t
        check_period(t)
        if args.dim is not None:
            args.dim = parse_dims(args.dim, quiver.n)
        if args.max_dim is not None and args.max_dim < 0:
            raise IncompatibleObjects(f"--max-dim must be nonnegative, got {args.max_dim}")
        loaded = None
        if cache_directory() is not None:
            try:
                loaded = cached_size(reg) if load_cache(reg, t) else None
            except CacheInvalid as e:
                print(f"warning: ignoring cache: {e}", file=sys.stderr)
                reg.clear()
        run, is_check = COMMANDS[args.command][:2]
        results, csv_fields, csv_rows = run(args, reg, t)
        counterexamples = csv_rows if is_check else []
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
        "fingerprint": setup_fingerprint(quiver, args.q, t, max_dim=args.max_dim, dim=args.dim),
        "results": results,
        "counterexamples": counterexamples,
        "timing_ms": int((time.monotonic() - start) * 1000),
    }
    return report, EXIT_MISMATCH if counterexamples else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Print dispatch's report; return its exit code, also when stdout's reader is gone."""
    report, code = dispatch(argv)
    if report is not None:
        try:
            print(json.dumps(report, sort_keys=True, indent=2))
            sys.stdout.flush()
        except BrokenPipeError:
            # The interpreter flushes stdout once more on exit; devnull takes it.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

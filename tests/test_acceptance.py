"""End-to-end acceptance checks for the whole engine.

Each test machine-verifies one of the core identities or sanity anchors on a
named desk-scale domain, with exact (zero-tolerance) arithmetic throughout.
Durations are printed for visibility but never asserted.
"""
from __future__ import annotations

import itertools
import json
import time
from fractions import Fraction

import pytest

from hallforge import cli
from hallforge.algebra import RELATION_FAMILIES, DerivedHall, relation_check
from hallforge.cache import CACHE_ENV_VAR
from hallforge.cli import graded_objects_within
from hallforge.complexes import graded_object, hom_dt_count
from hallforge.hall import ext1_count, ext1_middle_count, green_sides, hall_number
from hallforge.linalg import gaussian_binomial
from hallforge.quivers import (dims_add, dims_sub, dimvecs_up_to, line_quiver, quiver_to_dict,
                               subdimvecs)
from hallforge.reps import ClassRegistry
from hallforge.scalars import parse_scalar

from .oracles import (alt_hom_product, aut_count_by_enumeration, product_by_endomorphisms,
                      semisimple_rep)


def timed(label, start):
    print(f"{label}: {time.monotonic() - start:.1f}s")


def side_pairs(reg, dsum):
    """All (a, b) class pairs whose dimension vectors add up to dsum."""
    out = []
    for da in subdimvecs(dsum):
        db = dims_sub(dsum, da)
        for a in reg.classes(da):
            for b in reg.classes(db):
                out.append((a, b))
    return out


def width2_objects(reg):
    """Zero-differential objects with support in a window {d, d+1} inside
    degrees 0..3 and every component of dimension at most one."""
    ones = [c for c in reg.all_classes_total_le(1) if c.total_dim == 1]
    objs = [graded_object(0, reg.quiver.n, [])]
    for d in range(4):
        objs.extend(graded_object(0, reg.quiver.n, [(d, c)]) for c in ones)
    for d in range(3):
        objs.extend(graded_object(0, reg.quiver.n, [(d, c1), (d + 1, c2)])
                    for c1 in ones for c2 in ones)
    return objs


# -- 1: the comultiplication compatibility identity --------------------------------


def test_green_identity_exhaustive(a1_f2, a1_f3, a2_f2, a2_f3):
    """Both sides agree for every quadruple with matching total dimension
    vector: per-side total <= 4 on one vertex, per-side dims <= (2,2) on two."""
    start = time.monotonic()
    checked = 0
    for reg in (a1_f2, a1_f3):
        for total in range(5):
            sides = side_pairs(reg, (total,))
            for (a, b), (a2, b2) in itertools.product(sides, repeat=2):
                lhs, rhs = green_sides(reg, a, b, a2, b2)
                assert lhs == rhs, (reg.p, a, b, a2, b2)
                checked += 1
    for reg in (a2_f2, a2_f3):
        for dsum in subdimvecs((2, 2)):
            sides = side_pairs(reg, dsum)
            for (a, b), (a2, b2) in itertools.product(sides, repeat=2):
                lhs, rhs = green_sides(reg, a, b, a2, b2)
                assert lhs == rhs, (reg.p, a, b, a2, b2)
                checked += 1
    assert checked == 2 * 55 + 2 * 663
    timed(f"green identity ({checked} quadruples)", start)


@pytest.mark.parametrize("fixture_name,q,max_dim,count", [
    ("kronecker_f2", 2, 4, 7709), ("d4_f2", 2, 4, 17864), ("a3_f2", 2, 4, 5936),
    ("kronecker_f2", 3, 3, 1355), ("a3_f2", 5, 3, 972)])
def test_green_identity_beyond_a2(request, fixture_name, q, max_dim, count):
    """Both sides agree for every quadruple of the green command's sweep to
    total dim max_dim, on the Kronecker quiver (tame), D4 and A3."""
    reg = request.getfixturevalue(fixture_name)
    if q != reg.p:
        reg = ClassRegistry(reg.quiver, q)
    start = time.monotonic()
    checked = 0
    for dsum in dimvecs_up_to(reg.quiver.n, max_dim):
        sides = side_pairs(reg, dsum)
        for (a, b), (a2, b2) in itertools.product(sides, repeat=2):
            lhs, rhs = green_sides(reg, a, b, a2, b2)
            assert lhs == rhs, (q, a, b, a2, b2)
            checked += 1
    assert checked == count
    timed(f"green identity on {fixture_name} over F_{q} ({checked} quadruples)", start)


def test_green_identity_frozen_instance(a1_f2):
    k = a1_f2.classes((1,))[0]
    lhs, rhs = green_sides(a1_f2, k, k, k, k)
    assert lhs == rhs == Fraction(3, 2)


# -- 2: associativity of the derived product -----------------------------------------


def test_associativity_bounded_t0(a1_f2, a2_f2):
    """All triples of width-<=2 objects with per-degree dimension <= 1."""
    start = time.monotonic()
    for reg in (a1_f2, a2_f2):
        dh = DerivedHall(reg, 0)
        objs = width2_objects(reg)
        assert len(objs) == (8 if reg.quiver.n == 1 else 21)
        for a, b, c in itertools.product(objs, repeat=3):
            res = dh.assoc_check(a, b, c)
            assert res.ok, (a, b, c, res.mismatches)
    timed("associativity t=0 (512 + 9261 triples)", start)


@pytest.mark.parametrize("t", [1, 3])
def test_associativity_bounded_odd(a1_f2, a2_f2, t):
    """All triples of t-periodic objects with total dimension <= 2."""
    start = time.monotonic()
    counts = []
    for reg in (a1_f2, a2_f2):
        dh = DerivedHall(reg, t)
        objs = graded_objects_within(reg, t, 2)
        counts.append(len(objs))
        for a, b, c in itertools.product(objs, repeat=3):
            res = dh.assoc_check(a, b, c)
            assert res.ok, (t, a, b, c, res.mismatches)
    timed(f"associativity t={t} (objects {counts})", start)


def test_associativity_a1_t5_full(a1_f2):
    """All 9,261 triples of 5-periodic A1 objects with total dimension <= 2.
    The A2 sweep at t = 5 (357,911 triples) is a recorded CLI run instead."""
    start = time.monotonic()
    dh = DerivedHall(a1_f2, 5)
    objs = graded_objects_within(a1_f2, 5, 2)
    assert len(objs) == 21
    for a, b, c in itertools.product(objs, repeat=3):
        res = dh.assoc_check(a, b, c)
        assert res.ok, (a, b, c, res.mismatches)
    timed("associativity t=5 on A1 (9261 triples)", start)


@pytest.mark.parametrize("fixture_name,t,seed", [
    ("a3_f2", 1, None), ("d4_f2", 1, None), ("kronecker_f2", 1, None),
    ("a3_f2", 0, None), ("kronecker_f2", 0, None), ("d4_f2", 0, 7),
    ("a3_f2", 3, 7), ("d4_f2", 3, 7), ("kronecker_f2", 3, 7),
])
def test_associativity_beyond_a2(request, fixture_name, t, seed):
    """Triples of objects of total dimension <= 2 on A3, D4 and Kronecker over
    F_2: every triple, or with a seed the SAMPLE_CAP triples that
    `dha-assoc --max-dim 2 --seed` checks.  The full sweeps left out (D4 at
    t = 0, all three at t = 3) take from 6 s to 32 s each."""
    start = time.monotonic()
    reg = request.getfixturevalue(fixture_name)
    dh = DerivedHall(reg, t)
    objs = graded_objects_within(reg, t, 2)
    checked, triples = cli._maybe_sample(objs, 3, seed)
    assert checked == (len(objs) ** 3 if seed is None else cli.SAMPLE_CAP)
    for a, b, c in triples:
        res = dh.assoc_check(a, b, c)
        assert res.ok, (a, b, c, res.mismatches)
    timed(f"associativity t={t} on {fixture_name} ({checked} triples)", start)


# -- 3: the t=1 product against independent cone counting ------------------------------


def test_t1_coefficients_match_cone_counting(a1_f2):
    """Every structure constant of the period-one product equals the value
    obtained by counting morphisms with a fixed cone class."""
    start = time.monotonic()
    dh = DerivedHall(a1_f2, 1)
    objs = graded_objects_within(a1_f2, 1, 2)
    cones = graded_objects_within(a1_f2, 1, 4)
    cone_set = set(cones)
    for a, b in itertools.product(objs, repeat=2):
        prod, oracle = dh.multiply_graded(a, b), dh.rp_product_t1(a, b)
        assert all(x in cone_set for x, _ in prod.items()), "term outside cone range"
        for x in cones:
            assert prod.coeff(x) == oracle.coeff(x), (a, b, x)
    timed("t=1 cone-counting comparison", start)


def test_t1_crosscheck_to_total_dim_3(capsys, monkeypatch, tmp_path):
    """`crosscheck --t 1 --max-dim 3` finishes with no mismatch on A1 and A2,
    whose largest cones ((6,) on A1, (0,6) on A2) no complex-class listing reaches."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    start = time.monotonic()
    for n, pairs in ((1, 16), (2, 169)):
        path = tmp_path / f"a{n}.json"
        path.write_text(json.dumps(quiver_to_dict(line_quiver(n))))
        code = cli.main(["crosscheck", "--t", "1", "--max-dim", "3", "--quiver", str(path)])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 0 and results["checked"] == pairs and results["mismatches"] == 0
    timed("crosscheck --t 1 --max-dim 3 on A1 and A2 (185 pairs)", start)


def test_t1_frozen_constants(a1_f2):
    """[Z_k][Z_k] carries 3v/2 on the rank-two stalk and v on the unit,
    through the product and through cone counting alike."""
    dh = DerivedHall(a1_f2, 1)
    zk = dh.stalk(a1_f2.classes((1,))[0])
    zk2 = dh.stalk(a1_f2.classes((2,))[0])
    unit = dh.unit_graded()
    prod = dh.multiply_graded(zk, zk)
    want_k2 = parse_scalar(2, "0 + 3/2*v")
    want_unit = parse_scalar(2, "0 + 1*v")
    assert prod.coeff(zk2) == want_k2
    assert prod.coeff(unit) == want_unit
    oracle = dh.rp_product_t1(zk, zk)
    assert oracle.coeff(zk2) == want_k2
    assert oracle.coeff(unit) == want_unit


# -- 4: the t=0 product against generator-word rewriting -------------------------------


def test_t0_product_matches_word_rewriting(a1_f2, a2_f2):
    """Multiplying two basis objects agrees with concatenating their generator
    decompositions and rewriting to normal form, on the width-<=2 domain."""
    start = time.monotonic()
    for reg in (a1_f2, a2_f2):
        dh = DerivedHall(reg, 0)
        objs = width2_objects(reg)
        for a, b in itertools.product(objs, repeat=2):
            word = dh.decompose_graded(a) + dh.decompose_graded(b)
            assert dh.normalize_generator_word(word) == dh.multiply_graded(a, b), (a, b)
    timed("t=0 rewriting comparison (64 + 441 pairs)", start)


# -- 5: the alternating derived-Hom product identity -----------------------------------


def test_alternating_hom_identity_t1(a1_f2, a2_f2):
    """The literal alternating product of shifted derived Hom counts equals
    its Euler-form closed form for all period-one pairs of total dim <= 2."""
    for reg in (a1_f2, a2_f2):
        objs = graded_objects_within(reg, 1, 2)
        for a, b in itertools.product(objs, repeat=2):
            literal = Fraction(1)
            for i in range(1):
                h = Fraction(hom_dt_count(reg, a.shift(i), b))
                literal = literal * h if i % 2 == 0 else literal / h
            assert literal == alt_hom_product(reg, a, b), (a, b)


# -- 6: the presentation relation families ---------------------------------------------


def test_relation_families_full_sweep(a1_f2):
    """Every relation family holds for all generator classes of dim <= 2;
    the degree-1 family passes under the |Aut|-based normalization, and the
    literal |End|-based variant is confirmed to differ."""
    start = time.monotonic()
    classes = a1_f2.all_classes_total_le(2)
    endo_flags = []
    for family in RELATION_FAMILIES:
        offsets = [2, 3] if family in ("dh0_45", "dht_r3") else [2]
        for a in classes:
            for b in classes:
                for off in offsets:
                    res = relation_check(a1_f2, family, a, b, offset=off)
                    assert res.ok, (family, a, b, off, res.mismatches)
                    if family == "dh1_re1":
                        endo_flags.append(product_by_endomorphisms(a1_f2, a, b) == res.lhs)
    assert False in endo_flags, "the two normalization conventions never diverged"
    timed("relation families", start)


# -- 7: classical sanity anchors ---------------------------------------------------------


def test_hall_numbers_are_gaussian_binomials():
    from hallforge import ClassRegistry
    for q in (2, 3):
        reg = ClassRegistry(line_quiver(1), q)
        for total in range(5):
            c = reg.classes((total,))[0]
            for b in range(total + 1):
                a = total - b
                got = hall_number(reg, reg.classes((a,))[0], reg.classes((b,))[0], c)
                assert got == gaussian_binomial(total, b, q), (q, a, b)


def test_automorphism_counts_of_semisimples():
    for q in (2, 3):
        quiver = line_quiver(1)
        for n in range(4):
            expected = 1
            for i in range(n):
                expected *= q ** n - q ** i
            rep = semisimple_rep(quiver, q, (n,))
            assert aut_count_by_enumeration(rep, bound=q ** 9) == expected, (q, n)


# -- 8: extension counts resolved by middle term ------------------------------------------


def test_extension_counts_sum_over_middles(a1_f2, a2_f2):
    """Extension counts with fixed middle term are nonnegative integers and
    sum to the total extension count, for all pairs of combined dim <= 3."""
    start = time.monotonic()
    for reg in (a1_f2, a2_f2):
        classes = reg.all_classes_total_le(3)
        for a in classes:
            for b in classes:
                if a.total_dim + b.total_dim > 3:
                    continue
                total = 0
                for c in reg.classes(dims_add(a.dims, b.dims)):
                    val = ext1_middle_count(reg, a, b, c)
                    assert isinstance(val, int) and val >= 0, (a, b, c)
                    total += val
                assert total == ext1_count(reg, a, b), (a, b)
    timed("extension-count totals", start)

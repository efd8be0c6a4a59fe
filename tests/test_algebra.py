"""Derived Hall algebra products, presentations, rewriting, and cross-checks."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from hallforge.algebra import (RELATION_FAMILIES, DerivedHall, HallVector,
                               relation_check)
from hallforge.complexes import graded_object, stalk
from hallforge.errors import (IncompatibleObjects, NotAPureQPower,
                              RewriteBudgetExceeded, UnsupportedPeriod)
from hallforge.quivers import line_quiver
from hallforge.reps import ClassRegistry
from hallforge.scalars import QSqrtScalar, parse_scalar
from hallforge.cli import graded_objects_within

from .oracles import (a_prime_by_endomorphisms, bracket_by_shifts, frontier_product,
                      product_by_endomorphisms)


def k_class(reg, n):
    return reg.classes((n,))[0]


def sc(text):
    return parse_scalar(2, text)


def vec(dh, *pairs):
    """HallVector from (graded, scalar-text) pairs."""
    out = HallVector(dh.q)
    for g, text in pairs:
        out = out.add(HallVector.basis(dh.q, g).scale(parse_scalar(dh.q, text)))
    return out


@pytest.fixture(scope="session")
def d0(a1_f2):
    return DerivedHall(a1_f2, 0)


@pytest.fixture(scope="session")
def d1(a1_f2):
    return DerivedHall(a1_f2, 1)


@pytest.fixture(scope="session")
def d3(a1_f2):
    return DerivedHall(a1_f2, 3)


# -- HallVector arithmetic -------------------------------------------------------


def test_vector_add_merges_and_drops_zeros(d0, a1_f2):
    g = d0.stalk(k_class(a1_f2, 1))
    h = d0.stalk(k_class(a1_f2, 2))
    x = HallVector.basis(2, g).add(HallVector.basis(2, h))
    assert x.coeff(g) == sc("1") and x.coeff(h) == sc("1")
    y = x.sub(HallVector.basis(2, g))
    assert g not in y.terms and y.coeff(h) == sc("1")
    assert x.sub(x).is_zero()


def test_vector_scale(d0, a1_f2):
    g = d0.stalk(k_class(a1_f2, 1))
    x = HallVector.basis(2, g).scale(Fraction(3, 2))
    assert x.coeff(g) == sc("3/2")
    assert x.scale(0).is_zero()
    assert x.scale(sc("v")).coeff(g) == sc("0 + 3/2*v")


def test_vector_coeff_defaults_to_zero(d0, a1_f2):
    assert HallVector(2).coeff(d0.unit_graded()) == QSqrtScalar.zero(2)


def test_vector_items_sorted_and_eq(d0, a1_f2):
    g0 = d0.stalk(k_class(a1_f2, 1), 0)
    g2 = d0.stalk(k_class(a1_f2, 1), 2)
    x = HallVector.basis(2, g2).add(HallVector.basis(2, g0))
    assert [g for g, _ in x.items()] == [g0, g2]
    assert x == HallVector.basis(2, g0).add(HallVector.basis(2, g2))
    assert x != HallVector.basis(2, g0)


# -- units and bilinearity --------------------------------------------------------


@pytest.mark.parametrize("t", [0, 1, 3])
def test_unit_laws(a1_f2, t):
    dh = DerivedHall(a1_f2, t)
    deg = 2 if t != 1 else 0
    g = graded_object(t, 1, [(0, k_class(a1_f2, 2))])
    if t != 1:
        g = graded_object(t, 1, [(0, k_class(a1_f2, 2)), (deg, k_class(a1_f2, 1))])
    x = HallVector.basis(2, g)
    assert dh.multiply(dh.one(), x) == x
    assert dh.multiply(x, dh.one()) == x
    # The kernels themselves, which multiply_graded bypasses on a zero factor.
    kernel = dh.lt_mul_t0 if t == 0 else dh.lt_mul_odd
    assert kernel(dh.unit_graded(), dh.unit_graded()) == dh.one()
    assert kernel(dh.unit_graded(), g) == x == kernel(g, dh.unit_graded())


def test_multiply_is_bilinear(d1, a1_f2):
    zk = HallVector.basis(2, d1.stalk(k_class(a1_f2, 1)))
    zk2 = HallVector.basis(2, d1.stalk(k_class(a1_f2, 2)))
    x = zk.scale(sc("1/2")).add(zk2)
    y = zk.scale(sc("v")).add(zk2.scale(3))
    z = zk
    lhs = d1.multiply(x.add(y), z)
    assert lhs == d1.multiply(x, z).add(d1.multiply(y, z))
    assert d1.multiply(x.scale(sc("v")), y) == d1.multiply(x, y).scale(sc("v"))


def test_multiply_rejects_foreign_graded(d0, a1_f2):
    wrong_t = stalk(a1_f2, 1, k_class(a1_f2, 1))
    with pytest.raises(IncompatibleObjects):
        d0.multiply_graded(wrong_t, wrong_t)


# -- frozen products ---------------------------------------------------------------


def test_t0_squares_of_the_generator(d0, a1_f2):
    zk = d0.stalk(k_class(a1_f2, 1))
    k2 = d0.stalk(k_class(a1_f2, 2))
    assert d0.multiply_graded(zk, zk) == vec(d0, (k2, "3"))


def test_t0_shifted_products(d0, a1_f2):
    k = k_class(a1_f2, 1)
    down = d0.multiply_graded(d0.stalk(k, 1), d0.stalk(k, 0))
    both = graded_object(0, 1, [(0, k), (1, k)])
    assert down == vec(d0, (both, "1"))
    up = d0.multiply_graded(d0.stalk(k, 0), d0.stalk(k, 1))
    assert up == vec(d0, (d0.unit_graded(), "1"), (both, "1/2"))


def test_t1_square_of_the_generator(d1, a1_f2):
    zk = d1.stalk(k_class(a1_f2, 1))
    k2 = d1.stalk(k_class(a1_f2, 2))
    out = d1.multiply_graded(zk, zk)
    assert out == vec(d1, (d1.unit_graded(), "0 + 1*v"), (k2, "0 + 3/2*v"))


def test_t1_mixed_products_commute_here(d1, a1_f2):
    zk = d1.stalk(k_class(a1_f2, 1))
    zk2 = d1.stalk(k_class(a1_f2, 2))
    zk3 = d1.stalk(k_class(a1_f2, 3))
    expected = vec(d1, (zk, "1"), (zk3, "7/2"))
    assert d1.multiply_graded(zk2, zk) == expected
    assert d1.multiply_graded(zk, zk2) == expected


def test_t3_frozen_products(d3, a1_f2):
    k = k_class(a1_f2, 1)
    k2 = k_class(a1_f2, 2)
    zk = d3.stalk(k, 0)
    sq = d3.multiply_graded(zk, zk)
    assert sq == vec(d3, (d3.stalk(k2, 0), "0 + 3/2*v"))
    pair = graded_object(3, 1, [(0, k), (1, k)])
    assert d3.multiply_graded(d3.stalk(k, 1), zk) == vec(d3, (pair, "0 + 1*v"))
    mixed = graded_object(3, 1, [(0, k2), (1, k)])
    assert (d3.multiply_graded(d3.stalk(k2, 0), d3.stalk(k, 1))
            == vec(d3, (d3.stalk(k, 0), "1"), (mixed, "1/2")))
    assert (d3.multiply_graded(zk, pair)
            == vec(d3, (d3.stalk(k, 0), "1"), (mixed, "3/2")))


def test_t3_frozen_triple_product(d3, a1_f2):
    k = k_class(a1_f2, 1)
    out = d3.product_of([d3.stalk(k, 0), d3.stalk(k, 0), d3.stalk(k, 1)])
    mixed = graded_object(3, 1, [(0, k_class(a1_f2, 2)), (1, k)])
    assert out == vec(d3, (d3.stalk(k, 0), "0 + 3/2*v"), (mixed, "0 + 3/4*v"))


def test_a2_t0_simple_stalk_product(a2_f2):
    dh = DerivedHall(a2_f2, 0)
    s1 = a2_f2.classes((1, 0))[0]
    s2 = a2_f2.classes((0, 1))[0]
    out = dh.multiply_graded(dh.stalk(s1, 1), dh.stalk(s2, 0))
    both = graded_object(0, 2, [(0, s2), (1, s1)])
    assert out == vec(dh, (both, "1"))


def test_t0_coefficients_are_rational(d0, a1_f2):
    objects = graded_objects_within(a1_f2, 0, 3)
    for a, b in itertools.product(objects, repeat=2):
        for _, c in d0.multiply_graded(a, b).items():
            assert c.b == 0, (a, b, c)


def signed_dims(g):
    out = [0] * g.n_vertices
    for deg, cls in g.components:
        sgn = -1 if deg % 2 else 1
        for v, d in enumerate(cls.dims):
            out[v] += sgn * d
    return tuple(out)


def test_t0_product_conserves_signed_dims(d0, a1_f2):
    objects = graded_objects_within(a1_f2, 0, 3)
    for a, b in itertools.product(objects, repeat=2):
        want = tuple(x + y for x, y in zip(signed_dims(a), signed_dims(b)))
        for g, _ in d0.multiply_graded(a, b).items():
            assert signed_dims(g) == want, (a, b, g)


# -- normalization constants --------------------------------------------------------


def test_a_prime_values(d1, a1_f2):
    zk = d1.stalk(k_class(a1_f2, 1))
    assert d1.a_prime(zk) == sc("0 + 1/2*v")
    assert d1.a_prime(d1.stalk(k_class(a1_f2, 2))) == sc("3/2")
    assert d1.a_prime(d1.unit_graded()) == sc("1")


def test_a_prime_conventions_differ(d1, a1_f2):
    zk = d1.stalk(k_class(a1_f2, 1))
    assert a_prime_by_endomorphisms(d1, zk) == sc("0 + 1*v")
    assert a_prime_by_endomorphisms(d1, zk) != d1.a_prime(zk)


def test_a_prime_needs_odd_period(d0, a1_f2):
    with pytest.raises(UnsupportedPeriod):
        d0.a_prime(d0.unit_graded())


def test_a_prime_rejects_a_bracket_that_is_no_q_power(monkeypatch):
    # The product's integer kernel reads a' through the same pure-power check.
    dh = DerivedHall(ClassRegistry(line_quiver(1), 2), 1)
    monkeypatch.setattr(dh, "bracket", lambda x, y: Fraction(3, 2))
    k = dh.stalk(dh.reg.classes((1,))[0])
    with pytest.raises(NotAPureQPower):
        dh.a_prime(k)
    with pytest.raises(NotAPureQPower):
        dh.multiply_graded(k, k)


def test_aut_dt_counts(d3, a1_f2):
    k = k_class(a1_f2, 1)
    pair = graded_object(3, 1, [(0, k), (1, k)])
    # |Aut(k)|^2 times the Ext twist between adjacent degrees (trivial on A_1).
    assert d3.aut_dt(pair) == 1
    assert d3.aut_dt(d3.stalk(k_class(a1_f2, 2), 0)) == 6


# -- the product kernel against its former route -----------------------------------------


def _graded_on(reg, t, degrees, max_total):
    """Every graded object with components at some of degrees, of total dim <= max_total."""
    classes = [c for c in reg.all_classes_total_le(max_total) if c.total_dim]
    out = []
    for r in range(len(degrees) + 1):
        for degs in itertools.combinations(degrees, r):
            for comps in itertools.product(classes, repeat=r):
                if sum(c.total_dim for c in comps) <= max_total:
                    out.append(graded_object(t, reg.quiver.n, list(zip(degs, comps))))
    return out


@pytest.mark.parametrize("n_vertices,max_total", [(1, 3), (2, 2)])
@pytest.mark.parametrize("t", [0, 1, 3, 5])
def test_product_kernel_matches_frontier_judge(n_vertices, max_total, t):
    """multiply_graded equals the frontier DP over every degree, exactly, for
    every ordered pair of objects of total dim <= 2 on A2 (71 objects at
    t = 5) and <= 3 on A1, where chains such as [k1@0, k1@1, k1@2]^2 have
    no degree with a single s candidate.  At t = 0 the degrees are {0, 1, 3},
    so supports such as [k1@0]·[k1@3] and [k1@0, k1@3] leave interior
    degrees where both factors are zero."""
    reg = ClassRegistry(line_quiver(n_vertices), 2)
    dh = DerivedHall(reg, t)
    objs = (_graded_on(reg, 0, (0, 1, 3), max_total) if t == 0
            else graded_objects_within(reg, t, max_total))
    for a, b in itertools.product(objs, repeat=2):
        assert dh.multiply_graded(a, b) == frontier_product(dh, a, b), (a, b)


@pytest.mark.parametrize("t", [0, 1, 3, 5])
def test_bracket_is_the_shiftwise_hom_product(a1_f2, a2_f2, t):
    """{X, Y} equals prod_i hom_dt_count(X, Y, i)^{(-1)^i} over its shift range;
    at t = 0 the supports reach below zero and leave gaps."""
    for reg in (a1_f2, a2_f2):
        dh = DerivedHall(reg, t)
        objs = (_graded_on(reg, 0, (-2, 0, 1, 3), 2) if t == 0
                else graded_objects_within(reg, t, 2))
        for x, y in itertools.product(objs, repeat=2):
            assert dh.bracket(x, y) == bracket_by_shifts(reg, x, y), (x, y)


# -- associativity and cross-check routes ---------------------------------------------


@pytest.mark.parametrize("t", [0, 1, 3])
def test_associativity_small_sweep(a1_f2, t):
    dh = DerivedHall(a1_f2, t)
    objects = graded_objects_within(a1_f2, t, 2)
    for a, b, c in itertools.product(objects, repeat=3):
        res = dh.assoc_check(a, b, c)
        assert res.ok, (t, a, b, c, res.mismatches)


@pytest.mark.parametrize("t", [0, 1, 3, 5])
def test_product_commutes_with_shift(a2_f2, t):
    # Shifting both factors shifts every term of the product: the benchmark
    # digest undoes its per-round shifts on this symmetry.
    shifts = (-2, -1, 1, 2) if t == 0 else range(1, max(t, 2))
    dh = DerivedHall(a2_f2, t)
    objects = graded_objects_within(a2_f2, t, 2)
    for a, b in itertools.product(objects, repeat=2):
        prod = dh.multiply_graded(a, b)
        for s in shifts:
            want = HallVector(dh.q, {g.shift(s): c for g, c in prod.terms.items()})
            assert dh.multiply_graded(a.shift(s), b.shift(s)) == want, (t, s, a, b)


def test_associativity_a2_spot(a2_f2):
    dh = DerivedHall(a2_f2, 1)
    s1 = dh.stalk(a2_f2.classes((1, 0))[0])
    s2 = dh.stalk(a2_f2.classes((0, 1))[0])
    p1 = dh.stalk(a2_f2.classes((1, 1))[1])
    assert dh.assoc_check(s1, s2, p1).ok
    assert dh.assoc_check(s2, p1, s1).ok


@pytest.mark.parametrize("t", [0, 1])
def test_theorem_crosscheck_sweep(a1_f2, t):
    dh = DerivedHall(a1_f2, t)
    objects = graded_objects_within(a1_f2, t, 2)
    for a, b in itertools.product(objects, repeat=2):
        res = dh.theorem_crosscheck(a, b)
        assert res.ok, (t, a, b, res.mismatches)


def test_theorem_crosscheck_a2_spot(a2_f2):
    dh = DerivedHall(a2_f2, 0)
    s1 = dh.stalk(a2_f2.classes((1, 0))[0], 1)
    s2 = dh.stalk(a2_f2.classes((0, 1))[0], 0)
    assert dh.theorem_crosscheck(s1, s2).ok
    assert dh.theorem_crosscheck(s2, s1).ok


def test_theorem_crosscheck_needs_known_route(d3, a1_f2):
    zk = d3.stalk(k_class(a1_f2, 1))
    with pytest.raises(UnsupportedPeriod):
        d3.theorem_crosscheck(zk, zk)


def test_dht_constant_oracle_values(d1, a1_f2):
    zk = d1.stalk(k_class(a1_f2, 1))
    zk2 = d1.stalk(k_class(a1_f2, 2))
    assert d1.dht_constant_oracle_t1(zk, zk, zk2) == sc("0 + 3/2*v")
    assert d1.dht_constant_oracle_t1(zk, zk, d1.unit_graded()) == sc("0 + 1*v")
    assert d1.dht_constant_oracle_t1(zk, zk, zk) == QSqrtScalar.zero(2)


def test_dht_oracle_needs_period_one(d0, a1_f2):
    zk = d0.stalk(k_class(a1_f2, 1))
    with pytest.raises(UnsupportedPeriod):
        d0.dht_constant_oracle_t1(zk, zk, zk)


# -- presentation relation families ------------------------------------------------


def generator_classes(reg, bound=2):
    out = []
    for n in range(1, bound + 1):
        out.extend(reg.classes((n,)))
    return out


def test_relation_families_a1(a1_f2):
    classes = generator_classes(a1_f2)
    for family in RELATION_FAMILIES:
        for a_cls in classes:
            for b_cls in classes:
                res = relation_check(a1_f2, family, a_cls, b_cls)
                assert res.ok, (family, a_cls, b_cls, res.mismatches)


def test_relation_families_a2_spot(a2_f2):
    s1 = a2_f2.classes((1, 0))[0]
    s2 = a2_f2.classes((0, 1))[0]
    for family in RELATION_FAMILIES:
        assert relation_check(a2_f2, family, s1, s2).ok, family
        assert relation_check(a2_f2, family, s2, s1).ok, family


def test_relation_far_commutation_offsets(a1_f2):
    k = k_class(a1_f2, 1)
    assert relation_check(a1_f2, "dh0_45", k, k, offset=3).ok
    for off in (2, 3):
        assert relation_check(a1_f2, "dht_r3", k, k, offset=off).ok
    for off in (2, 3, 4, 5):
        assert relation_check(a1_f2, "dht_r3", k, k, offset=off, t=7).ok


def test_relation_far_commutation_rejects_wraparound_gap(a1_f2):
    """Gap t-1 is cyclically adjacent: [k@t-1][k@0] picks up extension terms
    that [k@0][k@t-1] lacks, so no scalar commutation can hold there."""
    k = k_class(a1_f2, 1)
    dh = DerivedHall(a1_f2, 5)
    lhs = dh.multiply_graded(dh.stalk(k, 0), dh.stalk(k, 4))
    rhs = dh.multiply_graded(dh.stalk(k, 4), dh.stalk(k, 0))
    assert dh.unit_graded() not in lhs.terms
    assert rhs.coeff(dh.unit_graded()) == sc("0 + 1*v")
    with pytest.raises(IncompatibleObjects):
        relation_check(a1_f2, "dht_r3", k, k, offset=4)


def test_relation_endo_convention_is_flagged(a1_f2):
    k = k_class(a1_f2, 1)
    res = relation_check(a1_f2, "dh1_re1", k, k)
    assert res.ok
    assert product_by_endomorphisms(a1_f2, k, k) != res.lhs


def test_relation_unknown_family(a1_f2):
    k = k_class(a1_f2, 1)
    with pytest.raises(IncompatibleObjects):
        relation_check(a1_f2, "dh2_nope", k, k)


# -- generator-word rewriting --------------------------------------------------------


def test_word_rewriting_frozen_a2(a2_f2):
    dh = DerivedHall(a2_f2, 0)
    s1 = a2_f2.classes((1, 0))[0]
    s2 = a2_f2.classes((0, 1))[0]
    out = dh.normalize_generator_word(((s2, 0), (s1, 2)))
    target = graded_object(0, 2, [(0, s2), (2, s1)])
    assert out == vec(dh, (target, "1/2"))


def test_word_rewriting_descending_is_basis(d0, a1_f2):
    k = k_class(a1_f2, 1)
    out = d0.normalize_generator_word(((k, 2), (k, 0)))
    assert out == vec(d0, (graded_object(0, 1, [(0, k), (2, k)]), "1"))


def test_word_rewriting_same_degree_is_product(d0, a1_f2):
    k = k_class(a1_f2, 1)
    assert (d0.normalize_generator_word(((k, 0), (k, 0)))
            == d0.multiply_graded(d0.stalk(k, 0), d0.stalk(k, 0)))


def test_word_rewriting_drops_zero_letters(d0, a1_f2):
    k = k_class(a1_f2, 1)
    z = a1_f2.zero_class()
    assert (d0.normalize_generator_word(((z, 1), (k, 0)))
            == vec(d0, (d0.stalk(k, 0), "1")))


def test_word_rewriting_matches_products(d0, a1_f2):
    """Concatenating decompositions and rewriting reproduces the product."""
    objects = graded_objects_within(a1_f2, 0, 2)
    for a, b in itertools.product(objects, repeat=2):
        word = d0.decompose_graded(a) + d0.decompose_graded(b)
        assert d0.normalize_generator_word(word) == d0.multiply_graded(a, b), (a, b)


def test_word_rewriting_budget(d0, a1_f2):
    k = k_class(a1_f2, 1)
    with pytest.raises(RewriteBudgetExceeded):
        d0.normalize_generator_word(((k, 0), (k, 1), (k, 2)), budget=1)


def test_word_rewriting_is_t0_only(d1, a1_f2):
    k = k_class(a1_f2, 1)
    with pytest.raises(UnsupportedPeriod):
        d1.normalize_generator_word(((k, 0),))


def test_memo_hit_assoc_pass_builds_no_fraction(a2_f2, monkeypatch):
    """Scalars are integer triples: once the products are memoized, a second
    pass of t = 5 associativity checks builds no Fraction at all."""
    dh = DerivedHall(a2_f2, 5)
    objs = graded_objects_within(a2_f2, 5, 2)
    n = len(objs)
    codes = random.Random(5).sample(range(n ** 3), 200)
    triples = [(objs[c // (n * n)], objs[c // n % n], objs[c % n]) for c in codes]
    for a, b, c in triples:
        assert dh.assoc_check(a, b, c).ok
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for a, b, c in triples:
        assert dh.assoc_check(a, b, c).ok
    monkeypatch.undo()
    assert not built, f"{len(built)} Fractions built, the first from {built[0]}"

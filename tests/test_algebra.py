"""Derived Hall algebra products, presentations, rewriting, and cross-checks."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from hallforge import algebra, complexes
from hallforge.algebra import (RELATION_FAMILIES, DerivedHall, HallVector,
                               relation_check)
from hallforge.complexes import cone_counts, graded_object, stalk
from hallforge.errors import IncompatibleObjects, RewriteBudgetExceeded, UnsupportedPeriod
from hallforge.quivers import line_quiver
from hallforge.reps import ClassRegistry
from hallforge.scalars import QSqrtScalar, parse_scalar
from hallforge.cli import graded_objects_within

from .oracles import (a_prime_by_endomorphisms, aut_dt_by_components, bracket,
                      bracket_by_shifts, frontier_product, multiply_by_pairs,
                      product_by_endomorphisms, q_power_exponent)


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
    y = x.add(HallVector.basis(2, g).scale(-1))
    assert g not in y.terms and y.coeff(h) == sc("1")
    assert x.add(x.scale(-1)).is_zero()


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
    # The product memo is read before the check: a warm memo lets nothing foreign through.
    zk = d0.stalk(k_class(a1_f2, 1))
    assert not d0.multiply_graded(zk, zk).is_zero()
    wrong_t = stalk(a1_f2, 1, k_class(a1_f2, 1))
    with pytest.raises(IncompatibleObjects):
        d0.multiply_graded(wrong_t, wrong_t)


def test_compare_lists_exactly_the_differing_keys(d0, a1_f2):
    k, k2 = k_class(a1_f2, 1), k_class(a1_f2, 2)
    g1, g2 = d0.stalk(k), d0.stalk(k2)
    g3 = graded_object(0, 1, [(0, k), (1, k)])
    g4 = graded_object(0, 1, [(-1, k2), (1, k)])
    lhs = vec(d0, (g1, "1"), (g2, "2"), (g3, "v"))
    assert algebra._compare("x", lhs, vec(d0, (g3, "v"), (g2, "2"), (g1, "1"))) == \
        ("x", True, lhs, vec(d0, (g1, "1"), (g2, "2"), (g3, "v")), ())
    rhs = vec(d0, (g1, "1"), (g2, "3"), (g4, "1"))
    res = algebra._compare("x", lhs, rhs)
    assert not res.ok and (res.lhs, res.rhs) == (lhs, rhs)
    # g2 differs, g3 is on the left only and g4 on the right only; by degree then class.
    assert res.mismatches == (g4, g3, g2)
    assert res.mismatches == tuple(sorted({g2, g3, g4}, key=algebra._graded_sort_key))
    # An explicit zero coefficient is the same vector as a missing key.
    zero = QSqrtScalar.zero(2)
    padded = HallVector._nonzero(2, {**lhs.terms, g4: zero})
    assert algebra._compare("x", padded, lhs) == ("x", True, padded, lhs, ())
    assert algebra._compare("x", lhs, padded).ok


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


def test_a_prime_parts_are_the_shiftwise_exponents(kronecker_f2):
    """The integer parts (prod |Aut g_i|, e_g) of a' for every graded object of
    total dim <= 2 on A1, A2 and Kronecker at t = 1, 3, 5, with twist the sum
    over degrees d of dim Ext^1(g_d, g_{d-1}): prod |Aut g_i| q^twist is
    |Aut_{D_t}| by components, and e_g - 2 twist the q-exponent of the bracket
    multiplied over the shifts."""
    registries = [ClassRegistry(line_quiver(n_vertices), 2) for n_vertices in (1, 2)]
    for reg, t in itertools.product(registries + [kronecker_f2], (1, 3, 5)):
        dh = DerivedHall(reg, t)
        for g in graded_objects_within(reg, t, 2):
            _assert_a_prime_parts(reg, g, *dh._a_prime_parts(g))


def _assert_a_prime_parts(reg, g, aut, e):
    """(aut, e) are g's a' parts: aut times q^twist is |Aut_{D_t}| by components
    and e - 2 twist the q-exponent of the bracket multiplied over the shifts."""
    twist = sum(reg.hom_ext_dims(cls, g.component(deg - 1))[1]
                for deg, cls in g.components if g.component(deg - 1) is not None)
    assert aut * reg.p ** twist == aut_dt_by_components(reg, g), g
    assert e - 2 * twist == q_power_exponent(bracket_by_shifts(reg, g, g), reg.p), g


def test_products_with_a_zero_factor_are_not_stored():
    # The unsampled A2 `dha-assoc --t 3 --max-dim 2` sweep: every triple
    # passes, and of its 17,639 distinct products the 599 with a zero factor
    # are each the other factor's basis vector, built per call, not stored.
    reg = ClassRegistry(line_quiver(2), 2)
    dh = DerivedHall(reg, 3)
    objs = graded_objects_within(reg, 3, 2)
    zero = next(g for g in objs if g.is_zero())
    assert all(dh.assoc_check(a, b, c).ok for a, b, c in itertools.product(objs, repeat=3))
    stored = reg.memo(("dha_mul", 3))
    assert not [(a, b) for a, b in stored if a.is_zero() or b.is_zero()]
    assert len(stored) == 17639 - 599
    for g in objs:
        assert dh.multiply_graded(zero, g) == dh.multiply_graded(g, zero) \
            == HallVector.basis(reg.p, g)
    assert len(stored) == 17639 - 599


@pytest.mark.parametrize("t", [3, 5])
def test_stored_products_share_their_terms_and_coefficients(t):
    """After an A2 associativity sweep (every triple to total dim 1, then 300
    seeded triples to total dim 2), the products the kernel built hold one
    instance per value: each term is the term table's GradedObject for its
    components, and each coefficient the coefficient table's scalar for its
    (exponent, numerator, denominator), equal to a fresh v_power of them.
    Every term table entry carries g's a' parts.  Products with a zero factor
    hold their other factor itself and are left out."""
    reg = ClassRegistry(line_quiver(2), 2)
    dh = DerivedHall(reg, t)
    small, objs = graded_objects_within(reg, t, 1), graded_objects_within(reg, t, 2)
    rng = random.Random(t)
    triples = list(itertools.product(small, repeat=3))
    triples += [tuple(rng.choice(objs) for _ in range(3)) for _ in range(300)]
    for a, b, c in triples:
        assert dh.assoc_check(a, b, c).ok, (a, b, c)
    built = [v for (x, y), v in reg.memo(("dha_mul", t)).items()
             if not (x.is_zero() or y.is_zero())]
    terms = [g for v in built for g in v.terms]
    coeffs = [x for v in built for x in v.terms.values()]
    table, coeff_table = reg.memo(("dha_term", t)), reg.memo("dha_coeff")
    assert len(built) > 1000 and len(terms) > len(set(terms)) > 100
    assert len({id(g) for g in terms}) == len(set(terms))
    assert all(g is table[g.components][0] for g in terms)
    shared = {id(x) for x in coeff_table.values()}
    assert all(id(x) in shared for x in coeffs) and len(shared) < len(coeffs) // 4
    for (e, w, den), x in coeff_table.items():
        assert x == QSqrtScalar.v_power(reg.p, e, w, den), (e, w, den)
    for xs, (g, aut, e) in table.items():
        assert g == graded_object(t, 2, g.components) and g.components == xs
        _assert_a_prime_parts(reg, g, aut, e)


def test_aut_dt_counts(d3, a1_f2, a2_f2):
    k = k_class(a1_f2, 1)
    pair = graded_object(3, 1, [(0, k), (1, k)])
    # |Aut(k)|^2 times the Ext twist between adjacent degrees (trivial on A_1).
    assert aut_dt_by_components(a1_f2, pair) == 1
    assert aut_dt_by_components(a1_f2, d3.stalk(k_class(a1_f2, 2), 0)) == 6
    # On A_2, Ext^1(k1.0, k0.1) = F_2 twists k1.0 at degree d over k0.1 at d - 1,
    # also across the wrap from degree 0 to t - 1; at t = 1 the split class
    # k1.1 is twisted by its own Ext^1(c, c) = F_2.
    s1, s2 = a2_f2.classes((1, 0))[0], a2_f2.classes((0, 1))[0]
    split = next(c for c in a2_f2.classes((1, 1)) if a2_f2.hom_ext_dims(c, c)[0] == 2)
    cases = [(0, [(1, s1), (0, s2)], 2), (0, [(1, s2), (0, s1)], 1),
             (3, [(1, s1), (0, s2)], 2), (3, [(0, s1), (2, s2)], 2),
             (3, [(0, s2), (2, s1)], 1), (3, [(0, split), (1, split), (2, split)], 8),
             (1, [(0, split)], 2), (1, [(0, s1)], 1)]
    for t, comps, count in cases:
        g = graded_object(t, 2, comps)
        assert aut_dt_by_components(a2_f2, g) == count, g


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


@pytest.mark.parametrize("t,quiver,max_total", [
    (t, n_vertices, max_total) for t in (0, 1, 3, 5) for n_vertices, max_total in ((1, 3), (2, 2))
] + [(0, "kronecker", 2), (3, "kronecker", 2), (5, "kronecker", 2), (3, "d4", 2),
     (0, "a2_f3", 2), (3, "a2_f3", 2), (3, "kronecker_f3", 2)])
def test_product_kernel_matches_frontier_judge(request, t, quiver, max_total):
    """multiply_graded equals the frontier DP over every degree, exactly, with no
    zero coefficient, for every ordered pair of objects of total dim <= 2 on
    A2 (71 objects at t = 5), Kronecker and D4, whose classes arrow ranks do
    not tell apart, and <= 3 on A1, where chains such as [k1@0, k1@1, k1@2]^2
    have no degree with a single s candidate.  At t = 0 the degrees are
    {0, 1, 3}, so supports such as [k1@0]·[k1@3] and [k1@0, k1@3] leave
    interior degrees where both factors are zero.  Over F_3 (A2 at t = 0
    and 3, Kronecker at t = 3) the steps' q-powers are not powers of 2."""
    reg = (ClassRegistry(line_quiver(quiver), 2) if isinstance(quiver, int)
           else request.getfixturevalue(quiver if "_f" in quiver else f"{quiver}_f2"))
    dh = DerivedHall(reg, t)
    objs = (_graded_on(reg, 0, (0, 1, 3), max_total) if t == 0
            else graded_objects_within(reg, t, max_total))
    for a, b in itertools.product(objs, repeat=2):
        product = dh.multiply_graded(a, b)
        assert product == frontier_product(dh, a, b), (a, b)
        assert all(product.terms.values()), (a, b)


@pytest.mark.parametrize("t", [0, 1, 3, 5])
def test_bracket_is_the_shiftwise_hom_product(a1_f2, a2_f2, t):
    """{X, Y} equals prod_i hom_dt_count(X, Y, i)^{(-1)^i} over its shift range;
    at t = 0 the supports reach below zero and leave gaps."""
    for reg in (a1_f2, a2_f2):
        objs = (_graded_on(reg, 0, (-2, 0, 1, 3), 2) if t == 0
                else graded_objects_within(reg, t, 2))
        for x, y in itertools.product(objs, repeat=2):
            assert bracket(reg, x, y) == bracket_by_shifts(reg, x, y), (x, y)


# -- associativity and cross-check routes ---------------------------------------------


@pytest.mark.parametrize("t", [0, 1, 3])
def test_associativity_small_sweep(a1_f2, t):
    dh = DerivedHall(a1_f2, t)
    objects = graded_objects_within(a1_f2, t, 2)
    for a, b, c in itertools.product(objects, repeat=3):
        res = dh.assoc_check(a, b, c)
        assert res.ok, (t, a, b, c, res.mismatches)


@pytest.mark.parametrize("quiver,t,max_total", [
    (n_vertices, t, 2) for n_vertices in (1, 2) for t in (0, 1, 3)] + [("kronecker", 1, 1)])
def test_assoc_check_sums_products_without_basis_vectors(request, monkeypatch, quiver, t,
                                                          max_total):
    """assoc_check sums x [g c] over the terms x g of a b, and x [a h] over those
    of b c: it wraps no factor as a basis vector (the only basis vectors it
    builds are its products with a zero factor), and both sides equal those
    of the pairwise product judge, on every triple of objects of total dim
    <= max_total, or 150 of them where there are more.  (Kronecker stays at
    1: at 2 the inner products reach total dim 6, about 10 s of
    enumeration.)"""
    reg = (ClassRegistry(line_quiver(quiver), 2) if isinstance(quiver, int)
           else request.getfixturevalue(f"{quiver}_f2"))
    dh = DerivedHall(reg, t)
    objs = graded_objects_within(reg, t, max_total)
    triples = list(itertools.product(objs, repeat=3))
    if len(triples) > 150:
        triples = random.Random(t).sample(triples, 150)
    one = QSqrtScalar.one(dh.q)
    # The judge fills the product memo with every pair of nonzero objects
    # assoc_check multiplies, so such a product is read there, not rebuilt.  A
    # product with a zero factor is the other factor's basis vector, which
    # multiply_graded builds on each call and does not store.
    sides = [(multiply_by_pairs(dh, dh.multiply_graded(a, b), HallVector(dh.q, {c: one})),
              multiply_by_pairs(dh, HallVector(dh.q, {a: one}), dh.multiply_graded(b, c)))
             for a, b, c in triples]
    built, zero_products = [], []
    basis, multiply_graded = HallVector.basis, DerivedHall.multiply_graded

    def counted_basis(q, g):
        built.append(g)
        return basis(q, g)

    def counted_multiply(self, x, y, store=True):
        if x.is_zero() or y.is_zero():
            zero_products.append(y if x.is_zero() else x)
        return multiply_graded(self, x, y, store)

    monkeypatch.setattr(HallVector, "basis", staticmethod(counted_basis))
    monkeypatch.setattr(DerivedHall, "multiply_graded", counted_multiply)
    for (a, b, c), (lhs, rhs) in zip(triples, sides):
        res = dh.assoc_check(a, b, c)
        assert (res.ok, res.lhs, res.rhs) == (True, lhs, rhs), (t, a, b, c)
        assert built == zero_products, (t, a, b, c)
    assert zero_products


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


@pytest.mark.parametrize("quiver,t,max_total", [
    (1, 0, 3), (2, 0, 2), (1, 1, 2), (2, 1, 2), (1, 3, 2), (2, 3, 2), ("kronecker", 1, 2)])
def test_engine_built_objects_are_canonical(request, quiver, t, max_total):
    """The engine builds product terms, rewritten words and cones without
    graded_object; each must be the object graded_object makes of its
    components.  The Kronecker row puts the cone oracle on two arrows
    between the same vertices: all 81 pairs to total dim 2."""
    reg = request.getfixturevalue(f"a{quiver}_f2" if isinstance(quiver, int) else f"{quiver}_f2")
    dh = DerivedHall(reg, t)
    objs = graded_objects_within(reg, t, max_total)
    pairs = list(itertools.product(objs, repeat=2))
    built = 0
    for a, b in pairs:
        out = list(dh.multiply_graded(a, b).terms)
        if t == 0:
            out += dh.normalize_generator_word(dh.decompose_graded(a) + dh.decompose_graded(b)).terms
        elif t == 1:
            out += cone_counts(reg, a, b)
        for g in out:
            assert g == graded_object(g.t, g.n_vertices, g.components), (a, b, g)
        built += len(out)
    assert built > len(pairs)


def test_crosscheck_builds_no_graded_object_once_the_inputs_exist(monkeypatch):
    """Validation sits at the boundary: with the inputs built, a cold A2 crosscheck
    sweep (rewriting at t = 0, cones at t = 1) runs with graded_object raising."""
    reg = ClassRegistry(line_quiver(2), 2)
    sweeps = [(DerivedHall(reg, t), graded_objects_within(reg, t, max_total))
              for t, max_total in ((0, 3), (1, 2))]

    def no_graded_object(*args):
        raise AssertionError("the engine re-validated an object it built")
    monkeypatch.setattr(algebra, "graded_object", no_graded_object)
    monkeypatch.setattr(complexes, "graded_object", no_graded_object)
    checked = 0
    for dh, objs in sweeps:
        for a, b in itertools.product(objs, repeat=2):
            res = dh.theorem_crosscheck(a, b)
            assert res.ok, (dh.t, a, b, res.mismatches)
            checked += 1
    assert checked == 2025 + 49
    # The sweeps read the product memo but stored nothing; assoc_check still
    # stores its products, and a crosscheck of a stored pair reuses the vector.
    for dh, objs in sweeps:
        assert reg.memo(("dha_mul", dh.t)) == {}
        a, b, c = objs[1:4]
        assert dh.assoc_check(a, b, c).ok
        stored = reg.memo(("dha_mul", dh.t))
        assert {(a, b), (b, c)} <= stored.keys()
        assert dh.theorem_crosscheck(a, b).lhs is stored[a, b]


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
    oracle = d1.rp_product_t1(zk, zk)
    assert oracle.coeff(zk2) == sc("0 + 3/2*v")
    assert oracle.coeff(d1.unit_graded()) == sc("0 + 1*v")
    assert oracle.coeff(zk) == QSqrtScalar.zero(2)


def test_dht_oracle_needs_period_one(d0, a1_f2):
    zk = d0.stalk(k_class(a1_f2, 1))
    with pytest.raises(UnsupportedPeriod):
        d0.rp_product_t1(zk, zk)


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


@pytest.mark.parametrize("setup", ["kronecker_f2", "a3_f2", "d4_f2", "a2_f3"])
def test_relation_families_sweep(request, setup):
    """Every family on every pair of classes of total dim <= 2, based at degree 1
    (the relations command bases them at 0), at both far-commutation offsets."""
    reg = request.getfixturevalue(setup)
    classes = [c for c in reg.all_classes_total_le(2) if c.total_dim]
    for family in RELATION_FAMILIES:
        for a_cls, b_cls in itertools.product(classes, repeat=2):
            for offset in (2, 3) if family in ("dh0_45", "dht_r3") else (2,):
                res = relation_check(reg, family, a_cls, b_cls, degree=1, offset=offset)
                assert res.ok, (family, a_cls, b_cls, offset, res.mismatches)


@pytest.mark.parametrize("setup", ["a2_f2", "kronecker_f2"])
def test_pair_rule_words_descend_at_t0(request, setup):
    """Each t = 0 rule leaves a word the rewriting has finished with: degrees
    strictly descending and no zero letter."""
    reg = request.getfixturevalue(setup)
    dh = DerivedHall(reg, 0)
    classes = [c for c in reg.all_classes_total_le(2) if c.total_dim]
    for left, right in itertools.product(classes, repeat=2):
        for gap in range(4):
            terms = dh._pair_rule(left, 1, right, 1 + gap)
            assert terms, (left, right, gap)
            for word, c in terms:
                assert c and all(cls.total_dim for cls, _deg in word), (left, right, gap)
                assert all(d > d_next for (_c, d), (_c2, d_next) in zip(word, word[1:]))


def test_pair_rule_memo_gives_the_same_results_cold_and_warm():
    """One registry serves the rules at t = 0, 3 and 5, as the relations command
    uses it: every relation_check and rewrite gives the same result with the
    rule memos emptied before it as with all three memos filled."""
    reg = ClassRegistry(line_quiver(2), 2)
    classes = [c for c in reg.all_classes_total_le(2) if c.total_dim]
    memos = [reg.memo(("pair_rule", t)) for t in (0, 3, 5)]
    checks = [(family, a, b, offset) for family in RELATION_FAMILIES if family != "dh1_re1"
              for a, b in itertools.product(classes, repeat=2)
              for offset in ((2, 3) if family in ("dh0_45", "dht_r3") else (2,))]
    words = [((a, n), (b, m), (a, 1)) for a, b in itertools.product(classes, repeat=2)
             for n, m in ((0, 0), (0, 1), (1, 0), (0, 2))]

    def results(cold: bool) -> list:
        out = []
        for family, a, b, offset in checks:
            if cold:
                for memo in memos:
                    memo.clear()
            out.append(relation_check(reg, family, a, b, degree=1, offset=offset, t=5))
        for word in words:
            if cold:
                memos[0].clear()
            out.append(DerivedHall(reg, 0).normalize_generator_word(word))
        return out

    cold = results(cold=True)
    assert all(res.ok for res in cold[:len(checks)])
    results(cold=False)
    assert all(memos)
    assert results(cold=False) == cold


def test_a_second_rewrite_reads_every_rule_from_the_memo(monkeypatch):
    reg = ClassRegistry(line_quiver(2), 2)
    calls = []

    def counting(name):
        f = getattr(algebra, name)

        def wrapper(*args):
            calls.append(name)
            return f(*args)
        return wrapper

    for name in ("hall_number", "gamma_terms"):
        monkeypatch.setattr(algebra, name, counting(name))
    s1, s2 = (reg.classes(d)[0] for d in ((1, 0), (0, 1)))
    word = ((s1, 0), (s2, 1), (s1, 1), (s2, 1))
    first = DerivedHall(reg, 0).normalize_generator_word(word)
    assert {"hall_number", "gamma_terms"} <= set(calls)
    calls.clear()
    assert DerivedHall(reg, 0).normalize_generator_word(word) == first
    assert calls == []


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


def test_word_rewriting_budget(d0, a1_f2, monkeypatch):
    k = k_class(a1_f2, 1)
    monkeypatch.setattr(algebra, "DEFAULT_REWRITE_BUDGET", 1)
    with pytest.raises(RewriteBudgetExceeded):
        d0.normalize_generator_word(((k, 0), (k, 1), (k, 2)))


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

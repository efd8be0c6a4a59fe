"""Periodic complexes: validation, homology, chain-level and derived counting."""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from hallforge import (
    EnumerationTooLarge,
    IncompatibleObjects,
    Mat,
    UnsupportedPeriod,
    alt_hom_explicit,
    alt_hom_product,
    aut_ct_count,
    check_period,
    class_at_or_zero,
    complex_obj,
    dt_hom_with_cone_count,
    enumerate_complex_classes,
    ext1_ct_middle_count,
    format_graded,
    graded_object,
    hall_number_ct,
    hom_ct_count,
    hom_dt_count,
    homology,
    parse_graded,
    stalk,
    zero_diff_complex,
)
from hallforge.cli import graded_objects_within
from hallforge.linalg import rank
from hallforge.quivers import dims_sub, subdimvecs

from .oracles import chain_maps_by_enumeration, hall_number_ct_injection_oracle


def k_class(reg, n):
    return reg.classes((n,))[0]


def nilpotent_square(reg):
    """The period-1 complex (k^2, d) with d of rank one and d^2 = 0."""
    rep = reg.representative(k_class(reg, 2))
    d = Mat(reg.p, 2, 2, ((0, 0), (1, 0)))
    return complex_obj(1, reg.quiver, reg.p, {0: rep}, {0: (d,)})


# -- periods and graded objects ------------------------------------------------


def test_check_period_accepts_zero_and_odd():
    for t in (0, 1, 3, 5, 7):
        check_period(t)


@pytest.mark.parametrize("t", [2, 4, -1, -3])
def test_check_period_rejects_even_and_negative(t):
    with pytest.raises(UnsupportedPeriod):
        check_period(t)


def test_graded_object_basics(a1_f2):
    k = k_class(a1_f2, 1)
    g = graded_object(0, 1, [(2, k), (0, k)])
    assert g.components == ((0, k), (2, k))
    assert g.support == (0, 2)
    assert g.total_dim == 2
    assert not g.is_zero()
    assert g.component(2) == k and g.component(1) is None
    assert g.dims_at(0) == (1,) and g.dims_at(5) == (0,)


def test_graded_object_drops_zero_classes(a1_f2):
    z = a1_f2.zero_class()
    g = graded_object(0, 1, [(0, z), (3, z)])
    assert g.is_zero() and g.components == ()


def test_graded_object_reduces_degrees_mod_t(a1_f2):
    k = k_class(a1_f2, 1)
    g = graded_object(3, 1, [(4, k)])
    assert g.support == (1,)
    # Distinct input degrees may collide after reduction; that is an error.
    with pytest.raises(IncompatibleObjects):
        graded_object(3, 1, [(0, k), (3, k)])


def test_shift_moves_components_down(a1_f2):
    k = k_class(a1_f2, 1)
    g = stalk(a1_f2, 0, k, deg=0)
    assert g.shift(1).support == (-1,)
    assert g.shift(-2).support == (2,)
    # Period 1 identifies all shifts.
    h = stalk(a1_f2, 1, k, deg=0)
    assert h.shift(1) == h


def test_class_at_or_zero(a1_f2):
    k = k_class(a1_f2, 1)
    g = stalk(a1_f2, 0, k, deg=1)
    assert class_at_or_zero(a1_f2, g, 1) == k
    assert class_at_or_zero(a1_f2, g, 0) == a1_f2.zero_class()


# -- formatting and parsing ----------------------------------------------------


def test_format_parse_roundtrip(a1_f2):
    k = k_class(a1_f2, 1)
    k2 = k_class(a1_f2, 2)
    g = graded_object(0, 1, [(0, k2), (2, k)])
    text = format_graded(a1_f2, g)
    assert text == "[k2@0, k1@2]"
    assert parse_graded(a1_f2, 0, text) == g
    assert parse_graded(a1_f2, 0, "[]").is_zero()
    assert format_graded(a1_f2, parse_graded(a1_f2, 0, "[]")) == "[]"


def test_format_parse_with_index_suffix(a2_f2):
    cls = a2_f2.classes((1, 1))[1]
    g = stalk(a2_f2, 0, cls, deg=0)
    text = format_graded(a2_f2, g)
    assert text == "[k1.1#1@0]"
    assert parse_graded(a2_f2, 0, text) == g


def test_parse_graded_sums_repeated_degrees(a1_f2):
    g = parse_graded(a1_f2, 0, "[k1@0, k1@0]")
    assert g == stalk(a1_f2, 0, k_class(a1_f2, 2), deg=0)


def test_parse_graded_reduces_degrees(a1_f2):
    g = parse_graded(a1_f2, 1, "[k1@3]")
    assert g.support == (0,)


@pytest.mark.parametrize("text", ["k1@0", "[k1]", "[k1@x]", "[nope@0]"])
def test_parse_graded_rejects_malformed(a1_f2, text):
    with pytest.raises(IncompatibleObjects):
        parse_graded(a1_f2, 0, text)


# -- complexes and validation ---------------------------------------------------


def test_complex_obj_drops_zero_parts(a1_f2):
    rep = a1_f2.representative(k_class(a1_f2, 1))
    # The zero differential k -> 0 is a 0x1 matrix.
    zero_d = (Mat.zeros(2, 0, 1),)
    c = complex_obj(0, a1_f2.quiver, 2, {0: rep, 1: a1_f2.representative(a1_f2.zero_class())},
                    {0: zero_d})
    assert c.components == ((0, rep),)
    assert c.differentials == ()


def test_validate_checks_zero_differentials_before_dropping_them(a1_f2):
    rep = a1_f2.representative(k_class(a1_f2, 1))
    q = a1_f2.quiver
    with pytest.raises(IncompatibleObjects, match="one matrix per vertex"):
        complex_obj(0, q, 2, {0: rep}, {0: ()})
    with pytest.raises(IncompatibleObjects, match="bad shape"):
        complex_obj(1, q, 2, {0: rep}, {0: (Mat.zeros(2, 3, 3),)})
    # Degree 1 has no component, so a 1x1 differential there is misshapen.
    with pytest.raises(IncompatibleObjects, match="bad shape"):
        complex_obj(0, q, 2, {0: rep}, {1: (Mat.zeros(2, 1, 1),)})
    # Degrees 0 and 1 are one degree at t = 1, where the zero map would replace d.
    d = nilpotent_square(a1_f2).differentials[0][1]
    with pytest.raises(IncompatibleObjects, match="share degree"):
        complex_obj(1, q, 2, {0: a1_f2.representative(k_class(a1_f2, 2))},
                    {0: d, 1: (Mat.zeros(2, 2, 2),)})
    # Without validation the zero parts are still dropped.
    c = complex_obj(0, q, 2, {0: rep}, {0: ()}, validate=False)
    assert c.differentials == ()


def test_validate_rejects_bad_shape(a1_f2):
    rep2 = a1_f2.representative(k_class(a1_f2, 2))
    rep1 = a1_f2.representative(k_class(a1_f2, 1))
    bad = (Mat(2, 2, 2, ((1, 0), (0, 0))),)
    with pytest.raises(IncompatibleObjects):
        complex_obj(0, a1_f2.quiver, 2, {0: rep2, 1: rep1}, {0: bad})


def test_validate_rejects_nonsquarezero(a1_f2):
    rep = a1_f2.representative(k_class(a1_f2, 1))
    d = (Mat.identity(2, 1),)
    with pytest.raises(IncompatibleObjects):
        complex_obj(1, a1_f2.quiver, 2, {0: rep}, {0: d})


def test_validate_rejects_nonmorphism_differential(a2_f2):
    cls = a2_f2.classes((1, 1))[1]
    rep = a2_f2.representative(cls)
    assert not rep.mats[0].is_zero()
    mor = (Mat.identity(2, 1), Mat.zeros(2, 1, 1))
    with pytest.raises(IncompatibleObjects):
        complex_obj(0, a2_f2.quiver, 2, {0: rep, 1: rep}, {0: mor})


# -- homology -------------------------------------------------------------------


def test_homology_of_zero_differentials_is_the_object(a1_f2):
    g = graded_object(0, 1, [(0, k_class(a1_f2, 2)), (1, k_class(a1_f2, 1))])
    assert homology(a1_f2, zero_diff_complex(a1_f2, g)) == g


def test_homology_of_contractible_period_one(a1_f2):
    assert homology(a1_f2, nilpotent_square(a1_f2)).is_zero()


def test_homology_of_two_term_identity(a1_f2):
    rep = a1_f2.representative(k_class(a1_f2, 1))
    c = complex_obj(0, a1_f2.quiver, 2, {0: rep, 1: rep}, {0: (Mat.identity(2, 1),)})
    assert homology(a1_f2, c).is_zero()


def test_homology_detects_rank(a1_f2):
    # Square-zero endomorphisms of k^4 have rank r <= 2 and homology k^(4-2r).
    classes = enumerate_complex_classes(a1_f2, 1, [(4,)])
    hom_totals = sorted(homology(a1_f2, c).total_dim for c in classes)
    assert hom_totals == [0, 2, 4]


# -- enumeration of complex classes ----------------------------------------------


def test_complex_classes_dim2_period1(a1_f2):
    classes = enumerate_complex_classes(a1_f2, 1, [(2,)])
    assert len(classes) == 2
    assert classes[0].differentials == ()  # the split class comes first
    assert classes is enumerate_complex_classes(a1_f2, 1, [(2,)])  # memoized


def test_complex_classes_dim4_period1(a1_f2):
    assert len(enumerate_complex_classes(a1_f2, 1, [(4,)])) == 3


def test_complex_classes_two_term_bounded(a1_f2):
    # d: k -> k is either zero or invertible; two classes.
    assert len(enumerate_complex_classes(a1_f2, 0, [(1,), (1,)])) == 2


def test_complex_classes_need_t_dims(a1_f2):
    with pytest.raises(IncompatibleObjects):
        enumerate_complex_classes(a1_f2, 3, [(1,)])


def test_complex_classes_bound(a1_f2):
    with pytest.raises(EnumerationTooLarge):
        enumerate_complex_classes(a1_f2, 1, [(5,)], bound=100)


# -- chain-level counting --------------------------------------------------------


def test_hom_ct_counts(a1_f2):
    x = nilpotent_square(a1_f2)
    s = zero_diff_complex(a1_f2, stalk(a1_f2, 1, k_class(a1_f2, 1)))
    # Maps out of x kill the image of d; maps into x land in its kernel.
    assert hom_ct_count(x, s) == 2
    assert hom_ct_count(s, x) == 2
    split = zero_diff_complex(a1_f2, stalk(a1_f2, 1, k_class(a1_f2, 2)))
    assert hom_ct_count(split, s) == 4


def test_aut_ct_counts(a1_f2):
    split = zero_diff_complex(a1_f2, stalk(a1_f2, 1, k_class(a1_f2, 2)))
    assert aut_ct_count(a1_f2, split) == 6
    assert aut_ct_count(a1_f2, nilpotent_square(a1_f2)) == 2


def test_hall_number_ct_values(a1_f2):
    zk = stalk(a1_f2, 1, k_class(a1_f2, 1))
    split = zero_diff_complex(a1_f2, stalk(a1_f2, 1, k_class(a1_f2, 2)))
    assert hall_number_ct(a1_f2, zk, zk, split) == 3
    assert hall_number_ct(a1_f2, zk, zk, nilpotent_square(a1_f2)) == 1
    # Dimension mismatch short-circuits to zero.
    assert hall_number_ct(a1_f2, zk, zk, zero_diff_complex(a1_f2, zk)) == 0


# (registry fixture, period, dims by degree): every class of each shape is
# checked against chain maps enumerated degree by degree.
CHAIN_SHAPES = [
    ("a1_f2", 1, [(1,)]), ("a1_f2", 1, [(2,)]), ("a1_f2", 1, [(3,)]),
    ("a2_f2", 1, [(1, 1)]), ("a2_f2", 1, [(2, 1)]), ("a2_f2", 1, [(1, 2)]),
    ("a1_f2", 0, [(1,), (1,)]), ("a1_f2", 0, [(2,), (1,)]), ("a1_f2", 0, [(1,), (0,), (1,)]),
    ("a1_f2", 3, [(1,), (1,), (1,)]), ("a1_f2", 3, [(2,), (1,), (0,)]),
]


def _graded_splits(reg, t, dims_by_degree):
    """Every (a, b) of graded objects with a + b = dims_by_degree degreewise."""
    per_degree = []
    for d in dims_by_degree:
        per_degree.append([(ca, cb) for db in subdimvecs(d)
                           for cb in reg.classes(db) for ca in reg.classes(dims_sub(d, db))])
    for choice in itertools.product(*per_degree):
        yield (graded_object(t, reg.quiver.n, [(i, ca) for i, (ca, _) in enumerate(choice)]),
               graded_object(t, reg.quiver.n, [(i, cb) for i, (_, cb) in enumerate(choice)]))


@pytest.mark.parametrize("fixture,t,dims", CHAIN_SHAPES)
def test_chain_counts_match_enumeration(request, fixture, t, dims):
    reg = request.getfixturevalue(fixture)
    classes = enumerate_complex_classes(reg, t, dims)
    for c1 in classes:
        ends = chain_maps_by_enumeration(c1, c1)
        autos = [f for f in ends
                 if all(rank(fv) == fv.rows == fv.cols for fm in f.values() for fv in fm)]
        assert aut_ct_count(reg, c1) == len(autos)
        for c2 in classes:
            assert hom_ct_count(c1, c2) == len(chain_maps_by_enumeration(c1, c2))
        for a, b in _graded_splits(reg, t, dims):
            assert hall_number_ct(reg, a, b, c1) == hall_number_ct_injection_oracle(reg, a, b, c1)


def test_ext1_ct_middle_counts(a1_f2):
    zk = stalk(a1_f2, 1, k_class(a1_f2, 1))
    split = zero_diff_complex(a1_f2, stalk(a1_f2, 1, k_class(a1_f2, 2)))
    assert ext1_ct_middle_count(a1_f2, zk, zk, split) == 1
    assert ext1_ct_middle_count(a1_f2, zk, zk, nilpotent_square(a1_f2)) == 1


def test_cone_counts(a1_f2):
    zk = stalk(a1_f2, 1, k_class(a1_f2, 1))
    zk2 = stalk(a1_f2, 1, k_class(a1_f2, 2))
    zero = graded_object(1, 1, [])
    assert dt_hom_with_cone_count(a1_f2, zk, zk, zk2) == 1
    assert dt_hom_with_cone_count(a1_f2, zk, zk, zero) == 1
    assert dt_hom_with_cone_count(a1_f2, zk, zk, zk) == 0


def test_cone_counts_need_period_one(a1_f2):
    zk = stalk(a1_f2, 0, k_class(a1_f2, 1))
    with pytest.raises(UnsupportedPeriod):
        dt_hom_with_cone_count(a1_f2, zk, zk, zk)


def test_cone_totals_match_hom_counts(a1_f2):
    """Every derived morphism has exactly one cone class, so the cone-resolved
    counts over all possible cones must add up to the plain Hom count."""
    objects = graded_objects_within(a1_f2, 1, 2)
    cones = graded_objects_within(a1_f2, 1, 4)
    for a in objects:
        for b in objects:
            total = sum(dt_hom_with_cone_count(a1_f2, a, b, x) for x in cones)
            assert total == hom_dt_count(a1_f2, a, b, 0), (a, b)


# -- derived Hom counting ---------------------------------------------------------


def test_hom_dt_count_period_one(a1_f2):
    zk = stalk(a1_f2, 1, k_class(a1_f2, 1))
    assert hom_dt_count(a1_f2, zk, zk, 0) == 2


def test_hom_dt_count_period_three(a1_f2):
    zk = stalk(a1_f2, 3, k_class(a1_f2, 1))
    assert hom_dt_count(a1_f2, zk, zk, 0) == 2
    assert hom_dt_count(a1_f2, zk, zk, 1) == 1
    assert hom_dt_count(a1_f2, zk, zk, 2) == 1


def test_hom_dt_count_simples_a2(a2_f2):
    s1 = a2_f2.classes((1, 0))[0]
    s2 = a2_f2.classes((0, 1))[0]
    g1 = stalk(a2_f2, 1, s1)
    g2 = stalk(a2_f2, 1, s2)
    # No maps between distinct simples, but one extension direction is fertile.
    assert hom_dt_count(a2_f2, g1, g2, 0) == 2
    assert hom_dt_count(a2_f2, g2, g1, 0) == 1


def test_bounded_hom_dt_count(a1_f2):
    k = k_class(a1_f2, 1)
    a = stalk(a1_f2, 0, k, deg=0)
    b = stalk(a1_f2, 0, k, deg=1)
    assert hom_dt_count(a1_f2, a, a, 0) == 2
    assert hom_dt_count(a1_f2, a, b, 0) == 1
    assert hom_dt_count(a1_f2, a, b, -1) == 2


def test_alt_hom_matches_closed_form_t1(a1_f2, a2_f2):
    for reg in (a1_f2, a2_f2):
        objects = graded_objects_within(reg, 1, 2)
        for a in objects:
            for b in objects:
                assert alt_hom_explicit(reg, a, b) == alt_hom_product(reg, a, b), (a, b)


def test_alt_hom_matches_closed_form_t3(a1_f2):
    k = k_class(a1_f2, 1)
    a = graded_object(3, 1, [(0, k), (1, k)])
    b = stalk(a1_f2, 3, k, deg=2)
    assert alt_hom_explicit(a1_f2, a, b) == alt_hom_product(a1_f2, a, b)
    assert alt_hom_explicit(a1_f2, a, a) == alt_hom_product(a1_f2, a, a)


def test_alt_hom_needs_odd_period(a1_f2):
    zk = stalk(a1_f2, 0, k_class(a1_f2, 1))
    with pytest.raises(UnsupportedPeriod):
        alt_hom_explicit(a1_f2, zk, zk)
    with pytest.raises(UnsupportedPeriod):
        alt_hom_product(a1_f2, zk, zk)


def test_alt_hom_value(a1_f2):
    zk = stalk(a1_f2, 1, k_class(a1_f2, 1))
    assert alt_hom_explicit(a1_f2, zk, zk) == Fraction(2)

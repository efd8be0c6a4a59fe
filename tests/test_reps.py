from __future__ import annotations

import itertools

import pytest

from hallforge.errors import (EnumerationTooLarge, IncompatibleObjects,
                              InvalidField)
from hallforge.linalg import gl_order, zero_subspace, full_subspace
from hallforge.quivers import dimvecs_up_to, line_quiver, quiver_from_dict
from hallforge.reps import (ClassRegistry, Rep, direct_sum,
                            enumerate_iso_classes, hom_dim, is_isomorphic,
                            quotient_by_subrep, semisimple_rep, simple_rep,
                            zero_rep)

from .oracles import aut_count_by_enumeration, brute_force_classes


def test_registry_rejects_composite_field():
    with pytest.raises(InvalidField):
        ClassRegistry(line_quiver(1), 4)


def test_classes_1_1_on_a2(a2_f2):
    cls = a2_f2.classes((1, 1))
    assert len(cls) == 2
    assert [a2_f2.class_id_str(c) for c in cls] == ["k1.1", "k1.1#1"]
    # Index 0 is always the semisimple class: all arrow matrices zero.
    assert all(m.is_zero() for m in a2_f2.representative(cls[0]).mats)
    assert not a2_f2.representative(cls[1]).mats[0].is_zero()


def test_class_id_roundtrip(a2_f2):
    for dims in [(1, 0), (1, 1), (2, 2)]:
        for c in a2_f2.classes(dims):
            assert a2_f2.parse_class_id(a2_f2.class_id_str(c)) == c
    with pytest.raises(IncompatibleObjects):
        a2_f2.parse_class_id("k1.1#7")
    with pytest.raises(IncompatibleObjects):
        a2_f2.parse_class_id("nope")


def test_hom_dims_projective_vs_simples(a2_f2):
    s1 = a2_f2.classes((1, 0))[0]
    s2 = a2_f2.classes((0, 1))[0]
    p1 = a2_f2.classes((1, 1))[1]
    assert a2_f2.hom_dim_classes(p1, s1) == 1
    assert a2_f2.hom_dim_classes(p1, s2) == 0
    assert a2_f2.hom_dim_classes(s2, p1) == 1
    assert a2_f2.hom_dim_classes(s1, p1) == 0
    assert a2_f2.hom_dim_classes(p1, p1) == 1


def test_aut_counts(a1_f2, a2_f2, a2_f3):
    k2 = a1_f2.classes((2,))[0]
    assert a1_f2.aut_count(k2) == 6
    assert a1_f2.aut_count(k2) > 1
    p1 = a2_f2.classes((1, 1))[1]
    assert a2_f2.aut_count(p1) == 1
    assert a2_f3.aut_count(a2_f3.classes((1, 1))[1]) == 2
    assert a2_f3.aut_count(a2_f3.classes((1, 1))[0]) == 4


def test_aut_count_matches_endomorphism_scan(a2_f2, a2_f3):
    for reg in (a2_f2, a2_f3):
        for dims in [(1, 0), (1, 1), (2, 1)]:
            for c in reg.classes(dims):
                assert reg.aut_count(c) == aut_count_by_enumeration(reg.representative(c))


KRONECKER = {"vertices": ["1", "2"],
             "arrows": [{"src": "1", "dst": "2", "label": "a"},
                        {"src": "1", "dst": "2", "label": "b"}]}


@pytest.mark.parametrize("quiver,p,max_total", [
    (line_quiver(1), 2, 3), (line_quiver(1), 3, 3), (line_quiver(2), 2, 3),
    (line_quiver(2), 3, 3), (quiver_from_dict(KRONECKER), 2, 3),
])
def test_orbit_stabilizer_matches_endomorphism_scan(quiver, p, max_total):
    # The engine takes |Aut| = prod |GL(d_v)| / orbit; the scan of End checks it.
    reg = ClassRegistry(quiver, p)
    for c in reg.all_classes_total_le(max_total):
        scanned = aut_count_by_enumeration(reg.representative(c), bound=p ** 9)
        assert scanned == reg.aut_count(c)
        assert scanned * reg.orbit_size(c) == reg.gl_product(c.dims)


def test_orbit_stabilizer_on_the_largest_endomorphism_scan(a1_f2):
    # k4 on one vertex over F_2: End is all of M_4(F_2), 2^16 morphisms.
    k4 = a1_f2.classes((4,))[0]
    assert aut_count_by_enumeration(a1_f2.representative(k4), bound=2 ** 16) \
        == a1_f2.aut_count(k4) == gl_order(4, 2)


def test_quotient_of_projective_is_simple(a2_f2):
    p1 = a2_f2.representative(a2_f2.classes((1, 1))[1])
    subs = (zero_subspace(2, 1), full_subspace(2, 1))
    quot = quotient_by_subrep(p1, subs)
    assert is_isomorphic(quot, simple_rep(line_quiver(2), 2, 0))


@pytest.mark.parametrize("p,dims", [
    (2, (1, 1)), (2, (2, 1)), (2, (1, 2)), (2, (2, 2)), (3, (1, 1)), (3, (2, 1)),
])
def test_fast_enumeration_matches_brute_force(p, dims):
    reg = ClassRegistry(line_quiver(2), p)
    brute_reps, brute_orbits = brute_force_classes(reg, dims)
    cls = reg.classes(dims)
    assert len(cls) == len(brute_reps)
    for cid, brep, orb in zip(cls, brute_reps, brute_orbits):
        # Same classes in the same first-found order, with the same orbit sizes.
        assert is_isomorphic(reg.representative(cid), brep, reg.iso_enum_bound)
        assert reg.orbit_size(cid) == orb


@pytest.mark.parametrize("quiver_size,p,max_total", [
    (1, 2, 4), (2, 2, 3), (2, 3, 3), (3, 2, 3),
])
def test_orbit_sizes_partition_all_matrix_tuples(quiver_size, p, max_total):
    q = line_quiver(quiver_size)
    reg = ClassRegistry(q, p)
    for dims in dimvecs_up_to(q.n, max_total):
        total = sum(reg.orbit_size(c) for c in reg.classes(dims))
        cells = sum(dims[a.source] * dims[a.target] for a in q.arrows)
        assert total == p ** cells
        for c in reg.classes(dims):
            glp = 1
            for d in dims:
                glp *= gl_order(d, p)
            assert reg.orbit_size(c) * reg.aut_count(c) == glp


def test_enumerate_iso_classes_wrapper(a2_f2):
    reps = enumerate_iso_classes(a2_f2, (1, 1))
    assert len(reps) == 2
    assert reps[0].mats[0].is_zero()


def test_hom_dim_biadditive(a2_f2):
    cls = a2_f2.all_classes_total_le(2)
    small = [a2_f2.representative(c) for c in cls if c.total_dim >= 1][:4]
    for x, y, z in itertools.product(small, repeat=3):
        assert hom_dim(direct_sum(x, y), z) == hom_dim(x, z) + hom_dim(y, z)
        assert hom_dim(z, direct_sum(x, y)) == hom_dim(z, x) + hom_dim(z, y)


def test_direct_sum_commutes_up_to_iso(a2_f2):
    s1 = a2_f2.representative(a2_f2.classes((1, 0))[0])
    p1 = a2_f2.representative(a2_f2.classes((1, 1))[1])
    assert is_isomorphic(direct_sum(s1, p1), direct_sum(p1, s1))
    assert not is_isomorphic(direct_sum(s1, simple_rep(line_quiver(2), 2, 1)), p1)


def test_semisimple_zero_simple_constructors():
    q = line_quiver(2)
    z = zero_rep(q, 2)
    assert z.dims == (0, 0)
    s = simple_rep(q, 2, 1)
    assert s.dims == (0, 1)
    ss = semisimple_rep(q, 3, (2, 1))
    assert ss.dims == (2, 1) and all(m.is_zero() for m in ss.mats)


def test_module_level_aut_count_on_vector_spaces():
    for q in (2, 3):
        for n in (1, 2, 3):
            rep = semisimple_rep(line_quiver(1), q, (n,))
            assert aut_count_by_enumeration(rep, bound=q ** 9) == gl_order(n, q)


def test_enumeration_refuses_huge_sweeps():
    reg = ClassRegistry(line_quiver(3), 2)
    with pytest.raises(EnumerationTooLarge):
        reg.classes((4, 4, 4))


def test_bad_dims_rejected(a2_f2):
    with pytest.raises(IncompatibleObjects):
        a2_f2.classes((1,))
    with pytest.raises(IncompatibleObjects):
        a2_f2.classes((-1, 0))

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hallforge.complexes import _coboundary_transversal
from hallforge.errors import (EnumerationTooLarge, IncompatibleObjects,
                              InvalidField)
from hallforge.linalg import (Mat, full_subspace, gl_order, is_invertible, subspace_from_vectors,
                             zero_subspace)
from hallforge.quivers import Arrow, Quiver, dimvecs_up_to, line_quiver, quiver_from_dict
from hallforge.reps import (ClassRegistry, IsoClassId, Rep, _unflatten, direct_sum,
                            hom_basis, hom_dim, is_isomorphic,
                            quotient_by_subrep, restrict_to_subspaces,
                            semisimple_rep, simple_rep, zero_rep)

from .oracles import (aut_count_by_enumeration, brute_force_classes, list_hom_system,
                      list_kernel_basis, list_rref)


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


D4 = quiver_from_dict({"vertices": ["1", "2", "3", "c"],
                       "arrows": [{"src": v, "dst": "c", "label": f"a{v}"} for v in "123"]})


# A2 with a loop at each vertex, as in its degree quiver at t = 1: a loop puts
# both sides of f_v . m_a = n_a . f_v into one row of the Hom system.
LOOPED_A2 = Quiver(("1", "2"), (Arrow(0, 1, "a"), Arrow(0, 0, "d1"), Arrow(1, 1, "d2")))


@st.composite
def _rep_pairs(draw):
    """Two representations of one of A2, Kronecker, D4 and looped A2 over F_2,
    F_3 or F_5, with random arrow matrices (about half of their entries zero)."""
    quiver = draw(st.sampled_from((line_quiver(2), quiver_from_dict(KRONECKER), D4,
                                   LOOPED_A2)))
    p = draw(st.sampled_from((2, 3, 5)))

    def rep() -> Rep:
        dims = tuple(draw(st.integers(0, 2 if quiver is D4 else 3)) for _ in range(quiver.n))
        entry = st.one_of(st.just(0), st.integers(0, p - 1))
        mats = tuple(Mat(p, dims[a.target], dims[a.source],
                         tuple(tuple(draw(entry) for _ in range(dims[a.source]))
                               for _ in range(dims[a.target])))
                     for a in quiver.arrows)
        return Rep(quiver, p, dims, mats)
    return rep(), rep()


@given(_rep_pairs())
@settings(max_examples=200, deadline=None)
def test_hom_matches_the_list_row_judge(pair):
    m, n = pair
    system, shapes, offsets = list_hom_system(m, n)
    assert hom_dim(m, n) == system.cols - list_rref(system).rank
    assert hom_basis(m, n) == tuple(_unflatten(m.p, v, shapes, offsets)
                                    for v in list_kernel_basis(system))
    # The transversal's former route: the pivots of the transposed full system.
    full = list_hom_system(m, n, all_rows=True)[0]
    pivots = set(list_rref(Mat(m.p, full.cols, full.rows, tuple(zip(*full.entries)))).pivots
                 if full.rows else ())
    coords = [(idx, r, c) for idx, a in enumerate(m.quiver.arrows)
              for r in range(n.dims[a.target]) for c in range(m.dims[a.source])]
    assert _coboundary_transversal(m, n) == [rc for k, rc in enumerate(coords)
                                             if k not in pivots]


@functools.cache
def _gl(p: int, n: int) -> tuple[tuple[Mat, Mat], ...]:
    """Every (g, g^-1) in GL_n(F_p)."""
    mats = [Mat(p, n, n, tuple(tuple(e[i * n:(i + 1) * n]) for i in range(n)))
            for e in itertools.product(range(p), repeat=n * n)]
    one = Mat.identity(p, n)
    gl = [g for g in mats if is_invertible(g)]
    return tuple((g, next(h for h in gl if g.mul(h) == one)) for g in gl)


@functools.cache
def _shared_registry(quiver: Quiver, p: int) -> ClassRegistry:
    return ClassRegistry(quiver, p)


@st.composite
def _rep_and_base_change(draw):
    """A representation of Kronecker, D4 or A3 over F_2 or F_3 with random
    arrow matrices, and its image under a random base change g."""
    quiver = draw(st.sampled_from((quiver_from_dict(KRONECKER), D4, line_quiver(3))))
    p = draw(st.sampled_from((2, 3)))
    dims = tuple(draw(st.integers(0, 1 if quiver is D4 and v < 3 else 2))
                 for v in range(quiver.n))
    # A fresh registry enumerates rep.dims: A3 (2, 2, 2) takes seconds over F_3.
    assume(p == 2 or sum(dims) <= 4)
    mats = tuple(Mat(p, dims[a.target], dims[a.source],
                     tuple(tuple(draw(st.integers(0, p - 1)) for _ in range(dims[a.source]))
                           for _ in range(dims[a.target])))
                 for a in quiver.arrows)
    g = [draw(st.sampled_from(_gl(p, d))) for d in dims]
    moved = tuple(g[a.target][0].mul(m).mul(g[a.source][1]) for a, m in zip(quiver.arrows, mats))
    return Rep(quiver, p, dims, mats), Rep(quiver, p, dims, moved)


@given(_rep_and_base_change())
@settings(max_examples=100, deadline=None)
def test_memoized_classify_matches_a_fresh_registry(case):
    rep, moved = case
    reg = _shared_registry(rep.quiver, rep.p)
    cid = reg.classify(rep)
    assert (rep.dims, tuple(m.entries for m in rep.mats)) in reg.memo("classify")
    assert reg.classify(rep) == cid == ClassRegistry(rep.quiver, rep.p).classify(rep)
    assert reg.classify(moved) == cid


def test_classify_memo_keeps_the_registry_check(kronecker_f2):
    rep = Rep(kronecker_f2.quiver, 2, (1, 1), (Mat(2, 1, 1, ((1,),)), Mat(2, 1, 1, ((0,),))))
    kronecker_f2.classify(rep)
    assert ((1, 1), (((1,),), ((0,),))) in kronecker_f2.memo("classify")
    relabelled = Quiver(kronecker_f2.quiver.vertices,
                        tuple(Arrow(a.source, a.target, a.label + "'")
                              for a in kronecker_f2.quiver.arrows))
    for other in (Rep(relabelled, 2, rep.dims, rep.mats),
                  Rep(rep.quiver, 3, rep.dims, tuple(Mat(3, 1, 1, m.entries) for m in rep.mats))):
        with pytest.raises(IncompatibleObjects):
            kronecker_f2.classify(other)


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
    # Zero arrows give zero blocks of the sub and quotient dims.
    s = a2_f2.representative(a2_f2.classes((1, 1))[0])
    assert restrict_to_subspaces(s, subs) == simple_rep(line_quiver(2), 2, 1)
    assert quotient_by_subrep(s, subs) == simple_rep(line_quiver(2), 2, 0)
    # Kronecker (2, 1) with a = 0 and b = [1 0], around the kernel of b.
    kron = quiver_from_dict(KRONECKER)
    m = Rep(kron, 2, (2, 1), (Mat.zeros(2, 1, 2), Mat(2, 1, 2, ((1, 0),))))
    subs = (subspace_from_vectors(2, 2, [(0, 1)]), zero_subspace(2, 1))
    assert restrict_to_subspaces(m, subs) == semisimple_rep(kron, 2, (1, 0))
    assert quotient_by_subrep(m, subs) == Rep(kron, 2, (1, 1), (Mat(2, 1, 1, ((0,),)),
                                                                 Mat(2, 1, 1, ((1,),))))


def _assert_matches_brute_force(reg, dims):
    brute_reps, brute_orbits = brute_force_classes(reg, dims)
    cls = reg.classes(dims)
    # Same classes in the same first-found order, with the same orbit sizes and
    # the same representative: the lex-first matrix tuple of each orbit.
    assert [reg.representative(c) for c in cls] == brute_reps
    assert [reg.orbit_size(c) for c in cls] == brute_orbits


@pytest.mark.parametrize("p,dims", [
    (2, (1, 1)), (2, (2, 1)), (2, (1, 2)), (2, (2, 2)), (3, (1, 1)), (3, (2, 1)),
])
def test_fast_enumeration_matches_brute_force(p, dims):
    _assert_matches_brute_force(ClassRegistry(line_quiver(2), p), dims)


def _dims_within(bound):
    return list(itertools.product(*(range(b + 1) for b in bound)))


@pytest.mark.parametrize("quiver,p,dims", [
    *(("kronecker", 2, d) for d in _dims_within((2, 2)) + [(1, 3), (3, 1)]),
    *(("kronecker", 3, d) for d in [(1, 2), (2, 1)]),
    *(("a3", 2, d) for d in _dims_within((2, 2, 2))),
])
def test_shared_vertex_enumeration_matches_brute_force(quiver, p, dims):
    q = quiver_from_dict(KRONECKER) if quiver == "kronecker" else line_quiver(3)
    _assert_matches_brute_force(ClassRegistry(q, p), dims)


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
    # Arrow a1 is put in rank form (2 ranks), a2 is swept: 2 * 2^25 tuples.
    reg = ClassRegistry(line_quiver(3), 2)
    with pytest.raises(EnumerationTooLarge, match="matrix tuples"):
        reg.classes((1, 5, 5))


def test_tuple_bound_counts_the_swept_tuples():
    # Kronecker (2, 3): a in its 3 rank forms times 2^6 matrices b is 192
    # tuples, where the full sweep has 2^12 = 4096.
    reg = ClassRegistry(quiver_from_dict(KRONECKER), 2, tuple_bound=1000)
    assert sum(reg.orbit_size(c) for c in reg.classes((2, 3))) == 2 ** 12
    with pytest.raises(EnumerationTooLarge, match="2048 matrix tuples"):
        reg.classes((3, 3))


def test_class_ids_compare_and_hash_by_value(a2_f2):
    ids = a2_f2.all_classes_total_le(2)
    assert len(set(ids)) == len(ids)
    for c in ids:
        twin = IsoClassId(tuple(list(c.dims)), c.index)
        assert twin is not c and twin == c and hash(twin) == hash(c)
        assert twin.sort_key == (sum(c.dims), c.dims, c.index)
    assert IsoClassId((1, 1), 0) != IsoClassId((1, 1), 1)
    assert IsoClassId((1, 0), 0) != IsoClassId((0, 1), 0)
    assert {IsoClassId((1, 1), 1): "x"}[a2_f2.classes((1, 1))[1]] == "x"


def test_classes_is_one_immutable_tuple_per_dims(a2_f2):
    ids = a2_f2.classes((1, 1))
    assert ids == (IsoClassId((1, 1), 0), IsoClassId((1, 1), 1))
    with pytest.raises(TypeError):
        ids[0] = ids[1]
    assert a2_f2.classes([1, 1]) is ids
    assert a2_f2.zero_class() is a2_f2.classes((0, 0))[0]


def test_bad_dims_rejected(a2_f2):
    with pytest.raises(IncompatibleObjects):
        a2_f2.classes((1,))
    with pytest.raises(IncompatibleObjects):
        a2_f2.classes((-1, 0))

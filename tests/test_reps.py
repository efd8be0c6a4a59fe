from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hallforge import hall, reps
from hallforge.complexes import _coboundary_transversal, graded_object, hom_dt_count
from hallforge.errors import (EnumerationTooLarge, IncompatibleObjects, InternalInconsistency,
                              InvalidField)
from hallforge.linalg import (Mat, gl_order, is_invertible, pack_row, rows_kernel,
                             subspace_from_vectors, zero_subspace)
from hallforge.quivers import (Arrow, Quiver, dimvecs_up_to, euler_add, line_quiver,
                               quiver_from_dict)
from hallforge.reps import (ClassRegistry, IsoClassId, Rep, _hom_kernel, _unflatten, direct_sum,
                            hom_dim, is_isomorphic, quotient_by_subrep, restrict_to_subspaces)

from .oracles import (aut_count_by_enumeration, brute_force_classes, list_hom_system,
                      list_kernel_basis, list_rref, semisimple_rep, simple_rep)


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


def test_negative_ext1_is_an_internal_inconsistency(monkeypatch):
    # <k1.0, k0.1> = 1 > dim Hom(k1.0, k0.1) = 0 makes that one Ext^1 negative.
    monkeypatch.setattr(reps, "euler_add", lambda quiver, d1, d2: (
        1 if (d1, d2) == ((1, 0), (0, 1)) else euler_add(quiver, d1, d2)))

    def fresh():
        reg = ClassRegistry(line_quiver(2), 2)
        return reg, reg.classes((1, 0))[0], reg.classes((0, 1))[0]
    reg, s1, s2 = fresh()
    assert reg.hom_ext_dims(s2, s1)[1] == 0
    with pytest.raises(InternalInconsistency, match="negative Ext"):
        reg.hom_ext_dims(s1, s2)
    reg, s1, s2 = fresh()
    with pytest.raises(InternalInconsistency, match="negative Ext"):
        hom_dt_count(reg, graded_object(3, 2, [(1, s1)]), graded_object(3, 2, [(0, s2)]))
    reg, s1, s2 = fresh()
    with pytest.raises(InternalInconsistency, match="negative Ext"):
        hall.ext1_count(reg, s1, s2)


def test_hom_dims_projective_vs_simples(a2_f2):
    s1 = a2_f2.classes((1, 0))[0]
    s2 = a2_f2.classes((0, 1))[0]
    p1 = a2_f2.classes((1, 1))[1]
    assert a2_f2.hom_ext_dims(p1, s1)[0] == 1
    assert a2_f2.hom_ext_dims(p1, s2)[0] == 0
    assert a2_f2.hom_ext_dims(s2, p1)[0] == 1
    assert a2_f2.hom_ext_dims(s1, p1)[0] == 0
    assert a2_f2.hom_ext_dims(p1, p1)[0] == 1


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


def test_enumeration_groups_swept_tuples_by_end_dim_alone(monkeypatch):
    # One End per swept tuple (58), and one Hom back per isomorphism test whose
    # Hom forth has End's dim (31).  A bucket's tuples share dim End, so testing
    # a new tuple against a bucket computes no End again; grouping by dim Hom to
    # and from each simple as well took 321 calls.
    calls = []
    monkeypatch.setattr(reps, "hom_dim", lambda m, n: calls.append(m is n) or hom_dim(m, n))
    ClassRegistry(quiver_from_dict(KRONECKER), 2).all_classes_total_le(4)
    assert (len(calls), sum(calls)) == (89, 58)


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
    kernel, k_shapes, k_offsets = _hom_kernel(m, n)
    assert ([_unflatten(m.p, v, k_shapes, k_offsets) for v in kernel]
            == [_unflatten(m.p, v, shapes, offsets) for v in list_kernel_basis(system)])
    # The transversal's former route: the pivots of the transposed full system.
    full = list_hom_system(m, n, all_rows=True)[0]
    pivots = set(list_rref(Mat(m.p, full.cols, full.rows, tuple(zip(*full.entries)))).pivots
                 if full.rows else ())
    coords = [(idx, r, c) for idx, a in enumerate(m.quiver.arrows)
              for r in range(n.dims[a.target]) for c in range(m.dims[a.source])]
    assert _coboundary_transversal(m, n) == [rc for k, rc in enumerate(coords)
                                             if k not in pivots]


@pytest.mark.parametrize("fixture", ["a2_f2", "a3_f2", "d4_f2", "kronecker_f2"])
def test_generic_hom_rows_at_p2_are_the_packed_rows(request, fixture):
    """_hom_system's two branches on one input: at p = 2 the generic per-arrow
    rows pack to the packed branch's rows, in order, and their list-row kernel
    is its Hom kernel, for every pair of classes to total dim 3."""
    reg = request.getfixturevalue(fixture)
    objs = [reg.representative(c) for c in reg.all_classes_total_le(3)]
    for m, n in itertools.product(objs, repeat=2):
        packed, shapes, offsets = reps._hom_system(m, n)
        nvars = sum(r * c for r, c in shapes)
        generic = [row for idx in range(len(m.quiver.arrows))
                   for row in reps._hom_arrow_rows(m, n, idx, offsets, nvars)]
        assert [pack_row(2, row) for row in generic] == packed, (m, n)
        system = Mat(2, len(generic), nvars, tuple(map(tuple, generic)))
        assert list_kernel_basis(system) == rows_kernel(2, nvars, packed), (m, n)


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


def test_memo_runs_its_factory_once():
    # An empty table is still the registry's table: later calls return it
    # without building another.
    reg = ClassRegistry(line_quiver(1), 2)
    made = []

    def factory():
        made.append(1)
        return {}
    tables = [reg.memo("counted", factory) for _ in range(3)]
    assert len(made) == 1 and not tables[0]
    assert all(table is tables[0] for table in tables)
    reg.clear()
    assert reg.memo("counted", factory) is not tables[0] and len(made) == 2


def test_classify_and_classify_entries_share_one_memo_entry():
    # Kronecker (1, 1) with a = b = 1 and with a = 1, b = 0: one content goes in
    # through classify, the other through classify_entries; either way each
    # content holds one entry, which the other route then reads.
    reg = ClassRegistry(quiver_from_dict(KRONECKER), 2)
    memo = reg.memo("classify")
    first, second = ((((1,),), ((1,),)), (((1,),), ((0,),)))
    cid = reg.classify(Rep(reg.quiver, 2, (1, 1), tuple(Mat(2, 1, 1, e) for e in first)))
    assert list(memo) == [((1, 1), first)]
    assert reg.classify_entries((1, 1), first) is cid
    other = reg.classify_entries((1, 1), second)
    assert list(memo) == [((1, 1), first), ((1, 1), second)]
    assert reg.classify(Rep(reg.quiver, 2, (1, 1), tuple(Mat(2, 1, 1, e) for e in second))) \
        is other != cid
    assert len(memo) == 2


def test_orbit_stabilizer_on_the_largest_endomorphism_scan(a1_f2):
    # k4 on one vertex over F_2: End is all of M_4(F_2), 2^16 morphisms.
    k4 = a1_f2.classes((4,))[0]
    assert aut_count_by_enumeration(a1_f2.representative(k4), bound=2 ** 16) \
        == a1_f2.aut_count(k4) == gl_order(4, 2)


def test_quotient_of_projective_is_simple(a2_f2):
    p1 = a2_f2.representative(a2_f2.classes((1, 1))[1])
    subs = (zero_subspace(2, 1), subspace_from_vectors(2, 1, [(1,)]))
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


def test_reps_of_different_dims_are_not_isomorphic(monkeypatch):
    # Decided by the dims alone, though Hom is nonzero both ways; the
    # exhaustive search yields nothing for non-square vertex blocks, and
    # scans no element to say so.
    q = line_quiver(2)
    s1, s1_twice = simple_rep(q, 2, 0), semisimple_rep(q, 2, (2, 0))
    assert hom_dim(s1, s1_twice) == hom_dim(s1_twice, s1) == 2
    monkeypatch.setattr(reps, "_hom_kernel", None)
    assert not is_isomorphic(s1, s1_twice) and not is_isomorphic(s1_twice, s1)
    monkeypatch.undo()
    monkeypatch.setattr(reps, "_hom_elements", None)
    for m, n in ((s1, s1_twice), (s1_twice, s1)):
        assert list(reps._isomorphisms(m, _hom_kernel(m, n))) == []


def test_semisimple_zero_simple_constructors():
    q = line_quiver(2)
    z = semisimple_rep(q, 2, (0, 0))
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


@pytest.mark.parametrize("quiver,dims,orbits", [
    (quiver_from_dict(KRONECKER), (5, 1), [1, 31, 31, 31, 930]),
    (quiver_from_dict(KRONECKER), (1, 5), [1, 31, 31, 31, 930]),
    (line_quiver(3), (0, 1, 5), [1, 31]), (D4, (1, 0, 0, 5), [1, 31]),
], ids=["Kronecker-5,1", "Kronecker-1,5", "A3-0,1,5", "D4-1,0,0,5"])
def test_arrows_after_a_rank_zero_run_are_put_in_rank_forms(quiver, dims, orbits):
    # Where the first run of vertex-disjoint arrows has rank 0 (a = 0 on
    # Kronecker; the arrows at a zero vertex), the next run is put in rank
    # forms too, with no search over an End of dim 21.  On Kronecker, a = 0
    # leaves b = 0 or b of rank 1; a of rank 1 leaves b = 0, b = a or b
    # independent of a.
    reg = ClassRegistry(quiver, 2)
    assert [reg.orbit_size(c) for c in reg.classes(dims)] == orbits
    assert sum(orbits) == 2 ** sum(dims[a.target] * dims[a.source] for a in quiver.arrows)


def test_tuple_bound_counts_the_swept_tuples(monkeypatch):
    # Kronecker (2, 3): a in its 3 rank forms times 2^6 matrices b is 192
    # tuples, where the full sweep has 2^12 = 4096.
    monkeypatch.setattr(reps, "DEFAULT_TUPLE_BOUND", 1000)
    reg = ClassRegistry(quiver_from_dict(KRONECKER), 2)
    assert sum(reg.orbit_size(c) for c in reg.classes((2, 3))) == 2 ** 12
    with pytest.raises(EnumerationTooLarge, match="2048 matrix tuples"):
        reg.classes((3, 3))


def _class_tables(quiver, p, max_total):
    reg = ClassRegistry(quiver, p)
    return [(c, reg.representative(c), reg.orbit_size(c))
            for c in reg.all_classes_total_le(max_total)]


@pytest.mark.parametrize("quiver,p,max_total", [
    (quiver_from_dict(KRONECKER), 2, 5), (line_quiver(3), 2, 4), (D4, 2, 4),
    (quiver_from_dict(KRONECKER), 3, 3),
], ids=["Kronecker-F2", "A3-F2", "D4-F2", "Kronecker-F3"])
def test_witnesses_leave_the_class_tables_alone(monkeypatch, quiver, p, max_total):
    # A drawn witness only ever answers "isomorphic" with a real isomorphism,
    # and candidates are still tested in order, so the ids, representatives
    # and orbits are those of the exhaustive search alone.
    drawn = _class_tables(quiver, p, max_total)
    monkeypatch.setattr(reps, "WITNESS_TRIES", 0)
    assert _class_tables(quiver, p, max_total) == drawn


def test_only_an_invertible_draw_answers_yes():
    # Kronecker k1.4#1 and k1.4#2 have Hom of dim 12 both ways (End has 13),
    # so with 12 as the End dim every dimension check passes and 2^12 Hom
    # elements are drawn from; no draw is an isomorphism, and neither is any
    # element the exhaustive search then scans.
    reg = ClassRegistry(quiver_from_dict(KRONECKER), 2)
    m, n = (reg.representative(reg.parse_class_id(s)) for s in ("k1.4#1", "k1.4#2"))
    assert hom_dim(m, n) == hom_dim(n, m) == 12
    assert not reps._isomorphic_given_end(m, n, 12)


def test_isomorphic_answers_need_no_exhaustive_search(monkeypatch):
    # The isomorphism the cone (1, 5) with a = 0 and b = e_2 has with its class
    # (a 2^21 search once) is found by a drawn witness; the enumerations are
    # test_end_dim_buckets_need_no_exhaustive_search's.
    fallbacks = []

    def counted(m, kernel):
        fallbacks.append(m)
        yield from isomorphisms(m, kernel)
    isomorphisms = reps._isomorphisms
    monkeypatch.setattr(reps, "_isomorphisms", counted)
    q = quiver_from_dict(KRONECKER)
    reg = ClassRegistry(q, 2)
    cone = Rep(q, 2, (1, 5), (Mat.zeros(2, 5, 1), Mat(2, 5, 1, ((0,), (1,), (0,), (0,), (0,)))))
    assert reg.classify(cone) == reg.classes((1, 5))[1]
    assert fallbacks == []


@pytest.mark.parametrize("quiver,p,counts", [
    (quiver_from_dict(KRONECKER), 2, [1, 3, 9, 21, 49, 101, 207]),
    (quiver_from_dict(KRONECKER), 3, [1, 3, 10, 24, 62]),
    (D4, 2, [1, 5, 18, 53, 137, 321, 699]),
    (line_quiver(3), 2, [1, 4, 12, 29, 62, 120]),
    (line_quiver(3), 3, [1, 4, 12, 29, 62, 120]),
], ids=["Kronecker-F2", "Kronecker-F3", "D4-F2", "A3-F2", "A3-F3"])
def test_end_dim_buckets_need_no_exhaustive_search(monkeypatch, quiver, p, counts):
    # Swept tuples are grouped by dim End alone.  On these windows every
    # non-isomorphic pair of one bucket differs in dim Hom forth or back, and
    # every isomorphic pair meets a drawn witness, on small Hom spaces as on
    # large ones, so the exhaustive search is never entered.  counts[k] is the
    # number of classes of total dim <= k, as grouping by dim Hom to and from
    # each simple as well gave them.
    searched = []

    def counted(m, kernel):
        searched.append(m)
        yield from isomorphisms(m, kernel)
    isomorphisms = reps._isomorphisms
    monkeypatch.setattr(reps, "_isomorphisms", counted)
    reg = ClassRegistry(quiver, p)
    assert [len(reg.all_classes_total_le(k)) for k in range(len(counts))] == counts
    assert searched == []


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

from __future__ import annotations

import collections
import itertools
import math
import sys
from fractions import Fraction

import pytest

from hallforge import hall, linalg
from hallforge.errors import IncompatibleObjects, InternalInconsistency, NotASubobject
from hallforge.hall import (_subobject_table, _walked, closed_subspace_tuples, ext1_count,
                            ext1_middle_count, euler_add, euler_table, gamma_coeff,
                            gamma_terms, gamma_sweep, green_sides, hall_number,
                            subquotient_tables)
from hallforge.linalg import Mat, _each_subspace, gaussian_binomial
from hallforge.quivers import (dims_add, dims_sub, dimvecs_up_to, line_quiver,
                               quiver_from_dict, subdimvecs)
from hallforge.reps import (ClassRegistry, Rep, _subquotient_entries, quotient_by_subrep,
                            restrict_to_subspaces)

from .oracles import (four_term_gamma_oracle, gamma_by_middle_class_sum,
                      hall_number_injection_oracle, is_subrep_by_reduce, quotient_by_reduce,
                      restrict_by_coords, riedtmann_hall_numbers, walked_subobject_table,
                      walked_tuples)


def _class_pairs_with_sum(reg, dsum):
    for db in subdimvecs(dsum):
        da = dims_sub(dsum, db)
        for a in reg.classes(da):
            for b in reg.classes(db):
                yield a, b


def test_vector_space_hall_numbers_are_gaussian(a1_f2, a1_f3):
    for reg in (a1_f2, a1_f3):
        for total in range(5):
            c = reg.classes((total,))[0]
            for bdim in range(total + 1):
                a = reg.classes((total - bdim,))[0]
                b = reg.classes((bdim,))[0]
                assert hall_number(reg, a, b, c) == \
                    gaussian_binomial(total, bdim, reg.p)


def test_hall_pin_on_a2(a2_f2, a2_f3):
    for reg in (a2_f2, a2_f3):
        s1 = reg.classes((1, 0))[0]
        s2 = reg.classes((0, 1))[0]
        split, p1 = reg.classes((1, 1))
        assert hall_number(reg, s1, s2, p1) == 1
        assert hall_number(reg, s1, s2, split) == 1
        assert hall_number(reg, s2, s1, split) == 1
        # S_1 is not a subobject of P_1: its vertex-0 line is not arrow-closed.
        assert hall_number(reg, s2, s1, p1) == 0


def test_hall_values_with_field_size_dependence(a2_f2, a2_f3):
    for reg in (a2_f2, a2_f3):
        p = reg.p
        p1 = reg.classes((1, 1))[1]
        s1 = reg.classes((1, 0))[0]
        s2 = reg.classes((0, 1))[0]
        # c = P_1 + S_1: the rank-1 class of dims (2, 1).
        c21 = next(c for c in reg.classes((2, 1))
                   if not reg.representative(c).mats[0].is_zero())
        assert hall_number(reg, s1, p1, c21) == p
        c12 = next(c for c in reg.classes((1, 2))
                   if not reg.representative(c).mats[0].is_zero())
        assert hall_number(reg, p1, s2, c12) == p


@pytest.mark.parametrize("fixture_name,max_total,n_cases", [
    ("a1_f2", 4, 14), ("a1_f3", 3, 9), ("a2_f2", 3, 71), ("a2_f3", 3, 69),
    ("a3_f2", 3, 220), ("kronecker_f2", 3, 259),
])
def test_hall_numbers_match_injection_oracle(request, fixture_name, max_total,
                                             n_cases):
    reg = request.getfixturevalue(fixture_name)
    checked = 0
    for dsum in dimvecs_up_to(reg.quiver.n, max_total):
        for c in reg.classes(dsum):
            for a, b in _class_pairs_with_sum(reg, dsum):
                if reg.p ** reg.hom_ext_dims(b, c)[0] > 5000:
                    continue
                assert hall_number(reg, a, b, c) == \
                    hall_number_injection_oracle(reg, a, b, c)
                checked += 1
    assert checked == n_cases


def test_green_frozen_instance(a1_f2):
    k = a1_f2.classes((1,))[0]
    lhs, rhs = green_sides(a1_f2, k, k, k, k)
    assert lhs == rhs == Fraction(3, 2)


@pytest.mark.parametrize("fixture_name", ["a1_f2", "a1_f3"])
def test_green_holds_on_a1_sweep(request, fixture_name):
    reg = request.getfixturevalue(fixture_name)
    for total in range(4):
        dsum = (total,)
        pairs = list(_class_pairs_with_sum(reg, dsum))
        for (a, b), (a2, b2) in itertools.product(pairs, repeat=2):
            lhs, rhs = green_sides(reg, a, b, a2, b2)
            assert lhs == rhs


@pytest.mark.parametrize("fixture_name", ["a2_f2", "a2_f3"])
def test_green_holds_on_a2_sweep(request, fixture_name):
    reg = request.getfixturevalue(fixture_name)
    for dsum in [(1, 1), (2, 1), (2, 2)]:
        pairs = list(_class_pairs_with_sum(reg, dsum))
        for (a, b), (a2, b2) in itertools.product(pairs, repeat=2):
            lhs, rhs = green_sides(reg, a, b, a2, b2)
            assert lhs == rhs


def test_green_zero_when_dims_disagree(a1_f2):
    k = a1_f2.classes((1,))[0]
    k2 = a1_f2.classes((2,))[0]
    lhs, rhs = green_sides(a1_f2, k, k, k, k2)
    assert lhs == rhs == 0


def test_green_reads_no_hom_once_the_tables_are_walked(kronecker_f2, monkeypatch):
    """Green's right side is a join of the Hall tables weighed from the Euler
    table, and its left side reads them regrouped by pair: with a Kronecker
    window's tables walked, both sides still come out when hom_ext_dims and
    hall_number raise."""
    reg = kronecker_f2
    for c in reg.all_classes_total_le(3):
        subquotient_tables(reg, c)
        reg.aut_count(c)

    def no_hom(self, a, b):
        raise AssertionError("green_sides asked for dim Hom")

    def no_hall_number(*args):
        raise AssertionError("green_sides looked up one Hall number")
    monkeypatch.setattr(ClassRegistry, "hom_ext_dims", no_hom)
    monkeypatch.setattr(hall, "hall_number", no_hall_number)
    checked = 0
    for dsum in dimvecs_up_to(2, 3):
        pairs = list(_class_pairs_with_sum(reg, dsum))
        for (a, b), (a2, b2) in itertools.product(pairs, repeat=2):
            lhs, rhs = green_sides(reg, a, b, a2, b2)
            assert lhs == rhs, (a, b, a2, b2)
            checked += 1
    assert checked == 959


def test_gamma_frozen_values(a1_f2):
    k = a1_f2.classes((1,))[0]
    k2 = a1_f2.classes((2,))[0]
    zero = a1_f2.zero_class()
    assert gamma_coeff(a1_f2, k, k2, k2, k) == 1
    assert gamma_coeff(a1_f2, k, k2, k, zero) == Fraction(1, 2)
    assert gamma_coeff(a1_f2, k, k2, zero, k) == 0


@pytest.mark.parametrize("fixture_name,n_cases", [
    ("a1_f2", 14), ("a2_f2", 119), ("a2_f3", 119),
])
def test_gamma_matches_four_term_oracle(request, fixture_name, n_cases):
    reg = request.getfixturevalue(fixture_name)
    classes = reg.all_classes_total_le(2)
    checked = 0
    for a in classes:
        for b in classes:
            for dm in subdimvecs(b.dims):
                dn = dims_sub(dims_add(a.dims, dm), b.dims)
                if any(x < 0 for x in dn):
                    continue
                for m in reg.classes(dm):
                    for n in reg.classes(dn):
                        if any(reg.p ** reg.hom_ext_dims(x, y)[0] > 800
                               for x, y in ((m, b), (b, a), (a, n))):
                            continue
                        assert gamma_coeff(reg, a, b, m, n) == \
                            four_term_gamma_oracle(reg, a, b, m, n)
                        checked += 1
    assert checked == n_cases


KRONECKER = quiver_from_dict({"vertices": ["1", "2"],
                              "arrows": [{"src": "1", "dst": "2", "label": "a"},
                                         {"src": "1", "dst": "2", "label": "b"}]})


@pytest.mark.parametrize("quiver,p,max_total", [
    (line_quiver(1), 2, 3), (line_quiver(1), 3, 3), (line_quiver(2), 2, 3),
    (line_quiver(2), 3, 3), (line_quiver(3), 2, 3), (KRONECKER, 2, 3),
    (line_quiver(3), 2, 4), (KRONECKER, 2, 4),
], ids=["A1-F2", "A1-F3", "A2-F2", "A2-F3", "A3-F2", "Kronecker-F2",
        "A3-F2-total4", "Kronecker-F2-total4"])
def test_gamma_terms_match_middle_class_sum(quiver, p, max_total):
    # Same terms in the same order as the per-coefficient loop the CLI and
    # the rewriter used to run: m's dims in subdimvecs order, m, then n.  At
    # total 4 on A3 and Kronecker, some m meets its terms n through several
    # middle classes I, out of n's index order.  The same judge takes the
    # `gamma` report's rows, gamma_sweep's, in order and in lowest terms.
    reg = ClassRegistry(quiver, p)
    classes = reg.all_classes_total_le(max_total)
    rows = []
    for a in classes:
        for b in classes:
            want = []
            for dm in subdimvecs(b.dims):
                dn = dims_sub(dims_add(a.dims, dm), b.dims)
                if any(x < 0 for x in dn):
                    continue
                for m in reg.classes(dm):
                    for n in reg.classes(dn):
                        value = gamma_by_middle_class_sum(reg, a, b, m, n)
                        if value:
                            want.append((m, n, value.numerator, value.denominator))
            assert list(gamma_terms(reg, a, b)) == want, (a, b)
            rows.extend((a, b, *term) for term in want)
    assert [(a, b, *term) for a, b, terms in gamma_sweep(reg, classes)
            for term in terms] == rows


def test_gamma_sweep_names_a_class_its_list_lacks(kronecker_f2):
    # k1.1#1 has the zero class as a subobject (and S1, S2 as quotient and
    # subobject of dims (0, 1)); the zero class is the first one met.
    reg = kronecker_f2
    c = reg.classes((1, 1))[1]
    with pytest.raises(IncompatibleObjects, match="holds k1.1#1 but not .* k0.0$"):
        list(gamma_sweep(reg, [c]))
    zero, s1, s2 = reg.zero_class(), reg.classes((1, 0))[0], reg.classes((0, 1))[0]
    with pytest.raises(IncompatibleObjects, match="holds k1.1#1 but not .* k1.0$"):
        list(gamma_sweep(reg, [zero, s2, c]))
    assert [a for a, _, _ in gamma_sweep(reg, [zero, s1, s2, c])][::4] == [zero, s1, s2, c]


def test_euler_form_values(a2_f2):
    q = a2_f2.quiver
    assert euler_add(q, (1, 0), (0, 1)) == -1
    assert euler_add(q, (0, 1), (1, 0)) == 0
    assert euler_add(q, (1, 1), (1, 1)) == 1
    # The multiplicative form |Hom| / |Ext^1| = q^<d1, d2> off the Euler table.
    assert Fraction(2) ** euler_table(a2_f2)[(1, 0), (0, 1)] == Fraction(1, 2)
    assert Fraction(2) ** euler_table(a2_f2)[(1, 1), (1, 1)] == 2


D4 = quiver_from_dict({"vertices": ["1", "2", "3", "c"],
                       "arrows": [{"src": v, "dst": "c", "label": f"a{v}"} for v in "123"]})


@pytest.mark.parametrize("quiver", [line_quiver(2), line_quiver(3), D4, KRONECKER],
                         ids=["A2", "A3", "D4", "Kronecker"])
def test_euler_table_is_euler_add(quiver):
    reg = ClassRegistry(quiver, 2)
    table = euler_table(reg)
    dims = list(dimvecs_up_to(quiver.n, 3))
    for d1, d2 in itertools.product(dims, repeat=2):
        assert table[d1, d2] == euler_add(quiver, d1, d2), (d1, d2)
    assert euler_table(reg) is table and len(table) == len(dims) ** 2


def test_euler_form_is_hom_minus_ext(a2_f2, a2_f3):
    # <A, B> = |Hom| / |Ext^1| as counted classes, checked through ext1_count.
    for reg in (a2_f2, a2_f3):
        for a in reg.all_classes_total_le(2):
            for b in reg.all_classes_total_le(2):
                hom = reg.p ** reg.hom_ext_dims(a, b)[0]
                assert Fraction(hom, ext1_count(reg, a, b)) == \
                    Fraction(reg.p) ** euler_table(reg)[a.dims, b.dims]


def test_ext1_simple_values(a2_f2, a2_f3):
    for reg in (a2_f2, a2_f3):
        s1 = reg.classes((1, 0))[0]
        s2 = reg.classes((0, 1))[0]
        assert ext1_count(reg, s1, s2) == reg.p
        assert ext1_count(reg, s2, s1) == 1


@pytest.mark.parametrize("fixture_name", ["a1_f2", "a2_f2", "a1_f3", "a2_f3"])
def test_extension_counts_sum_over_middles(request, fixture_name):
    reg = request.getfixturevalue(fixture_name)
    for a in reg.all_classes_total_le(2):
        for b in reg.all_classes_total_le(2):
            dsum = dims_add(a.dims, b.dims)
            parts = [ext1_middle_count(reg, a, b, c) for c in reg.classes(dsum)]
            assert all(isinstance(x, int) and x >= 0 for x in parts)
            assert sum(parts) == ext1_count(reg, a, b)


@pytest.mark.parametrize("quiver,p,max_total", [
    (line_quiver(2), 2, 4), (line_quiver(3), 2, 3), (D4, 2, 3), (KRONECKER, 2, 4),
    (D4, 3, 3), (KRONECKER, 3, 4),
], ids=["A2", "A3", "D4", "Kronecker", "D4-F3", "Kronecker-F3"])
def test_closed_subspace_tuples_are_exactly_the_closed_ones(quiver, p, max_total):
    # The walk trusts closed_subspace_tuples to yield closed tuples only, each
    # once; the judge is every subspace tuple of the dims, filtered by
    # reduction, and the closure test of _subquotient_entries must agree with
    # the judge on every tuple.
    # Over F_3 the overspaces clear base rows by multiples, not by XOR alone;
    # Kronecker's total dim 4 has bases whose rows need that clearing.  A walk
    # sharing one memo of spans and intervals across all classes of the
    # registry, as _subobject_table's does, yields the same tuples in order.
    reg = ClassRegistry(quiver, p)
    memo = {}
    for c in reg.all_classes_total_le(max_total):
        rep = reg.representative(c)
        for d in subdimvecs(c.dims):
            walked = walked_tuples(rep, d)
            assert list(closed_subspace_tuples(rep, d, [None] * len(rep.mats), memo)) == walked
            assert all(_subquotient_entries(rep, subs, False) is not None for subs in walked)
            brute = []
            for subs in itertools.product(
                    *(_each_subspace(p, n, k) for n, k in zip(c.dims, d))):
                closed = is_subrep_by_reduce(rep, subs)
                assert (_subquotient_entries(rep, subs, False) is not None) == closed
                if closed:
                    brute.append(subs)
            assert len(set(walked)) == len(walked) == len(brute)
            assert set(walked) == set(brute)


@pytest.mark.parametrize("quiver,p,max_total", [
    (line_quiver(2), 2, 3), (line_quiver(3), 2, 3), (D4, 2, 3), (KRONECKER, 2, 4),
    (KRONECKER, 3, 3),
], ids=["A2-F2", "A3-F2", "D4-F2", "Kronecker-F2", "Kronecker-F3"])
def test_walk_subquotients_equal_the_reducing_judges(quiver, p, max_total):
    # The walk's one pass reads coordinates at the RREF pivots and residues at
    # the other columns; the judges reduce every image vector and unit column
    # row by row.  Each class is also taken in a sheared basis, where the
    # images of the arrow maps are no longer unit vectors and a residue takes
    # several basis rows (from total dim 4 on: a 2-dim subspace at a 3-dim
    # target and a nonzero quotient at the source).  The entries are checked
    # as the walk reads them, off the arrow images it computed for the
    # closure, and through the Rep wrappers, which map the basis themselves.
    reg = ClassRegistry(quiver, p)
    for c in reg.all_classes_total_le(max_total):
        for rep in (reg.representative(c), _sheared(reg.representative(c))):
            for d in subdimvecs(c.dims):
                images = [None] * len(rep.mats)
                for subs in closed_subspace_tuples(rep, d, images, {}):
                    sub, quot = restrict_by_coords(rep, subs), quotient_by_reduce(rep, subs)
                    entries = tuple(tuple(m.entries for m in x.mats) for x in (sub, quot))
                    assert _subquotient_entries(rep, subs, images=images) == entries
                    assert _subquotient_entries(rep, subs) == entries
                    assert _subquotient_entries(rep, subs, False) == (entries[0], None)
                    assert restrict_to_subspaces(rep, subs) == sub
                    assert quotient_by_subrep(rep, subs) == quot


def test_walk_and_wrappers_reject_a_tuple_that_is_not_closed(monkeypatch):
    # A Kronecker (1, 1) class with a nonzero arrow, and the line at the source
    # but not its image: the walk raises an engine fault, the public wrappers
    # a usage error.
    reg = ClassRegistry(KRONECKER, 2)
    c = next(c for c in reg.classes((1, 1)) if _walked(reg, c))
    rep = reg.representative(c)
    subs = (linalg.subspace_from_vectors(2, 1, [(1,)]), linalg.zero_subspace(2, 1))
    assert _subquotient_entries(rep, subs, False) is None
    assert _subquotient_entries(rep, subs) is None
    for wrapper in (restrict_to_subspaces, quotient_by_subrep):
        with pytest.raises(NotASubobject):
            wrapper(rep, subs)
    # The stand-in fills no arrow images, so the walk maps the basis itself.
    monkeypatch.setattr(hall, "closed_subspace_tuples", lambda rep, d, images, memo: iter([subs]))
    with pytest.raises(InternalInconsistency, match="not arrow-closed"):
        _subobject_table(reg, c, (1, 0))


def _sheared(rep):
    """rep moved by the all-ones upper unitriangular base change U = (1 - N)^-1
    at every vertex, N the superdiagonal shift: M_a -> U M_a (1 - N)."""
    p = rep.p

    def square(n, entry):
        return Mat(p, n, n, tuple(tuple(entry(i, j) % p for j in range(n)) for i in range(n)))
    ones = [square(n, lambda i, j: int(j >= i)) for n in rep.dims]
    inverse = [square(n, lambda i, j: (i == j) - (j == i + 1)) for n in rep.dims]
    mats = tuple(ones[a.target].mul(m).mul(inverse[a.source])
                 for a, m in zip(rep.quiver.arrows, rep.mats))
    return Rep(rep.quiver, p, rep.dims, mats)


def test_kronecker_walk_elimination_counts(monkeypatch):
    # Walking the 191 tables of `hall --max-dim 4` on Kronecker over F_2 with
    # one fresh registry runs one elimination per distinct span of images, 56
    # in all, kept in the registry's walk memo with the intervals of
    # overspaces (one per vertex visit with images to span took 332), and
    # none for the overspaces or the subquotient coordinates (re-eliminating
    # them took 1,131 and 1,174 calls).  The other 43 `reduced_rows` calls are
    # the Hom kernels of classification.  The counts are exact, so an
    # elimination brought back into the walk fails here.  The memo holds the
    # 56 spans and 20 intervals (36 subspaces), until the registry is cleared.
    reg = ClassRegistry(KRONECKER, 2)
    classes = reg.all_classes_total_le(4)
    calls = collections.Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("hallforge")]
    for name in ("subspace_from_vectors", "reduced_rows"):
        func = getattr(linalg, name)

        def counted(*args, _func=func, _name=name, **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)
        for module in modules:
            if getattr(module, name, None) is func:
                monkeypatch.setattr(module, name, counted)
    for c in classes:
        subquotient_tables(reg, c)
    assert (len(classes), len(reg.memo("subobject_table"))) == (49, 191)
    assert calls == {"subspace_from_vectors": 56, "reduced_rows": 99}
    assert len(reg.memo("subspace_walk")) == 56 + 20
    reg.clear()
    assert not reg.memo("subspace_walk")


def test_walk_memo_sizes_after_kronecker_hall_max_dim_4(monkeypatch):
    # What `hall --max-dim 4` on Kronecker over F_2 leaves in memory: the
    # distinct subobjects and quotients classified, and the walked tables.
    # The walk classifies 678 subquotients off their entries and builds a Rep
    # only for each of the 42 contents classify_entries has not seen.
    reg = ClassRegistry(KRONECKER, 2)
    classes = reg.all_classes_total_le(4)
    built = []
    rep_new = Rep.__new__
    monkeypatch.setattr(Rep, "__new__", lambda cls, *args: built.append(1) or rep_new(cls, *args))
    for c in classes:
        subquotient_tables(reg, c)
    assert len(reg.memo("classify")) == len(built) == 42
    assert len(reg.memo("subobject_table")) == 191


@pytest.mark.parametrize("quiver,p,max_total", [
    (KRONECKER, 2, 4), (D4, 2, 3), (line_quiver(2), 3, 3),
], ids=["Kronecker-F2", "D4-F2", "A2-F3"])
def test_a_hall_number_hit_is_a_lookup_in_the_store(monkeypatch, quiver, p, max_total):
    # Every (a, b, c) triple of classes, mismatched dims and zero or whole
    # subobjects included, reads the same on a fresh registry as after every
    # table is filled.  Once filled, a hit runs no route, no _walked test and
    # no zero_class, builds no table and replaces none: the zero- and the
    # whole-subobject table of each class are the same object on every call.
    reg = ClassRegistry(quiver, p)
    classes = reg.all_classes_total_le(max_total)
    triples = list(itertools.product(classes, repeat=3))
    fresh = [hall_number(reg, a, b, c) for a, b, c in triples]
    for c in classes:
        for dsub in subdimvecs(c.dims):
            _subobject_table(reg, c, dsub)
    store = reg.memo("hall_tables")
    assert len(store) == sum(math.prod(d + 1 for d in c.dims) for c in classes)
    filled = dict(store)

    def no_route(*args, **kwargs):
        raise AssertionError("a hit ran a route")
    for name in ("_walked", "_hall_number_rank_form", "closed_subspace_tuples"):
        monkeypatch.setattr(hall, name, no_route)
    monkeypatch.setattr(reg, "zero_class", no_route)
    assert [hall_number(reg, a, b, c) for a, b, c in triples] == fresh
    zero = (0,) * quiver.n
    for c in classes:
        assert _subobject_table(reg, c, zero) is filled[c, zero]
        assert _subobject_table(reg, c, c.dims) is filled[c, c.dims]
    assert store == filled and all(store[key] is t for key, t in filled.items())
    # Mismatched dims, zero and whole subobjects and nonzero counts all occur.
    assert any(fresh) and len(triples) > sum(
        dims_add(a.dims, b.dims) == c.dims for a, b, c in triples)
    reg.clear()
    assert not reg.memo("hall_tables")


@pytest.mark.parametrize("quiver,p,max_total", [
    (line_quiver(2), 2, 3), (line_quiver(3), 2, 4), (D4, 2, 3), (KRONECKER, 2, 4),
    (KRONECKER, 3, 3),
], ids=["A2-F2", "A3-F2", "D4-F2", "Kronecker-F2", "Kronecker-F3"])
def test_gamma_sweep_rows_equal_per_pair_gamma_terms(quiver, p, max_total):
    # The `gamma` report's rows: the sweep's num/den against str(Fraction)
    # of gamma_terms, pair by pair, on registries that share nothing.
    sweep_reg, pair_reg = ClassRegistry(quiver, p), ClassRegistry(quiver, p)
    swept = [(a, b, m, n, f"{num}/{den}" if den != 1 else str(num))
             for a, b, terms in gamma_sweep(sweep_reg, sweep_reg.all_classes_total_le(max_total))
             for m, n, num, den in terms]
    classes = pair_reg.all_classes_total_le(max_total)
    want = [(a, b, m, n, str(Fraction(num, den))) for a in classes for b in classes
            for m, n, num, den in gamma_terms(pair_reg, a, b)]
    assert swept == want and swept
    assert "gamma_terms" not in sweep_reg._memos and "gamma_terms" not in pair_reg._memos


@pytest.mark.parametrize("quiver,p,max_total", [
    (line_quiver(1), 3, 4), (line_quiver(2), 2, 4), (line_quiver(3), 2, 3), (D4, 2, 3),
    (KRONECKER, 2, 4), (KRONECKER, 3, 3),
], ids=["A1-F3", "A2-F2", "A3-F2", "D4-F2", "Kronecker-F2", "Kronecker-F3"])
def test_split_class_tables_equal_hall_number_over_all_pairs(quiver, p, max_total):
    # A split class's tables hold only the split pair of each subobject dims;
    # the judge asks hall_number for every (quotient, subobject) pair.
    reg = ClassRegistry(quiver, p)
    for dims in dimvecs_up_to(quiver.n, max_total):
        c = reg.classes(dims)[0]
        by_sub = {}
        for dsub in subdimvecs(dims):
            for sub in reg.classes(dsub):
                for quot in reg.classes(dims_sub(dims, dsub)):
                    g = hall_number(reg, quot, sub, c)
                    if g:
                        by_sub.setdefault(sub, []).append((quot, g))
        assert subquotient_tables(reg, c) == by_sub, dims


@pytest.mark.parametrize("fixture,max_total", [
    ("kronecker_f2", 4), ("a3_f2", 4), ("d4_f2", 4)])
def test_walked_tables_equal_the_riedtmann_judge(request, fixture, max_total):
    # Every walked table, subobjects counted, against the extensions of each
    # (quotient, subobject) pair counted by middle term.
    reg = request.getfixturevalue(fixture)
    judged: dict = {}
    tables = 0
    for c in reg.all_classes_total_le(max_total):
        if not _walked(reg, c):
            continue
        for dsub in subdimvecs(c.dims):
            if not any(dsub) or dsub == c.dims:
                continue
            table = _subobject_table(reg, c, dsub)
            for b in reg.classes(dsub):
                for a in reg.classes(dims_sub(c.dims, dsub)):
                    if (a, b) not in judged:
                        judged[a, b] = riedtmann_hall_numbers(reg, a, b)
                    assert table.get((a, b), 0) == judged[a, b].get(c, 0), (a, b, c)
            tables += 1
    assert tables


@pytest.mark.parametrize("quiver,p,max_total", [
    (line_quiver(1), 3, 4), (line_quiver(2), 2, 3), (line_quiver(2), 3, 3),
    (line_quiver(3), 2, 3), (D4, 2, 3), (KRONECKER, 2, 3),
], ids=["A1-F3", "A2-F2", "A2-F3", "A3-F2", "D4-F2", "Kronecker-F2"])
def test_closed_form_tables_equal_a_forced_walk(quiver, p, max_total):
    # Every table with a closed form, zero and whole subobject dims included,
    # against the walk run on its class: same keys, same counts.  On A1 and A2
    # that is every class; on the other quivers the split classes and, for
    # the rest, the zero and the whole subobject.
    reg = ClassRegistry(quiver, p)
    compared = 0
    for c in reg.all_classes_total_le(max_total):
        for dsub in subdimvecs(c.dims):
            if _walked(reg, c) and any(dsub) and dsub != c.dims:
                continue
            assert _subobject_table(reg, c, dsub) == walked_subobject_table(reg, c, dsub), \
                (c, dsub)
            compared += 1
    assert compared and not reg.memo("subobject_table")


TWO_ARROWS_AND_A_POINT = quiver_from_dict({"vertices": ["1", "2", "3", "4", "5"],
                                           "arrows": [{"src": "1", "dst": "2", "label": "a"},
                                                      {"src": "3", "dst": "4", "label": "b"}]})


@pytest.mark.parametrize("p,max_total,n_tables", [(2, 4, 1477), (3, 3, 366)],
                         ids=["F2", "F3"])
def test_rank_form_tables_equal_the_walk_over_two_arrows_and_an_isolated_vertex(
        p, max_total, n_tables):
    # 1 -> 2, 3 -> 4 and a lone vertex 5: the rank form multiplies one factor
    # per arrow and a Gaussian binomial for the untouched vertex.  A registry
    # told its quiver is not classified by arrow ranks walks the same tables.
    ranked = ClassRegistry(TWO_ARROWS_AND_A_POINT, p)
    walked = ClassRegistry(TWO_ARROWS_AND_A_POINT, p)
    walked._classified_by_ranks = False
    compared = 0
    for c in ranked.all_classes_total_le(max_total):
        for dsub in subdimvecs(c.dims):
            assert _subobject_table(ranked, c, dsub) == _subobject_table(walked, c, dsub), \
                (c, dsub)
            compared += 1
    assert compared == n_tables
    assert not ranked.memo("subobject_table") and walked.memo("subobject_table")


# -- Hall polynomials across primes ---------------------------------------------------

HALL_POLY_PRIMES = (2, 3, 5, 7)


def _labelled_hall_numbers(quiver, p: int, max_total: int) -> dict:
    """{(label a, label b, label c): g^c_{a,b}} over F_p for every class c of total
    dim 1..max_total and every pair of classes a, b with dims a + dims b = dims c.
    The indecomposables X are the classes with dim End = 1, and a class M's
    label is (dims, dim Hom(X, M) over X, dim Hom(M, X) over X), the X in
    order of dims; the labels must tell the classes apart."""
    reg = ClassRegistry(quiver, p)
    classes = reg.all_classes_total_le(max_total)
    indecs = sorted((c for c in classes if c.total_dim and reg.hom_ext_dims(c, c)[0] == 1),
                    key=lambda c: c.dims)
    label = {m: (m.dims, tuple(reg.hom_ext_dims(x, m)[0] for x in indecs),
                 tuple(reg.hom_ext_dims(m, x)[0] for x in indecs)) for m in classes}
    assert len(set(label.values())) == len(label), f"labels are not injective over F_{p}"
    values = {}
    for c in classes[1:]:
        table = {(a, b): g for b, quotients in subquotient_tables(reg, c).items()
                 for a, g in quotients}
        for a, b in _class_pairs_with_sum(reg, c.dims):
            values[label[a], label[b], label[c]] = table.get((a, b), 0)
    return values


def _interpolate(points: list[tuple[int, int]]) -> list[Fraction]:
    """Coefficients, constant first, of the polynomial of degree < len(points)
    through the (x, y) points (Lagrange)."""
    out = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(yi)]
        for j, (xj, _) in enumerate(points):
            if j != i:  # basis *= (x - xj) / (xi - xj)
                shifted = [Fraction(0)] + basis
                basis = [(hi - xj * lo) / (xi - xj)
                         for hi, lo in zip(shifted, basis + [Fraction(0)])]
        out = [o + b for o, b in zip(out, basis)]
    return out


@pytest.mark.parametrize("quiver,triples,spare", [
    (line_quiver(2), 196, 190), (line_quiver(3), 911, 902), (D4, 2635, 2623)],
    ids=["A2", "A3", "D4"])
def test_hall_numbers_are_polynomials_across_primes(quiver, triples, spare):
    """On a Dynkin quiver each g^c_{a,b} is one integer polynomial in q of degree
    at most D = sum_v a_v b_v (Ringel 1990), since it counts points of
    prod_v Gr(b_v, c_v).  Classes are matched across F_2, F_3, F_5 and F_7 by
    their Hom dimensions against the indecomposables, and every label triple of
    total dim <= 4 must lie on such a polynomial: the fit through the first
    min(D + 1, 4) primes has integer coefficients and, where primes are left
    over (`spare` of the triples), predicts their values."""
    by_prime = [_labelled_hall_numbers(quiver, p, 4) for p in HALL_POLY_PRIMES]
    keys = by_prime[0].keys()
    assert all(values.keys() == keys for values in by_prime), "classes differ between fields"
    over_determined = 0
    for key in keys:
        (a_dims, *_), (b_dims, *_), _c = key
        degree = sum(x * y for x, y in zip(a_dims, b_dims))
        points = [(p, values[key]) for p, values in zip(HALL_POLY_PRIMES, by_prime)]
        fit = _interpolate(points[:degree + 1])
        assert all(c.denominator == 1 for c in fit), (key, points)
        for p, g in points[degree + 1:]:
            assert sum(c * p ** k for k, c in enumerate(fit)) == g, (key, points)
        over_determined += degree + 1 < len(points)
    assert (len(keys), over_determined) == (triples, spare)

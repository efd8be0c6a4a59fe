from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from hallforge.hall import (_subobject_table, _walked, closed_subspace_tuples, ext1_count,
                            ext1_middle_count, euler_add, euler_mult, euler_table, gamma_coeff,
                            gamma_terms, gamma_sweep, green_sides, hall_number,
                            subquotient_tables)
from hallforge.linalg import enumerate_subspaces, gaussian_binomial
from hallforge.quivers import (dims_add, dims_sub, dimvecs_up_to, line_quiver,
                               quiver_from_dict, subdimvecs)
from hallforge.reps import ClassRegistry, is_subrep

from .oracles import (four_term_gamma_oracle, gamma_by_middle_class_sum,
                      hall_number_injection_oracle, walked_subobject_table)


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
                if reg.p ** reg.hom_dim_classes(b, c) > 5000:
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
                        if any(reg.p ** reg.hom_dim_classes(x, y) > 800
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
    # middle classes I, out of n's index order.
    reg = ClassRegistry(quiver, p)
    classes = reg.all_classes_total_le(max_total)
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
                            want.append((m, n, value))
            assert list(gamma_terms(reg, a, b)) == want, (a, b)


def test_euler_form_values(a2_f2):
    q = a2_f2.quiver
    assert euler_add(q, (1, 0), (0, 1)) == -1
    assert euler_add(q, (0, 1), (1, 0)) == 0
    assert euler_add(q, (1, 1), (1, 1)) == 1
    assert euler_mult(a2_f2, (1, 0), (0, 1)) == Fraction(1, 2)
    assert euler_mult(a2_f2, (1, 1), (1, 1)) == 2


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
                hom = reg.p ** reg.hom_dim_classes(a, b)
                assert Fraction(hom, ext1_count(reg, a, b)) == \
                    euler_mult(reg, a.dims, b.dims)


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


@pytest.mark.parametrize("quiver,max_total", [(line_quiver(2), 4), (line_quiver(3), 3), (D4, 3),
                                              (KRONECKER, 4)],
                         ids=["A2", "A3", "D4", "Kronecker"])
def test_closed_subspace_tuples_are_exactly_the_closed_ones(quiver, max_total):
    # The walk trusts closed_subspace_tuples to yield closed tuples only, each
    # once; the judge is every subspace tuple of the dims, filtered by is_subrep.
    reg = ClassRegistry(quiver, 2)
    for c in reg.all_classes_total_le(max_total):
        rep = reg.representative(c)
        for d in subdimvecs(c.dims):
            walked = list(closed_subspace_tuples(rep, d))
            assert all(is_subrep(rep, subs) for subs in walked)
            brute = [subs for subs in itertools.product(
                *(enumerate_subspaces(2, n, k) for n, k in zip(c.dims, d)))
                if is_subrep(rep, subs)]
            assert len(set(walked)) == len(walked) == len(brute)
            assert set(walked) == set(brute)


def test_walk_memo_sizes_after_kronecker_hall_max_dim_4():
    # What `hall --max-dim 4` on Kronecker over F_2 leaves in memory: the
    # distinct subobjects and quotients classified, and the walked tables.
    reg = ClassRegistry(KRONECKER, 2)
    for c in reg.all_classes_total_le(4):
        subquotient_tables(reg, c)
    assert len(reg.memo("classify")) == 42
    assert len(reg.memo("subobject_table")) == 191


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
    want = [(a, b, m, n, str(v)) for a in classes for b in classes
            for m, n, v in gamma_terms(pair_reg, a, b)]
    assert swept == want and swept
    assert not sweep_reg.memo("gamma_terms")


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

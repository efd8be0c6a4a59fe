from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallforge.errors import EnumerationTooLarge, InvalidField
from hallforge.linalg import (SUBSPACE_AMBIENT_BOUND, Mat, check_prime, count_matrices_of_rank,
                              enumerate_subspaces, full_subspace,
                              gaussian_binomial, gl_order, is_invertible,
                              kernel_basis, rank, rref, subspace_from_vectors,
                              subspaces_containing, zero_subspace)

from .oracles import (list_kernel_basis, list_rref, list_subspace_from_vectors,
                      overspaces_by_elimination)

PRIMES = (2, 3, 5)


def _mats(max_dim=3, primes=PRIMES):
    return st.integers(0, len(primes) - 1).flatmap(lambda pi: st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(0, primes[pi] - 1), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0]).map(
            lambda rows: Mat.from_rows(primes[pi], rows, shape[1]))))


def test_check_prime_rejects_non_primes():
    with pytest.raises(InvalidField):
        check_prime(4)
    with pytest.raises(InvalidField):
        check_prime(1)
    check_prime(5)


@given(_mats())
@settings(max_examples=80, deadline=None)
def test_rref_is_idempotent(m):
    red = rref(m).matrix
    again = rref(red)
    assert again.matrix == red
    assert again.rank == rank(m)


@given(_mats())
@settings(max_examples=80, deadline=None)
def test_kernel_vectors_annihilate(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert all(x == 0 for x in m.apply(v))


def _shaped_mats(max_dim=5):
    """Matrices over F_2, F_3 or F_5 with 0 to max_dim rows and columns, about
    half of their entries zero, so that every rank shows up."""
    return st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(
        st.integers(0, max_dim), st.integers(0, max_dim)).flatmap(
        lambda shape: st.lists(
            st.lists(st.one_of(st.just(0), st.integers(0, p - 1)),
                     min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0]).map(
            lambda rows: Mat(p, shape[0], shape[1], tuple(map(tuple, rows))))))


@given(_shaped_mats())
@settings(max_examples=200, deadline=None)
def test_elimination_core_matches_the_list_row_judge(m):
    want = list_rref(m)
    assert rref(m) == want
    assert rank(m) == want.rank
    assert is_invertible(m) == (m.rows == m.cols == want.rank)
    # Kernel bases decide class ids, so they must be equal, not just span alike.
    assert kernel_basis(m) == list_kernel_basis(m)
    assert (subspace_from_vectors(m.p, m.cols, m.entries)
            == list_subspace_from_vectors(m.p, m.cols, m.entries))


@pytest.mark.parametrize("p", PRIMES)
def test_elimination_reads_entries_mod_p(p):
    raw = Mat(p, 3, 3, ((p, -1, p + 1), (2 * p, p + 1, -1), (-p, 1, p - 1)))
    red = Mat(p, 3, 3, tuple(tuple(x % p for x in row) for row in raw.entries))
    assert rref(raw) == rref(red) == list_rref(red)
    assert rank(raw) == rank(red) and is_invertible(raw) == is_invertible(red)
    assert kernel_basis(raw) == kernel_basis(red)
    assert subspace_from_vectors(p, 3, raw.entries) == subspace_from_vectors(p, 3, red.entries)
    assert rank(Mat(p, 1, 1, ((p,),))) == 0
    assert rank(Mat(p, 1, 2, ((p, 1),))) == 1
    assert rank(Mat(p, 1, 1, ((-1,),))) == rank(Mat(p, 1, 1, ((p + 1,),))) == 1


def test_rank_of_identity_and_zero():
    assert rank(Mat.identity(3, 4)) == 4
    assert rank(Mat.zeros(3, 2, 5)) == 0
    assert is_invertible(Mat.identity(2, 3))
    assert not is_invertible(Mat.zeros(2, 3, 3))


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 5, 2) == 0
    assert gaussian_binomial(3, -1, 2) == 0
    assert gaussian_binomial(4, 0, 3) == 1


@given(st.integers(0, 6), st.integers(0, 6), st.sampled_from(PRIMES))
@settings(max_examples=60, deadline=None)
def test_gaussian_binomial_symmetry(n, k, q):
    assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


def test_gl_order_values():
    assert gl_order(1, 2) == 1
    assert gl_order(1, 3) == 2
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("d", (0, 1, 2, 3, 4))
def test_enumerate_subspaces_counts(p, d):
    for k in range(d + 1):
        subs = list(enumerate_subspaces(p, d, k))
        assert len(subs) == gaussian_binomial(d, k, p)
        assert len(set(s.basis for s in subs)) == len(subs)
        for s in subs:
            assert s.dim == k
            for b in s.basis:
                assert s.contains(b)


def test_enumerate_subspaces_refuses_an_ambient_past_its_bound():
    assert SUBSPACE_AMBIENT_BOUND == 6
    with pytest.raises(EnumerationTooLarge, match="ambient dimension 7 exceeds bound 6"):
        list(enumerate_subspaces(2, 7, 1))
    # The walk's enumeration of overspaces has no such bound.
    assert len(list(subspaces_containing(zero_subspace(2, 7), 1))) == gaussian_binomial(7, 1, 2)


def test_subspace_membership_and_coords():
    s = subspace_from_vectors(2, 3, [(1, 0, 1), (0, 1, 1)])
    assert s.dim == 2
    assert s.contains((1, 1, 0))
    assert not s.contains((0, 0, 1))
    v = (1, 1, 0)
    cs = s.coords(v)
    combo = [0, 0, 0]
    for c, row in zip(cs, s.basis):
        combo = [(x + c * y) % 2 for x, y in zip(combo, row)]
    assert tuple(combo) == v


@pytest.mark.parametrize("p", (2, 3))
def test_subspaces_containing_counts(p):
    base = subspace_from_vectors(p, 4, [(1, 1, 0, 0)])
    for dim in range(1, 5):
        overs = list(subspaces_containing(base, dim))
        assert len(overs) == gaussian_binomial(3, dim - 1, p)
        for s in overs:
            assert s.dim == dim
            assert all(s.contains(b) for b in base.basis)
    assert list(subspaces_containing(base, 0)) == []
    assert list(subspaces_containing(zero_subspace(p, 3), 2)) == \
        [s for s in enumerate_subspaces(p, 3, 2)]
    assert list(subspaces_containing(full_subspace(p, 3), 3)) == [full_subspace(p, 3)]


@pytest.mark.parametrize("p,max_ambient", [(2, 5), (3, 3), (5, 2)])
def test_subspaces_containing_equals_the_re_eliminating_judge(p, max_ambient):
    # Every base and every target dim, including the empty ones: the same
    # canonical subspaces, in the same order.
    for d in range(max_ambient + 1):
        for k in range(d + 1):
            for base in enumerate_subspaces(p, d, k):
                for dim in range(-1, d + 2):
                    overs = list(subspaces_containing(base, dim))
                    assert overs == overspaces_by_elimination(base, dim)
                    assert all(type(s.basis) is tuple and type(s.pivots) is tuple
                               for s in overs)


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (2, 3), (3, 3)])
def test_count_matrices_of_rank_partitions_everything(p, rows, cols):
    total = sum(count_matrices_of_rank(rows, cols, r, p)
                for r in range(min(rows, cols) + 1))
    assert total == p ** (rows * cols)
    assert count_matrices_of_rank(rows, cols, min(rows, cols) + 1, p) == 0
    assert count_matrices_of_rank(rows, cols, -1, p) == 0


def test_count_matrices_of_rank_brute_force():
    for p, rows, cols in ((2, 2, 2), (3, 2, 2), (2, 2, 3)):
        tally = {}
        for flat in itertools.product(range(p), repeat=rows * cols):
            m = Mat(p, rows, cols, tuple(tuple(flat[i * cols + j] for j in range(cols))
                                         for i in range(rows)))
            tally[rank(m)] = tally.get(rank(m), 0) + 1
        for r, n in tally.items():
            assert count_matrices_of_rank(rows, cols, r, p) == n


@given(_mats(max_dim=2, primes=(2, 3)), _mats(max_dim=2, primes=(2, 3)))
@settings(max_examples=40, deadline=None)
def test_mat_mul_matches_apply(m1, m2):
    if m1.p != m2.p or m1.cols != m2.rows:
        return
    prod = m1.mul(m2)
    for j in range(m2.cols):
        col = tuple(row[j] for row in m2.entries)
        assert tuple(row[j] for row in prod.entries) == m1.apply(col)

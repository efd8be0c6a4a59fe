"""Independent reference computations the tests compare the library against.

These deliberately avoid the library's counting code paths: morphism spaces
are enumerated from hom_basis, exactness is checked with ranks and composites,
and everything is counted one map at a time.  Slow but transparent.  The one
exception is gamma_by_middle_class_sum, which sums Hall numbers one gamma
coefficient at a time to check the join in hall.gamma_terms.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from hallforge.hall import hall_number
from hallforge.linalg import Mat, rank, subspace_from_vectors
from hallforge.quivers import dims_sub
from hallforge.reps import (ClassRegistry, IsoClassId, Rep, hom_basis,
                            is_isomorphic, quotient_by_subrep)

ORACLE_HOM_BOUND = 5000


def all_morphisms(m: Rep, n: Rep, bound: int = ORACLE_HOM_BOUND) -> list[tuple[Mat, ...]]:
    """Every element of Hom(m, n), built as F_p-combinations of a hom basis."""
    basis = hom_basis(m, n)
    p = m.p
    if p ** len(basis) > bound:
        raise AssertionError("oracle instance too large; shrink the test dims")
    zero = tuple(Mat.zeros(p, nv, mv) for nv, mv in zip(n.dims, m.dims))
    out = [zero]
    # Coefficient tuples in itertools.product order: the first basis
    # element's coefficient varies slowest.
    for b in basis:
        multiples = [zero]
        for _ in range(p - 1):
            multiples.append(tuple(fv.add(bv) for fv, bv in zip(multiples[-1], b)))
        out = [f if mult is zero else tuple(fv.add(mv) for fv, mv in zip(f, mult))
               for f in out for mult in multiples]
    return out


def _is_zero(f: tuple[Mat, ...]) -> bool:
    return all(fv.is_zero() for fv in f)


def _injective(f: tuple[Mat, ...], src: Rep) -> bool:
    return all(rank(fv) == d for fv, d in zip(f, src.dims))


def _surjective(f: tuple[Mat, ...], tgt: Rep) -> bool:
    return all(rank(fv) == d for fv, d in zip(f, tgt.dims))


def _compose(g: tuple[Mat, ...], f: tuple[Mat, ...]) -> tuple[Mat, ...]:
    return tuple(gv.mul(fv) for gv, fv in zip(g, f))


def hall_number_injection_oracle(reg: ClassRegistry, a: IsoClassId,
                                 b: IsoClassId, c: IsoClassId) -> int:
    """Subobject count via injections: #{f: B -> C injective, coker(f) iso A}
    equals the Hall number times |Aut(B)|."""
    rep_b = reg.representative(b)
    rep_c = reg.representative(c)
    rep_a = reg.representative(a)
    p = reg.p
    count = 0
    for f in all_morphisms(rep_b, rep_c):
        if not _injective(f, rep_b):
            continue
        subs = tuple(
            subspace_from_vectors(p, rep_c.dims[v],
                                  [tuple(row[j] for row in f[v].entries)
                                   for j in range(rep_b.dims[v])])
            for v in range(reg.quiver.n))
        quot = quotient_by_subrep(rep_c, subs)
        if is_isomorphic(quot, rep_a, reg.iso_enum_bound):
            count += 1
    aut_b = reg.aut_count(b)
    assert count % aut_b == 0
    return count // aut_b


def four_term_gamma_oracle(reg: ClassRegistry, a: IsoClassId, b: IsoClassId,
                           m: IsoClassId, n: IsoClassId) -> Fraction:
    """gamma by enumerating exact sequences 0 -> M -> B -> A -> N -> 0 and
    dividing the raw count by |Aut(A)| |Aut(B)|."""
    rep_m = reg.representative(m)
    rep_b = reg.representative(b)
    rep_a = reg.representative(a)
    rep_n = reg.representative(n)
    count = 0
    for f in all_morphisms(rep_m, rep_b):
        if not _injective(f, rep_m):
            continue
        for g in all_morphisms(rep_b, rep_a):
            if not _is_zero(_compose(g, f)):
                continue
            if any(rank(fv) + rank(gv) != d
                   for fv, gv, d in zip(f, g, rep_b.dims)):
                continue
            for h in all_morphisms(rep_a, rep_n):
                if not _surjective(h, rep_n):
                    continue
                if not _is_zero(_compose(h, g)):
                    continue
                if any(rank(gv) + rank(hv) != d
                       for gv, hv, d in zip(g, h, rep_a.dims)):
                    continue
                count += 1
    return Fraction(count, reg.aut_count(a) * reg.aut_count(b))


def gamma_by_middle_class_sum(reg: ClassRegistry, a: IsoClassId, b: IsoClassId,
                              m: IsoClassId, n: IsoClassId) -> Fraction:
    """gamma(a, b, m, n) as one sum over the classes I of dims(b) - dims(m):

        a_m a_n / (a_a a_b) * sum_I g^b_{I,m} g^a_{n,I} a_I,

    with two hall_number lookups per I (the per-coefficient route that
    hall.gamma_terms replaced by one join per pair)."""
    di = dims_sub(b.dims, m.dims)
    if di != dims_sub(a.dims, n.dims) or any(x < 0 for x in di):
        return Fraction(0)
    total = 0
    for i_cls in reg.classes(di):
        g_b = hall_number(reg, i_cls, m, b)
        if g_b:
            total += g_b * hall_number(reg, n, i_cls, a) * reg.aut_count(i_cls)
    return Fraction(total * reg.aut_count(m) * reg.aut_count(n),
                    reg.aut_count(a) * reg.aut_count(b))


def aut_count_by_enumeration(rep: Rep, bound: int = ORACLE_HOM_BOUND) -> int:
    """|Aut| by scanning End(rep) one morphism at a time (at most bound of them)."""
    return sum(1 for f in all_morphisms(rep, rep, bound)
               if all(rank(fv) == d for fv, d in zip(f, rep.dims)))


def brute_force_classes(reg: ClassRegistry, dims: tuple[int, ...]):
    """(representatives, orbit sizes) by scanning every matrix tuple, grouping
    by is_isomorphic, in first-found order.  Ground truth for small dims."""
    q = reg.quiver
    p = reg.p
    shapes = [(dims[a.target], dims[a.source]) for a in q.arrows]
    cells = sum(r * c for r, c in shapes)
    assert p ** cells <= 200000, "brute force too large; shrink the test dims"
    found: list[Rep] = []
    orbits: list[int] = []
    for flat in itertools.product(range(p), repeat=cells):
        mats = []
        off = 0
        for r, c in shapes:
            mats.append(Mat(p, r, c, tuple(tuple(flat[off + i * c + j]
                                                 for j in range(c))
                                           for i in range(r))))
            off += r * c
        rep = Rep(q, p, dims, tuple(mats))
        for k, known in enumerate(found):
            if is_isomorphic(rep, known, reg.iso_enum_bound):
                orbits[k] += 1
                break
        else:
            found.append(rep)
            orbits.append(1)
    return found, orbits

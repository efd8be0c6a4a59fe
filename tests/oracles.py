"""Independent reference computations the tests compare the library against.

These deliberately avoid the library's counting code paths: morphism spaces
are enumerated from hom_basis, exactness is checked with ranks and composites,
and everything is counted one map at a time.  Chain maps are per-degree
morphisms checked against the differentials one at a time, not solutions of
one linear system.  Slow but transparent.  The one exception is
gamma_by_middle_class_sum, which sums Hall numbers one gamma coefficient at a
time to check the join in hall.gamma_terms.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from hallforge.complexes import (ComplexObj, GradedObject, class_at_or_zero,
                                 zero_diff_complex)
from hallforge.hall import hall_number
from hallforge.linalg import Mat, rank, subspace_from_vectors
from hallforge.quivers import dims_sub
from hallforge.reps import (ClassRegistry, IsoClassId, Rep, hom_basis,
                            is_isomorphic, quotient_by_subrep, zero_rep)

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


def _columns(m: Mat) -> list[tuple[int, ...]]:
    return [tuple(row[j] for row in m.entries) for j in range(m.cols)]


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
            subspace_from_vectors(p, rep_c.dims[v], _columns(f[v]))
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


def _diff_or_zero(c: ComplexObj, i: int) -> tuple[Mat, ...]:
    """d^i of c, with the omitted zero differential spelled out."""
    src, tgt = c.dims_at(i), c.dims_at(c.next_deg(i))
    return c.diff_at(i) or tuple(Mat.zeros(c.p, tgt[v], src[v]) for v in range(c.quiver.n))


def chain_maps_by_enumeration(c1: ComplexObj, c2: ComplexObj) -> list[dict[int, tuple[Mat, ...]]]:
    """Every chain map c1 -> c2 as {degree: morphism}: one element of
    all_morphisms per degree where either complex is nonzero, kept when
    f^{i+1} d1^i = d2^i f^i at every degree and vertex."""
    zero = zero_rep(c1.quiver, c1.p)
    degrees = sorted(set(c1.degrees) | set(c2.degrees))
    per_degree = [all_morphisms(c1.comp_at(i) or zero, c2.comp_at(i) or zero) for i in degrees]
    # Differentials join nonzero components only, so every pair checked here
    # has both of its degrees in the product.
    steps = [i for i in degrees if c1.diff_at(i) or c2.diff_at(i)]
    out = []
    for choice in itertools.product(*per_degree):
        f = dict(zip(degrees, choice))
        if all(_compose(f[c1.next_deg(i)], _diff_or_zero(c1, i))
               == _compose(_diff_or_zero(c2, i), f[i]) for i in steps):
            out.append(f)
    return out


def hall_number_ct_injection_oracle(reg: ClassRegistry, a: GradedObject, b: GradedObject,
                                    c: ComplexObj) -> int:
    """hall_number_ct via injective chain maps f: Z_b -> c whose cokernel has
    zero differential (d maps c into im f) and the degreewise classes of a;
    their number is the Hall number times |Aut(Z_b)|."""
    p, n = reg.p, reg.quiver.n
    count = 0
    for f in chain_maps_by_enumeration(zero_diff_complex(reg, b), c):
        if any(rank(fv) != d for i in f for fv, d in zip(f[i], b.dims_at(i))):
            continue
        image = {i: tuple(subspace_from_vectors(p, c.dims_at(i)[v], _columns(f[i][v]))
                          for v in range(n)) for i in f}
        if any(not image[c.next_deg(i)][v].contains(col)
               for i, d in c.differentials for v in range(n) for col in _columns(d[v])):
            continue
        if all(reg.classify(quotient_by_subrep(c.comp_at(i), image[i]))
               == class_at_or_zero(reg, a, i) for i in c.degrees):
            count += 1
    aut_b = math.prod(reg.aut_count(cls) for _, cls in b.components)
    assert count % aut_b == 0
    return count // aut_b

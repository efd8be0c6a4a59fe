"""Hall numbers, Euler forms and Green's formula over a hereditary quiver category.

Conventions: hall_number(reg, a, b, c) counts subrepresentations of a
representative of c that are isomorphic to b with quotient isomorphic to a
(second lower index = subobject).  All values are exact ints / Fractions.
Every Hall number is stored once, in the table of its class c and subobject
dims, and every table any route builds sits in one per-registry store keyed
by (c, subobject dims) (_subobject_table).  A route is picked only when the
store misses: closed forms for the zero and the whole subobject and for split
classes, the rank form on quivers classified by arrow ranks, else a walk of
the closed subspace tuples.  A hall_number hit is two dict lookups, c's table
by the subobject's dims and the (quotient, subobject) entry in it, with no
dims check and no route.  subquotient_tables lists a class's nonzero Hall
numbers by subobject, and the gamma counts of 4-term exact sequences are one
join of such lists (_gamma_join), on one pair in gamma_terms (which keeps no
memo of its own) or over a class list in gamma_sweep; the right side of
Green's formula is another, and its left side reads the same lists
regrouped by pair (green_sides).
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import attrgetter
from typing import Iterator

from .errors import IncompatibleObjects, InternalInconsistency
from .linalg import (Subspace, gaussian_binomial, subspace_from_vectors,
                     subspaces_containing, zero_subspace)
from .quivers import (DimVec, Quiver, dims_add, dims_sub, euler_add, subdimvecs,
                      topological_order)
from .reps import ClassRegistry, IsoClassId, Rep, _subquotient_entries


class _EulerTable(dict):
    """euler_add of one quiver keyed by (d1, d2); a pair is computed on its first lookup."""

    def __init__(self, quiver: Quiver) -> None:
        super().__init__()
        self.quiver = quiver

    def __missing__(self, key: tuple[DimVec, DimVec]) -> int:
        value = self[key] = euler_add(self.quiver, *key)
        return value


def euler_table(reg: ClassRegistry) -> dict[tuple[DimVec, DimVec], int]:
    """reg's Euler table: table[d1, d2] == euler_add(reg.quiver, d1, d2) for tuples d1, d2."""
    return reg.memo("euler_add", lambda: _EulerTable(reg.quiver))


def ext1_count(reg: ClassRegistry, a: IsoClassId, b: IsoClassId) -> int:
    """|Ext^1(a, b)| = q^{dim Ext^1(a, b)}."""
    return reg.p ** reg.hom_ext_dims(a, b)[1]


@functools.cache
def _walk_plan(q: Quiver) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """q's topological order and, per vertex, its incoming (arrow index, source) pairs."""
    return topological_order(q), tuple(tuple((idx, a.source) for idx, a in enumerate(q.arrows)
                                             if a.target == v) for v in range(q.n))


def closed_subspace_tuples(rep: Rep, sub_dims: DimVec, images: list,
                           memo: dict) -> Iterator[tuple[Subspace, ...]]:
    """All per-vertex subspace tuples of the given dims closed under the arrow maps.

    Vertices are filled in topological order, so at each vertex only the
    subspaces containing the images of the already-chosen source subspaces
    are enumerated; every arrow constraint is enforced exactly once.  images,
    a list of one slot per arrow, holds, while a tuple is the last one
    yielded, images[arrow index] = the images of the tuple's source basis
    under that arrow, so that reading the tuple maps no vector again.  memo,
    a dict shared by walks over one field, keeps each span of image vectors
    under the tuple of those vectors and each interval of overspaces under
    (base, dim), as a tuple, so that neither is computed twice.
    """
    q = rep.quiver
    order, incoming = _walk_plan(q)
    p = rep.p

    def fill(pos: int, chosen: list) -> Iterator[tuple[Subspace, ...]]:
        if pos == len(order):
            yield tuple(chosen)
            return
        v = order[pos]
        vecs = []
        for idx, src in incoming[v]:
            imgs = images[idx] = [rep.mats[idx].apply(b) for b in chosen[src].basis]
            vecs += imgs
        d = rep.dims[v]
        if vecs:
            key = tuple(vecs)
            base = memo.get(key)
            if base is None:
                base = memo[key] = subspace_from_vectors(p, d, vecs)
        else:
            base = zero_subspace(p, d)
        if base.dim > sub_dims[v]:
            return
        key = (base, sub_dims[v])
        interval = memo.get(key)
        if interval is None:
            interval = memo[key] = tuple(subspaces_containing(base, sub_dims[v]))
        for u in interval:
            chosen[v] = u
            yield from fill(pos + 1, chosen)

    yield from fill(0, [None] * q.n)


def _is_split_class(cid: IsoClassId) -> bool:
    # The all-zero matrix tuple is always the first one enumerated, so the
    # semisimple class of any dimension vector has index 0.
    return cid.index == 0


def _count_with_meet(d: int, w: int, u: int, j: int, p: int) -> int:
    """#{U <= F_p^d : dim U = u, dim(U meet W) = j} for any fixed W of dim w."""
    if j < 0 or j > min(u, w) or u - j > d - w or u < 0 or u > d:
        return 0
    return (gaussian_binomial(w, j, p) * gaussian_binomial(d - w, u - j, p)
            * p ** ((w - j) * (u - j)))


def _hall_number_rank_form(reg: ClassRegistry, a: IsoClassId, b: IsoClassId,
                           c: IsoClassId) -> int:
    """Subobject count when every arrow touches its own pair of vertices.

    There the class of a representation is its arrow-map rank tuple, and a
    subspace pair (U_s, U_t) around one arrow M contributes independently:
    the subobject rank is r_b = dim U_s - dim(U_s meet ker M) and the
    quotient rank is r_a = rank M - dim(im M meet U_t), so the count is a
    product of two subspace-incidence counts, one for U_s against ker M and
    one for U_t against im M among the overspaces of M(U_s).
    """
    p = reg.p
    ra, rb, rc = (reg.rank_tuple(x) for x in (a, b, c))
    g = 1
    touched = set()
    for idx, arr in enumerate(reg.quiver.arrows):
        touched.update((arr.source, arr.target))
        cs, ct = c.dims[arr.source], c.dims[arr.target]
        bs, bt = b.dims[arr.source], b.dims[arr.target]
        big, r_sub, r_quot = rc[idx], rb[idx], ra[idx]
        g *= _count_with_meet(cs, cs - big, bs, bs - r_sub, p)
        g *= _count_with_meet(ct - r_sub, big - r_sub, bt - r_sub,
                              big - r_quot - r_sub, p)
        if g == 0:
            return 0
    for v in range(reg.quiver.n):
        if v not in touched:
            g *= gaussian_binomial(c.dims[v], b.dims[v], p)
    return g


def _walked(reg: ClassRegistry, c: IsoClassId) -> bool:
    """Whether c's Hall numbers come from the subobject walk: no closed form covers c."""
    return not (_is_split_class(c) or reg._classified_by_ranks)


def hall_number(reg: ClassRegistry, a: IsoClassId, b: IsoClassId, c: IsoClassId) -> int:
    """Number of subobjects of c isomorphic to b with quotient isomorphic to a.

    A hit is two lookups: c's table by b's dims in the store, then (a, b) in
    it.  A table holds only quotients of dims c - dims b, so a mismatched a
    reads 0 there; the dims check and the route run only on a miss."""
    table = reg.memo("hall_tables").get((c, b.dims))
    if table is None:
        if dims_add(a.dims, b.dims) != c.dims:
            return 0
        table = _subobject_table(reg, c, b.dims)
    return table.get((a, b), 0)


def _subobject_table(reg: ClassRegistry, c: IsoClassId,
                     sub_dims: DimVec) -> dict[tuple[IsoClassId, IsoClassId], int]:
    """{(quotient class, subobject class): nonzero count} over the subobjects of c
    of dims sub_dims, by subobject index, then quotient index.  Every table
    any route builds, or the cache loads, is kept by (c, sub_dims) in the
    registry's one store ("hall_tables"), and a route is picked only when the
    store misses.  The zero and the whole subobject have closed forms.
    Otherwise a walked class is one classifying walk, whose table is also
    kept in the "subobject_table" memo, the set the cache persists; a split
    class has its one split pair and a rank-form class the rank form over
    subobject x quotient classes."""
    store, key = reg.memo("hall_tables"), (c, sub_dims)
    table = store.get(key)
    if table is not None:
        return table
    table = {}
    if not any(sub_dims):
        table[c, reg.zero_class()] = 1
    elif sub_dims == c.dims:
        table[reg.zero_class(), c] = 1
    elif _walked(reg, c):
        # One pass per tuple checks closure and reads both halves' entries,
        # off the arrow images the walk computed for the closure.
        rep_c, quot_dims = reg.representative(c), dims_sub(c.dims, sub_dims)
        images = [None] * len(rep_c.mats)
        for subs in closed_subspace_tuples(rep_c, sub_dims, images, reg.memo("subspace_walk")):
            entries = _subquotient_entries(rep_c, subs, images=images)
            if entries is None:
                raise InternalInconsistency("constructed subspace tuple is not arrow-closed")
            quot = reg.classify_entries(quot_dims, entries[1])
            pair = (reg.classify_entries(sub_dims, entries[0]), quot)
            table[pair] = table.get(pair, 0) + 1
        # Keyed (subobject, quotient) until here: ids of one dims compare by index.
        table = reg.memo("subobject_table")[key] = {
            (quot, sub): n for (sub, quot), n in sorted(table.items())}
    elif _is_split_class(c):
        # Semisimple ambient: every subspace tuple is closed, subs and quotients
        # are semisimple of complementary dims, so only the split pair counts.
        quot, sub = reg.classes(dims_sub(c.dims, sub_dims))[0], reg.classes(sub_dims)[0]
        table[quot, sub] = math.prod(gaussian_binomial(cv, bv, reg.p)
                                     for cv, bv in zip(c.dims, sub_dims))
    else:
        quots = reg.classes(dims_sub(c.dims, sub_dims))
        for sub in reg.classes(sub_dims):
            for quot in quots:
                g = _hall_number_rank_form(reg, quot, sub, c)
                if g:
                    table[quot, sub] = g
    store[key] = table
    return table


def ext1_middle_count(reg: ClassRegistry, a: IsoClassId, b: IsoClassId, c: IsoClassId) -> int:
    """|Ext^1(a, b)_c|: extension classes of a by b with middle term isomorphic to c.

    Computed from the subobject count by the standard homological identity
    |Ext^1(a,b)_c| = g^c_{a,b} |Hom(a,b)| a_a a_b / a_c.
    """
    g = hall_number(reg, a, b, c)
    if g == 0:
        return 0
    num = g * reg.p ** reg.hom_ext_dims(a, b)[0] * reg.aut_count(a) * reg.aut_count(b)
    den = reg.aut_count(c)
    if num % den != 0:
        raise InternalInconsistency("extension count with fixed middle is not an integer")
    return num // den


def subquotient_tables(reg: ClassRegistry, c: IsoClassId) -> dict[IsoClassId, list]:
    """The nonzero Hall numbers of c by subobject, {I: [(n, g^c_{n,I})]}: c's
    subobject tables over subobject dims in subdimvecs order, each in its
    stored order, by subobject index, then quotient index."""
    memo = reg.memo("subquotient_tables")
    by_sub = memo.get(c)
    if by_sub is None:
        by_sub = {}
        for dsub in subdimvecs(c.dims):
            for (quot, sub), g in _subobject_table(reg, c, dsub).items():
                by_sub.setdefault(sub, []).append((quot, g))
        memo[c] = by_sub
    return by_sub


def _gamma_join(reg: ClassRegistry, a_side, b_side, aut) -> dict[
        tuple[IsoClassId, IsoClassId], list[tuple[IsoClassId, IsoClassId, int, int]]]:
    """{(a, b): its nonzero gamma(a, b, m, n) as (m, n, num, den) in lowest
    terms} over a in a_side and b in b_side: one join of the classes' Hall
    numbers by subobject (subquotient_tables), with aut(x) = a_x.

    a's tables come indexed by subobject class I (subquotient_tables), and
    b's by subobject m, each m listing its quotient classes I; for every I
    on both sides, g^b_{I,m} a_I g^a_{n,I} is added into (a, b, m, n) in
    integers, and a_m a_n / (a_a a_b) applied at the end.  Each class's
    tables and Aut are read once.  A pair's terms come by m in b's table
    order, that is by dims in subdimvecs order, then index, and the n of
    one m, which share their dims, by index.
    """
    tabs = [(a, subquotient_tables(reg, a), aut(a)) for a in a_side]
    out: dict = {}
    for b in b_side:
        a_b, b_subs = aut(b), subquotient_tables(reg, b).items()
        for a, by_sub, a_a in tabs:
            terms, den = [], a_a * a_b
            for m, quots in b_subs:
                sums: dict = {}  # n -> sum over I
                for i_cls, g_b in quots:
                    subs = by_sub.get(i_cls)
                    if subs is not None:
                        w = g_b * aut(i_cls)
                        for n, g_a in subs:
                            sums[n] = sums.get(n, 0) + w * g_a
                if sums:
                    a_m = aut(m)
                    for n in sorted(sums, key=attrgetter("index")) if len(sums) > 1 else sums:
                        num = sums[n] * a_m * aut(n)
                        g = math.gcd(num, den)
                        terms.append((m, n, num // g, den // g))
            if terms:
                out[a, b] = terms
    return out


def gamma_terms(reg: ClassRegistry, a: IsoClassId,
                b: IsoClassId) -> tuple[tuple[IsoClassId, IsoClassId, int, int], ...]:
    """Every nonzero gamma(a, b, m, n) as (m, n, num, den), the value num / den
    in lowest terms.

    gamma counts 4-term exact sequences 0 -> m -> b -> a -> n -> 0, split at
    the middle class I into 0 -> m -> b -> I -> 0 and 0 -> I -> a -> n -> 0:

        gamma = a_m a_n / (a_a a_b) * sum_I g^b_{I,m} g^a_{n,I} a_I.

    The sum is the join of _gamma_join on the one pair (a, b), redone on
    every call: the one engine caller, DerivedHall._pair_rule, memoizes the
    rule it builds from the terms.  Terms come in the order m's dims in
    subdimvecs(dims b), then m's index, then n's index.
    """
    return tuple(_gamma_join(reg, (a,), (b,), reg.aut_count).get((a, b), ()))


def gamma_sweep(reg: ClassRegistry, classes: list[IsoClassId]) -> Iterator[
        tuple[IsoClassId, IsoClassId, list[tuple[IsoClassId, IsoClassId, int, int]]]]:
    """(a, b, terms) for every pair of classes, a-major: the terms of
    gamma_terms(reg, a, b), as a list.

    classes must hold every subobject and quotient of its members, as
    all_classes_total_le does; IncompatibleObjects names a class it lacks.
    All pairs come from one _gamma_join, which reads each class's tables and
    Aut once.
    """
    aut = {c: reg.aut_count(c) for c in classes}
    for c in classes:
        for sub, quots in subquotient_tables(reg, c).items():
            missing = next((x for x in (sub, *(i for i, _ in quots)) if x not in aut), None)
            if missing is not None:
                raise IncompatibleObjects(
                    f"class list holds {reg.class_id_str(c)} but not its subobject or "
                    f"quotient {reg.class_id_str(missing)}")
    joined = _gamma_join(reg, classes, classes, aut.__getitem__)
    for a in classes:
        for b in classes:
            yield a, b, joined.get((a, b), [])


def gamma_coeff(reg: ClassRegistry, a: IsoClassId, b: IsoClassId,
                m: IsoClassId, n: IsoClassId) -> Fraction:
    """Normalized count of 4-term exact sequences 0 -> m -> b -> a -> n -> 0:
    the (m, n) term of gamma_terms(reg, a, b), or 0 when it has none."""
    return next((Fraction(num, den) for m2, n2, num, den in gamma_terms(reg, a, b)
                 if (m2, n2) == (m, n)), Fraction(0))


def _hall_by_pair(reg: ClassRegistry, dims: DimVec) -> dict[
        tuple[IsoClassId, IsoClassId], dict[IsoClassId, int]]:
    """{(a, b): {c: g^c_{a,b}}} over the classes c of dims, nonzero numbers only:
    their subquotient_tables regrouped by (quotient, subobject) pair, memoized
    per registry by dims."""
    memo = reg.memo("hall_by_pair")
    table = memo.get(dims)
    if table is None:
        table = memo[dims] = {}
        for c in reg.classes(dims):
            for sub, quots in subquotient_tables(reg, c).items():
                for quot, g in quots:
                    table.setdefault((quot, sub), {})[c] = g
    return table


def green_sides(reg: ClassRegistry, a: IsoClassId, b: IsoClassId,
                a2: IsoClassId, b2: IsoClassId) -> tuple[Fraction, Fraction]:
    """Both sides of Green's formula for the quadruple (a, b, a2, b2).

    Left:  a_a a_b a_{a2} a_{b2} * sum_c g^c_{a,b} g^c_{a2,b2} / a_c, over the
           classes c where both pairs' Hall numbers (_hall_by_pair) are nonzero.
    Right: sum over (x, y, x2, y2) of q^(-<x, y2>) = |Ext^1(x, y2)| / |Hom(x, y2)|
           times g^a_{x,x2} g^{a2}_{x,y} g^b_{y,y2} g^{b2}_{x2,y2} a_x a_y a_{x2} a_{y2}:
           one join of the four classes' subquotient_tables, b's and b2's met at
           their subobject y2, a's read at x2 and a2's at y.
    """
    aut = reg.aut_count
    lhs = Fraction(0)
    dims = dims_add(a.dims, b.dims)
    if dims == dims_add(a2.dims, b2.dims):
        by_pair = _hall_by_pair(reg, dims)
        cs2 = by_pair.get((a2, b2), {})
        for c, g1 in by_pair.get((a, b), {}).items():
            g2 = cs2.get(c)
            if g2:
                lhs += Fraction(g1 * g2, aut(c))
        lhs *= aut(a) * aut(b) * aut(a2) * aut(b2)

    euler, by_sub_a = euler_table(reg), subquotient_tables(reg, a)
    by_sub_a2, by_sub_b2 = subquotient_tables(reg, a2), subquotient_tables(reg, b2)
    rhs = Fraction(0)
    for y2, ys in subquotient_tables(reg, b).items():
        x2s = by_sub_b2.get(y2, ())
        for y, g_b in ys:
            xs = dict(by_sub_a2.get(y, ()))
            for x2, g_b2 in x2s:
                w = g_b * g_b2 * aut(y) * aut(y2) * aut(x2)
                for x, g_a in by_sub_a.get(x2, ()):
                    if x in xs:
                        rhs += (Fraction(reg.p) ** -euler[x.dims, y2.dims]
                                * (w * g_a * xs[x] * aut(x)))
    return lhs, rhs

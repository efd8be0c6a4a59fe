"""t-periodic complexes of representations and derived Hom/cone counting.

Periodicity t is 0 (ordinary bounded complexes) or a positive odd integer
(cyclic complexes with degrees in Z/t).  Graded objects (zero-differential
complexes up to isomorphism) index the basis of the derived Hall algebra;
ComplexObj carries honest differentials for the category C_t.

A complex over Q is a representation of its degree quiver: one vertex (i, v)
per degree i and vertex v, a copy of every arrow of Q at each degree, and one
arrow (i, v) -> (i+1, v) per vertex carrying the differential.  Chain maps are
the morphisms of these representations, so chain isomorphism comes from
reps.py.

Derived morphisms Z_a -> Z_b at t = 1 are counted by their cone without
listing complexes: they are the C_1-extensions of Z_a by Z_b, i.e. the pairs
(class in Ext^1(A, B), f in Hom(A, B)), and each pair's cone is the homology
of its middle complex (cone_counts, which keeps no memo).
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple

from .errors import (EnumerationTooLarge, IncompatibleObjects, InternalInconsistency,
                     UnsupportedPeriod)
from .linalg import (Mat, echelon, kernel_basis, pack_row, rank, reduced_rows,
                     subspace_from_vectors)
from .quivers import Arrow, DimVec, Quiver, check_period
from .reps import (ClassRegistry, IsoClassId, Morphism, Rep, _hom_elements,
                   _hom_kernel, _hom_system, _unflatten, direct_sum, is_isomorphic,
                   quotient_by_subrep, restrict_to_subspaces)

DEFAULT_COMPLEX_ENUM_BOUND = 2 ** 17


def add_degree(t: int, i: int, k: int) -> int:
    """Degree i + k: in Z/t when t > 0, in Z when t = 0."""
    return (i + k) % t if t else i + k


def _by_degree(t: int, pairs, drop_empty: bool, message: str) -> dict:
    """{degree: item} from (degree, item) pairs, degrees reduced mod t when
    t > 0 and, if drop_empty, items of total dimension 0 dropped; a repeated
    degree raises IncompatibleObjects(message.format(degree))."""
    out: dict = {}
    for deg, item in pairs:
        if t > 0:
            deg %= t
        if drop_empty and item.total_dim == 0:
            continue
        if deg in out:
            raise IncompatibleObjects(message.format(deg))
        out[deg] = item
    return out


def _at_degree(pairs: tuple, t: int, deg: int):
    """The item at deg (reduced mod t when t > 0) of (degree, item) pairs, else None."""
    if t > 0:
        deg %= t
    for d, x in pairs:
        if d == deg:
            return x
    return None


class GradedObject(namedtuple("GradedObject", "t n_vertices components")):
    """An isomorphism class of zero-differential t-periodic complexes.

    components holds (degree, class) pairs, sorted, zero classes omitted;
    degrees are residues mod t when t > 0, arbitrary ints when t = 0.
    """

    __slots__ = ()

    def component(self, deg: int) -> IsoClassId | None:
        return _at_degree(self.components, self.t, deg)

    def dims_at(self, deg: int) -> DimVec:
        c = self.component(deg)
        return c.dims if c is not None else (0,) * self.n_vertices

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.components)

    @property
    def total_dim(self) -> int:
        return sum(c.total_dim for _, c in self.components)

    def is_zero(self) -> bool:
        return not self.components

    def shift(self, s: int) -> "GradedObject":
        """The shift [s]: the component at degree d moves to degree d - s.
        Shifting keeps the order at t = 0; at odd t the residues are re-sorted."""
        t = self.t
        return GradedObject(t, self.n_vertices, tuple(
            sorted(((d - s) % t, c) for d, c in self.components) if t
            else ((d - s, c) for d, c in self.components)))


def graded_object(t: int, n_vertices: int, items) -> GradedObject:
    """Canonical GradedObject from (degree, class) pairs; zero classes dropped."""
    check_period(t)
    out = _by_degree(t, items, True,
                     "two components share degree {}; combine them into one class first")
    return GradedObject(t, n_vertices, tuple(sorted(out.items())))


def stalk(reg: ClassRegistry, t: int, cls: IsoClassId, deg: int = 0) -> GradedObject:
    return graded_object(t, reg.quiver.n, [(deg, cls)])


def class_at_or_zero(reg: ClassRegistry, g: GradedObject, deg: int) -> IsoClassId:
    c = g.component(deg)
    return c if c is not None else reg.zero_class()


def format_graded(reg: ClassRegistry, g: GradedObject) -> str:
    inner = ", ".join(f"{reg.class_id_str(c)}@{d}" for d, c in g.components)
    return f"[{inner}]"


def parse_graded(reg: ClassRegistry, t: int, text: str) -> GradedObject:
    """Parse "[classid@deg, ...]"; components landing on one degree are summed."""
    check_period(t)
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise IncompatibleObjects(f"graded object must look like [k1@0, ...], got {text!r}")
    body = s[1:-1].strip()
    by_degree: dict[int, list[IsoClassId]] = {}
    if body:
        for item in body.split(","):
            if "@" not in item:
                raise IncompatibleObjects(f"graded component {item.strip()!r} lacks '@degree'")
            cls_s, deg_s = item.rsplit("@", 1)
            try:
                deg = int(deg_s.strip())
            except ValueError:
                raise IncompatibleObjects(f"bad degree {deg_s.strip()!r}") from None
            cls = reg.parse_class_id(cls_s.strip())
            by_degree.setdefault(add_degree(t, deg, 0), []).append(cls)
    items = []
    for deg, classes in by_degree.items():
        if len(classes) == 1:
            items.append((deg, classes[0]))
        else:
            acc = reg.representative(classes[0])
            for c in classes[1:]:
                acc = direct_sum(acc, reg.representative(c))
            items.append((deg, reg.classify(acc)))
    return graded_object(t, reg.quiver.n, items)


class ComplexObj(namedtuple("ComplexObj", "t quiver p components differentials")):
    """A t-periodic complex: components plus differentials d^i : comp(i) -> comp(i+1).

    Zero components and zero differentials are omitted (canonical structural
    form); degrees are residues mod t when t > 0.
    """

    __slots__ = ()

    def comp_at(self, deg: int) -> Rep | None:
        return _at_degree(self.components, self.t, deg)

    def dims_at(self, deg: int) -> DimVec:
        r = self.comp_at(deg)
        return r.dims if r is not None else (0,) * self.quiver.n

    def diff_at(self, deg: int) -> Morphism | None:
        return _at_degree(self.differentials, self.t, deg)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.components)


def complex_obj(t: int, quiver: Quiver, p: int, comps: dict[int, Rep],
                diffs: dict[int, Morphism] | None = None, validate: bool = True) -> ComplexObj:
    """Canonicalize and (optionally) validate a complex given as degree dicts."""
    check_period(t)
    comps_norm = _by_degree(t, comps.items(), True, "two components share degree {}")
    diffs_norm = _by_degree(t, (diffs or {}).items(), False, "two differentials share degree {}")
    comps_sorted = tuple(sorted(comps_norm.items()))
    if validate:
        # Zero differentials are checked too (vertex count, shapes) before they are dropped.
        validate_complex(ComplexObj(t, quiver, p, comps_sorted, tuple(sorted(diffs_norm.items()))))
    return ComplexObj(t, quiver, p, comps_sorted,
                      tuple(sorted((deg, mor) for deg, mor in diffs_norm.items()
                                   if not all(m.is_zero() for m in mor))))


def validate_complex(c: ComplexObj) -> None:
    """Check shapes, the morphism property of each d^i, and d.d = 0."""
    q = c.quiver
    for deg, rep in c.components:
        if rep.quiver != q or rep.p != c.p:
            raise IncompatibleObjects("component over a different quiver or field")
    for deg, mor in c.differentials:
        src, tgt = c.comp_at(deg), c.comp_at(add_degree(c.t, deg, 1))
        src_dims = src.dims if src else (0,) * q.n
        tgt_dims = tgt.dims if tgt else (0,) * q.n
        if len(mor) != q.n:
            raise IncompatibleObjects("differential needs one matrix per vertex")
        for v, m in enumerate(mor):
            if m.p != c.p or m.rows != tgt_dims[v] or m.cols != src_dims[v]:
                raise IncompatibleObjects(f"differential at degree {deg} has a bad shape at vertex {v}")
        if src is None or tgt is None:
            if any(not m.is_zero() for m in mor):
                raise IncompatibleObjects(f"nonzero differential at degree {deg} touches a zero component")
            continue
        for idx, a in enumerate(q.arrows):
            lhs = mor[a.target].mul(src.mats[idx])
            rhs = tgt.mats[idx].mul(mor[a.source])
            if lhs != rhs:
                raise IncompatibleObjects(f"differential at degree {deg} is not a morphism of representations")
    for deg, mor in c.differentials:
        nxt = c.diff_at(add_degree(c.t, deg, 1))
        if nxt is None:
            continue
        for v in range(q.n):
            if not nxt[v].mul(mor[v]).is_zero():
                raise IncompatibleObjects(f"d.d != 0 at degree {deg}, vertex {v}")


def _columns(m: Mat) -> list[tuple[int, ...]]:
    return [tuple(row[j] for row in m.entries) for j in range(m.cols)]


def homology(reg: ClassRegistry, c: ComplexObj) -> GradedObject:
    """Degreewise ker/im homology, classified into a GradedObject."""
    q, p = c.quiver, c.p
    items: list[tuple[int, IsoClassId]] = []
    for deg, rep in c.components:
        d_out, d_in = c.diff_at(deg), c.diff_at(add_degree(c.t, deg, -1))
        ker = tuple(subspace_from_vectors(p, rep.dims[v], kernel_basis(d_out[v]) if d_out
                                          else Mat.identity(p, rep.dims[v]).entries)
                    for v in range(q.n))
        # d.d = 0 puts every image vector inside the kernel.
        im = tuple(subspace_from_vectors(p, ker[v].dim, [ker[v].coords(col) for col in
                                                         (_columns(d_in[v]) if d_in else ())])
                   for v in range(q.n))
        h = quotient_by_subrep(restrict_to_subspaces(rep, ker), im)
        if h.total_dim > 0:
            items.append((deg, reg.classify(h)))
    return graded_object(c.t, q.n, items)


# -- chain maps, through the degree quiver ---------------------------------------


@functools.lru_cache
def _degree_quiver(q: Quiver, t: int, degrees: tuple[int, ...]) -> Quiver:
    """Degree quiver of q over the given degrees, degree-major: vertex (i, v) is
    number k * q.n + v for the k-th degree i.  Differential arrows join i to the
    next degree when it is present; at t = 1 they are loops, so this quiver never
    meets validate_quiver (nothing here needs it to be acyclic)."""
    pos = {i: k for k, i in enumerate(degrees)}
    vertices: list[str] = []
    arrows: list[Arrow] = []
    for k, i in enumerate(degrees):
        vertices += [f"{name}@{i}" for name in q.vertices]
        arrows += [Arrow(k * q.n + a.source, k * q.n + a.target, f"{a.label}@{i}")
                   for a in q.arrows]
        nk = pos.get(add_degree(t, i, 1))
        if nk is not None:
            arrows += [Arrow(k * q.n + v, nk * q.n + v, f"d{v}@{i}") for v in range(q.n)]
    return Quiver(tuple(vertices), tuple(arrows))


def _as_reps(*cs: ComplexObj) -> tuple[Rep, ...]:
    """The complexes as representations of one shared degree quiver, whose
    degrees are Z/t for t > 0 and the sorted union of the degrees present for
    t = 0; the mats follow _degree_quiver's arrow order."""
    t, q, p = cs[0].t, cs[0].quiver, cs[0].p
    if any(c.t != t or c.quiver != q or c.p != p for c in cs):
        raise IncompatibleObjects("complexes live in different categories")
    degrees = tuple(range(t)) if t else tuple(sorted({i for c in cs for i in c.degrees}))
    dq = _degree_quiver(q, t, degrees)
    out = []
    for c in cs:
        dims: list[int] = []
        mats: list[Mat] = []
        for i in degrees:
            rep, d, src = c.comp_at(i), c.diff_at(i), c.dims_at(i)
            dims += src
            mats += rep.mats if rep else [Mat.zeros(p, 0, 0)] * len(q.arrows)
            ni = add_degree(t, i, 1)
            if ni in degrees:
                tgt = c.dims_at(ni)
                mats += d if d else [Mat.zeros(p, tgt[v], src[v]) for v in range(q.n)]
        out.append(Rep(dq, p, tuple(dims), tuple(mats)))
    return tuple(out)


def is_chain_isomorphic(c1: ComplexObj, c2: ComplexObj) -> bool:
    """Chain-isomorphism test: reps.is_isomorphic on the degree quiver, bounded as it is."""
    return is_isomorphic(*_as_reps(c1, c2))


# -- enumeration of complex classes -------------------------------------------
# The engine no longer needs these (cone_counts lists no complexes); the
# benchmark's tracer wraps both names, and tests/oracles.py judges the cone
# counts with them.


def enumerate_complex_classes(reg: ClassRegistry, t: int, dims_by_degree) -> list[ComplexObj]:
    """Canonical representatives of C_t-isomorphism classes of complexes.

    dims_by_degree[i] is the dimension vector at degree i (for t > 0 its length
    must be t; for t = 0 it describes the window starting at degree 0).
    Deterministic: component classes in registry order, differentials in
    odometer order, classes in first-found order.  More than
    DEFAULT_COMPLEX_ENUM_BOUND differential choices raise EnumerationTooLarge.
    """
    check_period(t)
    dims_by_degree = tuple(tuple(d) for d in dims_by_degree)
    if t > 0 and len(dims_by_degree) != t:
        raise IncompatibleObjects(f"need exactly {t} degree dims for period {t}")
    memo = reg.memo("complex_classes")
    key = (t, dims_by_degree)
    if key in memo:
        return memo[key]
    q = reg.quiver
    p = reg.p
    degrees = list(range(len(dims_by_degree)))
    class_lists = [reg.classes(d) for d in dims_by_degree]
    found: list[ComplexObj] = []
    for comp_choice in itertools.product(*class_lists):
        comps = {i: reg.representative(c) for i, c in zip(degrees, comp_choice)
                 if c.total_dim > 0}
        # Differential blocks between consecutive nonzero components; each
        # block's candidates are the elements of its Hom space, as flat vectors.
        blocks = []
        combos = 1
        for i in degrees:
            ni = add_degree(t, i, 1)
            if i in comps and ni in comps:
                kernel = _hom_kernel(comps[i], comps[ni])
                if kernel[0]:
                    blocks.append((i, kernel))
                    combos *= p ** len(kernel[0])
        if combos > DEFAULT_COMPLEX_ENUM_BOUND:
            raise EnumerationTooLarge(f"{combos} differential choices for dims {dims_by_degree} "
                                      f"exceed bound {DEFAULT_COMPLEX_ENUM_BOUND}")
        buckets: dict[tuple, list[int]] = {}
        survivors = 0
        for assignment in itertools.product(*(_hom_elements(p, kernel) for _, kernel in blocks)):
            diffs: dict[int, Morphism] = {}
            ok = True
            for (i, (_, shapes, offsets)), flat in zip(blocks, assignment):
                if any(flat):
                    diffs[i] = _unflatten(p, flat, shapes, offsets)
            # d.d = 0 across consecutive differentials.
            for i in list(diffs):
                ni = add_degree(t, i, 1)
                if ni in diffs:
                    for v in range(q.n):
                        if not diffs[ni][v].mul(diffs[i][v]).is_zero():
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                continue
            survivors += 1
            cand = complex_obj(t, q, p, comps, diffs, validate=False)
            ranks = tuple((i, tuple(rank(m) for m in diffs[i])) for i in sorted(diffs))
            sig = (ranks, homology(reg, cand).components)
            hit = None
            for k in buckets.get(sig, []):
                if is_chain_isomorphic(cand, found[k]):
                    hit = k
                    break
            if hit is None:
                buckets.setdefault(sig, []).append(len(found))
                found.append(cand)
        if survivors == 0 and comps:
            raise InternalInconsistency("no square-zero differential found, not even zero")
    memo[key] = found
    return found


# -- derived morphisms at t = 1, counted by cone --------------------------------


def _coboundary_transversal(m: Rep, n: Rep) -> list[tuple[int, int, int]]:
    """Cocycle coordinates (arrow, row, column) whose unit cocycles are a basis
    of Ext^1(m, n): the non-pivots of the RREF of the coboundaries
    delta(h)_a = n_a h_s - h_t m_a of the standard basis of (+)_v Hom_k(m_v, n_v).
    Those are minus the columns of the full Hom system, whose rows are the
    cocycle coordinates (an n_t x m_s matrix per arrow a: s -> t, row-major)."""
    pivots = set(echelon(m.p, _hom_system(m, n)[0])[1])
    coords = [(idx, r, c) for idx, a in enumerate(m.quiver.arrows)
              for r in range(n.dims[a.target]) for c in range(m.dims[a.source])]
    return [rc for k, rc in enumerate(coords) if k not in pivots]


def _middle_modules(rep_a: Rep, rep_b: Rep, transversal: list[tuple[int, int, int]]) -> list[tuple]:
    """The arrow-matrix entries of M_eps = B + A, [[B_a, eps_a], [0, A_a]] per
    arrow (rows of ints), one per eps in the span of the transversal's unit
    cocycles."""
    q, p = rep_a.quiver, rep_a.p
    split = direct_sum(rep_b, rep_a)
    out = []
    for coeffs in itertools.product(range(p), repeat=len(transversal)):
        rows = [[list(r) for r in m.entries] for m in split.mats]
        for x, (idx, r, c) in zip(coeffs, transversal):
            rows[idx][r][rep_b.dims[q.arrows[idx].source] + c] = x
        out.append(tuple(tuple(map(tuple, rs)) for rs in rows))
    return out


def _cone_spans(p: int, blocks: list[tuple[int, int]], key: tuple) -> list[tuple]:
    """Per vertex v, from key (the RREFs of f_v's rows and columns, for the
    vertices where f_v has entries): the basis of the cone's homology
    H_v = (B_v + ker f_v) / im f_v as vectors of B_v + A_v, and what reads the
    coordinates of a vector of B_v + ker f_v in it.  The basis is the unit
    vectors of B_v off the pivots of im f_v, then the basis of ker f_v that is
    1 at one free column of f_v and 0 at the others.  The reader is the pivots
    of im f_v, each other coordinate k of B_v with im f_v's basis entries at
    k, and the free columns of f_v, shifted past B_v."""
    out = []
    parts = iter(key)
    for nb, na in blocks:
        row_red, col_red = (next(parts), next(parts)) if nb and na else ((), ())
        row_piv = [r.index(next(filter(None, r))) for r in row_red]
        im_piv = [c.index(next(filter(None, c))) for c in col_red]
        im_free = [(k, tuple(c[k] for c in col_red)) for k in range(nb) if k not in im_piv]
        ker_free = [f for f in range(na) if f not in row_piv]
        basis = [tuple(int(j == k) for j in range(nb + na)) for k, _ in im_free]
        for f in ker_free:
            x = [0] * (nb + na)
            x[nb + f] = 1
            for c, r in zip(row_piv, row_red):
                x[nb + c] = -r[f] % p
            basis.append(tuple(x))
        out.append((basis, im_piv, im_free, [nb + f for f in ker_free]))
    return out


def _cone_entries(p: int, arrows, mats: tuple, spans: list[tuple]) -> tuple:
    """Per arrow, the entries of the cone's homology on the bases of spans,
    read off the entries mats of M_eps in one pass: each basis vector of the
    source is mapped by M_eps's arrow matrix, and the image's coordinates are
    its residue modulo im f at the target's other coordinates, then its
    entries at ker f's free columns."""
    out = []
    for a, rows in zip(arrows, mats):
        piv, free, ker = spans[a.target][1:]
        cols = []
        for w in spans[a.source][0]:
            y = [sum(map(operator.mul, row, w)) % p for row in rows]
            head = [y[i] for i in piv]
            cols.append([(y[k] - sum(map(operator.mul, head, col))) % p for k, col in free]
                        + [y[j] for j in ker])
        out.append(tuple(zip(*cols)) if cols else ((),) * (len(free) + len(ker)))
    return tuple(out)


def cone_counts(reg: ClassRegistry, a: GradedObject,
                b: GradedObject) -> dict[GradedObject, int]:
    """{x: number of morphisms Z_a -> Z_b in D_1 with cone Z_x}, counted afresh on
    every call: the t = 1 crosscheck asks for each pair once.

    With A, B the components of a, b, a C_1-extension of Z_a by Z_b is a module
    extension M_eps of A by B with d = i f p for a unique f in Hom(A, B), which
    equivalent extensions share (p i = 0).  So the morphisms are the pairs
    (eps in a transversal of the coboundaries, f), and each one's cone is the
    homology of (M_eps, i f p): ker d = B + ker f over im d = im f + 0, which
    depend on f only through (ker f, im f).  So every f is swept, but only to
    read off that key (the RREFs of f_v's rows and columns); the cone is built
    once per (key, eps) and weighted by the number of maps sharing the key.
    Past DEFAULT_COMPLEX_ENUM_BOUND pairs this raises EnumerationTooLarge up
    front.
    """
    if not (a.t == b.t == 1):
        raise UnsupportedPeriod("cone-class counting is implemented for t = 1")
    total = hom_dt_count(reg, a, b)
    if total > DEFAULT_COMPLEX_ENUM_BOUND:
        raise EnumerationTooLarge(
            f"{total} derived morphisms to sort by cone exceed bound {DEFAULT_COMPLEX_ENUM_BOUND}")
    cls_a, cls_b = class_at_or_zero(reg, a, 0), class_at_or_zero(reg, b, 0)
    rep_a, rep_b = reg.representative(cls_a), reg.representative(cls_b)
    transversal = _coboundary_transversal(rep_a, rep_b)
    if len(transversal) != reg.hom_ext_dims(cls_a, cls_b)[1]:
        raise InternalInconsistency("the coboundary transversal does not have dim Ext^1")
    middles = _middle_modules(rep_a, rep_b, transversal)
    p = reg.p
    kernel = _hom_kernel(rep_a, rep_b)
    blocks = kernel[1]
    # Per vertex v with f_v not 0 x 0: the slices of f_v's rows and columns in a flat Hom vector.
    slices = [(nb, na, [slice(x, x + na) for x in range(off, off + nb * na, na)],
               [slice(off + j, off + nb * na, na) for j in range(na)])
              for (nb, na), off in zip(blocks, kernel[2]) if nb and na]
    by_key: dict[tuple, int] = {}
    for flat in _hom_elements(p, kernel):
        key = []
        for nb, na, rows, cols in slices:
            key.append(tuple(reduced_rows(p, na, [pack_row(p, flat[s]) for s in rows])[1]))
            key.append(tuple(reduced_rows(p, nb, [pack_row(p, flat[s]) for s in cols])[1]))
        key = tuple(key)
        by_key[key] = by_key.get(key, 0) + 1
    arrows = reg.quiver.arrows
    counts: dict[GradedObject, int] = {}
    for key, weight in by_key.items():
        spans = _cone_spans(p, blocks, key)
        dims = tuple(len(s[0]) for s in spans)
        for mats in middles:
            # One component at degree 0, none for the zero class: already canonical.
            cls = reg.classify_entries(dims, _cone_entries(p, arrows, mats, spans))
            x = GradedObject(1, len(dims), ((0, cls),) if cls.total_dim else ())
            counts[x] = counts.get(x, 0) + weight
    if sum(counts.values()) != total:
        raise InternalInconsistency("cone counts do not add up to the derived Hom count")
    return counts


def dt_hom_with_cone_count(reg: ClassRegistry, a: GradedObject, b: GradedObject,
                           x: GradedObject) -> int:
    """|Hom_{D_1}(Z_a, Z_b)| with cone isomorphic to Z_x (period 1 only)."""
    if x.t != 1:
        raise UnsupportedPeriod("cone-class counting is implemented for t = 1")
    return cone_counts(reg, a, b).get(x, 0)


# -- derived Hom counting -------------------------------------------------------


def hom_dt_count(reg: ClassRegistry, a: GradedObject, b: GradedObject) -> int:
    """|Hom_{D_t}(a, b)| = prod_j |Hom(A^j, B^j)| |Ext^1(A^j, B^{j-1})|; a
    shift [s] of a is a.shift(s)."""
    return reg.p ** _hom_dt_exponent(reg, a, b)


def _hom_dt_exponent(reg: ClassRegistry, a: GradedObject, b: GradedObject) -> int:
    """The exponent of p in hom_dt_count: the sum of those dim Hom and dim Ext^1."""
    if a.t != b.t:
        raise IncompatibleObjects("periodicities differ")
    t = a.t
    b_at = dict(b.components)
    e = 0
    for j, src in a.components:
        tgt_h, tgt_e = b_at.get(j), b_at.get(add_degree(t, j, -1))
        if tgt_h is not None:
            e += reg.hom_ext_dims(src, tgt_h)[0]
        if tgt_e is not None:
            e += reg.hom_ext_dims(src, tgt_e)[1]
    return e


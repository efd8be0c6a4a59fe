"""t-periodic complexes of representations and derived Hom/cone counting.

Periodicity t is 0 (ordinary bounded complexes) or a positive odd integer
(cyclic complexes with degrees in Z/t).  Graded objects (zero-differential
complexes up to isomorphism) index the basis of the derived Hall algebra;
ComplexObj carries honest differentials for the category C_t.

A complex over Q is a representation of its degree quiver: one vertex (i, v)
per degree i and vertex v, a copy of every arrow of Q at each degree, and one
arrow (i, v) -> (i+1, v) per vertex carrying the differential.  Chain maps are
the morphisms of these representations and subcomplexes their
subrepresentations, so chain-map spaces, chain isomorphism, chain automorphism
counts and sub/quotient complexes all come from reps.py.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (EnumerationTooLarge, IncompatibleObjects, InternalInconsistency,
                     NotASubobject, UnsupportedPeriod)
from .hall import closed_subspace_tuples, ext1_count, euler_mult
from .linalg import Mat, kernel_basis, rank, subspace_from_vectors
from .quivers import Arrow, DimVec, Quiver, dims_add
from .reps import (DEFAULT_ISO_ENUM_BOUND, ClassRegistry, IsoClassId, Morphism, Rep,
                   _hom_elements, _hom_kernel, _isomorphisms, _unflatten, direct_sum, hom_dim,
                   is_isomorphic, quotient_by_subrep, restrict_to_subspaces, zero_rep)

DEFAULT_COMPLEX_ENUM_BOUND = 2 ** 17


def check_period(t: int) -> None:
    """Allow t = 0 (bounded) or positive odd t; reject everything else."""
    if not isinstance(t, int) or t < 0 or (t > 0 and t % 2 == 0):
        raise UnsupportedPeriod(f"periodicity must be 0 or a positive odd integer, got {t!r}")


@dataclass(frozen=True)
class GradedObject:
    """An isomorphism class of zero-differential t-periodic complexes.

    components holds (degree, class) pairs, sorted, zero classes omitted;
    degrees are residues mod t when t > 0, arbitrary ints when t = 0.
    """

    t: int
    n_vertices: int
    components: tuple[tuple[int, IsoClassId], ...]

    def component(self, deg: int) -> IsoClassId | None:
        if self.t > 0:
            deg %= self.t
        for d, c in self.components:
            if d == deg:
                return c
        return None

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
        """The shift [s]: the component at degree d moves to degree d - s."""
        return graded_object(self.t, self.n_vertices,
                             [(d - s, c) for d, c in self.components])


def graded_object(t: int, n_vertices: int,
                  items) -> GradedObject:
    """Canonical GradedObject from (degree, class) pairs; zero classes dropped."""
    check_period(t)
    out: dict[int, IsoClassId] = {}
    pairs = items.items() if hasattr(items, "items") else items
    for deg, cls in pairs:
        if t > 0:
            deg %= t
        if cls.total_dim == 0:
            continue
        if deg in out:
            raise IncompatibleObjects(
                f"two components share degree {deg}; combine them into one class first")
        out[deg] = cls
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
            if t > 0:
                deg %= t
            by_degree.setdefault(deg, []).append(reg.parse_class_id(cls_s.strip()))
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


@dataclass(frozen=True)
class ComplexObj:
    """A t-periodic complex: components plus differentials d^i : comp(i) -> comp(i+1).

    Zero components and zero differentials are omitted (canonical structural
    form); degrees are residues mod t when t > 0.
    """

    t: int
    quiver: Quiver
    p: int
    components: tuple[tuple[int, Rep], ...]
    differentials: tuple[tuple[int, Morphism], ...]

    def next_deg(self, i: int) -> int:
        return (i + 1) % self.t if self.t > 0 else i + 1

    def comp_at(self, deg: int) -> Rep | None:
        if self.t > 0:
            deg %= self.t
        for d, r in self.components:
            if d == deg:
                return r
        return None

    def dims_at(self, deg: int) -> DimVec:
        r = self.comp_at(deg)
        return r.dims if r is not None else (0,) * self.quiver.n

    def diff_at(self, deg: int) -> Morphism | None:
        if self.t > 0:
            deg %= self.t
        for d, m in self.differentials:
            if d == deg:
                return m
        return None

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.components)

    def total_dim(self) -> int:
        return sum(r.total_dim for _, r in self.components)


def complex_obj(t: int, quiver: Quiver, p: int, comps: dict[int, Rep],
                diffs: dict[int, Morphism] | None = None, validate: bool = True) -> ComplexObj:
    """Canonicalize and (optionally) validate a complex given as degree dicts."""
    check_period(t)
    comps_norm: dict[int, Rep] = {}
    for deg, rep in comps.items():
        if t > 0:
            deg %= t
        if rep.total_dim == 0:
            continue
        if deg in comps_norm:
            raise IncompatibleObjects(f"two components share degree {deg}")
        comps_norm[deg] = rep
    diffs_norm: dict[int, Morphism] = {}
    for deg, mor in (diffs or {}).items():
        if t > 0:
            deg %= t
        if deg in diffs_norm:
            raise IncompatibleObjects(f"two differentials share degree {deg}")
        diffs_norm[deg] = mor
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
        src, tgt = c.comp_at(deg), c.comp_at(c.next_deg(deg))
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
        nxt = c.diff_at(c.next_deg(deg))
        if nxt is None:
            continue
        for v in range(q.n):
            if not nxt[v].mul(mor[v]).is_zero():
                raise IncompatibleObjects(f"d.d != 0 at degree {deg}, vertex {v}")


def zero_diff_complex(reg: ClassRegistry, g: GradedObject) -> ComplexObj:
    comps = {deg: reg.representative(c) for deg, c in g.components}
    return complex_obj(g.t, reg.quiver, reg.p, comps, {}, validate=False)


def _columns(m: Mat) -> list[tuple[int, ...]]:
    return [tuple(row[j] for row in m.entries) for j in range(m.cols)]


def homology(reg: ClassRegistry, c: ComplexObj) -> GradedObject:
    """Degreewise ker/im homology, classified into a GradedObject."""
    q = c.quiver
    items: list[tuple[int, IsoClassId]] = []
    for deg, rep in c.components:
        d_out = c.diff_at(deg)
        prev = (deg - 1) % c.t if c.t > 0 else deg - 1
        d_in = c.diff_at(prev)
        ker_subs = []
        for v in range(q.n):
            if d_out is None:
                basis = tuple(tuple(1 if i == j else 0 for i in range(rep.dims[v]))
                              for j in range(rep.dims[v]))
                ker_subs.append(subspace_from_vectors(c.p, rep.dims[v], list(basis)))
            else:
                ker_subs.append(subspace_from_vectors(c.p, rep.dims[v],
                                                      list(kernel_basis(d_out[v]))))
        ker_rep = restrict_to_subspaces(rep, tuple(ker_subs))
        im_subs = []
        for v in range(q.n):
            vecs = []
            if d_in is not None:
                for col in _columns(d_in[v]):
                    # d.d = 0 puts every image vector inside the kernel.
                    vecs.append(ker_subs[v].coords(col))
            im_subs.append(subspace_from_vectors(c.p, ker_subs[v].dim, vecs))
        h = quotient_by_subrep(ker_rep, tuple(im_subs))
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
        nk = pos.get((i + 1) % t if t else i + 1)
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
            ni = c.next_deg(i)
            if ni in degrees:
                tgt = c.dims_at(ni)
                mats += d if d else [Mat.zeros(p, tgt[v], src[v]) for v in range(q.n)]
        out.append(Rep(dq, p, tuple(dims), tuple(mats)))
    return tuple(out)


def hom_ct_dim(c1: ComplexObj, c2: ComplexObj) -> int:
    """Dimension of the space of chain maps c1 -> c2."""
    return hom_dim(*_as_reps(c1, c2))


def hom_ct_count(c1: ComplexObj, c2: ComplexObj) -> int:
    """Number of chain maps c1 -> c2 in C_t."""
    return c1.p ** hom_ct_dim(c1, c2)


def is_chain_isomorphic(c1: ComplexObj, c2: ComplexObj,
                        bound: int = DEFAULT_ISO_ENUM_BOUND) -> bool:
    """Exhaustive chain-isomorphism test."""
    return is_isomorphic(*_as_reps(c1, c2), bound)


def aut_ct_count(reg: ClassRegistry, c: ComplexObj,
                 bound: int = DEFAULT_ISO_ENUM_BOUND) -> int:
    """|Aut_{C_t}(c)|; zero-differential complexes use per-component counts."""
    if not c.differentials:
        out = 1
        for _, rep in c.components:
            out *= reg.aut_count(reg.classify(rep))
        return out
    (rep,) = _as_reps(c)
    return sum(1 for _ in _isomorphisms(rep, rep, bound))


# -- enumeration of complex classes -------------------------------------------


def enumerate_complex_classes(reg: ClassRegistry, t: int, dims_by_degree,
                              bound: int = DEFAULT_COMPLEX_ENUM_BOUND) -> list[ComplexObj]:
    """Canonical representatives of C_t-isomorphism classes of complexes.

    dims_by_degree[i] is the dimension vector at degree i (for t > 0 its length
    must be t; for t = 0 it describes the window starting at degree 0).
    Deterministic: component classes in registry order, differentials in
    odometer order, classes in first-found order.
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

    def next_deg(i: int) -> int:
        return (i + 1) % t if t > 0 else i + 1

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
            ni = next_deg(i)
            if i in comps and ni in comps:
                kernel = _hom_kernel(comps[i], comps[ni])
                if kernel[0]:
                    blocks.append((i, kernel))
                    combos *= p ** len(kernel[0])
        if combos > bound:
            raise EnumerationTooLarge(
                f"{combos} differential choices for dims {dims_by_degree} exceed bound {bound}")
        single_endo = (q.n == 1 and not q.arrows and t == 1 and len(blocks) == 1)
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
                ni = next_deg(i)
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
            if single_endo:
                # One vertex, no arrows, period one: chain iso = conjugacy of a
                # square-zero endomorphism, classified by its rank alone.
                d0 = diffs.get(0)
                sig: tuple = (rank(d0[0]) if d0 else 0,)
                if sig not in buckets:
                    buckets[sig] = [len(found)]
                    found.append(cand)
                continue
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


# -- subcomplexes and Hall numbers in C_t --------------------------------------


def hall_number_ct(reg: ClassRegistry, a: GradedObject, b: GradedObject,
                   c: ComplexObj) -> int:
    """Subcomplexes of c isomorphic to Z_b with quotient complex isomorphic to Z_a."""
    if a.t != c.t or b.t != c.t:
        raise IncompatibleObjects("periodicities differ")
    degrees = sorted(set(c.degrees) | set(a.support) | set(b.support))
    for i in degrees:
        if dims_add(a.dims_at(i), b.dims_at(i)) != c.dims_at(i):
            return 0
    rep_c, rep_a, rep_b = _as_reps(c, zero_diff_complex(reg, a), zero_diff_complex(reg, b))
    # One tuple of subrepresentations per degree of the degree quiver, in its
    # vertex order; restrict_to_subspaces then checks the differentials.
    zero = zero_rep(reg.quiver, reg.p)
    per_degree = [list(closed_subspace_tuples(c.comp_at(i) or zero, b.dims_at(i)))
                  for i in (range(c.t) if c.t else c.degrees)]
    count = 0
    for assignment in itertools.product(*per_degree):
        subs = tuple(itertools.chain.from_iterable(assignment))
        try:
            sub = restrict_to_subspaces(rep_c, subs)
        except NotASubobject:  # not closed under the differentials
            continue
        if is_isomorphic(sub, rep_b) and is_isomorphic(quotient_by_subrep(rep_c, subs), rep_a):
            count += 1
    return count


def ext1_ct_middle_count(reg: ClassRegistry, a: GradedObject, b: GradedObject,
                         c: ComplexObj) -> int:
    """|Ext^1_{C_t}(Z_a, Z_b)_c| via the Riedtmann identity inside C_t."""
    g = hall_number_ct(reg, a, b, c)
    if g == 0:
        return 0
    za = zero_diff_complex(reg, a)
    zb = zero_diff_complex(reg, b)
    num = (g * hom_ct_count(za, zb)
           * aut_ct_count(reg, za) * aut_ct_count(reg, zb))
    den = aut_ct_count(reg, c)
    if num % den != 0:
        raise InternalInconsistency("C_t extension count with fixed middle is not an integer")
    return num // den


def dt_hom_with_cone_count(reg: ClassRegistry, a: GradedObject, b: GradedObject,
                           x: GradedObject) -> int:
    """|Hom_{D_1}(Z_a, Z_b)| with cone isomorphic to Z_x (period 1 only).

    Counted through square-zero middle terms: morphisms with a given cone class
    correspond to C_1-extension classes whose middle complex has homology x.
    """
    if not (a.t == b.t == x.t == 1):
        raise UnsupportedPeriod("cone-class counting is implemented for t = 1")
    memo = reg.memo("cone_count")
    key = (a, b, x)
    if key in memo:
        return memo[key]
    target = dims_add(a.dims_at(0), b.dims_at(0))
    total = 0
    for cplx in enumerate_complex_classes(reg, 1, (target,)):
        if homology(reg, cplx) != x:
            continue
        total += ext1_ct_middle_count(reg, a, b, cplx)
    memo[key] = total
    return total


# -- derived Hom counting -------------------------------------------------------


def hom_dt_count(reg: ClassRegistry, a: GradedObject, b: GradedObject,
                 shift: int = 0) -> int:
    """|Hom_{D_t}(a[shift], b)| = prod_j |Hom(A^{j+s}, B^j)| |Ext^1(A^{j+s}, B^{j-1})|."""
    if a.t != b.t:
        raise IncompatibleObjects("periodicities differ")
    t = a.t
    if t > 0:
        js = range(t)
    else:
        js = sorted({d - shift for d in a.support})
    out = 1
    for j in js:
        src = a.component(j + shift)
        if src is None:
            continue
        tgt_h = b.component(j)
        tgt_e = b.component(j - 1)
        if tgt_h is not None:
            out *= reg.p ** reg.hom_dim_classes(src, tgt_h)
        if tgt_e is not None:
            out *= ext1_count(reg, src, tgt_e)
    return out


def alt_hom_explicit(reg: ClassRegistry, a: GradedObject, b: GradedObject) -> Fraction:
    """prod_{i=0}^{t-1} |Hom_{D_t}(a[i], b)|^{(-1)^i} for odd positive t, by counting."""
    if a.t != b.t:
        raise IncompatibleObjects("periodicities differ")
    t = a.t
    if t < 1 or t % 2 == 0:
        raise UnsupportedPeriod("alternating Hom product needs odd positive t")
    out = Fraction(1)
    for i in range(t):
        h = hom_dt_count(reg, a, b, shift=i)
        out = out * h if i % 2 == 0 else out / h
    return out


def alt_hom_product(reg: ClassRegistry, a: GradedObject, b: GradedObject) -> Fraction:
    """Closed form of the alternating Hom product through Euler forms."""
    if a.t != b.t:
        raise IncompatibleObjects("periodicities differ")
    t = a.t
    if t < 1 or t % 2 == 0:
        raise UnsupportedPeriod("closed form needs odd positive t")
    out = Fraction(1)
    for i in range(t):
        ca = a.component(i)
        cb = b.component(i)
        if ca is not None and cb is not None:
            out *= reg.p ** reg.hom_dim_classes(ca, cb)
            out *= ext1_count(reg, ca, cb)
        for k in range(1, t):
            e = euler_mult(reg, a.dims_at(i + k), b.dims_at(i))
            out = out * e if k % 2 == 0 else out / e
    return out

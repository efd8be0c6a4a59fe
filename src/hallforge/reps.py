"""Finite-dimensional quiver representations over F_p and their isomorphism classes.

A representation assigns F_p^{d_v} to each vertex and a matrix to each arrow.
The ClassRegistry lists the isomorphism classes of a dimension vector by
sweeping matrix tuples with a prefix of vertex-disjoint arrows in rank normal
form, groups them by exhaustive isomorphism search, and memoizes orbit and
automorphism counts, Hom dimensions and (via its generic memo store) Hall
numbers.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterator

from .errors import (EnumerationTooLarge, IncompatibleObjects, InternalInconsistency,
                     NotASubobject)
from .linalg import (Mat, Subspace, check_prime, count_matrices_of_rank, echelon, gl_order,
                     pack_bits, pack_row, rank, rows_kernel, rows_rank)
from .quivers import DimVec, Quiver, total_dim, validate_quiver

#: Enumeration ceiling for Hom-space searches in isomorphism tests.
DEFAULT_ISO_ENUM_BOUND = 2 ** 16
#: Enumeration ceiling for matrix-tuple sweeps when listing classes of a dimension vector.
DEFAULT_TUPLE_BOUND = 2 ** 22

#: A morphism of representations: one matrix per vertex.
Morphism = tuple[Mat, ...]


@dataclass(frozen=True)
class Rep:
    """A representation: dims[v] at each vertex, mats[i] over arrow i (target x source)."""

    quiver: Quiver
    p: int
    dims: DimVec
    mats: tuple[Mat, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != self.quiver.n or len(self.mats) != len(self.quiver.arrows):
            raise IncompatibleObjects("dimension vector or matrix list has wrong length")
        for a, m in zip(self.quiver.arrows, self.mats):
            if m.p != self.p or m.rows != self.dims[a.target] or m.cols != self.dims[a.source]:
                raise IncompatibleObjects(
                    f"arrow {a.label!r} needs a {self.dims[a.target]}x{self.dims[a.source]} "
                    f"matrix over F_{self.p}")

    @property
    def total_dim(self) -> int:
        return total_dim(self.dims)


def _check_compatible(m: Rep, n: Rep) -> None:
    if m.quiver != n.quiver or m.p != n.p:
        raise IncompatibleObjects("representations live over different quivers or fields")


def semisimple_rep(quiver: Quiver, p: int, dims: DimVec) -> Rep:
    """The representation with the given dims and all arrow matrices zero."""
    mats = tuple(Mat.zeros(p, dims[a.target], dims[a.source]) for a in quiver.arrows)
    return Rep(quiver, p, tuple(dims), mats)


def zero_rep(quiver: Quiver, p: int) -> Rep:
    return semisimple_rep(quiver, p, (0,) * quiver.n)


def simple_rep(quiver: Quiver, p: int, vertex: int) -> Rep:
    dims = tuple(1 if v == vertex else 0 for v in range(quiver.n))
    return semisimple_rep(quiver, p, dims)


def direct_sum(m: Rep, n: Rep) -> Rep:
    """Block-diagonal direct sum (m block first)."""
    _check_compatible(m, n)
    p = m.p
    dims = tuple(a + b for a, b in zip(m.dims, n.dims))
    mats = []
    for i, a in enumerate(m.quiver.arrows):
        rt, ct = m.dims[a.target], m.dims[a.source]
        rb, cb = n.dims[a.target], n.dims[a.source]
        rows = []
        for r in range(rt):
            rows.append(tuple(m.mats[i].entries[r]) + (0,) * cb)
        for r in range(rb):
            rows.append((0,) * ct + tuple(n.mats[i].entries[r]))
        mats.append(Mat(p, rt + rb, ct + cb, tuple(rows)))
    return Rep(m.quiver, p, dims, tuple(mats))


def _hom_system(m: Rep, n: Rep) -> tuple[list, list[tuple[int, int]], list[int]]:
    """Linear system whose kernel is Hom(m, n), as rows in F_p's row format
    (see hallforge.linalg).

    Variables are the entries of the vertex maps f_v : m_v -> n_v (shape
    n.dims[v] x m.dims[v]), vertices in order, each matrix row-major.  One
    equation block per arrow a: s->t, reading f_t . m_a = n_a . f_s, one row
    per entry (i, j) of an n_t x m_s matrix, row-major.
    """
    _check_compatible(m, n)
    p = m.p
    q = m.quiver
    shapes = [(n.dims[v], m.dims[v]) for v in range(q.n)]
    offsets = list(itertools.accumulate((r * c for r, c in shapes), initial=0))
    nvars = offsets.pop()
    rows: list = []
    for idx, a in enumerate(q.arrows):
        s, t = a.source, a.target
        ma, na = m.mats[idx].entries, n.mats[idx].entries
        mt, ms, nt, ns = m.dims[t], m.dims[s], n.dims[t], n.dims[s]
        if not (nt and ms):
            continue
        if p == 2:
            # Bit nvars - 1 - x stands for variable x.  Row (i, j) holds column j
            # of m_a at the variables (t, i, k), k < m_t, and row i of n_a at the
            # variables (s, l, j), l < n_s: these shifted right by i * m_t and j.
            col_m = ([pack_bits(col) << nvars - offsets[t] - mt for col in zip(*ma)] if mt
                     else [0] * ms)
            row_n = [pack_bits(row, ms) << nvars - 1 - offsets[s] - (ns - 1) * ms for row in na]
            rows.extend(col_m[j] >> i * mt ^ row_n[i] >> j for i in range(nt) for j in range(ms))
            continue
        for i in range(nt):
            for j in range(ms):
                row = [0] * nvars
                for k in range(mt):
                    row[offsets[t] + i * mt + k] += ma[k][j]
                for l in range(ns):
                    row[offsets[s] + l * ms + j] -= na[i][l]
                rows.append([x % p for x in row])
    return rows, shapes, offsets


def hom_dim(m: Rep, n: Rep) -> int:
    """Dimension of Hom(m, n) over F_p."""
    rows, shapes, _ = _hom_system(m, n)
    return sum(r * c for r, c in shapes) - len(echelon(m.p, rows)[0])


def _unflatten(p: int, vec: tuple[int, ...], shapes: list[tuple[int, int]],
               offsets: list[int]) -> Morphism:
    out = []
    for (r, c), off in zip(shapes, offsets):
        ents = tuple(tuple(vec[off + i * c + j] for j in range(c)) for i in range(r))
        out.append(Mat(p, r, c, ents))
    return tuple(out)


def _hom_kernel(m: Rep, n: Rep) -> tuple[list[tuple[int, ...]], list[tuple[int, int]], list[int]]:
    """(flat kernel basis, shapes, offsets) of the Hom(m, n) system."""
    rows, shapes, offsets = _hom_system(m, n)
    return list(rows_kernel(m.p, sum(r * c for r, c in shapes), rows)), shapes, offsets


def hom_basis(m: Rep, n: Rep) -> tuple[Morphism, ...]:
    """Deterministic F_p-basis of Hom(m, n) as per-vertex matrix tuples."""
    basis, shapes, offsets = _hom_kernel(m, n)
    return tuple(_unflatten(m.p, v, shapes, offsets) for v in basis)


def _hom_elements(p: int, kernel) -> Iterator[tuple[int, ...]]:
    """Every element of the Hom space that kernel = (basis, shapes, offsets)
    from _hom_kernel spans, as a flat vector, with the coefficients in
    itertools.product order (the first basis vector's varies slowest)."""
    basis, shapes, _ = kernel
    nvars = sum(r * c for r, c in shapes)
    coeff_tuples = itertools.product(range(p), repeat=len(basis))
    if len(basis) == nvars:
        # The kernel is everything and kernel_basis returns the standard basis.
        yield from coeff_tuples
        return
    for coeffs in coeff_tuples:
        acc = [0] * nvars
        for c, vec in zip(coeffs, basis):
            if c:
                for i, x in enumerate(vec):
                    acc[i] = (acc[i] + c * x) % p
        yield tuple(acc)


def _isomorphisms(m: Rep, n: Rep, bound: int, kernel=None) -> Iterator[tuple[int, ...]]:
    """The invertible elements of Hom(m, n) as flat vectors, in _hom_elements
    order (kernel = _hom_kernel(m, n) may be passed in when already computed).

    Raises EnumerationTooLarge when Hom(m, n) has more than bound elements.
    """
    kernel = kernel if kernel is not None else _hom_kernel(m, n)
    basis, shapes, offsets = kernel
    p = m.p
    if p ** len(basis) > bound:
        raise EnumerationTooLarge(
            f"isomorphism search over {p}^{len(basis)} candidate morphisms exceeds bound {bound}")
    if any(r != c for r, c in shapes):
        return
    blocks = [(r, off) for (r, _), off in zip(shapes, offsets) if r]
    for flat in _hom_elements(p, kernel):
        if all(len(echelon(p, [pack_row(p, flat[i:i + r])
                               for i in range(off, off + r * r, r)])[0]) == r
               for r, off in blocks):
            yield flat


def is_isomorphic(m: Rep, n: Rep, enum_bound: int = DEFAULT_ISO_ENUM_BOUND) -> bool:
    """Exhaustive isomorphism test with cheap invariant prefilters."""
    _check_compatible(m, n)
    if m.dims != n.dims:
        return False
    if m == n:
        return True
    d_end = hom_dim(m, m)
    return hom_dim(n, n) == d_end and _isomorphic_given_end(m, n, d_end, enum_bound)


def _isomorphic_given_end(m: Rep, n: Rep, d_end: int, enum_bound: int) -> bool:
    """is_isomorphic(m, n) for m, n of equal dims whose End both have dimension d_end."""
    kernel = _hom_kernel(m, n)
    if len(kernel[0]) != d_end or hom_dim(n, m) != d_end:
        return False
    return next(_isomorphisms(m, n, enum_bound, kernel), None) is not None


def is_subrep(m: Rep, subs: tuple[Subspace, ...]) -> bool:
    """Do the given per-vertex subspaces form a subrepresentation of m?"""
    if len(subs) != m.quiver.n or any(s.ambient != d for s, d in zip(subs, m.dims)):
        raise IncompatibleObjects("one subspace per vertex with matching ambient dimension required")
    for idx, a in enumerate(m.quiver.arrows):
        mat, tgt = m.mats[idx], subs[a.target]
        if mat.is_zero():  # maps everything into every subspace
            continue
        for b in subs[a.source].basis:
            if not tgt.contains(mat.apply(b)):
                return False
    return True


def restrict_to_subspaces(m: Rep, subs: tuple[Subspace, ...]) -> Rep:
    """The subrepresentation carried by closed subspaces, in their RREF bases."""
    if not is_subrep(m, subs):
        raise NotASubobject("subspaces are not closed under the arrow maps")
    return _restrict(m, subs)


def _restrict(m: Rep, subs: tuple[Subspace, ...]) -> Rep:
    """restrict_to_subspaces for subspaces already known to be closed."""
    p = m.p
    mats = []
    for idx, a in enumerate(m.quiver.arrows):
        mat, src, tgt = m.mats[idx], subs[a.source], subs[a.target]
        cols = ([(0,) * tgt.dim] * src.dim if mat.is_zero()
                else [tgt.coords(mat.apply(b)) for b in src.basis])
        ents = tuple(tuple(col[i] for col in cols) for i in range(tgt.dim))
        mats.append(Mat(p, tgt.dim, src.dim, ents))
    return Rep(m.quiver, p, tuple(s.dim for s in subs), tuple(mats))


def quotient_by_subrep(m: Rep, subs: tuple[Subspace, ...]) -> Rep:
    """The quotient representation m / subs in complement coordinates.

    Coordinates on each quotient are the non-pivot standard basis vectors of
    the corresponding subspace, so the construction is deterministic.
    """
    if not is_subrep(m, subs):
        raise NotASubobject("subspaces are not closed under the arrow maps")
    return _quotient(m, subs)


def _quotient(m: Rep, subs: tuple[Subspace, ...]) -> Rep:
    """quotient_by_subrep for subspaces already known to be closed."""
    p = m.p
    comp = [[c for c in range(s.ambient) if c not in s.pivots] for s in subs]

    def project(v: int, vec: tuple[int, ...]) -> tuple[int, ...]:
        residue = subs[v].reduce(vec)
        return tuple(residue[c] for c in comp[v])

    mats = []
    for idx, a in enumerate(m.quiver.arrows):
        mat, s, t = m.mats[idx], a.source, a.target
        if mat.is_zero():
            mats.append(Mat.zeros(p, len(comp[t]), len(comp[s])))
            continue
        # The image of the c-th unit vector is column c.
        cols = [project(t, tuple(row[c] % p for row in mat.entries)) for c in comp[s]]
        ents = tuple(tuple(col[i] for col in cols) for i in range(len(comp[t])))
        mats.append(Mat(p, len(comp[t]), len(comp[s]), ents))
    dims = tuple(len(c) for c in comp)
    return Rep(m.quiver, p, dims, tuple(mats))


def _disjoint_prefix(q: Quiver) -> int:
    """Length of the longest prefix of q.arrows in which no two arrows share an endpoint."""
    seen: set[int] = set()
    for i, a in enumerate(q.arrows):
        if a.source in seen or a.target in seen:
            return i
        seen.update((a.source, a.target))
    return len(q.arrows)


def _arrows_vertex_disjoint(q: Quiver) -> bool:
    """True when no two arrows share an endpoint (so GL factors act per arrow)."""
    return _disjoint_prefix(q) == len(q.arrows)


def _rank_form(p: int, rows: int, cols: int, r: int) -> Mat:
    """The lex-first rows x cols matrix of rank r (row-major): the r x r
    anti-diagonal in the bottom-right corner."""
    return Mat(p, rows, cols, tuple(tuple(int(i >= rows - r and i + j == rows - r + cols - 1)
                                          for j in range(cols)) for i in range(rows)))


@dataclass(frozen=True, slots=True)
class IsoClassId:
    """Stable identifier of an isomorphism class: dimension vector + enumeration index.
    Its total dimension and its hash, that of (dims, index), are computed once."""

    dims: DimVec
    index: int
    total_dim: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "total_dim", total_dim(self.dims))
        object.__setattr__(self, "_hash", hash((self.dims, self.index)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def sort_key(self) -> tuple:
        return (self.total_dim, self.dims, self.index)


_CLASS_ID_RE = re.compile(r"^k(\d+(?:\.\d+)*)(?:#(\d+))?$")


class ClassRegistry:
    """Isomorphism classes, automorphism counts and memo tables for one (quiver, p)."""

    def __init__(self, quiver: Quiver, p: int,
                 iso_enum_bound: int = DEFAULT_ISO_ENUM_BOUND,
                 tuple_bound: int = DEFAULT_TUPLE_BOUND) -> None:
        validate_quiver(quiver)
        check_prime(p)
        self.quiver = quiver
        self.p = p
        self.iso_enum_bound = iso_enum_bound
        self.tuple_bound = tuple_bound
        # Per enumerated dims, its representatives; for loaded dims in _unbuilt,
        # their checked matrix entries until _reps builds them.  perfbench's
        # tracer reads the keys and lengths.
        self._classes: dict[DimVec, list] = {}
        self._unbuilt: set[DimVec] = set()
        self._ids: dict[DimVec, tuple[IsoClassId, ...]] = {}
        self._orbit: dict[IsoClassId, int] = {}
        self._aut: dict[IsoClassId, int] = {}
        self._hom_dim: dict[tuple[IsoClassId, IsoClassId], int] = {}
        self._id_str: dict[IsoClassId, str] = {}
        self._memos: dict[str, dict] = {}
        # With no two arrows sharing a vertex, the arrow ranks decide the class.
        self._classified_by_ranks = _arrows_vertex_disjoint(quiver)

    def memo(self, name, factory=dict) -> dict:
        """The memo table called name, made by factory() on first use."""
        return self._memos.get(name) or self._memos.setdefault(name, factory())

    # -- class enumeration ------------------------------------------------

    def _check_dims(self, dims: DimVec) -> DimVec:
        dims = tuple(dims)
        if len(dims) != self.quiver.n or any(d < 0 for d in dims):
            raise IncompatibleObjects(f"bad dimension vector {dims} for this quiver")
        return dims

    def ensure_enumerated(self, dims: DimVec) -> None:
        """Classes of dims, ordered and represented by their lex-first matrix tuples.

        The longest prefix of pairwise vertex-disjoint arrows, whose base-change
        groups act independently, is put in lex-first rank forms, each standing
        for the #rank-r matrices equivalent to it; only the other arrows are
        swept, and tuple_bound counts those tuples."""
        dims = self._check_dims(dims)
        if dims in self._classes:
            return
        q, p = self.quiver, self.p
        n_formed = _disjoint_prefix(q)
        shapes = [(dims[a.target], dims[a.source]) for a in q.arrows]
        swept = shapes[n_formed:]
        offsets = list(itertools.accumulate((r * c for r, c in swept), initial=0))
        rank_ranges = [range(min(shape) + 1) for shape in shapes[:n_formed]]
        n_tuples = math.prod(map(len, rank_ranges)) * p ** offsets[-1]
        if n_tuples > self.tuple_bound:
            raise EnumerationTooLarge(
                f"{n_tuples} matrix tuples for dims {dims} exceed bound {self.tuple_bound}")
        found: list[Rep] = []
        orbits: list[int] = []
        for ranks in itertools.product(*rank_ranges):
            forms = [_rank_form(p, r, c, k) for (r, c), k in zip(shapes, ranks)]
            weight = math.prod(count_matrices_of_rank(r, c, k, p)
                               for (r, c), k in zip(shapes, ranks))
            # Tuples whose forms differ in rank are never isomorphic.
            signatures: dict[tuple, list[int]] = {}
            for assignment in itertools.product(range(p), repeat=offsets[-1]):
                rep = Rep(q, p, dims, (*forms, *_unflatten(p, assignment, swept, offsets)))
                bucket = signatures.setdefault(self._signature(rep) if swept else (), [])
                hit = next((k for k in bucket
                            if is_isomorphic(rep, found[k], self.iso_enum_bound)), None)
                if hit is None:
                    bucket.append(len(found))
                    found.append(rep)
                    orbits.append(weight)
                else:
                    orbits[hit] += weight
        if sum(orbits) != p ** sum(r * c for r, c in shapes):
            raise InternalInconsistency("orbit sizes do not add up to the number of matrix tuples")
        for cid, o in zip(self._store_classes(dims, found), orbits):
            self._orbit[cid] = o

    def _store_classes(self, dims: DimVec, reps: list) -> tuple[IsoClassId, ...]:
        self._classes[dims] = reps
        ids = self._ids[dims] = tuple(IsoClassId(dims, k) for k in range(len(reps)))
        return ids

    def _reps(self, dims: DimVec) -> list[Rep]:
        """The representatives of enumerated dims; loaded ones are built from
        their stored entries on first use."""
        reps = self._classes[dims]
        if dims in self._unbuilt:
            self._unbuilt.remove(dims)
            q, p = self.quiver, self.p
            reps[:] = [Rep(q, p, dims, tuple(Mat(p, dims[a.target], dims[a.source], ents)
                                             for a, ents in zip(q.arrows, mats)))
                       for mats in reps]
        return reps

    def _signature(self, rep: Rep) -> tuple:
        sig = [hom_dim(rep, rep)]
        for v in range(self.quiver.n):
            s = simple_rep(self.quiver, self.p, v)
            sig.append(hom_dim(rep, s))
            sig.append(hom_dim(s, rep))
        return tuple(sig)

    def classes(self, dims: DimVec) -> tuple[IsoClassId, ...]:
        """The ids of dims in enumeration order, one shared tuple per dims."""
        try:
            return self._ids[dims]
        except (KeyError, TypeError):  # not enumerated yet, or dims not a tuple
            dims = self._check_dims(dims)
            self.ensure_enumerated(dims)
            return self._ids[dims]

    def representative(self, cid: IsoClassId) -> Rep:
        self.ensure_enumerated(cid.dims)
        reps = self._reps(tuple(cid.dims))
        if not 0 <= cid.index < len(reps):
            raise IncompatibleObjects(f"no class with index {cid.index} for dims {cid.dims}")
        return reps[cid.index]

    def zero_class(self) -> IsoClassId:
        return self.classes((0,) * self.quiver.n)[0]

    def classify(self, rep: Rep) -> IsoClassId:
        """The class of rep; off the rank-tuple route, memoized by matrix content."""
        if rep.quiver != self.quiver or rep.p != self.p:
            raise IncompatibleObjects("representation belongs to a different registry")
        if self._classified_by_ranks:
            self.ensure_enumerated(rep.dims)
            by_ranks = self.memo("class_by_rank_tuple")
            index = by_ranks.get(rep.dims)
            if index is None:
                index = by_ranks[rep.dims] = {self.rank_tuple(c): c for c in self._ids[rep.dims]}
            cid = index.get(tuple(rank(m) for m in rep.mats))
            if cid is None:
                raise InternalInconsistency("representation matched no enumerated class")
            return cid
        memo = self.memo("classify")
        key = (rep.dims, tuple(m.entries for m in rep.mats))
        cid = memo.get(key)
        if cid is None:
            cid = memo[key] = self._search_class(rep)
        return cid

    def _search_class(self, rep: Rep) -> IsoClassId:
        """The first class of rep.dims isomorphic to rep, tested in order."""
        self.ensure_enumerated(rep.dims)
        d_end = None  # dim End(rep), computed once the first candidate differs from rep
        for cid, cand in zip(self._ids[rep.dims], self._reps(rep.dims)):
            if rep == cand:
                return cid
            d_end = hom_dim(rep, rep) if d_end is None else d_end
            if self.hom_dim_classes(cid, cid) == d_end and _isomorphic_given_end(
                    rep, cand, d_end, self.iso_enum_bound):
                return cid
        raise InternalInconsistency("representation matched no enumerated class")

    def all_classes_total_le(self, max_total: int) -> list[IsoClassId]:
        from .quivers import dimvecs_up_to
        out: list[IsoClassId] = []
        for dims in sorted(dimvecs_up_to(self.quiver.n, max_total), key=lambda d: (sum(d), d)):
            out.extend(self.classes(dims))
        return out

    # -- memoized invariants ----------------------------------------------

    def rank_tuple(self, cid: IsoClassId) -> tuple[int, ...]:
        """The ranks of the arrow matrices of cid's representative."""
        memo = self.memo("rank_tuple")
        if cid not in memo:
            memo[cid] = tuple(rank(m) for m in self.representative(cid).mats)
        return memo[cid]

    def orbit_size(self, cid: IsoClassId) -> int:
        self.ensure_enumerated(cid.dims)
        return self._orbit[cid]

    def gl_product(self, dims: DimVec) -> int:
        out = 1
        for d in dims:
            out *= gl_order(d, self.p)
        return out

    def aut_count(self, cid: IsoClassId) -> int:
        """|Aut| by orbit-stabilizer: the base-change group acts with stabilizer Aut(rep).

        tests/test_reps.py checks these counts against a scan of End(rep).
        """
        if cid not in self._aut:
            glp, orbit = self.gl_product(cid.dims), self.orbit_size(cid)
            if glp % orbit != 0:
                raise InternalInconsistency(
                    f"orbit of class {self.class_id_str(cid)} does not divide the base-change group order")
            self._aut[cid] = glp // orbit
        return self._aut[cid]

    def hom_dim_classes(self, a: IsoClassId, b: IsoClassId) -> int:
        d = self._hom_dim.get((a, b))
        if d is None:
            d = self._hom_dim[a, b] = hom_dim(self.representative(a), self.representative(b))
        return d

    # -- naming -------------------------------------------------------------

    def class_id_str(self, cid: IsoClassId) -> str:
        s = self._id_str.get(cid)
        if s is None:
            base = "k" + ".".join(str(d) for d in cid.dims)
            s = self._id_str[cid] = base if cid.index == 0 else f"{base}#{cid.index}"
        return s

    def parse_class_id(self, s: str) -> IsoClassId:
        m = _CLASS_ID_RE.match(s.strip())
        if not m:
            raise IncompatibleObjects(f"cannot parse class id {s!r}")
        dims = tuple(int(x) for x in m.group(1).split("."))
        index = int(m.group(2) or 0)
        dims = self._check_dims(dims)
        self.ensure_enumerated(dims)
        if index >= len(self._classes[dims]):
            raise IncompatibleObjects(
                f"class id {s!r}: only {len(self._classes[dims])} classes exist for dims {dims}")
        return self._ids[dims][index]

    # -- cache support ------------------------------------------------------

    def export_state(self) -> dict:
        classes = {}
        for dims in sorted(self._classes):
            key = ",".join(str(d) for d in dims)
            rows = []
            for cid, rep in zip(self._ids[dims], self._reps(dims)):
                rows.append({
                    "mats": [[list(r) for r in m.entries] for m in rep.mats],
                    "orbit": self._orbit[cid],
                    "aut": self._aut.get(cid),
                })
            classes[key] = rows
        return {"classes": classes}

    def export_size(self) -> tuple[int, int]:
        """(dimension vectors, Aut counts) in export_state; both only grow."""
        return len(self._classes), len(self._aut)

    def import_state(self, state: dict) -> list[IsoClassId]:
        """Load exported classes after checking their counts against theory;
        returns the ids of the loaded classes.

        Each stored Aut must satisfy |Aut| * orbit = prod |GL(d_v)|, and the
        orbits of one dimension vector must partition all p^{#entries} matrix
        tuples.  Every class must hold one matrix per arrow, of the shape its
        dims give, with every entry an int in range(p); per dims, class 0 must
        be the all-zero tuple, no two representatives may be equal, and on a
        quiver classified by ranks the rank tuples must strictly increase.  A
        file that breaks any of these raises CacheInvalid.  The checked
        entries are kept, and _reps builds a dims' representatives from them
        on first use; the rank tuples computed here fill the rank_tuple memo.
        """
        from .errors import CacheInvalid
        loaded: list[IsoClassId] = []
        p, arrows = self.p, self.quiver.arrows
        rank_tuples = self.memo("rank_tuple")
        try:
            for key, rows in state.get("classes", {}).items():
                dims = self._check_dims(tuple(int(x) for x in key.split(",")))
                glp = self.gl_product(dims)
                shapes = [(dims[a.target], dims[a.source]) for a in arrows]
                stored, orbits, auts = [], [], []
                for row in rows:
                    mats = tuple(tuple(map(tuple, ents)) for ents in row["mats"])
                    if len(mats) != len(arrows):
                        raise CacheInvalid(f"class {len(stored)} of dims {dims}: {len(mats)} "
                                           f"matrices for {len(arrows)} arrows")
                    for (r, c), ents in zip(shapes, mats):
                        if not all(type(x) is int and 0 <= x < p for er in ents for x in er):
                            raise CacheInvalid(f"class {len(stored)} of dims {dims}: a matrix "
                                               f"entry is not an int in range({p})")
                        if len(ents) != r or any(len(er) != c for er in ents):
                            raise CacheInvalid(f"class {len(stored)} of dims {dims}: a matrix "
                                               f"is not {r}x{c}")
                    orbit = int(row["orbit"])
                    aut = None if row.get("aut") is None else int(row["aut"])
                    if orbit < 1 or (aut is not None and aut * orbit != glp):
                        raise CacheInvalid(f"class {len(stored)} of dims {dims}: stored "
                                           f"aut {aut} and orbit {orbit} break |Aut| * orbit = {glp}")
                    stored.append(mats)
                    orbits.append(orbit)
                    auts.append(aut)
                # hall._is_split_class and classify read these, so they must hold.
                if stored and any(any(map(any, ents)) for ents in stored[0]):
                    raise CacheInvalid(f"class 0 of dims {dims} is not the all-zero tuple")
                if len(set(stored)) != len(stored):
                    raise CacheInvalid(f"dims {dims} store two equal representatives")
                if self._classified_by_ranks:
                    ranks = [tuple(rows_rank(p, ents) for ents in mats) for mats in stored]
                    if any(x >= y for x, y in zip(ranks, ranks[1:])):
                        raise CacheInvalid(f"the rank tuples of dims {dims} do not increase")
                n_entries = sum(r * c for r, c in shapes)
                if sum(orbits) != p ** n_entries:
                    raise CacheInvalid(f"stored orbits of dims {dims} do not add up to "
                                       f"{p}^{n_entries} matrix tuples")
                ids = self._store_classes(dims, stored)
                self._unbuilt.add(dims)
                if self._classified_by_ranks:
                    rank_tuples.update(zip(ids, ranks))
                loaded.extend(ids)
                for cid, orbit, aut in zip(ids, orbits, auts):
                    self._orbit[cid] = orbit
                    if aut is not None:
                        self._aut[cid] = aut
        except (KeyError, ValueError, TypeError, IncompatibleObjects) as e:
            raise CacheInvalid(f"registry state failed validation: {e}") from None
        return loaded


#: aut_count(registry, cid) as a module-level name, which perfbench/tracing.py
#: wraps by name; it is the registry method, not a second route.
aut_count = ClassRegistry.aut_count

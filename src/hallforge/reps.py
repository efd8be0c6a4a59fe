"""Finite-dimensional quiver representations over F_p and their isomorphism classes.

A representation assigns F_p^{d_v} to each vertex and a matrix to each arrow.
The ClassRegistry lists the isomorphism classes of a dimension vector by
sweeping matrix tuples with a prefix of vertex-disjoint arrows in rank normal
form, groups the swept tuples by dim End (the one prefilter that
_search_class and is_isomorphic also use) and then by isomorphism tests (a
drawn witness, else exhaustive search), and memoizes orbit and automorphism
counts, one (Hom, Ext^1) dimension pair per ordered pair of classes, and (via
its generic memo store) Hall numbers.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
import re
from collections import namedtuple
from typing import Iterator

from .errors import (CacheInvalid, EnumerationTooLarge, IncompatibleObjects,
                     InternalInconsistency, NotASubobject)
from .linalg import (Mat, Subspace, check_prime, count_matrices_of_rank, echelon, gl_order,
                     pack_bits, pack_row, rank, rows_kernel, rows_rank)
from .quivers import (DimVec, Quiver, dimvecs_up_to, dims_key, dims_of_key, euler_add,
                      total_dim, validate_quiver)

# Resource bounds, read where each one fires (tests monkeypatch them).
#: Enumeration ceiling for Hom-space searches in isomorphism tests.
DEFAULT_ISO_ENUM_BOUND = 2 ** 16
#: Enumeration ceiling for matrix-tuple sweeps when listing classes of a dimension vector.
DEFAULT_TUPLE_BOUND = 2 ** 22
#: Seeded random Hom elements tried as isomorphism witnesses before an exhaustive
#: search; the isomorphisms met on Kronecker to total dim 7 need at most 127.
WITNESS_TRIES = 256

#: A morphism of representations: one matrix per vertex.
Morphism = tuple[Mat, ...]


class Rep(namedtuple("Rep", "quiver p dims mats")):
    """A representation: dims[v] at each vertex, mats[i] over arrow i (target x source)."""

    __slots__ = ()

    def __new__(cls, quiver: Quiver, p: int, dims: DimVec, mats: tuple[Mat, ...]) -> "Rep":
        if len(dims) != quiver.n or len(mats) != len(quiver.arrows):
            raise IncompatibleObjects("dimension vector or matrix list has wrong length")
        for a, m in zip(quiver.arrows, mats):
            if m.p != p or m.rows != dims[a.target] or m.cols != dims[a.source]:
                raise IncompatibleObjects(
                    f"arrow {a.label!r} needs a {dims[a.target]}x{dims[a.source]} "
                    f"matrix over F_{p}")
        return tuple.__new__(cls, (quiver, p, dims, mats))

    @property
    def total_dim(self) -> int:
        return total_dim(self.dims)


def _check_compatible(m: Rep, n: Rep) -> None:
    if m.quiver != n.quiver or m.p != n.p:
        raise IncompatibleObjects("representations live over different quivers or fields")


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
        else:
            rows.extend(_hom_arrow_rows(m, n, idx, offsets, nvars))
    return rows, shapes, offsets


def _hom_arrow_rows(m: Rep, n: Rep, idx: int, offsets: list[int], nvars: int) -> list[list[int]]:
    """The rows of _hom_system for the arrow idx, in order, as lists of ints in
    range(p): the row format of every p but 2, where they are the system's rows."""
    p, a = m.p, m.quiver.arrows[idx]
    s, t = a.source, a.target
    ma, na = m.mats[idx].entries, n.mats[idx].entries
    mt, ms, nt, ns = m.dims[t], m.dims[s], n.dims[t], n.dims[s]
    rows = []
    for i in range(nt):
        for j in range(ms):
            row = [0] * nvars
            for k in range(mt):
                row[offsets[t] + i * mt + k] += ma[k][j]
            for l in range(ns):
                row[offsets[s] + l * ms + j] -= na[i][l]
            rows.append([x % p for x in row])
    return rows


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
        yield _combination(p, basis, nvars, coeffs)


def _combination(p: int, basis, nvars: int, coeffs) -> tuple[int, ...]:
    """sum_i coeffs[i] * basis[i] mod p, a flat vector of length nvars."""
    acc = [0] * nvars
    for c, vec in zip(coeffs, basis):
        if c:
            acc = [(a + c * x) % p for a, x in zip(acc, vec)]
    return tuple(acc)


def _vertex_blocks(shapes: list[tuple[int, int]], offsets: list[int]) -> list[tuple[int, int]]:
    """(r, offset) of each nonzero vertex matrix of a flat morphism whose
    vertex matrices are square, r x r."""
    return [(r, off) for (r, _), off in zip(shapes, offsets) if r]


def _invertible_at_every_vertex(p: int, flat: tuple[int, ...], blocks) -> bool:
    """Whether the flat morphism's vertex matrices at blocks (_vertex_blocks)
    all have full rank."""
    return all(len(echelon(p, [pack_row(p, flat[i:i + r])
                               for i in range(off, off + r * r, r)])[0]) == r
               for r, off in blocks)


def _isomorphisms(m: Rep, kernel) -> Iterator[tuple[int, ...]]:
    """The invertible elements of Hom(m, n) as flat vectors, in _hom_elements
    order, with kernel = _hom_kernel(m, n); m gives the field.

    Raises EnumerationTooLarge when Hom(m, n) has more than
    DEFAULT_ISO_ENUM_BOUND elements.
    """
    basis, shapes, offsets = kernel
    p = m.p
    if p ** len(basis) > DEFAULT_ISO_ENUM_BOUND:
        raise EnumerationTooLarge(f"isomorphism search over {p}^{len(basis)} candidate "
                                  f"morphisms exceeds bound {DEFAULT_ISO_ENUM_BOUND}")
    if any(r != c for r, c in shapes):
        return
    blocks = _vertex_blocks(shapes, offsets)
    for flat in _hom_elements(p, kernel):
        if _invertible_at_every_vertex(p, flat, blocks):
            yield flat


def is_isomorphic(m: Rep, n: Rep) -> bool:
    """Isomorphism test: cheap invariant prefilters, then _isomorphic_given_end;
    an exhaustive search over more than DEFAULT_ISO_ENUM_BOUND morphisms
    raises EnumerationTooLarge."""
    _check_compatible(m, n)
    if m.dims != n.dims:
        return False
    if m == n:
        return True
    d_end = hom_dim(m, m)
    return hom_dim(n, n) == d_end and _isomorphic_given_end(m, n, d_end)


def _isomorphic_given_end(m: Rep, n: Rep, d_end: int) -> bool:
    """is_isomorphic(m, n) for m, n of equal dims whose End both have dimension d_end.

    WITNESS_TRIES elements of Hom(m, n) are first drawn from a random.Random
    seeded by dim Hom, so that runs repeat exactly; a draw invertible at
    every vertex is an isomorphism, which answers yes.  Otherwise the
    exhaustive search (_isomorphisms) decides."""
    kernel = _hom_kernel(m, n)
    basis, shapes, offsets = kernel
    if len(basis) != d_end or hom_dim(n, m) != d_end:
        return False
    p, k = m.p, len(basis)
    rng, blocks = random.Random(k), _vertex_blocks(shapes, offsets)
    nvars = sum(r * c for r, c in shapes)
    for _ in range(WITNESS_TRIES):
        flat = _combination(p, basis, nvars, rng.choices(range(p), k=k))
        if _invertible_at_every_vertex(p, flat, blocks):
            return True
    return next(_isomorphisms(m, kernel), None) is not None


def _subquotient_entries(m: Rep, subs: tuple[Subspace, ...], quotient: bool = True,
                         images: list | None = None):
    """Per arrow, the entries of the subrepresentation on subs in their RREF
    bases and (if quotient) of m / subs on the non-pivot unit vectors, from
    one sweep of each arrow; None when subs is not closed.  A vector y lies in
    a subspace iff its residue y[k] - sum_i y[pivot_i] basis_i[k] is 0 at every
    non-pivot k; its coordinates are then its entries at the pivots, and its
    quotient coordinates are always that residue.  images[arrow index], where
    given, holds the images of the source subspace's basis under that arrow
    (as hall.closed_subspace_tuples fills it), which are then not mapped again."""
    p = m.p
    # Per vertex: the pivots and, per non-pivot k, k with the basis entries there.
    split = []
    for s in subs:
        cols = zip(*s.basis) if s.basis else [()] * s.ambient
        split.append((s.pivots, [(k, col) for k, col in enumerate(cols) if k not in s.pivots]))
    sub_mats, quot_mats = [], []
    for a, mat, ys in zip(m.quiver.arrows, m.mats, images or itertools.repeat(None)):
        rows = mat.entries
        (src_piv, src_free), (piv, free) = split[a.source], split[a.target]
        if not any(map(any, rows)):  # maps everything into every subspace
            sub_mats.append(((0,) * len(src_piv),) * len(piv))
            if quotient:
                quot_mats.append(((0,) * len(src_free),) * len(free))
            continue
        cols = []
        if ys is None:
            ys = ([sum(map(operator.mul, row, b)) % p for row in rows]
                  for b in subs[a.source].basis)
        for y in ys:
            head = [y[i] for i in piv]
            if any((y[k] - sum(map(operator.mul, head, col))) % p for k, col in free):
                return None
            cols.append(head)
        sub_mats.append(tuple(zip(*cols)) if cols else ((),) * len(piv))
        if quotient:
            # The image of the c-th unit vector is column c.
            cols = []
            for c, _ in src_free:
                y = [row[c] % p for row in rows]
                head = [y[i] for i in piv]
                cols.append([(y[k] - sum(map(operator.mul, head, col))) % p for k, col in free])
            quot_mats.append(tuple(zip(*cols)) if cols else ((),) * len(free))
    return tuple(sub_mats), tuple(quot_mats) if quotient else None


def _closed_entries(m: Rep, subs: tuple[Subspace, ...], quotient: bool):
    """_subquotient_entries for subs checked to fit m and to be closed."""
    if len(subs) != m.quiver.n or any(s.ambient != d for s, d in zip(subs, m.dims)):
        raise IncompatibleObjects("one subspace per vertex with matching ambient dimension required")
    entries = _subquotient_entries(m, subs, quotient)
    if entries is None:
        raise NotASubobject("subspaces are not closed under the arrow maps")
    return entries


def restrict_to_subspaces(m: Rep, subs: tuple[Subspace, ...]) -> Rep:
    """The subrepresentation carried by closed subspaces, in their RREF bases."""
    mats = _closed_entries(m, subs, False)[0]
    return _rep_of_entries(m.quiver, m.p, tuple(s.dim for s in subs), mats)


def quotient_by_subrep(m: Rep, subs: tuple[Subspace, ...]) -> Rep:
    """The quotient representation m / subs in complement coordinates.

    Coordinates on each quotient are the non-pivot standard basis vectors of
    the corresponding subspace, so the construction is deterministic.
    """
    mats = _closed_entries(m, subs, True)[1]
    return _rep_of_entries(m.quiver, m.p, tuple(d - s.dim for d, s in zip(m.dims, subs)), mats)


def _rep_of_entries(q: Quiver, p: int, dims: DimVec, mats) -> Rep:
    """The representation with these arrow-matrix entries (rows of ints)."""
    return Rep(q, p, dims, tuple(Mat(p, dims[a.target], dims[a.source], ents)
                                 for a, ents in zip(q.arrows, mats)))


def _mat_code(p: int, rows) -> int:
    """A matrix's row-major entries as the digits of one base-p int, the first
    entry lowest: the form in which a cache file stores it."""
    return sum(x * p ** k for k, x in enumerate(x for row in rows for x in row))


def _code_rows(p: int, rows: int, cols: int, code: int) -> tuple[tuple[int, ...], ...]:
    """The entries, as rows of ints, of the rows x cols matrix whose _mat_code is code."""
    flat = [code // p ** k % p for k in range(rows * cols)]
    return tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows))


def _disjoint_prefix(arrows) -> int:
    """Length of the longest prefix of arrows in which no two share an endpoint."""
    seen: set[int] = set()
    for i, a in enumerate(arrows):
        if a.source in seen or a.target in seen:
            return i
        seen.update((a.source, a.target))
    return len(arrows)


def _arrows_vertex_disjoint(q: Quiver) -> bool:
    """True when no two arrows share an endpoint (so GL factors act per arrow)."""
    return _disjoint_prefix(q.arrows) == len(q.arrows)


def _rank_form(p: int, rows: int, cols: int, r: int) -> Mat:
    """The lex-first rows x cols matrix of rank r (row-major): the r x r
    anti-diagonal in the bottom-right corner."""
    return Mat(p, rows, cols, tuple(tuple(int(i >= rows - r and i + j == rows - r + cols - 1)
                                          for j in range(cols)) for i in range(rows)))


def _formed_prefixes(q: Quiver, p: int, shapes: list[tuple[int, int]],
                     start: int = 0) -> Iterator[tuple[tuple[Mat, ...], int]]:
    """(rank forms, weight) for the arrows from start on that are put in rank
    forms, in lex order: the run of vertex-disjoint arrows at start, each in
    one of its forms, standing for the weight = #matrices of those ranks;
    where all its ranks are 0, the forms' stabilizer is all of GL(dims), so
    the next run is put in rank forms too, its weights multiplied in."""
    end = start + _disjoint_prefix(q.arrows[start:])
    for ranks in itertools.product(*(range(min(shape) + 1) for shape in shapes[start:end])):
        forms = tuple(_rank_form(p, r, c, k) for (r, c), k in zip(shapes[start:end], ranks))
        weight = math.prod(count_matrices_of_rank(r, c, k, p)
                           for (r, c), k in zip(shapes[start:end], ranks))
        if any(ranks) or end == len(shapes):
            yield forms, weight
        else:
            for more, w in _formed_prefixes(q, p, shapes, end):
                yield forms + more, weight * w


class IsoClassId(namedtuple("IsoClassId", "dims index total_dim")):
    """Stable identifier of an isomorphism class: dimension vector + enumeration index.
    Its total dimension is computed once, from dims."""

    __slots__ = ()

    def __new__(cls, dims: DimVec, index: int) -> "IsoClassId":
        return tuple.__new__(cls, (dims, index, total_dim(dims)))

    def __getnewargs__(self) -> tuple:
        return self[:2]

    @property
    def sort_key(self) -> tuple:
        return (self.total_dim, self.dims, self.index)


_CLASS_ID_RE = re.compile(r"^k(\d+(?:\.\d+)*)(?:#(\d+))?$")


def class_name(dims: DimVec, index) -> str:
    """The id string of class index of dims, as parse_class_id reads it."""
    base = "k" + ".".join(str(d) for d in dims)
    return base if index == 0 else f"{base}#{index}"


class ClassRegistry:
    """Isomorphism classes, automorphism counts, the one store of Hom and Ext^1
    dimensions (hom_ext_dims) and memo tables for one (quiver, p)."""

    def __init__(self, quiver: Quiver, p: int) -> None:
        validate_quiver(quiver)
        check_prime(p)
        self.quiver = quiver
        self.p = p
        # With no two arrows sharing a vertex, the arrow ranks decide the class.
        self._classified_by_ranks = _arrows_vertex_disjoint(quiver)
        self.clear()

    def clear(self) -> None:
        """Forget every class, count and memo table, as a new registry holds none."""
        # Per enumerated dims, its representatives; for loaded dims in _unbuilt,
        # their checked matrix codes (_mat_code, one per arrow) until _reps
        # builds them.  perfbench's tracer reads the keys and lengths.
        self._classes: dict[DimVec, list] = {}
        self._unbuilt: set[DimVec] = set()
        self._ids: dict[DimVec, tuple[IsoClassId, ...]] = {}
        self._orbit: dict[IsoClassId, int] = {}
        self._aut: dict[IsoClassId, int] = {}
        self._hom_ext: dict[tuple[IsoClassId, IsoClassId], tuple[int, int]] = {}
        self._id_str: dict[IsoClassId, str] = {}
        self._memos: dict[str, dict] = {}

    def memo(self, name, factory=dict) -> dict:
        """The memo table called name, made by factory() on first use."""
        table = self._memos.get(name)
        if table is None:
            table = self._memos[name] = factory()
        return table

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
        for the #rank-r matrices equivalent to it, and so is the next such run
        after a run of rank 0 (_formed_prefixes); only the other arrows are
        swept.  DEFAULT_TUPLE_BOUND bounds the tuples the first run leaves, an
        upper bound on those swept."""
        dims = self._check_dims(dims)
        if dims in self._classes:
            return
        q, p = self.quiver, self.p
        shapes = [(dims[a.target], dims[a.source]) for a in q.arrows]
        n_formed = _disjoint_prefix(q.arrows)
        n_tuples = (math.prod(min(shape) + 1 for shape in shapes[:n_formed])
                    * p ** sum(r * c for r, c in shapes[n_formed:]))
        if n_tuples > DEFAULT_TUPLE_BOUND:
            raise EnumerationTooLarge(
                f"{n_tuples} matrix tuples for dims {dims} exceed bound {DEFAULT_TUPLE_BOUND}")
        found: list[Rep] = []
        orbits: list[int] = []
        for forms, weight in _formed_prefixes(q, p, shapes):
            swept = shapes[len(forms):]
            offsets = list(itertools.accumulate((r * c for r, c in swept), initial=0))
            # Tuples whose forms differ in rank are never isomorphic, nor are
            # tuples whose End dims differ.  With nothing swept the forms are
            # one tuple, alone in its bucket, so its End is never read.
            by_end: dict[int, list[int]] = {}
            for assignment in itertools.product(range(p), repeat=offsets[-1]):
                rep = Rep(q, p, dims, (*forms, *_unflatten(p, assignment, swept, offsets)))
                d_end = hom_dim(rep, rep) if swept else 0
                bucket = by_end.setdefault(d_end, [])
                hit = next((k for k in bucket if _isomorphic_given_end(rep, found[k], d_end)),
                           None)
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
        """The representatives of enumerated dims; loaded ones are decoded from
        their stored matrix codes on first use."""
        reps = self._classes[dims]
        if dims in self._unbuilt:
            self._unbuilt.remove(dims)
            q, p = self.quiver, self.p
            shapes = [(dims[a.target], dims[a.source]) for a in q.arrows]
            reps[:] = [_rep_of_entries(q, p, dims, [_code_rows(p, r, c, code)
                                                    for (r, c), code in zip(shapes, codes)])
                       for codes in reps]
        return reps

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
        """The class of rep (classify_entries of its dims and matrix entries)."""
        if rep.quiver != self.quiver or rep.p != self.p:
            raise IncompatibleObjects("representation belongs to a different registry")
        return self.classify_entries(rep.dims, tuple(m.entries for m in rep.mats))

    def classify_entries(self, dims: DimVec, mats: tuple) -> IsoClassId:
        """The class of the representation of dims whose arrow matrices have the
        entries mats (one tuple of int rows per arrow, of the shape dims gives);
        off the rank-tuple route it is memoized by (dims, mats), and a Rep is
        built only for a content not seen before."""
        if self._classified_by_ranks:
            self.ensure_enumerated(dims)
            by_ranks = self.memo("class_by_rank_tuple")
            index = by_ranks.get(dims)
            if index is None:
                index = by_ranks[dims] = {self.rank_tuple(c): c for c in self._ids[dims]}
            cid = index.get(tuple(rows_rank(self.p, ents) for ents in mats))
            if cid is None:
                raise InternalInconsistency("representation matched no enumerated class")
            return cid
        memo = self.memo("classify")
        key = (dims, mats)
        cid = memo.get(key)
        if cid is None:
            cid = memo[key] = self._search_class(_rep_of_entries(self.quiver, self.p, dims, mats))
        return cid

    def _search_class(self, rep: Rep) -> IsoClassId:
        """The first class of rep.dims isomorphic to rep, tested in order."""
        self.ensure_enumerated(rep.dims)
        d_end = None  # dim End(rep), computed once the first candidate differs from rep
        for cid, cand in zip(self._ids[rep.dims], self._reps(rep.dims)):
            if rep == cand:
                return cid
            d_end = hom_dim(rep, rep) if d_end is None else d_end
            if self.hom_ext_dims(cid, cid)[0] == d_end and _isomorphic_given_end(rep, cand, d_end):
                return cid
        raise InternalInconsistency("representation matched no enumerated class")

    def all_classes_total_le(self, max_total: int) -> list[IsoClassId]:
        """The classes of total dimension <= max_total, by dims in dimvecs_up_to order."""
        return [c for dims in dimvecs_up_to(self.quiver.n, max_total) for c in self.classes(dims)]

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
        aut = self._aut.get(cid)
        if aut is None:
            glp, orbit = self.gl_product(cid.dims), self.orbit_size(cid)
            if glp % orbit != 0:
                raise InternalInconsistency(
                    f"orbit of class {self.class_id_str(cid)} does not divide the base-change group order")
            aut = self._aut[cid] = glp // orbit
        return aut

    def hom_ext_dims(self, a: IsoClassId, b: IsoClassId) -> tuple[int, int]:
        """(dim Hom(a, b), dim Ext^1(a, b)), both computed on the pair's first
        lookup: Ext^1 as dim Hom - <dims a, dims b>, since the category is hereditary."""
        dims = self._hom_ext.get((a, b))
        if dims is None:
            h = hom_dim(self.representative(a), self.representative(b))
            e = h - euler_add(self.quiver, a.dims, b.dims)
            if e < 0:
                raise InternalInconsistency(
                    "negative Ext^1 dimension; category is not behaving hereditarily")
            dims = self._hom_ext[a, b] = (h, e)
        return dims

    # -- naming -------------------------------------------------------------

    def class_id_str(self, cid: IsoClassId) -> str:
        s = self._id_str.get(cid)
        if s is None:
            s = self._id_str[cid] = class_name(cid.dims, cid.index)
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
        """Per enumerated dims, keyed "d_0,d_1,...": its classes' orbits and
        representatives, each as one _mat_code per arrow, both as lists in
        class order."""
        state = {}
        for dims, reps in self._classes.items():
            ids = self._ids[dims]
            codes = reps if dims in self._unbuilt else [[_mat_code(self.p, m.entries)
                                                         for m in rep.mats] for rep in reps]
            state[dims_key(dims)] = {"orbit": [self._orbit[c] for c in ids],
                                     "mats": [list(c) for c in codes]}
        return state

    def export_size(self) -> int:
        """The dimension vectors in export_state; they only grow."""
        return len(self._classes)

    def import_state(self, state: dict) -> dict[DimVec, tuple[IsoClassId, ...]]:
        """Load exported classes after checking their counts against theory;
        returns the ids of the loaded classes by dims.

        Each dims must store exactly the lists "orbit" and "mats".  Each orbit
        must be a positive int dividing prod |GL(d_v)|, which over
        it is the class's |Aut|, and the orbits of one dimension vector must
        partition all p^{#entries} matrix tuples.  Every class must hold one
        matrix code per arrow, an int in range(p^(r*c)) for its r x c shape;
        per dims, class 0 must be the all-zero tuple, no two representatives
        may be equal, and on a quiver classified by ranks the rank tuples must
        strictly increase.  A file that breaks any of these raises
        CacheInvalid.  The checked codes are kept, and _reps decodes a dims'
        representatives from them on first use; the rank tuples computed here
        fill the rank_tuple memo.
        """
        loaded: dict[DimVec, tuple[IsoClassId, ...]] = {}
        p, arrows = self.p, self.quiver.arrows
        rank_tuples = self.memo("rank_tuple")
        try:
            for key, stored in state.items():
                dims = self._check_dims(dims_of_key(key))
                if stored.keys() != {"orbit", "mats"}:
                    raise CacheInvalid(f"dims {dims} store the keys {sorted(stored)}, not "
                                       f"exactly 'mats' and 'orbit'")
                orbits, codes = stored["orbit"], stored["mats"]
                glp = self.gl_product(dims)
                shapes = [(dims[a.target], dims[a.source]) for a in arrows]
                bounds = [p ** (r * c) for r, c in shapes]
                # strict: as many representatives as orbits, else a ValueError.
                for k, (mats, orbit) in enumerate(zip(codes, orbits, strict=True)):
                    if len(mats) != len(arrows):
                        raise CacheInvalid(f"class {k} of dims {dims}: {len(mats)} "
                                           f"matrices for {len(arrows)} arrows")
                    for (r, c), bound, code in zip(shapes, bounds, mats):
                        if type(code) is not int:
                            raise CacheInvalid(f"class {k} of dims {dims}: a matrix entry is "
                                               f"not an int in range({p}): code {code!r}")
                        if not 0 <= code < bound:
                            raise CacheInvalid(f"class {k} of dims {dims}: a matrix is not "
                                               f"{r}x{c}: code {code} is not an int in "
                                               f"range({bound})")
                    if type(orbit) is not int or orbit < 1 or glp % orbit:
                        raise CacheInvalid(f"class {k} of dims {dims}: stored orbit {orbit!r} "
                                           f"is no positive int dividing |GL| = {glp}")
                stored = [tuple(mats) for mats in codes]
                # hall._is_split_class and classify read these, so they must hold.
                if stored and any(stored[0]):
                    raise CacheInvalid(f"class 0 of dims {dims} is not the all-zero tuple")
                if len(set(stored)) != len(stored):
                    raise CacheInvalid(f"dims {dims} store two equal representatives")
                if self._classified_by_ranks:
                    ranks = [tuple(rows_rank(p, _code_rows(p, r, c, code))
                                   for (r, c), code in zip(shapes, mats)) for mats in stored]
                    if any(x >= y for x, y in zip(ranks, ranks[1:])):
                        raise CacheInvalid(f"the rank tuples of dims {dims} do not increase")
                n_entries = sum(r * c for r, c in shapes)
                if sum(orbits) != p ** n_entries:
                    raise CacheInvalid(f"stored orbits of dims {dims} do not add up to "
                                       f"{p}^{n_entries} matrix tuples")
                ids = loaded[dims] = self._store_classes(dims, stored)
                self._unbuilt.add(dims)
                if self._classified_by_ranks:
                    rank_tuples.update(zip(ids, ranks))
                self._orbit.update(zip(ids, orbits))
                self._aut.update((cid, glp // orbit) for cid, orbit in zip(ids, orbits))
        except (KeyError, ValueError, TypeError, AttributeError, IncompatibleObjects) as e:
            raise CacheInvalid(f"registry state failed validation: {e}") from None
        return loaded


#: aut_count(registry, cid) as a module-level name, which perfbench/tracing.py
#: wraps by name; it is the registry method, not a second route.
aut_count = ClassRegistry.aut_count

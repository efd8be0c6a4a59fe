"""Finite-dimensional quiver representations over F_p and their isomorphism classes.

A representation assigns F_p^{d_v} to each vertex and a matrix to each arrow.
The ClassRegistry enumerates all representations of a dimension vector, groups
them into isomorphism classes by exhaustive search, and memoizes automorphism
counts, Hom dimensions and (via its generic memo store) Hall numbers.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import (EnumerationTooLarge, IncompatibleObjects, InternalInconsistency,
                     NotASubobject)
from .linalg import (FieldSpec, Mat, Subspace, count_matrices_of_rank, gl_order,
                     is_invertible, kernel_basis, rank)
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


def _hom_system(m: Rep, n: Rep) -> tuple[Mat, list[tuple[int, int]], list[int]]:
    """Linear system whose kernel is Hom(m, n).

    Variables are the entries of the vertex maps f_v : m_v -> n_v (shape
    n.dims[v] x m.dims[v]), vertices in order, each matrix row-major.  One
    equation block per arrow a: s->t, reading f_t . m_a = n_a . f_s.
    """
    _check_compatible(m, n)
    p = m.p
    q = m.quiver
    shapes = [(n.dims[v], m.dims[v]) for v in range(q.n)]
    offsets = []
    acc = 0
    for r, c in shapes:
        offsets.append(acc)
        acc += r * c
    nvars = acc
    rows: list[tuple[int, ...]] = []
    for idx, a in enumerate(q.arrows):
        s, t = a.source, a.target
        ma, na = m.mats[idx], n.mats[idx]
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                row = [0] * nvars
                for k in range(m.dims[t]):
                    row[offsets[t] + i * m.dims[t] + k] += ma.entries[k][j]
                for l in range(n.dims[s]):
                    row[offsets[s] + l * m.dims[s] + j] -= na.entries[i][l]
                rows.append(tuple(x % p for x in row))
    return Mat(p, len(rows), nvars, tuple(rows)), shapes, offsets


def hom_dim(m: Rep, n: Rep) -> int:
    """Dimension of Hom(m, n) over F_p."""
    system, shapes, _ = _hom_system(m, n)
    nvars = sum(r * c for r, c in shapes)
    return nvars - rank(system)


def _unflatten(p: int, vec: tuple[int, ...], shapes: list[tuple[int, int]],
               offsets: list[int]) -> Morphism:
    out = []
    for (r, c), off in zip(shapes, offsets):
        ents = tuple(tuple(vec[off + i * c + j] for j in range(c)) for i in range(r))
        out.append(Mat(p, r, c, ents))
    return tuple(out)


def hom_basis(m: Rep, n: Rep) -> tuple[Morphism, ...]:
    """Deterministic F_p-basis of Hom(m, n) as per-vertex matrix tuples."""
    system, shapes, offsets = _hom_system(m, n)
    return tuple(_unflatten(m.p, v, shapes, offsets) for v in kernel_basis(system))


def _combine_flat(p: int, flats: list[tuple[int, ...]], coeffs: tuple[int, ...]) -> list[int]:
    n = len(flats[0]) if flats else 0
    acc = [0] * n
    for c, flat in zip(coeffs, flats):
        if c == 0:
            continue
        for i, x in enumerate(flat):
            acc[i] = (acc[i] + c * x) % p
    return acc


def _invertible_from_flat(p: int, flat: list[int], shapes: list[tuple[int, int]],
                          offsets: list[int]) -> bool:
    for (r, c), off in zip(shapes, offsets):
        if r != c:
            return False
        mat = Mat(p, r, c, tuple(tuple(flat[off + i * c + j] for j in range(c))
                                 for i in range(r)))
        if not is_invertible(mat):
            return False
    return True


def is_isomorphic(m: Rep, n: Rep, enum_bound: int = DEFAULT_ISO_ENUM_BOUND) -> bool:
    """Exhaustive isomorphism test with cheap invariant prefilters."""
    _check_compatible(m, n)
    if m.dims != n.dims:
        return False
    if m == n:
        return True
    d_end = hom_dim(m, m)
    if hom_dim(n, n) != d_end:
        return False
    d_mn = hom_dim(m, n)
    if d_mn != d_end or hom_dim(n, m) != d_end:
        return False
    if m.p ** d_mn > enum_bound:
        raise EnumerationTooLarge(
            f"isomorphism search over {m.p}^{d_mn} candidate morphisms exceeds bound {enum_bound}")
    system, shapes, offsets = _hom_system(m, n)
    basis = [tuple(v) for v in kernel_basis(system)]
    p = m.p
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        flat = _combine_flat(p, basis, coeffs)
        if _invertible_from_flat(p, flat, shapes, offsets):
            return True
    return False


def is_subrep(m: Rep, subs: tuple[Subspace, ...]) -> bool:
    """Do the given per-vertex subspaces form a subrepresentation of m?"""
    if len(subs) != m.quiver.n or any(s.ambient != d for s, d in zip(subs, m.dims)):
        raise IncompatibleObjects("one subspace per vertex with matching ambient dimension required")
    for idx, a in enumerate(m.quiver.arrows):
        tgt = subs[a.target]
        for b in subs[a.source].basis:
            if not tgt.contains(m.mats[idx].apply(b)):
                return False
    return True


def restrict_to_subspaces(m: Rep, subs: tuple[Subspace, ...]) -> Rep:
    """The subrepresentation carried by closed subspaces, in their RREF bases."""
    if not is_subrep(m, subs):
        raise NotASubobject("subspaces are not closed under the arrow maps")
    p = m.p
    mats = []
    for idx, a in enumerate(m.quiver.arrows):
        src, tgt = subs[a.source], subs[a.target]
        cols = [tgt.coords(m.mats[idx].apply(b)) for b in src.basis]
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
    p = m.p
    comp = [[c for c in range(s.ambient) if c not in s.pivots] for s in subs]

    def project(v: int, vec: tuple[int, ...]) -> tuple[int, ...]:
        residue = subs[v].reduce(vec)
        return tuple(residue[c] for c in comp[v])

    mats = []
    for idx, a in enumerate(m.quiver.arrows):
        s, t = a.source, a.target
        cols = []
        for c in comp[s]:
            e = tuple(1 if i == c else 0 for i in range(m.dims[s]))
            cols.append(project(t, m.mats[idx].apply(e)))
        ents = tuple(tuple(col[i] for col in cols) for i in range(len(comp[t])))
        mats.append(Mat(p, len(comp[t]), len(comp[s]), ents))
    dims = tuple(len(c) for c in comp)
    return Rep(m.quiver, p, dims, tuple(mats))


def _arrows_vertex_disjoint(q: Quiver) -> bool:
    """True when no two arrows share an endpoint (so GL factors act per arrow)."""
    seen: set[int] = set()
    for a in q.arrows:
        if a.source in seen or a.target in seen:
            return False
        seen.add(a.source)
        seen.add(a.target)
    return True


@dataclass(frozen=True)
class IsoClassId:
    """Stable identifier of an isomorphism class: dimension vector + enumeration index."""

    dims: DimVec
    index: int

    @property
    def total_dim(self) -> int:
        return total_dim(self.dims)

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
        self.field = FieldSpec(p)
        self.quiver = quiver
        self.p = p
        self.iso_enum_bound = iso_enum_bound
        self.tuple_bound = tuple_bound
        self._classes: dict[DimVec, list[Rep]] = {}
        self._orbit: dict[IsoClassId, int] = {}
        self._aut: dict[IsoClassId, int] = {}
        self._hom_dim: dict[tuple[IsoClassId, IsoClassId], int] = {}
        self._memos: dict[str, dict] = {}

    def memo(self, name: str) -> dict:
        return self._memos.setdefault(name, {})

    # -- class enumeration ------------------------------------------------

    def _check_dims(self, dims: DimVec) -> DimVec:
        dims = tuple(dims)
        if len(dims) != self.quiver.n or any(d < 0 for d in dims):
            raise IncompatibleObjects(f"bad dimension vector {dims} for this quiver")
        return dims

    def ensure_enumerated(self, dims: DimVec) -> None:
        dims = self._check_dims(dims)
        if dims in self._classes:
            return
        q = self.quiver
        p = self.p
        entry_counts = [dims[a.target] * dims[a.source] for a in q.arrows]
        n_entries = sum(entry_counts)
        n_tuples = p ** n_entries
        if _arrows_vertex_disjoint(q):
            # Per-vertex GL groups act on each arrow's matrix independently, so
            # classes are exactly rank tuples (the zero tuple first, keeping the
            # index-0-is-semisimple invariant) and orbit sizes multiply.
            found: list[Rep] = []
            orbits: list[int] = []
            rank_ranges = [range(min(dims[a.source], dims[a.target]) + 1) for a in q.arrows]
            for ranks in itertools.product(*rank_ranges):
                mats = []
                orbit = 1
                for a, r in zip(q.arrows, ranks):
                    rr, cc = dims[a.target], dims[a.source]
                    mats.append(Mat(p, rr, cc,
                                    tuple(tuple(1 if (i == j and i < r) else 0
                                                for j in range(cc)) for i in range(rr))))
                    orbit *= count_matrices_of_rank(rr, cc, r, p)
                found.append(Rep(q, p, dims, tuple(mats)))
                orbits.append(orbit)
            if sum(orbits) != n_tuples:
                raise InternalInconsistency(
                    "rank-orbit sizes do not add up to the number of matrix tuples")
            self._classes[dims] = found
            for k, o in enumerate(orbits):
                self._orbit[IsoClassId(dims, k)] = o
            return
        if n_tuples > self.tuple_bound:
            raise EnumerationTooLarge(
                f"{n_tuples} matrix tuples for dims {dims} exceed bound {self.tuple_bound}")
        found: list[Rep] = []
        orbits: list[int] = []
        signatures: dict[tuple, list[int]] = {}
        for assignment in itertools.product(range(p), repeat=n_entries):
            mats = []
            pos = 0
            for a, cnt in zip(q.arrows, entry_counts):
                r, c = dims[a.target], dims[a.source]
                chunk = assignment[pos:pos + cnt]
                pos += cnt
                mats.append(Mat(p, r, c, tuple(chunk[i * c:(i + 1) * c] for i in range(r))))
            rep = Rep(q, p, dims, tuple(mats))
            sig = self._signature(rep)
            hit = None
            for k in signatures.get(sig, ()):
                if is_isomorphic(rep, found[k], self.iso_enum_bound):
                    hit = k
                    break
            if hit is None:
                signatures.setdefault(sig, []).append(len(found))
                found.append(rep)
                orbits.append(1)
            else:
                orbits[hit] += 1
        if sum(orbits) != n_tuples:
            raise InternalInconsistency("orbit sizes do not add up to the number of matrix tuples")
        self._classes[dims] = found
        for k, o in enumerate(orbits):
            self._orbit[IsoClassId(dims, k)] = o

    def _signature(self, rep: Rep) -> tuple:
        sig = [hom_dim(rep, rep)]
        for v in range(self.quiver.n):
            s = simple_rep(self.quiver, self.p, v)
            sig.append(hom_dim(rep, s))
            sig.append(hom_dim(s, rep))
        return tuple(sig)

    def classes(self, dims: DimVec) -> list[IsoClassId]:
        dims = self._check_dims(dims)
        self.ensure_enumerated(dims)
        return [IsoClassId(dims, k) for k in range(len(self._classes[dims]))]

    def representative(self, cid: IsoClassId) -> Rep:
        self.ensure_enumerated(cid.dims)
        reps = self._classes[tuple(cid.dims)]
        if not 0 <= cid.index < len(reps):
            raise IncompatibleObjects(f"no class with index {cid.index} for dims {cid.dims}")
        return reps[cid.index]

    def zero_class(self) -> IsoClassId:
        dims = (0,) * self.quiver.n
        self.ensure_enumerated(dims)
        return IsoClassId(dims, 0)

    def classify(self, rep: Rep) -> IsoClassId:
        if rep.quiver != self.quiver or rep.p != self.p:
            raise IncompatibleObjects("representation belongs to a different registry")
        self.ensure_enumerated(rep.dims)
        for k, cand in enumerate(self._classes[rep.dims]):
            if is_isomorphic(rep, cand, self.iso_enum_bound):
                return IsoClassId(rep.dims, k)
        raise InternalInconsistency("representation matched no enumerated class")

    def all_classes_total_le(self, max_total: int) -> list[IsoClassId]:
        from .quivers import dimvecs_up_to
        out: list[IsoClassId] = []
        for dims in sorted(dimvecs_up_to(self.quiver.n, max_total), key=lambda d: (sum(d), d)):
            out.extend(self.classes(dims))
        return out

    # -- memoized invariants ----------------------------------------------

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
        key = (a, b)
        if key not in self._hom_dim:
            self._hom_dim[key] = hom_dim(self.representative(a), self.representative(b))
        return self._hom_dim[key]

    # -- naming -------------------------------------------------------------

    def class_id_str(self, cid: IsoClassId) -> str:
        base = "k" + ".".join(str(d) for d in cid.dims)
        return base if cid.index == 0 else f"{base}#{cid.index}"

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
        return IsoClassId(dims, index)

    # -- cache support ------------------------------------------------------

    def export_state(self) -> dict:
        classes = {}
        for dims, reps in sorted(self._classes.items()):
            key = ",".join(str(d) for d in dims)
            rows = []
            for k, rep in enumerate(reps):
                cid = IsoClassId(dims, k)
                rows.append({
                    "mats": [[list(r) for r in m.entries] for m in rep.mats],
                    "orbit": self._orbit[cid],
                    "aut": self._aut.get(cid),
                })
            classes[key] = rows
        return {"classes": classes}

    def import_state(self, state: dict) -> None:
        """Load exported classes after checking their counts against theory.

        Each stored Aut must satisfy |Aut| * orbit = prod |GL(d_v)|, and the
        orbits of one dimension vector must partition all p^{#entries} matrix
        tuples; a file that breaks either raises CacheInvalid.
        """
        from .errors import CacheInvalid
        try:
            for key, rows in state.get("classes", {}).items():
                dims = self._check_dims(tuple(int(x) for x in key.split(",")))
                glp = self.gl_product(dims)
                reps, orbits, auts = [], [], []
                for row in rows:
                    mats = []
                    for a, ents in zip(self.quiver.arrows, row["mats"]):
                        r, c = dims[a.target], dims[a.source]
                        mats.append(Mat(self.p, r, c, tuple(tuple(int(x) % self.p for x in er)
                                                            for er in ents)))
                    reps.append(Rep(self.quiver, self.p, dims, tuple(mats)))
                    orbit = int(row["orbit"])
                    aut = None if row.get("aut") is None else int(row["aut"])
                    if orbit < 1 or (aut is not None and aut * orbit != glp):
                        raise CacheInvalid(f"class {len(reps) - 1} of dims {dims}: stored "
                                           f"aut {aut} and orbit {orbit} break |Aut| * orbit = {glp}")
                    orbits.append(orbit)
                    auts.append(aut)
                n_entries = sum(dims[a.target] * dims[a.source] for a in self.quiver.arrows)
                if sum(orbits) != self.p ** n_entries:
                    raise CacheInvalid(f"stored orbits of dims {dims} do not add up to "
                                       f"{self.p}^{n_entries} matrix tuples")
                self._classes[dims] = reps
                for k, (orbit, aut) in enumerate(zip(orbits, auts)):
                    cid = IsoClassId(dims, k)
                    self._orbit[cid] = orbit
                    if aut is not None:
                        self._aut[cid] = aut
        except (KeyError, ValueError, TypeError, IncompatibleObjects) as e:
            raise CacheInvalid(f"registry state failed validation: {e}") from None


#: aut_count(registry, cid) as a module-level name, which perfbench/tracing.py
#: wraps by name; it is the registry method, not a second route.
aut_count = ClassRegistry.aut_count


def enumerate_iso_classes(registry: ClassRegistry, dims: DimVec) -> list[Rep]:
    """Canonical representatives of all classes with the given dimension vector."""
    return [registry.representative(c) for c in registry.classes(dims)]

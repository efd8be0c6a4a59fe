"""Exact linear algebra over prime fields F_p.

Elements of F_p are Python ints in range(p); vectors are tuples of ints;
matrices are immutable row-major tuples of tuples.  Everything here is exact
integer arithmetic -- no floating point anywhere.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import DivisionByZero, EnumerationTooLarge, IncompatibleObjects, InvalidField

#: Largest ambient dimension enumerate_subspaces accepts by default.
SUBSPACE_AMBIENT_BOUND = 6


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> None:
    """Raise InvalidField unless p is a prime number."""
    if not isinstance(p, int) or not is_prime(p):
        raise InvalidField(f"field order must be prime, got {p!r}")


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse in F_p; raises DivisionByZero on 0."""
    a %= p
    if a == 0:
        raise DivisionByZero(f"0 has no inverse in F_{p}")
    return pow(a, p - 2, p)


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p with element arithmetic on ints in range(p)."""

    p: int

    def __post_init__(self) -> None:
        check_prime(self.p)

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        return inv_mod(a, self.p)


def vec_add(p: int, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((x + y) % p for x, y in zip(u, v))


@dataclass(frozen=True)
class Mat:
    """An immutable rows x cols matrix over F_p (explicit shape even when empty)."""

    p: int
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise IncompatibleObjects("matrix entries do not match declared shape")

    @staticmethod
    def from_rows(p: int, rows: list[list[int]] | list[tuple[int, ...]], cols: int | None = None) -> "Mat":
        if cols is None:
            if not rows:
                raise IncompatibleObjects("cannot infer column count of an empty matrix")
            cols = len(rows[0])
        ents = tuple(tuple(x % p for x in r) for r in rows)
        return Mat(p, len(ents), cols, ents)

    @staticmethod
    def zeros(p: int, rows: int, cols: int) -> "Mat":
        return Mat(p, rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(p: int, n: int) -> "Mat":
        return Mat(p, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def add(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(self.p, self.rows, self.cols,
                   tuple(vec_add(self.p, r, s) for r, s in zip(self.entries, other.entries)))

    def mul(self, other: "Mat") -> "Mat":
        if self.p != other.p:
            raise IncompatibleObjects("matrix product across different fields")
        if self.cols != other.rows:
            raise IncompatibleObjects(
                f"matrix product shape mismatch: {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        p = self.p
        # With no rows, other still has other.cols (empty) columns.
        ot = tuple(zip(*other.entries)) if other.entries else ((),) * other.cols
        out = []
        for r in self.entries:
            if other.cols == 0:
                out.append(())
                continue
            out.append(tuple(sum(a * b for a, b in zip(r, c)) % p for c in ot))
        return Mat(p, self.rows, other.cols, tuple(out))

    def apply(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise IncompatibleObjects("vector length does not match column count")
        p = self.p
        return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in self.entries)

    def _check_same_shape(self, other: "Mat") -> None:
        if self.p != other.p or self.rows != other.rows or self.cols != other.cols:
            raise IncompatibleObjects("matrix shapes or fields differ")


@dataclass(frozen=True)
class RrefResult:
    matrix: Mat
    pivots: tuple[int, ...]
    rank: int


def rref(m: Mat) -> RrefResult:
    """Reduced row echelon form by Gauss-Jordan elimination over F_p."""
    p = m.p
    rows = [list(r) for r in m.entries]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = inv_mod(rows[r][c], p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    out = Mat(p, m.rows, m.cols, tuple(tuple(row) for row in rows))
    return RrefResult(out, tuple(pivots), r)


def rank(m: Mat) -> int:
    return rref(m).rank


def kernel_basis(m: Mat) -> tuple[tuple[int, ...], ...]:
    """Deterministic basis of {x : m @ x = 0}.

    One basis vector per free column f (ascending): x_f = 1, other free
    coordinates 0, pivot coordinates read off the RREF rows.
    """
    p = m.p
    red = rref(m)
    pivset = set(red.pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    basis = []
    for f in free:
        x = [0] * m.cols
        x[f] = 1
        for i, c in enumerate(red.pivots):
            x[c] = (-red.matrix.entries[i][f]) % p
        basis.append(tuple(x))
    return tuple(basis)


def is_invertible(m: Mat) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^ambient held as its canonical RREF basis."""

    p: int
    ambient: int
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """Residue of vec after eliminating all pivot coordinates."""
        p = self.p
        v = list(vec)
        for row, c in zip(self.basis, self.pivots):
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, vec: tuple[int, ...]) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def coords(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """Coordinates of vec in the RREF basis; raises if vec is outside."""
        cs = tuple(vec[c] for c in self.pivots)
        if not all(x == 0 for x in self.reduce(vec)):
            raise IncompatibleObjects("vector lies outside the subspace")
        return cs


def subspace_from_vectors(p: int, ambient: int, vectors: list[tuple[int, ...]] | tuple[tuple[int, ...], ...]) -> Subspace:
    m = Mat(p, len(vectors), ambient, tuple(tuple(x % p for x in v) for v in vectors))
    red = rref(m)
    basis = tuple(red.matrix.entries[i] for i in range(red.rank))
    return Subspace(p, ambient, basis, red.pivots)


def zero_subspace(p: int, ambient: int) -> Subspace:
    return Subspace(p, ambient, (), ())


def full_subspace(p: int, ambient: int) -> Subspace:
    return subspace_from_vectors(p, ambient, list(Mat.identity(p, ambient).entries))


def enumerate_subspaces(p: int, ambient: int, dim: int,
                        ambient_bound: int = SUBSPACE_AMBIENT_BOUND) -> Iterator[Subspace]:
    """All dim-dimensional subspaces of F_p^ambient, each exactly once.

    Order: pivot column sets in ascending lexicographic order; within a pivot
    set, the free entries run through an odometer in row-major cell order.
    The count is gaussian_binomial(ambient, dim, p).
    """
    check_prime(p)
    if not 0 <= dim <= ambient:
        return
    if ambient > ambient_bound:
        raise EnumerationTooLarge(
            f"subspace enumeration in ambient dimension {ambient} exceeds bound {ambient_bound}")
    for pivots in itertools.combinations(range(ambient), dim):
        pivset = set(pivots)
        # Free cells of the RREF: row i, column c, c > pivots[i], c not a pivot.
        cells = [(i, c) for i in range(dim) for c in range(pivots[i] + 1, ambient)
                 if c not in pivset]
        for values in itertools.product(range(p), repeat=len(cells)):
            rows = [[0] * ambient for _ in range(dim)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, c), v in zip(cells, values):
                rows[i][c] = v
            yield Subspace(p, ambient, tuple(tuple(r) for r in rows), tuple(pivots))


def subspaces_containing(base: Subspace, dim: int,
                         ambient_bound: int = SUBSPACE_AMBIENT_BOUND) -> Iterator[Subspace]:
    """All dim-dimensional subspaces of the ambient space containing base.

    Subspaces U >= base correspond bijectively to subspaces of the quotient
    by base; the quotient is realized on the non-pivot coordinates of base's
    RREF basis, and each quotient subspace is lifted back and re-canonicalized.
    """
    d, r, p = base.ambient, base.dim, base.p
    if dim < r or dim > d:
        return
    if dim == r:
        yield base
        return
    comp = [c for c in range(d) if c not in base.pivots]
    for w in enumerate_subspaces(p, len(comp), dim - r, ambient_bound):
        vecs = list(base.basis)
        for qvec in w.basis:
            lift = [0] * d
            for coord, val in zip(comp, qvec):
                lift[coord] = val
            vecs.append(tuple(lift))
        yield subspace_from_vectors(p, d, vecs)


def count_matrices_of_rank(rows: int, cols: int, r: int, p: int) -> int:
    """Number of rows x cols matrices over F_p of rank exactly r."""
    if r < 0 or r > min(rows, cols):
        return 0
    out = gaussian_binomial(cols, r, p)
    for i in range(r):
        out *= p ** rows - p ** i
    return out


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (exact integer)."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def gl_order(n: int, q: int) -> int:
    """Order of GL_n(F_q): product of (q^n - q^i) for i < n."""
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out

"""Exact linear algebra over prime fields F_p.

Elements of F_p are Python ints in range(p); vectors are tuples of ints;
matrices are immutable row-major tuples of tuples.  Everything here is exact
integer arithmetic -- no floating point anywhere.

One elimination core (echelon, reduced_rows) works on each field's own row
format: over F_2 a row is one int whose top bit is column 0, reduced by XOR;
otherwise a row is a list of ints in range(p).  pack_row reads each entry
mod p, so rank, kernel_basis, rref and subspace_from_vectors accept any
ints; rank and is_invertible stop at the echelon form.
"""
from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from typing import Iterator

from .errors import EnumerationTooLarge, IncompatibleObjects, InvalidField

#: Largest ambient dimension enumerate_subspaces accepts.
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


class Mat(namedtuple("Mat", "p rows cols entries")):
    """An immutable rows x cols matrix over F_p (explicit shape even when empty)."""

    __slots__ = ()

    def __new__(cls, p: int, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> "Mat":
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise IncompatibleObjects("matrix entries do not match declared shape")
        return tuple.__new__(cls, (p, rows, cols, entries))

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
        if self.p != other.p or self.rows != other.rows or self.cols != other.cols:
            raise IncompatibleObjects("matrix shapes or fields differ")
        p = self.p
        return Mat(p, self.rows, self.cols, tuple(tuple((x + y) % p for x, y in zip(r, s))
                                                  for r, s in zip(self.entries, other.entries)))

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
            out.append(tuple(sum(map(operator.mul, r, c)) % p for c in ot))
        return Mat(p, self.rows, other.cols, tuple(out))

    def apply(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise IncompatibleObjects("vector length does not match column count")
        p = self.p
        return tuple(sum(map(operator.mul, row, vec)) % p for row in self.entries)


class RrefResult(namedtuple("RrefResult", "matrix pivots rank")):
    __slots__ = ()


def pack_bits(entries, stride: int = 1) -> int:
    """The entries mod 2 as the bits of one int, stride apart, the first one highest."""
    r = 0
    for x in entries:
        r = r << stride | x & 1
    return r


def pack_row(p: int, entries) -> int | list[int]:
    return pack_bits(entries) if p == 2 else [x % p for x in entries]


def echelon(p: int, rows) -> tuple[dict, list[int]]:
    """Row echelon form of rows in F_p's row format: ({key: row}, the indices
    of the rows independent of the rows before them).  A key is the row's
    bit_length() over F_2, else its pivot column, where it is scaled to 1."""
    piv: dict = {}
    used: list[int] = []
    if p == 2:
        for i, r in enumerate(rows):
            while r:
                s = piv.get(b := r.bit_length())
                if s is None:
                    piv[b] = r
                    used.append(i)
                    break
                r ^= s
        return piv, used
    for i, r in enumerate(rows):
        c = next((c for c, x in enumerate(r) if x), None)
        while c is not None:
            s = piv.get(c)
            if s is None:
                inv = pow(r[c], p - 2, p)
                piv[c] = [x * inv % p for x in r]
                used.append(i)
                break
            f = r[c]
            r = [(x - f * y) % p for x, y in zip(r, s)]
            c = next((j for j in range(c + 1, len(r)) if r[j]), None)
    return piv, used


def reduced_rows(p: int, cols: int, rows) -> tuple[list[int], list[tuple[int, ...]]]:
    """Reduced row echelon form of rows in F_p's row format: the pivot columns
    ascending and their rows as tuples, each zero at the other pivots."""
    piv = echelon(p, rows)[0]
    keys = sorted(piv, reverse=p != 2)
    done: list = []
    # Clear each row against the rows of the pivots right of its own.
    for key in keys:
        r = piv[key]
        for k, s in zip(keys, done):
            if p == 2:
                if r >> (k - 1) & 1:
                    r ^= s
            elif r[k]:
                f = r[k]
                r = [(x - f * y) % p for x, y in zip(r, s)]
        done.append(r)
    if p == 2:
        return ([cols - k for k in reversed(keys)],
                [tuple(map(int, bin(r | 1 << cols)[3:])) for r in reversed(done)])
    return keys[::-1], [tuple(r) for r in reversed(done)]


def rref(m: Mat) -> RrefResult:
    """Reduced row echelon form over F_p (entries read mod p)."""
    pivots, red = reduced_rows(m.p, m.cols, [pack_row(m.p, r) for r in m.entries])
    ents = tuple(red) + ((0,) * m.cols,) * (m.rows - len(red))
    return RrefResult(Mat(m.p, m.rows, m.cols, ents), tuple(pivots), len(red))


def rank(m: Mat) -> int:
    return rows_rank(m.p, m.entries)


def rows_rank(p: int, rows) -> int:
    """The rank of the matrix with these rows of ints."""
    return len(echelon(p, [pack_row(p, r) for r in rows])[0])


def rows_kernel(p: int, cols: int, rows) -> tuple[tuple[int, ...], ...]:
    """Deterministic basis of {x : R x = 0} for rows R in F_p's row format:
    one vector per free column f (ascending), x_f = 1, other free
    coordinates 0, pivot coordinates read off the reduced rows."""
    pivots, red = reduced_rows(p, cols, rows)
    basis = []
    for f in sorted(set(range(cols)).difference(pivots)):
        x = [0] * cols
        x[f] = 1
        for c, r in zip(pivots, red):
            x[c] = -r[f] % p
        basis.append(tuple(x))
    return tuple(basis)


def kernel_basis(m: Mat) -> tuple[tuple[int, ...], ...]:
    """rows_kernel of m's rows: a deterministic basis of {x : m @ x = 0}."""
    return rows_kernel(m.p, m.cols, [pack_row(m.p, r) for r in m.entries])


def is_invertible(m: Mat) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


class Subspace(namedtuple("Subspace", "p ambient basis pivots")):
    """A subspace of F_p^ambient held as its canonical RREF basis."""

    __slots__ = ()

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
    if set(map(len, vectors)) - {ambient}:
        raise IncompatibleObjects("vector length does not match the ambient dimension")
    pivots, red = reduced_rows(p, ambient, [pack_row(p, v) for v in vectors])
    return Subspace(p, ambient, tuple(red), tuple(pivots))


def zero_subspace(p: int, ambient: int) -> Subspace:
    return Subspace(p, ambient, (), ())


def full_subspace(p: int, ambient: int) -> Subspace:
    return subspace_from_vectors(p, ambient, list(Mat.identity(p, ambient).entries))


def enumerate_subspaces(p: int, ambient: int, dim: int) -> Iterator[Subspace]:
    """All dim-dimensional subspaces of F_p^ambient, each exactly once.

    Order: pivot column sets in ascending lexicographic order; within a pivot
    set, the free entries run through an odometer in row-major cell order.
    The count is gaussian_binomial(ambient, dim, p).  Raises
    EnumerationTooLarge past ambient dimension SUBSPACE_AMBIENT_BOUND.
    """
    check_prime(p)
    if 0 <= dim <= ambient and ambient > SUBSPACE_AMBIENT_BOUND:
        raise EnumerationTooLarge(f"subspace enumeration in ambient dimension {ambient} "
                                  f"exceeds bound {SUBSPACE_AMBIENT_BOUND}")
    yield from _each_subspace(p, ambient, dim)


def _each_subspace(p: int, ambient: int, dim: int) -> Iterator[Subspace]:
    """enumerate_subspaces without its check of p and of the ambient bound."""
    if not 0 <= dim <= ambient:
        return
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


def subspaces_containing(base: Subspace, dim: int) -> Iterator[Subspace]:
    """All dim-dimensional subspaces of the ambient space containing base.

    Subspaces U >= base correspond bijectively to subspaces W of the quotient
    by base, realized on the non-pivot coordinates of base's RREF basis, and
    come in W's enumerate_subspaces order.  W's RREF rows, lifted back, are
    zero at base's pivots and at each other's, so U's RREF basis is base's
    rows cleared at the lifted pivots merged by pivot with the lifted rows.
    """
    d, r, p = base.ambient, base.dim, base.p
    if dim < r or dim > d:
        return
    if dim == r:
        yield base
        return
    if not r:
        yield from _each_subspace(p, d, dim)
        return
    comp = [c for c in range(d) if c not in base.pivots]
    # Lifted, column c holds entry at[c] of the quotient row padded with a 0.
    at = [comp.index(c) if c in comp else -1 for c in range(d)]
    for w in _each_subspace(p, len(comp), dim - r):
        lifted = [tuple(map((*qvec, 0).__getitem__, at)) for qvec in w.basis]
        lifted_pivots = tuple(comp[j] for j in w.pivots)
        rows = []
        for row in base.basis:
            for c, lift in zip(lifted_pivots, lifted):
                if f := row[c]:
                    row = tuple((x - f * y) % p for x, y in zip(row, lift))
            rows.append(row)
        # Pivots are distinct, so the sort never compares rows.
        pivots, basis = zip(*sorted(zip(base.pivots + lifted_pivots, rows + lifted)))
        yield Subspace(p, d, basis, pivots)


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

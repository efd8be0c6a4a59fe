"""Quivers (finite directed multigraphs) and dimension-vector helpers, and the
rule for the period t of complexes, which every CLI run checks.

Vertex order is semantic: it fixes the coordinates of dimension vectors, so
parsing and canonical serialization both preserve the given order.
"""
from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from typing import Iterator

from .errors import CacheInvalid, NotHereditarySetup, UnsupportedPeriod

DimVec = tuple[int, ...]


class Arrow(namedtuple("Arrow", "source target label")):
    __slots__ = ()


class Quiver(namedtuple("Quiver", "vertices arrows")):
    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.vertices)


def validate_quiver(q: Quiver) -> None:
    """Check well-formedness and acyclicity; raises NotHereditarySetup.

    Acyclicity (no oriented cycles, loops included) is what keeps the module
    category hereditary and every object finite, so it is enforced here.
    """
    if not q.vertices:
        raise NotHereditarySetup("quiver must have at least one vertex")
    if len(set(q.vertices)) != len(q.vertices):
        raise NotHereditarySetup("duplicate vertex names")
    labels = [a.label for a in q.arrows]
    if len(set(labels)) != len(labels):
        raise NotHereditarySetup("duplicate arrow labels")
    for a in q.arrows:
        if not (0 <= a.source < q.n and 0 <= a.target < q.n):
            raise NotHereditarySetup(f"arrow {a.label!r} has an endpoint outside the vertex set")
    topological_order(q)  # raises on an oriented cycle


def topological_order(q: Quiver) -> tuple[int, ...]:
    """Vertices ordered so every arrow points forward (ties by vertex index)."""
    indeg = [0] * q.n
    for a in q.arrows:
        indeg[a.target] += 1
    ready = sorted(v for v in range(q.n) if indeg[v] == 0)
    order: list[int] = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for a in q.arrows:
            if a.source == v:
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    ready.append(a.target)
        ready.sort()
    if len(order) != q.n:
        raise NotHereditarySetup("quiver has an oriented cycle; category is not hereditary here")
    return tuple(order)


def _name(value, what: str) -> str:
    """value, which names a vertex or an arrow's end or label: it must be a string."""
    if not isinstance(value, str):
        raise NotHereditarySetup(f"malformed quiver description: {what} is {value!r}, "
                                 f"not a string")
    return value


def quiver_from_dict(d: dict) -> Quiver:
    """Build a quiver from {"vertices": [...], "arrows": [{src,dst,label}]},
    both lists, every name a string; the ClassRegistry built over it runs
    validate_quiver, once per quiver."""
    try:
        vertices, raw_arrows = d["vertices"], d.get("arrows", [])
        if not isinstance(vertices, list) or not isinstance(raw_arrows, list):
            raise TypeError("vertices and arrows must be lists")
    except (KeyError, TypeError) as e:
        raise NotHereditarySetup(f"malformed quiver description: {e}") from None
    vertices = tuple(_name(v, f"vertex #{i}") for i, v in enumerate(vertices))
    name_to_idx = {v: i for i, v in enumerate(vertices)}
    arrows = []
    for i, a in enumerate(raw_arrows):
        try:
            src, dst = _name(a["src"], f"arrow #{i}'s src"), _name(a["dst"], f"arrow #{i}'s dst")
        except (KeyError, TypeError) as e:
            raise NotHereditarySetup(f"malformed arrow #{i}: {e}") from None
        if src not in name_to_idx or dst not in name_to_idx:
            raise NotHereditarySetup(f"arrow #{i} references unknown vertex {src!r} or {dst!r}")
        label = _name(a.get("label", f"a{i}"), f"arrow #{i}'s label")
        arrows.append(Arrow(name_to_idx[src], name_to_idx[dst], label))
    return Quiver(vertices, tuple(arrows))


def quiver_to_dict(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"src": q.vertices[a.source], "dst": q.vertices[a.target], "label": a.label}
                   for a in q.arrows],
    }


def line_quiver(n: int) -> Quiver:
    """The equioriented A_n quiver 1 -> 2 -> ... -> n."""
    if n < 1:
        raise NotHereditarySetup("line quiver needs at least one vertex")
    vertices = tuple(str(i + 1) for i in range(n))
    arrows = tuple(Arrow(i, i + 1, f"a{i + 1}") for i in range(n - 1))
    return Quiver(vertices, arrows)


def check_period(t: int) -> None:
    """Allow complex periodicity t = 0 (bounded) or positive odd t; reject everything else."""
    if not isinstance(t, int) or t < 0 or (t > 0 and t % 2 == 0):
        raise UnsupportedPeriod(f"periodicity must be 0 or a positive odd integer, got {t!r}")


def dims_key(dims: DimVec) -> str:
    """dims as the key "d_0,d_1,..." under which a cache file stores it."""
    return ",".join(map(str, dims))


def dims_of_key(key: str) -> DimVec:
    """The dims a cache file's key names; CacheInvalid (or ValueError) unless
    the key is written as dims_key writes it, since int() reads " 1" and "+1"
    as 1 and two keys could otherwise name one dims."""
    dims = tuple(map(int, key.split(",")))
    if key != dims_key(dims):
        raise CacheInvalid(f"dims key {key!r} is not written as {dims_key(dims)!r}")
    return dims


def dims_add(d1: DimVec, d2: DimVec) -> DimVec:
    return tuple(map(operator.add, d1, d2))


def dims_sub(d1: DimVec, d2: DimVec) -> DimVec:
    return tuple(map(operator.sub, d1, d2))


def euler_add(quiver: Quiver, d1: DimVec, d2: DimVec) -> int:
    """Additive Euler form: sum_v d1_v d2_v - sum_{a: s->t} d1_s d2_t."""
    out = sum(x * y for x, y in zip(d1, d2))
    for a in quiver.arrows:
        out -= d1[a.source] * d2[a.target]
    return out


def total_dim(d: DimVec) -> int:
    return sum(d)


def subdimvecs(d: DimVec) -> Iterator[DimVec]:
    """All dimension vectors e with 0 <= e <= d componentwise (last coord fastest)."""
    yield from itertools.product(*(range(x + 1) for x in d))


def dimvecs_up_to(n_vertices: int, max_total: int) -> list[DimVec]:
    """All dimension vectors with total dimension at most max_total, smallest
    total first, then in lex order."""
    return sorted((d for d in itertools.product(range(max_total + 1), repeat=n_vertices)
                   if sum(d) <= max_total), key=lambda d: (sum(d), d))

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallforge.errors import NotHereditarySetup
from hallforge.quivers import (Arrow, Quiver, dims_add, dims_sub, dimvecs_up_to, line_quiver,
                               quiver_from_dict, quiver_to_dict, subdimvecs,
                               topological_order, total_dim, validate_quiver)


def test_line_quiver_shape():
    q = line_quiver(3)
    assert q.n == 3
    assert [(a.source, a.target) for a in q.arrows] == [(0, 1), (1, 2)]
    assert line_quiver(1).arrows == ()


@pytest.mark.parametrize("vertices,arrows", [
    (("1",), [(0, 0)]),
    (("1", "2"), [(0, 1), (1, 0)]),
    # Vertex 1 is a source, and the cycle 2 -> 3 -> 4 -> 2 is reached from it.
    (("1", "2", "3", "4"), [(0, 1), (1, 2), (2, 3), (3, 1)]),
], ids=["loop", "2-cycle", "3-cycle-from-source"])
def test_cycle_is_rejected(vertices, arrows):
    q = Quiver(vertices, tuple(Arrow(s, t, f"a{i}") for i, (s, t) in enumerate(arrows)))
    with pytest.raises(NotHereditarySetup, match="oriented cycle"):
        validate_quiver(q)
    with pytest.raises(NotHereditarySetup):
        topological_order(q)


def test_self_loop_is_rejected():
    with pytest.raises(NotHereditarySetup):
        validate_quiver(Quiver(("1",), (Arrow(0, 0, "a"),)))


def test_topological_order_on_lines():
    assert topological_order(line_quiver(4)) == (0, 1, 2, 3)
    rev = Quiver(("1", "2"), (Arrow(1, 0, "a"),))
    assert topological_order(rev) == (1, 0)


def test_quiver_dict_roundtrip():
    q = line_quiver(2)
    d = quiver_to_dict(q)
    assert d == {"vertices": ["1", "2"],
                 "arrows": [{"src": "1", "dst": "2", "label": "a1"}]}
    assert quiver_from_dict(d) == q
    parsed = quiver_from_dict(json.loads(json.dumps(quiver_to_dict(q))))
    assert parsed == q


def test_quiver_from_dict_errors():
    with pytest.raises(NotHereditarySetup):
        quiver_from_dict({"arrows": []})
    with pytest.raises(NotHereditarySetup):
        quiver_from_dict({"vertices": ["1"], "arrows": [{"src": "1", "dst": "9"}]})


@pytest.mark.parametrize("d", [
    {"vertices": "12", "arrows": [{"src": "1", "dst": "2"}]},
    {"vertices": {"1": 0, "2": 0}, "arrows": [{"src": "1", "dst": "2"}]},
    {"vertices": ["1", "2"], "arrows": {"a": {"src": "1", "dst": "2"}}},
    {"vertices": ["1", "2"], "arrows": "ab"},
], ids=["vertices-a-string", "vertices-an-object", "arrows-an-object", "arrows-a-string"])
def test_quiver_from_dict_reads_vertices_and_arrows_only_from_lists(d):
    # Iterating a string or an object would read its characters or keys as vertices.
    with pytest.raises(NotHereditarySetup, match="malformed quiver description"):
        quiver_from_dict(d)


@pytest.mark.parametrize("quiver,message", [
    (Quiver((), ()), "at least one vertex"),
    (Quiver(("1", "1"), ()), "duplicate vertex names"),
    (Quiver(("1", "2"), (Arrow(0, 1, "a"), Arrow(0, 1, "a"))), "duplicate arrow labels"),
    (Quiver(("1", "2"), (Arrow(0, 2, "a"),)), "'a' has an endpoint outside the vertex set"),
    (Quiver(("1", "2"), (Arrow(-1, 1, "b"),)), "'b' has an endpoint outside the vertex set"),
], ids=["no-vertices", "duplicate-vertex", "duplicate-label", "target-outside",
        "source-outside"])
def test_malformed_quiver_is_rejected(quiver, message):
    with pytest.raises(NotHereditarySetup, match=message):
        validate_quiver(quiver)


@pytest.mark.parametrize("arrow", ["a", {"src": "1"}, {"dst": "1"}],
                         ids=["not-a-dict", "no-dst", "no-src"])
def test_quiver_from_dict_rejects_a_malformed_arrow(arrow):
    with pytest.raises(NotHereditarySetup, match="malformed arrow #1"):
        quiver_from_dict({"vertices": ["1", "2"], "arrows": [{"src": "1", "dst": "2"}, arrow]})


@pytest.mark.parametrize("n", [0, -1])
def test_line_quiver_needs_a_vertex(n):
    with pytest.raises(NotHereditarySetup, match="at least one vertex"):
        line_quiver(n)


def test_dims_helpers():
    assert dims_add((1, 2), (3, 4)) == (4, 6)
    assert dims_sub((3, 4), (1, 2)) == (2, 2)
    assert total_dim((2, 3)) == 5


@given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_subdimvecs_count(dims):
    dims = tuple(dims)
    subs = list(subdimvecs(dims))
    expect = 1
    for d in dims:
        expect *= d + 1
    assert len(subs) == expect
    assert len(set(subs)) == len(subs)
    assert all(a <= b for s in subs for a, b in zip(s, dims))


def test_dimvecs_up_to_counts():
    vecs = list(dimvecs_up_to(2, 2))
    assert sorted(vecs) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert list(dimvecs_up_to(1, 4)) == [(0,), (1,), (2,), (3,), (4,)]

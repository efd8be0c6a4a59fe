"""The engine's value types are tuple-backed: immutable, validated where they
are built, copied and pickled by value, and hashed and compared in C."""
from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from hallforge.algebra import CheckResult, HallVector
from hallforge.complexes import complex_obj, graded_object
from hallforge.errors import IncompatibleObjects
from hallforge.linalg import Mat, rref, subspace_from_vectors
from hallforge.quivers import Arrow, line_quiver
from hallforge.reps import IsoClassId, Rep


def _rep() -> Rep:
    return Rep(line_quiver(2), 2, tuple([1, 2]), (Mat(2, 2, 1, tuple([(1,), (1,)])),))


def _graded():
    return graded_object(3, 2, [(4, IsoClassId(tuple([1, 1]), 1))])


# Each factory builds its value from fresh fields on every call.
MAKERS = {
    "Mat": lambda: Mat(2, 2, 2, tuple([(1, 0), (1, 1)])),
    "RrefResult": lambda: rref(Mat(3, 2, 2, tuple([(1, 2), (2, 1)]))),
    "Subspace": lambda: subspace_from_vectors(2, 3, [(1, 1, 0), (0, 1, 1)]),
    "Arrow": lambda: Arrow(0, 1, "".join(["a", "1"])),
    "Quiver": lambda: line_quiver(2),
    "Rep": _rep,
    "IsoClassId": lambda: IsoClassId(tuple([1, 1]), 1),
    "GradedObject": _graded,
    "ComplexObj": lambda: complex_obj(0, line_quiver(1), 2,
                                      {0: Rep(line_quiver(1), 2, (1,), ()),
                                       1: Rep(line_quiver(1), 2, (1,), ())},
                                      {0: (Mat.identity(2, 1),)}),
    "CheckResult": lambda: CheckResult("assoc", True, HallVector.basis(2, _graded()),
                                       HallVector.basis(2, _graded())),
}
# A CheckResult holds HallVectors, which are mutable and so unhashable.
UNHASHABLE = {"CheckResult"}


def test_constructors_reject_bad_input():
    a2 = line_quiver(2)
    one = Mat(2, 1, 1, ((1,),))
    with pytest.raises(IncompatibleObjects, match="declared shape"):
        Mat(2, 2, 1, ((1,),))
    with pytest.raises(IncompatibleObjects, match="declared shape"):
        Mat(2, 1, 2, ((1,),))
    with pytest.raises(IncompatibleObjects, match="wrong length"):
        Rep(a2, 2, (1,), (one,))
    with pytest.raises(IncompatibleObjects, match="wrong length"):
        Rep(a2, 2, (1, 1), ())
    with pytest.raises(IncompatibleObjects, match="arrow 'a1' needs a 2x1 matrix over F_2"):
        Rep(a2, 2, (1, 2), (one,))
    with pytest.raises(IncompatibleObjects, match="arrow 'a1' needs a 1x1 matrix over F_2"):
        Rep(a2, 2, (1, 1), (Mat(3, 1, 1, ((1,),)),))


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_values_are_immutable(name):
    v = MAKERS[name]()
    with pytest.raises(AttributeError):
        setattr(v, v._fields[0], None)
    with pytest.raises(AttributeError):
        v.extra = None


@pytest.mark.parametrize("name", sorted(MAKERS))
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_values(name, clone):
    v = MAKERS[name]()
    w = clone(v)
    assert type(w) is type(v) and w == v
    if name not in UNHASHABLE:
        assert hash(w) == hash(v)


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_independent_values_compare_and_hash_equal(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert type(a).__name__ == name
    assert a is not b and a == b and a == tuple(b)
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_csv():
    # Start-up time: dataclasses pulls in inspect (and with it ast, dis and
    # tokenize); csv is needed only by --csv.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, hallforge.cli; "
             "print(*[m for m in ('dataclasses', 'inspect', 'csv') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []

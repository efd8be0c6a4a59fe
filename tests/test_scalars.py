from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallforge.errors import DivisionByZero, IncompatibleObjects
from hallforge.scalars import QSqrtScalar, parse_scalar

from .oracles import FractionPairScalar, q_power_exponent


def _fracs():
    return st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _scalars(q=2):
    return st.tuples(_fracs(), _fracs()).map(lambda ab: QSqrtScalar(q, *ab))


@given(_scalars(), _scalars(), _scalars())
@settings(max_examples=100, deadline=None)
def test_ring_laws(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x * y == y * x
    assert x + (y + z) == (x + y) + z
    assert x - y == -(y - x)


@given(_scalars())
@settings(max_examples=100, deadline=None)
def test_inverse(x):
    if not x:
        with pytest.raises(DivisionByZero):
            x.inverse()
        return
    assert x * x.inverse() == QSqrtScalar.one(2)
    assert (1 / x) * x == QSqrtScalar.one(2)


@given(st.integers(-8, 8))
@settings(max_examples=60, deadline=None)
def test_v_power_laws(e):
    v = QSqrtScalar.v_power(2, 1)
    assert QSqrtScalar.v_power(2, e) == v ** e
    assert QSqrtScalar.v_power(2, e) * QSqrtScalar.v_power(2, -e) == QSqrtScalar.one(2)


def test_v_squared_is_q():
    for q in (2, 3, 5):
        assert QSqrtScalar.v_power(q, 2) == QSqrtScalar.rational(q, q)
        assert QSqrtScalar.v_power(q, -2) == QSqrtScalar.rational(q, Fraction(1, q))


def _root(q, x):
    """sqrt(x) for a rational x == q**e, as the oracles take it: v**e."""
    return QSqrtScalar.v_power(q, q_power_exponent(x, q))


def test_sqrt_of_pure_powers():
    assert _root(2, 4) == QSqrtScalar.rational(2, 2)
    assert _root(2, 2) == QSqrtScalar.v_power(2, 1)
    assert _root(2, Fraction(1, 2)) == QSqrtScalar.v_power(2, -1)
    assert _root(3, Fraction(1, 27)) == QSqrtScalar.v_power(3, -3)
    assert _root(5, 1) == QSqrtScalar.one(5)
    assert _root(2, 4) * _root(2, 4) == QSqrtScalar.rational(2, 4)


def test_sqrt_rejects_non_powers():
    for x in (3, Fraction(3, 2), Fraction(2, 3), -2, 0):
        with pytest.raises(ValueError, match="not an integer power of 2"):
            q_power_exponent(x, 2)


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(IncompatibleObjects):
        QSqrtScalar.one(2) + QSqrtScalar.one(3)


def test_parse_scalar_forms():
    q = 2
    assert parse_scalar(q, "3/2") == QSqrtScalar.rational(q, Fraction(3, 2))
    assert parse_scalar(q, "v") == QSqrtScalar.v_power(q, 1)
    assert parse_scalar(q, "-v") == -QSqrtScalar.v_power(q, 1)
    assert parse_scalar(q, "0 + 3/2*v") == QSqrtScalar(q, Fraction(0), Fraction(3, 2))
    assert parse_scalar(q, "1/2 - 3*v") == QSqrtScalar(q, Fraction(1, 2), Fraction(-3))
    assert parse_scalar(q, "1/4+1/2*v") == QSqrtScalar(q, Fraction(1, 4), Fraction(1, 2))
    with pytest.raises(IncompatibleObjects):
        parse_scalar(q, "")
    with pytest.raises(IncompatibleObjects):
        parse_scalar(q, "x+y")


@given(_scalars())
@settings(max_examples=100, deadline=None)
def test_parse_roundtrips_str(x):
    assert parse_scalar(2, str(x)) == x


# -- the integer triple against the Fraction-pair reference --------------------------


def _canonical(x: QSqrtScalar) -> bool:
    return (x.d > 0 and math.gcd(x.x, x.y, x.d) == 1
            and (x.a, x.b) == (Fraction(x.x, x.d), Fraction(x.y, x.d)))


def _agrees(x: QSqrtScalar, ref: FractionPairScalar) -> bool:
    return (_canonical(x) and x.q == ref.q and (x.a, x.b) == (ref.a, ref.b)
            and str(x) == str(ref) and bool(x) == bool(ref))


_pairs = st.tuples(_fracs(), _fracs())


@given(st.sampled_from([2, 3, 5]), _pairs, _pairs, st.integers(-4, 4))
@settings(max_examples=200, deadline=None)
def test_triple_matches_fraction_pair_reference(q, ab, cd, e):
    x, y = QSqrtScalar(q, *ab), QSqrtScalar(q, *cd)
    rx, ry = FractionPairScalar(q, *ab), FractionPairScalar(q, *cd)
    assert _agrees(x, rx) and _agrees(y, ry)
    assert _agrees(x + y, rx + ry)
    assert _agrees(x - y, rx - ry)
    assert _agrees(-x, -rx)
    assert _agrees(x * y, rx * ry)
    assert (x == y) == (rx == ry)
    assert len({x, y}) == len({rx, ry})
    if ry:
        assert _agrees(x / y, rx / ry)
    else:
        with pytest.raises(DivisionByZero):
            x / y
    if rx or e >= 0:
        assert _agrees(x ** e, rx ** e)
    else:
        with pytest.raises(DivisionByZero):
            x ** e
    for z in (x, y, x * y, x - y):
        assert parse_scalar(q, str(z)) == z


@given(st.sampled_from([2, 3]), st.integers(-6, 6), st.integers(-9, 9), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_equal_values_hash_alike_across_routes(q, e, num, den):
    """v_power, rational times a power of v, the rational-pair constructor,
    parsing and a multiply-then-divide round trip build one canonical triple."""
    direct = QSqrtScalar.v_power(q, e, num, den)
    routes = [QSqrtScalar.rational(q, num, den) * QSqrtScalar.v_power(q, 1) ** e,
              QSqrtScalar.v_power(q, e, Fraction(num, den)),
              QSqrtScalar.v_power(q, e, -num, -den),
              parse_scalar(q, str(direct)),
              direct * QSqrtScalar(q, Fraction(1, 3), 2) / QSqrtScalar(q, Fraction(1, 3), 2)]
    half, odd = e // 2, e % 2
    value = Fraction(num, den) * Fraction(q) ** half
    routes.append(QSqrtScalar(q, 0, value) if odd else QSqrtScalar(q, value, 0))
    for r in routes:
        assert _canonical(r)
        assert r == direct and hash(r) == hash(direct)


def test_canonical_triples():
    def triple(x):
        return x.x, x.y, x.d
    assert triple(QSqrtScalar.zero(2)) == (0, 0, 1)
    assert triple(QSqrtScalar.one(2) - QSqrtScalar.one(2)) == (0, 0, 1)
    assert triple(QSqrtScalar.rational(2, 6, -4)) == (-3, 0, 2)
    assert triple(QSqrtScalar(3, Fraction(2, 4), Fraction(1, 6))) == (3, 1, 6)
    assert triple(QSqrtScalar.v_power(2, -3, 4)) == (0, 1, 1)
    with pytest.raises(DivisionByZero):
        QSqrtScalar.rational(2, 1, 0)

"""Exact arithmetic in Q(sqrt(q)) for a fixed prime q.

A scalar a + b*sqrt(q) is one integer triple (x, y, d) meaning
(x + y*sqrt(q)) / d, kept canonical: d > 0 and gcd(x, y, d) = 1.  Since
sqrt(q) is irrational the value fixes the triple, so equality and hashing are
componentwise; each operation reduces its result with one math.gcd, and a
nonzero scalar has an inverse (conjugate over norm).  Fractions appear only at
the edges: the a and b properties and rational arguments.  Half-integer powers
of q come from integer exponents (v_power); no square root is ever taken.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DivisionByZero, IncompatibleObjects


def _ratio_str(num: int, den: int) -> str:
    """num/den in lowest terms, printed as str(Fraction(num, den)) prints it."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


_new = object.__new__


def _make(q: int, x: int, y: int, d: int) -> "QSqrtScalar":
    """(x + y*sqrt(q)) / d from d > 0, reduced by the common divisor of x, y, d."""
    g = gcd(x, y, d)
    if g != 1:
        x, y, d = x // g, y // g, d // g
    s = _new(QSqrtScalar)
    s.q = q
    s.x = x
    s.y = y
    s.d = d
    return s


class QSqrtScalar:
    """(x + y*sqrt(q)) / d, exact, with d > 0 and gcd(x, y, d) = 1.

    QSqrtScalar(q, a, b) is a + b*sqrt(q) for rationals a, b.  Instances are
    values: the operations build new ones and never change an existing one.
    """

    __slots__ = ("q", "x", "y", "d")

    def __init__(self, q: int, a, b):
        a, b = Fraction(a), Fraction(b)
        x, y = a.numerator * b.denominator, b.numerator * a.denominator
        d = a.denominator * b.denominator
        g = gcd(x, y, d)
        self.q, self.x, self.y, self.d = q, x // g, y // g, d // g

    @property
    def a(self) -> Fraction:
        return Fraction(self.x, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.y, self.d)

    @staticmethod
    def rational(q: int, num, den: int = 1) -> "QSqrtScalar":
        """num / den for an int (or rational) num and an int den."""
        return QSqrtScalar.v_power(q, 0, num, den)

    @staticmethod
    def zero(q: int) -> "QSqrtScalar":
        return _make(q, 0, 0, 1)

    @staticmethod
    def one(q: int) -> "QSqrtScalar":
        return _make(q, 1, 0, 1)

    @staticmethod
    def v_power(q: int, e: int, num=1, den: int = 1) -> "QSqrtScalar":
        """(num / den) * (sqrt q)^e for any integer e, int (or rational) num and int den."""
        if type(num) is not int:
            num = Fraction(num)
            num, den = num.numerator, num.denominator * den
        if den <= 0:
            if den == 0:
                raise DivisionByZero("scalar with denominator 0")
            num, den = -num, -den
        # Floor division keeps odd in {0, 1} for negative e as well.
        half, odd = e // 2, e % 2
        if half >= 0:
            num *= q ** half
        else:
            den *= q ** -half
        return _make(q, 0, num, den) if odd else _make(q, num, 0, den)

    def _coerce(self, other) -> "QSqrtScalar":
        if isinstance(other, QSqrtScalar):
            if other.q != self.q:
                raise IncompatibleObjects(f"scalars over Q(sqrt {self.q}) and Q(sqrt {other.q})")
            return other
        if isinstance(other, (int, Fraction)):
            return QSqrtScalar.rational(self.q, other)
        return NotImplemented

    def __add__(self, other):
        o = other if type(other) is QSqrtScalar and other.q == self.q else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d1, d2 = self.d, o.d
        if d1 == d2:
            return _make(self.q, self.x + o.x, self.y + o.y, d1)
        return _make(self.q, self.x * d2 + o.x * d1, self.y * d2 + o.y * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.q, -self.x, -self.y, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o - self if o is not NotImplemented else NotImplemented

    def __mul__(self, other):
        o = other if type(other) is QSqrtScalar and other.q == self.q else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        q, x1, y1, x2, y2 = self.q, self.x, self.y, o.x, o.y
        return _make(q, x1 * x2 + q * y1 * y2, x1 * y2 + y1 * x2, self.d * o.d)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrtScalar":
        x, y, d = self.x, self.y, self.d
        norm = x * x - self.q * y * y
        if norm == 0:
            # sqrt(q) irrational: norm vanishes only for the zero scalar.
            raise DivisionByZero("cannot invert the zero scalar")
        if norm < 0:
            x, y, norm = -x, -y, -norm
        # 1 / ((x + y sqrt q) / d) = d (x - y sqrt q) / norm.
        return _make(self.q, d * x, -d * y, norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * self.inverse() if o is not NotImplemented else NotImplemented

    def __pow__(self, e: int) -> "QSqrtScalar":
        if e < 0:
            return self.inverse() ** (-e)
        out = QSqrtScalar.one(self.q)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other) -> bool:
        if type(other) is not QSqrtScalar:
            return NotImplemented
        return (self.x == other.x and self.y == other.y and self.d == other.d
                and self.q == other.q)

    def __hash__(self) -> int:
        return hash((self.q, self.x, self.y, self.d))

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    def __str__(self) -> str:
        return f"{_ratio_str(self.x, self.d)} + {_ratio_str(self.y, self.d)}*v"

    __repr__ = __str__


def parse_scalar(q: int, text: str) -> QSqrtScalar:
    """Parse "a/b + c/d*v" (either term may be omitted)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise IncompatibleObjects("empty scalar")
    # Split into a rational part and a *v part on the last top-level '+'.
    a = Fraction(0)
    b = Fraction(0)
    # Normalize "x-y" into "x+-y" so we can split on '+' (keep leading '-').
    body = s[0] + s[1:].replace("-", "+-")
    for part in body.split("+"):
        if not part:
            continue
        try:
            if part.endswith("*v"):
                b += Fraction(part[:-2])
            elif part.endswith("v"):
                core = part[:-1]
                b += Fraction(core) if core not in ("", "-") else Fraction(core + "1")
            else:
                a += Fraction(part)
        except ValueError:
            raise IncompatibleObjects(f"cannot parse scalar {text!r}") from None
    return QSqrtScalar(q, a, b)

"""Exact arithmetic in Q(sqrt(q)) for a fixed prime q.

A scalar is a + b*sqrt(q) with rational a, b.  Since sqrt(q) is irrational,
the representation is unique, equality is componentwise, and a nonzero scalar
always has an inverse (conjugate over norm).  Square roots are only taken of
verified pure powers of q; anything else raises NotAPureQPower.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, IncompatibleObjects, NotAPureQPower


def q_exponent(x, q: int) -> int:
    """e with x == q**e; NotAPureQPower when there is none."""
    x = Fraction(x)
    num, den, sign = x.numerator, x.denominator, 1
    if 0 < x < 1:
        num, den, sign = den, num, -1
    e = 0
    while num > 1 and num % q == 0:
        num //= q
        e += 1
    if num != 1 or den != 1:
        raise NotAPureQPower(f"{x} is not an integer power of {q}")
    return sign * e


@dataclass(frozen=True, slots=True)
class QSqrtScalar:
    """a + b*sqrt(q), exact."""

    q: int
    a: Fraction
    b: Fraction

    @staticmethod
    def rational(q: int, x) -> "QSqrtScalar":
        return QSqrtScalar(q, Fraction(x), Fraction(0))

    @staticmethod
    def zero(q: int) -> "QSqrtScalar":
        return QSqrtScalar.rational(q, 0)

    @staticmethod
    def one(q: int) -> "QSqrtScalar":
        return QSqrtScalar.rational(q, 1)

    @staticmethod
    def v_power(q: int, e: int, coeff: int | Fraction = 1) -> "QSqrtScalar":
        """coeff * (sqrt q)^e for any integer e and rational coeff."""
        # Floor division keeps odd in {0, 1} for negative e as well.
        half, odd = e // 2, e % 2
        base = Fraction(q) ** half * coeff
        if odd:
            return QSqrtScalar(q, Fraction(0), base)
        return QSqrtScalar(q, base, Fraction(0))

    def _coerce(self, other) -> "QSqrtScalar":
        if isinstance(other, QSqrtScalar):
            if other.q != self.q:
                raise IncompatibleObjects(f"scalars over Q(sqrt {self.q}) and Q(sqrt {other.q})")
            return other
        if isinstance(other, (int, Fraction)):
            return QSqrtScalar.rational(self.q, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrtScalar(self.q, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrtScalar(self.q, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o - self if o is not NotImplemented else NotImplemented

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, c, d = self.a, self.b, o.a, o.b
        if not b:  # skip the products of a zero half, whose zero is reused
            return QSqrtScalar(self.q, a * c if c else c, a * d if d else d)
        if not a:
            return QSqrtScalar(self.q, self.q * b * d if d else d, b * c if c else c)
        return QSqrtScalar(self.q, a * c + self.q * b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrtScalar":
        norm = self.a * self.a - self.q * self.b * self.b
        if norm == 0:
            # sqrt(q) irrational: norm vanishes only for the zero scalar.
            raise DivisionByZero("cannot invert the zero scalar")
        return QSqrtScalar(self.q, self.a / norm, -self.b / norm)

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

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise NotAPureQPower(f"{self} is irrational")
        return self.a

    def sqrt(self) -> "QSqrtScalar":
        """Square root, defined only for positive pure powers of q."""
        if self.b != 0:
            raise NotAPureQPower(f"square root of {self} is outside Q(sqrt {self.q})")
        return QSqrtScalar.v_power(self.q, q_exponent(self.a, self.q))

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*v"

    __repr__ = __str__


def sqrt_of_fraction(q: int, x: Fraction) -> QSqrtScalar:
    return QSqrtScalar.rational(q, x).sqrt()


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

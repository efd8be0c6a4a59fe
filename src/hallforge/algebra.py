"""Derived Hall algebras of t-periodic complexes.

Basis elements are GradedObjects; coefficients live in Q(sqrt q).  Products
are computed by the local-to-global multiplication formulas (t = 0 and odd t),
and independently by generator-word rewriting (t = 0) and by cone-class
counting (t = 1), which the crosscheck routines compare term by term.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import (GradedObject, check_period, class_at_or_zero,
                        dt_hom_with_cone_count, format_graded, graded_object,
                        hom_dt_count, stalk)
from .errors import IncompatibleObjects, RewriteBudgetExceeded, UnsupportedPeriod
from .hall import ext1_count, euler_add, euler_mult, gamma_coeff, hall_number
from .quivers import dims_add, dims_sub, subdimvecs
from .reps import ClassRegistry, IsoClassId
from .scalars import QSqrtScalar, q_exponent, sqrt_of_fraction

DEFAULT_REWRITE_BUDGET = 100_000

#: A product of shifted generators, leftmost factor first: ((class, degree), ...).
Word = tuple[tuple[IsoClassId, int], ...]


def _graded_sort_key(g: GradedObject) -> tuple:
    return tuple((d, c.sort_key) for d, c in g.components)


class HallVector:
    """A finite Q(sqrt q)-linear combination of graded objects."""

    __slots__ = ("q", "terms")

    def __init__(self, q: int, terms: dict[GradedObject, QSqrtScalar] | None = None):
        self.q = q
        self.terms: dict[GradedObject, QSqrtScalar] = {}
        if terms:
            for g, c in terms.items():
                if c:
                    self.terms[g] = c

    @staticmethod
    def basis(q: int, g: GradedObject) -> "HallVector":
        return HallVector(q, {g: QSqrtScalar.one(q)})

    def add(self, other: "HallVector") -> "HallVector":
        out = dict(self.terms)
        for g, c in other.terms.items():
            s = out.get(g, QSqrtScalar.zero(self.q)) + c
            if s:
                out[g] = s
            else:
                out.pop(g, None)
        return HallVector(self.q, out)

    def sub(self, other: "HallVector") -> "HallVector":
        return self.add(other.scale(QSqrtScalar.rational(self.q, -1)))

    def scale(self, c) -> "HallVector":
        if not isinstance(c, QSqrtScalar):
            c = QSqrtScalar.rational(self.q, c)
        if not c:
            return HallVector(self.q)
        return HallVector(self.q, {g: x * c for g, x in self.terms.items()})

    def coeff(self, g: GradedObject) -> QSqrtScalar:
        return self.terms.get(g, QSqrtScalar.zero(self.q))

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: _graded_sort_key(kv[0]))

    def __eq__(self, other) -> bool:
        return isinstance(other, HallVector) and self.q == other.q and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c}).{list(g.components)}" for g, c in self.items())

    def format(self, reg: ClassRegistry) -> dict[str, str]:
        return {format_graded(reg, g): str(c) for g, c in self.items()}


@dataclass
class CheckResult:
    """Outcome of an identity check: both sides plus the mismatching keys."""

    label: str
    ok: bool
    lhs: HallVector
    rhs: HallVector
    mismatches: tuple[GradedObject, ...] = ()
    notes: dict = field(default_factory=dict)


def _compare(label: str, lhs: HallVector, rhs: HallVector, notes: dict | None = None) -> CheckResult:
    keys = sorted(set(lhs.terms) | set(rhs.terms), key=_graded_sort_key)
    bad = tuple(g for g in keys if lhs.coeff(g) != rhs.coeff(g))
    return CheckResult(label, not bad, lhs, rhs, bad, notes or {})


class DerivedHall:
    """The derived Hall algebra DH_t over one registry."""

    def __init__(self, reg: ClassRegistry, t: int):
        check_period(t)
        self.reg = reg
        self.t = t
        self.q = reg.p
        self._mul = reg.memo(("dha_mul", t))

    # -- scalar helpers -----------------------------------------------------

    def one_scalar(self) -> QSqrtScalar:
        return QSqrtScalar.one(self.q)

    def rational(self, x) -> QSqrtScalar:
        return QSqrtScalar.rational(self.q, x)

    def v_power(self, e: int) -> QSqrtScalar:
        return QSqrtScalar.v_power(self.q, e)

    # -- basis helpers ------------------------------------------------------

    def unit_graded(self) -> GradedObject:
        return graded_object(self.t, self.reg.quiver.n, [])

    def one(self) -> HallVector:
        return HallVector.basis(self.q, self.unit_graded())

    def stalk(self, cls: IsoClassId, deg: int = 0) -> GradedObject:
        return stalk(self.reg, self.t, cls, deg)

    def stalk_vector(self, cls: IsoClassId, deg: int = 0) -> HallVector:
        return HallVector.basis(self.q, self.stalk(cls, deg))

    def _check_graded(self, g: GradedObject) -> None:
        if g.t != self.t or g.n_vertices != self.reg.quiver.n:
            raise IncompatibleObjects("graded object does not belong to this algebra")

    # -- multiplication -----------------------------------------------------

    def multiply_graded(self, a: GradedObject, b: GradedObject) -> HallVector:
        self._check_graded(a)
        self._check_graded(b)
        key = (a, b)
        if key in self._mul:
            return self._mul[key]
        if a.is_zero():
            out = HallVector.basis(self.q, b)
        elif b.is_zero():
            out = HallVector.basis(self.q, a)
        elif self.t == 0:
            out = self.lt_mul_t0(a, b)
        else:
            out = self.lt_mul_odd(a, b)
        self._mul[key] = out
        return out

    def multiply(self, x: HallVector, y: HallVector) -> HallVector:
        out: dict[GradedObject, QSqrtScalar] = {}
        for gx, cx in x.terms.items():
            for gy, cy in y.terms.items():
                c = cx * cy
                for g, cg in self.multiply_graded(gx, gy).terms.items():
                    out[g] = out[g] + cg * c if g in out else cg * c
        return HallVector(self.q, out)

    def product_of(self, factors: list[GradedObject]) -> HallVector:
        out = self.one()
        for g in factors:
            out = self.multiply(out, HallVector.basis(self.q, g))
        return out

    def _lt_step(self, a1: IsoClassId, a2: IsoClassId, s_i: IsoClassId,
                 s_next: IsoClassId) -> dict[IsoClassId, int]:
        """One degree of the local-to-global sum, as integer weights by middle class.

        At a degree with left component a1 and right component a2: a
        sub/quotient split M -> a1 -> s_next, a piece s_i -> a2 -> N glued
        from the right component, and a middle extension X of M by N, weighted
        by g^{a1}_{s_next,M} g^{a2}_{N,s_i} g^X_{M,N} a_M a_N a_{s_i}.  The Euler
        and remaining Aut factors depend on the boundary and are applied by the
        caller.  Memoized per registry, so products share steps.
        """
        memo = self.reg.memo("lt_step")
        key = (a1, a2, s_i, s_next)
        if key in memo:
            return memo[key]
        reg = self.reg
        dm, dn = dims_sub(a1.dims, s_next.dims), dims_sub(a2.dims, s_i.dims)
        out: dict[IsoClassId, int] = {}
        for m_cls in reg.classes(dm):
            g_a1 = hall_number(reg, s_next, m_cls, a1)
            if g_a1 == 0:
                continue
            for n_cls in reg.classes(dn):
                g_a2 = hall_number(reg, n_cls, s_i, a2)
                if g_a2 == 0:
                    continue
                base = (g_a1 * g_a2 * reg.aut_count(m_cls) * reg.aut_count(n_cls)
                        * reg.aut_count(s_i))
                for x_cls in reg.classes(dims_add(dm, dn)):
                    g_x = hall_number(reg, m_cls, n_cls, x_cls)
                    if g_x:
                        out[x_cls] = out.get(x_cls, 0) + base * g_x
        memo[key] = out
        return out

    def _lt_paths(self, a: GradedObject, b: GradedObject, degrees: range,
                  euler_exp) -> tuple[dict[tuple, int], int]:
        """Sum of products of degree steps over chains s_first, ..., s_last, s_first.

        s_i runs over the classes of dims <= min(b_i, a_{i-1}).  A frontier
        DP fixes s_first, carries (s_i, X components so far) and closes the
        chain at s_first.  For t = 0 the degrees span the support, s_first is
        forced to zero and the chain is open; for odd t they run over Z/t.
        euler_exp(i, dims s_i, dims s_next) is the q-exponent of each step.
        Returns {X components: W} and E such that the sum is W * q^E divided
        by the Aut of the X components; taking each step's exponent relative
        to its minimum over the candidate dims keeps every W an integer.
        """
        reg = self.reg
        caps = [tuple(map(min, b.dims_at(i), a.dims_at(i - 1))) for i in degrees]
        cands = [[c for d in subdimvecs(cap) for c in reg.classes(d)] for cap in caps]
        n = len(caps)
        # q^(exponent - floor) per degree and (dims s_i, dims s_next); E sums the floors.
        q_pows: list[dict[tuple, int]] = []
        e_total = 0
        for k, i in enumerate(degrees):
            exps = {(d, d_next): euler_exp(i, d, d_next) for d in subdimvecs(caps[k])
                    for d_next in subdimvecs(caps[(k + 1) % n])}
            floor = min(exps.values())
            e_total += floor
            q_pows.append({key: self.q ** (e - floor) for key, e in exps.items()})
        total: dict[tuple, int] = {}
        for s_first in cands[0]:
            frontier: dict[tuple, int] = {(s_first, ()): 1}
            for k, i in enumerate(degrees):
                a1, a2 = class_at_or_zero(reg, a, i), class_at_or_zero(reg, b, i)
                nexts = cands[k + 1] if k + 1 < n else [s_first]
                new_frontier: dict[tuple, int] = {}
                for (s_i, xs), w in frontier.items():
                    for s_next in nexts:
                        step = self._lt_step(a1, a2, s_i, s_next)
                        if not step:
                            continue
                        scale = w * q_pows[k][s_i.dims, s_next.dims]
                        for x_cls, num in step.items():
                            nkey = (s_next, xs + ((i, x_cls),) if x_cls.total_dim else xs)
                            new_frontier[nkey] = new_frontier.get(nkey, 0) + scale * num
                frontier = new_frontier
            for (_s, xs), w in frontier.items():
                total[xs] = total.get(xs, 0) + w
        return total, e_total

    def lt_mul_t0(self, a: GradedObject, b: GradedObject) -> HallVector:
        """Local-to-global product for bounded (t = 0) complexes.

        Sums over degreewise splittings: at each degree i a quotient/sub pair
        (I^i, M^i) of the left component, a piece N^i glued from the right
        component over I^{i-1}, and a middle extension class X^i of M^i by
        N^i; weighted by automorphism ratios, one cross-degree Euler factor
        per consecutive pair, and a sum-independent Euler prefactor.  The
        chain is open: I is zero below and above the support.
        """
        if self.t != 0:
            raise UnsupportedPeriod("this route is the t = 0 product")
        reg = self.reg
        quiver = reg.quiver
        support = sorted(set(a.support) | set(b.support))
        if not support:
            return self.one()
        lo, hi = support[0], support[-1]

        pref_exp = 0
        aut_ab = 1
        for i in range(lo, hi + 1):
            aut_ab *= (reg.aut_count(class_at_or_zero(reg, a, i))
                       * reg.aut_count(class_at_or_zero(reg, b, i)))
            da1 = a.dims_at(i)
            if not any(da1):
                continue
            for k in range(2, hi - i + 1):
                e = euler_add(quiver, b.dims_at(i + k), da1)
                pref_exp += e if k % 2 == 0 else -e

        def euler_exp(i, d_s, d_next):
            # 1 / <N^i, M^{i-1}>, with N^i = b_i - I^{i-1} and M^{i-1} = a_{i-1} - I^{i-1}.
            return -euler_add(quiver, dims_sub(b.dims_at(i), d_s), dims_sub(a.dims_at(i - 1), d_s))

        h, e = self._lt_paths(a, b, range(lo, hi + 1), euler_exp)
        return HallVector(self.q, {
            graded_object(0, quiver.n, xs):
                QSqrtScalar.v_power(self.q, 2 * (e + pref_exp), Fraction(w, aut_ab))
            for xs, w in h.items()})

    def lt_mul_odd(self, a: GradedObject, b: GradedObject) -> HallVector:
        """Local-to-global product for odd-periodic complexes.

        The degree steps of lt_mul_t0 closed into a cycle over Z/t, each
        weighted by 1 / (<a_i, S^i> <S^{i+1}, N^i>) and 1 / a_{X^i}, then
        normalized by v^(sum of Euler forms) a'_X / (a'_a a'_b).
        """
        t = self.t
        if t < 1:
            raise UnsupportedPeriod("this route needs odd positive t")
        reg = self.reg
        quiver = reg.quiver
        a_dims = [a.dims_at(i) for i in range(t)]
        b_dims = [b.dims_at(i) for i in range(t)]

        sqrt_exp = 0
        for i in range(t):
            sqrt_exp += euler_add(quiver, a_dims[i], b_dims[i])
            for k in range(1, t):
                e = euler_add(quiver, a_dims[(i + k) % t], b_dims[i])
                sqrt_exp += e if k % 2 == 1 else -e

        def euler_exp(i, d_s, d_next):
            return -(euler_add(quiver, a_dims[i], d_s)
                     + euler_add(quiver, d_next, dims_sub(b_dims[i], d_s)))

        h, e = self._lt_paths(a, b, range(t), euler_exp)
        aut_a, v_a = self._a_prime_parts(a)
        aut_b, v_b = self._a_prime_parts(b)
        out: dict[GradedObject, QSqrtScalar] = {}
        for xs, w in h.items():
            g = graded_object(t, quiver.n, xs)
            aut_g, v_g = self._a_prime_parts(g)
            aut_x = 1
            for _i, x_cls in xs:
                aut_x *= reg.aut_count(x_cls)
            out[g] = QSqrtScalar.v_power(self.q, sqrt_exp + 2 * e + v_g - v_a - v_b,
                                         Fraction(w * aut_g, aut_x * aut_a * aut_b))
        return HallVector(self.q, out)

    # -- normalization invariants --------------------------------------------

    def aut_dt(self, g: GradedObject) -> int:
        """|Aut_{D_t}| of a graded object (per-component Aut times Ext twists)."""
        self._check_graded(g)
        reg = self.reg
        out = 1
        for _deg, cls in g.components:
            out *= reg.aut_count(cls)
        for deg, cls in g.components:
            prev = g.component(deg - 1)
            if prev is not None:
                out *= ext1_count(reg, cls, prev)
        return out

    def bracket(self, x: GradedObject, y: GradedObject) -> Fraction:
        """{X, Y}: alternating product of shifted derived Hom counts."""
        self._check_graded(x)
        self._check_graded(y)
        out = Fraction(1)
        if self.t > 0:
            rng = range(1, self.t + 1)
        else:
            if x.is_zero() or y.is_zero():
                return out
            rng = range(1, max(x.support) - min(y.support) + 2)
        for i in rng:
            h = hom_dt_count(self.reg, x, y, shift=i)
            out = out * h if i % 2 == 0 else out / h
        return out

    def _a_prime_parts(self, g: GradedObject) -> tuple[int, int]:
        """(|Aut_{D_t}(g)|, e) with {g, g} = q^e, so that a'_g = |Aut_{D_t}(g)| v^e."""
        if self.t < 1:
            raise UnsupportedPeriod("a' is defined for odd positive t")
        memo = self.reg.memo(("a_prime", self.t))
        if g not in memo:
            memo[g] = (self.aut_dt(g), q_exponent(self.bracket(g, g), self.q))
        return memo[g]

    def a_prime(self, g: GradedObject) -> QSqrtScalar:
        """a'_g = |Aut_{D_t}(g)| * {g, g}^{1/2} (odd t)."""
        aut, e = self._a_prime_parts(g)
        return QSqrtScalar.v_power(self.q, e, aut)

    def a_prime_endo_literal(self, g: GradedObject) -> QSqrtScalar:
        """Variant normalization using |End| instead of |Aut| (kept for comparison)."""
        if self.t < 1:
            raise UnsupportedPeriod("a' is defined for odd positive t")
        end_count = hom_dt_count(self.reg, g, g, shift=0)
        return self.rational(end_count) * sqrt_of_fraction(self.q, self.bracket(g, g))

    # -- generator-word rewriting (t = 0) -------------------------------------

    def decompose_graded(self, g: GradedObject) -> Word:
        """A graded object as a strictly descending generator word."""
        self._check_graded(g)
        return tuple((cls, deg) for deg, cls in sorted(g.components, reverse=True))

    def normalize_generator_word(self, word: Word,
                                 budget: int = DEFAULT_REWRITE_BUDGET) -> HallVector:
        """Rewrite a product of shifted generators into the graded-object basis.

        Repeatedly applies, at the leftmost violation, the same-degree
        multiplication rule, the adjacent-degree straightening rule, or the
        far-degree commutation rule, until every word is strictly descending
        in degree; strictly descending words are direct sums.
        """
        if self.t != 0:
            raise UnsupportedPeriod("word rewriting is the t = 0 presentation")
        reg = self.reg
        word = tuple((c, d) for c, d in word if c.total_dim > 0)
        done: dict[GradedObject, QSqrtScalar] = {}
        pending: dict[Word, QSqrtScalar] = {word: self.one_scalar()}
        steps = 0
        while pending:
            w = next(iter(pending))
            coeff = pending.pop(w)
            if not coeff:
                continue
            spot = None
            for i in range(len(w) - 1):
                if w[i][1] <= w[i + 1][1]:
                    spot = i
                    break
            if spot is None:
                g = graded_object(0, reg.quiver.n, [(d, c) for c, d in w])
                acc = done.get(g, QSqrtScalar.zero(self.q)) + coeff
                done[g] = acc
                continue
            steps += 1
            if steps > budget:
                raise RewriteBudgetExceeded(f"rewriting exceeded {budget} steps")
            left_cls, n_deg = w[spot]
            right_cls, m_deg = w[spot + 1]
            head, tail = w[:spot], w[spot + 2:]
            if m_deg == n_deg:
                # Same degree: multiply inside the copy of the Hall algebra.
                for c_cls in reg.classes(dims_add(left_cls.dims, right_cls.dims)):
                    g_c = hall_number(reg, left_cls, right_cls, c_cls)
                    if g_c == 0:
                        continue
                    nw = head + ((c_cls, n_deg),) + tail
                    self._push(pending, nw, coeff * self.rational(g_c))
            elif m_deg == n_deg + 1:
                # Adjacent degrees: straighten through 4-term exact sequences.
                b_cls, a_cls = left_cls, right_cls
                for dm in subdimvecs(b_cls.dims):
                    dn = dims_sub(dims_add(a_cls.dims, dm), b_cls.dims)
                    if any(x < 0 for x in dn):
                        continue
                    for m_cls in reg.classes(dm):
                        for n_cls in reg.classes(dn):
                            gamma = gamma_coeff(reg, a_cls, b_cls, m_cls, n_cls)
                            if gamma == 0:
                                continue
                            factor = gamma / euler_mult(reg, n_cls.dims, m_cls.dims)
                            nw = head
                            if n_cls.total_dim:
                                nw = nw + ((n_cls, m_deg),)
                            if m_cls.total_dim:
                                nw = nw + ((m_cls, n_deg),)
                            nw = nw + tail
                            self._push(pending, nw, coeff * self.rational(factor))
            else:
                # Far degrees: commute up to an Euler-form power.
                e = euler_add(reg.quiver, right_cls.dims, left_cls.dims)
                sign = 1 if (m_deg - n_deg) % 2 == 0 else -1
                factor = self.rational(euler_mult(reg, right_cls.dims, left_cls.dims) ** sign)
                nw = head + ((right_cls, m_deg), (left_cls, n_deg)) + tail
                self._push(pending, nw, coeff * factor)
        return HallVector(self.q, done)

    @staticmethod
    def _push(pending: dict, w: Word, c: QSqrtScalar) -> None:
        if w in pending:
            pending[w] = pending[w] + c
        else:
            pending[w] = c

    # -- t = 1 cone-counting oracle -------------------------------------------

    def dht_constant_oracle_t1(self, a: GradedObject, b: GradedObject,
                               x: GradedObject) -> QSqrtScalar:
        """Structure constant on [x] in [a][b] at t = 1 by counting cone classes."""
        if self.t != 1:
            raise UnsupportedPeriod("the cone-counting oracle is defined at t = 1")
        count = dt_hom_with_cone_count(self.reg, a, b, x)
        if count == 0:
            return QSqrtScalar.zero(self.q)
        hom_total = hom_dt_count(self.reg, a, b, shift=0)
        return (self.rational(count)
                * sqrt_of_fraction(self.q, Fraction(1, hom_total))
                * self.a_prime(x) / (self.a_prime(a) * self.a_prime(b)))

    def rp_product_t1(self, a: GradedObject, b: GradedObject) -> HallVector:
        """The whole product [a][b] at t = 1 through the cone-counting oracle."""
        if self.t != 1:
            raise UnsupportedPeriod("the cone-counting oracle is defined at t = 1")
        reg = self.reg
        target = dims_add(a.dims_at(0), b.dims_at(0))
        out: dict[GradedObject, QSqrtScalar] = {}
        for d in subdimvecs(target):
            if any((x - y) % 2 for x, y in zip(target, d)):
                continue
            for cls in reg.classes(d):
                g = graded_object(1, reg.quiver.n, [(0, cls)])
                c = self.dht_constant_oracle_t1(a, b, g)
                if c:
                    out[g] = c
        return HallVector(self.q, out)

    # -- checks ----------------------------------------------------------------

    def assoc_check(self, a: GradedObject, b: GradedObject, c: GradedObject) -> CheckResult:
        ab = self.multiply_graded(a, b)
        bc = self.multiply_graded(b, c)
        lhs = self.multiply(ab, HallVector.basis(self.q, c))
        rhs = self.multiply(HallVector.basis(self.q, a), bc)
        return _compare("associativity", lhs, rhs)

    def theorem_crosscheck(self, a: GradedObject, b: GradedObject) -> CheckResult:
        """Compare the product against the independent route (t = 0: rewriting;
        t = 1: cone counting)."""
        if self.t == 0:
            lhs = self.multiply_graded(a, b)
            word = self.decompose_graded(a) + self.decompose_graded(b)
            rhs = self.normalize_generator_word(word)
            return _compare("product vs word rewriting", lhs, rhs)
        if self.t == 1:
            lhs = self.multiply_graded(a, b)
            rhs = self.rp_product_t1(a, b)
            return _compare("product vs cone counting", lhs, rhs)
        raise UnsupportedPeriod("crosscheck routes exist for t = 0 and t = 1")


RELATION_FAMILIES = ("dh0_43", "dh0_44", "dh0_45", "dh1_re1", "dh3_r1", "dh3_r2", "dht_r3")


def relation_check(reg: ClassRegistry, family: str, a_cls: IsoClassId, b_cls: IsoClassId,
                   degree: int = 0, offset: int = 2, t: int | None = None) -> CheckResult:
    """Check one instance of a presentation relation family.

    degree is the base shift (n or i in the relation); offset is the degree
    gap used by the far-commutation families (dh0_45: m - n >= 2; dht_r3:
    j - i in 2..t-2 -- the gap t-1 is cyclically adjacent, not far).
    """
    if family not in RELATION_FAMILIES:
        raise IncompatibleObjects(f"unknown relation family {family!r}; "
                                  f"choose from {', '.join(RELATION_FAMILIES)}")
    if family.startswith("dh0"):
        dh = DerivedHall(reg, 0)
    elif family == "dh1_re1":
        dh = DerivedHall(reg, 1)
    elif family.startswith("dh3"):
        dh = DerivedHall(reg, 3)
    else:
        dh = DerivedHall(reg, 5 if t is None else t)
    n = degree
    q = dh.q

    if family == "dh0_43":
        lhs = dh.multiply_graded(dh.stalk(a_cls, n), dh.stalk(b_cls, n))
        rhs = HallVector(q)
        for c_cls in reg.classes(dims_add(a_cls.dims, b_cls.dims)):
            g = hall_number(reg, a_cls, b_cls, c_cls)
            if g:
                rhs = rhs.add(dh.stalk_vector(c_cls, n).scale(g))
        return _compare(f"dh0_43[deg {n}]", lhs, rhs)

    if family == "dh0_44":
        # Left: Z_B at degree n times Z_A at degree n+1.
        lhs = dh.multiply_graded(dh.stalk(b_cls, n), dh.stalk(a_cls, n + 1))
        rhs = HallVector(q)
        for dm in subdimvecs(b_cls.dims):
            dn = dims_sub(dims_add(a_cls.dims, dm), b_cls.dims)
            if any(x < 0 for x in dn):
                continue
            for m_cls in reg.classes(dm):
                for n_cls in reg.classes(dn):
                    gamma = gamma_coeff(reg, a_cls, b_cls, m_cls, n_cls)
                    if gamma == 0:
                        continue
                    factor = gamma / euler_mult(reg, n_cls.dims, m_cls.dims)
                    prod = dh.multiply(dh.stalk_vector(n_cls, n + 1),
                                       dh.stalk_vector(m_cls, n))
                    rhs = rhs.add(prod.scale(factor))
        return _compare(f"dh0_44[deg {n}]", lhs, rhs)

    if family == "dh0_45":
        m = n + offset
        if offset < 2:
            raise IncompatibleObjects("dh0_45 needs a degree gap of at least 2")
        lhs = dh.multiply_graded(dh.stalk(b_cls, n), dh.stalk(a_cls, m))
        sign = 1 if (m - n) % 2 == 0 else -1
        factor = euler_mult(reg, a_cls.dims, b_cls.dims) ** sign
        rhs = dh.multiply_graded(dh.stalk(a_cls, m), dh.stalk(b_cls, n)).scale(factor)
        return _compare(f"dh0_45[deg {n}, gap {offset}]", lhs, rhs)

    if family == "dh1_re1":
        a_g, b_g = dh.stalk(a_cls), dh.stalk(b_cls)
        lhs = dh.multiply_graded(a_g, b_g)
        rhs = dh.rp_product_t1(a_g, b_g)
        result = _compare("dh1_re1", lhs, rhs)
        # Surface how the literal total-endomorphism normalization would fare.
        alt = HallVector(q)
        denom = dh.a_prime_endo_literal(a_g) * dh.a_prime_endo_literal(b_g)
        for g, _c in rhs.items():
            count = dt_hom_with_cone_count(reg, a_g, b_g, g)
            hom_total = hom_dt_count(reg, a_g, b_g, shift=0)
            alt_c = (dh.rational(count) * sqrt_of_fraction(q, Fraction(1, hom_total))
                     * dh.a_prime_endo_literal(g) / denom)
            if alt_c:
                alt = alt.add(HallVector(q, {g: alt_c}))
        result.notes["endo_convention_matches"] = alt == lhs
        result.notes["endo_convention_note"] = (
            "normalizing by total endomorphism counts instead of automorphism "
            "counts reproduces the product: " + str(alt == lhs))
        return result

    if family == "dh3_r1":
        lhs = dh.multiply_graded(dh.stalk(a_cls, n), dh.stalk(b_cls, n))
        rhs = HallVector(q)
        e_ba = euler_add(reg.quiver, b_cls.dims, a_cls.dims)
        for c_cls in reg.classes(dims_add(a_cls.dims, b_cls.dims)):
            g = hall_number(reg, a_cls, b_cls, c_cls)
            if g:
                rhs = rhs.add(dh.stalk_vector(c_cls, n).scale(
                    dh.rational(g) * dh.v_power(-e_ba)))
        return _compare(f"dh3_r1[deg {n}]", lhs, rhs)

    if family == "dh3_r2":
        lhs = dh.multiply_graded(dh.stalk(b_cls, n), dh.stalk(a_cls, n + 1))
        rhs = HallVector(q)
        quiver = reg.quiver
        e_aa = euler_add(quiver, a_cls.dims, a_cls.dims)
        e_bb = euler_add(quiver, b_cls.dims, b_cls.dims)
        e_ba = euler_add(quiver, b_cls.dims, a_cls.dims)
        for dm in subdimvecs(b_cls.dims):
            dn = dims_sub(dims_add(a_cls.dims, dm), b_cls.dims)
            if any(x < 0 for x in dn):
                continue
            for m_cls in reg.classes(dm):
                e_mm = euler_add(quiver, dm, dm)
                for n_cls in reg.classes(dn):
                    gamma = gamma_coeff(reg, a_cls, b_cls, m_cls, n_cls)
                    if gamma == 0:
                        continue
                    e_nn = euler_add(quiver, dn, dn)
                    e_nm = euler_add(quiver, dn, dm)
                    scalar = (dh.rational(gamma)
                              * dh.v_power(e_aa + e_bb - e_mm - e_nn)
                              * dh.v_power(-(e_ba + e_nm)))
                    prod = dh.multiply(dh.stalk_vector(n_cls, n + 1),
                                       dh.stalk_vector(m_cls, n))
                    rhs = rhs.add(prod.scale(scalar))
        return _compare(f"dh3_r2[deg {n}]", lhs, rhs)

    # dht_r3: far commutation at odd t >= 5.
    if dh.t < 5:
        raise UnsupportedPeriod("the far-commutation family lives at odd t >= 5")
    j = n + offset
    if not 2 <= offset <= dh.t - 2:
        # Gap t-1 wraps around to a cyclically adjacent pair, where extension
        # terms appear on one side only and no scalar commutation can hold.
        raise IncompatibleObjects(f"degree gap must lie in 2..{dh.t - 2}")
    lhs = dh.multiply_graded(dh.stalk(a_cls, n), dh.stalk(b_cls, j))
    e_sym = (euler_add(reg.quiver, a_cls.dims, b_cls.dims)
             + euler_add(reg.quiver, b_cls.dims, a_cls.dims))
    sign = 1 if offset % 2 == 0 else -1
    factor = dh.v_power(sign * e_sym)
    rhs = dh.multiply_graded(dh.stalk(b_cls, j), dh.stalk(a_cls, n)).scale(factor)
    return _compare(f"dht_r3[t {dh.t}, deg {n}, gap {offset}]", lhs, rhs)

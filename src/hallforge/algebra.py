"""Derived Hall algebras of t-periodic complexes.

Basis elements are GradedObjects; coefficients live in Q(sqrt q).  Products
are computed by the local-to-global multiplication formulas (t = 0 and odd t),
and independently by generator-word rewriting (t = 0) and by cone-class
counting (t = 1), which the crosscheck routines compare term by term.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import (GradedObject, check_period, class_at_or_zero, cone_counts,
                        dt_hom_with_cone_count, format_graded, graded_object,
                        hom_dt_count, stalk)
from .errors import IncompatibleObjects, RewriteBudgetExceeded, UnsupportedPeriod
from .hall import ext1_count, ext1_dim, euler_table, gamma_terms, hall_number
from .quivers import dims_add, dims_sub, subdimvecs
from .reps import ClassRegistry, IsoClassId
from .scalars import QSqrtScalar, q_exponent

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
            s = out[g] + c if g in out else c
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
        c = self.terms.get(g)
        return c if c is not None else QSqrtScalar.zero(self.q)

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


def _compare(label: str, lhs: HallVector, rhs: HallVector) -> CheckResult:
    bad = tuple(sorted((g for g in lhs.terms.keys() | rhs.terms.keys()
                        if lhs.coeff(g) != rhs.coeff(g)), key=_graded_sort_key))
    return CheckResult(label, not bad, lhs, rhs, bad)


class DerivedHall:
    """The derived Hall algebra DH_t over one registry."""

    def __init__(self, reg: ClassRegistry, t: int):
        check_period(t)
        self.reg = reg
        self.t = t
        self.q = reg.p
        self._n = reg.quiver.n
        self._mul = reg.memo(("dha_mul", t))
        self._transfers = reg.memo("lt_transfer")
        self._steps = reg.memo("lt_step")
        self._a_primes = reg.memo(("a_prime", t))

    # -- scalar helpers -----------------------------------------------------

    def one_scalar(self) -> QSqrtScalar:
        return QSqrtScalar.one(self.q)

    def rational(self, x) -> QSqrtScalar:
        return QSqrtScalar.rational(self.q, x)

    def v_power(self, e: int) -> QSqrtScalar:
        return QSqrtScalar.v_power(self.q, e)

    # -- basis helpers ------------------------------------------------------

    def unit_graded(self) -> GradedObject:
        return graded_object(self.t, self._n, [])

    def one(self) -> HallVector:
        return HallVector.basis(self.q, self.unit_graded())

    def stalk(self, cls: IsoClassId, deg: int = 0) -> GradedObject:
        return stalk(self.reg, self.t, cls, deg)

    def stalk_vector(self, cls: IsoClassId, deg: int = 0) -> HallVector:
        return HallVector.basis(self.q, self.stalk(cls, deg))

    def _check_graded(self, g: GradedObject) -> None:
        if g.t != self.t or g.n_vertices != self._n:
            raise IncompatibleObjects("graded object does not belong to this algebra")

    # -- multiplication -----------------------------------------------------

    def multiply_graded(self, a: GradedObject, b: GradedObject) -> HallVector:
        self._check_graded(a)
        self._check_graded(b)
        out = self._mul.get((a, b))
        if out is not None:
            return out
        if a.is_zero():
            out = HallVector.basis(self.q, b)
        elif b.is_zero():
            out = HallVector.basis(self.q, a)
        elif self.t == 0:
            out = self.lt_mul_t0(a, b)
        else:
            out = self.lt_mul_odd(a, b)
        self._mul[a, b] = out
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
        caller, which memoizes the steps per registry, so products share them.
        """
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
        return out

    def _transfer(self, a1: IsoClassId, a2: IsoClassId, cap: tuple, cap_next: tuple,
                  a_prev: tuple | None) -> tuple:
        """One degree's transfer: (floor exponent, q^(exponent - floor) by (dims s_i,
        dims s_next), s_i classes, s_next classes, rows by s_i and, where the degree
        closes the chain, by (s_i, s_first)); memoized per registry by its arguments,
        rows filled lazily."""
        key = (a1, a2, cap, cap_next, a_prev)
        tr = self._transfers.get(key)
        if tr is None:
            dims, dims_next = tuple(subdimvecs(cap)), tuple(subdimvecs(cap_next))
            classes, nexts = (tuple(c for d in ds for c in self.reg.classes(d))
                              for ds in (dims, dims_next))
            euler = euler_table(self.reg)
            if a_prev is None:  # odd t: 1 / (<a_i, S^i> <S^{i+1}, N^i>)
                exps = {(d, dn): -(euler[a1.dims, d] + euler[dn, dims_sub(a2.dims, d)])
                        for d in dims for dn in dims_next}
            else:  # t = 0: 1 / <N^i, M^{i-1}>, N^i = b_i - I^{i-1}, M^{i-1} = a_{i-1} - I^{i-1}
                exps = {(d, dn): -euler[dims_sub(a2.dims, d), dims_sub(a_prev, d)]
                        for d in dims for dn in dims_next}
            floor = min(exps.values())
            tr = self._transfers[key] = (floor, {k: self.q ** (e - floor) for k, e in exps.items()},
                                         classes, nexts, {})
        return tr

    def _lt_paths(self, a: GradedObject, b: GradedObject,
                  degrees: range) -> tuple[dict[tuple, int], int]:
        """Sum of products of degree steps over chains s_first, ..., s_last, s_first.

        s_i runs over the classes of dims <= cap_i = min(b_i, a_{i-1}).  For
        t = 0 the degrees span the support and s is zero at both ends; for
        odd t they run over Z/t.  A degree where a and b are both zero forces
        s_i = s_{i+1} = 0 through a unit step of exponent 0, so it is left
        out.  Each other degree reads its _transfer, keyed by (a_i, b_i,
        cap_i, cap_{i+1}) and, at t = 0, dims a_{i-1}: a floor exponent and
        rows (s_next, X, q^(exponent - floor) * step weight), X None when
        zero, built once per s_i that the DP reaches.  At the closing degree
        only the entries with s_next = s_first are built, so no step runs
        there that the chain cannot close through.  The DP starts at the
        degree with the fewest s candidates, fixes s_first there, carries
        (s_i, X components so far) and closes the chain at s_first.  Returns
        {X components: W} and E, the sum of the floors: the sum is W * q^E
        over the Aut of the X components, every W an integer, and the X
        components are sorted by degree, as GradedObject keeps them.
        """
        t, zero = self.t, self.reg.zero_class()
        a_at, b_at = dict(a.components), dict(b.components)
        # Classes at the degrees start - 1 .. stop, and caps[k] = cap at degree start + k.
        around = range(degrees.start - 1, degrees.stop + 1)
        a_cls = [a_at.get(i % t if t else i, zero) for i in around]
        b_cls = [b_at.get(i % t if t else i, zero) for i in around]
        caps = [tuple(map(min, c_b.dims, c_a.dims)) if c_a.total_dim and c_b.total_dim
                else zero.dims for c_a, c_b in zip(a_cls, b_cls[1:])]
        chain = []
        for k, i in enumerate(degrees):
            a1, a2 = a_cls[k + 1], b_cls[k + 1]
            if a1.total_dim or a2.total_dim:
                chain.append((i, a1, a2, self._transfer(a1, a2, caps[k], caps[k + 1],
                                                        None if t else a_cls[k].dims)))
        if not chain:  # a and b both zero: the empty chain's product is 1
            return {(): 1}, 0
        start = min(range(len(chain)), key=lambda k: len(chain[k][3][2]))
        chain = chain[start:] + chain[:start]
        last = len(chain) - 1
        total: dict[tuple, int] = {}
        for s_first in chain[0][3][2]:
            frontier: dict[tuple, int] = {(s_first, ()): 1}
            for k, (i, a1, a2, (_floor, q_pow, _classes, nexts, rows)) in enumerate(chain):
                new_frontier: dict[tuple, int] = {}
                for (s_i, xs), w in frontier.items():
                    key = s_i if k < last else (s_i, s_first)
                    row = rows.get(key)
                    if row is None:
                        row = rows[key] = self._transfer_row(
                            a1, a2, q_pow, s_i, nexts if k < last else (s_first,))
                    for s_next, x_cls, num in row:
                        nkey = (s_next, xs + ((i, x_cls),) if x_cls is not None else xs)
                        new_frontier[nkey] = new_frontier.get(nkey, 0) + w * num
                frontier = new_frontier
            for (_s, xs), w in frontier.items():
                xs = tuple(sorted(xs)) if start else xs
                total[xs] = total.get(xs, 0) + w
        return total, sum(tr[0] for _i, _a1, _a2, tr in chain)

    def _transfer_row(self, a1: IsoClassId, a2: IsoClassId, q_pow: dict, s_i: IsoClassId,
                      nexts: tuple) -> tuple:
        """(s_next, X or None if zero, q^(exponent - floor) * weight) over the nonzero
        step weights from s_i to each s_next; the steps are memoized per registry."""
        steps = self._steps
        out = []
        for s_next in nexts:
            step = steps.get((a1, a2, s_i, s_next))
            if step is None:
                step = steps[a1, a2, s_i, s_next] = self._lt_step(a1, a2, s_i, s_next)
            scale = q_pow[s_i.dims, s_next.dims]
            out.extend((s_next, x_cls if x_cls.total_dim else None, scale * num)
                       for x_cls, num in step.items())
        return tuple(out)

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
        euler = euler_table(reg)
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
                e = euler[b.dims_at(i + k), da1]
                pref_exp += e if k % 2 == 0 else -e

        h, e = self._lt_paths(a, b, range(lo, hi + 1))
        return HallVector(self.q, {
            GradedObject(0, self._n, xs):
                QSqrtScalar.v_power(self.q, 2 * (e + pref_exp), w, aut_ab)
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
        euler = euler_table(reg)
        # sum_i <a_i, b_i> + sum_{k=1}^{t-1} (-1)^(k+1) <a_{i+k}, b_i>, over nonzero pairs.
        sqrt_exp = 0
        for i_a, c_a in a.components:
            for i_b, c_b in b.components:
                k = (i_a - i_b) % t
                e = euler[c_a.dims, c_b.dims]
                sqrt_exp += e if k == 0 or k % 2 == 1 else -e

        h, e = self._lt_paths(a, b, range(t))
        aut_a, v_a = self._a_prime_parts(a)
        aut_b, v_b = self._a_prime_parts(b)
        out: dict[GradedObject, QSqrtScalar] = {}
        for xs, w in h.items():
            g = GradedObject(t, self._n, xs)
            aut_g, v_g = self._a_prime_parts(g)
            aut_x = 1
            for _i, x_cls in xs:
                aut_x *= reg.aut_count(x_cls)
            out[g] = QSqrtScalar.v_power(self.q, sqrt_exp + 2 * e + v_g - v_a - v_b,
                                         w * aut_g, aut_x * aut_a * aut_b)
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
        """{X, Y} = prod_i |Hom_{D_t}(X[i], Y)|^{(-1)^i} over the shifts i = 1..t
        (t = 0: i >= 1 up to the supports' reach), as one q-exponent over pairs of
        components: a pair at degrees d_x, d_y adds dim Hom at i = d_x - d_y and
        dim Ext^1 at i = d_x - d_y - 1 (mod t), as hom_dt_count counts them."""
        self._check_graded(x)
        self._check_graded(y)
        reg, t = self.reg, self.t
        e = 0
        for d_x, c_x in x.components:
            for d_y, c_y in y.components:
                for i, ext in ((d_x - d_y, False), (d_x - d_y - 1, True)):
                    if t:
                        i = (i - 1) % t + 1
                    if i >= 1:
                        dim = ext1_dim(reg, c_x, c_y) if ext else reg.hom_dim_classes(c_x, c_y)
                        e += dim if i % 2 == 0 else -dim
        return Fraction(self.q) ** e

    def _a_prime_parts(self, g: GradedObject) -> tuple[int, int]:
        """(|Aut_{D_t}(g)|, e) with {g, g} = q^e, so that a'_g = |Aut_{D_t}(g)| v^e."""
        if self.t < 1:
            raise UnsupportedPeriod("a' is defined for odd positive t")
        parts = self._a_primes.get(g)
        if parts is None:
            parts = self._a_primes[g] = (self.aut_dt(g), q_exponent(self.bracket(g, g), self.q))
        return parts

    def a_prime(self, g: GradedObject) -> QSqrtScalar:
        """a'_g = |Aut_{D_t}(g)| * {g, g}^{1/2} (odd t)."""
        aut, e = self._a_prime_parts(g)
        return QSqrtScalar.v_power(self.q, e, aut)

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
                done[g] = done[g] + coeff if g in done else coeff
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
                for m_cls, n_cls, gamma in gamma_terms(reg, right_cls, left_cls):
                    factor = self._straighten_factor(gamma, n_cls, m_cls)
                    nw = head
                    if n_cls.total_dim:
                        nw = nw + ((n_cls, m_deg),)
                    if m_cls.total_dim:
                        nw = nw + ((m_cls, n_deg),)
                    nw = nw + tail
                    self._push(pending, nw, coeff * factor)
            else:
                # Far degrees: commute up to an Euler-form power.
                factor = self._commute_factor(right_cls, left_cls, m_deg - n_deg)
                nw = head + ((right_cls, m_deg), (left_cls, n_deg)) + tail
                self._push(pending, nw, coeff * factor)
        return HallVector(self.q, done)

    def _straighten_factor(self, gamma: Fraction, n_cls: IsoClassId,
                           m_cls: IsoClassId) -> QSqrtScalar:
        """The adjacent-degree rule's scalar gamma / <n, m>, where the
        multiplicative Euler form <n, m> is q^{euler_add(n, m)}."""
        e = euler_table(self.reg)[n_cls.dims, m_cls.dims]
        return QSqrtScalar.v_power(self.q, -2 * e, gamma.numerator, gamma.denominator)

    def _commute_factor(self, right_cls: IsoClassId, left_cls: IsoClassId,
                        gap: int) -> QSqrtScalar:
        """<right, left>^{(-1)^gap}: the scalar of the far-degree rule."""
        e = euler_table(self.reg)[right_cls.dims, left_cls.dims]
        return QSqrtScalar.v_power(self.q, 2 * e if gap % 2 == 0 else -2 * e)

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
                * QSqrtScalar.rational(self.q, 1, hom_total).sqrt()
                * self.a_prime(x) / (self.a_prime(a) * self.a_prime(b)))

    def rp_product_t1(self, a: GradedObject, b: GradedObject) -> HallVector:
        """The whole product [a][b] at t = 1 through the cone-counting oracle:
        one term per cone that some morphism Z_a -> Z_b has."""
        if self.t != 1:
            raise UnsupportedPeriod("the cone-counting oracle is defined at t = 1")
        return HallVector(self.q, {x: self.dht_constant_oracle_t1(a, b, x)
                                   for x in cone_counts(self.reg, a, b)})

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
        for m_cls, n_cls, gamma in gamma_terms(reg, a_cls, b_cls):
            factor = dh._straighten_factor(gamma, n_cls, m_cls)
            prod = dh.multiply(dh.stalk_vector(n_cls, n + 1), dh.stalk_vector(m_cls, n))
            rhs = rhs.add(prod.scale(factor))
        return _compare(f"dh0_44[deg {n}]", lhs, rhs)

    if family == "dh0_45":
        m = n + offset
        if offset < 2:
            raise IncompatibleObjects("dh0_45 needs a degree gap of at least 2")
        lhs = dh.multiply_graded(dh.stalk(b_cls, n), dh.stalk(a_cls, m))
        factor = dh._commute_factor(a_cls, b_cls, m - n)
        rhs = dh.multiply_graded(dh.stalk(a_cls, m), dh.stalk(b_cls, n)).scale(factor)
        return _compare(f"dh0_45[deg {n}, gap {offset}]", lhs, rhs)

    if family == "dh1_re1":
        a_g, b_g = dh.stalk(a_cls), dh.stalk(b_cls)
        lhs = dh.multiply_graded(a_g, b_g)
        rhs = dh.rp_product_t1(a_g, b_g)
        return _compare("dh1_re1", lhs, rhs)

    if family == "dh3_r1":
        lhs = dh.multiply_graded(dh.stalk(a_cls, n), dh.stalk(b_cls, n))
        rhs = HallVector(q)
        e_ba = euler_table(reg)[b_cls.dims, a_cls.dims]
        for c_cls in reg.classes(dims_add(a_cls.dims, b_cls.dims)):
            g = hall_number(reg, a_cls, b_cls, c_cls)
            if g:
                rhs = rhs.add(dh.stalk_vector(c_cls, n).scale(
                    dh.rational(g) * dh.v_power(-e_ba)))
        return _compare(f"dh3_r1[deg {n}]", lhs, rhs)

    if family == "dh3_r2":
        lhs = dh.multiply_graded(dh.stalk(b_cls, n), dh.stalk(a_cls, n + 1))
        rhs = HallVector(q)
        euler = euler_table(reg)
        e_aa = euler[a_cls.dims, a_cls.dims]
        e_bb = euler[b_cls.dims, b_cls.dims]
        e_ba = euler[b_cls.dims, a_cls.dims]
        for m_cls, n_cls, gamma in gamma_terms(reg, a_cls, b_cls):
            dm, dn = m_cls.dims, n_cls.dims
            scalar = QSqrtScalar.v_power(
                q, e_aa + e_bb - euler[dm, dm] - euler[dn, dn] - e_ba - euler[dn, dm],
                gamma.numerator, gamma.denominator)
            prod = dh.multiply(dh.stalk_vector(n_cls, n + 1), dh.stalk_vector(m_cls, n))
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
    euler = euler_table(reg)
    e_sym = euler[a_cls.dims, b_cls.dims] + euler[b_cls.dims, a_cls.dims]
    sign = 1 if offset % 2 == 0 else -1
    factor = dh.v_power(sign * e_sym)
    rhs = dh.multiply_graded(dh.stalk(b_cls, j), dh.stalk(a_cls, n)).scale(factor)
    return _compare(f"dht_r3[t {dh.t}, deg {n}, gap {offset}]", lhs, rhs)

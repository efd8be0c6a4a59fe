"""Derived Hall algebras of t-periodic complexes.

Basis elements are GradedObjects; coefficients live in Q(sqrt q).  Products
are computed by the local-to-global multiplication formulas (t = 0 and odd t),
and independently by generator-word rewriting (t = 0) and by cone-class
counting (t = 1), which the crosscheck routines compare term by term.
"""
from __future__ import annotations

from collections import namedtuple

from .complexes import (GradedObject, _hom_dt_exponent, cone_counts, format_graded,
                        graded_object, stalk)
from .errors import IncompatibleObjects, RewriteBudgetExceeded, UnsupportedPeriod
from .hall import euler_table, gamma_terms, hall_number
from .quivers import check_period, dims_add, dims_sub, subdimvecs
from .reps import ClassRegistry, IsoClassId
from .scalars import QSqrtScalar

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
        self.terms = {g: c for g, c in terms.items() if c} if terms else {}

    @staticmethod
    def _nonzero(q: int, terms: dict[GradedObject, QSqrtScalar]) -> "HallVector":
        """The vector holding terms itself, whose coefficients are all nonzero."""
        out = object.__new__(HallVector)
        out.q, out.terms = q, terms
        return out

    @staticmethod
    def basis(q: int, g: GradedObject) -> "HallVector":
        return HallVector._nonzero(q, {g: QSqrtScalar.one(q)})

    def add(self, other: "HallVector") -> "HallVector":
        return _sum_scaled(self.q, ((None, self), (None, other)))

    def scale(self, c) -> "HallVector":
        if not isinstance(c, QSqrtScalar):
            c = QSqrtScalar.rational(self.q, c)
        if not c:
            return HallVector(self.q)
        return HallVector._nonzero(self.q, {g: x * c for g, x in self.terms.items()})

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


def _sum_scaled(q: int, pairs) -> HallVector:
    """The sum of c * v over (c, v) pairs, c a coefficient or None for 1 and v a
    HallVector; coefficients that sum to zero are dropped."""
    out: dict[GradedObject, QSqrtScalar] = {}
    for c, v in pairs:
        for g, x in v.terms.items():
            if c is not None:
                x = x * c
            out[g] = out[g] + x if g in out else x
    return HallVector(q, out)


class CheckResult(namedtuple("CheckResult", "label ok lhs rhs mismatches", defaults=((),))):
    """Outcome of an identity check: both sides plus the mismatching keys."""

    __slots__ = ()


def _compare(label: str, lhs: HallVector, rhs: HallVector) -> CheckResult:
    """Both sides and the keys whose coefficients differ, sorted; equal term
    dicts, the passing case, are told apart by one dict comparison."""
    if lhs.terms == rhs.terms:
        return CheckResult(label, True, lhs, rhs, ())
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
        self._terms = reg.memo(("dha_term", t))
        self._coeffs = reg.memo("dha_coeff")
        self._rules = reg.memo(("pair_rule", t))

    # -- basis helpers ------------------------------------------------------

    def unit_graded(self) -> GradedObject:
        return graded_object(self.t, self._n, [])

    def one(self) -> HallVector:
        return HallVector.basis(self.q, self.unit_graded())

    def stalk(self, cls: IsoClassId, deg: int = 0) -> GradedObject:
        return stalk(self.reg, self.t, cls, deg)

    def _check_graded(self, g: GradedObject) -> None:
        if g.t != self.t or g.n_vertices != self._n:
            raise IncompatibleObjects("graded object does not belong to this algebra")

    # -- multiplication -----------------------------------------------------

    def multiply_graded(self, a: GradedObject, b: GradedObject,
                        store: bool = True) -> HallVector:
        """The product [a][b], read from the per-pair memo and, unless store is
        false, kept there.  A product with a zero factor is the other factor's
        basis vector, built on each call and never kept, whatever store says."""
        # The memo holds only checked pairs, so a hit needs no check.
        out = self._mul.get((a, b))
        if out is not None:
            return out
        self._check_graded(a)
        self._check_graded(b)
        if a.is_zero() or b.is_zero():
            return HallVector.basis(self.q, b if a.is_zero() else a)
        if self.t == 0:
            out = self.lt_mul_t0(a, b)
        else:
            out = self.lt_mul_odd(a, b)
        if store:
            self._mul[a, b] = out
        return out

    def multiply(self, x: HallVector, y: HallVector) -> HallVector:
        return _sum_scaled(self.q, ((cx * cy, self.multiply_graded(gx, gy))
                                    for gx, cx in x.terms.items() for gy, cy in y.terms.items()))

    def product_of(self, factors: list[GradedObject]) -> HallVector:
        out = self.one()
        for g in factors:
            out = _sum_scaled(self.q, ((c, self.multiply_graded(h, g))
                                       for h, c in out.terms.items()))
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

    def _transfer(self, key: tuple) -> tuple:
        """Build one degree's transfer into the per-registry memo, keyed by
        (a_i, b_i, cap_i, cap_{i+1}, dims a_{i-1} at t = 0 or None at odd t):
        (floor exponent, s_i classes, s_next classes, rows by s_i and, where
        the degree closes the chain, by (s_i, s_first)), the rows filled lazily."""
        dims, dims_next = (tuple(subdimvecs(cap)) for cap in key[2:4])
        classes, nexts = (tuple(c for d in ds for c in self.reg.classes(d))
                          for ds in (dims, dims_next))
        floor = min(self._step_exponent(key, d, dn) for d in dims for dn in dims_next)
        return self._transfers.setdefault(key, (floor, classes, nexts, {}))

    def _step_exponent(self, key: tuple, d, d_next) -> int:
        """The q-exponent of transfer key's step from dims s_i = d to dims s_next = d_next:
        odd t, 1 / (<a_i, S^i> <S^{i+1}, N^i>); t = 0, 1 / <N^i, M^{i-1}>, N^i = b_i - I^{i-1},
        M^{i-1} = a_{i-1} - I^{i-1}."""
        a1, a2, _cap, _cap_next, a_prev = key
        euler, n_dims = euler_table(self.reg), dims_sub(a2.dims, d)
        if a_prev is None:
            return -(euler[a1.dims, d] + euler[d_next, n_dims])
        return -euler[n_dims, dims_sub(a_prev, d)]

    def _lt_paths(self, a: GradedObject, b: GradedObject,
                  degrees: range) -> tuple[dict[tuple, int], int]:
        """Sum of products of degree steps over chains s_first, ..., s_last, s_first.

        s_i runs over the classes of dims <= cap_i = min(b_i, a_{i-1}).  For
        t = 0 the degrees span the support and s is zero at both ends; for
        odd t they run over Z/t.  A degree where a and b are both zero forces
        s_i = s_{i+1} = 0 through a unit step of exponent 0, so it is left
        out.  Each other degree reads its _transfer: a floor exponent and
        rows (_transfer_row), built once per s_i that the DP reaches.  At the
        closing degree only the entries with s_next = s_first are built, so
        no step runs there that the chain cannot close through.  The DP
        starts at the degree with the fewest s candidates, fixes s_first
        there, carries (s_i, X components so far) and closes the chain at
        s_first.  Returns {X components: W} and E, the sum of the floors: the
        sum is W * q^E over the Aut of the X components, every W a positive
        integer, and the X components are sorted by degree, as GradedObject
        keeps them.
        """
        t, zero = self.t, self.reg.zero_class()
        start, n = degrees.start, len(degrees)
        # a_cls[k] is a at degree start + k - 1 and b_cls[k] is b at degree start + k,
        # k = 0..n; at odd t the degrees wrap round, at t = 0 both ends are zero.
        a_cls, b_cls = [zero] * (n + 1), [zero] * (n + 1)
        for d, c in a.components:
            a_cls[d - start + 1] = c
        for d, c in b.components:
            b_cls[d - start] = c
        if t:
            a_cls[0], b_cls[n] = a_cls[n], b_cls[0]
        zero_dims, transfers = zero.dims, self._transfers
        chain, cap, floors, first, fewest = [], None, 0, 0, 0
        for k, (a1, b_k) in enumerate(zip(a_cls, b_cls)):
            # cap at degree start + k; a1 is a at degree start + k - 1.
            cap_next = (tuple(map(min, b_k.dims, a1.dims)) if a1.total_dim and b_k.total_dim
                        else zero_dims)
            if k:  # the degree start + k - 1, from cap to cap_next
                a2 = b_cls[k - 1]
                if a1.total_dim or a2.total_dim:
                    key = (a1, a2, cap, cap_next, None if t else a_cls[k - 1].dims)
                    tr = transfers.get(key) or self._transfer(key)
                    floors += tr[0]
                    if not chain or len(tr[1]) < fewest:  # start at the fewest s candidates
                        first, fewest = len(chain), len(tr[1])
                    chain.append((start + k - 1, key, *tr))
            cap = cap_next
        if not chain:  # a and b both zero: the empty chain's product is 1
            return {(): 1}, 0
        if first:
            chain = chain[first:] + chain[:first]
        i_last, key_last, floor_last, _classes, _nexts, rows_last = chain[-1]
        opening = chain[:-1]
        total: dict[tuple, int] = {}
        for s_first in chain[0][3]:
            frontier: dict[tuple, int] = {(s_first, ()): 1}
            for i, key, floor, _classes, nexts, rows in opening:
                new_frontier: dict[tuple, int] = {}
                for (s_i, xs), w in frontier.items():
                    row = rows.get(s_i)
                    if row is None:
                        row = rows[s_i] = self._transfer_row(key, floor, s_i, nexts)
                    for s_next, x_cls, num in row:
                        nkey = (s_next, xs + ((i, x_cls),) if x_cls is not None else xs)
                        new_frontier[nkey] = new_frontier.get(nkey, 0) + w * num
                frontier = new_frontier
            # The closing degree, whose one s_next is s_first.
            for (s_i, xs), w in frontier.items():
                row = rows_last.get((s_i, s_first))
                if row is None:
                    row = rows_last[s_i, s_first] = self._transfer_row(
                        key_last, floor_last, s_i, (s_first,))
                for _s, x_cls, num in row:
                    key = xs + ((i_last, x_cls),) if x_cls is not None else xs
                    total[key] = total.get(key, 0) + w * num
        if first:  # the X components came in chain order; one order maps to one sorted tuple
            total = {tuple(sorted(xs)): w for xs, w in total.items()}
        return total, floors

    def _transfer_row(self, key: tuple, floor: int, s_i: IsoClassId, nexts: tuple) -> tuple:
        """(s_next, X or None if zero, q^(exponent - floor) * weight) over the nonzero
        step weights from s_i to each s_next of transfer key, the exponents read
        from the Euler table; the steps are memoized per registry."""
        a1, a2 = key[0], key[1]
        steps, q = self._steps, self.q
        out = []
        for s_next in nexts:
            step = steps.get((a1, a2, s_i, s_next))
            if step is None:
                step = steps[a1, a2, s_i, s_next] = self._lt_step(a1, a2, s_i, s_next)
            if step:
                scale = q ** (self._step_exponent(key, s_i.dims, s_next.dims) - floor)
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
        # Components are sorted by degree, so the first and last bound the support.
        ends = [cs[k][0] for cs in (a.components, b.components) if cs for k in (0, -1)]
        if not ends:
            return self.one()
        aut_count, euler = self.reg.aut_count, euler_table(self.reg)
        # Sum over component pairs a_i, b_j with j - i >= 2 of (-1)^(j - i) <b_j, a_i>.
        pref_exp, aut_ab = 0, 1
        for i, c_a in a.components:
            aut_ab *= aut_count(c_a)
            for j, c_b in b.components:
                if j - i >= 2:
                    e = euler[c_b.dims, c_a.dims]
                    pref_exp += e if (j - i) % 2 == 0 else -e
        for _j, c_b in b.components:
            aut_ab *= aut_count(c_b)

        h, e = self._lt_paths(a, b, range(min(ends), max(ends) + 1))
        return HallVector._nonzero(self.q, {
            GradedObject(0, self._n, xs):
                QSqrtScalar.v_power(self.q, 2 * (e + pref_exp), w, aut_ab)
            for xs, w in h.items()})

    def lt_mul_odd(self, a: GradedObject, b: GradedObject) -> HallVector:
        """Local-to-global product for odd-periodic complexes.

        The degree steps of lt_mul_t0 closed into a cycle over Z/t, each
        weighted by 1 / (<a_i, S^i> <S^{i+1}, N^i>) and 1 / a_{X^i}, then
        normalized by v^(sum of Euler forms) a'_X / (a'_a a'_b).  With a'_g =
        prod |Aut g_i| v^(e_g) (_a_prime_parts), the prod |Aut X^i| of a'_X
        cancels the steps' 1 / a_{X^i}, so a term is W v^(sum of Euler forms
        + 2E + e_X - e_a - e_b) over the components' |Aut| of a and of b.  X and
        the scalar come from the term and coefficient tables, one instance each.
        """
        t = self.t
        if t < 1:
            raise UnsupportedPeriod("this route needs odd positive t")
        euler = euler_table(self.reg)
        # sum_i <a_i, b_i> + sum_{k=1}^{t-1} (-1)^(k+1) <a_{i+k}, b_i>, over nonzero pairs.
        sqrt_exp = 0
        for i_a, c_a in a.components:
            for i_b, c_b in b.components:
                k = (i_a - i_b) % t
                e = euler[c_a.dims, c_b.dims]
                sqrt_exp += e if k == 0 or k % 2 == 1 else -e

        h, e = self._lt_paths(a, b, range(t))
        aut_a, e_a = self._a_prime_parts(a)
        aut_b, e_b = self._a_prime_parts(b)
        exp, den = sqrt_exp + 2 * e - e_a - e_b, aut_a * aut_b
        terms, coeffs = self._terms, self._coeffs
        out: dict[GradedObject, QSqrtScalar] = {}
        for xs, w in h.items():
            g, _aut, e_x = terms.get(xs) or self._term(xs)
            key = (exp + e_x, w, den)
            out[g] = coeffs.get(key) or coeffs.setdefault(key, QSqrtScalar.v_power(self.q, *key))
        return HallVector._nonzero(self.q, out)

    # -- normalization invariants --------------------------------------------

    def _a_prime_parts(self, g: GradedObject) -> tuple[int, int]:
        """(prod |Aut g_i|, e_g), read from the term table (_term)."""
        return (self._terms.get(g.components) or self._term(g.components))[1:]

    def _term(self, xs: tuple) -> tuple[GradedObject, int, int]:
        """Enter the components xs of a g in this t's term table: (the GradedObject g
        every product holding it shares, prod |Aut g_i|, e_g), with a'_g = |Aut_{D_t}(g)|
        {g, g}^{1/2} = prod |Aut g_i| v^(e_g); filled at odd t only, so a hit needs no check.

        A pair of components x, y at shift i = d_x - d_y in 1..t (mod t) adds
        (-1)^i (dim Hom - dim Ext^1) to the exponent of {g, g}, except at i = 1,
        where it adds -(dim Hom + dim Ext^1) and |Aut_{D_t}(g)|, through its factor
        q^(dim Ext^1(g_d, g_{d-1})) per degree d, adds 2 dim Ext^1.
        So e_g is the sum over ordered pairs of (-1)^i <x, y>, read from the Euler
        table alone: <x, y> = dim Hom - dim Ext^1 in a hereditary category."""
        t = self.t
        if t < 1:
            raise UnsupportedPeriod("a' is defined for odd positive t")
        aut_count, euler = self.reg.aut_count, euler_table(self.reg)
        aut, e = 1, 0
        for d_x, c_x in xs:
            aut *= aut_count(c_x)
            for d_y, c_y in xs:
                # (d_x - d_y - 1) % t is odd exactly when i = that + 1 is even.
                pair = euler[c_x.dims, c_y.dims]
                e += pair if (d_x - d_y - 1) % t % 2 else -pair
        return self._terms.setdefault(xs, (GradedObject(t, self._n, xs), aut, e))

    def a_prime(self, g: GradedObject) -> QSqrtScalar:
        """a'_g = |Aut_{D_t}(g)| * {g, g}^{1/2} (odd t)."""
        aut, e = self._a_prime_parts(g)
        return QSqrtScalar.v_power(self.q, e, aut)

    # -- generator-word rewriting (t = 0) -------------------------------------

    def decompose_graded(self, g: GradedObject) -> Word:
        """A graded object as a strictly descending generator word."""
        self._check_graded(g)
        return tuple((cls, deg) for deg, cls in reversed(g.components))

    def normalize_generator_word(self, word: Word) -> HallVector:
        """Rewrite a product of shifted generators into the graded-object basis.

        Repeatedly replaces the leftmost pair whose degrees do not descend by
        the terms of _pair_rule, until every word is strictly descending in
        degree; strictly descending words are direct sums.  Every rule
        coefficient is positive (a Hall number, a gamma or a power of v), so
        no pending sum cancels.  More than
        DEFAULT_REWRITE_BUDGET replacements raise RewriteBudgetExceeded.
        """
        if self.t != 0:
            raise UnsupportedPeriod("word rewriting is the t = 0 presentation")
        word = tuple((c, d) for c, d in word if c.total_dim > 0)
        done: dict[GradedObject, QSqrtScalar] = {}
        pending: dict[Word, QSqrtScalar] = {word: QSqrtScalar.one(self.q)}
        steps = 0
        while pending:
            w = next(iter(pending))
            coeff = pending.pop(w)
            spot = None
            for i in range(len(w) - 1):
                if w[i][1] <= w[i + 1][1]:
                    spot = i
                    break
            if spot is None:
                # Degrees strictly descend and every class is nonzero, so the
                # reversed word is the sorted component tuple.
                g = GradedObject(0, self._n, tuple((d, c) for c, d in reversed(w)))
                done[g] = done[g] + coeff if g in done else coeff
                continue
            steps += 1
            if steps > DEFAULT_REWRITE_BUDGET:
                raise RewriteBudgetExceeded(f"rewriting exceeded {DEFAULT_REWRITE_BUDGET} steps")
            head, tail = w[:spot], w[spot + 2:]
            for nw, c in self._pair_rule(*w[spot], *w[spot + 1]):
                key, x = head + nw + tail, coeff * c
                pending[key] = pending[key] + x if key in pending else x
        return HallVector(self.q, done)

    def _pair_rule(self, left: IsoClassId, n: int, right: IsoClassId,
                   m: int) -> tuple[tuple[Word, QSqrtScalar], ...]:
        """The product [left@n][right@m] of two stalk generators as (word, scalar)
        terms, by the degree gap m - n (mod t at odd t): 0, the Hall product;
        1, straightening through 4-term exact sequences; 2 or more, commutation
        up to an Euler-form power.  The t = 0 rules are those of Toen (2006) and
        Xiao-Xu (2008), the odd-t ones those of Xu-Chen (2013).  No caller asks
        for the gap t - 1, which has no rule.  Memoized per registry and t by
        (left, n, right, m), so every DerivedHall over one registry reads each
        rule once."""
        key = (left, n, right, m)
        rule = self._rules.get(key)
        if rule is None:
            rule = self._rules[key] = tuple(self._build_pair_rule(left, n, right, m))
        return rule

    def _build_pair_rule(self, left: IsoClassId, n: int, right: IsoClassId,
                         m: int) -> list[tuple[Word, QSqrtScalar]]:
        reg, t, q = self.reg, self.t, self.q
        euler = euler_table(reg)
        gap = (m - n) % t if t else m - n
        if gap == 0:
            e = -euler[right.dims, left.dims] if t else 0
            return [(((c, n),), QSqrtScalar.v_power(q, e, g))
                    for c in reg.classes(dims_add(left.dims, right.dims))
                    if (g := hall_number(reg, left, right, c))]
        if gap == 1:
            out = []
            for m_cls, n_cls, num, den in gamma_terms(reg, right, left):
                dm, dn = m_cls.dims, n_cls.dims
                if t:
                    e = (euler[right.dims, right.dims] + euler[left.dims, left.dims]
                         - euler[dm, dm] - euler[dn, dn] - euler[left.dims, right.dims]
                         - euler[dn, dm])
                else:
                    e = -2 * euler[dn, dm]
                word = tuple((c, d) for c, d in ((n_cls, m), (m_cls, n)) if c.total_dim)
                out.append((word, QSqrtScalar.v_power(q, e, num, den)))
            return out
        e = (euler[left.dims, right.dims] + euler[right.dims, left.dims] if t
             else 2 * euler[right.dims, left.dims])
        return [(((right, m), (left, n)), QSqrtScalar.v_power(q, e if gap % 2 == 0 else -e))]

    # -- t = 1 cone-counting oracle -------------------------------------------

    def rp_product_t1(self, a: GradedObject, b: GradedObject) -> HallVector:
        """The whole product [a][b] at t = 1 through the cone-counting oracle:
        one term per cone Z_x that some morphism Z_a -> Z_b has, the number n of
        such morphisms times a'_x / (|Hom(Z_a, Z_b)|^(1/2) a'_a a'_b), that is,
        with |Hom(Z_a, Z_b)| = q^h and a' read as in lt_mul_odd,
        n prod |Aut x_i| v^(e_x - e_a - e_b - h) / (prod |Aut a_i| prod |Aut b_i|)."""
        if self.t != 1:
            raise UnsupportedPeriod("the cone-counting oracle is defined at t = 1")
        counts = cone_counts(self.reg, a, b)
        aut_a, e_a = self._a_prime_parts(a)
        aut_b, e_b = self._a_prime_parts(b)
        exp = -e_a - e_b - _hom_dt_exponent(self.reg, a, b, 0)
        out = {}
        for x, n in counts.items():
            aut_x, e_x = self._a_prime_parts(x)
            out[x] = QSqrtScalar.v_power(self.q, exp + e_x, n * aut_x, aut_a * aut_b)
        return HallVector(self.q, out)

    # -- checks ----------------------------------------------------------------

    def assoc_check(self, a: GradedObject, b: GradedObject, c: GradedObject) -> CheckResult:
        """(a·b)·c against a·(b·c), each summed term by term over a·b and b·c."""
        ab = self.multiply_graded(a, b)
        bc = self.multiply_graded(b, c)
        lhs = _sum_scaled(self.q, ((x, self.multiply_graded(g, c)) for g, x in ab.terms.items()))
        rhs = _sum_scaled(self.q, ((x, self.multiply_graded(a, h)) for h, x in bc.terms.items()))
        return _compare("associativity", lhs, rhs)

    def theorem_crosscheck(self, a: GradedObject, b: GradedObject) -> CheckResult:
        """Compare the product against the independent route (t = 0: rewriting;
        t = 1: cone counting).  A stored product is reused, but the product
        computed here is not stored: a sweep compares each pair once, so its
        memory follows the classes, not the pairs swept."""
        if self.t == 0:
            lhs = self.multiply_graded(a, b, store=False)
            word = self.decompose_graded(a) + self.decompose_graded(b)
            rhs = self.normalize_generator_word(word)
            return _compare("product vs word rewriting", lhs, rhs)
        if self.t == 1:
            lhs = self.multiply_graded(a, b, store=False)
            rhs = self.rp_product_t1(a, b)
            return _compare("product vs cone counting", lhs, rhs)
        raise UnsupportedPeriod("crosscheck routes exist for t = 0 and t = 1")


RELATION_FAMILIES = ("dh0_43", "dh0_44", "dh0_45", "dh1_re1", "dh3_r1", "dh3_r2", "dht_r3")


# Each family but dh1_re1 as (t, or None for the caller's t, default 5; whether a
# is the left factor; the degree gap, or None for the offset).
_RELATION_RULES = {"dh0_43": (0, True, 0), "dh0_44": (0, False, 1), "dh0_45": (0, False, None),
                   "dh3_r1": (3, True, 0), "dh3_r2": (3, False, 1), "dht_r3": (None, True, None)}


def relation_check(reg: ClassRegistry, family: str, a_cls: IsoClassId, b_cls: IsoClassId,
                   degree: int = 0, offset: int = 2, t: int | None = None) -> CheckResult:
    """Check one instance of a presentation relation family.

    degree is the base shift (n or i in the relation); offset is the degree
    gap used by the far-commutation families (dh0_45: m - n >= 2; dht_r3:
    j - i in 2..t-2 -- the gap t-1 is cyclically adjacent, not far).  Each
    family but dh1_re1 compares the product of two stalks with the terms
    DerivedHall._pair_rule gives for it; dh1_re1 is the t = 1
    theorem_crosscheck of two stalks.
    """
    if family not in RELATION_FAMILIES:
        raise IncompatibleObjects(f"unknown relation family {family!r}; "
                                  f"choose from {', '.join(RELATION_FAMILIES)}")
    n = degree
    if family == "dh1_re1":
        dh = DerivedHall(reg, 1)
        return dh.theorem_crosscheck(dh.stalk(a_cls), dh.stalk(b_cls))
    period, a_left, gap = _RELATION_RULES[family]
    dh = DerivedHall(reg, period if period is not None else 5 if t is None else t)
    label = f"{family}[deg {n}]"
    if gap is None and period == 0:
        if offset < 2:
            raise IncompatibleObjects("dh0_45 needs a degree gap of at least 2")
        gap, label = offset, f"{family}[deg {n}, gap {offset}]"
    elif gap is None:
        if dh.t < 5:
            raise UnsupportedPeriod("the far-commutation family lives at odd t >= 5")
        if not 2 <= offset <= dh.t - 2:
            # Gap t-1 wraps around to a cyclically adjacent pair, where extension
            # terms appear on one side only and no scalar commutation can hold.
            raise IncompatibleObjects(f"degree gap must lie in 2..{dh.t - 2}")
        gap, label = offset, f"{family}[t {dh.t}, deg {n}, gap {offset}]"
    m = n + gap
    left, right = (a_cls, b_cls) if a_left else (b_cls, a_cls)
    lhs = dh.multiply_graded(dh.stalk(left, n), dh.stalk(right, m))
    rhs = _sum_scaled(dh.q, ((c, dh.product_of([dh.stalk(cls, d) for cls, d in word]))
                             for word, c in dh._pair_rule(left, n, right, m)))
    return _compare(label, lhs, rhs)

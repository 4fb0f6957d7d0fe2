"""Exact polynomial algebra for the non-existence argument for complex Ricci
eigenvalues.

Everything here is exact arithmetic over the five quantities J, a, b,
alpha, H attached to a Type I.b candidate solution: J is the
weighted trace quantity tau/6, (a, b) the real/imaginary parts of the complex
eigenvalue pair, alpha the remaining real eigenvalue and H = h^2/|grad h|^2.
The derivation nabla_h encodes how these quantities evolve along grad h.
A Groebner basis of the ideal generated by the derived polynomial system
certifies that b must vanish, so no such solution exists.

The pipeline runs over the integers, fraction-free (Geddes, Czapor and
Labahn, Algorithms for Computer Algebra, 1992, ch. 10): the generators,
the derivation table and nabla_h are integral, and only the exact halving
that gives P4 divides.  Buchberger keeps each basis element primitive
(content 1, positive leading coefficient), forms each S-polynomial as
(lc g / d) x^u f - (lc f / d) x^v g with d = gcd(lc f, lc g), and reduces
by multiplying what is left by lc / gcd instead of dividing by lc.  A
remainder is a rational multiple of the one rational arithmetic would
give, so it has the same leading monomial, and the same S-pairs are
reduced in the same order.  Fractions remain only where a result is
rational: the basis is made monic when it is returned, and normal_form
and division divide the accumulated integer scale out of their results.

Buchberger's algorithm uses the normal selection strategy (Gebauer and
Moeller, J. Symbolic Comput. 6, 1988): the pending S-pairs sit in a heap
keyed by the grlex key of their lcm, ties broken by the pair (i, j), so
each pair is keyed once rather than every pending pair being rescanned at
every step.  Division keeps a max-heap of the monomials still to reduce,
with lazy deletion of terms that cancel, and takes the basis leading terms
from its caller when the caller already has them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm

from .errors import GeneratorMismatch, ResourceLimit

VARS = ("J", "a", "b", "alpha", "H")
NVARS = 5
_ZERO = (0, 0, 0, 0, 0)


def grlex_key(mono):
    # lex tie-break uses the fixed variable order J < a < b < alpha < H,
    # so exponents are compared from H (largest) down to J
    e0, e1, e2, e3, e4 = mono
    return (e0 + e1 + e2 + e3 + e4, (e4, e3, e2, e1, e0))


class Poly:
    """Sparse polynomial: exponent 5-tuple -> coefficient, no zero
    coefficients.

    Coefficients are ints or Fractions.  Sums, products and derivatives of
    integer polynomials stay integer, ``/`` gives an int wherever the
    quotient is whole, and ``monic`` gives Fractions."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @staticmethod
    def zero():
        return Poly()

    @staticmethod
    def constant(c):
        if not isinstance(c, int):
            c = Fraction(c)
        return Poly({_ZERO: c} if c else {})

    @staticmethod
    def variable(name):
        e = [0] * NVARS
        e[VARS.index(name)] = 1
        return Poly({tuple(e): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        p = Poly()
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly()
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.constant(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly()
            p = Poly()
            p.terms = {m: c * other for m, c in self.terms.items()}
            return p
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2],
                     m1[3] + m2[3], m1[4] + m2[4])
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        p = Poly()
        p.terms = out
        return p

    __rmul__ = __mul__

    def __truediv__(self, k):
        k = Fraction(k)
        p = Poly()
        p.terms = {m: _whole(c / k) for m, c in self.terms.items()}
        return p

    def diff(self, var_index):
        out = {}
        for m, c in self.terms.items():
            e = m[var_index]
            if e:
                mm = list(m)
                mm[var_index] = e - 1
                out[tuple(mm)] = c * e
        p = Poly()
        p.terms = out
        return p

    def leading(self):
        m = max(self.terms, key=grlex_key)
        return m, self.terms[m]

    def monic(self):
        """This polynomial over its leading coefficient, in Fractions."""
        if not self.terms:
            return self
        inv = 1 / Fraction(self.leading()[1])
        p = Poly()
        p.terms = {m: c * inv for m, c in self.terms.items()}
        return p

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[m]
            body = " ".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(VARS, m) if e
            )
            coeff = str(c) if (abs(c) != 1 or not body) else ("-" if c < 0 else "")
            sep = " " if coeff not in ("", "-") and body else ""
            bits.append(f"{coeff}{sep}{body}" if body else coeff)
        s = " + ".join(bits).replace("+ -", "- ")
        return s

    __repr__ = __str__


def _whole(x):
    """The Fraction x as an int when its denominator is 1."""
    return x.numerator if x.denominator == 1 else x


J, a, b, alpha, H = (Poly.variable(v) for v in VARS)

_TERM_RE = re.compile(r"([+-]?)\s*(\d+)?\s*((?:alpha|[JabH])(?:\^\d+)?"
                      r"(?:\s+(?:alpha|[JabH])(?:\^\d+)?)*)?")


def parse_poly(text: str) -> Poly:
    """Parse a human-readable sum of monomials like '-8 J^2 a H + 2 a alpha'."""
    out = Poly()
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad polynomial near {text[pos:pos+20]!r}")
        sign, num, factors = m.groups()
        coeff = int(num) if num else 1
        if sign == "-":
            coeff = -coeff
        expo = [0] * NVARS
        if factors:
            for f in factors.split():
                name, _, p = f.partition("^")
                expo[VARS.index(name)] += int(p) if p else 1
        out = out + Poly({tuple(expo): coeff})
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return out


# evolution of the five quantities along grad h, divided by h
_LAMBDA = 6 * J - 2 * a - alpha
_DERIVS = {
    0: Poly.zero(),                          # J
    1: b * b + (_LAMBDA - a) * (a - 2 * J),  # a
    2: b * (_LAMBDA + 2 * J - 2 * a),        # b
    3: (_LAMBDA - alpha) * (alpha - 2 * J),  # alpha
    4: 2 * (1 - H * (_LAMBDA - 2 * J)),      # H
}


def nabla_h(q: Poly) -> Poly:
    """The derivation Q -> (1/h) grad-h derivative of Q."""
    out = Poly.zero()
    for i in range(NVARS):
        d = q.diff(i)
        if d:
            out = out + d * _DERIVS[i]
    return out


P1_EXPECTED = parse_poly(
    "-a b^2 H -8 J^2 a H -4 J a H alpha +6 J a^2 H +2 J a +a H alpha^2 -a^3 H"
    " +2 a alpha -2 a^2 -2 J b^2 H +2 b^2 H alpha +2 b^2 +8 J^2 H alpha"
    " -2 J H alpha^2 -2 J alpha")
P2_EXPECTED = parse_poly(
    "-8 J a H +2 a H alpha +a^2 H +2 a +b^2 H +12 J^2 H -4 J H alpha -3 J +alpha")
P3_EXPECTED = parse_poly(
    "8 J a b^2 H -11 a b^2 H alpha +4 a^2 b^2 H -22 a b^2 -96 J^3 a H"
    " -64 J^2 a H alpha +108 J^2 a^2 H +24 J^2 a +6 J a^2 H alpha"
    " +28 J a H alpha^2 -40 J a^3 H +30 J a alpha -34 J a^2 +a^3 H alpha"
    " -3 a^2 H alpha^2 -3 a H alpha^3 +5 a^4 H -6 a^2 alpha -4 a alpha^2"
    " +10 a^3 -36 J^2 b^2 H +30 J b^2 H alpha +30 J b^2 -3 b^2 H alpha^2"
    " -b^4 H +2 b^2 alpha +96 J^3 H alpha -44 J^2 H alpha^2 -24 J^2 alpha"
    " +6 J H alpha^3 +4 J alpha^2")
P4_EXPECTED = parse_poly(
    "-a b^2 H -24 J^2 a H +8 J a H alpha +8 J a^2 H +6 J a -a H alpha^2"
    " -a^2 H alpha -a^3 H -2 a^2 +b^2 H alpha +2 b^2 +24 J^3 H -12 J^2 H alpha"
    " -6 J^2 +2 J H alpha^2 +3 J alpha -alpha^2")
P5_EXPECTED = parse_poly(
    "676 J^2 a b^2 H -514 J a b^2 H alpha -92 J a^2 b^2 H -900 J a b^2"
    " +94 a^2 b^2 H alpha +51 a b^2 H alpha^2 -20 a^3 b^2 H +20 a b^4 H"
    " +12 a b^2 alpha +280 a^2 b^2 -1824 J^4 a H -1536 J^3 a H alpha"
    " +2744 J^3 a^2 H +456 J^3 a +240 J^2 a^2 H alpha +1012 J^2 a H alpha^2"
    " -1564 J^2 a^3 H +692 J^2 a alpha -840 J^2 a^2 +70 J a^3 H alpha"
    " -234 J a^2 H alpha^2 -210 J a H alpha^3 +404 J a^4 H -246 J a^2 alpha"
    " -202 J a alpha^2 +460 J a^3 -17 a^4 H alpha +15 a^3 H alpha^2"
    " +27 a^2 H alpha^3 +15 a H alpha^4 -40 a^5 H +20 a^3 alpha"
    " +46 a^2 alpha^2 +14 a alpha^3 -80 a^4 -840 J^3 b^2 H"
    " +696 J^2 b^2 H alpha +672 J^2 b^2 -138 J b^2 H alpha^2 -16 J b^4 H"
    " +38 J b^2 alpha +9 b^2 H alpha^3 -9 b^4 H alpha -18 b^2 alpha^2 -24 b^4"
    " +1824 J^4 H alpha -1208 J^3 H alpha^2 -456 J^3 alpha +312 J^2 H alpha^3"
    " +148 J^2 alpha^2 -30 J H alpha^4 -12 J alpha^3")
P6_EXPECTED = parse_poly(
    "-7 a b^2 H alpha +4 a^2 b^2 H -22 a b^2 -336 J^3 a H +160 J^2 a H alpha"
    " +184 J^2 a^2 H +84 J^2 a -36 J a H alpha^2 -48 J a^2 H alpha"
    " -48 J a^3 H -12 J a alpha -50 J a^2 +3 a H alpha^3 +5 a^2 H alpha^2"
    " +5 a^3 H alpha +5 a^4 H +2 a alpha^2 +2 a^2 alpha +10 a^3"
    " -24 J^2 b^2 H +24 J b^2 H alpha +38 J b^2 -3 b^2 H alpha^2 -b^4 H"
    " -2 b^2 alpha +240 J^4 H -168 J^3 H alpha -60 J^3 +52 J^2 H alpha^2"
    " +42 J^2 alpha -6 J H alpha^3 -22 J alpha^2 +4 alpha^3")


def generator_table():
    """Computed P3..P6 next to their expected forms; list of
    (name, computed, expected, diff).  Integer arithmetic throughout: the
    halving that gives P4 is exact."""
    p3 = nabla_h(P1_EXPECTED)
    p4 = nabla_h(P2_EXPECTED) / 2
    p5 = nabla_h(p3)
    p6 = nabla_h(p4)
    rows = []
    for name, comp, exp in (("P3", p3, P3_EXPECTED), ("P4", p4, P4_EXPECTED),
                            ("P5", p5, P5_EXPECTED), ("P6", p6, P6_EXPECTED)):
        rows.append((name, comp, exp, comp - exp))
    return rows


def generators():
    """The six ideal generators.  P1, P2 come from the eliminated curvature
    system; P3..P6 are derived by nabla_h and must reproduce the expected
    closed forms exactly."""
    rows = generator_table()
    bad = [(name, str(diff)) for name, _, _, diff in rows if diff]
    if bad:
        raise GeneratorMismatch(
            "derived generators disagree with expected forms", bad)
    return (P1_EXPECTED, P2_EXPECTED) + tuple(r[1] for r in rows)


def _primitive(p: Poly):
    """(k, k p, leading term of k p) for the rational k that makes k p an
    integer polynomial of content 1 with a positive leading coefficient;
    p must not be zero."""
    lm, lc = p.leading()
    ratios = {m: c.as_integer_ratio() for m, c in p.terms.items()}
    den = lcm(*(d for _, d in ratios.values()))
    ints = {m: n * (den // d) for m, (n, d) in ratios.items()}
    g = gcd(*ints.values())
    if lc < 0:
        g = -g
    q = Poly()
    q.terms = {m: c // g for m, c in ints.items()}
    return Fraction(den, g), q, (lm, q.terms[lm])


def _reduce(q: Poly, basis, collect_quotients=False, lead=None):
    """Fraction-free multivariate division (grlex) of the integer
    polynomial q by primitive integer polynomials.

    Returns (r, s, quotients), with s a positive integer and
    s q = sum(quotients[i] basis[i]) + r, where no term of r is divisible
    by a leading monomial of the basis; quotients is None unless
    collected.  To cancel a term c x^m by g, whose leading term is
    lc x^lm, the step multiplies what is left of q, r and the quotients
    by lc / gcd(c, lc) and subtracts (c / gcd(c, lc)) x^(m - lm) g.

    ``lead`` optionally gives each basis element's (monomial, coefficient)
    leading term.  The pending terms are a max-heap of negated grlex keys;
    a popped monomial that is no longer in ``work`` has cancelled."""
    if lead is None:
        lead = [g.leading() for g in basis]
    rem = {}
    scale = 1
    work = dict(q.terms)
    heap = [(_neg_key(m), m) for m in work]
    heapify(heap)
    quots = [{} for _ in basis] if collect_quotients else None
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        m0, m1, m2, m3, m4 = m
        for i, (lm, lc) in enumerate(lead):
            if (m0 >= lm[0] and m1 >= lm[1] and m2 >= lm[2]
                    and m3 >= lm[3] and m4 >= lm[4]):
                q0, q1, q2, q3, q4 = qm = (m0 - lm[0], m1 - lm[1],
                                           m2 - lm[2], m3 - lm[3],
                                           m4 - lm[4])
                d = gcd(c, lc)
                f, e = lc // d, c // d
                if f != 1:
                    scale *= f
                    for t in work:
                        work[t] *= f
                    for t in rem:
                        rem[t] *= f
                    if collect_quotients:
                        for qi in quots:
                            for t in qi:
                                qi[t] *= f
                for gm, gc in basis[i].terms.items():
                    t = (q0 + gm[0], q1 + gm[1], q2 + gm[2],
                         q3 + gm[3], q4 + gm[4])
                    if t == m:
                        continue
                    old = work.get(t)
                    if old is None:
                        work[t] = -(e * gc)
                        heappush(heap, (_neg_key(t), t))
                        continue
                    s = old - e * gc
                    if s:
                        work[t] = s
                    else:
                        del work[t]
                if collect_quotients:
                    quots[i][qm] = e
                break
        else:
            rem[m] = c
    r = Poly()
    r.terms = rem
    return r, scale, quots


def _neg_key(m):
    """grlex_key(m) negated, so a min-heap pops the largest monomial."""
    e0, e1, e2, e3, e4 = m
    return (-(e0 + e1 + e2 + e3 + e4), -e4, -e3, -e2, -e1, -e0)


def _divide(q: Poly, basis, collect_quotients):
    """Exact division of q by any nonzero basis: the fraction-free
    division of the primitive parts, with its scales divided out."""
    k, qp, _ = _primitive(q) if q else (1, q, None)
    prim = [_primitive(g) for g in basis]
    r, s, quots = _reduce(qp, [g for _, g, _ in prim], collect_quotients,
                          [lt for _, _, lt in prim])
    k = k * s
    if not collect_quotients:
        return r / k, None
    return r / k, [Poly(qi) / (k / kg) for qi, (kg, _, _) in zip(quots, prim)]


def normal_form(q: Poly, basis) -> Poly:
    """Remainder of q on division by the basis; zero iff q is in the ideal
    when the basis is a Groebner basis."""
    return _divide(q, basis, False)[0]


def division(q: Poly, basis):
    """(remainder, quotients) with q = sum quotients[i]*basis[i] + remainder."""
    return _divide(q, basis, True)


def _lcm(m1, m2):
    a0, a1, a2, a3, a4 = m1
    b0, b1, b2, b3, b4 = m2
    return (a0 if a0 >= b0 else b0, a1 if a1 >= b1 else b1,
            a2 if a2 >= b2 else b2, a3 if a3 >= b3 else b3,
            a4 if a4 >= b4 else b4)


def _spoly(f, g):
    """The integer S-polynomial (lc g / d) x^u f - (lc f / d) x^v g of two
    integer polynomials, d = gcd(lc f, lc g), x^u lm f = x^v lm g = lcm."""
    (mf, cf), (mg, cg) = f.leading(), g.leading()
    l = _lcm(mf, mg)
    d = gcd(cf, cg)
    uf = Poly({tuple(l[k] - mf[k] for k in range(NVARS)): cg // d})
    ug = Poly({tuple(l[k] - mg[k] for k in range(NVARS)): cf // d})
    return uf * f - ug * g


def buchberger(gens, max_pairs: int = 200000):
    """Reduced Groebner basis in grlex order, deterministic, monic.

    Normal selection strategy (smallest lcm in grlex, ties by (i, j)) with
    the coprimality and chain criteria, over primitive integer
    polynomials.  Raises ResourceLimit if the pair budget is exhausted.
    """
    prim = [_primitive(g) for g in gens if g]
    if not prim:
        return []
    basis = [g for _, g, _ in prim]
    terms = [lt for _, _, lt in prim]
    lead = [m for m, _ in terms]
    pairs = set(combinations(range(len(basis)), 2))
    # every pending pair is in the heap exactly once; ``pairs`` answers
    # the chain criterion's membership test
    queue = [(grlex_key(_lcm(lead[i], lead[j])), i, j) for i, j in pairs]
    heapify(queue)
    processed = 0
    while queue:
        _, i, j = heappop(queue)
        pairs.discard((i, j))
        processed += 1
        if processed > max_pairs:
            raise ResourceLimit(f"pair budget {max_pairs} exhausted")
        li, lj = lead[i], lead[j]
        # coprime leading monomials: S-poly reduces to zero
        if not (li[0] and lj[0] or li[1] and lj[1] or li[2] and lj[2]
                or li[3] and lj[3] or li[4] and lj[4]):
            continue
        l0, l1, l2, l3, l4 = _lcm(li, lj)
        # chain criterion
        skip = False
        for k, lk in enumerate(lead):
            if k == i or k == j:
                continue
            if (lk[0] <= l0 and lk[1] <= l1 and lk[2] <= l2
                    and lk[3] <= l3 and lk[4] <= l4):
                ki, kj = (min(i, k), max(i, k)), (min(j, k), max(j, k))
                if ki not in pairs and kj not in pairs:
                    skip = True
                    break
        if skip:
            continue
        r = _reduce(_spoly(basis[i], basis[j]), basis, lead=terms)[0]
        if r:
            _, r, lt = _primitive(r)
            new = len(basis)
            basis.append(r)
            terms.append(lt)
            lr = lt[0]
            lead.append(lr)
            for k in range(new):
                pairs.add((k, new))
                heappush(queue, (grlex_key(_lcm(lead[k], lr)), k, new))
    return _interreduce(basis, terms)


def _interreduce(basis, terms):
    """The reduced basis, monic, ascending in grlex: drop the elements whose
    leading monomial another one divides, then fully reduce the tails.
    ``terms`` gives each element's leading term."""
    order = sorted(range(len(basis)), key=lambda i: grlex_key(terms[i][0]))
    kept = []
    for i in order:
        lm = terms[i][0]
        if not any(all(lm[k] >= terms[j][0][k] for k in range(NVARS))
                   for j in kept):
            kept.append(i)
    # a tail reduction leaves the leading term, so ``kept`` stays sorted
    out = []
    for i in kept:
        rest = [j for j in kept if j != i]
        out.append(_reduce(basis[i], [basis[j] for j in rest],
                           lead=[terms[j] for j in rest])[0].monic())
    return out


G_TARGET = parse_poly("16 b^8 +8 b^6 alpha^2 +b^4 alpha^4")


def alpha_equals_a_branch():
    """Contradiction certificate for the branch where the real eigenvalues
    coincide.

    The constraint Q = b^2 H^2 + 6 + 3 J H and its grad-h derivative
    R = 5 b^2 H^2 - 12 J H + 30 combine linearly to 6 + b^2 H^2 = 0,
    which has no real solution.  Returns the exact multipliers and the
    verification residuals (all must be the zero polynomial).
    """
    Q = b * b * H * H + 6 + 3 * J * H
    R = 5 * b * b * H * H - 12 * J * H + 30
    cQ, cR = Fraction(4, 9), Fraction(1, 9)
    target = 6 + b * b * H * H
    combination_residual = cQ * Q + cR * R - target
    jh_residual = 5 * Q - R - 27 * J * H

    # derivative identity on the branch: lambda = 6/H, a = alpha = 2(JH-1)/H.
    # With D the branch derivation, H^2 D(b^2 H + 3 J) - 6 D(H) must equal 2R.
    db = b * (10 - 2 * J * H)           # H * D(b)
    dH = 2 * (2 * J * H - 5)            # D(H)
    deriv = H * H * (2 * b * db + b * b * dH) - 6 * dH
    derivative_residual = deriv - 2 * R
    return {
        "Q": Q,
        "R": R,
        "multipliers": (cQ, cR),
        "target": target,
        "combination_residual": combination_residual,
        "jh_residual": jh_residual,
        "derivative_residual": derivative_residual,
    }

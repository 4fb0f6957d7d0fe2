"""Exact polynomial arithmetic, the grad-h derivation, and Buchberger."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wefe import groebner as gb
from wefe.errors import ResourceLimit

from oracles import is_groebner

J, a, b, alpha, H = gb.J, gb.a, gb.b, gb.alpha, gb.H


# ------------------------------------------------------------------- parsing

def test_parse_simple():
    p = gb.parse_poly("2 J a - b^2 + 3")
    assert p == 2 * J * a - b * b + gb.Poly.constant(3)


def test_parse_alpha_not_a():
    p = gb.parse_poly("a alpha")
    ((mono, coeff),) = p.terms.items()
    assert mono == (0, 1, 0, 1, 0)
    assert coeff == 1


def test_parse_repeated_factor():
    assert gb.parse_poly("b b b") == b * b * b


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        gb.parse_poly("2 *** J")


def test_str_parse_roundtrip():
    p = gb.P4_EXPECTED
    assert gb.parse_poly(str(p)) == p


# ------------------------------------------------------------------ the ring

_coef = st.integers(-4, 4)
_mono = st.tuples(*(st.integers(0, 2) for _ in range(5)))


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(_mono, _coef, max_size=4))
    return gb.Poly({m: Fraction(c) for m, c in terms.items() if c})


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p + (-p) == gb.Poly.zero()


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_derivation_leibniz(p, q):
    assert gb.nabla_h(p * q) == p * gb.nabla_h(q) + q * gb.nabla_h(p)


def test_derivation_base_cases():
    assert gb.nabla_h(J) == gb.Poly.zero()
    assert gb.nabla_h(b) == gb.parse_poly("-b alpha -4 a b +8 J b")
    assert gb.nabla_h(gb.Poly.constant(7)) == gb.Poly.zero()


@given(st.dictionaries(_mono, _coef, max_size=6))
@settings(max_examples=60, deadline=None)
def test_derivation_integer_matches_fraction(terms):
    ints = gb.Poly(terms)
    fracs = gb.Poly({m: Fraction(c) for m, c in terms.items()})
    assert gb.nabla_h(ints) == gb.nabla_h(fracs)


def test_monic_of_integer_coefficients():
    p = gb.Poly({(1, 0, 0, 0, 0): 2, (0, 0, 0, 0, 0): 3})
    m = p.monic()
    assert m.terms == {(1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 0): Fraction(3, 2)}
    assert all(type(c) is Fraction for c in m.terms.values())


def test_exact_division_stays_integral():
    p = (4 * J * a - 6 * b + 2) / 2
    assert p == 2 * J * a - 3 * b + 1
    assert all(type(c) is int for c in p.terms.values())
    assert (J + 1) / 2 == gb.Poly({(1, 0, 0, 0, 0): Fraction(1, 2),
                                   (0, 0, 0, 0, 0): Fraction(1, 2)})


def test_grlex_degree_dominates():
    lo = gb.grlex_key((2, 0, 0, 0, 0))
    hi = gb.grlex_key((1, 1, 1, 0, 0))
    assert hi > lo
    # same degree: later variables in the order break ties
    assert gb.grlex_key((0, 0, 0, 0, 1)) > gb.grlex_key((1, 0, 0, 0, 0))


# ---------------------------------------------------------------- generators

def test_generator_table_all_match():
    for name, computed, expected, diff in gb.generator_table():
        assert not diff, f"{name} mismatch: {diff}"


def test_generators_returns_six():
    gens = gb.generators()
    assert len(gens) == 6
    assert gens[0] == gb.P1_EXPECTED
    assert gens[2] == gb.P3_EXPECTED


def test_derivation_is_integral():
    # the halving that gives P4 is exact, so every derived generator is
    # an integer polynomial
    for name, computed, _, _ in gb.generator_table():
        assert all(type(c) is int for c in computed.terms.values()), name


def test_chain_structure():
    # P5 and P6 are the derivation applied to P3 and P4
    assert gb.nabla_h(gb.P3_EXPECTED) == gb.P5_EXPECTED
    assert gb.nabla_h(gb.P4_EXPECTED) == gb.P6_EXPECTED


# ---------------------------------------------------------------- buchberger

def test_buchberger_toy_ideal():
    basis = gb.buchberger([J * a - 1, J * J - 1])
    assert [str(g) for g in basis] == ["a - J", "J^2 - 1"]


def test_buchberger_already_groebner():
    basis = gb.buchberger([J, a])
    assert [str(g) for g in basis] == ["J", "a"]


def test_buchberger_deterministic():
    gens = gb.generators()
    b1 = gb.buchberger(gens)
    b2 = gb.buchberger(list(reversed(gens)))
    assert [str(g) for g in b1] == [str(g) for g in b2]


def test_buchberger_same_basis_for_integer_fraction_and_mixed_input():
    gens = gb.generators()
    fracs = [gb.Poly({m: Fraction(c) for m, c in g.terms.items()})
             for g in gens]
    mixed = [g if k % 2 else f for k, (g, f) in enumerate(zip(gens, fracs))]
    want = gb.buchberger(gens)
    assert len(want) == 14
    for gs in (fracs, mixed):
        got = gb.buchberger(gs)
        assert got == want
        assert all(type(c) is Fraction for g in got for c in g.terms.values())


def test_buchberger_certificate():
    basis = gb.buchberger(gb.generators())
    assert is_groebner(basis)


def test_membership_of_target():
    basis = gb.buchberger(gb.generators())
    assert not gb.normal_form(gb.G_TARGET, basis)
    # b alone is not in the ideal
    assert gb.normal_form(b, basis)


def _divisible(m, lm):
    return all(x >= y for x, y in zip(m, lm))


def test_division_reconstructs():
    basis = gb.buchberger(gb.generators())
    q = gb.G_TARGET + J * a * b + 3
    rem, quots = gb.division(q, basis)
    total = rem
    for coef, g in zip(quots, basis):
        total = total + coef * g
    assert total == q
    leads = [g.leading()[0] for g in basis]
    assert rem
    assert not any(_divisible(m, lm) for m in rem.terms for lm in leads)


def test_normal_form_idempotent():
    basis = gb.buchberger(gb.generators())
    r = gb.normal_form(J * J * a * H + b, basis)
    assert gb.normal_form(r, basis) == r


def test_selection_order_is_pinned():
    # the normal strategy with (i, j) tie-breaks needs exactly 276 pairs
    assert len(gb.buchberger(gb.generators(), max_pairs=276)) == 14
    with pytest.raises(ResourceLimit):
        gb.buchberger(gb.generators(), max_pairs=275)


def _rescan_spolys(gens):
    """The S-pairs a plain rescan over the rationals reduces, in order: the
    smallest (grlex key of the lcm, (i, j)) over every pending pair at each
    step, with the same coprimality and chain criteria."""
    basis = [g.monic() for g in gens if g]
    lead = [g.leading()[0] for g in basis]
    pairs = set(combinations(range(len(basis)), 2))
    order = []
    while pairs:
        i, j = min(pairs, key=lambda p: (
            gb.grlex_key(gb._lcm(lead[p[0]], lead[p[1]])), p))
        pairs.discard((i, j))
        lcm = gb._lcm(lead[i], lead[j])
        if all(lead[i][k] == 0 or lead[j][k] == 0 for k in range(5)):
            continue
        if any(all(x <= y for x, y in zip(lead[k], lcm))
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in range(len(basis)) if k not in (i, j)):
            continue
        order.append((str(basis[i]), str(basis[j])))
        # the monic S-polynomial x^u f - x^v g, in Fractions
        ui, uj = (gb.Poly({tuple(x - y for x, y in zip(lcm, lead[k])):
                           Fraction(1)}) for k in (i, j))
        r = gb.normal_form(ui * basis[i] - uj * basis[j], basis)
        if r:
            basis.append(r.monic())
            lead.append(basis[-1].leading()[0])
            pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))
    return order


def test_pair_queue_reduces_the_rescan_order(monkeypatch):
    gens = gb.generators()
    want = _rescan_spolys(gens)
    got = []
    spoly = gb._spoly

    def logged(f, g):
        # the basis is kept primitive over the integers: compare it monic
        got.append((str(f.monic()), str(g.monic())))
        return spoly(f, g)

    monkeypatch.setattr(gb, "_spoly", logged)
    gb.buchberger(gens)
    assert len(got) == len(want) > 20
    assert got == want


@st.composite
def nonzero_polys(draw):
    p = draw(polys())
    return p if p else gb.Poly.constant(draw(st.integers(1, 3)))


@given(polys(), st.lists(nonzero_polys(), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_division_property(q, basis):
    rem, quots = gb.division(q, basis)
    total = rem
    for coef, g in zip(quots, basis):
        total = total + coef * g
    assert total == q
    leads = [g.leading()[0] for g in basis]
    assert not any(_divisible(m, lm) for m in rem.terms for lm in leads)


_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def rational_polys(draw, nonzero=False):
    terms = draw(st.dictionaries(_mono, _fraction, min_size=int(nonzero),
                                 max_size=4))
    p = gb.Poly(terms)
    return p if p or not nonzero else gb.Poly.constant(Fraction(1, 3))


@given(rational_polys(), st.lists(rational_polys(nonzero=True), min_size=1,
                                  max_size=3))
@settings(max_examples=80, deadline=None)
def test_division_exact_over_rationals(q, basis):
    rem, quots = gb.division(q, basis)
    total = rem
    for coef, g in zip(quots, basis):
        total = total + coef * g
    assert total == q
    r = gb.normal_form(q, basis)
    assert r == rem
    assert gb.normal_form(r, basis) == r


# squarefree terms keep every ideal small enough for both Buchberger runs
_small_poly = st.dictionaries(
    st.tuples(*(st.integers(0, 1) for _ in range(5))), st.integers(1, 4)
    | st.integers(-4, -1), min_size=1, max_size=3).map(
        lambda terms: gb.Poly({m: Fraction(c) for m, c in terms.items()}))


@given(st.lists(_small_poly, min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_buchberger_matches_sympy(gens):
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("H alpha b a J")   # H > alpha > b > a > J
    by_name = dict(zip(("H", "alpha", "b", "a", "J"), symbols))

    def to_sympy(p):
        expr = sympy.Integer(0)
        for mono, c in p.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for var, e in zip(gb.VARS, mono):
                term *= by_name[var] ** e
            expr += term
        return expr

    def monic_set(exprs):
        return {tuple(sorted(sympy.Poly(e, *symbols, domain="QQ")
                             .monic().terms())) for e in exprs}

    reference = sympy.groebner([to_sympy(g) for g in gens], *symbols,
                               order="grlex")
    computed = gb.buchberger(gens)
    assert monic_set(to_sympy(g) for g in computed) == \
        monic_set(reference.exprs)


@given(st.lists(_small_poly, min_size=1, max_size=3),
       st.lists(st.fractions(min_value=-5, max_value=5,
                             max_denominator=7).filter(bool),
                min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_buchberger_invariant_under_rational_scaling(gens, scales):
    scaled = [g * k for g, k in zip(gens, scales)]
    assert gb.buchberger(scaled) == gb.buchberger(gens)


def test_resource_limit():
    with pytest.raises(ResourceLimit):
        gb.buchberger(gb.generators(), max_pairs=1)


def test_empty_and_zero_input():
    assert gb.buchberger([]) == []
    assert gb.buchberger([gb.Poly.zero()]) == []


# ------------------------------------------------------------ branch closure

def test_equal_eigenvalue_branch_certificate():
    cert = gb.alpha_equals_a_branch()
    assert not cert["combination_residual"]
    assert not cert["jh_residual"]
    assert not cert["derivative_residual"]
    cQ, cR = cert["multipliers"]
    assert cQ * cert["Q"] + cR * cert["R"] == cert["target"]

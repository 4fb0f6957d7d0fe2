import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wefe import jets
from wefe.errors import DomainError
from wefe.jets import (Expr, const, coord, cos, exp, eval_jet, eval_values,
                       fd_oracle, jet_context, log, parse_sexpr, sin, sqrt,
                       to_sexpr)


def test_sexpr_roundtrip():
    e = parse_sexpr("(add (mul 2 (sin x)) (pow y 3/2))", ("x", "y"))
    assert parse_sexpr(to_sexpr(e, ("x", "y")), ("x", "y")) is not None
    p = np.array([[0.3, 1.7]])
    v1 = eval_values(e, p)
    v2 = eval_values(parse_sexpr(to_sexpr(e, ("x", "y")), ("x", "y")), p)
    assert v1 == pytest.approx(v2, rel=1e-15)


def test_parse_params():
    e = parse_sexpr("(mul c (exp t))", ("t",), params={"c": 2.5})
    assert eval_values(e, np.array([[0.0]]))[0] == pytest.approx(2.5)


def test_parse_sub_sugar():
    e = parse_sexpr("(sub x y)", ("x", "y"))
    assert eval_values(e, np.array([[3.0, 1.0]]))[0] == pytest.approx(2.0)


def test_parse_rejects_garbage():
    with pytest.raises((ValueError, DomainError)):
        parse_sexpr("(frobnicate x)", ("x",))
    with pytest.raises((ValueError, DomainError)):
        parse_sexpr("(add x", ("x",))


def test_pow_requires_rational():
    x = coord(0)
    with pytest.raises(TypeError):
        x ** 1.5


def test_domain_error_log():
    e = log(coord(0))
    with pytest.raises(DomainError):
        eval_values(e, np.array([[-1.0]]))


def test_domain_error_division():
    e = const(1) / coord(0)
    with pytest.raises(DomainError):
        eval_values(e, np.array([[0.0]]))


def test_jet_of_polynomial_is_exact():
    # (x + 2y)^3 has known Taylor coefficients
    x, y = coord(0), coord(1)
    e = (x + 2 * y) ** 3
    j = eval_jet(e, np.array([0.0, 0.0]), 2)
    ctx = jet_context(2)
    assert j.coefficient((3, 0)) == pytest.approx(1.0)
    assert j.coefficient((2, 1)) == pytest.approx(6.0)
    assert j.coefficient((1, 2)) == pytest.approx(12.0)
    assert j.coefficient((0, 3)) == pytest.approx(8.0)
    assert ctx.multi_indices[0] == (0, 0)


def test_jet_mul_matches_expanded():
    x, y = coord(0), coord(1)
    p = np.array([0.7, -0.4])
    j1 = eval_jet((x * x + y) * (x - y), p, 2)
    j2 = eval_jet(x ** 3 - x * x * y + x * y - y * y, p, 2)
    np.testing.assert_allclose(j1.coeffs, j2.coeffs, atol=1e-13)


def test_reciprocal_jet():
    x = coord(0)
    e = const(1) / (const(1) + x * x)
    p = np.array([0.5])
    j = eval_jet(e * (const(1) + x * x), p, 1)
    assert j.coefficient((0,)) == pytest.approx(1.0)
    for k in (1, 2, 3):
        assert j.coefficient((k,)) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("builder,deriv", [
    (lambda x: exp(x), lambda t: math.exp(t)),
    (lambda x: sin(x), lambda t: math.cos(t)),
    (lambda x: cos(x), lambda t: -math.sin(t)),
    (lambda x: log(x), lambda t: 1.0 / t),
    (lambda x: sqrt(x), lambda t: 0.5 / math.sqrt(t)),
])
def test_elementary_first_derivative(builder, deriv):
    e = builder(coord(0))
    t0 = 0.8
    j = eval_jet(e, np.array([t0]), 1)
    assert j.derivative((1,)) == pytest.approx(deriv(t0), rel=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_jets_vs_finite_differences(order):
    e = parse_sexpr("(mul (exp (mul 1/2 x)) (sin (add y (mul x y))))", ("x", "y"))
    p = np.array([0.4, 0.9])
    j = eval_jet(e, p, 2)
    dirs = {1: [(1, 0), (0, 1)], 2: [(2, 0), (1, 1)], 3: [(2, 1), (0, 3)]}
    for alpha in dirs[order]:
        got = j.derivative(alpha)
        ref = fd_oracle(e, p, order, alpha)
        assert got == pytest.approx(ref, rel=2e-5), (alpha, got, ref)


def test_third_order_slot_dropped_by_derivative():
    # d/dx of an order-3 jet is only valid to order 2
    x = coord(0)
    e = exp(x)
    ctx = jet_context(1)
    j = eval_jet(e, np.array([0.2]), 1)
    dj = ctx.deriv(j.coeffs.reshape(1, -1), 0)[0]
    k = ctx.index_of[(3,)]
    assert dj[k] == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_jet_value_matches_plain_eval(u, v):
    e = parse_sexpr("(add (cos x) (mul x (sin y)))", ("x", "y"))
    p = np.array([u, v])
    assert eval_jet(e, p, 2).value == pytest.approx(
        eval_values(e, p.reshape(1, 2))[0], rel=1e-13, abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=6, max_size=6),
       st.lists(st.floats(-2, 2), min_size=6, max_size=6))
def test_ring_product_commutes(c1, c2):
    ctx = jet_context(1)
    a = np.zeros((1, len(ctx.multi_indices)))
    b = np.zeros_like(a)
    a[0, :4] = c1[:4]
    b[0, :4] = c2[:4]
    np.testing.assert_allclose(ctx.mul(a, b), ctx.mul(b, a), atol=1e-12)


def test_max_coord_index():
    e = parse_sexpr("(mul x (add y z))", ("x", "y", "z"))
    assert jets.max_coord_index(e) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_truncation_commutes_with_ring_ops(n, k, seed):
    # an order-k jet is the first N_k coefficients of an order-3 jet, so
    # multiplying truncated jets equals truncating the order-3 product
    full, low = jet_context(n), jet_context(n, k)
    assert low.multi_indices == full.multi_indices[:low.N]
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, (3, full.N))
    b = rng.uniform(-2.0, 2.0, (3, full.N))
    np.testing.assert_allclose(low.mul(a[..., :low.N], b[..., :low.N]),
                               full.mul(a, b)[..., :low.N],
                               rtol=1e-13, atol=1e-13)
    below = jet_context(n, k - 1).N if k else 0
    for axis in range(n):
        np.testing.assert_array_equal(
            low.deriv(a[..., :low.N], axis)[..., :below],
            full.deriv(a, axis)[..., :below])
        assert not np.any(low.deriv(a[..., :low.N], axis)[..., below:])


def test_order_zero_context_is_plain_arithmetic():
    ctx = jet_context(2, 0)
    assert ctx.N == 1
    x = ctx.coordinate(0, np.array([0.5, 2.0]))
    np.testing.assert_allclose(ctx.mul(x, x)[..., 0], [0.25, 4.0])
    np.testing.assert_allclose(ctx.exp(x, ())[..., 0], np.exp([0.5, 2.0]))
    assert not np.any(ctx.deriv(x, 1))


def test_jet_context_rejects_bad_order():
    with pytest.raises(ValueError):
        jet_context(2, 4)


_LEAD = st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), _LEAD, _LEAD,
       st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_contract_matches_summed_mul(n, k, lead_a, lead_b, s, m, seed):
    # contract(a, b) is the jet product broadcast over *A and *B and
    # summed over the shared axis s, without forming that product
    ctx = jet_context(n, k)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, lead_a + (s, m, ctx.N))
    b = rng.uniform(-2.0, 2.0, (s,) + lead_b + (m, ctx.N))
    ones_a, ones_b = (1,) * len(lead_a), (1,) * len(lead_b)
    want = ctx.mul(a.reshape(lead_a + (s,) + ones_b + (m, ctx.N)),
                   b.reshape(ones_a + b.shape)).sum(axis=len(lead_a))
    got = ctx.contract(a, b)
    assert got.shape == lead_a + lead_b + (m, ctx.N)
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale

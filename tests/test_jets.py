import gc
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wefe import catalog
from wefe.errors import DomainError
from wefe.jets import (Expr, JetContext, const, coord, cos,
                       default_coord_names, exp, eval_jets, jet_context, log,
                       parse_sexpr, sin, sqrt, to_sexpr)
from wefe.sampling import sample_box
from wefe.tensor import Frame

from oracles import fd_oracle


def jet_at(e, p, n):
    """Order-3 jet of ``e`` at the single point ``p``, shape (N,)."""
    return eval_jets(e, np.asarray(p, dtype=float)[None], jet_context(n))[0]


def values(e, pts):
    """Order-0 jets of ``e`` at the rows of ``pts``: plain values, (m,)."""
    pts = np.asarray(pts, dtype=float)
    return eval_jets(e, pts, jet_context(pts.shape[-1], 0))[..., 0]


def derivative(jet, alpha):
    """Mixed partial d^alpha at the base point: coefficient * alpha!."""
    ctx = jet_context(len(alpha))
    k = ctx.index_of[tuple(alpha)]
    return jet[k] * ctx.alpha_factorial[k]


def test_sexpr_roundtrip():
    e = parse_sexpr("(add (mul 2 (sin x)) (pow y 3/2))", ("x", "y"))
    assert parse_sexpr(to_sexpr(e, ("x", "y")), ("x", "y")) is not None
    p = np.array([[0.3, 1.7]])
    v1 = values(e, p)
    v2 = values(parse_sexpr(to_sexpr(e, ("x", "y")), ("x", "y")), p)
    assert v1 == pytest.approx(v2, rel=1e-15)
    assert v1[0] == pytest.approx(2 * np.sin(0.3) + 1.7 ** 1.5, rel=1e-15)


def test_parse_params():
    e = parse_sexpr("(mul c (exp t))", ("t",), params={"c": 2.5})
    assert values(e, [[0.0]])[0] == pytest.approx(2.5)


def test_parse_sub_sugar():
    e = parse_sexpr("(sub x y)", ("x", "y"))
    assert values(e, [[3.0, 1.0]])[0] == pytest.approx(2.0)


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
        values(e, [[-1.0]])


def test_domain_error_division():
    e = const(1) / coord(0)
    with pytest.raises(DomainError):
        values(e, [[0.0]])


def test_jet_of_polynomial_is_exact():
    # (x + 2y)^3 has known Taylor coefficients
    x, y = coord(0), coord(1)
    e = (x + 2 * y) ** 3
    j = jet_at(e, [0.0, 0.0], 2)
    ctx = jet_context(2)
    assert j[ctx.index_of[(3, 0)]] == pytest.approx(1.0)
    assert j[ctx.index_of[(2, 1)]] == pytest.approx(6.0)
    assert j[ctx.index_of[(1, 2)]] == pytest.approx(12.0)
    assert j[ctx.index_of[(0, 3)]] == pytest.approx(8.0)
    assert ctx.multi_indices[0] == (0, 0)


def test_jet_mul_matches_expanded():
    x, y = coord(0), coord(1)
    p = np.array([0.7, -0.4])
    j1 = jet_at((x * x + y) * (x - y), p, 2)
    j2 = jet_at(x ** 3 - x * x * y + x * y - y * y, p, 2)
    np.testing.assert_allclose(j1, j2, atol=1e-13)


def test_reciprocal_jet():
    x = coord(0)
    e = const(1) / (const(1) + x * x)
    p = np.array([0.5])
    j = jet_at(e * (const(1) + x * x), p, 1)
    ctx = jet_context(1)
    assert j[ctx.index_of[(0,)]] == pytest.approx(1.0)
    for k in (1, 2, 3):
        assert j[ctx.index_of[(k,)]] == pytest.approx(0.0, abs=1e-14)


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
    j = jet_at(e, [t0], 1)
    assert derivative(j, (1,)) == pytest.approx(deriv(t0), rel=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_jets_vs_finite_differences(order):
    e = parse_sexpr("(mul (exp (mul 1/2 x)) (sin (add y (mul x y))))", ("x", "y"))
    p = np.array([0.4, 0.9])
    j = jet_at(e, p, 2)
    dirs = {1: [(1, 0), (0, 1)], 2: [(2, 0), (1, 1)], 3: [(2, 1), (0, 3)]}
    for alpha in dirs[order]:
        got = derivative(j, alpha)
        ref = fd_oracle(e, p, order, alpha)
        assert got == pytest.approx(ref, rel=2e-5), (alpha, got, ref)


def test_third_order_slot_dropped_by_derivative():
    # d/dx of an order-3 jet is only valid to order 2, so grad keeps only
    # the order-2 coefficients
    x = coord(0)
    e = exp(x)
    ctx = jet_context(1)
    j = jet_at(e, [0.2], 1)
    dj = ctx.grad(j.reshape(1, -1))
    assert dj.shape == (1, 1, jet_context(1, 2).N)
    # d/dx e^x = e^x, coefficient by coefficient
    np.testing.assert_allclose(dj[0, 0], j[:3], rtol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_jet_value_matches_plain_eval(u, v):
    e = parse_sexpr("(add (cos x) (mul x (sin y)))", ("x", "y"))
    p = np.array([u, v])
    assert jet_at(e, p, 2)[0] == pytest.approx(
        np.cos(u) + u * np.sin(v), rel=1e-13, abs=1e-13)


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


@pytest.mark.parametrize("lead_a, lead_b", [
    ((), (5,)), ((5,), ()), ((3, 1), (1, 4)), ((2, 1, 5), (5,))])
def test_mul_broadcasts_lead_axes_bit_for_bit(lead_a, lead_b):
    # the gathers broadcast the lead axes, so the product equals that of
    # operands broadcast beforehand, bit for bit
    ctx = jet_context(3, 2)
    rng = np.random.default_rng(len(lead_a) + 3 * len(lead_b))
    a = rng.uniform(-2.0, 2.0, lead_a + (ctx.N,))
    b = rng.uniform(-2.0, 2.0, lead_b + (ctx.N,))
    got = ctx.mul(a, b)
    want = ctx.mul(*(np.ascontiguousarray(x)
                     for x in np.broadcast_arrays(a, b)))
    assert got.shape == np.broadcast_shapes(a.shape, b.shape)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_mul_of_a_row_does_not_depend_on_the_row_count(n, k):
    # each coefficient is summed over its pairs in one fixed order, so a
    # row's product is the same alone as among 100 other rows
    ctx = jet_context(n, k)
    a, b = np.random.default_rng([n, k]).uniform(-2.0, 2.0, (2, 101, ctx.N))
    whole = ctx.mul(a, b)
    for m in (1, 2, 3, 5, 17, 100):
        np.testing.assert_array_equal(ctx.mul(a[:m], b[:m]), whole[:m],
                                      err_msg=f"{m} rows")


@pytest.mark.parametrize("n", [1, 2, 4, 6])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_mul_is_the_pair_loop_bit_for_bit(n, k):
    # the fixed order: each coefficient adds its pairs one at a time, in
    # the order of the double loop over the multi-indices
    ctx = jet_context(n, k)
    a, b = np.random.default_rng([n, k, 1]).uniform(-2.0, 2.0, (2, 3, ctx.N))
    want = np.zeros_like(a)
    for i, alpha in enumerate(ctx.multi_indices):
        for j, beta in enumerate(ctx.multi_indices):
            s = tuple(x + y for x, y in zip(alpha, beta))
            if sum(s) <= k:
                want[:, ctx.index_of[s]] += a[:, i] * b[:, j]
    np.testing.assert_array_equal(ctx.mul(a, b), want)


def _inside(ctx, support):
    """1.0 at the multi-indices over the coordinates of ``support``."""
    return np.array([all(x == 0 or support >> d & 1 for d, x in enumerate(a))
                     for a in ctx.multi_indices], dtype=float)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_restricted_mul_equals_mul_inside_the_support(k):
    # the products a restricted context skips are exact zeros on jets
    # that vanish outside its support; s coordinates take C(2s + k, k)
    # index pairs (at order 3: 10, 35, 84 and 165)
    ctx = jet_context(4, k)
    rng = np.random.default_rng(k)
    for support in range(16):
        sub = ctx.restrict(support)
        assert isinstance(sub, JetContext) and sub is ctx.restrict(support)
        s = bin(support).count("1")
        assert len(sub._ti) == math.comb(2 * s + k, k)
        inside = _inside(ctx, support)
        a, b = rng.uniform(-2.0, 2.0, (2, 7, ctx.N)) * inside
        got = sub.mul(a, b)
        np.testing.assert_array_equal(got, ctx.mul(a, b), err_msg=support)
        assert not np.any(got * (1.0 - inside))
    assert ctx.restrict(15) is ctx


def test_support_is_the_union_of_coordinate_bits():
    x, y, w = coord(0), coord(1), coord(3)
    assert (x.support, y.support, w.support) == (1, 2, 8)
    assert const(2).support == const(Fraction(1, 3)).support == 0
    assert (2 * sin(x)).support == 1
    assert (exp(x + w) / y).support == 0b1011
    assert ((y ** 3) - 1).support == 2
    e = parse_sexpr("(mul (sqrt (add 2 (sin v))) (log (add 3 (cos u))))",
                    ("t", "u", "v"))
    assert e.support == 0b110 and e.children[0].support == 0b100


def test_products_run_over_the_node_support(monkeypatch):
    # each product-forming node multiplies over its own coordinates only,
    # and the jets equal those of the full context
    pairs = []
    mul = JetContext.mul

    def counted(self, a, b):
        pairs.append(len(self._ti))
        return mul(self, a, b)

    e = parse_sexpr("(add (mul (sin t) (exp (mul t z))) (pow (add 2 y) 3))",
                    ("t", "x", "y", "z"))
    ctx = jet_context(4)
    pts = sample_box([(-0.5, 0.5)] * 4, 9, 0)
    got = eval_jets(e, pts, ctx)
    monkeypatch.setattr(JetContext, "mul", counted)
    eval_jets(e, pts, ctx)
    # sin t: 2 products, t z: 1, exp: 2, the outer mul: 1, the cube: 2
    assert sorted(pairs) == [10, 10, 10, 10, 35, 35, 35, 35]
    monkeypatch.setattr(JetContext, "restrict", lambda self, support: self)
    pairs.clear()
    np.testing.assert_array_equal(eval_jets(e, pts, ctx), got)
    assert pairs == [165] * 8


def test_eval_jets_rejects_coordinate_outside_chart():
    e = parse_sexpr("(mul x (add y z))", ("x", "y", "z"))
    with pytest.raises(DomainError, match="coordinate index 2"):
        eval_jets(e, np.zeros((1, 2)), jet_context(2))
    assert eval_jets(e, np.zeros((1, 3)), jet_context(3)).shape == (
        1, jet_context(3).N)


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
    grad = low.grad(a[..., :low.N])
    assert grad.shape == (n, 3, below)
    np.testing.assert_array_equal(grad, full.grad(a)[..., :below])


def test_order_zero_context_is_plain_arithmetic():
    ctx = jet_context(2, 0)
    assert ctx.N == 1
    x = ctx.coordinate(0, np.array([0.5, 2.0]))
    np.testing.assert_allclose(ctx.mul(x, x)[..., 0], [0.25, 4.0])
    np.testing.assert_allclose(ctx.exp(x)[..., 0], np.exp([0.5, 2.0]))
    assert ctx.grad(x).shape == (2, 2, 0)


def test_grad_is_the_derivative_of_every_coefficient():
    # the coefficient of alpha in d_i f is (alpha_i + 1) times the
    # coefficient of alpha + e_i in f
    ctx = jet_context(3)
    a = np.random.default_rng(5).uniform(-1.0, 1.0, (2, ctx.N))
    grad = ctx.grad(a)
    for i in range(3):
        for t, alpha in enumerate(jet_context(3, 2).multi_indices):
            up = tuple(x + (d == i) for d, x in enumerate(alpha))
            np.testing.assert_array_equal(
                grad[i, :, t], (alpha[i] + 1) * a[:, ctx.index_of[up]])


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_hess_is_grad_of_grad(n, k):
    # the packed second-derivative gather of an order-(k + 2) jet equals
    # two first-derivative gathers, for both orders (p, q) and (q, p) of
    # each pair
    ctx, mid = jet_context(n, k + 2), jet_context(n, k + 1)
    a = np.random.default_rng([n, k]).uniform(-2.0, 2.0, (2, 3, ctx.N))
    hess, twice = ctx.hess(a), mid.grad(ctx.grad(a))
    assert hess.shape == (n * (n + 1) // 2, 2, 3, jet_context(n, k).N)
    assert sorted(np.unique(ctx.pair_index)) == list(range(len(hess)))
    for p in range(n):
        for q in range(n):
            got = hess[ctx.pair_index[p, q]]
            assert np.abs(got - twice[p, q]).max() <= 1e-15 * np.abs(
                twice[p, q]).max()


def test_compose_skips_products_that_truncate_to_zero(monkeypatch):
    # delta has no constant term, so delta^2 and delta^3 vanish below
    # orders 2 and 3: compose forms them only where they survive, and
    # its jets equal the sum of all three terms
    mul = JetContext.mul
    calls = _count_calls(monkeypatch, "mul")
    for k, want in enumerate((0, 0, 1, 2)):
        ctx = jet_context(2, k)
        a = ctx.coordinate(0, [0.3, -0.7]) - ctx.coordinate(1, [1.1, 0.2])
        calls.clear()
        got = ctx.exp(a)
        assert len(calls) == want
        e = np.exp(a[..., 0])
        delta = a.copy()
        delta[..., 0] = 0.0
        d2sq = mul(ctx, delta, delta)
        ref = (e[..., None] * delta + (e / 2.0)[..., None] * d2sq
               + (e / 6.0)[..., None] * mul(ctx, d2sq, delta))
        ref[..., 0] += e
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("m", [1, 100])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_power_is_the_repeated_product_bit_for_bit(order, m):
    # power(a, k) starts from a, not from the constant-1 jet, and takes
    # k - 1 products; the result is the k-fold product from 1 bit for bit
    ctx = jet_context(4, order)
    a = np.random.default_rng([order, m]).uniform(-2.0, 2.0, (m, ctx.N))
    want = ctx.constant(1.0, (m,))
    for k in range(7):
        np.testing.assert_array_equal(ctx.power(a, k), want)
        want = ctx.mul(want, a)


def test_power_takes_one_product_fewer_than_its_exponent(monkeypatch):
    calls = _count_calls(monkeypatch, "mul")
    ctx = jet_context(3, 3)
    a = ctx.coordinate(0, [0.4, 1.3]) + 2.0
    for k in range(7):
        calls.clear()
        ctx.power(a, k)
        assert len(calls) == max(k - 1, 0)


@pytest.mark.parametrize("eid", catalog.entry_ids())
def test_constant_factor_scales_bit_for_bit(eid, monkeypatch):
    # a mul node with a constant child scales the other child's jet,
    # which is the jet product bit for bit, and forms no product
    spec = catalog.build(eid)
    ctx = jet_context(spec.n, 3)
    pts = sample_box(spec.box, 20, 0)
    seen, todo = set(), [spec.h] + [e for row in spec.g for e in row]
    scaled = []
    while todo:
        e = todo.pop()
        if id(e) not in seen:
            seen.add(id(e))
            todo.extend(e.children)
            if e.kind == "mul" and any(c.kind == "const" for c in e.children):
                scaled.append(e)
    calls = _count_calls(monkeypatch, "mul")
    for e in scaled:
        a, b = (eval_jets(c, pts, ctx) for c in e.children)
        want = ctx.mul(a, b)
        calls.clear()
        other = e.children[e.children[0].kind == "const"]
        eval_jets(other, pts, ctx)
        products = len(calls)
        calls.clear()
        np.testing.assert_array_equal(eval_jets(e, pts, ctx), want)
        assert len(calls) == products


def test_jet_context_rejects_bad_order():
    with pytest.raises(ValueError):
        jet_context(2, 4)


_LEAD = st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(0, 1), _LEAD, _LEAD,
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


@pytest.mark.parametrize("k", [2, 3])
def test_contract_rejects_orders_above_1(k):
    ctx = jet_context(3, k)
    a = np.ones((2, 1, ctx.N))
    with pytest.raises(ValueError, match=f"orders 0 and 1, not {k}"):
        ctx.contract(a, a)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_contract_takes_transposed_views(n, k):
    # Frame passes transposed views, as in contract(ginv,
    # low.transpose(2, 0, 1, 3, 4)), here also truncated from a higher
    # order; the result equals the summed mul of contiguous copies
    ctx, m = jet_context(n, k), 3
    rng = np.random.default_rng([n, k])
    ginv = rng.uniform(-2.0, 2.0, (n, n, m, ctx.N))
    low = rng.uniform(-2.0, 2.0, (n, n, n, m, jet_context(n, k + 1).N))
    low = low[..., :ctx.N]
    for a, b in ((ginv, low.transpose(2, 0, 1, 3, 4)),
                 (low.transpose(2, 1, 0, 3, 4), ginv.transpose(1, 0, 2, 3))):
        assert not (a.flags.c_contiguous and b.flags.c_contiguous)
        ca, cb = np.ascontiguousarray(a), np.ascontiguousarray(b)
        lead_a, lead_b = ca.shape[:-3], cb.shape[1:-2]
        want = ctx.mul(ca.reshape(lead_a + (n,) + (1,) * len(lead_b)
                                  + (m, ctx.N)),
                       cb).sum(axis=len(lead_a))
        got = ctx.contract(a, b)
        assert got.shape == want.shape
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


# -- the shared-node evaluator ------------------------------------------

SHARED = """\
id: shared
dimension: 3
signature: riemannian
coords: x y z
box: -1 1
box: -1 1
box: -1 1
metric 0 0: 2
metric 0 1: (mul 1/2 (sin x))
metric 1 1: 2
metric 2 2: (exp x)
density: (mul (exp x) (exp x))
"""


def _count_calls(monkeypatch, name):
    calls = []
    method = getattr(JetContext, name)

    def counted(self, *args):
        calls.append(name)
        return method(self, *args)

    monkeypatch.setattr(JetContext, name, counted)
    return calls


def test_shared_nodes_are_evaluated_once(monkeypatch):
    spec = catalog.build(catalog.parse_manifest(SHARED))
    # one intern table per spec: equal subtrees in and across fields are
    # one node, and g_01, g_10 are one Expr
    assert spec.h.children[0] is spec.h.children[1] is spec.g[2][2]
    assert spec.g[0][1] is spec.g[1][0]
    pts = np.array([[0.3, -0.2, 0.5], [-0.7, 0.1, 0.0]])
    exps = _count_calls(monkeypatch, "exp")
    sins = _count_calls(monkeypatch, "sin")
    hJ = eval_jets(spec.h, pts, jet_context(3, 2))
    assert len(exps) == 1
    np.testing.assert_allclose(hJ[:, 0], np.exp(2.0 * pts[:, 0]), rtol=1e-15)
    # the Frame evaluates g in one call and h in another
    exps.clear()
    fr = Frame(spec, pts)
    assert (len(exps), len(sins)) == (2, 1)
    np.testing.assert_allclose(fr.g0[:, 0, 1], 0.5 * np.sin(pts[:, 0]),
                               rtol=1e-15)
    np.testing.assert_array_equal(fr.g0[:, 0, 1], fr.g0[:, 1, 0])


def test_eval_jets_of_nested_sequence_and_error_path():
    x, y = coord(0), coord(1)
    ctx = jet_context(2)
    pts = np.array([[0.5, 2.0], [1.5, 3.0], [2.5, 1.0]])
    arr = eval_jets([[x, y * y], [exp(x), const(1)]], pts, ctx)
    assert arr.shape == (2, 2, 3, ctx.N)
    np.testing.assert_array_equal(arr[1, 0], eval_jets(exp(x), pts, ctx))
    # the component indices come first, then the node path
    bad = [const(1), x + log(y - 2)]
    with pytest.raises(DomainError,
                       match=r"non-positive value \(node path 1/1\)"):
        eval_jets(bad, pts, ctx)


@pytest.mark.parametrize("entry", ["ex66-kundt", "cor36-2-tau-pos",
                                   "minkowski"])
def test_evaluator_memo_is_freed_at_return(entry):
    # the node memo holds every node jet of a call; a reference cycle
    # through it would keep them alive until the cyclic collector runs
    spec = catalog.build(entry)
    pts = sample_box(spec.box, 100, 0)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        Frame(spec, pts)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_evaluator_frees_each_jet_after_its_last_reader():
    # ex66-kundt's metric at order 3, as the order-1 Frame evaluates it:
    # holding every node jet to the end of the call peaked at 1.6 MB
    spec = catalog.build("ex66-kundt")
    g = [spec.g[i][j] for i in range(4) for j in range(i, 4)]
    pts, ctx = sample_box(spec.box, 100, 0), jet_context(4, 3)
    want = eval_jets(g, pts, ctx)
    tracemalloc.start()
    try:
        got = eval_jets(g, pts, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0e6
    np.testing.assert_array_equal(got, want)


def test_order_zero_allows_positive_fractional_power_of_zero():
    e = parse_sexpr("(add (sqrt x) (pow x 3/2))", ("x",))
    assert values(e, [[0.0], [4.0]]).tolist() == [0.0, 10.0]
    with pytest.raises(DomainError, match="fractional power"):
        jet_at(e, [0.0], 1)
    with pytest.raises(DomainError, match="fractional power"):
        values(parse_sexpr("(pow x -1/2)", ("x",)), [[0.0]])


def _unshared(e):
    """A node-for-node copy of ``e`` that shares no node."""
    return Expr(e.kind, [_unshared(c) for c in e.children], e.value)


def _pairs(sub):
    return st.tuples(sub, sub)


def _tree_cases(n):
    """(n, tree, point): trees from constructors defined on all of R^n,
    so every point is inside the domain."""
    leaves = st.one_of(st.integers(0, n - 1).map(coord),
                       st.floats(-1.5, 1.5).map(const))

    def extend(sub):
        return st.one_of(
            _pairs(sub).map(lambda ab: ab[0] + ab[1]),
            _pairs(sub).map(lambda ab: ab[0] * ab[1]),
            _pairs(sub).map(lambda ab: ab[0] / (2 + sin(ab[1]))),
            sub.map(lambda a: -a), sub.map(sin), sub.map(cos),
            sub.map(lambda a: exp(sin(a))),
            sub.map(lambda a: log(2 + cos(a))),
            sub.map(lambda a: sqrt(1 + a * a)),
            sub.map(lambda a: (1 + a * a) ** Fraction(-3, 2)))

    point = st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n)
    return st.tuples(st.just(n), st.recursive(leaves, extend, max_leaves=6),
                     point)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6).flatmap(_tree_cases))
def test_shared_nodes_match_unshared_tree_and_fd_oracle(case):
    n, tree, p = case
    e = parse_sexpr(to_sexpr(tree * sin(tree) + tree),
                    default_coord_names(n))
    assert e.children[1] is e.children[0].children[0]
    ctx = jet_context(n, 2)
    p = np.array(p)
    jet = eval_jets(e, p[None], ctx)
    np.testing.assert_array_equal(jet, eval_jets(_unshared(e), p[None], ctx))
    scale = max(1.0, np.max(np.abs(jet * ctx.alpha_factorial)))
    for alpha in ctx.multi_indices[1:]:
        got = derivative(jet[0], alpha)
        fd = fd_oracle(e, p, sum(alpha), alpha)
        assert abs(got - fd) <= 1e-5 * scale, (alpha, got, fd)

"""Jordan classification, causal tags and optical scalars."""

import numpy as np
import pytest

from wefe import catalog, classify, cli, jets, tensor, weighted
from wefe.errors import (IllConditioned, NotGeodesic, NotLightlike,
                         VanishingGradient)


# ---------------------------------------------------------------- jordan_type

def test_jordan_diagonal():
    tag, eig, deg = classify.jordan_type(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert tag == "I.a"
    assert deg == 0
    assert [e.real for e in eig] == [1.0, 2.0, 3.0, 4.0]


def _rounded_key_order(eig):
    """The eigenvalue order of Python's stable sort on
    (round(real, 12), round(imag, 12))."""
    return sorted(eig, key=lambda z: (round(z.real, 12), round(z.imag, 12)))


def test_jordan_eigenvalue_order_matches_rounded_key_sort():
    # a complex pair, a real tie that differs only below 12 digits (so
    # the stable order decides), an exact double and distinct reals,
    # each permuted by a random similarity; then random matrices
    rng = np.random.default_rng(3)
    blocks = [np.diag([1.0, 1.0 + 1e-14, 1.0 - 1e-14, -2.0]),
              np.diag([2.0, 2.0, 5.0, -1.0]),
              np.array([[0.5, -1.0, 0, 0], [1.0, 0.5, 0, 0],
                        [0, 0, 0.5, 0], [0, 0, 0, 0.5]])]
    mats = []
    for B in blocks:
        for _ in range(5):
            S = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
            mats.append(S @ B @ np.linalg.inv(S))
    mats += [rng.standard_normal((4, 4)) for _ in range(40)]
    ties = 0
    for A in mats:
        raw = np.linalg.eigvals(A)
        want = _rounded_key_order(raw)
        keys = [(round(z.real, 12), round(z.imag, 12)) for z in want]
        ties += len(set(keys)) < len(keys)
        try:
            _, got, _ = classify.jordan_type(A)
        except IllConditioned:
            continue
        assert [complex(z) for z in got] == [complex(z) for z in want]
    assert ties >= 10       # the tie cases really tie on the rounded key


def test_jordan_repeated_but_diagonalizable():
    tag, _, _ = classify.jordan_type(np.diag([2.0, 2.0, 2.0, 5.0]))
    assert tag == "I.a"


def test_jordan_complex_pair():
    A = np.zeros((4, 4))
    A[0, 1], A[1, 0] = -1.0, 1.0      # rotation block, eigenvalues +-i
    A[2, 2], A[3, 3] = 3.0, 4.0
    tag, eig, _ = classify.jordan_type(A)
    assert tag == "I.b"
    assert max(abs(e.imag) for e in eig) == pytest.approx(1.0)


def test_jordan_two_block():
    A = np.diag([1.0, 1.0, 2.0, 3.0])
    A[0, 1] = 1.0
    tag, _, deg = classify.jordan_type(A)
    assert tag == "II"
    assert deg == 0


def test_jordan_three_block_nilpotent():
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 2] = 1.0
    tag, eig, deg = classify.jordan_type(A)
    assert tag == "III"
    assert deg == 3
    assert all(abs(e) < 1e-10 for e in eig)


def test_jordan_zero_matrix():
    tag, _, deg = classify.jordan_type(np.zeros((4, 4)))
    assert tag == "I.a"
    assert deg == 1


def test_jordan_two_step_nilpotent():
    A = np.zeros((4, 4))
    A[0, 1] = 1.0
    tag, _, deg = classify.jordan_type(A)
    assert tag == "II"
    assert deg == 2


def test_jordan_round_off_has_rank_zero():
    # a matrix made only of round-off is the zero matrix, not a 4x4 block
    A = 1e-17 * np.random.default_rng(0).normal(size=(4, 4))
    tag, _, deg = classify.jordan_type(A)
    assert (tag, deg) == ("I.a", 1)


def test_jordan_ill_conditioned_gap():
    # clusters separated by less than 10*sqrt(tol): refuse to decide
    with pytest.raises(IllConditioned):
        classify.jordan_type(np.diag([0.0, 5e-4, 1.0, 2.0]), tol=1e-8)


def test_jordan_similarity_invariance():
    rng = np.random.default_rng(3)
    A = np.diag([1.0, 1.0, 2.0, 3.0])
    A[0, 1] = 1.0
    S = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
    B = np.linalg.solve(S, A @ S)
    tag, _, _ = classify.jordan_type(B, tol=1e-6)
    assert tag == "II"


# -------------------------------------------------------------- catalog types

def test_ex52_type_ib():
    spec = catalog.build("ex52-liegroup")
    rep = classify.classify(spec, np.array([0.1, -0.2, 0.3, 0.25]))
    assert rep.type_tag == "I.b"
    assert rep.causal_character == "spacelike"
    assert rep.nilpotency_degree == 0


def test_ex52_type_stable_across_points():
    spec = catalog.build("ex52-liegroup")
    tags = set()
    for p in ([0.0, 0.0, 0.0, 0.0], [0.5, -0.3, 0.2, -0.6],
              [-0.7, 0.1, 0.6, 0.4]):
        tags.add(classify.classify(spec, np.array(p)).type_tag)
    assert tags == {"I.b"}


def test_thm62_type_ii():
    spec = catalog.build("thm62-ppwave")
    rep = classify.classify(spec, np.array([0.3, 0.2, 0.4, -0.3]))
    assert rep.type_tag == "II"
    assert rep.nilpotency_degree == 2
    assert rep.causal_character == "lightlike"


def test_ex66_type_iii():
    spec = catalog.build("ex66-kundt")
    # at the second point B^2 is 0.009 max|A|^2, which a rank cutoff of
    # tol^(1/4) max|A|^2 would count as 0
    for p in ([0.3, 0.2, 0.9, 0.4],
              [0.82843383, 0.87346359, 0.60174078, 0.21565493]):
        rep = classify.classify(spec, np.array(p))
        assert rep.type_tag == "III"
        assert rep.nilpotency_degree == 3
        assert rep.causal_character == "lightlike"


def test_timelike_character():
    spec = catalog.build("cor36-2-tau-pos")
    rep = classify.classify(spec, np.array([0.3, 0.1, -0.2, 0.4]))
    assert rep.causal_character == "timelike"
    assert rep.gradh_sq < 0.0


def test_small_gradient_keeps_its_character():
    # dh ~ (-1.07e-6, 0, 0, 0): g(grad h, grad h) ~ -1.1e-12 is below the
    # absolute 1e-10 but far from null relative to |dh|^2
    spec = catalog.build("cor36-2-tau-pos")
    p = np.array([-0.27126084, 0.16438255, -0.14722529, -0.54547006])
    rep = classify.classify(spec, p)
    assert 0.0 < -rep.gradh_sq < 1e-10
    assert rep.causal_character == spec.flags["causal_character"] == "timelike"


def test_vanishing_gradient_raises():
    # h = A*phi'(t); phi' has a zero at t = 0 for the cos branch
    spec = catalog.build("cor36-1-kneg")
    with pytest.raises(VanishingGradient):
        classify.causal_character(
            tensor.frame_at(spec, np.array([[0.0, 0.1, 0.2, 0.3]])))


def test_report_dict():
    spec = catalog.build("thm62-ppwave")
    d = classify.classify(spec, np.array([0.3, 0.2, 0.4, -0.3])).as_dict()
    assert d["type"] == "II"
    assert d["causal_character"] == "lightlike"
    assert all(len(pair) == 2 for pair in d["eigenvalues"])


# ------------------------------------------------- chart independence oracle

def _pullback(e, x, memo):
    """``e`` with each coordinate node i replaced by the Expr ``x[i]``."""
    out = memo.get(id(e))
    if out is None:
        if e.kind == "coord":
            out = x[e.value]
        elif e.children:
            out = jets.Expr(e.kind, [_pullback(c, x, memo)
                                     for c in e.children], e.value)
        else:
            out = e
        memo[id(e)] = out
    return out


def _combine(coefs, exprs):
    """sum_k coefs[k] * exprs[k] as an Expr, skipping zero terms."""
    terms = [e if c == 1.0 else float(c) * e
             for c, e in zip(coefs, exprs) if c != 0.0]
    return sum(terms[1:], terms[0]) if terms else jets.const(0)


def _affine_pullback(spec, A, b, y0):
    """``spec`` in the chart x = A y + b around y0: every coordinate node
    substituted, and g pulled back to A^T g A."""
    n = spec.n
    y = [jets.coord(j) for j in range(n)]
    x = [_combine(list(A[i]) + [b[i]], y + [jets.const(1)])
         for i in range(n)]
    memo = {}
    g = [_pullback(spec.g[i][j], x, memo) for i in range(n) for j in range(n)]
    gy = {(k, l): _combine(np.outer(A[:, k], A[:, l]).ravel(), g)
          for k in range(n) for l in range(k, n)}
    return tensor.make_spec(spec.name, n, gy, _pullback(spec.h, x, memo),
                            [(c - 0.1, c + 0.1) for c in y0],
                            spec.signature)


def _charts(n, rng):
    """A permutation, diagonal scales with sign flips and a near-identity
    general linear map, each with a shift."""
    perm = np.eye(n)[rng.permutation(n)]
    flip = np.diag(rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n))
    general = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    return [(A, 0.1 * rng.normal(size=n)) for A in (perm, flip, general)]


@pytest.mark.parametrize("index,entry", list(enumerate(
    e.entry_id for e in catalog.list_entries())))
def test_ricci_type_is_chart_independent(index, entry):
    # metamorphic oracle: the Jordan type of g^-1 rho, its nilpotency
    # degree and the causal character of grad h are invariants, so every
    # affine chart must report what the manifest's chart reports
    spec = catalog.build(entry)
    want = cli._classify_at_probe(spec)
    p = want.point
    fr = tensor.frame_at(spec, p[None])
    for A, b in _charts(spec.n, np.random.default_rng([11, index])):
        y0 = np.linalg.solve(A, p - b)
        pulled = _affine_pullback(spec, A, b, y0)
        got = classify.classify(pulled, y0)
        assert ((got.type_tag, got.nilpotency_degree, got.causal_character)
                == (want.type_tag, want.nilpotency_degree,
                    want.causal_character)), A
        # rho and G^h are tensors: in the new chart T becomes A^T T A
        fy = tensor.frame_at(pulled, y0[None])
        for got_t, want_t in ((fy.ric0, fr.ric0), (weighted.gh_batch(fy),
                                                   weighted.gh_batch(fr))):
            np.testing.assert_allclose(got_t[0], A.T @ want_t[0] @ A,
                                       atol=1e-9 * weighted.solution_scale(fr))


def test_triple_block_survives_round_off_in_rho():
    # at this pullback of ex66-kundt the 3x3 block of g^-1 rho splits into
    # a real eigenvalue and a complex pair near the sqrt(tol) scale
    # threshold, so the last bits of rho used to decide between I.b,
    # IllConditioned and III.  The manifest's chart gives III there.  The
    # noise runs from the size of a change in the order of summation
    # (1e-13) to sizes that tagged most draws I.b before the cube-root band
    spec = catalog.build("ex66-kundt")
    index = [e.entry_id for e in catalog.list_entries()].index("ex66-kundt")
    A, b = _charts(spec.n, np.random.default_rng([11, index]))[2]
    x = np.array([0.84375, 0.74444, 0.7732, 0.05435])
    assert classify.classify(spec, x).type_tag == "III"
    y0 = np.linalg.solve(A, x - b)
    fr = tensor.frame_at(_affine_pullback(spec, A, b, y0), y0[None], 0)
    rho, ginv = fr.ric0[0], fr.ginv0[0]
    assert classify.jordan_type(ginv @ rho)[0::2] == ("III", 3)
    rng = np.random.default_rng(17)
    for size in (1e-13, 1e-11, 1e-9):
        for _ in range(20):
            noise = rng.normal(size=(4, 4))
            noise += noise.T
            noise *= size * np.abs(rho).max() / np.abs(noise).max()
            got = classify.jordan_type(ginv @ (rho + noise))
            assert got[0::2] == ("III", 3), size


# ------------------------------------------------------------ optical scalars

def test_planewave_kundt_scalars_vanish():
    spec = catalog.build("thm11-planewave")
    V = catalog.kundt_vector_exprs(spec)
    th, sg, om = classify.optical_scalars(
        spec, V, np.array([0.2, -0.3, 0.1, 0.4]))
    assert abs(th) < 1e-10
    assert abs(sg) < 1e-10
    assert abs(om) < 1e-10


def test_ex66_kundt_scalars_vanish():
    spec = catalog.build("ex66-kundt")
    V = catalog.kundt_vector_exprs(spec)
    th, sg, om = classify.optical_scalars(
        spec, V, np.array([0.3, 0.2, 0.9, 0.4]))
    assert max(abs(th), abs(sg), abs(om)) < 1e-9


def test_not_lightlike_raises():
    spec = catalog.build("thm11-planewave")
    # d/dx1 is spacelike in a pp-wave chart
    V = [jets.const(0.0), jets.const(0.0),
         jets.const(1.0), jets.const(0.0)]
    with pytest.raises(NotLightlike):
        classify.optical_scalars(spec, V, np.array([0.2, -0.3, 0.1, 0.4]))


def test_not_geodesic_raises():
    spec = catalog.build("minkowski")
    y = jets.coord(2)
    # null everywhere (cos^2 + sin^2 = 1) but curling in the x-y plane
    V = [jets.const(1.0), jets.cos(y), jets.sin(y), jets.const(0.0)]
    with pytest.raises(NotGeodesic):
        classify.optical_scalars(spec, V, np.array([0.1, 0.2, 0.7, -0.3]))

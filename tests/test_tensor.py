import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from wefe import catalog, classify, jets, tensor, weighted
from wefe.constants import RICCI_SIGN, RIEMANN_SIGN
from wefe.errors import (DimensionError, DomainError, SignatureMismatch,
                         SingularMetric)
from wefe.jets import const, coord, cos, exp, parse_sexpr, sin
from wefe.sampling import resolve_seed, sample_box
from wefe.tensor import Frame, frame_at, kn_product, make_spec

from oracles import multiply_warped_ricci


def round_sphere_spec(r=1.0):
    # stereographic chart of S^3(r): g = 4r^4/(r^2+|x|^2)^2 delta
    chart = f"(mul (mul {4 * r ** 4} 1) (pow (add {r * r} (add (mul x x) (add (mul y y) (mul z z)))) -2))"
    g = {(i, i): parse_sexpr(chart, ("x", "y", "z")) for i in range(3)}
    return make_spec("sphere", 3, g, const(1), [(-0.5, 0.5)] * 3,
                     "riemannian", ("x", "y", "z"))


def test_sphere_scalar_curvature():
    spec = round_sphere_spec(1.0)
    pts = sample_box(spec.box, 10, 0)
    for p in pts:
        assert frame_at(spec, p[None]).tau0[0] == pytest.approx(6.0,
                                                               rel=1e-10)


def test_sphere_einstein():
    spec = round_sphere_spec(2.0)
    p = np.array([0.1, -0.2, 0.3])
    fr = frame_at(spec, p[None])
    rho = fr.ric0[0]
    g = fr.g0[0]
    # rho = (n-1)/r^2 g = 0.5 g
    np.testing.assert_allclose(rho, 0.5 * g, atol=1e-12)


def test_flat_space_riemann_vanishes():
    spec = catalog.build("minkowski")
    p = np.array([0.3, -0.1, 0.2, 0.4])
    assert np.abs(frame_at(spec, p[None]).riemann0[0]).max() < 1e-14


@pytest.mark.parametrize(
    "entry", [e.entry_id for e in catalog.list_entries()])
def test_riemann_symmetries(entry):
    # R is antisymmetric in (i, j) and in (k, l) to the last bit, with
    # any BLAS kernel; pair symmetry and Bianchi hold to round-off
    spec = catalog.build(entry)
    R = frame_at(spec, sample_box(spec.box, 20, 0)).riemann0
    assert np.array_equal(R, -np.swapaxes(R, 1, 2))
    assert np.array_equal(R, -np.swapaxes(R, 3, 4))
    np.testing.assert_allclose(R, np.transpose(R, (0, 3, 4, 1, 2)),
                               atol=1e-12)
    bianchi = (R + np.transpose(R, (0, 2, 3, 1, 4))
               + np.transpose(R, (0, 3, 1, 2, 4)))
    assert np.abs(bianchi).max() < 1e-12


def test_frame_at_never_returns_a_stale_frame():
    # frame_at builds every Frame from the spec it is given, so a rebuilt
    # spec with the same box and points never reads an older spec's fields
    pts = sample_box(catalog.build("ex66-kundt").box, 2, 1)
    for k in range(48):
        spec = catalog.build("ex66-kundt", C=0.5 + 0.05 * k)
        fr = frame_at(spec, pts)
        assert fr.spec is spec
        # g_22 = C / (2 + sin v)^4
        C, v = 0.5 + 0.05 * k, pts[:, 1]
        np.testing.assert_allclose(
            fr.g0[:, 2, 2], C / (2.0 + np.sin(v)) ** 4, rtol=1e-14)
        del spec, fr


ORDER0_FIELDS = ("g0", "ginv0", "gamma0", "riemann0", "ric0", "tau0", "h0",
                 "dh", "gradh", "gradh_sq")


@pytest.mark.parametrize(
    "entry", [e.entry_id for e in catalog.list_entries()])
def test_order0_frame_equals_order1_fields(entry):
    # the order-0 Frame that classify reads is the order-1 one without
    # its derivative stage, to the last bit
    spec = catalog.build(entry)
    pts = sample_box(spec.box, 20, 0)
    f0, f1 = Frame(spec, pts, 0), Frame(spec, pts)
    for name in ORDER0_FIELDS:
        assert np.array_equal(getattr(f0, name), getattr(f1, name)), name
    assert not hasattr(f0, "cotton0")


def test_frame_at_builds_the_order_asked_for():
    spec = catalog.build("ex66-kundt")
    p = sample_box(spec.box, 1, 5)
    assert not hasattr(frame_at(spec, p, 0), "cotton0")
    assert frame_at(spec, p).cotton0.shape == (1, 4, 4, 4)


def test_frame_at_builds_a_new_frame_on_every_call():
    spec = catalog.build("ex66-kundt")
    p = sample_box(spec.box, 1, 5)
    a, b = frame_at(spec, p), frame_at(spec, p)
    assert a is not b
    assert np.array_equal(a.ric0, b.ric0)


def test_no_frame_stays_reachable(monkeypatch):
    # frame_at returns a new Frame and keeps no reference to it, and
    # neither do verify and classify, so after gc.collect() no Frame that
    # they built is reachable
    refs = []

    class Tracked(Frame):
        def __init__(self, spec, pts, order=1):
            super().__init__(spec, pts, order)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(tensor, "Frame", Tracked)
    spec = catalog.build("ex66-kundt")
    p = sample_box(spec.box, 1, 5)
    for order in (0, 1, 0):
        frame_at(spec, p, order)
    weighted.verify(spec, samples=4)
    classify.classify(spec, p[0])
    gc.collect()
    assert len(refs) == 5
    assert all(r() is None for r in refs)


# -- the Frame's metric stages against the formulas they replaced -------

def _metric_stages(spec, pts, k):
    """As Frame._compute forms them: the order-k context, the packed
    metric jets gP at order k + 2, their order-k jets gk unpacked to
    (n, n, m, N) and the numeric inverse."""
    n = spec.n
    ck2, ck = jets.jet_context(n, k + 2), jets.jet_context(n, k)
    gP = jets.eval_jets([spec.g[i][j] for i in range(n)
                         for j in range(i, n)], pts, ck2)
    gk = gP[..., :ck.N][ck.pair_index]
    ginv0 = np.linalg.inv(gk[..., 0].transpose(2, 0, 1))
    return ck, gP, gk, ginv0


def _newton_by_contract(ck, gk, ginv0):
    """The jet-ring Newton step 2X - X(gX) from the constant jet X of the
    numeric inverse, as two contract calls."""
    X = np.zeros_like(gk)
    X[..., 0] = ginv0.transpose(1, 2, 0)
    return 2.0 * X - ck.contract(X, ck.contract(gk, X))


def _rho_jets_by_wbc(spec, pts, k):
    """Oracle for rho's order-k jets, its second-derivative term as
    (W + W^T - B - C)/2 over the n^4 jets F[i, j, k, l] = d_i d_k g_jl:
    W_kj = g^il d_i d_k g_jl and B_jk + C_jk = g^il (d_i d_l g_jk
    + d_j d_k g_il) over the pairs; its quadratic term as the Frame's."""
    ck, gP, gk, ginv0 = _metric_stages(spec, pts, k)
    n, m, N, S = spec.n, pts.shape[0], ck.N, ck.pair_index
    ck1, ck2 = jets.jet_context(n, k + 1), jets.jet_context(n, k + 2)
    ginvJ = _newton_by_contract(ck, gk, ginv0)
    d2 = ck2.hess(gP)
    F = d2[S[:, None, :, None], S[None, :, None, :]]
    W = ck.contract(ginvJ.reshape(n * n, m, N), F.reshape(n * n, n, n, m, N))
    gw = ginvJ[ck.pairs] * ck.pair_weight[:, None, None]
    BC = ck.contract(gw, d2 + d2.transpose(1, 0, 2, 3))[S]
    dgJ = ck1.grad(gP[..., :ck1.N])[:, S]
    low = 0.5 * (dgJ.transpose(2, 0, 1, 3, 4) + dgJ.transpose(2, 1, 0, 3, 4)
                 - dgJ)
    up = ck.contract(ginvJ, low)
    Y = ck.contract(ginvJ, low.transpose(2, 0, 1, 3, 4))
    Y[np.arange(n), :, np.arange(n)] -= np.trace(Y, axis1=0, axis2=2)
    quad = ck.contract(Y.transpose(2, 0, 1, 3, 4).reshape(n, n * n, m, N),
                       up.transpose(1, 0, 2, 3, 4).reshape(n * n, n, m, N))
    lin = 0.5 * (W + W.transpose(1, 0, 2, 3) - BC)
    return ck, lin, RICCI_SIGN * (lin + quad)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("entry", catalog.entry_ids())
def test_closed_form_inverse_is_the_newton_step_bit_for_bit(entry, order):
    spec = catalog.build(entry)
    ck, _, gk, ginv0 = _metric_stages(spec, sample_box(spec.box, 20, 0),
                                      order)
    got = tensor._inverse_jets(gk, ginv0)
    want = _newton_by_contract(ck, gk, ginv0)
    assert got.shape == want.shape
    assert (np.ascontiguousarray(got).tobytes()
            == np.ascontiguousarray(want).tobytes())
    # g g^-1 = I through order 1: the identity value, no derivative
    eye = ck.contract(gk, got)
    np.testing.assert_allclose(eye[..., 0], np.broadcast_to(
        np.eye(spec.n)[:, :, None], eye.shape[:-1]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(eye[..., 1:], 0.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("entry", catalog.entry_ids())
def test_packed_rho_term_matches_the_wbc_formula(entry, order):
    # rho's values and, at order 1, its first derivatives, which the
    # Frame keeps as cov_ric less the Christoffel terms; round-off is
    # relative to the second-derivative term, which in ex66-kundt is
    # 100 times rho
    spec = catalog.build(entry)
    pts = sample_box(spec.box, 20, 0)
    fr = Frame(spec, pts, order)
    ck, lin, want = _rho_jets_by_wbc(spec, pts, order)
    scale = max(1.0, float(np.abs(lin).max()))
    np.testing.assert_allclose(fr.ric0, want[..., 0].transpose(2, 0, 1),
                               rtol=0, atol=1e-14 * scale)
    if order == 1:
        G, r0 = fr.gamma0, fr.ric0
        d_ric = (fr.cov_ric + np.einsum("msab,msc->mabc", G, r0)
                 + np.einsum("msac,mbs->mabc", G, r0))
        np.testing.assert_allclose(
            d_ric, ck.grad(want)[..., 0].transpose(3, 0, 1, 2),
            rtol=0, atol=1e-14 * scale)


def _root(a):
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("m, order", [(100, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("entry", ["ex37-warped3d", "ex66-kundt"])
def test_frame_fields_are_not_views_into_larger_arrays(entry, m, order):
    # a kept Frame holds its values, and no jet array they were read from
    spec = catalog.build(entry)
    fr = Frame(spec, sample_box(spec.box, m, 0), order)
    fields = {k: v for k, v in vars(fr).items() if isinstance(v, np.ndarray)}
    assert set(ORDER0_FIELDS) <= set(fields)
    for name, a in fields.items():
        assert _root(a).nbytes == a.nbytes, name


@pytest.mark.parametrize("entry", ["cor36-1-kpos", "ex66-kundt"])
def test_frame_frees_each_stage_after_its_last_reader(entry):
    # the 100-point order-1 Frame of wefe verify: it keeps 0.63 MB, and
    # with every stage's jets held to the end of _compute its working
    # set peaked at 4.67 MB
    spec = catalog.build(entry)
    pts = sample_box(spec.box, 100, 0)
    Frame(spec, pts)                # jet contexts and pair tables, once
    tracemalloc.start()
    try:
        Frame(spec, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


@pytest.mark.parametrize("order", [-1, 2, 3, 1.5])
def test_frame_rejects_orders_other_than_0_and_1(order):
    spec = catalog.build("ex66-kundt")
    with pytest.raises(ValueError, match=f"Frame order {order} is not 0 or 1"):
        Frame(spec, sample_box(spec.box, 1, 5), order)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize(
    "entry", [e.entry_id for e in catalog.list_entries()])
def test_ricci_is_the_trace_of_riemann(entry, order):
    # Ricci comes straight from the Christoffel symbols, Riemann from the
    # order-0 slices: the metric trace of one must give the other
    spec = catalog.build(entry)
    fr = Frame(spec, sample_box(spec.box, 20, 0), order)
    want = RICCI_SIGN * np.einsum("mil,mijkl->mjk", fr.ginv0,
                                  RIEMANN_SIGN * fr.riemann0)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(fr.ric0 - want).max() <= 1e-12 * scale


def bumpy_spec():
    # every catalog entry has constant tau: this Lorentzian chart metric
    # has a scalar curvature that varies across its box
    names = ("t", "x", "y", "z")
    g = {key: parse_sexpr(text, names) for key, text in {
        (0, 0): "(neg (add 1 (mul 0.2 (mul x x))))",
        (0, 1): "(mul 0.1 y)",
        (1, 1): "(exp (mul 0.3 t))",
        (2, 2): "(add 1 (mul 0.1 (mul y z)))",
        (3, 3): "(add 2 (sin x))"}.items()}
    return make_spec("bumpy", 4, g, parse_sexpr("(add 2 x)", names),
                     [(-0.5, 0.5)] * 4, "lorentzian", names)


@pytest.mark.parametrize("build", [
    lambda: catalog.build("ex66-kundt"),
    lambda: catalog.build("cor36-2-tau-pos"),
    bumpy_spec], ids=["ex66-kundt", "cor36-2-tau-pos", "bumpy"])
def test_first_derivatives_match_central_differences(build):
    # d tau and d rho (cov_ric plus its two Gamma rho terms) against
    # central differences of tau0 and ric0 from Frames at p +- h e_a
    spec = build()
    pts = sample_box(spec.box, 6, 0)
    n, m, h = spec.n, len(pts), 1e-4
    fr = Frame(spec, pts)
    g, r = fr.gamma0, fr.ric0
    d_ric = (fr.cov_ric + np.einsum("msab,msc->mabc", g, r)
             + np.einsum("msac,mbs->mabc", g, r))
    step = h * np.eye(n)
    shifted = np.concatenate([pts[:, None] + step, pts[:, None] - step])
    pm = Frame(spec, shifted.reshape(-1, n), 0)
    tau_pm, ric_pm = (x.reshape((2, m, n) + x.shape[1:])
                      for x in (pm.tau0, pm.ric0))
    fd_tau = (tau_pm[0] - tau_pm[1]) / (2.0 * h)
    fd_ric = (ric_pm[0] - ric_pm[1]) / (2.0 * h)
    for got, want in ((fr.d_tau, fd_tau), (d_ric, fd_ric)):
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-6 * scale


@pytest.mark.parametrize("build", [
    lambda: catalog.build("ex37-warped3d"),
    lambda: catalog.build("ex52-liegroup"),
    bumpy_spec], ids=["ex37-warped3d", "ex52-liegroup", "bumpy"])
def test_cotton_matches_central_differences_of_schouten(build):
    # cotton0[x, y, z] = (n - 2)(nabla_y P_xz - nabla_z P_xy), which is
    # d_y P_xz - d_z P_xy - Gamma^s_yx P_sz + Gamma^s_zx P_sy, against
    # central differences of P = (rho - J g)/(n - 2) from order-0 Frames
    # at p +- h e_a.  Frame takes nabla P from nabla rho and d tau instead
    spec = build()
    pts = sample_box(spec.box, 6, 0)
    n, m, h = spec.n, len(pts), 1e-4

    def schouten(fr):
        J = fr.tau0 / (2.0 * (n - 1.0))
        return (fr.ric0 - J[:, None, None] * fr.g0) / (n - 2.0)

    fr = Frame(spec, pts)
    P, G = schouten(fr), fr.gamma0
    step = h * np.eye(n)
    shifted = np.concatenate([pts[:, None] + step, pts[:, None] - step])
    p_pm = schouten(Frame(spec, shifted.reshape(-1, n), 0)).reshape(
        2, m, n, n, n)
    dP = (p_pm[0] - p_pm[1]) / (2.0 * h)         # dP[m, a, b, c] = d_a P_bc
    want = (n - 2.0) * (np.einsum("myxz->mxyz", dP)
                        - np.einsum("mzxy->mxyz", dP)
                        - np.einsum("msyx,msz->mxyz", G, P)
                        + np.einsum("mszx,msy->mxyz", G, P))
    scale = max(1.0, np.abs(want).max())
    assert np.abs(fr.cotton0 - want).max() <= 1e-6 * scale


def sphere_spec(n, r):
    # stereographic chart of S^n(r): g = 4 r^4 / (r^2 + |x|^2)^2 delta
    x = [coord(i) for i in range(n)]
    q = const(r * r)
    for xi in x:
        q = q + xi * xi
    conf = const(4.0 * r ** 4) * q ** -2
    return make_spec(f"sphere{n}", n, {(i, i): conf for i in range(n)},
                     const(1), [(-0.5, 0.5)] * n, "riemannian")


def warped_spec(n):
    # -dt^2 + f(t)^2 delta on R^(n-1), f = 3/2 + sin t
    f = const(1.5) + sin(coord(0))
    g = {(i, i): f * f for i in range(1, n)}
    g[(0, 0)] = const(-1)
    return make_spec(f"warped{n}", n, g, const(2) + coord(1),
                     [(-0.5, 0.5)] * n, "lorentzian")


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("n", [5, 6])
def test_round_sphere_in_dimensions_5_and_6(n, order):
    r = 1.5
    fr = Frame(sphere_spec(n, r), sample_box([(-0.5, 0.5)] * n, 8, 0), order)
    np.testing.assert_allclose(fr.ric0, (n - 1) / r ** 2 * fr.g0, atol=1e-12)
    np.testing.assert_allclose(fr.tau0, n * (n - 1) / r ** 2, rtol=1e-12)
    if order:
        assert np.abs(fr.d_tau).max() < 1e-11
        assert np.abs(fr.weyl0).max() < 1e-11
        assert np.abs(fr.cotton0).max() < 1e-11


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("n", [5, 6])
def test_lorentzian_warped_product_in_dimensions_5_and_6(n, order):
    pts = sample_box([(-0.5, 0.5)] * n, 8, 0)
    fr = Frame(warped_spec(n), pts, order)
    d = n - 1
    for p, ric in zip(pts, fr.ric0):
        t = p[0]
        want = multiply_warped_ricci(-1.0, [(
            1.5 + np.sin(t), np.cos(t), -np.sin(t), np.zeros((d, d)),
            np.eye(d))])
        np.testing.assert_allclose(ric, want, atol=1e-12)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("build", [
    lambda: sphere_spec(5, 1.5), lambda: sphere_spec(6, 0.75),
    lambda: warped_spec(5), lambda: warped_spec(6)],
    ids=["sphere5", "sphere6", "warped5", "warped6"])
def test_riemann_symmetries_and_ricci_trace_in_dimensions_5_and_6(build,
                                                                  order):
    spec = build()
    fr = Frame(spec, sample_box(spec.box, 8, 0), order)
    R = fr.riemann0
    np.testing.assert_allclose(R, -np.swapaxes(R, 1, 2), atol=1e-12)
    np.testing.assert_allclose(R, -np.swapaxes(R, 3, 4), atol=1e-12)
    np.testing.assert_allclose(R, np.transpose(R, (0, 3, 4, 1, 2)),
                               atol=1e-12)
    bianchi = (R + np.transpose(R, (0, 2, 3, 1, 4))
               + np.transpose(R, (0, 3, 1, 2, 4)))
    assert np.abs(bianchi).max() < 1e-12
    want = RICCI_SIGN * np.einsum("mil,mijkl->mjk", fr.ginv0,
                                  RIEMANN_SIGN * R)
    assert np.abs(fr.ric0 - want).max() <= 1e-12 * max(1.0,
                                                      np.abs(want).max())


def test_contracted_bianchi():
    spec = catalog.build("ex66-kundt")
    pts = sample_box(spec.box, 5, 1)
    fr = frame_at(spec, pts)
    # 2 div rho = d tau
    div_rho = np.einsum("pmn,pmnb->pb", fr.ginv0, fr.cov_ric)
    assert np.abs(2 * div_rho - fr.d_tau).max() < 1e-9


def test_weyl_trace_free():
    spec = catalog.build("ex52-liegroup")
    p = np.array([0.15, 0.2, -0.3, 0.1])
    fr = frame_at(spec, p.reshape(1, -1))
    W = fr.weyl0[0]
    ginv = fr.ginv0[0]
    tr = np.einsum("ik,ijkl->jl", ginv, W)
    assert np.abs(tr).max() < 1e-11


def test_kulkarni_nomizu_symmetries():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4)); A = A + A.T
    B = rng.normal(size=(4, 4)); B = B + B.T
    T = kn_product(A[None], B[None])[0]
    np.testing.assert_allclose(T, -np.swapaxes(T, 0, 1), atol=1e-12)
    np.testing.assert_allclose(T, np.transpose(T, (2, 3, 0, 1)),
                               atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_kulkarni_nomizu_matches_four_einsums(n):
    rng = np.random.default_rng(n)
    A = rng.normal(size=(7, n, n)); A = A + np.swapaxes(A, 1, 2)
    B = rng.normal(size=(7, n, n)); B = B + np.swapaxes(B, 1, 2)
    want = (np.einsum("mik,mjl->mijkl", A, B)
            + np.einsum("mjl,mik->mijkl", A, B)
            - np.einsum("mil,mjk->mijkl", A, B)
            - np.einsum("mjk,mil->mijkl", A, B))
    np.testing.assert_allclose(kn_product(A, B), want, rtol=0, atol=1e-13)


def test_cotton_equals_div_riemann():
    # both encode harmonic curvature failure; they must agree identically
    spec = catalog.build("ex52-liegroup")
    pts = sample_box(spec.box, 5, 2)
    fr = frame_at(spec, pts)
    cr = fr.cov_ric
    div_riemann = (np.einsum("myxz->mxyz", cr) - np.einsum("mzxy->mxyz", cr))
    np.testing.assert_allclose(fr.cotton0, div_riemann, atol=1e-10)
    assert np.abs(fr.cotton0).max() > 1e-2  # genuinely non-harmonic


def test_hessian_of_coordinate_in_flat_space():
    spec = catalog.build("minkowski")
    p = np.array([0.1, 0.2, 0.3, 0.4])
    hes = frame_at(spec, p[None]).hes0[0]
    assert np.abs(hes).max() < 1e-13  # h = 2 + x is affine


def _x_spec(name, g00, h):
    # diag(g00, 1, 1) on a 3D chart, Riemannian
    g = {(0, 0): g00, (1, 1): const(1), (2, 2): const(1)}
    return make_spec(name, 3, g, h, [(-0.5, 0.5)] * 3, "riemannian",
                     ("x", "y", "z"))


# the first point is fine, the second fails: the error names index 1
_TWO_POINTS = np.array([[0.25, 0.0, 0.0], [-0.5, 0.125, -0.25]])
_SECOND = r"sample point 1 \(-0.5, 0.125, -0.25\)"


def test_singular_metric_raises():
    spec = _x_spec("sing", coord(0), const(1))
    with pytest.raises((SingularMetric, SignatureMismatch),
                       match=r"sample point 0 \(0, 0, 0\)"):
        Frame(spec, np.array([[0.0, 0.0, 0.0]]))
    pts = _TWO_POINTS.copy()
    pts[1, 0] = 0.0
    with pytest.raises(SingularMetric,
                       match=r"sing: .* sample point 1 \(0, 0.125, -0.25\)"):
        Frame(spec, pts)


def test_signature_mismatch_raises():
    g = {(0, 0): const(-1), (1, 1): const(1), (2, 2): const(1)}
    spec = make_spec("wrong", 3, g, const(1), [(-0.5, 0.5)] * 3,
                     "riemannian", ("t", "x", "y"))
    with pytest.raises(SignatureMismatch,
                       match=r"sample point 0 \(0, 0, 0\)"):
        Frame(spec, np.zeros((1, 3)))
    spec = _x_spec("flip", coord(0), const(1))
    with pytest.raises(SignatureMismatch, match=r"flip: .* " + _SECOND):
        Frame(spec, _TWO_POINTS)


def test_non_positive_density_raises():
    spec = _x_spec("dens", const(1), coord(0))
    with pytest.raises(DomainError,
                       match=r"dens: density not positive at " + _SECOND):
        Frame(spec, _TWO_POINTS)


def test_dimension_bounds():
    with pytest.raises(DimensionError):
        make_spec("tiny", 2, {(0, 0): const(1), (1, 1): const(1)}, const(1),
                  [(-1, 1)] * 2, "riemannian", ("x", "y"))


def test_warped_ricci_cone():
    # cone over the unit 2-sphere: fiber block must be (1 - (phi')^2) g^F
    p_f = np.array([0.1, -0.2])
    chart = 4.0 / (1.0 + p_f @ p_f) ** 2
    gF = chart * np.eye(2)
    rhoF = 1.0 * gF  # Gauss curvature 1
    t = 1.3
    rho = multiply_warped_ricci(1.0, [(t, 1.0, 0.0, rhoF, gF)])
    expect = np.zeros((3, 3))
    expect[1:, 1:] = (1.0 - 1.0) * gF  # kappa - (phi')^2 with kappa = 1
    np.testing.assert_allclose(rho, expect, atol=1e-14)


def _fiber_values(kappa, pts):
    # conformal chart of a 3d constant-curvature space at fiber points
    r2 = np.einsum("pi,pi->p", pts, pts)
    chart = (1.0 + kappa / 4.0 * r2) ** -2
    g = chart[:, None, None] * np.eye(3)
    return 2.0 * kappa * g, g  # ricci = (d-1) kappa g, metric


@pytest.mark.parametrize("entry,kappa", [
    ("cor36-2-tau-pos", -1.0), ("cor36-2-tau-neg", 1.0),
    ("cor36-2-tau-zero", -1.0),
])
def test_warped_ricci_matches_full_computation(entry, kappa):
    spec = catalog.build(entry)
    pts = sample_box(spec.box, 8, 0)
    fr = frame_at(spec, pts)
    import wefe.jets as J
    dh = 1e-4
    for i, p in enumerate(pts):
        # phi^2 = -g_xx / chart at the fiber point
        rhoF, gF = _fiber_values(kappa, p[1:].reshape(1, 3))
        gxx = fr.g0[i, 1, 1]
        phi2 = gxx / gF[0, 0, 0]
        phi = np.sqrt(phi2)
        # numeric t-derivatives of phi from nearby frames
        specs = [np.concatenate([[p[0] + s * dh], p[1:]]) for s in (-1, 0, 1)]
        vals = [np.sqrt(frame_at(spec, q[None]).g0[0, 1, 1] / gF[0, 0, 0])
                for q in specs]
        phip = (vals[2] - vals[0]) / (2 * dh)
        phipp = (vals[2] - 2 * vals[1] + vals[0]) / dh ** 2
        rho = multiply_warped_ricci(-1.0,
                                    [(phi, phip, phipp, rhoF[0], gF[0])])
        np.testing.assert_allclose(rho, fr.ric0[i], atol=1e-6)


def test_multiply_warped_two_fibers():
    # line x (constant fiber) x (scaled flat plane): matches full Ricci
    spec = catalog.build("lemma46-multiwarp", K1=1.2, K2=0.8)
    p = np.array([1.1, 0.3, -0.2, 0.4])
    t = p[0]
    K1 = 1.2
    f = K1 * t ** (2 / 3)
    fp = (2 / 3) * K1 * t ** (-1 / 3)
    fpp = -(2 / 9) * K1 * t ** (-4 / 3)
    rho = multiply_warped_ricci(1.0, [
        (1.0, 0.0, 0.0, np.zeros((1, 1)), np.array([[-1.0]])),
        (f, fp, fpp, np.zeros((2, 2)), np.eye(2)),
    ])
    full = frame_at(spec, p[None]).ric0[0]
    np.testing.assert_allclose(rho, full, atol=1e-9)


ORDER0_FIELDS = ("g0", "ginv0", "gamma0", "riemann0", "ric0", "tau0", "h0",
                 "dh", "gradh", "gradh_sq")
ORDER1_FIELDS = ("d_tau", "hes0", "lap0", "scalar_j0", "cov_ric", "cotton0",
                 "weyl0")


def _assert_rows_alone_match_plan(spec, rows, orders):
    """Every field of a one-point Frame of each order in ``orders`` at
    each plan row in ``rows`` equals that row of the 100-point plan's
    order-1 Frame, bit for bit."""
    plan = sample_box(spec.box, 100, resolve_seed())
    whole = Frame(spec, plan, 1)
    for i in rows:
        for order in orders:
            alone = Frame(spec, plan[i:i + 1], order)
            for name in ORDER0_FIELDS + (ORDER1_FIELDS if order else ()):
                got, want = getattr(alone, name), getattr(whole, name)
                if want is None:        # weyl0 below dimension 4
                    assert got is None
                    continue
                np.testing.assert_array_equal(got[0], want[i],
                                              err_msg=f"{i} {order} {name}")


@pytest.mark.parametrize("eid", catalog.entry_ids())
def test_point_fields_do_not_depend_on_frame_size(eid):
    # a point's curvature is bit for bit the same alone in a one-point
    # Frame of either order as in a row of the 100-point plan Frame
    _assert_rows_alone_match_plan(catalog.build(eid), (0, 1, 7, 50, 99),
                                  (0, 1))


def _generated_spec(n):
    """A diagonal Lorentzian metric whose components mix up to four
    coordinates: g_ii = +-(2 + 0.1 sin(x0 + 0.3 x1) exp(0.2 x_{n-1} +
    x0 x1) cos x_i), minus for i = 0, with h = 2 + sin(x0 + 0.5 x1 x2)
    on [-0.5, 0.5]^n."""
    x = [coord(i) for i in range(n)]
    wave = 0.1 * sin(x[0] + 0.3 * x[1]) * exp(0.2 * x[n - 1] + x[0] * x[1])
    g = {(i, i): 2 + wave * cos(x[i]) for i in range(n)}
    g[0, 0] = -g[0, 0]
    h = 2 + sin(x[0] + 0.5 * x[1] * x[2])
    return make_spec(f"generated-{n}d", n, g, h, [(-0.5, 0.5)] * n)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_generated_point_fields_do_not_depend_on_frame_size(n):
    # as above in the dimensions the catalog lacks, at every third row
    _assert_rows_alone_match_plan(_generated_spec(n), range(0, 100, 3), (1,))

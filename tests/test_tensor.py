import numpy as np
import pytest

from wefe import catalog, jets, tensor
from wefe.errors import DimensionError, SignatureMismatch, SingularMetric
from wefe.jets import const, coord, exp, parse_sexpr
from wefe.sampling import sample_box
from wefe.tensor import (Frame, frame_at, kn_product, make_spec,
                         multiply_warped_ricci, warped_ricci)


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


def test_riemann_symmetries():
    spec = catalog.build("ex52-liegroup")
    p = np.array([0.2, -0.3, 0.1, 0.25])
    R = frame_at(spec, p[None]).riemann0[0]
    np.testing.assert_allclose(R, -np.swapaxes(R, 0, 1), atol=1e-12)
    np.testing.assert_allclose(R, -np.swapaxes(R, 2, 3), atol=1e-12)
    np.testing.assert_allclose(R, np.transpose(R, (2, 3, 0, 1)), atol=1e-12)
    bianchi = R + np.transpose(R, (1, 2, 0, 3)) + np.transpose(R, (2, 0, 1, 3))
    assert np.abs(bianchi).max() < 1e-12


def test_frame_cache_never_returns_a_stale_frame():
    # the cache is keyed on id(spec), but each cached Frame holds its spec
    # alive, so a rebuilt spec with the same box cannot reuse a cached id
    pts = sample_box(catalog.build("ex66-kundt").box, 2, 1)
    for k in range(3 * tensor._FRAME_CACHE_SIZE):
        spec = catalog.build("ex66-kundt", C=0.5 + 0.05 * k)
        fr = frame_at(spec, pts)
        assert fr.spec is spec
        np.testing.assert_allclose(
            fr.g0[:, 2, 2], jets.eval_values(spec.g[2][2], pts), rtol=1e-14)
        del spec, fr


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


def test_cotton_equals_div_riemann():
    # both encode harmonic curvature failure; they must agree identically
    spec = catalog.build("ex52-liegroup")
    pts = sample_box(spec.box, 5, 2)
    fr = frame_at(spec, pts)
    np.testing.assert_allclose(fr.cotton0, fr.div_riemann0, atol=1e-10)
    assert np.abs(fr.cotton0).max() > 1e-2  # genuinely non-harmonic


def test_hessian_of_coordinate_in_flat_space():
    spec = catalog.build("minkowski")
    p = np.array([0.1, 0.2, 0.3, 0.4])
    hes = frame_at(spec, p[None]).hes0[0]
    assert np.abs(hes).max() < 1e-13  # h = 2 + x is affine


def test_singular_metric_raises():
    g = {(0, 0): coord(0), (1, 1): const(1), (2, 2): const(1)}
    spec = make_spec("sing", 3, g, const(1), [(-0.5, 0.5)] * 3,
                     "riemannian", ("x", "y", "z"))
    with pytest.raises((SingularMetric, SignatureMismatch)):
        Frame(spec, np.array([[0.0, 0.0, 0.0]]))


def test_signature_mismatch_raises():
    g = {(0, 0): const(-1), (1, 1): const(1), (2, 2): const(1)}
    spec = make_spec("wrong", 3, g, const(1), [(-0.5, 0.5)] * 3,
                     "riemannian", ("t", "x", "y"))
    with pytest.raises(SignatureMismatch):
        Frame(spec, np.zeros((1, 3)))


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
    rho = warped_ricci(1.0, t, 1.0, 0.0, rhoF, gF)
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
        rho = warped_ricci(-1.0, phi, phip, phipp, rhoF[0], gF[0])
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

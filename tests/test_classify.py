"""Jordan classification, causal tags and optical scalars."""

import numpy as np
import pytest

from wefe import catalog, classify, jets, tensor
from wefe.errors import (IllConditioned, NotGeodesic, NotLightlike,
                         VanishingGradient)


# ---------------------------------------------------------------- jordan_type

def test_jordan_diagonal():
    tag, eig, deg = classify.jordan_type(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert tag == "I.a"
    assert deg == 0
    assert [e.real for e in eig] == [1.0, 2.0, 3.0, 4.0]


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
    rep = classify.classify(spec, np.array([0.3, 0.2, 0.9, 0.4]))
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

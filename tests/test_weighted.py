import dataclasses
import itertools

import numpy as np
import pytest

from wefe import catalog, weighted
from wefe.jets import parse_sexpr
from wefe.sampling import sample_box
from wefe.tensor import frame_at

SOLUTION_IDS = [e for e in catalog.entry_ids()
                if catalog.get_entry(e).flags.get("is_solution")]


@pytest.mark.parametrize("entry", SOLUTION_IDS)
def test_field_equations_hold(entry):
    spec = catalog.build(entry)
    rep, _ = weighted.verify(spec, samples=50, seed=0)
    assert rep.is_solution, rep.residuals
    assert rep.mismatches == []


def test_gh_tensor_pointwise():
    spec = catalog.build("ex52-liegroup")
    fr = frame_at(spec, np.array([[0.1, 0.2, -0.1, 0.3]]))
    assert np.abs(weighted.gh_batch(fr)[0]).max() < 1e-12


def test_scaled_density_not_a_solution():
    spec = catalog.build("ex52-liegroup")
    bad_h = parse_sexpr("(exp (mul -99/100 t))", spec.coords)
    bad = dataclasses.replace(spec, h=bad_h)
    rep, _ = weighted.verify(bad, samples=50, seed=0)
    assert not rep.is_solution
    assert rep.residuals["gh_residual"] > 1e-4


def test_constant_tau_on_solutions():
    for entry in ("ex52-liegroup", "ex66-kundt", "thm41-surfaces"):
        spec = catalog.build(entry)
        assert weighted.verify(spec, samples=40, seed=0)[0].constant_tau


def test_laplacian_identity():
    # trace of the field equations: n Delta h = -h tau ... Delta h = -h tau/(n-1)
    spec = catalog.build("thm41-surfaces")
    pts = sample_box(spec.box, 30, 0)
    fr = frame_at(spec, pts)
    res = fr.lap0 + fr.h0 * fr.tau0 / (spec.n - 1)
    assert np.abs(res).max() < 1e-10


def test_curvature_contraction_identity():
    # iota_{grad h} R = (rho - 2Jg) wedge dh - h dP on a solution
    spec = catalog.build("ex52-liegroup")
    fr = frame_at(spec, np.array([[0.2, -0.4, 0.1, 0.35]]))
    assert np.abs(weighted.gh_batch(fr)).max() < 1e-10  # a solution point
    assert np.abs(weighted.rnf_batch(fr)[0]).max() < 1e-10


def test_augmented_cotton_two_forms_agree():
    for entry in ("ex52-liegroup", "thm41-surfaces", "ex66-kundt"):
        spec = catalog.build(entry)
        pts = sample_box(spec.box, 20, 3)
        fr = frame_at(spec, pts)
        d1 = weighted.d_form1_batch(fr)
        d2 = weighted.d_form2_batch(fr)
        assert np.abs(d1 - d2).max() < 5e-10, entry


def test_alt_form_requires_solution():
    # off a solution the two forms of the augmented Cotton tensor disagree
    spec = catalog.build("ex52-liegroup")
    bad = dataclasses.replace(spec, h=parse_sexpr("(exp t)", spec.coords))
    fr = frame_at(bad, np.array([[0.1, 0.1, 0.1, 0.1]]))
    assert np.abs(weighted.gh_batch(fr)).max() > 1.0
    d1, d2 = weighted.d_form1_batch(fr), weighted.d_form2_batch(fr)
    assert np.abs(d1 - d2).max() > 1.0


def test_codazzi_on_harmonic_entries():
    # harmonic curvature == Ricci is Codazzi
    spec = catalog.build("thm62-ppwave")
    pts = sample_box(spec.box, 20, 1)
    fr = frame_at(spec, pts)
    assert np.abs(weighted.codazzi_batch(fr)).max() < 1e-10


def test_codazzi_fails_on_nonharmonic():
    spec = catalog.build("ex52-liegroup")
    pts = sample_box(spec.box, 20, 1)
    fr = frame_at(spec, pts)
    assert np.abs(weighted.codazzi_batch(fr)).max() > 1e-2


def test_report_dict_shape():
    spec = catalog.build("minkowski")
    rep, _ = weighted.verify(spec, samples=20, seed=0)
    d = rep.as_dict()
    assert d["verdicts"]["is_solution"] is True
    assert d["verdicts"]["locally_conformally_flat"] is True
    assert set(d["residuals"]) >= {"gh_residual", "tau_gradient",
                                   "codazzi_residual", "weyl_norm"}


def test_verify_flags_lcf_correctly():
    assert weighted.verify(catalog.build("thm11-planewave"), samples=30,
                           seed=0)[0].locally_conformally_flat
    assert not weighted.verify(catalog.build("thm41-ppwave"), samples=30,
                               seed=0)[0].locally_conformally_flat


def test_seed_changes_points_not_verdict():
    spec = catalog.build("ex66-kundt")
    r0, _ = weighted.verify(spec, samples=30, seed=0)
    r1, _ = weighted.verify(spec, samples=30, seed=7)
    assert r0.is_solution and r1.is_solution
    assert r0.points == r1.points == 30
    assert r0.residuals["gh_residual"] != r1.residuals["gh_residual"]


NIL_MANIFEST = """\
id: nil-control
dimension: 3
signature: riemannian
coords: x y z
citation: Heisenberg group metric, not conformally flat
box: -1 1
box: -1 1
box: -1 1
metric 0 0: 1
metric 1 1: (add 1 (mul x x))
metric 1 2: (neg x)
metric 2 2: 1
density: (add 2 x)
"""


def test_3d_conformal_flatness_uses_cotton():
    # Weyl vanishes identically in 3D; the Cotton tensor decides
    nil = catalog.build(catalog.parse_manifest(NIL_MANIFEST))
    rep, _ = weighted.verify(nil, samples=30, seed=0)
    assert rep.residuals["weyl_norm"] == 0.0
    assert rep.residuals["cotton_norm"] > 1.0
    assert not rep.locally_conformally_flat
    warped, _ = weighted.verify(catalog.build("ex37-warped3d"), samples=30,
                             seed=0)
    assert warped.residuals["cotton_norm"] < 1e-9
    assert warped.locally_conformally_flat


PARAM_IDS = [e for e in catalog.entry_ids() if catalog.get_entry(e).params]


@pytest.mark.parametrize("entry", PARAM_IDS)
def test_every_admissible_parameter_keeps_the_flags(entry):
    # every corner of the declared parameter box and 32 seeded Halton
    # draws inside it: the flags are claims about the whole family
    params = catalog.get_entry(entry).params
    names = list(params)
    ranges = [params[k][1:] for k in names]
    draws = list(itertools.product(*ranges))
    draws += sample_box(ranges, 32, seed=0).tolist()
    for values in draws:
        spec = catalog.build(entry, **dict(zip(names, values)))
        rep, _ = weighted.verify(spec, samples=100, seed=0)
        assert rep.mismatches == [], (values, rep.mismatches)

"""End-to-end acceptance gate.

Each test covers one release criterion, prints a single PASS/FAIL line,
and asserts.  Run with -s to see the lines as they go by."""

import time
from dataclasses import replace

import numpy as np

from wefe import catalog, classify, groebner, jets, ode, tensor, weighted
from wefe.sampling import sample_box

from oracles import fd_oracle, is_groebner, multiply_warped_ricci

SEED = 0


def _report(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def _rel(got, want):
    return np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_liegroup_end_to_end():
    t0 = time.perf_counter()
    spec = catalog.build("ex52-liegroup")

    pts = sample_box(spec.box, 100, SEED)
    fr = tensor.frame_at(spec, pts)
    gh = np.max(np.abs(weighted.gh_batch(fr)))

    wpts = sample_box(spec.box, 20, SEED)
    wfr = tensor.frame_at(spec, wpts)
    # non-Codazzi witness: the t-slot asymmetry of nabla rho equals
    # 2 e^{2t} (chart order x y z t); the same-slot pairing is identically 0
    wit = wfr.cov_ric[:, 0, 0, 3] - wfr.cov_ric[:, 3, 0, 0]
    wit_rel = _rel(wit, 2.0 * np.exp(2.0 * wpts[:, 3]))
    same_slot = np.max(np.abs(wfr.cov_ric[:, 0, 3, 3]
                              - wfr.cov_ric[:, 3, 0, 3]))

    rep = classify.classify(spec, pts[0])
    eig = sorted(rep.eigenvalues, key=lambda z: (z.real, z.imag))
    want = [-1.0, -1.0j, 1.0j, 1.0]
    eig_err = max(abs(e - w) for e, w in zip(eig, want))

    dt = time.perf_counter() - t0
    ok = (gh < 1e-9 and wit_rel < 1e-7 and same_slot < 1e-9
          and rep.type_tag == "I.b" and eig_err < 1e-8 and dt < 5.0)
    _report(1, ok, f"gh={gh:.2e} witness rel={wit_rel:.2e} "
            f"type={rep.type_tag} eig err={eig_err:.2e} in {dt:.2f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_groebner_pipeline():
    t0 = time.perf_counter()
    mismatched = sum(len(diff.terms) for _, _, _, diff
                     in groebner.generator_table())
    gens = groebner.generators()
    basis = groebner.buchberger(gens)          # default pair budget
    nf = groebner.normal_form(groebner.G_TARGET, basis)
    cert = is_groebner(basis)
    dt = time.perf_counter() - t0
    ok = mismatched == 0 and not nf and cert and dt < 120.0
    _report(2, ok, f"{mismatched} mismatched monomials, basis size "
            f"{len(basis)}, normal form {nf!s}, all S-polys reduce: "
            f"{cert}, {dt:.1f}s")


# ---------------------------------------------------------------- criterion 3

_BRANCH_RUNS = [
    ("cor36-1-kneg", "direct",
     dict(eps=-1.0, kappa=1.0, c1=0.5, c2=0.5), (-0.5, 0.5)),
    ("cor36-1-kpos", "direct",
     dict(eps=-1.0, kappa=-1.0, c1=0.2, c2=1.0), (-0.5, 0.5)),
    ("cor36-2-tau-neg", "warped",
     dict(eps=-1.0, tau=3.0, kappa=1.0, c1=1.0, c2=0.0, A=1.0), (-0.5, 0.5)),
    ("cor36-2-tau-pos", "warped",
     dict(eps=-1.0, tau=-3.0, kappa=-1.0, c1=1.0, c2=0.0, A=1.0),
     (-0.5, 0.5)),
    ("cor36-2-tau-zero", "warped",
     dict(eps=-1.0, tau=0.0, kappa=-1.0, c1=1.4, c2=2.0, A=1.0),
     (-0.3, 0.5)),  # h = A(2t+c1)/(2 phi) needs 2t+c1 > 0
]


def test_criterion_3_closed_form_branches():
    worst_gh = 0.0
    for entry, _, _, _ in _BRANCH_RUNS:
        rep, _ = weighted.verify(catalog.build(entry), samples=40, seed=SEED)
        worst_gh = max(worst_gh, rep.residuals["gh_residual"])
        assert rep.is_solution, entry

    worst_dev = worst_drift = 0.0
    for entry, branch, params, (a, b) in _BRANCH_RUNS:
        traj = ode.integrate(ode.closed_form(branch, params, a), b)
        assert not traj.terminated_early, entry
        dev = max(
            max(abs(st.h - ode.closed_form(branch, params, st.t).h),
                abs(st.phi - ode.closed_form(branch, params, st.t).phi))
            for st in traj.states)
        drift = max(traj.max_drift())
        worst_dev = max(worst_dev, dev)
        worst_drift = max(worst_drift, drift)

    ok = worst_gh < 1e-8 and worst_dev < 1e-7 and worst_drift < 1e-8
    _report(3, ok, f"gh={worst_gh:.2e} closed-form dev={worst_dev:.2e} "
            f"drift={worst_drift:.2e} over 5 branches")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_plane_wave():
    spec = catalog.build("thm11-planewave")
    rep, _ = weighted.verify(spec, samples=40, seed=SEED)
    pts = sample_box(spec.box, 40, SEED)
    fr = tensor.frame_at(spec, pts)
    wnorm = np.max(np.abs(fr.weyl0))
    V = catalog.kundt_vector_exprs(spec)
    scal = max(max(abs(s) for s in
                   classify.optical_scalars(spec, V, p))
               for p in pts[:10])
    ok = (rep.residuals["gh_residual"] < 1e-8 and wnorm < 1e-9
          and scal < 1e-10)
    _report(4, ok, f"gh={rep.residuals['gh_residual']:.2e} "
            f"|W|={wnorm:.2e} optical={scal:.2e}")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_ricci_flat_ppwave():
    spec = catalog.build("thm41-ppwave")
    rep, _ = weighted.verify(spec, samples=40, seed=SEED)
    pts = sample_box(spec.box, 40, SEED)
    fr = tensor.frame_at(spec, pts)
    eig = max(np.max(np.abs(np.linalg.eigvals(classify.ricci_operator(
        tensor.frame_at(spec, p[None]))))) for p in pts[:20])
    # eigenvalues of a nilpotent operator vanish identically, so also
    # check the tensor components
    ric = np.max(np.abs(fr.ric0))
    wnorm = np.max(np.abs(fr.weyl0))
    hes = np.max(np.abs(fr.hes0))
    ok = (rep.is_solution and eig < 1e-9 and ric < 1e-9
          and wnorm > 1e-3 and hes < 1e-10)
    _report(5, ok, f"solution={rep.is_solution} ricci eig={eig:.2e} "
            f"|ricci|={ric:.2e} |W|={wnorm:.2e} hes={hes:.2e}")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_two_step_nilpotent_ppwave():
    spec = catalog.build("thm62-ppwave")
    rep, _ = weighted.verify(spec, samples=40, seed=SEED)
    pts = sample_box(spec.box, 40, SEED)
    fr = tensor.frame_at(spec, pts)
    crep = classify.classify(spec, pts[0])
    codazzi = np.max(np.abs(weighted.codazzi_batch(fr)))
    V = catalog.kundt_vector_exprs(spec)
    scal = max(max(abs(s) for s in
                   classify.optical_scalars(spec, V, p))
               for p in pts[:10])
    ok = (rep.residuals["gh_residual"] < 1e-8
          and crep.nilpotency_degree == 2 and codazzi < 1e-9
          and scal < 1e-10)
    _report(6, ok, f"gh={rep.residuals['gh_residual']:.2e} "
            f"nilpotency={crep.nilpotency_degree} codazzi={codazzi:.2e} "
            f"optical={scal:.2e}")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_kundt_example():
    spec = catalog.build("ex66-kundt")
    rep, _ = weighted.verify(spec, samples=40, seed=SEED)
    pts = sample_box(spec.box, 40, SEED)
    fr = tensor.frame_at(spec, pts)
    crep = classify.classify(spec, pts[0])
    v, x1 = pts[:, 1], pts[:, 2]
    expected = 3.0 * np.cos(v) / (2.0 * x1 * (2.0 + np.sin(v)))
    comp_rel = _rel(fr.weyl0[:, 0, 1, 1, 2], expected)
    cot = np.max(np.abs(fr.cotton0))
    wnorm = np.max(np.abs(fr.weyl0))
    ok = (rep.residuals["gh_residual"] < 1e-8
          and crep.nilpotency_degree == 3 and comp_rel < 1e-6
          and cot < 1e-8 and wnorm > 0.0)
    _report(7, ok, f"gh={rep.residuals['gh_residual']:.2e} "
            f"nilpotency={crep.nilpotency_degree} W component rel="
            f"{comp_rel:.2e} cotton={cot:.2e} |W|={wnorm:.2e}")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_cross_identities():
    worst = {"rnf": 0.0, "d": 0.0, "dtau": 0.0, "lap": 0.0}
    for entry in catalog.list_entries():
        if entry.flags.get("is_solution") is not True:
            continue
        spec = catalog.build(entry.entry_id)
        pts = sample_box(spec.box, 20, SEED)
        fr = tensor.frame_at(spec, pts)
        worst["rnf"] = max(worst["rnf"],
                           np.max(np.abs(weighted.rnf_batch(fr))))
        d1 = weighted.d_form1_batch(fr)
        d2 = weighted.d_form2_batch(fr)
        worst["d"] = max(worst["d"], np.max(np.abs(d1 - d2)))
        worst["dtau"] = max(worst["dtau"], np.max(np.abs(fr.d_tau)))
        lap = fr.lap0 + fr.h0 * fr.tau0 / (spec.n - 1)
        worst["lap"] = max(worst["lap"], np.max(np.abs(lap)))
    ok = (worst["rnf"] < 1e-8 and worst["d"] < 1e-8
          and worst["dtau"] < 1e-8 and worst["lap"] < 1e-9)
    _report(8, ok, "curvature identity={rnf:.2e} D forms={d:.2e} "
            "|grad tau|={dtau:.2e} lap={lap:.2e}".format(**worst))


# ---------------------------------------------------------------- criterion 9

def _component_exprs(spec):
    seen = []
    for i in range(spec.n):
        for j in range(i, spec.n):
            e = spec.g[i][j]
            if jets.to_sexpr(e) != "0":
                seen.append(e)
    seen.append(spec.h)
    return seen


def test_criterion_9_oracles():
    worst_fd = 0.0
    for entry in catalog.entry_ids():
        spec = catalog.build(entry)
        pts = sample_box(spec.box, 100, SEED)
        ctx = jets.jet_context(spec.n)
        units = [tuple(int(i == a) for i in range(spec.n))
                 for a in range(spec.n)]
        for e in _component_exprs(spec):
            jv = jets.eval_jets(e, pts, ctx)
            # first derivatives at all 100 points
            for a, unit in enumerate(units):
                got = jv[:, ctx.index_of[unit]]
                for k in (0, 33, 66, 99):
                    fd = fd_oracle(e, pts[k], 1, unit)
                    scale = max(1.0, abs(fd))
                    worst_fd = max(worst_fd, abs(got[k] - fd) / scale)
            # spot-check a second and third derivative
            jet = jets.eval_jets(e, pts[:1], ctx)[0]
            d2 = units[0][:0] + tuple(2 if i == 0 else 0
                                      for i in range(spec.n))
            for alpha in (d2,):
                fd = fd_oracle(e, pts[0], 2, alpha)
                scale = max(1.0, abs(fd))
                k = ctx.index_of[alpha]
                got = jet[k] * ctx.alpha_factorial[k]
                worst_fd = max(worst_fd, abs(got - fd) / scale)

    # warped-product Ricci oracle with analytic warping data
    worst_warp = 0.0
    for entry, phi_fns in _WARPED_ORACLE.items():
        spec = catalog.build(entry)
        kappa = float(spec.flags["fiber_curvature"])
        pts = sample_box(spec.box, 20, SEED)
        fr = tensor.frame_at(spec, pts)
        for i, p in enumerate(pts):
            r2 = float(p[1:] @ p[1:])
            chart = (1.0 + kappa / 4.0 * r2) ** -2
            gF = chart * np.eye(3)
            rhoF = 2.0 * kappa * gF
            phi, phip, phipp = phi_fns(p[0])
            rho = multiply_warped_ricci(
                -1.0, [(phi, phip, phipp, rhoF, gF)])
            worst_warp = max(worst_warp, np.max(np.abs(rho - fr.ric0[i])))

    ok = worst_fd < 1e-5 and worst_warp < 1e-9
    _report(9, ok, f"jets vs fd rel={worst_fd:.2e} "
            f"ricci vs warped oracle={worst_warp:.2e}")


def _warp_sqrt(F, Fp, Fpp):
    phi = np.sqrt(F)
    phip = Fp / (2.0 * phi)
    return phi, phip, (Fpp - 2.0 * phip * phip) / (2.0 * phi)


_WARPED_ORACLE = {
    "cor36-1-kneg": lambda t: (1.0, 0.0, 0.0),
    "cor36-1-kpos": lambda t: (1.0, 0.0, 0.0),
    "cor36-2-tau-neg": lambda t: _warp_sqrt(
        2.0 + np.exp(t), np.exp(t), np.exp(t)),
    "cor36-2-tau-pos": lambda t: _warp_sqrt(
        2.0 + np.sin(t), np.cos(t), -np.sin(t)),
    "cor36-2-tau-zero": lambda t: _warp_sqrt(
        t * t + t + 1.0, 2.0 * t + 1.0, 2.0),
}


# --------------------------------------------------------------- criterion 10

def test_criterion_10_negative_controls():
    spec = catalog.build("ex52-liegroup")
    t = jets.coord(3)
    bad_h = spec.h * jets.exp(0.01 * t)
    bad = replace(spec, h=bad_h)
    pts = sample_box(bad.box, 40, SEED)
    gh = np.max(np.abs(weighted.gh_batch(tensor.frame_at(bad, pts))))

    entry = catalog.get_entry("thm41-ppwave")
    good = entry.build()
    rows = [list(r) for r in good.g]
    # x1^2 + x2^2 is not harmonic in the transverse plane
    rows[1][1] = jets.parse_sexpr("(add (mul x1 x1) (mul x2 x2))",
                                  list(good.coords))
    bad_pp = replace(good, g=tuple(tuple(r) for r in rows))
    # the perturbed profile keeps the Ricci operator nilpotent, so the
    # eigenvalue probe stays blind; the tensor components do not
    ric = np.max(np.abs(tensor.frame_at(
        bad_pp, sample_box(bad_pp.box, 10, SEED)).ric0))

    ok = gh > 1e-4 and ric > 1e-9
    _report(10, ok, f"perturbed density gh={gh:.2e} (> 1e-4), "
            f"non-harmonic profile |ricci|={ric:.2e} (> 1e-9)")

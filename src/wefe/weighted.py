"""Weighted-curvature objects and residual checks.

The central object is the weighted Einstein tensor

    G^h = h rho - Hes_h + (Delta h) g,

whose vanishing defines a solution.  On solutions the toolkit checks
the curvature identity

    R(grad h, X, Y, Z) = ((rho - 2 J g) ^ dh - h dP)(X, Y, Z)

with (T ^ w)(X,Y,Z) = T(X,Y)w(Z) - T(X,Z)w(Y), and the agreement of
the two forms of the augmented Cotton tensor

    D = h dP + i_{grad h} W
    (n-2) D = (n-1) rho ^ dh + g ^ (i_{grad h} rho) - tau g ^ dh.

Each residual is a kernel over a batched :class:`wefe.tensor.Frame`
(one point or many), and :func:`verify` takes its maximum over the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .constants import ATOL, DEFAULT_SAMPLES, RTOL, SOLUTION_TOL
from .sampling import sample_box


def _wedge(t2, om):
    """(T ^ w)(X,Y,Z) batched: t2 (m,n,n), om (m,n) -> (m,n,n,n)."""
    return (np.einsum("mxy,mz->mxyz", t2, om)
            - np.einsum("mxz,my->mxyz", t2, om))


# -- residual kernels (operate on a Frame) ------------------------------

def gh_batch(fr):
    return (fr.h0[:, None, None] * fr.ric0 - fr.hes0
            + fr.lap0[:, None, None] * fr.g0)


def solution_scale(fr):
    """Per-frame scale 1 + |h| |rho| for the solution verdict."""
    return 1.0 + np.max(fr.h0) * np.max(np.abs(fr.ric0))


def rnf_batch(fr):
    """Residual of the curvature identity, (m,n,n,n)."""
    lhs = np.einsum("mi,mixyz->mxyz", fr.gradh, fr.riemann0)
    t2 = fr.ric0 - 2.0 * fr.scalar_j0[:, None, None] * fr.g0
    rhs = _wedge(t2, fr.dh) - fr.h0[:, None, None, None] * fr.cotton0
    return lhs - rhs


def d_form1_batch(fr):
    """Augmented Cotton via h dP + i_{grad h} W."""
    d = fr.h0[:, None, None, None] * fr.cotton0
    if fr.weyl0 is not None:
        d = d + np.einsum("mi,mixyz->mxyz", fr.gradh, fr.weyl0)
    return d


def d_form2_batch(fr):
    """Augmented Cotton via the solution-only identity."""
    n = float(fr.n)
    irho = np.einsum("mi,mix->mx", fr.gradh, fr.ric0)
    num = ((n - 1.0) * _wedge(fr.ric0, fr.dh)
           + _wedge(fr.g0, irho)
           - fr.tau0[:, None, None, None] * _wedge(fr.g0, fr.dh))
    return num / (n - 2.0)


def codazzi_batch(fr):
    """Antisymmetrized covariant Ricci derivative, (m,n,n,n)."""
    return fr.cov_ric - np.einsum("mabc->mbac", fr.cov_ric)


# -- report ----------------------------------------------------------------

@dataclass
class WeightedReport:
    spec_name: str
    residuals: dict
    is_solution: bool
    constant_tau: bool
    harmonic_curvature: bool
    locally_conformally_flat: bool
    points: int
    mismatches: list = field(default_factory=list)

    def as_dict(self):
        return {
            "spec": self.spec_name,
            "residuals": dict(self.residuals),
            "verdicts": {
                "is_solution": bool(self.is_solution),
                "constant_tau": bool(self.constant_tau),
                "harmonic_curvature": bool(self.harmonic_curvature),
                "locally_conformally_flat": bool(self.locally_conformally_flat),
            },
            "points": self.points,
            "mismatches": list(self.mismatches),
        }


def verify(spec, samples=DEFAULT_SAMPLES, seed=None):
    """Evaluate every residual over the sample plan and compare the
    derived verdicts with the spec's expected-property flags."""
    pts = sample_box(spec.box, samples, seed)
    fr = T.frame_at(spec, pts)

    gh = float(np.max(np.abs(gh_batch(fr))))
    tau_grad = float(np.max(np.abs(fr.d_tau)))
    codazzi = float(np.max(np.abs(codazzi_batch(fr))))
    cotton = float(np.max(np.abs(fr.cotton0)))
    weyl = float(np.max(np.abs(fr.weyl0))) if fr.weyl0 is not None else 0.0
    d1 = d_form1_batch(fr)
    d_norm = float(np.max(np.abs(d1)))

    sol_tol = SOLUTION_TOL * solution_scale(fr)
    is_solution = gh < sol_tol
    rnf = float(np.max(np.abs(rnf_batch(fr))))
    d_agree = float(np.max(np.abs(d1 - d_form2_batch(fr))))

    rho_max = float(np.max(np.abs(fr.ric0)))
    scale = max(1.0, rho_max)
    tol = ATOL + RTOL * scale
    constant_tau = tau_grad < tol
    harmonic = codazzi < tol and cotton < tol
    # Weyl vanishes identically in 3D, where the Cotton tensor decides
    lcf = (cotton if spec.n == 3 else weyl) < max(1e-9, ATOL)

    residuals = {
        "gh_residual": gh,
        "tau_gradient": tau_grad,
        "rnf_residual": rnf,
        "d_tensor_agreement": d_agree,
        "codazzi_residual": codazzi,
        "weyl_norm": weyl,
        "cotton_norm": cotton,
        "d_norm": d_norm,
    }
    report = WeightedReport(
        spec_name=spec.name,
        residuals=residuals,
        is_solution=is_solution,
        constant_tau=constant_tau,
        harmonic_curvature=harmonic,
        locally_conformally_flat=lcf,
        points=len(pts),
    )
    for flag, got in (
            ("is_solution", is_solution),
            ("harmonic_curvature", harmonic),
            ("locally_conformally_flat", lcf),
            ("ricci_flat", rho_max < tol)):
        want = spec.flags.get(flag)
        if want is not None and bool(want) != got:
            report.mismatches.append(
                f"{flag}: expected {bool(want)}, computed {got}")
    want = spec.flags.get("tau")
    if want is not None:
        dev = np.abs(fr.tau0 - want)
        worst = int(np.argmax(dev))
        if not dev[worst] < tol:
            report.mismatches.append(
                f"tau: expected {want}, computed {fr.tau0[worst]:.12g}")
    return report

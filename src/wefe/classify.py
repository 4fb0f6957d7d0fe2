"""Jordan-type classification of the Ricci operator and Kundt
optical-scalar checks.

Lorentzian Ricci operators need not diagonalize; the report tags them
I.a (diagonalizable, real), I.b (a complex-conjugate pair), II (a 2x2
Jordan block) or III (a 3x3 block).  Numerical Jordan classification is
ill-posed, so decisions follow an explicit tolerance ladder: eigenvalue
clusters split at sqrt(tol), matrix ranks use a tol^(1/4) relative
singular-value cutoff, and clusters closer than 10*sqrt(tol) raise
IllConditioned instead of guessing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets as J
from . import tensor as T
from .constants import CAUSAL_DEADBAND, GRAD_ZERO_TOL
from .errors import (IllConditioned, NotGeodesic, NotLightlike,
                     VanishingGradient)

DEFAULT_TOL = 1e-8


@dataclass
class RicciTypeReport:
    point: np.ndarray
    eigenvalues: list          # complex, sorted by (real, imag)
    type_tag: str              # "I.a" | "I.b" | "II" | "III"
    nilpotency_degree: int     # 0 = not nilpotent
    causal_character: str      # "spacelike" | "timelike" | "lightlike"
    gradh_sq: float

    def as_dict(self):
        return {
            "point": [float(x) for x in np.atleast_1d(self.point)],
            "eigenvalues": [[ev.real, ev.imag] for ev in self.eigenvalues],
            "type": self.type_tag,
            "nilpotency_degree": self.nilpotency_degree,
            "causal_character": self.causal_character,
            "gradh_sq": self.gradh_sq,
        }


def ricci_operator(fr):
    """Mixed-index Ricci operator g^{-1} rho of a one-point Frame as an
    n x n matrix."""
    return np.einsum("ij,jk->ik", fr.ginv0[0], fr.ric0[0])


def _rank(mat, tol):
    s = np.linalg.svd(mat, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol ** 0.25 * s[0]))


def _cluster(vals, gap):
    """Group sorted reals into clusters split at gaps larger than ``gap``."""
    order = np.argsort(vals)
    clusters = [[order[0]]]
    for idx in order[1:]:
        if vals[idx] - vals[clusters[-1][-1]] > gap:
            clusters.append([idx])
        else:
            clusters[-1].append(idx)
    return clusters


def jordan_type(matrix, tol=DEFAULT_TOL):
    """Classify a real matrix from ricci_operator.  Returns
    (type_tag, eigenvalues, nilpotency_degree)."""
    A = np.asarray(matrix, dtype=float)
    n = A.shape[0]
    eig = np.linalg.eigvals(A)
    eig = sorted(eig, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    sq = tol ** 0.5
    scale = max(1.0, float(np.max(np.abs(A))))

    if np.any(np.abs(np.imag(eig)) > sq * scale):
        return "I.b", eig, 0

    real = np.real(eig)
    clusters = _cluster(real, sq * scale)
    means = [float(np.mean(real[c])) for c in clusters]
    for i in range(len(means) - 1):
        if means[i + 1] - means[i] < 10.0 * sq * scale:
            raise IllConditioned(
                f"eigenvalue clusters at {means[i]:.6g} and "
                f"{means[i + 1]:.6g} are closer than 10*sqrt(tol)")

    max_block = 1
    for c, lam in zip(clusters, means):
        mult = len(c)
        B = A - lam * np.eye(n)
        k, P = 1, B.copy()
        while _rank(P, tol) > n - mult and k <= n:
            k += 1
            P = P @ B
        max_block = max(max_block, k)

    tag = {1: "I.a", 2: "II", 3: "III"}.get(max_block, "III")

    degree = 0
    if np.all(np.abs(real) < sq * scale):
        P = np.eye(n)
        for k in range(1, n + 1):
            P = P @ A
            if np.max(np.abs(P)) < sq * max(1.0, scale ** k):
                degree = k
                break
    return tag, eig, degree


def causal_character(fr):
    """Tag of grad h at a one-point Frame by the sign of g(grad h, grad h),
    with the value.  The dead band scales with |dh|^2 max(1, max|g^-1|),
    so a small but non-null gradient keeps its character."""
    dh = fr.dh[0]
    if np.linalg.norm(dh) < GRAD_ZERO_TOL:
        raise VanishingGradient(
            f"{fr.spec.name}: grad h vanishes at the sample point")
    v = float(fr.gradh_sq[0])
    scale = np.dot(dh, dh) * max(1.0, float(np.max(np.abs(fr.ginv0[0]))))
    if abs(v) < CAUSAL_DEADBAND * scale:
        return "lightlike", v
    return ("spacelike" if v > 0.0 else "timelike"), v


def classify(spec, p, tol=DEFAULT_TOL):
    """Full RicciTypeReport at a point."""
    fr = T.frame_at(spec, np.asarray(p, dtype=float)[None, :])
    tag, eig, degree = jordan_type(ricci_operator(fr), tol)
    char, v = causal_character(fr)
    return RicciTypeReport(point=np.asarray(p, dtype=float),
                           eigenvalues=eig, type_tag=tag,
                           nilpotency_degree=degree,
                           causal_character=char, gradh_sq=v)


def optical_scalars(spec, V, p, tol=1e-8):
    """Expansion, shear and twist of the congruence of the vector field
    ``V`` (n contravariant component Exprs) at ``p``:

        theta    = (1/(n-2)) div V
        sigma^2  = (nabla^i V^j) nabla_(i V_j) - (n-2) theta^2
        omega^2  = (nabla^i V^j) nabla_[i V_j]

    ``V`` must be lightlike at ``p`` and geodesic up to reparametrization.
    """
    p = np.asarray(p, dtype=float)
    fr = T.frame_at(spec, p[None, :])
    n, ctx = spec.n, fr.ctx
    pts = p[None, :]

    vJ = np.array([J.eval_jets(_as_expr(c), pts, ctx)[0] for c in V])
    v0 = vJ[:, 0]                                   # V^k values
    gJ = np.array([[J.eval_jets(spec.g[i][j], pts, ctx)[0]
                    for j in range(n)] for i in range(n)])
    wJ = ctx.contract(gJ[:, :, None], vJ[:, None])[:, 0]  # V_j jets
    w0 = wJ[:, 0]

    vv = float(np.dot(w0, v0))
    scale = max(1.0, float(np.max(np.abs(v0))) ** 2)
    if abs(vv) > tol * scale:
        raise NotLightlike(f"g(V,V) = {vv:.3e} at point")

    d1 = [ctx.index_of[tuple(int(i == a) for i in range(n))]
          for a in range(n)]
    dv = vJ[:, d1].T                                # dv[i, k] = d_i V^k
    dw = wJ[:, d1].T                                # dw[i, j] = d_i V_j
    gamma = fr.gamma0[0]

    acc = np.einsum("i,ij->j", v0, dv) \
        + np.einsum("i,jis,s->j", v0, gamma, v0)    # (nabla_V V)^j
    vnorm = np.dot(v0, v0)
    perp = acc - (np.dot(acc, v0) / vnorm) * v0
    if np.max(np.abs(perp)) > tol * scale:
        raise NotGeodesic(f"nabla_V V not parallel to V, |perp| = "
                          f"{np.max(np.abs(perp)):.3e}")

    B = dw - np.einsum("sij,s->ij", gamma, w0)      # nabla_i V_j
    ginv = fr.ginv0[0]
    Bup = ginv @ B @ ginv.T                         # nabla^i V^j
    theta = float(np.einsum("ij,ij", ginv, B)) / (n - 2)
    sym = 0.5 * (B + B.T)
    anti = 0.5 * (B - B.T)
    sigma2 = float(np.einsum("ij,ij", Bup, sym)) - (n - 2) * theta ** 2
    omega2 = float(np.einsum("ij,ij", Bup, anti))
    return theta, sigma2, omega2


def _as_expr(c):
    if isinstance(c, J.Expr):
        return c
    return J.const(c)

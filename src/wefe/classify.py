"""Jordan-type classification of the Ricci operator and Kundt
optical-scalar checks.

Lorentzian Ricci operators need not diagonalize; the report tags them
I.a (diagonalizable, real), I.b (a complex-conjugate pair), II (a 2x2
Jordan block) or III (a 3x3 block).  Numerical Jordan classification is
ill-posed, so decisions follow an explicit tolerance ladder: eigenvalue
clusters split at sqrt(tol), the rank of the k-th power of A - lambda I
counts singular values above sqrt(tol) scale^k, with scale =
max(1, max|A|), and clusters closer than 10*sqrt(tol) raise
IllConditioned instead of guessing.  Three or more eigenvalues within
tol^(1/3) scale of one another, on which A less their mean has index
at least 3, are one 3x3 block split by round-off, complex or not."""

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
    eigenvalues: np.ndarray    # complex, sorted by (real, imag)
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


def ricci_operator(fr, i=0):
    """Mixed-index Ricci operator g^{-1} rho at row ``i`` of a Frame as an
    n x n matrix."""
    return np.einsum("ij,jk->ik", fr.ginv0[i], fr.ric0[i])


def _rank(mat, cutoff):
    return int(np.sum(np.linalg.svd(mat, compute_uv=False) > cutoff))


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


def _block_size(A, lam, mult, sq, scale):
    """The largest Jordan block of ``A`` at ``lam`` of multiplicity
    ``mult``: the least k with rank (A - lam I)^k <= n - mult.  The k-th
    power is measured against sq scale^k, as in the nilpotency test, not
    against its own largest singular value, so a power made only of
    round-off has rank 0 whatever the chart.  Round-off stays below 1e-10
    scale^k; a cutoff of 1e-2 scale^k misses ex66-kundt's 3x3 block."""
    n = A.shape[0]
    B = A - lam * np.eye(n)
    k, P = 1, B.copy()
    while _rank(P, sq * scale ** k) > n - mult and k <= n:
        k += 1
        P = P @ B
    return k


def jordan_type(matrix, tol=DEFAULT_TOL):
    """Classify a real matrix from ricci_operator.  Returns
    (type_tag, eigenvalues, nilpotency_degree)."""
    A = np.asarray(matrix, dtype=float)
    n = A.shape[0]
    eig = np.linalg.eigvals(A)
    # by (real, imag) rounded to 12 digits; lexsort is stable, so ties
    # keep eigvals' order
    eig = eig[np.lexsort((np.round(eig.imag, 12), np.round(eig.real, 12)))]
    sq = tol ** 0.5
    scale = max(1.0, float(np.max(np.abs(A))))
    real = np.real(eig)

    # a round-off e in A splits a 3x3 block into three eigenvalues about
    # e^(1/3) apart, two of them complex.  Three or more within the band
    # tol^(1/3) scale of one eigenvalue, on which A less their mean has
    # index >= 3, are that block.  Within sqrt(tol) scale / 2 of the mean
    # the ladder below finds it anyway, so only a wider split is tested
    z, band = [complex(w) for w in eig], tol ** (1.0 / 3.0) * scale
    near = max(([abs(w - v) < band for w in z] for v in z), key=sum)
    trio = [w for w, c in zip(z, near) if c]
    lam = (sum(trio) / len(trio)).real
    if (len(trio) >= 3 and max(abs(w - lam) for w in trio) > sq * scale / 2
            and _block_size(A, lam, len(trio), sq, scale) >= 3):
        real = np.where(near, lam, real)
    elif np.any(np.abs(np.imag(eig)) > sq * scale):
        return "I.b", eig, 0

    clusters = _cluster(real, sq * scale)
    means = [float(np.mean(real[c])) for c in clusters]
    for i in range(len(means) - 1):
        if means[i + 1] - means[i] < 10.0 * sq * scale:
            raise IllConditioned(
                f"eigenvalue clusters at {means[i]:.6g} and "
                f"{means[i + 1]:.6g} are closer than 10*sqrt(tol)")

    max_block = max(_block_size(A, lam, len(c), sq, scale)
                    for c, lam in zip(clusters, means))
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


def causal_character(fr, i=0):
    """Tag of grad h at row ``i`` of a Frame by the sign of
    g(grad h, grad h), with the value.  The dead band scales with
    |dh|^2 max(1, max|g^-1|), so a small but non-null gradient keeps its
    character."""
    dh = fr.dh[i]
    if np.linalg.norm(dh) < GRAD_ZERO_TOL:
        raise VanishingGradient(
            f"{fr.spec.name}: grad h vanishes at the sample point")
    v = float(fr.gradh_sq[i])
    scale = np.dot(dh, dh) * max(1.0, float(np.max(np.abs(fr.ginv0[i]))))
    if abs(v) < CAUSAL_DEADBAND * scale:
        return "lightlike", v
    return ("spacelike" if v > 0.0 else "timelike"), v


def classify(spec, p, tol=DEFAULT_TOL):
    """Full RicciTypeReport at a point, from a one-point order-0 Frame."""
    p = np.asarray(p, dtype=float)
    return classify_row(T.frame_at(spec, p[None, :], 0), 0, p, tol)


def classify_row(fr, i, p, tol=DEFAULT_TOL):
    """Full RicciTypeReport at row ``i``, the point ``p``, of a Frame of
    either order; a row's fields are bit-identical to those of the
    point's own one-point Frame, so the report is too."""
    tag, eig, degree = jordan_type(ricci_operator(fr, i), tol)
    char, v = causal_character(fr, i)
    return RicciTypeReport(point=p, eigenvalues=eig, type_tag=tag,
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
    fr = T.frame_at(spec, p[None, :], 0)
    n, ctx = spec.n, J.jet_context(spec.n, 1)
    g, gamma = fr.g0[0], fr.gamma0[0]

    vJ = J.eval_jets(V, p[None, :], ctx)            # V^k jets
    v0 = vJ[:, 0, 0]
    w0 = g @ v0                                     # V_j

    vv = float(np.dot(w0, v0))
    scale = max(1.0, float(np.max(np.abs(v0))) ** 2)
    if abs(vv) > tol * scale:
        raise NotLightlike(f"g(V,V) = {vv:.3e} at point")

    # dv[i, k] = nabla_i V^k = d_i V^k + Gamma^k_is V^s
    dv = ctx.grad(vJ)[..., 0, 0] + np.einsum("kis,s->ik", gamma, v0)
    acc = v0 @ dv                                   # (nabla_V V)^k
    vnorm = np.dot(v0, v0)
    perp = acc - (np.dot(acc, v0) / vnorm) * v0
    if np.max(np.abs(perp)) > tol * scale:
        raise NotGeodesic(f"nabla_V V not parallel to V, |perp| = "
                          f"{np.max(np.abs(perp)):.3e}")

    B = dv @ g                                      # nabla_i V_j
    ginv = fr.ginv0[0]
    Bup = ginv @ B @ ginv.T                         # nabla^i V^j
    theta = float(np.einsum("ij,ij", ginv, B)) / (n - 2)
    sym = 0.5 * (B + B.T)
    anti = 0.5 * (B - B.T)
    sigma2 = float(np.einsum("ij,ij", Bup, sym)) - (n - 2) * theta ** 2
    omega2 = float(np.einsum("ij,ij", Bup, anti))
    return theta, sigma2, omega2

"""Pointwise pseudo-Riemannian curvature machinery.

Everything is driven by Taylor jets of the metric components.  The
batched :class:`Frame` computes all curvature data at an array of sample
points at once, carrying each stage only to the derivative order that a
later stage reads:

    g                                 order 3
    g^-1, dg, Gamma, density h        order 2
    dGamma, R, rho, tau, J, P, dh     order 1
    Hes_h                             values only

so third metric derivatives (needed by the covariant derivative of the
Schouten tensor) still come out of the one evaluation of g.  That is one
:func:`wefe.jets.eval_jets` call over the whole component array, which
evaluates each shared node (g_ij = g_ji, a repeated conformal factor)
once; h is a second call.  Every index
contraction between jets (both Newton steps of g^-1, the Christoffel
raise, Riemann, Ricci, tau and the Hessian correction) is one call of
:meth:`wefe.jets.JetContext.contract`.  There is no single-point API: a
query at one point reads index 0 of a one-point :class:`Frame` from
:func:`frame_at`.

Curvature sign conventions are frozen in :mod:`wefe.constants`: the
valence-4 curvature is R(X,Y,Z,U) = g((nabla_[X,Y] - [nabla_X,
nabla_Y])Z, U), the Ricci tensor is the metric contraction normalized
so a round sphere has positive scalar curvature, and the Weyl tensor
W = R - P (kn) g is totally trace-free with the standard
Kulkarni-Nomizu product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets as J
from .constants import RICCI_SIGN, RIEMANN_SIGN
from .errors import (DimensionError, DomainError, SignatureMismatch,
                     SingularMetric)

_DET_TOL = 1e-12
# Besides sparing repeat lookups, the cache keeps recent Frames, and the
# jet arrays their value views point into, alive in the heap.  Without
# it glibc returns that memory to the OS after every operation and
# faults it back in: whole-catalog verify on fresh points (2-CPU VM)
# took 2,400 minor page faults per entry without the cache, 940 with it.
_FRAME_CACHE_SIZE = 16


@dataclass(frozen=True)
class MetricMeasureSpec:
    """A chart metric with positive density: dimension, symmetric
    component expressions g_ij, density expression h, domain box,
    signature tag, and optional expected-property flags."""

    name: str
    n: int
    g: tuple  # tuple of tuples of Expr, full symmetric n x n
    h: object  # Expr
    box: tuple  # ((lo, hi), ...) per coordinate
    signature: str = "lorentzian"
    coords: tuple = ()
    flags: dict = field(default_factory=dict, hash=False, compare=False)
    citation: str = ""

    def __post_init__(self):
        if not 3 <= self.n <= 6:
            raise DimensionError(f"dimension {self.n} outside 3..6")
        if self.signature not in ("lorentzian", "riemannian"):
            raise ValueError(f"unknown signature tag {self.signature!r}")
        if len(self.g) != self.n or any(len(r) != self.n for r in self.g):
            raise ValueError("metric component array must be n x n")
        if len(self.box) != self.n:
            raise ValueError("domain box must have one interval per coordinate")
        if not self.coords:
            object.__setattr__(
                self, "coords", tuple(J.default_coord_names(self.n)))


def make_spec(name, n, g_upper, h, box, signature="lorentzian",
              coords=(), flags=None, citation=""):
    """Build a spec from the upper-triangular component map
    {(i, j): Expr, i <= j}; missing entries are zero."""
    zero = J.const(0)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            key = (i, j) if i <= j else (j, i)
            row.append(g_upper.get(key, zero))
        rows.append(tuple(row))
    return MetricMeasureSpec(name=name, n=n, g=tuple(rows), h=h,
                             box=tuple(tuple(b) for b in box),
                             signature=signature, coords=tuple(coords),
                             flags=dict(flags or {}), citation=citation)


# -- the batched curvature frame ----------------------------------------

class Frame:
    """All curvature data of a spec at an array of points, computed once.

    Value arrays carry the point axis first: g0 has shape (m, n, n),
    d_ric has shape (m, a, i, j) meaning (d_a applied to ricci_ij before
    the Christoffel correction), cov_ric has the derivative slot first
    per the (nabla_a T)(b, c) reading."""

    def __init__(self, spec, pts):
        self.spec = spec
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != spec.n:
            raise DomainError("point dimension does not match chart")
        self.pts = pts
        self.m = pts.shape[0]
        self.n = spec.n
        self.ctx = J.jet_context(spec.n)
        self._compute()

    def _compute(self):
        spec, n, m = self.spec, self.n, self.m
        pts = self.pts
        # one context per truncation order, stages as in the module
        # docstring; truncating a jet to order k is the slice [..., :N_k]
        c3 = self.ctx
        c2, c1, c0 = (J.jet_context(n, k) for k in (2, 1, 0))
        N2, N1 = c2.N, c1.N
        d1_idx = [c1.index_of[J._unit(n, i)] for i in range(n)]

        def values(a):
            """(comp..., m, N) jets -> (m, comp...) values."""
            return np.moveaxis(a[..., 0], -1, 0)

        def derivs1(a):
            """-> (m, axis, comp...) first-derivative values."""
            d = a[..., d1_idx]            # (comp..., m, axis)
            d = np.moveaxis(d, -1, 0)     # (axis, comp..., m)
            d = np.moveaxis(d, -1, 0)     # (m, axis, comp...)
            return d

        # metric jets, order 3, each shared node evaluated once
        gJ = J.eval_jets(spec.g, pts, c3)
        self.g0 = values(gJ)

        det = np.linalg.det(self.g0)
        if np.any(np.abs(det) < _DET_TOL) or not np.all(np.isfinite(det)):
            raise SingularMetric(
                f"{spec.name}: |det g| < {_DET_TOL} at a sample point")
        self.detg = det
        eig = np.linalg.eigvalsh(self.g0)
        neg = np.sum(eig < 0.0, axis=1)
        want = 1 if spec.signature == "lorentzian" else 0
        if np.any(neg != want):
            raise SignatureMismatch(
                f"{spec.name}: eigenvalue signs do not match "
                f"{spec.signature} tag")

        # order-2 jet-ring metric inverse by Newton iteration from the
        # numeric inverse; each step doubles the exact order, so two steps
        # are exact at truncation order 2 (and would be at 3)
        g2 = gJ[..., :N2]
        ginv0 = np.linalg.inv(self.g0)
        X = np.zeros_like(g2)
        X[..., 0] = np.moveaxis(ginv0, 0, -1)
        eye = np.zeros_like(g2)
        for i in range(n):
            eye[i, i, :, 0] = 1.0
        for _ in range(2):
            X = c2.contract(X, 2.0 * eye - c2.contract(g2, X))
        ginvJ = X
        self.ginv0 = ginv0

        dgJ = np.empty((n, n, n, m, N2))  # [a, i, j] = d_a g_ij, order 2
        for a in range(n):
            dgJ[a] = c3.deriv(gJ, a)[..., :N2]
        self.dg = values(dgJ)

        # Christoffel symbols: lowered and raised, as order-2 jets
        lowJ = 0.5 * (np.transpose(dgJ, (2, 0, 1, 3, 4))
                      + np.transpose(dgJ, (2, 1, 0, 3, 4))
                      - dgJ)  # low[k, i, j] = G_kij
        upJ = c2.contract(ginvJ, lowJ)  # up[k, i, j] = Gamma^k_ij
        self.gamma_low0 = values(lowJ)
        self.gamma0 = values(upJ)     # (m, k, i, j)
        dupJ = np.empty((n,) + upJ.shape[:-1] + (N1,))
        for a in range(n):
            dupJ[a] = c2.deriv(upJ, a)[..., :N1]
        self.dgamma = values(dupJ)    # (m, a, k, i, j)

        # curvature R~(i,j,k,l) = comp[l, i, j, k], Christoffel form, as
        # order-1 jets: comp = g.D + T2 - (T2 with i <-> j), where
        # D[s, i, j, k] = d_i Gamma^s_jk - d_j Gamma^s_ik and
        # T2[l, i, j, k] = Gamma_lis Gamma^s_jk
        g1, low1, up1 = gJ[..., :N1], lowJ[..., :N1], upJ[..., :N1]
        D = np.transpose(dupJ, (1, 0, 2, 3, 4, 5))
        D = D - np.transpose(D, (0, 2, 1, 3, 4, 5))
        T2 = c1.contract(low1, up1)
        comp = c1.contract(g1, D) + T2 - np.transpose(T2, (0, 2, 1, 3, 4, 5))
        rmJ = np.transpose(comp, (1, 2, 3, 0, 4, 5))
        self.rm_std0 = values(rmJ)               # (m, i, j, k, l)
        self.riemann0 = RIEMANN_SIGN * self.rm_std0

        # Ricci and scalar curvature, order-1 jets, each contracting g^-1
        # over one flattened index pair
        ginv1 = ginvJ[..., :N1].reshape(n * n, m, N1)
        ricJ = RICCI_SIGN * c1.contract(
            ginv1, np.transpose(rmJ, (0, 3, 1, 2, 4, 5)).reshape(
                (n * n, n, n, m, N1)))
        tauJ = c1.contract(ginv1, ricJ.reshape(n * n, m, N1))
        self.ric0 = values(ricJ)                 # (m, i, j)
        self.d_ric = derivs1(ricJ)               # (m, a, i, j)
        self.tau0 = values(tauJ)                 # (m,)
        self.d_tau = derivs1(tauJ)               # (m, a)

        # density: h at order 2, dh at order 1, the Hessian as values
        hJ = J.eval_jets(spec.h, pts, c2)
        if np.any(hJ[..., 0] <= 0.0):
            raise DomainError(f"{spec.name}: density not positive on box")
        self.h0 = values(hJ)
        dhJ = np.empty((n, m, N1))
        for a in range(n):
            dhJ[a] = c2.deriv(hJ, a)[..., :N1]
        self.dh = values(dhJ)                    # (m, a)
        hesJ = np.empty((n, n, m, c0.N))
        for i in range(n):
            for j in range(n):
                hesJ[i, j] = c1.deriv(dhJ[i], j)[..., :c0.N]
        up0, dh0 = upJ[..., :c0.N], dhJ[..., :c0.N]
        hesJ -= c0.contract(dh0, up0)
        self.hes0 = values(hesJ)                 # (m, i, j)
        self.lap0 = np.einsum("mij,mij->m", ginv0, self.hes0)
        self.gradh = np.einsum("mij,mj->mi", ginv0, self.dh)
        self.gradh_sq = np.einsum("mi,mi->m", self.dh, self.gradh)

        # Schouten tensor jets and its covariant derivative values
        nn = float(n)
        jJ = tauJ / (2.0 * (nn - 1.0))           # scalar J jets
        pJ = (ricJ - c1.mul(jJ[None, None], g1)) / (nn - 2.0)
        self.schouten0 = values(pJ)
        self.scalar_j0 = values(jJ)
        self.cov_schouten = _cov2(values(pJ), derivs1(pJ), self.gamma0)
        self.cov_ric = _cov2(self.ric0, self.d_ric, self.gamma0)

        # Cotton tensor dP(X,Y,Z), stored [x, y, z]
        cp = self.cov_schouten                   # (m, a, b, c)
        self.cotton0 = (nn - 2.0) * (np.einsum("myxz->mxyz", cp)
                                     - np.einsum("mzxy->mxyz", cp))
        cr = self.cov_ric
        self.div_riemann0 = (np.einsum("myxz->mxyz", cr)
                             - np.einsum("mzxy->mxyz", cr))

        # Weyl
        if n >= 4:
            self.weyl0 = self.riemann0 - kn_product(self.schouten0, self.g0)
        else:
            self.weyl0 = None


def _cov2(t0, dt, gamma0):
    """Covariant derivative of a valence-2 tensor from values.

    t0: (m, b, c); dt: (m, a, b, c) coordinate derivatives;
    gamma0: (m, k, i, j).  Returns (m, a, b, c) = (nabla_a t)(b, c)."""
    corr1 = np.einsum("msab,msc->mabc", gamma0, t0)
    corr2 = np.einsum("msac,mbs->mabc", gamma0, t0)
    return dt - corr1 - corr2


def kn_product(A, B):
    """Kulkarni-Nomizu product of batched symmetric 2-tensors (m, n, n):
    (A kn B)_ijkl = A_ik B_jl + A_jl B_ik - A_il B_jk - A_jk B_il."""
    return (np.einsum("mik,mjl->mijkl", A, B)
            + np.einsum("mjl,mik->mijkl", A, B)
            - np.einsum("mil,mjk->mijkl", A, B)
            - np.einsum("mjk,mil->mijkl", A, B))


# -- frame cache ---------------------------------------------------------

_frame_cache = {}


def frame_at(spec, pts):
    """Batched frame, cached on (spec identity, points)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    key = (id(spec), pts.tobytes())
    hit = _frame_cache.get(key)
    if hit is not None:
        return hit
    fr = Frame(spec, pts)
    if len(_frame_cache) >= _FRAME_CACHE_SIZE:
        _frame_cache.pop(next(iter(_frame_cache)))
    _frame_cache[key] = fr
    return fr


# -- warped-product Ricci oracle -----------------------------------------

def warped_ricci(eps, f, fp, fpp, fiber_ricci, fiber_metric):
    """Independent Ricci oracle for a warped product eps dt^2 + f^2 g_F
    with Einstein-or-known fiber: given f and its derivatives at the
    point plus the fiber Ricci and metric component blocks, assemble the
    (1+d)-dimensional coordinate Ricci matrix (base coordinate first)."""
    return multiply_warped_ricci(eps, [(f, fp, fpp, fiber_ricci,
                                        fiber_metric)])


def multiply_warped_ricci(eps, fibers):
    """Ricci oracle for eps dt^2 + sum_a f_a^2 g_{F_a}: ``fibers`` is a
    list of (f, f', f'', fiber_ricci, fiber_metric) blocks.  Returns the
    full coordinate matrix with the base coordinate first and fiber
    blocks in order; cross blocks vanish."""
    dims = [np.asarray(fm).shape[0] for (_, _, _, _, fm) in fibers]
    n = 1 + sum(dims)
    out = np.zeros((n, n))
    out[0, 0] = -sum(d * fpp / f
                     for d, (f, fp, fpp, _, _) in zip(dims, fibers))
    ofs = 1
    for a, (f, fp, fpp, fric, fmet) in enumerate(fibers):
        d = dims[a]
        mix = sum(dims[b] * fibers[b][1] / fibers[b][0]
                  for b in range(len(fibers)) if b != a)
        c = eps * (fpp / f + (d - 1) * (fp / f) ** 2 + (fp / f) * mix)
        block = np.asarray(fric, dtype=float) \
            - c * f ** 2 * np.asarray(fmet, dtype=float)
        out[ofs:ofs + d, ofs:ofs + d] = block
        ofs += d
    return out

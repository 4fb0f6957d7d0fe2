"""Pointwise pseudo-Riemannian curvature machinery.

Everything is driven by Taylor jets of the metric components.  The
batched :class:`Frame` computes all curvature data at an array of sample
points at once, carrying each stage only to the derivative order that a
later stage reads.  The jet order k of the curvature stage is the
Frame's ``order``:

    g                                           order k + 2
    dg, lowered Christoffel Gamma_kij, h        order k + 1
    g^-1, Gamma^k_ij, rho, tau, dh              order k
    R                                           values
    J, P                                        order 1, k = 1 only
    Hes_h, d tau, nabla rho, Cotton, Weyl       values, k = 1 only

Verification reads k = 1, the Ricci-type classification k = 0.  The
field equations and the harmonic-curvature checks read rho and its first
derivatives, never a derivative of R, so R is formed as values from the
order-0 slices, and rho comes straight from the symbols: its jets are
g^il (d_i Gamma_ljk - d_j Gamma_lik) plus a quadratic term in the
symbols.  The derivatives of the lowered symbols are linear in dg and
need no contraction, so g^-1 and the raised symbols stop at order k,
and at k = 1 third metric derivatives (needed by the covariant
derivative of the Schouten tensor) still come out of the one evaluation
of g.  That is one :func:`wefe.jets.eval_jets` call over the whole
component array, which evaluates each shared node (g_ij = g_ji, a
repeated conformal factor) once; h is a second call.  Every index
contraction between jets (the Newton step of g^-1, the Christoffel
raise, R, the three terms of rho, tau and the Hessian correction) is
one call of :meth:`wefe.jets.JetContext.contract`, and every derivative
of a stage is one :meth:`wefe.jets.JetContext.grad` gather.  There is no
single-point API: a query at one point reads index 0 of a one-point
:class:`Frame` from :func:`frame_at`.

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

    ``order`` is the jet order k of the curvature stage (see the module
    docstring).  Order 0 holds g0, ginv0, gamma0, riemann0, ric0, tau0,
    h0, dh, gradh and gradh_sq; order 1 adds d_tau, hes0, lap0,
    scalar_j0, cov_ric, cotton0 and weyl0.

    Value arrays carry the point axis first: g0 has shape (m, n, n),
    d_tau has shape (m, a), cov_ric has the derivative slot first per
    the (nabla_a T)(b, c) reading."""

    def __init__(self, spec, pts, order=1):
        self.spec = spec
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != spec.n:
            raise DomainError("point dimension does not match chart")
        self.n = spec.n
        self._compute(pts, order)

    def _compute(self, pts, k):
        spec, n, m = self.spec, self.n, pts.shape[0]
        # one context per truncation order, stages as in the module
        # docstring; truncating a jet to order k is the slice [..., :N_k]
        ck2, ck1, ck = (J.jet_context(n, k + d) for d in (2, 1, 0))
        c0, Nk = J.jet_context(n, 0), ck.N

        def values(a):
            """(comp..., m, N) jets -> (m, comp...) values."""
            v = a[..., 0]
            return v.transpose(v.ndim - 1, *range(v.ndim - 1))

        # metric jets, order k + 2, each shared node evaluated once
        gJ = J.eval_jets(spec.g, pts, ck2)
        self.g0 = values(gJ)

        det = np.linalg.det(self.g0)
        if np.any(np.abs(det) < _DET_TOL) or not np.all(np.isfinite(det)):
            raise SingularMetric(
                f"{spec.name}: |det g| < {_DET_TOL} at a sample point")
        eig = np.linalg.eigvalsh(self.g0)
        neg = np.sum(eig < 0.0, axis=1)
        want = 1 if spec.signature == "lorentzian" else 0
        if np.any(neg != want):
            raise SignatureMismatch(
                f"{spec.name}: eigenvalue signs do not match "
                f"{spec.signature} tag")

        # order-k jet-ring metric inverse: one Newton step X(2 - gX) from
        # the numeric inverse doubles the exact order from 0 to 1.  It is
        # taken at order 0 too, so every order-0 field is bit-identical
        # to the order-1 one
        gk = gJ[..., :Nk]
        ginv0 = np.linalg.inv(self.g0)
        X = np.zeros_like(gk)
        X[..., 0] = ginv0.transpose(1, 2, 0)
        ginvJ = 2.0 * X - ck.contract(X, ck.contract(gk, X))
        self.ginv0 = ginv0

        # Christoffel symbols: lowered, linear in dg, as order-(k + 1)
        # jets; raised as order-k jets
        dgJ = ck2.grad(gJ)  # [a, i, j] = d_a g_ij
        lowJ = 0.5 * (dgJ.transpose(2, 0, 1, 3, 4)
                      + dgJ.transpose(2, 1, 0, 3, 4)
                      - dgJ)  # low[k, i, j] = G_kij
        lowk = lowJ[..., :Nk]
        upJ = ck.contract(ginvJ, lowk)  # up[k, i, j] = Gamma^k_ij
        self.gamma0 = values(upJ)     # (m, k, i, j)
        dlow = ck1.grad(lowJ)         # [i, l, j, k] = d_i G_ljk

        # curvature R~(i,j,k,l) = comp[l, i, j, k] as values, from the
        # order-0 slices: comp = D - (D with i <-> j), where
        # D[l, i, j, k] = d_i G_ljk - G_sil Gamma^s_jk
        low0, up0 = lowk[..., :1], upJ[..., :1]
        D = (dlow[..., :1].transpose(1, 0, 2, 3, 4, 5)
             - c0.contract(low0.transpose(2, 1, 0, 3, 4), up0))
        comp = D - D.transpose(0, 2, 1, 3, 4, 5)
        self.riemann0 = RIEMANN_SIGN * values(
            comp.transpose(1, 2, 3, 0, 4, 5))    # (m, i, j, k, l)

        # Ricci as order-k jets straight from the symbols, the trace
        # g^il R~(i, j, k, l):
        #   ric_jk = g^il (d_i G_ljk - d_j G_lik)
        #            + (Y[i, s, j] - delta_ij v_s) Gamma^s_ik,
        # Y[i, s, j] = g^il G_sjl and v_s = Y[i, s, i].  The quadratic
        # term is one contraction over the flattened pair (i, s)
        ginvk = ginvJ.reshape(n * n, m, Nk)
        E = dlow - dlow.transpose(2, 1, 0, 3, 4, 5)
        Y = ck.contract(ginvJ, lowk.transpose(2, 0, 1, 3, 4))
        diag = np.arange(n)
        Y[diag, :, diag] -= np.trace(Y, axis1=0, axis2=2)
        Yt = Y.transpose(2, 0, 1, 3, 4).reshape(n, n * n, m, Nk)
        upt = upJ.transpose(1, 0, 2, 3, 4).reshape(n * n, n, m, Nk)
        ricJ = RICCI_SIGN * (
            ck.contract(ginvk, E.reshape(n * n, n, n, m, Nk))
            + ck.contract(Yt, upt))
        tauJ = ck.contract(ginvk, ricJ.reshape(n * n, m, Nk))
        self.ric0 = values(ricJ)                 # (m, i, j)
        self.tau0 = values(tauJ)                 # (m,)

        # density: h at order k + 1, dh at order k
        hJ = J.eval_jets(spec.h, pts, ck1)
        if np.any(hJ[..., 0] <= 0.0):
            raise DomainError(f"{spec.name}: density not positive on box")
        self.h0 = values(hJ)
        dhJ = ck1.grad(hJ)
        self.dh = values(dhJ)                    # (m, a)
        self.gradh = np.einsum("mij,mj->mi", ginv0, self.dh)
        self.gradh_sq = np.einsum("mi,mi->m", self.dh, self.gradh)
        if k == 0:
            return

        # the first derivatives of the order-1 stage: d tau, the Hessian
        # as values
        self.d_tau = values(ck.grad(tauJ))       # (m, a)
        hesJ = (ck.grad(dhJ)
                - c0.contract(dhJ[..., :c0.N], upJ[..., :c0.N]))
        self.hes0 = values(hesJ)                 # (m, i, j)
        self.lap0 = np.einsum("mij,mij->m", ginv0, self.hes0)

        # Schouten tensor jets and its covariant derivative values
        nn = float(n)
        jJ = tauJ / (2.0 * (nn - 1.0))           # scalar J jets
        pJ = (ricJ - ck.mul(jJ[None, None], gk)) / (nn - 2.0)
        p0 = values(pJ)
        self.scalar_j0 = values(jJ)
        cp = _cov2(p0, values(ck.grad(pJ)), self.gamma0)  # (m, a, b, c)
        self.cov_ric = _cov2(self.ric0, values(ck.grad(ricJ)),
                             self.gamma0)

        # Cotton tensor dP(X,Y,Z), stored [x, y, z]
        self.cotton0 = (nn - 2.0) * (np.einsum("myxz->mxyz", cp)
                                     - np.einsum("mzxy->mxyz", cp))

        # Weyl
        if n >= 4:
            self.weyl0 = self.riemann0 - kn_product(p0, self.g0)
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


def frame_at(spec, pts, order=1):
    """Batched frame of the given order, cached on (spec identity, order,
    points)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    key = (id(spec), order, pts.tobytes())
    hit = _frame_cache.get(key)
    if hit is not None:
        return hit
    fr = Frame(spec, pts, order)
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

"""Pointwise pseudo-Riemannian curvature machinery.

Everything is driven by Taylor jets of the metric components.  The
batched :class:`Frame` computes all curvature data at an array of sample
points at once, carrying each stage only to the derivative order that a
later stage reads.  The jet order k of the curvature stage is the
Frame's ``order``:

    g_ij, i <= j                                order k + 2
    h                                           order k + 1
    dg, d_p d_q g_ij, Gamma_kij, Gamma^k_ij,
    g^-1, rho, tau, dh                          order k
    R                                           values
    Hes_h, d tau, nabla rho, Cotton, Weyl       values, k = 1 only

Verification reads k = 1, the Ricci-type classification k = 0.  No
stage reads a derivative of R or of the symbols.  One
:meth:`wefe.jets.JetContext.hess` gather takes the order-k jets of
d_p d_q g_ij from g, each of the pairs p <= q and i <= j once, and rho's
linear term comes straight from them: (W + W^T - B - C)/2 with
W_kj = g^il d_i d_k g_jl, B_jk = g^il d_i d_l g_jk and
C_jk = g^il d_j d_k g_il, plus the quadratic term in the symbols.  R's
values are the same second derivatives antisymmetrized, minus the
quadratic term at order 0.  Since nabla g = 0, nabla P is nabla rho
less dJ g, over n - 2.  g is one :func:`wefe.jets.eval_jets` call, which
evaluates each shared node (a repeated conformal factor) once; h is a
second call.  Every index contraction between jets is one call of
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

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import jets as J
from .constants import RICCI_SIGN, RIEMANN_SIGN
from .errors import (DimensionError, DomainError, SignatureMismatch,
                     SingularMetric)

_DET_TOL = 1e-12
# frame_at keeps the last Frames, and the jet arrays their value views
# point into, alive in the heap.  Without that, glibc returns the memory
# to the OS after every operation and faults it back in: on a 2-CPU VM,
# certify-sweep took 777 minor page faults per operation with no Frame
# kept, against 7.6-95 with the last 16 kept, and op_p50_ms rose from
# 7.14 to 8.77 ms.  The keep-alive stays until one fixed jet workspace
# holds these buffers (ROADMAP item 9).
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

    ``order``, 0 or 1, is the jet order k of the curvature stage (see
    the module docstring).  Order 0 holds g0, ginv0, gamma0, riemann0,
    ric0, tau0, h0, dh, gradh and gradh_sq; order 1 adds d_tau, hes0,
    lap0, scalar_j0, cov_ric, cotton0 and weyl0.

    Value arrays carry the point axis first: g0 has shape (m, n, n),
    d_tau has shape (m, a), cov_ric has the derivative slot first per
    the (nabla_a T)(b, c) reading."""

    def __init__(self, spec, pts, order=1):
        if order not in (0, 1):
            raise ValueError(f"Frame order {order!r} is not 0 or 1")
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
        c0, Nk, S = J.jet_context(n, 0), ck.N, ck.pair_index
        iu, ju = ck.pairs

        def values(a):
            """(comp..., m, N) jets -> (m, comp...) values."""
            v = a[..., 0]
            return v.transpose(v.ndim - 1, *range(v.ndim - 1))

        # metric jets g_ij, i <= j, at order k + 2, each shared node
        # evaluated once; S unpacks a pair axis to (i, j)
        gP = J.eval_jets([spec.g[i][j] for i in range(n)
                          for j in range(i, n)], pts, ck2)
        gk = gP[..., :Nk][S]
        self.g0 = values(gk)

        _require(np.abs(np.linalg.det(self.g0)) >= _DET_TOL, pts,
                 SingularMetric, f"{spec.name}: |det g| < {_DET_TOL}")
        _require(np.sum(np.linalg.eigvalsh(self.g0) < 0.0, axis=1)
                 == (spec.signature == "lorentzian"), pts, SignatureMismatch,
                 f"{spec.name}: eigenvalue signs do not match "
                 f"{spec.signature} tag")

        # order-k jet-ring metric inverse: one Newton step X(2 - gX) from
        # the numeric inverse doubles the exact order from 0 to 1.  It is
        # taken at order 0 too, so every order-0 field is bit-identical
        # to the order-1 one
        ginv0 = np.linalg.inv(self.g0)
        X = np.zeros_like(gk)
        X[..., 0] = ginv0.transpose(1, 2, 0)
        ginvJ = 2.0 * X - ck.contract(X, ck.contract(gk, X))
        self.ginv0 = ginv0

        # Christoffel symbols as order-k jets, lowered and raised
        dgJ = ck1.grad(gP[..., :ck1.N])[:, S]  # [a, i, j] = d_a g_ij
        lowk = 0.5 * (dgJ.transpose(2, 0, 1, 3, 4)
                      + dgJ.transpose(2, 1, 0, 3, 4)
                      - dgJ)  # low[k, i, j] = G_kij
        upJ = ck.contract(ginvJ, lowk)  # up[k, i, j] = Gamma^k_ij
        self.gamma0 = values(upJ)     # (m, k, i, j)

        # second metric derivatives as order-k jets, each pair once:
        # d2[pq, ij] = d_p d_q g_ij for p <= q and i <= j, unpacked to
        # F[i, j, k, l] = d_i d_k g_jl, which is symmetric in (j, l)
        d2 = ck2.hess(gP)
        F = d2[S[:, None, :, None], S[None, :, None, :]]

        # curvature R~(i,j,k,l) = D - (D with i <-> j) as values, where
        # D[i, j, k, l] = (F[i, j, k, l] - F[i, j, l, k])/2 - G_sil Gamma^s_jk
        D = (0.5 * (F[..., 0] - F[..., 0].transpose(0, 1, 3, 2, 4))
             - c0.contract(lowk[..., :1].transpose(2, 1, 0, 3, 4),
                           upJ[..., :1])[..., 0].transpose(1, 2, 3, 0, 4))
        self.riemann0 = RIEMANN_SIGN * (D - D.transpose(1, 0, 2, 3, 4)
                                        ).transpose(4, 0, 1, 2, 3)

        # Ricci as order-k jets, the trace g^il R~(i, j, k, l):
        #   ric_jk = (W_kj + W_jk - B_jk - C_jk)/2
        #            + (Y[i, s, j] - delta_ij v_s) Gamma^s_ik
        # with W_kj = g^il F[i, l, k, j], B_jk + C_jk = g^il (d_i d_l g_jk
        # + d_j d_k g_il) summed over the pairs i <= l, Y[i, s, j] =
        # g^il G_sjl and v_s = Y[i, s, i]
        ginvk = ginvJ.reshape(n * n, m, Nk)
        gw = ginvJ[iu, ju] * ck.pair_weight[:, None, None]
        W = ck.contract(ginvk, F.reshape(n * n, n, n, m, Nk))
        BC = ck.contract(gw, d2 + d2.transpose(1, 0, 2, 3))[S]
        Y = ck.contract(ginvJ, lowk.transpose(2, 0, 1, 3, 4))
        diag = np.arange(n)
        Y[diag, :, diag] -= np.trace(Y, axis1=0, axis2=2)
        Yt = Y.transpose(2, 0, 1, 3, 4).reshape(n, n * n, m, Nk)
        upt = upJ.transpose(1, 0, 2, 3, 4).reshape(n * n, n, m, Nk)
        ricJ = RICCI_SIGN * (0.5 * (W + W.transpose(1, 0, 2, 3) - BC)
                             + ck.contract(Yt, upt))
        tauJ = ck.contract(ginvk, ricJ.reshape(n * n, m, Nk))
        self.ric0 = values(ricJ)                 # (m, i, j)
        self.tau0 = values(tauJ)                 # (m,)

        # density: h at order k + 1, dh at order k
        hJ = J.eval_jets(spec.h, pts, ck1)
        _require(hJ[..., 0] > 0.0, pts, DomainError,
                 f"{spec.name}: density not positive")
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
        # summed from a fresh product: an einsum over the transposed hes0
        # view sums a one-point Frame's terms in another order
        self.lap0 = (ginv0 * self.hes0).sum(axis=(1, 2))

        # cov_ric[a, b, c] = (nabla_a rho)(b, c), from d rho and Gamma
        G, r0 = self.gamma0, self.ric0
        self.cov_ric = (values(ck.grad(ricJ))
                        - np.einsum("msab,msc->mabc", G, r0)
                        - np.einsum("msac,mbs->mabc", G, r0))

        # Schouten tensor P = (rho - J g)/(n - 2), J = tau/(2(n - 1)),
        # and since nabla g = 0, cp = (n - 2) nabla P = nabla rho - dJ g
        self.scalar_j0 = self.tau0 / (2.0 * (n - 1.0))
        p0 = (r0 - self.scalar_j0[:, None, None] * self.g0) / (n - 2.0)
        cp = self.cov_ric - np.einsum("ma,mbc->mabc",
                                      self.d_tau / (2.0 * (n - 1.0)), self.g0)

        # Cotton tensor dP(X,Y,Z), stored [x, y, z]
        self.cotton0 = (np.einsum("myxz->mxyz", cp)
                        - np.einsum("mzxy->mxyz", cp))

        # Weyl
        if n >= 4:
            self.weyl0 = self.riemann0 - kn_product(p0, self.g0)
        else:
            self.weyl0 = None


def _require(ok, pts, error, msg):
    """Raise ``error`` naming the index and coordinates of the first point
    where ``ok`` fails (a NaN fails every comparison)."""
    if not np.all(ok):
        i = int(np.argmin(ok))
        raise error(f"{msg} at sample point {i} "
                    f"({', '.join(f'{x:.6g}' for x in pts[i])})")


def kn_product(A, B):
    """Kulkarni-Nomizu product of batched symmetric 2-tensors (m, n, n):
    (A kn B)_ijkl = A_ik B_jl + A_jl B_ik - A_il B_jk - A_jk B_il.

    With X_ijkl = A_ik B_jl + A_jl B_ik, one einsum plus its transpose
    under (i, k) <-> (j, l), the product is X - X with k <-> l."""
    Y = np.einsum("mik,mjl->mijkl", A, B)
    X = Y + Y.transpose(0, 2, 1, 4, 3)
    return X - X.transpose(0, 1, 2, 4, 3)


# -- frame keep-alive ----------------------------------------------------

_recent_frames = deque(maxlen=_FRAME_CACHE_SIZE)


def frame_at(spec, pts, order=1):
    """A new batched Frame of the given order, kept alive among the last
    ``_FRAME_CACHE_SIZE`` built."""
    fr = Frame(spec, pts, order)
    _recent_frames.append(fr)
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

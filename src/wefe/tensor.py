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

Verification reads k = 1, the Ricci-type classification k = 0 or a row
of the verification Frame.  No stage reads a derivative of R or of the
symbols.  One :meth:`wefe.jets.JetContext.hess` gather takes the
order-k jets d2[pq, ij] = d_p d_q g_ij from g, each of the pairs p <= q
and i <= j once.  rho's linear term is one contraction of them, over
the pairs i <= l, with the pair-weighted g^il: the packed form of
(W + W^T - B - C)/2, W_kj = g^il d_i d_k g_jl, B_jk = g^il d_i d_l g_jk
and C_jk = g^il d_j d_k g_il, which never forms the n^4 jets of W.  The
quadratic term in the symbols follows.  R's values are the values of d2
unpacked, minus the order-0 quadratic term made symmetric under the
exchange of its index pairs, each antisymmetrized apart.
Since nabla g = 0, nabla P is nabla rho less dJ g, over n - 2.  g is
one :func:`wefe.jets.eval_jets` call, which evaluates each shared node
(a repeated conformal factor) once; h is a second call.  The jets of
g^-1 are one Newton step from the numeric inverse in closed form, two
stacked matmuls; every other index contraction between jets is one call
of :meth:`wefe.jets.JetContext.contract`.  Every value field is an owned
copy, not a view into a jet array.  There is no single-point API: a
query at one point reads one row of a :class:`Frame` from
:func:`frame_at`, which builds a new Frame on every call.

Each jet array of the build is freed after its last reader.  The
quadratic Ricci term is formed before d2 is gathered, so the symbols'
jets never meet d2, and d2, Z and L (P x P pair jets, P = n(n+1)/2)
each go once the next is formed: a 100-row order-1 Frame at n = 4 keeps
0.63 MB and peaks at 1.8 MB of arrays.

Curvature sign conventions are frozen in :mod:`wefe.constants`: the
valence-4 curvature is R(X,Y,Z,U) = g((nabla_[X,Y] - [nabla_X,
nabla_Y])Z, U), the Ricci tensor is the metric contraction normalized
so a round sphere has positive scalar curvature, and the Weyl tensor
W = R - P (kn) g is totally trace-free with the standard
Kulkarni-Nomizu product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import jets as J
from .constants import RICCI_SIGN, RIEMANN_SIGN
from .errors import (DimensionError, DomainError, SignatureMismatch,
                     SingularMetric)

_DET_TOL = 1e-12


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
    rows = tuple(tuple(g_upper.get((min(i, j), max(i, j)), zero)
                       for j in range(n)) for i in range(n))
    return MetricMeasureSpec(name=name, n=n, g=rows, h=h,
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

        def values(a):
            """(comp..., m, N) jets -> (m, comp...) values, a view of an
            owned copy that keeps the point axis last in memory: numpy's
            einsum over (m, n, n) fields runs its inner loop over the
            points then, four times faster than over C-ordered fields at
            m = 100."""
            v = a[..., 0].copy()
            return v.transpose(v.ndim - 1, *range(v.ndim - 1))

        # metric jets g_ij, i <= j, at order k + 2, each shared node
        # evaluated once; S unpacks a pair axis to (i, j)
        gP = J.eval_jets([spec.g[i][j] for i in range(n)
                          for j in range(i, n)], pts, ck2)
        gk = gP[..., :Nk][S]
        self.g0 = values(gk)

        # one eigvalsh serves both checks: |det g| is |prod of eigenvalues|
        lam = np.linalg.eigvalsh(self.g0)
        _require(np.abs(np.prod(lam, axis=1)) >= _DET_TOL, pts,
                 SingularMetric, f"{spec.name}: |det g| < {_DET_TOL}")
        _require(np.sum(lam < 0.0, axis=1)
                 == (spec.signature == "lorentzian"), pts, SignatureMismatch,
                 f"{spec.name}: eigenvalue signs do not match "
                 f"{spec.signature} tag")

        # order-k jets of g^-1, taken at order 0 too, so every order-0
        # field is bit-identical to the order-1 one
        ginv0 = np.linalg.inv(self.g0)
        ginvJ = _inverse_jets(gk, ginv0)
        self.ginv0 = ginv0
        del gk

        # Christoffel symbols as order-k jets, lowered and raised
        dgJ = ck1.grad(gP[..., :ck1.N])[:, S]  # [a, i, j] = d_a g_ij
        lowk = dgJ.transpose(2, 0, 1, 3, 4) + dgJ.transpose(2, 1, 0, 3, 4)
        lowk -= dgJ
        del dgJ
        lowk *= 0.5                    # low[k, i, j] = G_kij
        upJ = ck.contract(ginvJ, lowk)  # up[k, i, j] = Gamma^k_ij
        self.gamma0 = values(upJ)     # (m, k, i, j)

        # the quadratic term of Ricci as order-k jets,
        #   (Y[i, s, j] - delta_ij v_s) Gamma^s_ik,
        # with Y[i, s, j] = g^il G_sjl and v_s = Y[i, s, i]; R reads only
        # the values of the lowered and raised symbols, and the Hessian
        # of h those of the raised ones
        Y = ck.contract(ginvJ, lowk.transpose(2, 0, 1, 3, 4))
        low0 = lowk[..., :1].copy()
        del lowk
        diag = np.arange(n)
        Y[diag, :, diag] -= np.trace(Y, axis1=0, axis2=2)
        Yt = Y.transpose(2, 0, 1, 3, 4).reshape(n, n * n, m, Nk)
        del Y
        upt = upJ.transpose(1, 0, 2, 3, 4).reshape(n * n, n, m, Nk)
        up0 = upJ[..., :1].copy()
        del upJ
        quad = ck.contract(Yt, upt)
        del Yt, upt

        # second metric derivatives as order-k jets, each pair once:
        # d2[pq, ij] = d_p d_q g_ij for p <= q and i <= j; R reads only
        # their values, unpacked to F[i, j, k, l] = d_i d_k g_jl
        d2 = ck2.hess(gP)
        del gP
        F = d2[..., 0][S[:, None, :, None], S[None, :, None, :]]

        # R~ = (B - B^ij - (Qs - Qs^ij))/2 as values, ^ij swapping i and j,
        # B = F[i, j, k, l] - F[i, j, l, k] and Qs = Q + Q[j, i, l, k] with
        # Q = G_sil Gamma^s_jk, copied point-last: Qs is exactly symmetric,
        # so R~ is exactly antisymmetric in (i, j) and in (k, l)
        B = F - F.transpose(0, 1, 3, 2, 4)
        del F
        R = B - B.transpose(1, 0, 2, 3, 4)
        Q = c0.contract(low0.transpose(2, 1, 0, 3, 4), up0)[..., 0]
        Q = np.ascontiguousarray(Q.transpose(1, 2, 3, 0, 4))
        del B, low0
        Qs = Q + Q.transpose(1, 0, 3, 2, 4)
        R -= Qs - Qs.transpose(1, 0, 2, 3, 4)
        del Q, Qs
        R *= 0.5 * RIEMANN_SIGN
        self.riemann0 = R.transpose(4, 0, 1, 2, 3)

        # Ricci as order-k jets, the trace g^il R~(i, j, k, l):
        #   ric_jk = sum_{i <= l} w_il g^il L[il, jk] + quad_jk
        # with w the pair weights (2 off the diagonal) and, over the
        # packed pairs,
        #   L[il, jk] = (Z[ij, lk] + Z[ik, lj])/4 - Z[il, jk]/2,
        #   Z[P, Q] = d2[P, Q] + d2[Q, P],
        # which is (W_kj + W_jk - B_jk - C_jk)/2 with W_kj = g^il d_i d_k
        # g_jl, B_jk = g^il d_i d_l g_jk and C_jk = g^il d_j d_k g_il,
        # without the n^4 jets of W.  The factor 1/2 of L rides on the
        # weights.
        P = len(ck.pairs[0])
        Z = d2 + d2.transpose(1, 0, 2, 3)
        del d2
        Zf = Z.reshape(P * P, m, Nk)
        lead, cross = _rho_pair_tables(n)
        L = Zf[lead]
        L += Zf[cross]
        L *= 0.5
        L -= Z
        del Z, Zf
        gw = ginvJ[ck.pairs] * (0.5 * ck.pair_weight)[:, None, None]
        ricJ = RICCI_SIGN * (ck.contract(gw, L)[S] + quad)
        del L, quad
        tauJ = ck.contract(ginvJ.reshape(n * n, m, Nk),
                           ricJ.reshape(n * n, m, Nk))
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
        # summed term by term over a: einsum sums a one-point Frame's
        # terms, contiguous both ways, in another order
        self.gradh_sq = sum(self.dh.T * self.gradh.T)
        if k == 0:
            return

        # the first derivatives of the order-1 stage: d tau, the Hessian
        # as values
        self.d_tau = values(ck.grad(tauJ))       # (m, a)
        hesJ = ck.grad(dhJ) - c0.contract(dhJ[..., :c0.N], up0)
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


def _inverse_jets(gk, ginv0):
    """Order-k jets of g^-1, shape (n, n, m, N), from the jets ``gk`` of
    g and its numeric inverse ``ginv0`` (m, n, n).  One Newton step
    2X - X(gX) from the constant jet X = ginv0 doubles the exact order
    from 0 to 1.  In closed form it is 2X - X g0 X and -X (d g) X: two
    matmuls stacked over (point, coefficient), bit for bit the two
    jet-ring contractions."""
    X = ginv0[:, None]                                     # (m, 1, n, n)
    XgX = X @ (np.ascontiguousarray(gk.transpose(2, 3, 0, 1)) @ X)
    out = np.zeros_like(XgX)                               # (m, N, n, n)
    out[:, 0] = 2.0 * ginv0
    out -= XgX
    return out.transpose(2, 3, 0, 1)


@functools.cache
def _rho_pair_tables(n):
    """Flat indices into the (P, P) pair axes of rho's Z (see
    Frame._compute), rows the pairs i <= l and columns the pairs j <= k:
    ``lead`` picks Z[ij, lk] and ``cross`` Z[ik, lj]."""
    ctx = J.jet_context(n, 0)
    S, (iu, ju), P = ctx.pair_index, ctx.pairs, len(ctx.pairs[0])
    i, l, j, k = iu[:, None], ju[:, None], iu[None, :], ju[None, :]
    return S[i, j] * P + S[l, k], S[i, k] * P + S[l, j]


def kn_product(A, B):
    """Kulkarni-Nomizu product of batched symmetric 2-tensors (m, n, n):
    (A kn B)_ijkl = A_ik B_jl + A_jl B_ik - A_il B_jk - A_jk B_il.

    With X_ijkl = A_ik B_jl + A_jl B_ik, one einsum plus its transpose
    under (i, k) <-> (j, l), the product is X - X with k <-> l."""
    Y = np.einsum("mik,mjl->mijkl", A, B)
    X = Y + Y.transpose(0, 2, 1, 4, 3)
    return X - X.transpose(0, 1, 2, 4, 3)


def frame_at(spec, pts, order=1):
    """A new batched Frame of the given order."""
    return Frame(spec, pts, order)

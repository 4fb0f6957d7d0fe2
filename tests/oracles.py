"""Reference implementations that only the tests read: a central
finite-difference oracle for the jets, a post-hoc Groebner-basis
certificate and the closed-form Ricci tensor of a multiply warped
product.  They check the program and are not part of it."""

import itertools

import numpy as np

from wefe.errors import DomainError
from wefe.groebner import _primitive, _reduce, _spoly
from wefe.jets import MAX_ORDER, eval_jets, jet_context

# -- finite-difference oracle ------------------------------------------

# Step sizes balance stencil truncation (O(h^2)) against round-off
# amplification (eps / h^order), per total derivative order.
_FD_STEPS = {1: 1e-5, 2: 1e-4, 3: 1e-3}

_STENCIL_1D = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def fd_oracle(e, p, order, direction, step=None):
    """Central finite-difference estimate of a mixed partial.

    ``direction`` is a multi-index (length = chart dimension) whose
    entries sum to ``order``; returns the plain derivative value
    (not the Taylor coefficient)."""
    p = np.asarray(p, dtype=float).reshape(-1)
    direction = tuple(int(d) for d in direction)
    if len(direction) != p.shape[0]:
        raise DomainError("direction multi-index length must match point")
    if sum(direction) != order or not 0 <= order <= MAX_ORDER:
        raise DomainError("direction degree must equal order, 0..3")
    values = jet_context(p.shape[0], 0)
    if order == 0:
        return float(eval_jets(e, p[None, :], values)[0, 0])

    axes = [i for i, d in enumerate(direction) if d > 0]
    base = _FD_STEPS[order] if step is None else float(step)
    steps = {i: max(abs(p[i]), 1.0) * base for i in axes}

    stencils = [_STENCIL_1D[direction[i]] for i in axes]
    pts = []
    weights = []
    for combo in itertools.product(*stencils):
        q = p.copy()
        w = 1.0
        for ax, (off, coef) in zip(axes, combo):
            q[ax] += off * steps[ax]
            w *= coef / steps[ax] ** direction[ax]
        pts.append(q)
        weights.append(w)
    vals = eval_jets(e, np.array(pts), values)[:, 0]
    return float(np.dot(weights, vals))


# -- Groebner-basis certificate ------------------------------------------

def is_groebner(basis) -> bool:
    """Post-hoc certificate: every S-polynomial reduces to zero."""
    prim = [_primitive(g) for g in basis]
    basis = [g for _, g, _ in prim]
    lead = [lt for _, _, lt in prim]
    for f, g in itertools.combinations(basis, 2):
        if _reduce(_spoly(f, g), basis, lead=lead)[0]:
            return False
    return True


# -- warped-product Ricci oracle ----------------------------------------

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

"""Quasi-random sample plans over domain boxes.

Points come from a scrambled Halton sequence; the scramble permutation
is seeded either explicitly or from the WEFE_SEED environment variable
(default 0), so runs are reproducible."""

from __future__ import annotations

import os

import numpy as np

from .constants import BOX_SHRINK, SEED_ENV_VAR

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def resolve_seed(seed=None):
    if seed is not None:
        return int(seed)
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def halton(npts, dim, seed=None):
    """Scrambled Halton points in the open unit cube, shape (npts, dim)."""
    if dim > len(_PRIMES):
        raise ValueError(f"dimension {dim} exceeds supported maximum")
    seed = resolve_seed(seed)
    rng = np.random.default_rng(seed)
    out = np.empty((npts, dim))
    for d in range(dim):
        b = _PRIMES[d]
        perm = rng.permutation(b)
        vals = np.zeros(npts)
        idx = np.arange(1, npts + 1)
        f = 1.0 / b
        while np.any(idx > 0):
            vals += perm[idx % b] * f
            idx //= b
            f /= b
        out[:, d] = vals
    # scrambling can emit exact 0; fold into the open interval
    return np.clip(out, 1e-12, 1.0 - 1e-12)


def sample_box(box, npts, seed=None):
    """Halton points inside ``box`` (list of (lo, hi)), each interval
    shrunk by ``BOX_SHRINK`` of its width from both ends."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    u = halton(npts, len(box), seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    width = hi - lo
    return lo + width * (BOX_SHRINK + (1.0 - 2.0 * BOX_SHRINK) * u)

"""Quasi-random sample plans over domain boxes.

Points come from a scrambled Halton sequence; the scramble permutation
is seeded either explicitly or from the WEFE_SEED environment variable
(default 0), so runs are reproducible.  Every point carries the digits
of its base down to 2^-53, so it depends only on its index and the
seed: plans are nested, a k-point plan being bit for bit the first k
rows of any longer one.  Each plan is computed once per process and
shared read-only: a whole-catalog verify asks for the same plan for
every entry of one dimension."""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from .constants import BOX_SHRINK, SEED_ENV_VAR

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def resolve_seed(seed=None):
    if seed is not None:
        return int(seed)
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def halton(npts, dim, seed=None):
    """Scrambled Halton points in the open unit cube, shape (npts, dim),
    read-only."""
    if dim > len(_PRIMES):
        raise ValueError(f"dimension {dim} exceeds supported maximum")
    return _halton(npts, dim, resolve_seed(seed))


@lru_cache(maxsize=64)
def _halton(npts, dim, seed):
    rng = np.random.default_rng(seed)
    out = np.empty((npts, dim))
    for d in range(dim):
        b = _PRIMES[d]
        perm = rng.permutation(b)
        vals = np.zeros(npts)
        idx = np.arange(1, npts + 1)
        f = 1.0 / b
        while f > 2.0 ** -53:
            vals += perm[idx % b] * f
            idx //= b
            f /= b
        out[:, d] = vals
    # scrambling can emit exact 0; fold into the open interval
    out = np.clip(out, 1e-12, 1.0 - 1e-12)
    out.flags.writeable = False
    return out


def sample_box(box, npts, seed=None):
    """Halton points inside ``box`` (list of (lo, hi)), each interval
    shrunk by ``BOX_SHRINK`` of its width from both ends."""
    lo, hi = np.array(box, dtype=float).reshape(-1, 2).T
    u = halton(npts, len(lo), seed)
    return lo + (hi - lo) * (BOX_SHRINK + (1.0 - 2.0 * BOX_SHRINK) * u)

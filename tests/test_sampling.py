"""Halton sample plans: cached, read-only, nested, and equal to the plain
loop."""

import numpy as np
import pytest

from wefe import sampling
from wefe.constants import BOX_SHRINK
from wefe.sampling import halton, sample_box


def _reference_box(box, npts, seed):
    """sample_box computed point by point, digit by digit, with no cache:
    every point runs the digits of its base b down to 2^-53, the largest
    count D with b^D < 2^53, as the batched plan does, so the sums take
    the same steps."""
    rng = np.random.default_rng(seed)
    out = np.empty((npts, len(box)))
    for d, (lo, hi) in enumerate(box):
        b = sampling._PRIMES[d]
        perm = rng.permutation(b)
        digits = 0
        while b ** (digits + 1) < 2 ** 53:
            digits += 1
        for i in range(npts):
            idx, f, v = i + 1, 1.0 / b, 0.0
            for _ in range(digits):
                v += perm[idx % b] * f
                idx //= b
                f /= b
            u = min(max(v, 1e-12), 1.0 - 1e-12)
            out[i, d] = lo + (hi - lo) * (BOX_SHRINK
                                          + (1.0 - 2.0 * BOX_SHRINK) * u)
    return out


@pytest.mark.parametrize("npts", [1, 7, 100])
@pytest.mark.parametrize("dim", [3, 4, 6])
def test_sample_box_equals_uncached_loop(npts, dim):
    box = [(-1.0 - d, 0.5 * d + 0.25) for d in range(dim)]
    want = _reference_box(box, npts, 3)
    for _ in range(2):  # the second call reads the cached plan
        got = sample_box(box, npts, 3)
        assert np.array_equal(got, want)
        got[:] = 0.0    # a caller's copy does not write through


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("dim", range(3, 9))
def test_plans_are_nested(dim, seed):
    # a point depends only on its index and the seed, so a short plan is
    # the head of a long one, bit for bit
    box = [(-1.0 - d, 0.5 * d + 0.25) for d in range(dim)]
    full = sample_box(box, 1000, seed)
    for k in (1, 2, 7, 8, 100, 999):
        assert np.array_equal(sample_box(box, k, seed), full[:k]), k


def test_plan_is_computed_once_and_read_only():
    u = halton(9, 4, 5)
    assert halton(9, 4, 5) is u
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.5


def test_seed_env_selects_the_plan(monkeypatch):
    box = [(0.0, 1.0)] * 4
    monkeypatch.setenv("WEFE_SEED", "1")
    one = sample_box(box, 10)
    assert np.array_equal(one, sample_box(box, 10, 1))
    monkeypatch.setenv("WEFE_SEED", "2")
    two = sample_box(box, 10)
    assert np.array_equal(two, sample_box(box, 10, 2))
    assert not np.array_equal(one, two)

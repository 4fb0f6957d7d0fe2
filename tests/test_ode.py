"""Density/warping ODE system, the 5(4) integrator, and closed forms."""

import csv
import math

import numpy as np
import pytest

from wefe import ode
from wefe.errors import (DegenerateState, InadmissibleConstants,
                         ParameterOutOfRange, StepFailure)


def test_rhs_constant_solution():
    # h, phi constant with tau = 0 is a fixed point
    st = ode.OdeState(t=0.0, h=2.0, hp=0.0, phi=1.5, phip=0.0, tau=0.0)
    hpp, phipp = ode.rhs(st)
    assert hpp == 0.0 and phipp == 0.0


def test_rhs_matches_hand_values():
    st = ode.OdeState(t=0.0, h=2.0, hp=1.0, phi=1.0, phip=3.0,
                      n=4, eps=-1.0, tau=6.0)
    hpp, phipp = ode.rhs(st)
    assert phipp == pytest.approx(1.0 * 3.0 / 2.0)
    assert hpp == pytest.approx(-3 * 2.0 * 1.5 / 1.0 - (-1.0) * 6.0 * 2.0 / 3)


def test_rhs_degenerate_density():
    st = ode.OdeState(t=0.0, h=0.0, hp=1.0, phi=1.0, phip=0.0)
    with pytest.raises(DegenerateState):
        ode.rhs(st)
    st = ode.OdeState(t=0.0, h=1.0, hp=1.0, phi=-1.0, phip=0.0)
    with pytest.raises(DegenerateState):
        ode.rhs(st)


@pytest.mark.parametrize("branch, params", [
    ("direct", dict(eps=1.0, kappa=1.0, c1=0.3, c2=1.0)),
    ("direct", dict(eps=-1.0, kappa=1.0, c1=0.7, c2=0.4)),
    ("warped", dict(eps=1.0, tau=6.0, kappa=1.0, c1=0.2, c2=0.1, A=1.0)),
    ("warped", dict(eps=-1.0, tau=3.0, kappa=1.0, c1=1.2, c2=0.3, A=0.5)),
    ("warped", dict(eps=1.0, tau=0.0, kappa=1.0, c1=3.0, c2=3.0, A=1.0)),
])
def test_closed_forms_satisfy_system(branch, params):
    # second differences of the closed form against rhs
    dt = 1e-4
    for t in (-0.4, 0.0, 0.3):
        sm = ode.closed_form(branch, params, t - dt)
        s0 = ode.closed_form(branch, params, t)
        sp = ode.closed_form(branch, params, t + dt)
        hpp_fd = (sp.h - 2 * s0.h + sm.h) / dt ** 2
        ppp_fd = (sp.phi - 2 * s0.phi + sm.phi) / dt ** 2
        hpp, phipp = ode.rhs(s0)
        assert hpp_fd == pytest.approx(hpp, abs=1e-5)
        assert ppp_fd == pytest.approx(phipp, abs=1e-5)


@pytest.mark.parametrize("branch, params", [
    ("direct", dict(eps=1.0, kappa=1.0, c1=0.3, c2=1.0)),
    ("warped", dict(eps=-1.0, tau=3.0, kappa=1.0, c1=1.2, c2=0.3, A=0.5)),
])
def test_integrator_reproduces_closed_form(branch, params):
    start = ode.closed_form(branch, params, -0.5)
    traj = ode.integrate(start, 0.5)
    assert not traj.terminated_early
    end = traj.final()
    ref = ode.closed_form(branch, params, 0.5)
    for attr in ("h", "hp", "phi", "phip"):
        assert getattr(end, attr) == pytest.approx(getattr(ref, attr),
                                                   abs=1e-8)


def test_integrator_reversible():
    start = ode.closed_form(
        "warped", dict(eps=1.0, tau=6.0, kappa=1.0, c1=0.2, c2=0.1, A=1.0),
        0.0)
    fwd = ode.integrate(start, 0.4).final()
    back = ode.integrate(fwd, 0.0).final()
    for attr in ("h", "hp", "phi", "phip"):
        assert getattr(back, attr) == pytest.approx(getattr(start, attr),
                                                    abs=1e-8)


def test_first_integrals_conserved():
    start = ode.closed_form(
        "warped", dict(eps=-1.0, tau=3.0, kappa=1.0, c1=1.2, c2=0.3, A=0.5),
        -0.5)
    traj = ode.integrate(start, 0.5)
    dg, dk = traj.max_drift()
    assert dg < 1e-8
    assert dk < 1e-8


def test_kappa_recovered_matches_input():
    for branch, params in [
            ("direct", dict(eps=1.0, kappa=2.0, c1=0.3, c2=1.0)),
            ("warped", dict(eps=1.0, tau=6.0, kappa=1.0, c1=0.2, c2=0.1,
                            A=1.0))]:
        st = ode.closed_form(branch, params, 0.2)
        _, k = ode.first_integrals(st)
        assert k == pytest.approx(params["kappa"], abs=1e-12)


def test_warped_invariant_manifold():
    # h = A phi' is preserved along the flow
    params = dict(eps=1.0, tau=6.0, kappa=1.0, c1=0.2, c2=0.1, A=2.0)
    traj = ode.integrate(ode.closed_form("warped", params, 0.0), 0.3)
    for st in traj.states:
        assert st.h == pytest.approx(2.0 * st.phip, abs=1e-8)


def test_early_termination_at_density_zero():
    # sin crosses zero: integration stops with the flag instead of raising
    start = ode.direct_product_state(eps=1.0, kappa=1.0, c1=1.0, c2=0.0,
                                     t=0.5)
    traj = ode.integrate(start, 4.0)
    assert traj.terminated_early
    assert traj.final().t < 4.0
    assert traj.final().h < 1e-6


def _numpy_trajectory(st, t_end, tol=ode.DEFAULT_TOL):
    """The Dormand-Prince loop on numpy 4-vectors, from the same tableau and
    step control, for spans with no degenerate stage or early stop."""
    def f(t, y):
        hpp, phipp = ode.rhs(st._replace(t=t, h=y[0], hp=y[1], phi=y[2],
                                         phip=y[3]))
        return np.array([y[1], hpp, y[3], phipp])

    t, y = st.t, np.array([st.h, st.hp, st.phi, st.phip])
    direction = 1.0 if t_end >= t else -1.0
    dt = direction * min(1e-3, abs(t_end - t))
    k = [f(t, y)] + [None] * 6
    out = [(t, *y)]
    while direction * (t - t_end) < 0:
        if direction * (t + dt - t_end) > 0:
            dt = t_end - t
        for i in range(1, 7):
            yi = y + dt * sum(a * k[j] for j, a in enumerate(ode._DP_A[i]))
            k[i] = f(t + ode._DP_C[i] * dt, yi)
        y5 = y + dt * sum(b * kj for b, kj in zip(ode._DP_B5, k))
        y4 = y + dt * sum(b * kj for b, kj in zip(ode._DP_B4, k))
        err = float(np.max(np.abs(y5 - y4) / (tol * (1.0 + np.abs(y)))))
        if err <= 1.0:
            t, y, k[0] = t + dt, y5, k[6]
            out.append((t, *y))
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        dt *= min(5.0, max(0.2, factor))
    return out


@pytest.mark.parametrize("branch, params", [
    ("direct", dict(eps=1.0, kappa=1.0, c1=0.3, c2=1.0)),
    ("direct", dict(eps=-1.0, kappa=1.0, c1=0.7, c2=0.4, n=5)),
    ("warped", dict(eps=1.0, tau=6.0, kappa=1.0, c1=0.2, c2=0.1, A=1.0)),
    ("warped", dict(eps=-1.0, tau=3.0, kappa=1.0, c1=1.2, c2=0.3, A=0.5)),
])
@pytest.mark.parametrize("t_end", [1e-3, 0.4, -0.4])
def test_steps_match_numpy_bit_for_bit(branch, params, t_end):
    # the float loop sums each stage in numpy's order, so every accepted
    # step, the first one (t_end = 1e-3) included, and hence every report,
    # is bit for bit that of an array implementation
    start = ode.closed_form(branch, params, 0.0)
    traj = ode.integrate(start, t_end)
    ref = _numpy_trajectory(start, t_end)
    got = [(s.t, s.h, s.hp, s.phi, s.phip) for s in traj.states]
    assert len(got) == len(ref) >= (2 if t_end == 1e-3 else 10)
    assert [[float(v).hex() for v in row] for row in got] == \
        [[float(v).hex() for v in row] for row in ref]
    assert all((s.n, s.eps, s.tau, s.kappa) == (start.n, start.eps,
                                                 start.tau, start.kappa)
               for s in traj.states)


def test_nan_error_estimate_shrinks_the_step():
    # a NaN estimate used to grow the step fivefold until the budget ran
    # out; now the step shrinks until it underflows
    start = ode.OdeState(t=0.0, h=1.0, hp=math.nan, phi=1.0, phip=0.1)
    with pytest.raises(StepFailure, match="underflow"):
        ode.integrate(start, 1.0, max_steps=100)


def test_step_budget_exhausted():
    start = ode.direct_product_state(eps=1.0, kappa=1.0, c1=0.3, c2=1.0,
                                     t=0.0)
    with pytest.raises(StepFailure):
        ode.integrate(start, 1.0, max_steps=2)


def test_direct_branch_needs_curvature():
    with pytest.raises(ParameterOutOfRange):
        ode.direct_product_state(eps=1.0, kappa=0.0, c1=1.0, c2=1.0, t=0.0)


def test_warped_flat_configuration_rejected():
    # c1^2 = 4 eps kappa c2 makes phi affine and the geometry flat
    with pytest.raises(ParameterOutOfRange):
        ode.warped_state(eps=1.0, tau=0.0, kappa=1.0, c1=2.0, c2=1.0,
                         A=1.0, t=0.0)


def test_warped_negative_square_rejected():
    with pytest.raises(DegenerateState):
        ode.warped_state(eps=1.0, tau=0.0, kappa=-1.0, c1=0.0, c2=0.25,
                         A=1.0, t=3.0)


def test_unknown_branch():
    with pytest.raises(ParameterOutOfRange):
        ode.closed_form("spiral", {}, 0.0)


def test_zero_span():
    st = ode.direct_product_state(eps=1.0, kappa=1.0, c1=0.3, c2=1.0, t=0.2)
    traj = ode.integrate(st, 0.2)
    assert len(traj.states) == 1
    assert traj.final() is st


def test_csv_output(tmp_path):
    start = ode.closed_form(
        "direct", dict(eps=1.0, kappa=1.0, c1=0.3, c2=1.0), 0.0)
    traj = ode.integrate(start, 0.3)
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "h", "hp", "phi", "phip", "gamma",
                       "kappa_recovered"]
    assert len(rows) == len(traj.states) + 1
    assert float(rows[-1][0]) == pytest.approx(0.3)
    # kappa column recovers the input curvature everywhere
    assert all(float(r[6]) == pytest.approx(1.0, abs=1e-8)
               for r in rows[1:])


def test_tolerance_scaling():
    params = dict(eps=-1.0, tau=3.0, kappa=1.0, c1=1.2, c2=0.3, A=0.5)
    start = ode.closed_form("warped", params, -0.5)
    ref = ode.closed_form("warped", params, 0.5)
    err = []
    for tol in (1e-6, 1e-10):
        end = ode.integrate(start, 0.5, tol=tol).final()
        err.append(abs(end.h - ref.h) + abs(end.phi - ref.phi))
    assert err[1] < err[0] or err[1] < 1e-12


def test_state_is_an_immutable_named_tuple():
    st = ode.OdeState(0.1, 2.0, 0.3, 1.5, -0.2, 5, -1.0, 3.0, 0.5)
    assert st == ode.OdeState(t=0.1, h=2.0, hp=0.3, phi=1.5, phip=-0.2,
                              n=5, eps=-1.0, tau=3.0, kappa=0.5)
    assert ode.OdeState._fields == ("t", "h", "hp", "phi", "phip", "n",
                                    "eps", "tau", "kappa")
    assert (st.t, st.h, st.hp, st.phi, st.phip) == (0.1, 2.0, 0.3, 1.5, -0.2)
    assert (st.n, st.eps, st.tau, st.kappa) == (5, -1.0, 3.0, 0.5)
    short = ode.OdeState(0.0, 1.0, 0.0, 1.0, 0.0)
    assert (short.n, short.eps, short.tau, short.kappa) == (4, 1.0, 0.0, 0.0)
    with pytest.raises(AttributeError):
        st.h = 1.0
    with pytest.raises(TypeError):
        ode.OdeState(0.0, 1.0, 0.0, 1.0)        # phip has no default
    moved = st._replace(h=3.0)
    assert moved.h == 3.0 and st.h == 2.0
    assert moved[:1] + moved[2:] == st[:1] + st[2:]


# warped constants with gamma = 0 in dimension n, which the closed form
# needs off n = 4: eps tau > 0 takes c1^2 + c2^2 = C^2, eps tau < 0 takes
# 4 c1 c2 = C^2, with C = n(n-1) kappa/(2 tau); phi increases on the span
def _warped_gamma_zero(n, sign):
    if sign > 0:
        eps, tau, kappa = 1.0, 2.0, 1.0
        C = n * (n - 1) * kappa / (2.0 * tau)
        c1, c2 = 0.6 * C, -0.8 * C
    else:
        eps, tau, kappa = -1.0, 3.0, 1.0
        C = n * (n - 1) * kappa / (2.0 * tau)
        c1, c2 = C, C / 4.0
    return dict(n=n, eps=eps, tau=tau, kappa=kappa, c1=c1, c2=c2, A=0.7)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [3, 5, 6])
def test_warped_branch_off_dimension_four(n, sign):
    params = _warped_gamma_zero(n, sign)
    start = ode.closed_form("warped", params, -0.2 if sign < 0 else 0.1)
    traj = ode.integrate(start, 0.9)
    assert not traj.terminated_early and len(traj.states) > 5
    for st in traj.states:
        ref = ode.closed_form("warped", params, st.t)
        for attr in ("h", "hp", "phi", "phip"):
            assert getattr(st, attr) == pytest.approx(getattr(ref, attr),
                                                      abs=1e-9)
    gamma, kappa = ode.first_integrals(start)
    assert gamma == pytest.approx(0.0, abs=1e-12)
    assert kappa == pytest.approx(params["kappa"], abs=1e-12)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [3, 5, 6])
def test_warped_branch_off_dimension_four_rejects_gamma_nonzero(n, sign):
    params = _warped_gamma_zero(n, sign)
    params["c2"] *= 1.0 + 1e-9
    with pytest.raises(InadmissibleConstants,
                       match=f"at n={n} needs gamma = 0") as info:
        ode.closed_form("warped", params, 0.0)
    assert isinstance(info.value, ParameterOutOfRange)
    assert info.value.constraint == ("c1^2 + c2^2 = C^2" if sign > 0
                                     else "4 c1 c2 = C^2")


@pytest.mark.parametrize("n", [3, 5, 6])
def test_warped_tau_zero_needs_dimension_four(n):
    params = dict(eps=1.0, tau=0.0, kappa=1.0, c1=3.0, c2=3.0, A=1.0)
    ode.closed_form("warped", dict(params, n=4), 0.0)
    with pytest.raises(InadmissibleConstants, match="only the flat case"):
        ode.closed_form("warped", dict(params, n=n), 0.0)
    # the flat case itself keeps its own, older refusal
    flat = dict(params, n=n, c1=2.0, c2=1.0)
    with pytest.raises(ParameterOutOfRange, match="is flat") as info:
        ode.closed_form("warped", flat, 0.0)
    assert not isinstance(info.value, InadmissibleConstants)

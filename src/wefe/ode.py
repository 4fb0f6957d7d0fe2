"""Warped-product density ODEs, their first integrals, and closed-form branches.

The system governs a density h and warping function phi on an interval factor:

    phi'' = h' phi' / h
    h''   = -(n-1) h phi''/phi - eps tau h / (n-1)

Both quantities must stay positive along accepted trajectories.  Two first
integrals (gamma and the recovered fiber curvature kappa) are conserved and
used as drift diagnostics.

States are ``OdeState`` named tuples.  The Dormand-Prince 5(4) loop
(J. Comput. Appl. Math. 6, 1980) carries the state and its seven stages as
plain float 4-tuples, and each tableau row (six stages, the 5th- and the
4th-order solution) is one straight-line function, built once from the
tableau.  A row sums left to right from 0 over every coefficient, zeros
included, the order in which numpy sums the same 4-vectors, so
trajectories are bit for bit those of an array implementation.  Every
stage state is built with the positional ``OdeState`` constructor and
evaluated through :func:`rhs`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (DegenerateState, InadmissibleConstants,
                     ParameterOutOfRange, StepFailure)

H_FLOOR = 1e-12
TERMINATION_FLOOR = 1e-9
DEFAULT_TOL = 1e-10
BRANCH_DEADBAND = 1e-12
GAMMA_RTOL = 1e-12   # of the gamma = 0 rule on the warped branch at n != 4


class OdeState(NamedTuple):
    t: float
    h: float
    hp: float
    phi: float
    phip: float
    n: int = 4
    eps: float = 1.0
    tau: float = 0.0
    kappa: float = 0.0


def rhs(state: OdeState) -> tuple[float, float]:
    """Return (h'', phi'') at the given state."""
    if state.h < H_FLOOR:
        raise DegenerateState(f"density {state.h!r} below floor at t={state.t!r}")
    if state.phi <= 0.0:
        raise DegenerateState(f"warping {state.phi!r} non-positive at t={state.t!r}")
    phipp = state.hp * state.phip / state.h
    hpp = -(state.n - 1) * state.h * phipp / state.phi \
        - state.eps * state.tau * state.h / (state.n - 1)
    return hpp, phipp


def first_integrals(state: OdeState) -> tuple[float, float]:
    """Conserved quantities (gamma, kappa_recovered) at a state."""
    _, phipp = rhs(state)
    n, eps, tau = state.n, state.eps, state.tau
    gamma = state.phi ** (n - 1) * phipp + eps * tau / (n * (n - 1)) * state.phi ** n
    # sectional-curvature normalization: a fiber of constant curvature kappa
    # has Ricci (n-2) kappa g^N, which cancels the (n-2) in the identity
    kappa = eps * (
        state.phip ** 2
        + 2.0 * gamma / (n - 2) * state.phi ** (2 - n)
        + eps * tau / (n * (n - 1)) * state.phi ** 2
    )
    return gamma, kappa


# Dormand-Prince 5(4) tableau.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
          -92097 / 339200, 187 / 2100, 1 / 40)


def _row(coeffs):
    """Straight-line ``row(y, dt, k0, k1, ...)`` = y + dt * sum(c_j k_j)
    for one tableau row.  Each component sums left to right from 0 over
    every coefficient, zeros too, as numpy sums 4-vectors; ``repr`` spells
    each coefficient exactly."""
    ks = [f"k{j}" for j in range(len(coeffs))]
    parts = [f"y[{i}] + dt * (0" + "".join(
        f" + {c!r} * {k}[{i}]" for c, k in zip(coeffs, ks)) + ")"
        for i in range(4)]
    namespace = {}
    exec(f"def row(y, dt, {', '.join(ks)}):\n"
         f"    return ({', '.join(parts)})\n", namespace)
    return namespace["row"]


_DP_STAGES = tuple(_row(a) for a in _DP_A[1:])   # k1 .. k6
_DP_Y5 = _row(_DP_B5)
_DP_Y4 = _row(_DP_B4)


@dataclass
class Trajectory:
    states: list
    terminated_early: bool

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "h", "hp", "phi", "phip", "gamma", "kappa_recovered"])
            for st in self.states:
                gamma, kappa = first_integrals(st)
                w.writerow([f"{v:.15g}" for v in
                            (st.t, st.h, st.hp, st.phi, st.phip, gamma, kappa)])

    def final(self) -> OdeState:
        return self.states[-1]

    def max_drift(self) -> tuple[float, float]:
        """Max absolute deviation of (gamma, kappa_recovered) from their
        initial values over the whole trajectory."""
        g0, k0 = first_integrals(self.states[0])
        dg = dk = 0.0
        for st in self.states[1:]:
            g, k = first_integrals(st)
            dg = max(dg, abs(g - g0))
            dk = max(dk, abs(k - k0))
        return dg, dk


def integrate(state: OdeState, t_end: float, tol: float = DEFAULT_TOL,
              max_steps: int = 100000) -> Trajectory:
    """Adaptive 5(4) embedded Runge-Kutta from state.t to t_end.

    Local error per step is kept below tol.  Terminates early (with a flag)
    if h or phi falls below 1e-9.  A NaN error estimate shrinks the step
    fivefold.  Raises StepFailure on step underflow and when the step
    budget runs out.
    """
    t = state.t
    y = (state.h, state.hp, state.phi, state.phip)
    direction = 1.0 if t_end >= t else -1.0
    span = abs(t_end - t)
    if span == 0.0:
        return Trajectory([state], False)
    dt = direction * min(1e-3, span)
    n, eps, tau, kappa = state.n, state.eps, state.tau, state.kappa
    f = rhs  # looked up per call, so a wrapped ode.rhs sees every stage

    def stage(ts, h, hp, phi, phip):
        hpp, phipp = f(OdeState(ts, h, hp, phi, phip, n, eps, tau, kappa))
        return hp, hpp, phip, phipp

    s1, s2, s3, s4, s5, s6 = _DP_STAGES
    _, c1, c2, c3, c4, c5, c6 = _DP_C
    states = [state]
    k0 = stage(t, *y)
    for _ in range(max_steps):
        if abs(dt) < 1e-14 * max(1.0, abs(t)):
            raise StepFailure(f"step size underflow at t={t!r}")
        if direction * (t + dt - t_end) > 0:
            dt = t_end - t
        try:
            k1 = stage(t + c1 * dt, *s1(y, dt, k0))
            k2 = stage(t + c2 * dt, *s2(y, dt, k0, k1))
            k3 = stage(t + c3 * dt, *s3(y, dt, k0, k1, k2))
            k4 = stage(t + c4 * dt, *s4(y, dt, k0, k1, k2, k3))
            k5 = stage(t + c5 * dt, *s5(y, dt, k0, k1, k2, k3, k4))
            k6 = stage(t + c6 * dt, *s6(y, dt, k0, k1, k2, k3, k4, k5))
        except DegenerateState:
            dt *= 0.5
            continue
        y5 = _DP_Y5(y, dt, k0, k1, k2, k3, k4, k5, k6)
        y4 = _DP_Y4(y, dt, k0, k1, k2, k3, k4, k5, k6)
        errs = [abs(u - v) / (tol * (1.0 + abs(w)))
                for u, v, w in zip(y5, y4, y)]
        if math.isnan(sum(errs)):
            # a NaN estimate says nothing about the step: shrink it
            dt *= 0.2
            continue
        err = max(errs)
        if err <= 1.0:
            t = t + dt
            y = y5
            k0 = k6  # FSAL
            states.append(OdeState(t, *y, n, eps, tau, kappa))
            if y[0] < TERMINATION_FLOOR or y[2] < TERMINATION_FLOOR:
                return Trajectory(states, True)
            if direction * (t - t_end) >= 0:
                return Trajectory(states, False)
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        dt *= min(5.0, max(0.2, factor))
    raise StepFailure(f"no convergence within {max_steps} steps")


def direct_product_state(eps: float, kappa: float, c1: float, c2: float,
                         t: float, phi: float = 1.0, n: int = 4) -> OdeState:
    """Closed form for the direct-product branch (phi constant).

    h solves h'' + (n-2) eps kappa / phi^2 h = 0; oscillatory for
    eps*kappa > 0, exponential for eps*kappa < 0.  The kappa = 0 case is
    flat and excluded.
    """
    ek = eps * kappa
    if abs(ek) <= BRANCH_DEADBAND:
        raise ParameterOutOfRange("direct-product branch needs eps*kappa != 0",
                                  "eps*kappa != 0")
    # scalar curvature of eps dt^2 + phi^2 g^N with constant phi; 6k/phi^2 at n=4
    tau = (n - 1) * (n - 2) * kappa / phi ** 2
    w = math.sqrt((n - 2) * abs(ek)) / phi
    if ek > 0:
        h = c1 * math.sin(w * t) + c2 * math.cos(w * t)
        hp = w * (c1 * math.cos(w * t) - c2 * math.sin(w * t))
    else:
        h = c1 * math.exp(w * t) + c2 * math.exp(-w * t)
        hp = w * (c1 * math.exp(w * t) - c2 * math.exp(-w * t))
    return OdeState(t=t, h=h, hp=hp, phi=phi, phip=0.0,
                    n=n, eps=eps, tau=tau, kappa=kappa)


def warped_state(eps: float, tau: float, kappa: float, c1: float, c2: float,
                 A: float, t: float, n: int = 4) -> OdeState:
    """Closed form for the warped branch h = A phi'.

    phi^2 is selected by the sign of eps*tau: C + c1 sin(wt) + c2 cos(wt)
    or C + c1 e^(wt) + c2 e^(-wt), with w^2 = 4|eps tau|/(n(n-1)) and
    C = n(n-1) kappa/(2 tau).  A dead-band of 1e-12 maps to the tau = 0
    polynomial form eps*kappa t^2 + c1 t + c2.  At n = 4 every c1, c2
    solve the system; in other dimensions the closed form needs the first
    integral gamma = 0, that is c1^2 + c2^2 = C^2 (eps tau > 0) or
    4 c1 c2 = C^2 (eps tau < 0), and at tau = 0 only the flat case, which
    is excluded, is left.  Other constants raise InadmissibleConstants.
    """
    et = eps * tau
    if abs(et) > BRANCH_DEADBAND:
        w = math.sqrt(4.0 * abs(et) / (n * (n - 1)))
        C = n * (n - 1) * kappa / (2.0 * tau)
        rule, lhs = (("c1^2 + c2^2 = C^2", c1 * c1 + c2 * c2) if et > 0
                     else ("4 c1 c2 = C^2", 4.0 * c1 * c2))
        if n != 4 and abs(lhs - C * C) > GAMMA_RTOL * max(1.0, C * C):
            raise InadmissibleConstants(
                f"warped branch at n={n} needs gamma = 0, that is {rule} "
                f"with C = n(n-1) kappa/(2 tau) = {C!r}; got {lhs!r} "
                f"against C^2 = {C * C!r}", rule)
        if et > 0:
            F = C + c1 * math.sin(w * t) + c2 * math.cos(w * t)
            Fp = w * (c1 * math.cos(w * t) - c2 * math.sin(w * t))
            Fpp = -w * w * (F - C)
        else:
            F = C + c1 * math.exp(w * t) + c2 * math.exp(-w * t)
            Fp = w * (c1 * math.exp(w * t) - c2 * math.exp(-w * t))
            Fpp = w * w * (F - C)
    else:
        ek = eps * kappa
        if abs(c1 * c1 - 4.0 * ek * c2) <= BRANCH_DEADBAND:
            raise ParameterOutOfRange("tau=0 branch with c1^2 = 4 eps kappa c2 is flat",
                                      "c1^2 != 4 eps kappa c2")
        if n != 4:
            raise InadmissibleConstants(
                f"warped branch at n={n} with tau = 0 needs gamma = 0, "
                f"which leaves only the flat case c1^2 = 4 eps kappa c2",
                "tau != 0 for n != 4")
        F = ek * t * t + c1 * t + c2
        Fp = 2.0 * ek * t + c1
        Fpp = 2.0 * ek
    if F <= 0.0:
        raise DegenerateState(f"phi^2 = {F!r} non-positive at t={t!r}")
    phi = math.sqrt(F)
    phip = Fp / (2.0 * phi)
    phipp = (Fpp - 2.0 * phip * phip) / (2.0 * phi)
    return OdeState(t=t, h=A * phip, hp=A * phipp, phi=phi, phip=phip,
                    n=n, eps=eps, tau=tau, kappa=kappa)


BRANCHES = {
    "direct": direct_product_state,
    "warped": warped_state,
}


def closed_form(branch: str, params: dict, t: float) -> OdeState:
    """Evaluate a named closed-form branch at t.

    branch 'direct' takes eps, kappa, c1, c2 (optional phi, n);
    branch 'warped' takes eps, tau, kappa, c1, c2, A (optional n).
    """
    if branch not in BRANCHES:
        raise ParameterOutOfRange(f"unknown branch {branch!r}",
                                  f"branch in {sorted(BRANCHES)}")
    return BRANCHES[branch](t=t, **params)

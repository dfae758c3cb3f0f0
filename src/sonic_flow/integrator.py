"""Adaptive integration of the steady-flow ODE with event detection.

The system

    (rho^(gamma-1) - rho^-2) rho_x = rho*E - 1/tau,
    E_x = rho - b(x),

degenerates on the sonic line rho = 1, so no single chart can both cross the
bulk of the domain and resolve sonic approaches.  The driver here stitches two
charts:

* the x-chart, integrating (rho, E) over x away from the sonic line, and
* the rho-chart, integrating (E, x) over rho inside a narrow band around
  rho = 1, where dx/drho = (rho^(gamma-1) - rho^-2)/(rho*E - 1/tau) vanishes
  at the sonic line and the square-root behaviour of rho(x) becomes a
  perfectly regular initial value problem.

Termination is reported through events (sonic arrival, target density,
critical point rho*E = 1/tau, blow-up, domain end, step failure).  Sonic
arrivals, blow-ups and step failures always terminate: the trajectory cannot
be continued through them within one chart run.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import brentq

from .errors import (
    DegenerateLaunch,
    IntegrationFailure,
    SonicSingularity,
)
from .model_core import (
    CRITICAL_GUARD,
    SONIC_COEF_GUARD,
    ModelParams,
    State,
    c1_transition_slope,
    tau0_bound,
)

# event kind labels
SONIC_ARRIVAL = "sonic_arrival"
TARGET_DENSITY = "target_density"
CRITICAL_POINT = "critical_point"
BLOW_UP = "blow_up"
DOMAIN_END = "domain_end"
STEP_FAILURE = "step_failure"

# band-entry events fire slightly inside the nominal band so a leg that just
# exited at the band edge does not re-trigger them immediately
_BAND_INSET = 1.0 - 1e-9
_CHART_INSET = 1.0 - 1e-10
_MAX_LEGS = 256
_MIN_GRADED = 1e-6  # finest |rho - 1| resolved by the rho-leg sample grid


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and thresholds for the chart-switching driver."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_step: float = 1e-2
    sonic_band: float = 1e-2
    blow_up_density: float = 1e4
    blow_up_field: float = 1e4
    max_arc_length: float = 1e3

    def __post_init__(self):
        for name in (
            "rel_tol",
            "abs_tol",
            "max_step",
            "sonic_band",
            "blow_up_density",
            "blow_up_field",
            "max_arc_length",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # the x-chart must stay clear of the degenerate coefficient
        if self.sonic_band <= SONIC_COEF_GUARD:
            raise ValueError("sonic_band must exceed the sonic coefficient guard")


class EventSpec:
    """Base for stop-event requests passed to integrate()."""


@dataclass(frozen=True)
class TargetDensity(EventSpec):
    """Stop (or record, if terminal=False) when rho crosses `value`.

    `direction` is the sign of drho/dx at the crossing: +1 fires only on
    upward crossings, -1 only on downward ones, 0 on either.
    """

    value: float
    direction: int = 0
    terminal: bool = True

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("target density must be positive")
        if self.direction not in (-1, 0, 1):
            raise ValueError("direction must be -1, 0 or 1")


@dataclass(frozen=True)
class CriticalPoint(EventSpec):
    pass


@dataclass(frozen=True)
class DomainEnd(EventSpec):
    x: float


@dataclass(frozen=True)
class Event:
    kind: str
    state: State
    value: float | None = None


@dataclass
class TrajectorySegment:
    """One integrated arc: sample arrays plus the event that ended it.

    `xs` is strictly monotone (increasing for forward runs, decreasing for
    backward ones); `events` collects non-terminal occurrences (recorded
    critical points and non-terminal target crossings) in traversal order.
    """

    xs: np.ndarray
    rhos: np.ndarray
    es: np.ndarray
    terminator: Event
    events: list[Event] = field(default_factory=list)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.rhos = np.asarray(self.rhos, dtype=float)
        self.es = np.asarray(self.es, dtype=float)
        if not (len(self.xs) == len(self.rhos) == len(self.es)):
            raise ValueError("coordinate arrays must share a length")
        if len(self.xs) == 0:
            raise ValueError("empty trajectory segment")
        if len(self.xs) > 1:
            steps = np.diff(self.xs)
            if not (np.all(steps > 0) or np.all(steps < 0)):
                raise ValueError("trajectory abscissae must be strictly monotone")

    @property
    def direction(self) -> str:
        if len(self.xs) < 2 or self.xs[-1] > self.xs[0]:
            return "forward"
        return "backward"

    @property
    def first(self) -> State:
        return State(float(self.xs[0]), float(self.rhos[0]), float(self.es[0]))

    @property
    def last(self) -> State:
        return State(float(self.xs[-1]), float(self.rhos[-1]), float(self.es[-1]))

    def midpoint_defect(self, p: ModelParams) -> float:
        """Worst midpoint-rule consistency defect over x-chart intervals.

        For each consecutive sample pair the finite-difference slope is
        compared against the ODE right-hand side at the interval midpoint,
        normalized by 1 + |rhs|.  Pairs inside the sonic band or close to the
        critical locus are skipped; there the comparison is ill-conditioned
        by construction and the rho-chart owns the accuracy story.
        """
        rhs = _make_rhs_x(p)
        worst = 0.0
        for k in range(len(self.xs) - 1):
            dx = self.xs[k + 1] - self.xs[k]
            if dx == 0.0:
                continue
            rm = 0.5 * (self.rhos[k] + self.rhos[k + 1])
            em = 0.5 * (self.es[k] + self.es[k + 1])
            if abs(rm - 1.0) < 1.5e-2 or abs(rm * em - p.inv_tau) < 1e-3:
                continue
            xm = 0.5 * (self.xs[k] + self.xs[k + 1])
            fr, fe = rhs(xm, rm, em)
            dr = (self.rhos[k + 1] - self.rhos[k]) / dx
            de = (self.es[k + 1] - self.es[k]) / dx
            defect = max(
                abs(dr - fr) / (1.0 + abs(fr)), abs(de - fe) / (1.0 + abs(fe))
            )
            worst = max(worst, defect)
        return worst


# Both charts' right-hand sides take and return plain floats: (t, a, b) in,
# (da/dt, db/dt) out.  Powers go through math.pow, which raises (and the
# kernel turns into NaN) where ** would return a complex number.


def _make_rhs_x(p: ModelParams):
    inv_tau = p.inv_tau
    gamma = p.gamma
    if p.doping.is_constant:
        bc = p.doping.constant_value

        def bfun(x):
            return bc

    else:
        prof = p.doping

        def bfun(x):
            return float(prof(x))

    if gamma == 1.0:

        def rhs(x, r, e):
            r2 = r * r
            return ((r * e - inv_tau) * r2 / (r2 - 1.0), r - bfun(x))

    else:

        def rhs(x, r, e):
            coef = math.pow(r, gamma - 1.0) - math.pow(r, -2.0)
            return ((r * e - inv_tau) / coef, r - bfun(x))

    return rhs


def _make_rhs_rho(p: ModelParams):
    inv_tau = p.inv_tau
    gamma = p.gamma
    if p.doping.is_constant:
        bc = p.doping.constant_value

        def bfun(x):
            return bc

    else:
        prof = p.doping

        def bfun(x):
            return float(prof(x))

    if gamma == 1.0:

        def rhs(r, e, x):
            dxdr = (1.0 - 1.0 / (r * r)) / (r * e - inv_tau)
            return ((r - bfun(x)) * dxdr, dxdr)

    else:

        def rhs(r, e, x):
            dxdr = (math.pow(r, gamma - 1.0) - math.pow(r, -2.0)) / (r * e - inv_tau)
            return ((r - bfun(x)) * dxdr, dxdr)

    return rhs


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) kernel
#
# Tableau, error estimate, initial step, step controller, event rules and
# t_eval sampling follow scipy's RK45 / solve_ivp step for step (Dormand &
# Prince 1980; Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4-II.6;
# events located on the dense interpolant as in Shampine & Thompson 2000).
# The two-component state is held in plain floats, which removes the array
# allocation, dot products and event bookkeeping that dominated the cost of
# the many short arcs a shooting solve integrates.

_EPS = sys.float_info.epsilon
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 5  # the embedded error estimate is of order 4
_SQRT_N = 2**0.5  # RMS norm over the two components

_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
)
# the fifth-order weights and the error weights vanish on stage 2, and so does
# its row of the dense-output matrix; stage 2 is left out of all three
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40
)
# quartic dense output: per stage 1, 3..7, the weights of theta^1..theta^4
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


class _Watch(NamedTuple):
    """An event function g(t, a, b) with its stop rule and its meaning."""

    g: Callable[[float, float, float], float]
    terminal: bool
    direction: int  # +1 rising crossings only, -1 falling only, 0 both
    kind: str
    value: float | None = None


def _rms(u, v):
    return math.sqrt(u * u + v * v) / _SQRT_N


def _eval_rhs(fun, t, a, b):
    """fun(t, a, b), or NaNs where float arithmetic raises."""
    try:
        return fun(t, a, b)
    except (ArithmeticError, ValueError):
        return math.nan, math.nan


class _Step:
    """Quartic interpolant over one accepted step."""

    __slots__ = ("t_old", "h", "ya", "yb", "k", "_q")

    def __init__(self, t_old, h, ya, yb, k):
        self.t_old, self.h, self.ya, self.yb = t_old, h, ya, yb
        self.k = k  # ((ka, kb) of stages 1, 3, 4, 5, 6, 7)
        self._q = None

    def __call__(self, t):
        if self._q is None:
            self._q = tuple(
                tuple(sum(k[c] * row[j] for k, row in zip(self.k, _P)) for j in range(4))
                for c in (0, 1)
            )
        (qa0, qa1, qa2, qa3), (qb0, qb1, qb2, qb3) = self._q
        h = self.h
        x = (t - self.t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return (
            h * (qa0 * x + qa1 * x2 + qa2 * x3 + qa3 * x4) + self.ya,
            h * (qb0 * x + qb1 * x2 + qb2 * x3 + qb3 * x4) + self.yb,
        )


class OdeResult:
    """Outcome of one `solve_ivp` run.

    `t`, `ya` and `yb` are the samples. `status` is 0 when `t_bound` was
    reached, 1 when a terminal event stopped the run, and -1 when the step
    size fell below 10 ulp of t. `roots` holds `(event index, t, a, b)` for
    every event root located before the stop, in traversal order; after a
    terminal stop its root comes last and `terminal` is its event index,
    otherwise `terminal` is None. `nfev` counts right-hand-side evaluations.
    """

    __slots__ = ("t", "ya", "yb", "status", "nfev", "roots", "terminal", "steps")

    def __init__(self, t, ya, yb, status, nfev, roots, terminal, steps):
        self.t, self.ya, self.yb = t, ya, yb
        self.status, self.nfev = status, nfev
        self.roots, self.terminal = roots, terminal
        self.steps = steps

    def sol(self, ts):
        """Interpolated states (a, b) at each of ts; needs ``dense_output=True``.

        A t on a step boundary is read from the earlier step, a t beyond
        either end of the run from the end step.
        """
        steps = self.steps
        d = math.copysign(1.0, steps[0].h)
        starts = [d * s.t_old for s in steps]
        return [steps[max(bisect.bisect_left(starts, d * t) - 1, 0)](t) for t in ts]


def solve_ivp(
    fun, t0, t_bound, y0, rtol, atol, max_step, events=(), t_eval=None,
    dense_output=False,
):
    """Integrate a two-component ODE from t0 toward t_bound (Dormand-Prince 5(4)).

    ``fun(t, a, b)`` returns the derivatives of the state ``(a, b)``. Each
    of `events` provides ``g(t, a, b)``, ``terminal`` and ``direction``. An
    event fires where g changes sign over a step, in the given direction
    (+1 rising, -1 falling, 0 either). Its root is found by brentq
    (xtol = rtol = 4 eps) on the step's quartic interpolant. The run stops
    at the first terminal root in traversal order; the roots before it are
    kept. Without `t_eval` every accepted step is sampled, the stopping root
    included. With `t_eval`, which must run monotonically along the span,
    only those points are sampled, up to and including the end point.

    The tableau, the RMS error norm over ``atol + rtol*max(|y|, |y_new|)``,
    the initial step, the step controller and the event and sampling rules
    are those of ``scipy.integrate.solve_ivp(method="RK45")``, so both take
    the same steps up to roundoff.

    The benchmark's trace wraps the ODE layer under this module-level name
    and reads ``nfev`` from the result, so both chart legs call the kernel
    through this global.
    """
    t = float(t0)
    t_bound = float(t_bound)
    ya, yb = float(y0[0]), float(y0[1])
    rtol = max(rtol, 100 * _EPS)
    d = 1.0 if t_bound >= t else -1.0
    span = abs(t_bound - t)

    if t_eval is None:
        ts, yas, ybs = [t], [ya], [yb]
    else:
        t_eval = [float(v) for v in t_eval]
        if any(not min(t, t_bound) <= v <= max(t, t_bound) for v in t_eval):
            raise ValueError("t_eval points lie outside the integration span")
        if any(d * (v1 - v0) <= 0 for v0, v1 in zip(t_eval, t_eval[1:])):
            raise ValueError("t_eval is not strictly monotone along the span")
        ts, yas, ybs = [], [], []
    n_eval = 0
    steps = [] if dense_output else None
    gs = [ev.g for ev in events]
    g = [gi(t, ya, yb) for gi in gs]
    roots = []
    terminal = None

    fa, fb = _eval_rhs(fun, t, ya, yb)
    nfev = 1
    if span == 0.0:
        if t_eval is not None:
            ts, yas, ybs = t_eval, [ya] * len(t_eval), [yb] * len(t_eval)
        return OdeResult(ts, yas, ybs, 0, nfev, roots, None, steps)

    # initial step size (Hairer, Norsett & Wanner, Sec. II.4)
    sa = atol + abs(ya) * rtol
    sb = atol + abs(yb) * rtol
    d0 = _rms(ya / sa, yb / sb)
    d1 = _rms(fa / sa, fb / sb)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    ga, gb = _eval_rhs(fun, t + h0 * d, ya + h0 * d * fa, yb + h0 * d * fb)
    nfev += 1
    d2 = _rms((ga - fa) / sa, (gb - fb) / sb) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, span, max_step)

    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, d * math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs * d
            if d * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            nfev += 6
            try:
                k2a, k2b = fun(t + _C2 * h, ya + _A21 * fa * h, yb + _A21 * fb * h)
                k3a, k3b = fun(
                    t + _C3 * h,
                    ya + (_A31 * fa + _A32 * k2a) * h,
                    yb + (_A31 * fb + _A32 * k2b) * h,
                )
                k4a, k4b = fun(
                    t + _C4 * h,
                    ya + (_A41 * fa + _A42 * k2a + _A43 * k3a) * h,
                    yb + (_A41 * fb + _A42 * k2b + _A43 * k3b) * h,
                )
                k5a, k5b = fun(
                    t + _C5 * h,
                    ya + (_A51 * fa + _A52 * k2a + _A53 * k3a + _A54 * k4a) * h,
                    yb + (_A51 * fb + _A52 * k2b + _A53 * k3b + _A54 * k4b) * h,
                )
                k6a, k6b = fun(
                    t + h,
                    ya + (_A61 * fa + _A62 * k2a + _A63 * k3a + _A64 * k4a
                          + _A65 * k5a) * h,
                    yb + (_A61 * fb + _A62 * k2b + _A63 * k3b + _A64 * k4b
                          + _A65 * k5b) * h,
                )
                na = ya + h * (_B1 * fa + _B3 * k3a + _B4 * k4a + _B5 * k5a + _B6 * k6a)
                nb = yb + h * (_B1 * fb + _B3 * k3b + _B4 * k4b + _B5 * k5b + _B6 * k6b)
                k7a, k7b = fun(t + h, na, nb)
                # max(|y|, |y_new|) that, like np.maximum, passes a NaN y_new on
                ma, mb = abs(ya), abs(yb)
                ma = ma if ma >= abs(na) else abs(na)
                mb = mb if mb >= abs(nb) else abs(nb)
                error_norm = _rms(
                    (_E1 * fa + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a
                     + _E7 * k7a) * h / (atol + ma * rtol),
                    (_E1 * fb + _E3 * k3b + _E4 * k4b + _E5 * k5b + _E6 * k6b
                     + _E7 * k7b) * h / (atol + mb * rtol),
                )
            except (ArithmeticError, ValueError):
                error_norm = math.nan  # rejected like an overflowing step
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
        if status is not None:
            break

        step = _Step(
            t, h, ya, yb,
            ((fa, fb), (k3a, k3b), (k4a, k4b), (k5a, k5b), (k6a, k6b), (k7a, k7b)),
        )
        t_old = t
        t, ya, yb, fa, fb = t_new, na, nb, k7a, k7b
        if d * (t - t_bound) >= 0:
            status = 0
        if steps is not None:
            steps.append(step)

        if gs:
            g_new = [gi(t, ya, yb) for gi in gs]
            found = []
            for i, (ev, g0, g1) in enumerate(zip(events, g, g_new)):
                up = g0 <= 0 and g1 >= 0
                down = g0 >= 0 and g1 <= 0
                if up if ev.direction > 0 else down if ev.direction < 0 else up or down:
                    root = brentq(
                        lambda s, gi=gs[i]: gi(s, *step(s)),
                        t_old, t, xtol=4 * _EPS, rtol=4 * _EPS,
                    )
                    found.append((d * root, i, root))
            g = g_new
            if found:
                found.sort(key=lambda f: f[0])  # stable: ties keep event order
            for _, i, root in found:
                roots.append((i, root, *step(root)))
                if events[i].terminal:
                    terminal = i
                    status = 1
                    t = root
                    ya, yb = step(root)
                    break

        if t_eval is None:
            ts.append(t)
            yas.append(ya)
            ybs.append(yb)
        else:
            while n_eval < len(t_eval) and d * (t_eval[n_eval] - t) <= 0:
                a, b = step(t_eval[n_eval])
                ts.append(t_eval[n_eval])
                yas.append(a)
                ybs.append(b)
                n_eval += 1

    return OdeResult(ts, yas, ybs, status, nfev, roots, terminal, steps)


# ---------------------------------------------------------------------------
# chart legs


@dataclass
class _LegResult:
    xs: np.ndarray
    rhos: np.ndarray
    es: np.ndarray
    terminator: Event | None
    recorded: list[Event]


def _point_leg(x, rho, e, terminator):
    return _LegResult(
        np.array([x]), np.array([rho]), np.array([e]), terminator, []
    )


def _leg_events(res, watches, state):
    """Recorded non-terminal events and the terminal one of a kernel run.

    `state(t, a, b)` maps a kernel point to its primal State.
    """
    recorded = [
        Event(watches[i].kind, state(t, a, b), watches[i].value)
        for i, t, a, b in res.roots
        if not watches[i].terminal
    ]
    terminator = None
    if res.terminal is not None:
        _, t, a, b = res.roots[-1]
        w = watches[res.terminal]
        terminator = Event(w.kind, state(t, a, b), w.value)
    return recorded, terminator


def _x_leg(x, rho, e, dsign, span_limit, targets, domain, want_critical, p, cfg):
    inv_tau = p.inv_tau
    band_in = cfg.sonic_band * _BAND_INSET
    blow_r, blow_e = cfg.blow_up_density, cfg.blow_up_field

    # band entry means |rho - 1| shrinking along the traversal, an x-order
    # agnostic notion: the upper threshold is always crossed downward and the
    # lower one upward in integration order
    hi, lo = 1.0 + band_in, 1.0 - band_in
    watches = [
        _Watch(lambda t, r, e: r - hi, True, -1, "_band"),
        _Watch(lambda t, r, e: r - lo, True, 1, "_band"),
    ]
    for tg in targets:
        watches.append(_Watch(
            (lambda v: lambda t, r, e: r - v)(tg.value),
            tg.terminal,
            tg.direction * int(dsign),
            TARGET_DENSITY,
            tg.value,
        ))
    watches += [
        _Watch(lambda t, r, e: r * e - inv_tau, want_critical, 0, CRITICAL_POINT),
        _Watch(lambda t, r, e: r - blow_r, True, 0, BLOW_UP),
        _Watch(lambda t, r, e: r - 1.0 / blow_r, True, 0, BLOW_UP),
        _Watch(lambda t, r, e: e - blow_e, True, 0, BLOW_UP),
        _Watch(lambda t, r, e: e + blow_e, True, 0, BLOW_UP),
    ]

    x_end = x + dsign * span_limit
    ends_at_domain = False
    if domain is not None:
        ahead = dsign * (domain.x - x)
        if ahead == 0.0:
            return _point_leg(x, rho, e, Event(DOMAIN_END, State(x, rho, e), domain.x))
        if 0.0 < ahead < span_limit:
            x_end = domain.x
            ends_at_domain = True

    res = solve_ivp(
        _make_rhs_x(p), x, x_end, (rho, e),
        cfg.rel_tol, cfg.abs_tol, cfg.max_step, watches,
    )
    xs, rs, es = np.array(res.t), np.array(res.ya), np.array(res.yb)
    recorded, term = _leg_events(res, watches, State)
    if res.status == -1:
        term = Event(STEP_FAILURE, State(res.t[-1], res.ya[-1], res.yb[-1]))
    elif res.status == 0:
        end = State(res.t[-1], res.ya[-1], res.yb[-1])
        if not ends_at_domain:
            raise IntegrationFailure(
                "arc length budget exhausted before any stop event",
                diagnostics={"x": end.x, "rho": end.rho, "e": end.e},
            )
        term = Event(DOMAIN_END, end, x_end)
    elif term.kind == "_band":
        term = None  # band entry: the caller continues in the rho-chart
    return _LegResult(xs, rs, es, term, recorded)


def _rho_grid(r_a, r_b, inserts=()):
    """Sample densities from r_a to r_b, log-graded in |rho - 1|."""
    n_a, n_b = abs(r_a - 1.0), abs(r_b - 1.0)
    branch = math.copysign(1.0, (r_a - 1.0) if r_a != 1.0 else (r_b - 1.0))
    lo = max(min(n_a, n_b), _MIN_GRADED)
    hi = max(n_a, n_b)
    mags = set()
    if hi > lo:
        num = min(400, max(24, int(40 * math.log10(hi / lo)) + 1))
        mags.update(np.geomspace(lo, hi, num).tolist())
    mags.update((n_a, n_b))
    mags.update(abs(v - 1.0) for v in inserts)
    lo_lim, hi_lim = min(n_a, n_b), max(n_a, n_b)
    kept = sorted(m for m in mags if lo_lim <= m <= hi_lim)
    rhos = [1.0 + branch * m for m in kept]
    if abs(r_b - 1.0) > abs(r_a - 1.0):
        pts = np.array(rhos)
    else:
        pts = np.array(rhos[::-1])
    pts[0], pts[-1] = r_a, r_b
    return pts


def _rho_leg(x, rho, e, dsign, side, targets, domain, p, cfg):
    inv_tau = p.inv_tau
    q = rho * e - inv_tau
    here = State(x, rho, e)
    if abs(q) <= CRITICAL_GUARD:
        # simultaneously near-sonic and near-critical: no chart applies
        return _point_leg(x, rho, e, Event(STEP_FAILURE, here))

    if rho == 1.0:
        if side not in ("supersonic", "subsonic"):
            raise SonicSingularity(
                "a run starting on the sonic line needs an explicit branch"
            )
        branch = -1.0 if side == "supersonic" else 1.0
        s_rho = branch  # departure is always away from the sonic line
        if (1.0 if q > 0 else -1.0) != dsign:
            raise ValueError(
                "sonic departure direction is set by sign(E - 1/tau); "
                f"requested {'forward' if dsign > 0 else 'backward'} conflicts"
            )
    else:
        branch = math.copysign(1.0, rho - 1.0)
        drho_dx_sign = math.copysign(1.0, q) * branch  # sign of q/coef
        s_rho = dsign * drho_dx_sign

    r_b = 1.0 if s_rho == -branch else 1.0 + branch * cfg.sonic_band
    cross_dir = int(s_rho * dsign)  # sign of drho/dx while traversing

    def matches(tg):
        if tg.direction not in (0, cross_dir):
            return False
        return (tg.value - rho) * s_rho > 0 and (r_b - tg.value) * s_rho >= 0

    live = sorted((tg for tg in targets if matches(tg)), key=lambda tg: s_rho * tg.value)
    term_target = next((tg for tg in live if tg.terminal), None)
    if term_target is not None:
        r_b = term_target.value
        live = [tg for tg in live if (r_b - tg.value) * s_rho > 0 and not tg.terminal]
    record_values = [tg.value for tg in live if not tg.terminal]

    guard2 = CRITICAL_GUARD * CRITICAL_GUARD
    blow_e = cfg.blow_up_field

    def near_critical(r, e, x):
        q = r * e - inv_tau
        return q * q - guard2

    watches = [
        _Watch(near_critical, True, -1, STEP_FAILURE),
        _Watch(lambda r, e, x: e - blow_e, True, 0, BLOW_UP),
        _Watch(lambda r, e, x: e + blow_e, True, 0, BLOW_UP),
    ]
    if domain is not None and dsign * (domain.x - x) > 0:
        xd = domain.x
        watches.append(
            _Watch(lambda r, e, x: x - xd, True, int(dsign), DOMAIN_END, xd)
        )

    res = solve_ivp(
        _make_rhs_rho(p), rho, r_b, (e, x),
        cfg.rel_tol, cfg.abs_tol, cfg.max_step, watches,
        t_eval=_rho_grid(rho, r_b, inserts=record_values),
        dense_output=True,
    )
    rs, es, xs = np.array(res.t), np.array(res.ya), np.array(res.yb)
    _, terminator = _leg_events(res, watches, lambda r, e, x: State(x, r, e))
    if res.status == -1:
        terminator = Event(
            STEP_FAILURE, State(float(xs[-1]), float(rs[-1]), float(es[-1]))
        )
    elif res.status == 1:
        end = terminator.state
        if len(rs) == 0 or rs[-1] != end.rho:
            rs = np.append(rs, end.rho)
            es = np.append(es, end.e)
            xs = np.append(xs, end.x)
    else:
        end = State(float(xs[-1]), float(rs[-1]), float(es[-1]))
        if r_b == 1.0:
            terminator = Event(SONIC_ARRIVAL, end)
        elif term_target is not None:
            terminator = Event(TARGET_DENSITY, end, term_target.value)
        # otherwise: clean band exit, caller continues in the x-chart

    # the rho grid can be coarse in x near a tangential crossing; densify
    # so the stored abscissas respect the step cap like every other leg
    for _ in range(3):
        if len(rs) < 2:
            break
        gaps = np.abs(np.diff(xs))
        wide = np.nonzero(gaps > cfg.max_step)[0]
        if not len(wide):
            break
        fill = [
            np.linspace(rs[i], rs[i + 1], int(math.ceil(gaps[i] / cfg.max_step)) + 1)[1:-1]
            for i in wide
        ]
        extra = np.concatenate(fill)
        ye = np.array(res.sol(extra.tolist())).reshape(-1, 2)
        rs = np.concatenate([rs, extra])
        es = np.concatenate([es, ye[:, 0]])
        xs = np.concatenate([xs, ye[:, 1]])
        order = np.argsort(s_rho * rs)
        rs, es, xs = rs[order], es[order], xs[order]
        keep = np.concatenate([[True], np.diff(xs) != 0.0])
        rs, es, xs = rs[keep], es[keep], xs[keep]

    recorded = []
    for v in record_values:
        hit = np.nonzero(rs == v)[0]
        if len(hit):
            k = int(hit[0])
            recorded.append(
                Event(TARGET_DENSITY, State(float(xs[k]), float(rs[k]), float(es[k])), v)
            )
    recorded.sort(key=lambda ev: dsign * ev.state.x)
    return _LegResult(xs, rs, es, terminator, recorded)


def _run(x, rho, e, direction, stop_events, p, cfg, sonic_side=None):
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    dsign = 1.0 if direction == "forward" else -1.0

    specs = []
    for s in stop_events or ():
        if isinstance(s, type):
            s = s()
        if not isinstance(s, EventSpec):
            raise TypeError(f"not an event spec: {s!r}")
        specs.append(s)
    targets = [s for s in specs if isinstance(s, TargetDensity)]
    domains = [s for s in specs if isinstance(s, DomainEnd)]
    if len(domains) > 1:
        raise ValueError("at most one DomainEnd stop is supported")
    domain = domains[0] if domains else None
    want_critical = any(isinstance(s, CriticalPoint) for s in specs)

    xs_parts: list[np.ndarray] = []
    r_parts: list[np.ndarray] = []
    e_parts: list[np.ndarray] = []
    recorded: list[Event] = []
    x_origin = x
    side = sonic_side
    terminator = None

    for _ in range(_MAX_LEGS):
        in_band = rho == 1.0 or abs(rho - 1.0) < cfg.sonic_band * _CHART_INSET
        if in_band:
            leg = _rho_leg(x, rho, e, dsign, side, targets, domain, p, cfg)
        else:
            remaining = cfg.max_arc_length - abs(x - x_origin)
            leg = _x_leg(
                x, rho, e, dsign, remaining, targets, domain, want_critical, p, cfg
            )
        side = None
        skip = 1 if xs_parts and len(leg.xs) > 1 else 0
        if len(leg.xs) > skip:
            xs_parts.append(leg.xs[skip:])
            r_parts.append(leg.rhos[skip:])
            e_parts.append(leg.es[skip:])
        recorded.extend(leg.recorded)
        if leg.terminator is not None:
            terminator = leg.terminator
            break
        x = float(leg.xs[-1])
        rho = float(leg.rhos[-1])
        e = float(leg.es[-1])
        if abs(x - x_origin) >= cfg.max_arc_length:
            raise IntegrationFailure(
                "arc length budget exhausted while switching charts",
                diagnostics={"x": x, "rho": rho, "e": e},
            )
    else:
        raise IntegrationFailure("chart switch limit exceeded")

    xs = np.concatenate(xs_parts)
    rs = np.concatenate(r_parts)
    es = np.concatenate(e_parts)

    # enforce strictly monotone abscissae; x can stall by roundoff only in
    # the last few rho-chart samples hugging the sonic line, where dropping
    # the earlier of two coincident points loses nothing
    keep_x = [xs[0]]
    keep_r = [rs[0]]
    keep_e = [es[0]]
    for k in range(1, len(xs)):
        if dsign * (xs[k] - keep_x[-1]) > 0:
            keep_x.append(xs[k])
            keep_r.append(rs[k])
            keep_e.append(es[k])
        else:
            keep_x[-1], keep_r[-1], keep_e[-1] = xs[k], rs[k], es[k]

    return TrajectorySegment(
        np.array(keep_x), np.array(keep_r), np.array(keep_e), terminator, recorded
    )


def integrate(
    start: State,
    direction: str,
    stop_events,
    p: ModelParams,
    cfg: IntegratorConfig | None = None,
) -> TrajectorySegment:
    """Integrate from an off-sonic state until the first stop event.

    Sonic arrival, blow-up and step failure terminate whether or not they
    were requested; `TargetDensity`, `CriticalPoint` and `DomainEnd` stops
    come from `stop_events`.  Starts exactly on the sonic line are rejected:
    the outgoing branch is ambiguous there, use `integrate_from_sonic` or
    `launch_from_sonic` instead.
    """
    cfg = cfg or IntegratorConfig()
    if abs(start.rho - 1.0) < 1e-12:
        raise SonicSingularity(
            "integrate() cannot start on the sonic line; launch explicitly"
        )
    return _run(start.x, start.rho, start.e, direction, stop_events, p, cfg)


def integrate_from_sonic(
    x0: float,
    side: str,
    e0: float,
    direction: str,
    stop_events,
    p: ModelParams,
    cfg: IntegratorConfig | None = None,
) -> TrajectorySegment:
    """Integrate an arc leaving the sonic line at (x0, rho=1, E=e0) exactly.

    The departure is computed in the rho-chart, where the sonic point is a
    regular initial condition, so no local-expansion truncation enters.  The
    departure direction is dictated by sign(e0 - 1/tau): the density offset
    grows like (e0 - 1/tau)*(x - x0) on either branch, so e0 > 1/tau leaves
    forward and e0 < 1/tau leaves backward; `direction` must agree.
    """
    cfg = cfg or IntegratorConfig()
    if side not in ("supersonic", "subsonic"):
        raise ValueError("side must be 'supersonic' or 'subsonic'")
    q = e0 - p.inv_tau
    if abs(q) <= CRITICAL_GUARD:
        raise DegenerateLaunch(
            "sonic departure requires E(x0) != 1/tau; tangential launches "
            "have no square-root branch"
        )
    return _run(x0, 1.0, e0, direction, stop_events, p, cfg, sonic_side=side)


def launch_from_sonic(
    x0: float,
    side: str,
    e0: float,
    p: ModelParams,
    cfg: IntegratorConfig | None = None,
) -> State:
    """Leading-order off-sonic state at |rho - 1| = sonic_band/2.

    With q = e0 - 1/tau != 0, w = (rho-1)^2 grows linearly, w_x = 2q/(gamma+1)
    at the sonic point, giving the square-root branches rho = 1 +- sqrt(w).
    With q = 0 the only admissible departure is the smooth transition branch
    rho - 1 = slope*(x - x0), available for constant doping b > 1 with tau
    below tau0_bound(b); anything else is a degenerate launch.

    The expansion is trusted only out to half the sonic band; integrate from
    the returned state to go further.
    """
    cfg = cfg or IntegratorConfig()
    if side not in ("supersonic", "subsonic"):
        raise ValueError("side must be 'supersonic' or 'subsonic'")
    q = e0 - p.inv_tau
    offset = cfg.sonic_band / 2.0
    sgn = -1.0 if side == "supersonic" else 1.0

    if abs(q) > 1e-12:
        w_off = offset * offset
        dx = w_off * (p.gamma + 1.0) / (2.0 * q)
        rho = 1.0 + sgn * offset
        e = e0 + (1.0 - p.b(x0)) * dx
        return State(x0 + dx, rho, e)

    # tangential branch: E == 1/tau at the sonic point
    if not (p.doping.is_constant and p.doping.constant_value > 1.0):
        raise DegenerateLaunch(
            "a tangential sonic departure exists only for constant doping "
            "above the sonic level"
        )
    b = p.doping.constant_value
    if p.tau >= tau0_bound(b):
        raise DegenerateLaunch(
            f"tangential departure needs tau < {tau0_bound(b):.6g}; got {p.tau}"
        )
    slope = c1_transition_slope(b, p.tau)
    dx = sgn * offset / slope  # supersonic side lies before x0, subsonic after
    rho = 1.0 + sgn * offset
    # E - 1/(tau*rho) grows with rate 2*slope in (rho - 1) along this branch
    e = 1.0 / (p.tau * rho) + 2.0 * slope * (rho - 1.0)
    return State(x0 + dx, rho, e)

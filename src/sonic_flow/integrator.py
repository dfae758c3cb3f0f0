"""Adaptive integration of the steady-flow ODE to terminal stop events.

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

An arc ends at the first of its stop events: sonic arrival, target density,
blow-up, domain end or step failure.  Sonic arrivals, blow-ups and step
failures always stop it: the trajectory cannot be continued through them
within one chart run.  One more event splits an arc instead of ending it:
on request, the x-chart leg stops where the arc first crosses the critical
locus rho*E = 1/tau, its interior density extremum, and the next leg starts
there, so the extremum is a row of the arc.

The kernel is an owned Dormand-Prince 5(4) that follows scipy's RK45 step
for step.  Events are located with `_brentq`, a port of scipy's ``brentq.c``
(Brent's method) that returns the same root, call count and iteration
count; the shooting driver in `solvers` closes its brackets with it too, so
neither loads scipy.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateLaunch,
    IntegrationFailure,
    SonicSingularity,
)
from .model_core import CRITICAL_GUARD, SONIC_COEF_GUARD, ModelParams, State, vector_field

# event kind labels
SONIC_ARRIVAL = "sonic_arrival"
TARGET_DENSITY = "target_density"
BLOW_UP = "blow_up"
DOMAIN_END = "domain_end"
STEP_FAILURE = "step_failure"

# band-entry events fire slightly inside the nominal band so a leg that just
# exited at the band edge does not re-trigger them immediately
_BAND_INSET = 1.0 - 1e-9
_CHART_INSET = 1.0 - 1e-10
_MAX_LEGS = 256
_SPLIT = "_split"  # x-leg end on the critical locus; the arc goes on
_MIN_GRADED = 1e-6  # finest |rho - 1| resolved by the rho-leg sample grid


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and thresholds for the chart-switching driver.

    ``max_step`` caps the kernel's steps; at the default the error
    controller alone sizes them.  At the default ``sample_spacing``, inf,
    both charts store only their step ends.  A finite spacing keeps stored
    samples at most min(max_step, sample_spacing) apart in x: the x-chart
    reads them off each step's interpolant, the rho-chart off a density
    grid log-graded in |rho - 1|, filled in where it is coarse in x.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_step: float = 1.0
    sample_spacing: float = math.inf
    sonic_band: float = 1e-2
    blow_up_density: float = 1e4
    blow_up_field: float = 1e4
    max_arc_length: float = 1e3

    def __post_init__(self):
        for name in (
            "rel_tol",
            "abs_tol",
            "max_step",
            "sample_spacing",
            "sonic_band",
            "blow_up_density",
            "blow_up_field",
            "max_arc_length",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        # the x-chart must stay clear of the degenerate coefficient
        if self.sonic_band <= SONIC_COEF_GUARD:
            raise ValueError("sonic_band must exceed the sonic coefficient guard")


class EventSpec:
    """Base for stop-event requests passed to integrate()."""


@dataclass(frozen=True)
class TargetDensity(EventSpec):
    """Stop when rho crosses `value`.

    `direction` is the sign of drho/dx at the crossing: +1 fires only on
    upward crossings, -1 only on downward ones, 0 on either.
    """

    value: float
    direction: int = 0

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("target density must be positive")
        if self.direction not in (-1, 0, 1):
            raise ValueError("direction must be -1, 0 or 1")


@dataclass(frozen=True)
class DomainEnd(EventSpec):
    x: float


@dataclass(frozen=True)
class CriticalLocus(EventSpec):
    """Split the arc once where it crosses rho*E = 1/tau in the x-chart.

    The crossing is the arc's density extremum; the arc goes on from there,
    so the extremum becomes a row.
    """


@dataclass(frozen=True)
class Event:
    kind: str
    state: State


@dataclass
class TrajectorySegment:
    """One integrated arc: sample arrays plus the event that ended it.

    `xs` is strictly monotone (increasing for forward runs, decreasing for
    backward ones).
    """

    xs: np.ndarray
    rhos: np.ndarray
    es: np.ndarray
    terminator: Event

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
    def last(self) -> State:
        return State(float(self.xs[-1]), float(self.rhos[-1]), float(self.es[-1]))


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) kernel
#
# Tableau, error estimate, initial step, step controller and event rules
# follow scipy's RK45 / solve_ivp step for step (Dormand &
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
_P_COLUMNS = tuple(zip(*_P))  # per power of theta, the weights of the six stages


class _Watch(NamedTuple):
    """An event function g(t, a, b) with its stop rule and its meaning.

    ``level = (c, v)`` declares g exactly ``(a, b)[c] - v``, for the screen.
    """

    g: Callable[[float, float, float], float]
    terminal: bool
    direction: int  # +1 rising crossings only, -1 falling only, 0 both
    kind: str
    level: tuple[int, float] | None = None


def _level_watch(c, v, direction, kind):
    """A terminal watch on component c of the state crossing v."""
    g = (lambda t, a, b: a - v) if c == 0 else (lambda t, a, b: b - v)
    return _Watch(g, True, direction, kind, (c, v))


def _cell(levels, c, y):
    """The open interval between component c's levels next below and above y."""
    vs = [v for k, v in levels if k == c]
    if y in vs:  # empty: g0 == 0 there, so the next step must compare in full
        return math.inf, -math.inf
    lo = max((v for v in vs if v < y), default=-math.inf)
    return lo, min((v for v in vs if v > y), default=math.inf)


def _rms(u, v):
    return math.sqrt(u * u + v * v) / _SQRT_N


def _eval_rhs(fun, t, a, b):
    """fun(t, a, b), or NaNs where float arithmetic raises."""
    try:
        return fun(t, a, b)
    except (ArithmeticError, ValueError):
        return math.nan, math.nan


_BRENT_MAXITER = 100


def _brentq(f, xa, xb, xtol, rtol):
    """Root of f on [xa, xb] by Brent's method; ``(root, calls, iterations, converged)``.

    A port of scipy's ``brentq.c`` (Brent 1973, Algorithms for Minimization
    without Derivatives, ch. 4) that follows it operation for operation, so
    root, call count, iteration count and flag all match
    ``scipy.optimize.brentq(f, xa, xb, xtol, rtol, maxiter=100)``.  Like
    scipy, it raises ValueError on a NaN value of f or on ends of one sign,
    and returns an end where f is exactly zero; that return counts 0
    iterations, where scipy reports whatever its unset counter holds.
    """

    def call(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre, 2, 0, True
    if fcur == 0:
        return xcur, 2, 0, True
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    calls = 2
    for iterations in range(1, _BRENT_MAXITER + 1):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, calls, iterations, True

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            # C's MIN(a, b), which differs from min() where b is NaN
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
        calls += 1
    return xcur, calls, _BRENT_MAXITER, False


class _Step:
    """Quartic interpolant over one accepted step."""

    __slots__ = ("t_old", "h", "ya", "yb", "k", "_q")

    def __init__(self, t_old, h, ya, yb, k):
        self.t_old, self.h, self.ya, self.yb = t_old, h, ya, yb
        self.k = k  # ((ka, kb) of stages 1, 3, 4, 5, 6, 7)
        self._q = None

    def __call__(self, t):
        if self._q is None:
            # the sums, order and int 0 start of sum() over the stages, bit for bit
            (a1, b1), (a3, b3), (a4, b4), (a5, b5), (a6, b6), (a7, b7) = self.k
            self._q = (
                tuple(0 + a1 * p1 + a3 * p3 + a4 * p4 + a5 * p5 + a6 * p6 + a7 * p7
                      for p1, p3, p4, p5, p6, p7 in _P_COLUMNS),
                tuple(0 + b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6 + b7 * p7
                      for p1, p3, p4, p5, p6, p7 in _P_COLUMNS),
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
        """Interpolated states (a, b) at each of ts, read off `steps`.

        A t on a step boundary is read from the earlier step, a t beyond
        either end of the run from the end step.  Without ``dense_output``
        only the final step is kept, and none where the step size failed.
        """
        steps = self.steps
        d = math.copysign(1.0, steps[0].h)
        starts = [d * s.t_old for s in steps]
        return [steps[max(bisect.bisect_left(starts, d * t) - 1, 0)](t) for t in ts]


def solve_ivp(
    fun, t0, t_bound, y0, rtol, atol, max_step, events=(),
    dense_output=False, spacing=math.inf, breaks=(),
):
    """Integrate a two-component ODE from t0 toward t_bound (Dormand-Prince 5(4)).

    ``fun(t, a, b)`` returns the derivatives of the state ``(a, b)``. Each
    of `events` provides ``g(t, a, b)``, ``terminal`` and ``direction``. An
    event fires where g changes sign over a step, in the given direction
    (+1 rising, -1 falling, 0 either). Its root is found by `_brentq`
    (xtol = rtol = 4 eps) on the step's quartic interpolant; a search that
    does not converge raises `IntegrationFailure`. The run stops
    at the first terminal root in traversal order; the roots before it are
    kept. Every accepted step is sampled at its end, the stopping root
    included, and a step longer than `spacing` is split into
    ceil(|h|/spacing) equal parts whose inner ends are read off its
    interpolant. A step's interpolant is built only where these rows, an
    event or `OdeResult.sol` read it: with `dense_output` every step is
    kept, else the final one of a run that is not cut short.

    Watches with a ``level`` are screened: while the state stays inside the
    open cell between the levels, none can fire, so only the others are
    evaluated; a step that leaves the cell evaluates all and recomputes it.
    A float ``y - v`` has the sign of its exact value: the events are the same.

    ``fun`` may jump at each t of `breaks`, taking there the value of the
    piece above it. No step spans a jump: a step that would reach one ends
    on the last float of its piece, and the run restarts on the first float
    of the next, with ``fun`` evaluated there afresh. The step end is
    sampled at the jump itself, with the state it reached.

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

    ts, yas, ybs = [t], [ya], [yb]
    steps = [] if dense_output else None
    gs = [ev.g for ev in events]
    start = (t, ya, yb)  # a comprehension reading t, ya or yb would make them cells
    g = [gi(*start) for gi in gs]
    dirs = [ev.direction for ev in events]
    free = [i for i, ev in enumerate(events) if ev.level is None]
    levels = [ev.level for ev in events if ev.level is not None]
    lo_a, hi_a = _cell(levels, 0, ya)
    lo_b, hi_b = _cell(levels, 1, yb)
    roots = []
    terminal = None

    # the jumps strictly inside the span, the next one last, each as the last
    # float of the piece it leaves, the first of the one it enters, and itself
    jumps = []
    for x_b in sorted(breaks, reverse=d > 0):
        below = math.nextafter(x_b, -math.inf)
        end, restart = (below, x_b) if d > 0 else (x_b, below)
        if d * (end - t) > 0 and d * (t_bound - restart) > 0:
            jumps.append((end, restart, x_b))
    t_jump = jumps[-1][0] if jumps else None

    fa, fb = _eval_rhs(fun, t, ya, yb)
    nfev = 1
    if span == 0.0:
        return OdeResult(ts, yas, ybs, 0, nfev, roots, None, [])

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
            if t_jump is not None and d * (t_new - t_jump) > 0:
                t_new = t_jump
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

        t_old, ya_old, yb_old, fa_old, fb_old = t, ya, yb, fa, fb
        t, ya, yb, fa, fb = t_new, na, nb, k7a, k7b
        if d * (t - t_bound) >= 0:
            status = 0

        hits = []
        if lo_a < ya < hi_a and lo_b < yb < hi_b:
            scan = free
        else:
            scan = range(len(gs))
            lo_a, hi_a = _cell(levels, 0, ya)
            lo_b, hi_b = _cell(levels, 1, yb)
        for i in scan:
            g0 = g[i]
            g[i] = g1 = gs[i](t, ya, yb)
            up = g0 <= 0 and g1 >= 0
            down = g0 >= 0 and g1 <= 0
            if up if dirs[i] > 0 else down if dirs[i] < 0 else up or down:
                hits.append(i)

        # the slack keeps a step that rounding left an ulp over `spacing` whole
        n = math.ceil(abs(h) / spacing * (1.0 - 1e-12))
        if n > 1 or hits or status == 0 or steps is not None:
            step = _Step(t_old, h, ya_old, yb_old, ((fa_old, fb_old), (k3a, k3b), (k4a, k4b),
                                                    (k5a, k5b), (k6a, k6b), (k7a, k7b)))
            if steps is not None:
                steps.append(step)

        if hits:
            found = []
            for i in hits:
                root, _, _, converged = _brentq(
                    lambda s, gi=gs[i], step=step: gi(s, *step(s)),
                    t_old, t, 4 * _EPS, 4 * _EPS,
                )
                if not converged:
                    raise IntegrationFailure(
                        "event location did not converge within the step",
                        diagnostics={"event": i, "t": t_old, "h": h},
                    )
                found.append((d * root, i, root))
            found.sort(key=lambda f: f[0])  # stable: ties keep event order
            for _, i, root in found:
                roots.append((i, root, *step(root)))
                if events[i].terminal:
                    terminal = i
                    status = 1
                    t = root
                    ya, yb = step(root)
                    break

        for k in range(1, n):
            s = t_old + k * h / n
            if d * (s - t) >= 0:
                break
            a, b = step(s)
            ts.append(s)
            yas.append(a)
            ybs.append(b)
        ts.append(t)
        yas.append(ya)
        ybs.append(yb)

        if status is None and t == t_jump:
            _, t, x_b = jumps.pop()
            t_jump = jumps[-1][0] if jumps else None
            ts[-1] = x_b
            fa, fb = _eval_rhs(fun, t, ya, yb)
            nfev += 1

    if steps is None:  # a run not cut short keeps its final step for `sol`
        steps = [step] if status >= 0 else []
    return OdeResult(ts, yas, ybs, status, nfev, roots, terminal, steps)


# ---------------------------------------------------------------------------
# chart legs


@dataclass
class _LegResult:
    xs: list
    rhos: list
    es: list
    terminator: Event | None


def _point_leg(x, rho, e, terminator):
    return _LegResult([x], [rho], [e], terminator)


def _leg_terminator(res, watches, state):
    """The event that stopped a kernel run, or None if none did.

    `state(t, a, b)` maps a kernel point to its primal State.
    """
    if res.terminal is None:
        return None
    _, t, a, b = res.roots[-1]
    return Event(watches[res.terminal].kind, state(t, a, b))


def _x_leg(x, rho, e, dsign, span_limit, targets, domain, split, p, cfg):
    band_in = cfg.sonic_band * _BAND_INSET
    blow_r, blow_e = cfg.blow_up_density, cfg.blow_up_field

    # band entry means |rho - 1| shrinking along the traversal, an x-order
    # agnostic notion: the upper threshold is always crossed downward and the
    # lower one upward in integration order
    hi, lo = 1.0 + band_in, 1.0 - band_in
    watches = [_level_watch(0, hi, -1, "_band"), _level_watch(0, lo, 1, "_band")]
    for tg in targets:
        watches.append(_level_watch(0, tg.value, tg.direction * int(dsign), TARGET_DENSITY))
    if split:
        inv_tau = p.inv_tau
        watches.append(_Watch(lambda t, r, e: r * e - inv_tau, True, 0, _SPLIT))
    bounds = ((0, blow_r), (0, 1.0 / blow_r), (1, blow_e), (1, -blow_e))
    watches += [_level_watch(c, v, 0, BLOW_UP) for c, v in bounds]

    x_end = x + dsign * span_limit
    ends_at_domain = False
    if domain is not None:
        ahead = dsign * (domain.x - x)
        if ahead == 0.0:
            return _point_leg(x, rho, e, Event(DOMAIN_END, State(x, rho, e)))
        if 0.0 < ahead < span_limit:
            x_end = domain.x
            ends_at_domain = True

    res = solve_ivp(
        vector_field(p)[0], x, x_end, (rho, e),
        cfg.rel_tol, cfg.abs_tol, cfg.max_step, watches,
        spacing=cfg.sample_spacing, breaks=p.doping.breakpoints,
    )
    term = _leg_terminator(res, watches, State)
    if res.status == -1:
        term = Event(STEP_FAILURE, State(res.t[-1], res.ya[-1], res.yb[-1]))
    elif res.status == 0:
        end = State(res.t[-1], res.ya[-1], res.yb[-1])
        if not ends_at_domain:
            raise IntegrationFailure(
                "arc length budget exhausted before any stop event",
                diagnostics={"x": end.x, "rho": end.rho, "e": end.e},
            )
        term = Event(DOMAIN_END, end)
    elif term.kind == "_band":
        term = None  # band entry: the caller continues in the rho-chart
    return _LegResult(res.t, res.ya, res.yb, term)


def _rho_grid(r_a, r_b):
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
    lo_lim, hi_lim = min(n_a, n_b), max(n_a, n_b)
    kept = sorted((m for m in mags if lo_lim <= m <= hi_lim), reverse=n_b <= n_a)
    pts = [1.0 + branch * m for m in kept]
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

    # the nearest target crossed in its direction before the leg's end
    term_target = min(
        (tg for tg in targets
         if tg.direction in (0, cross_dir)
         and (tg.value - rho) * s_rho > 0 and (r_b - tg.value) * s_rho >= 0),
        key=lambda tg: s_rho * tg.value,
        default=None,
    )
    if term_target is not None:
        r_b = term_target.value

    guard2 = CRITICAL_GUARD * CRITICAL_GUARD
    blow_e = cfg.blow_up_field

    def near_critical(r, e, x):
        q = r * e - inv_tau
        return q * q - guard2

    watches = [_Watch(near_critical, True, -1, STEP_FAILURE)]
    watches += [_level_watch(0, v, 0, BLOW_UP) for v in (blow_e, -blow_e)]
    if domain is not None and dsign * (domain.x - x) > 0:
        watches.append(_level_watch(1, domain.x, int(dsign), DOMAIN_END))

    graded = cfg.sample_spacing < math.inf  # else the step ends are the rows
    res = solve_ivp(
        vector_field(p)[1], rho, r_b, (e, x),
        cfg.rel_tol, cfg.abs_tol, cfg.max_step, watches, dense_output=graded,
    )
    rs, es, xs = res.t, res.ya, res.yb
    if graded:  # the grid densities the run reached, read off its steps
        rs = [r for r in _rho_grid(rho, r_b) if s_rho * (r - res.t[-1]) <= 0]
        es, xs = (list(c) for c in zip(*res.sol(rs)))
    terminator = _leg_terminator(res, watches, lambda r, e, x: State(x, r, e))
    if res.status == -1:
        terminator = Event(STEP_FAILURE, State(xs[-1], rs[-1], es[-1]))
    elif res.status == 1:
        end = terminator.state
        if rs[-1] != end.rho:
            rs.append(end.rho)
            es.append(end.e)
            xs.append(end.x)
    else:
        if not graded:  # the end row off the interpolant, as the grid reads it
            es[-1], xs[-1] = res.sol([r_b])[0]
        end = State(xs[-1], rs[-1], es[-1])
        if r_b == 1.0:
            terminator = Event(SONIC_ARRIVAL, end)
        elif term_target is not None:
            terminator = Event(TARGET_DENSITY, end)
        # otherwise: clean band exit, caller continues in the x-chart

    # graded rows can be coarse in x near a tangential crossing; densify so
    # the stored abscissas respect the sample spacing like every other leg
    spacing = min(cfg.max_step, cfg.sample_spacing)
    # rounded, no gap exceeds the extent of the rows: narrow legs skip the fill
    for _ in range(3 if graded and not max(xs) - min(xs) <= spacing else 0):
        gaps = np.abs(np.diff(xs))
        wide = np.nonzero(gaps > spacing)[0]
        if not len(wide):
            break
        fill = [
            np.linspace(rs[i], rs[i + 1], int(math.ceil(gaps[i] / spacing)) + 1)[1:-1]
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
        rs, es, xs = rs[keep].tolist(), es[keep].tolist(), xs[keep].tolist()

    return _LegResult(xs, rs, es, terminator)


def _run(x, rho, e, direction, stop_events, p, cfg, sonic_side=None):
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    dsign = 1.0 if direction == "forward" else -1.0

    specs = list(stop_events or ())
    for s in specs:
        if not isinstance(s, EventSpec):
            raise TypeError(f"not an event spec: {s!r}")
    targets = [s for s in specs if isinstance(s, TargetDensity)]
    domains = [s for s in specs if isinstance(s, DomainEnd)]
    if len(domains) > 1:
        raise ValueError("at most one DomainEnd stop is supported")
    domain = domains[0] if domains else None
    split = any(isinstance(s, CriticalLocus) for s in specs)

    xs: list[float] = []
    rs: list[float] = []
    es: list[float] = []
    x_origin = x
    side = sonic_side

    for _ in range(_MAX_LEGS):
        in_band = rho == 1.0 or abs(rho - 1.0) < cfg.sonic_band * _CHART_INSET
        if in_band:
            leg = _rho_leg(x, rho, e, dsign, side, targets, domain, p, cfg)
        else:
            remaining = cfg.max_arc_length - abs(x - x_origin)
            leg = _x_leg(x, rho, e, dsign, remaining, targets, domain, split, p, cfg)
        side = None
        skip = 1 if xs and len(leg.xs) > 1 else 0
        xs += leg.xs[skip:]
        rs += leg.rhos[skip:]
        es += leg.es[skip:]
        if leg.terminator is not None:
            if leg.terminator.kind != _SPLIT:
                break
            split = False  # once only: the next leg starts on the locus
        x, rho, e = leg.xs[-1], leg.rhos[-1], leg.es[-1]
        if abs(x - x_origin) >= cfg.max_arc_length:
            raise IntegrationFailure(
                "arc length budget exhausted while switching charts",
                diagnostics={"x": x, "rho": rho, "e": e},
            )
    else:
        raise IntegrationFailure("chart switch limit exceeded")

    # enforce strictly monotone abscissae; x can stall by roundoff only in
    # the last few rho-chart samples hugging the sonic line, where dropping
    # the earlier of two coincident points loses nothing.  An arc that turns
    # back behind the sample before has no single-valued profile.
    if np.all(dsign * np.diff(xs) > 0):  # every sample advances: nothing to drop
        return TrajectorySegment(np.array(xs), np.array(rs), np.array(es), leg.terminator)
    keep_x, keep_r, keep_e = xs[:1], rs[:1], es[:1]
    for xk, rk, ek in zip(xs[1:], rs[1:], es[1:]):
        if dsign * (xk - keep_x[-1]) > 0:
            keep_x.append(xk)
            keep_r.append(rk)
            keep_e.append(ek)
        elif len(keep_x) > 1 and dsign * (xk - keep_x[-2]) <= 0:
            raise IntegrationFailure(
                "the arc turned back in x",
                diagnostics={"x": xk, "rho": rk, "e": ek, "x_reached": keep_x[-1]},
            )
        else:
            keep_x[-1], keep_r[-1], keep_e[-1] = xk, rk, ek

    return TrajectorySegment(
        np.array(keep_x), np.array(keep_r), np.array(keep_e), leg.terminator
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
    were requested; `TargetDensity` and `DomainEnd` stops come from
    `stop_events`, and so does a `CriticalLocus` split.  Starts exactly on
    the sonic line are rejected: the outgoing branch is ambiguous there, use
    `integrate_from_sonic` instead.
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

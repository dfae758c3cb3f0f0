"""Adaptive integration of the steady-flow ODE to terminal stop events.

The system

    (rho^(gamma-1) - rho^-2) rho_x = rho*E - 1/tau,
    E_x = rho - b(x),

degenerates on the sonic line rho = 1, where the coefficient
c(rho) = rho^(gamma-1) - rho^-2 of rho_x vanishes.  Every arc is integrated
in one chart that has no such degeneracy: along the parameter s with
ds = dx / c(rho), the state (x, rho, E) obeys

    x' = c(rho),   rho' = rho*E - 1/tau,   E' = (rho - b(x)) c(rho),

which is smooth across rho = 1 (`model_core.vector_field`).  A sonic launch
is a regular initial point of this field, and the square-root layer of
rho(x) at a sonic end is a regular x(s), quadratic in s.  Since c keeps its
sign on either side of the sonic line, x is monotone along an arc; a
supersonic arc (c < 0) runs in -s, so that x advances in the requested
direction.  The one equilibrium of the field is the node (1, 1/tau) where
C^1 transitions land; an arc that sinks into it ends as a step failure.

An arc ends at the first of its stop events: sonic arrival, target density,
blow-up, domain end or step failure.  Each of these but the step failure is
a level of one state component (`_level_watch`), and so is a breakpoint of
piecewise-constant doping, where a leg ends so that the next one integrates
the next piece's constant.  One more event splits an arc instead of ending
it: on request, a leg stops where the arc first crosses the critical locus
rho*E = 1/tau, its interior density extremum, and the next leg starts
there, so the extremum is a row of the arc; the request may add a target
density, set from the extremum, for the rest of the arc.

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
from array import array
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateLaunch,
    IntegrationFailure,
    SonicSingularity,
)
from .model_core import CRITICAL_GUARD, DopingProfile, ModelParams, State, vector_field

# event kind labels
SONIC_ARRIVAL = "sonic_arrival"
TARGET_DENSITY = "target_density"
BLOW_UP = "blow_up"
DOMAIN_END = "domain_end"
STEP_FAILURE = "step_failure"

_SPLIT = "_split"  # leg end on the critical locus; the arc goes on
_PIECE = "_piece"  # leg end on a doping breakpoint; the arc goes on
_BUDGET = "_budget"  # max_arc_length reached in x
_NEAR = "_near"  # leg end CRITICAL_GUARD short of the sonic line
# the span in s a leg may run: a safety net, since x advances at the rate
# c(rho), which vanishes only where the arc meets the sonic line
_S_SPAN = 1e4


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and thresholds for the integration of one arc.

    ``max_step`` caps the kernel's steps in s; at the default the error
    controller alone sizes them.  At the default ``sample_spacing``, inf,
    an arc stores only its step ends.  A finite spacing adds rows read off
    each step's interpolant, so that stored rows are at most
    min(max_step, sample_spacing) apart in x, and in rho relative to
    max(rho, 1): a square-root layer, where x barely moves, gets its rows
    too.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_step: float = 1.0
    sample_spacing: float = math.inf
    blow_up_density: float = 1e4
    blow_up_field: float = 1e4
    max_arc_length: float = 1e3

    def __post_init__(self):
        for name in (
            "rel_tol",
            "abs_tol",
            "max_step",
            "sample_spacing",
            "blow_up_density",
            "blow_up_field",
            "max_arc_length",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


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
    """Split the arc once where it crosses rho*E = 1/tau.

    The crossing is the arc's density extremum; the arc goes on from there,
    so the extremum becomes a row.  ``then``, where given, maps the state
    there to one more `TargetDensity` stop for the rest of the arc.
    """

    then: Callable[[State], TargetDensity] | None = None


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
# The three-component state is held in plain floats, which removes the array
# allocation, dot products and event bookkeeping that dominated the cost of
# the many short arcs a shooting solve integrates.

_EPS = sys.float_info.epsilon
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 5  # the embedded error estimate is of order 4
_SQRT_N = 3**0.5  # RMS norm over the three components

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
    """An event function g(t, a, b, c) with its stop rule and its meaning.

    ``level = (k, v)`` declares g exactly ``(a, b, c)[k] - v``, for the screen.
    """

    g: Callable[[float, float, float, float], float]
    terminal: bool
    direction: int  # +1 rising crossings only, -1 falling only, 0 both
    kind: str
    level: tuple[int, float] | None = None


_COMPONENT = (
    lambda v: lambda t, a, b, c: a - v,
    lambda v: lambda t, a, b, c: b - v,
    lambda v: lambda t, a, b, c: c - v,
)


def _level_watch(k, v, direction, kind):
    """A terminal watch on component k crossing v."""
    return _Watch(_COMPONENT[k](v), True, direction, kind, (k, v))


def _cell(levels, k, y):
    """The open interval between component k's levels next below and above y."""
    vs = [v for j, v in levels if j == k]
    if y in vs:  # empty: g0 == 0 there, so the next step must compare in full
        return math.inf, -math.inf
    lo = max((v for v in vs if v < y), default=-math.inf)
    return lo, min((v for v in vs if v > y), default=math.inf)


def _rms(u, v, w):
    return math.sqrt(u * u + v * v + w * w) / _SQRT_N


def _eval_rhs(fun, t, a, b, c):
    """fun(t, a, b, c), or NaNs where float arithmetic raises."""
    try:
        return fun(t, a, b, c)
    except (ArithmeticError, ValueError):
        return math.nan, math.nan, math.nan


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

    __slots__ = ("t_old", "h", "y", "k", "_q")

    def __init__(self, t_old, h, y, k):
        self.t_old, self.h, self.y = t_old, h, y
        self.k = k  # per component, its rates at stages 1, 3, 4, 5, 6, 7
        self._q = None

    def __call__(self, t):
        if self._q is None:
            self._q = tuple(map(_weights, self.k))
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = self._q
        ya, yb, yc = self.y
        h = self.h
        x = (t - self.t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return (
            h * (a0 * x + a1 * x2 + a2 * x3 + a3 * x4) + ya,
            h * (b0 * x + b1 * x2 + b2 * x3 + b3 * x4) + yb,
            h * (c0 * x + c1 * x2 + c2 * x3 + c3 * x4) + yc,
        )


def _weights(k):
    """One component's weights of theta^1..theta^4, from its stage rates k.

    The sums, order and int 0 start of sum() over the stages, bit for bit.
    """
    k1, k3, k4, k5, k6, k7 = k
    (p10, p11, p12, p13), (p30, p31, p32, p33), (p40, p41, p42, p43), \
        (p50, p51, p52, p53), (p60, p61, p62, p63), (p70, p71, p72, p73) = _P
    return (
        0 + k1 * p10 + k3 * p30 + k4 * p40 + k5 * p50 + k6 * p60 + k7 * p70,
        0 + k1 * p11 + k3 * p31 + k4 * p41 + k5 * p51 + k6 * p61 + k7 * p71,
        0 + k1 * p12 + k3 * p32 + k4 * p42 + k5 * p52 + k6 * p62 + k7 * p72,
        0 + k1 * p13 + k3 * p33 + k4 * p43 + k5 * p53 + k6 * p63 + k7 * p73,
    )


def _gap(a0, b0, a1, b1):
    """The distance between rows (a0, b0) and (a1, b1) that `spacing`
    bounds: the larger of |da| and |db| / max(|b0|, |b1|, 1), per entry."""
    return np.maximum(
        np.abs(a1 - a0), np.abs(b1 - b0) / np.maximum(np.maximum(np.abs(b0), np.abs(b1)), 1.0)
    )


# one record per wide step: the index of its end row, t_old, h, y_old (3),
# the stage rates (stage 1, 3..7, each for a, b, c), and t, a, b at its end
_REC = 27
_P4 = np.array(_P)[:, :, None, None]  # per stage, its weights of theta^1..4


def _read_rows(rec, spacing, d, cols):
    """The columns `cols` (t, a, b, c) of a run with the rows of its wide steps.

    `rec` holds one `_REC` record per wide step.  Each step's span from its
    start to its end row is cut into ceil(_gap / spacing) equal parts in t,
    and each part again, level by level, until no two consecutive rows are
    more than `spacing` apart by `_gap`.  Where a component is quadratic in
    t, as x(s) is at a sonic end, one cut can leave a part twice the spacing
    wide.  Rows are read on arrays with the operations of `_Step.__call__`
    in its order, so they hold its floats, and go in before their step's
    end row, in run order (`d` is the sign of the run's direction in t).
    Returns the four columns as the rows of one array.
    """
    r = np.frombuffer(rec, dtype=float).reshape(-1, _REC).T.copy()
    # every step's `_weights`, per weight and component: the sums in its
    # order from a 0 start, one stage at a time
    k = r[6:24].reshape(6, 1, 3, -1)
    w = 0.0 + k[0] * _P4[0]
    for i in range(1, 6):
        w += k[i] * _P4[i]
    # per step: t_old, h, y_old (3), then the weights of theta^1..4
    # (3 each); per part: t, a, b at its start, then at its end
    coef = np.concatenate((r[1:6], w.reshape(12, -1)))
    step, parts = np.arange(r.shape[1]), r[[1, 3, 4, 24, 25, 26]]
    found = []
    while True:
        # the slack keeps a part that rounding left an ulp over `spacing` whole
        v = _gap(parts[1], parts[2], parts[4], parts[5]) / spacing * (1.0 - 1e-12)
        cut = np.flatnonzero(v > 1.0)
        if not len(cut):
            break
        step, parts, n = step.take(cut), parts.take(cut, axis=1), np.ceil(v.take(cut))
        # part i is cut into m[i] equal parts in t, the next level's parts
        # first[i] .. first[i] + m[i] - 1, by m[i] - 1 rows; row k, the j-th
        # of its part p[k], ends next-level part at[k] and starts at[k] + 1
        m = n.astype(np.intp)
        p = np.repeat(np.arange(len(m)), m - 1)
        first = np.cumsum(m) - m
        at = np.arange(len(p)) + p
        j = at - first.take(p) + 1
        t0 = parts[0].take(p)
        s = t0 + j * (parts[3].take(p) - t0) / n.take(p)
        st = step.take(p)
        c = coef.take(st, axis=1)
        x = (s - c[0]) / c[1]
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        y = c[1] * (c[5:8] * x + c[8:11] * x2 + c[11:14] * x3 + c[14:17] * x4) + c[2:5]
        found.append((st, s, y))
        sub = np.empty((6, len(at) + len(m)))
        sub[:3, first], sub[3:, first + m - 1] = parts[:3], parts[3:]
        sub[0, at + 1], sub[1:3, at + 1] = s, y[:2]
        sub[3, at], sub[4:, at] = s, y[:2]
        step, parts = np.repeat(step, m), sub
    if not found:
        return cols

    st, s, y = (np.concatenate(u, axis=-1) for u in zip(*found))
    end = r[0].take(st)
    order = np.lexsort((d * s, end))
    # the k-th row in order lands k places after the old index of its end row
    at = end.take(order).astype(np.intp) + np.arange(len(order))
    out = np.empty((4, len(cols[0]) + len(order)))
    ends = np.ones(out.shape[1], dtype=bool)
    ends[at] = False
    out[:, ends] = cols
    out[0, at], out[1:, at] = s.take(order), y.take(order, axis=1)
    return out


class OdeResult:
    """Outcome of one `solve_ivp` run.

    `t`, `ya`, `yb` and `yc` are the samples. `status` is 0 when `t_bound`
    was reached, 1 when a terminal event stopped the run, and -1 when the
    step size fell below 10 ulp of t. `roots` holds `(event index, t, a, b,
    c)` for every event root located before the stop, in traversal order;
    after a terminal stop its root comes last and `terminal` is its event
    index, otherwise `terminal` is None. `nfev` counts right-hand-side
    evaluations.
    """

    __slots__ = ("t", "ya", "yb", "yc", "status", "nfev", "roots", "terminal", "steps")

    def __init__(self, t, ya, yb, yc, status, nfev, roots, terminal, steps):
        self.t, self.ya, self.yb, self.yc = t, ya, yb, yc
        self.status, self.nfev = status, nfev
        self.roots, self.terminal = roots, terminal
        self.steps = steps

    def sol(self, ts):
        """Interpolated states (a, b, c) at each of ts, read off `steps`.

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
    dense_output=False, spacing=math.inf,
):
    """Integrate a three-component ODE from t0 toward t_bound (Dormand-Prince 5(4)).

    ``fun(t, a, b, c)`` returns the derivatives of the state ``(a, b, c)``.
    Each of `events` provides ``g(t, a, b, c)``, ``terminal`` and
    ``direction``. An event fires where g changes sign over a step, in the
    given direction (+1 rising, -1 falling, 0 either). Its root is found by
    `_brentq` (xtol = rtol = 4 eps) on the step's quartic interpolant; a
    search that does not converge raises `IntegrationFailure`. The run
    stops at the first terminal root in traversal order; the roots before
    it are kept. Every accepted step is sampled at its end, the stopping
    root included. Where two consecutive samples are more than `spacing`
    apart by `_gap`, in ``a`` or relatively in ``b``, rows read off the
    step's interpolant go between them: the step is recorded, and
    `_read_rows` reads the rows of all recorded steps after the run, on
    arrays.  A step's interpolant (`_Step`) is built only where an event or
    `OdeResult.sol` reads it: with `dense_output` every step is kept, else
    the final one of a run that is not cut short.

    Watches with a ``level`` are screened: while the state stays inside the
    open cell between the levels, none can fire, so only the others are
    evaluated; a step that leaves the cell evaluates all and recomputes it.
    A float ``y - v`` has the sign of its exact value: the events are the same.

    The tableau, the RMS error norm over ``atol + rtol*max(|y|, |y_new|)``,
    the initial step, the step controller and the event rules are those of
    ``scipy.integrate.solve_ivp(method="RK45")``, so both take the same
    steps up to roundoff.

    The benchmark's trace wraps the ODE layer under this module-level name
    and reads ``nfev`` from the result, so every leg calls the kernel
    through this global.
    """
    t = float(t0)
    t_bound = float(t_bound)
    ya, yb, yc = float(y0[0]), float(y0[1]), float(y0[2])
    rtol = max(rtol, 100 * _EPS)
    d = 1.0 if t_bound >= t else -1.0
    span = abs(t_bound - t)

    ts, yas, ybs, ycs = [t], [ya], [yb], [yc]
    steps = [] if dense_output else None
    gs = [ev.g for ev in events]
    start = (t, ya, yb, yc)  # a comprehension reading t or y would make them cells
    g = [gi(*start) for gi in gs]
    dirs = [ev.direction for ev in events]
    free = [i for i, ev in enumerate(events) if ev.level is None]
    levels = [ev.level for ev in events if ev.level is not None]
    lo_a, hi_a = _cell(levels, 0, ya)
    lo_b, hi_b = _cell(levels, 1, yb)
    lo_c, hi_c = _cell(levels, 2, yc)
    roots = []
    terminal = None
    wide = False
    rec = array("d")  # one `_REC` record per wide step

    fa, fb, fc = _eval_rhs(fun, t, ya, yb, yc)
    nfev = 1
    if span == 0.0:
        return OdeResult(ts, yas, ybs, ycs, 0, nfev, roots, None, [])

    # initial step size (Hairer, Norsett & Wanner, Sec. II.4)
    sa = atol + abs(ya) * rtol
    sb = atol + abs(yb) * rtol
    sc = atol + abs(yc) * rtol
    d0 = _rms(ya / sa, yb / sb, yc / sc)
    d1 = _rms(fa / sa, fb / sb, fc / sc)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    ga, gb, gc = _eval_rhs(
        fun, t + h0 * d, ya + h0 * d * fa, yb + h0 * d * fb, yc + h0 * d * fc
    )
    nfev += 1
    d2 = _rms((ga - fa) / sa, (gb - fb) / sb, (gc - fc) / sc) / h0
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
                k2a, k2b, k2c = fun(
                    t + _C2 * h, ya + _A21 * fa * h, yb + _A21 * fb * h, yc + _A21 * fc * h
                )
                k3a, k3b, k3c = fun(
                    t + _C3 * h,
                    ya + (_A31 * fa + _A32 * k2a) * h,
                    yb + (_A31 * fb + _A32 * k2b) * h,
                    yc + (_A31 * fc + _A32 * k2c) * h,
                )
                k4a, k4b, k4c = fun(
                    t + _C4 * h,
                    ya + (_A41 * fa + _A42 * k2a + _A43 * k3a) * h,
                    yb + (_A41 * fb + _A42 * k2b + _A43 * k3b) * h,
                    yc + (_A41 * fc + _A42 * k2c + _A43 * k3c) * h,
                )
                k5a, k5b, k5c = fun(
                    t + _C5 * h,
                    ya + (_A51 * fa + _A52 * k2a + _A53 * k3a + _A54 * k4a) * h,
                    yb + (_A51 * fb + _A52 * k2b + _A53 * k3b + _A54 * k4b) * h,
                    yc + (_A51 * fc + _A52 * k2c + _A53 * k3c + _A54 * k4c) * h,
                )
                k6a, k6b, k6c = fun(
                    t + h,
                    ya + (_A61 * fa + _A62 * k2a + _A63 * k3a + _A64 * k4a
                          + _A65 * k5a) * h,
                    yb + (_A61 * fb + _A62 * k2b + _A63 * k3b + _A64 * k4b
                          + _A65 * k5b) * h,
                    yc + (_A61 * fc + _A62 * k2c + _A63 * k3c + _A64 * k4c
                          + _A65 * k5c) * h,
                )
                na = ya + h * (_B1 * fa + _B3 * k3a + _B4 * k4a + _B5 * k5a + _B6 * k6a)
                nb = yb + h * (_B1 * fb + _B3 * k3b + _B4 * k4b + _B5 * k5b + _B6 * k6b)
                nc = yc + h * (_B1 * fc + _B3 * k3c + _B4 * k4c + _B5 * k5c + _B6 * k6c)
                k7a, k7b, k7c = fun(t + h, na, nb, nc)
                # max(|y|, |y_new|) that, like np.maximum, passes a NaN y_new on
                ma, mb, mc = abs(ya), abs(yb), abs(yc)
                ma = ma if ma >= abs(na) else abs(na)
                mb = mb if mb >= abs(nb) else abs(nb)
                mc = mc if mc >= abs(nc) else abs(nc)
                error_norm = _rms(
                    (_E1 * fa + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a
                     + _E7 * k7a) * h / (atol + ma * rtol),
                    (_E1 * fb + _E3 * k3b + _E4 * k4b + _E5 * k5b + _E6 * k6b
                     + _E7 * k7b) * h / (atol + mb * rtol),
                    (_E1 * fc + _E3 * k3c + _E4 * k4c + _E5 * k5c + _E6 * k6c
                     + _E7 * k7c) * h / (atol + mc * rtol),
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

        t_old, ya_old, yb_old, yc_old = t, ya, yb, yc
        k1a, k1b, k1c = fa, fb, fc
        t, ya, yb, yc, fa, fb, fc = t_new, na, nb, nc, k7a, k7b, k7c
        if d * (t - t_bound) >= 0:
            status = 0

        hits = []
        if lo_a < ya < hi_a and lo_b < yb < hi_b and lo_c < yc < hi_c:
            scan = free
        else:
            scan = range(len(gs))
            lo_a, hi_a = _cell(levels, 0, ya)
            lo_b, hi_b = _cell(levels, 1, yb)
            lo_c, hi_c = _cell(levels, 2, yc)
        for i in scan:
            g0 = g[i]
            g[i] = g1 = gs[i](t, ya, yb, yc)
            up = g0 <= 0 and g1 >= 0
            down = g0 >= 0 and g1 <= 0
            if up if dirs[i] > 0 else down if dirs[i] < 0 else up or down:
                hits.append(i)

        if spacing < math.inf:  # _gap((ya_old, yb_old), (ya, yb)), inline
            wide = abs(yb - yb_old) / max(abs(yb_old), abs(yb), 1.0)
            wide = max(abs(ya - ya_old), wide) > spacing
        if hits or status == 0 or steps is not None:
            step = _Step(t_old, h, (ya_old, yb_old, yc_old), (
                (k1a, k3a, k4a, k5a, k6a, k7a),
                (k1b, k3b, k4b, k5b, k6b, k7b),
                (k1c, k3c, k4c, k5c, k6c, k7c),
            ))
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
                    ya, yb, yc = step(root)
                    break

        if wide:  # its rows are read after the run; t, ya, yb may be a root
            rec.extend((
                len(ts), t_old, h, ya_old, yb_old, yc_old,
                k1a, k1b, k1c, k3a, k3b, k3c, k4a, k4b, k4c,
                k5a, k5b, k5c, k6a, k6b, k6c, k7a, k7b, k7c,
                t, ya, yb,
            ))
        ts.append(t)
        yas.append(ya)
        ybs.append(yb)
        ycs.append(yc)

    if rec:
        ts, yas, ybs, ycs = _read_rows(rec, spacing, d, (ts, yas, ybs, ycs))
    if steps is None:  # a run not cut short keeps its final step for `sol`
        steps = [step] if status >= 0 else []
    return OdeResult(ts, yas, ybs, ycs, status, nfev, roots, terminal, steps)


# ---------------------------------------------------------------------------
# legs


def _leg(x, rho, e, dsign, branch, targets, x_end, end_kind, split, near, p, cfg):
    """One kernel run from (x, rho, E) on one branch and one doping piece.

    Returns the rows and the `Event` that ended the run; its kind may be
    `_SPLIT`, `_PIECE` or `_NEAR`, where the arc goes on, or `_BUDGET`.
    """
    watches = [
        _level_watch(0, x_end, int(dsign), end_kind),
        # the sonic line counts only on approach, never on departure from it
        _level_watch(1, 1.0, -int(branch), SONIC_ARRIVAL),
    ]
    if near:
        watches.append(
            _level_watch(1, 1.0 + branch * CRITICAL_GUARD, -int(branch), _NEAR)
        )
    watches += [
        _level_watch(1, tg.value, tg.direction * int(dsign), TARGET_DENSITY) for tg in targets
    ]
    if split:
        inv_tau = p.inv_tau
        watches.append(_Watch(lambda t, x, r, e: r * e - inv_tau, True, 0, _SPLIT))
    bounds = ((1, cfg.blow_up_density), (1, 1.0 / cfg.blow_up_density),
              (2, cfg.blow_up_field), (2, -cfg.blow_up_field))
    watches += [_level_watch(k, v, 0, BLOW_UP) for k, v in bounds]

    breaks = p.doping.breakpoints
    if breaks:  # integrate this piece's constant up to the next breakpoint
        i = (bisect.bisect_right if dsign > 0 else bisect.bisect_left)(breaks, x)
        p = replace(p, doping=DopingProfile.constant(p.doping.params["values"][i]))
        ahead = breaks[i:] if dsign > 0 else breaks[:i][::-1]
        if ahead:
            watches.append(_level_watch(0, ahead[0], int(dsign), _PIECE))

    spacing = cfg.sample_spacing
    if spacing < math.inf:
        spacing = min(spacing, cfg.max_step)
    # x' = c(rho) has the sign of the branch, so x advances with dsign in s
    res = solve_ivp(
        vector_field(p), 0.0, dsign * branch * _S_SPAN, (x, rho, e),
        cfg.rel_tol, cfg.abs_tol, cfg.max_step, watches, spacing=spacing,
    )
    end = State(res.ya[-1], res.yb[-1], res.yc[-1])
    if res.status != 1:
        # a step too small for t, or the span in s spent with x stalled
        kind = STEP_FAILURE
    else:
        kind = watches[res.terminal].kind
        if kind == _PIECE:  # the next piece starts on the breakpoint itself
            end = replace(end, x=watches[res.terminal].level[1])
            res.ya[-1] = end.x
        elif kind == SONIC_ARRIVAL:  # on the line, up to the root's roundoff
            end = replace(end, rho=1.0)
            res.yb[-1] = 1.0
        elif kind == _NEAR and abs(end.rho * end.e - p.inv_tau) <= CRITICAL_GUARD:
            # the arc sinks into the node (1, 1/tau), which it reaches in
            # infinite s only: an arc that meets the line transversally has
            # |rho'| = |rho E - 1/tau| of order its crossing excess here
            kind = STEP_FAILURE
    return res.ya, res.yb, res.yc, Event(kind, end)


def _run(x, rho, e, direction, stop_events, p, cfg, branch):
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
    loci = [s for s in specs if isinstance(s, CriticalLocus)]
    split = bool(loci)

    x_end, end_kind = x + dsign * cfg.max_arc_length, _BUDGET
    if domains and 0.0 <= dsign * (domains[0].x - x) < cfg.max_arc_length:
        x_end, end_kind = domains[0].x, DOMAIN_END

    legs = []
    near = True
    while True:
        leg_x, leg_r, leg_e, term = _leg(
            x, rho, e, dsign, branch, targets, x_end, end_kind, split, near, p, cfg
        )
        skip = 1 if legs else 0  # a leg's first row is the previous leg's last
        legs.append((leg_x[skip:], leg_r[skip:], leg_e[skip:]))
        # the arc goes on from these leg ends; the split and the stop short
        # of the sonic line are watched once only
        if term.kind == _SPLIT:
            split = False
            targets = targets + [s.then(term.state) for s in loci if s.then is not None]
        elif term.kind == _NEAR:
            near = False
        elif term.kind != _PIECE:
            break
        x, rho, e = term.state.x, term.state.rho, term.state.e
    if term.kind == _BUDGET:
        raise IntegrationFailure(
            "arc length budget exhausted before any stop event",
            diagnostics={"x": term.state.x, "rho": term.state.rho, "e": term.state.e},
        )

    xs, rs, es = (np.concatenate(col) for col in zip(*legs))
    # enforce strictly monotone abscissae; x advances monotonically in s, so
    # it can stall only by roundoff, in the rows hugging a sonic end or the
    # node, where dropping the earlier of two coincident points loses
    # nothing.  An arc that turns back behind the row before has no
    # single-valued profile.
    if np.all(dsign * np.diff(xs) > 0):  # every row advances: nothing to drop
        return TrajectorySegment(xs, rs, es, term)
    xs, rs, es = xs.tolist(), rs.tolist(), es.tolist()
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

    return TrajectorySegment(np.array(keep_x), np.array(keep_r), np.array(keep_e), term)


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
    branch = 1.0 if start.rho > 1.0 else -1.0
    return _run(start.x, start.rho, start.e, direction, stop_events, p, cfg, branch)


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

    The sonic point is a regular initial point of the field in s, so no
    local-expansion truncation enters.  The departure direction is dictated
    by sign(e0 - 1/tau): the density offset grows like (e0 - 1/tau)*(x - x0)
    on either branch, so e0 > 1/tau leaves forward and e0 < 1/tau leaves
    backward; a `direction` that disagrees raises `SonicSingularity`.
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
    if direction in ("forward", "backward") and (q > 0) != (direction == "forward"):
        raise SonicSingularity(
            "sonic departure direction is set by sign(E - 1/tau); "
            f"requested {direction} conflicts"
        )
    branch = -1.0 if side == "supersonic" else 1.0
    return _run(x0, 1.0, e0, direction, stop_events, p, cfg, branch)

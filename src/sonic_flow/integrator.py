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
blow-up, domain end or step failure.  Each is a level of one state
component (`_level_watch`), as is a breakpoint of piecewise-constant doping,
where a leg ends so that the next one integrates the next piece's constant;
a step size that fails is a step failure too.  The step failure's level
lies CRITICAL_GUARD short of the sonic line and stops the arc only where
|rho*E - 1/tau| <= CRITICAL_GUARD there, as it sinks into the node: any
other arc lands on the line in the same kernel run.  One more event splits
an arc instead of ending it: on request, a leg stops where the arc first
crosses the critical locus rho*E = 1/tau, its interior density extremum,
and the next leg starts there, so the extremum is a row of the arc; the
request may add a target density, set from the extremum, for the rest of
the arc.

The kernel is an owned Dormand-Prince 8(5,3) that follows scipy's DOP853
step for step: an eighth-order step of 12 stages, an error norm blending
fifth- and third-order estimates, and a seventh-order dense output whose
three extra stages are evaluated only for the steps something reads.  The
arcs are smooth in s, so the eighth order pays: at the shots' tolerances it
takes several times fewer steps than a fifth-order method.  Events are
located with `_brentq`, a port of scipy's ``brentq.c`` (Brent's method) that
returns the same root, call count and iteration count; the shooting driver
in `solvers` closes its brackets with it too, so neither loads scipy.
"""

from __future__ import annotations

import bisect
import math
import sys
from array import array
from dataclasses import dataclass, fields, replace
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
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise ValueError(f"{f.name} must be positive")


@dataclass(frozen=True)
class TargetDensity:
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
class DomainEnd:
    x: float


@dataclass(frozen=True)
class CriticalLocus:
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


class TrajectorySegment:
    """One arc: the kernel runs that integrated it and the event that ended it.

    The rows are read once per arc, when first read: the first read of `xs`,
    `rhos` or `es` reads the rows of every run in ``runs`` in one
    `_read_rows` pass (`_arc_rows`), strictly monotone in x in the direction
    ``dsign``, and raises `IntegrationFailure` where the arc turned back in
    x.  `last`, the state of the `terminator`, reads no row.
    """

    __slots__ = ("terminator", "_rows", "_runs", "_spacing", "_dsign")

    def __init__(self, runs, spacing, dsign, terminator: Event):
        self.terminator, self._rows = terminator, None
        self._runs, self._spacing, self._dsign = runs, spacing, dsign

    def _read(self):
        if self._rows is None:
            self._rows = _arc_rows(self._runs, self._spacing, self._dsign)
        return self._rows

    xs = property(lambda self: self._read()[0])
    rhos = property(lambda self: self._read()[1])
    es = property(lambda self: self._read()[2])

    @property
    def last(self) -> State:
        return self.terminator.state


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3) kernel
#
# Tableau, error estimate, initial step, step controller, dense output and
# event rules follow scipy's DOP853 / solve_ivp step for step (Dormand &
# Prince 1980; Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.5-II.6;
# events located on the dense interpolant as in Shampine & Thompson 2000).
# The three-component state is held in plain floats, which removes the array
# allocation, dot products and event bookkeeping that dominated the cost of
# the many short arcs a shooting solve integrates.
#
# The coefficients are those of scipy's ``dop853_coefficients``, written out
# as the doubles scipy holds.  Stages are numbered from 1: ``_A{i}_{j}`` is
# the weight of stage j in stage i (scipy's ``A[i-1, j-1]``); stage 13 is the
# derivative at the step end, reached with the weights ``_B{j}``; stages 14
# to 16 are evaluated only for the dense output, whose coefficient F_m
# (m = 3..6) weights stage j by ``_D{m}_{j}`` (scipy's ``D[m-3, j-1]``).
# Weights that vanish are left out, and so are the stages only they would
# read: the error estimates weight stages 1 and 6 to 12.

_EPS = sys.float_info.epsilon
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 8  # the error estimate is of order 7
_SQRT_N = 3**0.5  # RMS norm over the three components

_C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11, _C12, _C14, _C15, _C16 = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    0.1, 0.2, 0.7777777777777778,
)
_A2_1 = 0.05260015195876773
_A3_1, _A3_2 = 0.0197250569845379, 0.0591751709536137
_A4_1, _A4_3 = 0.02958758547680685, 0.08876275643042054
_A5_1, _A5_3, _A5_4 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A6_1, _A6_4, _A6_5 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_A7_1, _A7_4, _A7_5, _A7_6 = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
_A8_1, _A8_4, _A8_5, _A8_6, _A8_7 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023,
)
_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996,
)
_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
)
_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
)
_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11 = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636,
)
# the stages of the dense output only
_A14_1, _A14_7, _A14_8, _A14_9, _A14_10, _A14_11, _A14_12, _A14_13 = (
    0.056167502283047954, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298,
)
_A15_1, _A15_6, _A15_7, _A15_8, _A15_11, _A15_12, _A15_13, _A15_14 = (
    0.03183464816350214, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
)
_A16_1, _A16_6, _A16_7, _A16_8, _A16_9, _A16_13, _A16_14, _A16_15 = (
    -0.42889630158379194, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
)
# the eighth-order solution, and stage 13
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
)
# the fifth-order error estimate
_E5_1, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11, _E5_12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
)
# the third-order estimate: the eighth-order weights, three of them corrected
_E3_1, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11, _E3_12 = (
    _B1 - 0.2440944881889764, _B6, _B7, _B8, _B9 - 0.7338466882816118, _B10, _B11,
    _B12 - 0.022058823529411766,
)
# the dense output's F3..F6
_D3_1, _D3_6, _D3_7, _D3_8, _D3_9, _D3_10, _D3_11, _D3_12, _D3_13, _D3_14, _D3_15, _D3_16 = (
    -8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
    2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894,
)
_D4_1, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13, _D4_14, _D4_15, _D4_16 = (
    10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
    -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408,
)
_D5_1, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13, _D5_14, _D5_15, _D5_16 = (
    19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
    -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279,
)
_D6_1, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13, _D6_14, _D6_15, _D6_16 = (
    -25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
    93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
    96.32455395918828, -39.17726167561544, -149.72683625798564,
)


class _Watch(NamedTuple):
    """An event function g(t, a, b, c) with its stop rule and its meaning.

    ``terminal`` may be a predicate of the root state (t, a, b, c).
    ``level = (k, v)`` declares g exactly ``(a, b, c)[k] - v``, for the screen.
    """

    g: Callable[[float, float, float, float], float]
    terminal: bool | Callable[[float, float, float, float], bool]
    direction: int  # +1 rising crossings only, -1 falling only, 0 both
    kind: str
    level: tuple[int, float] | None = None


def _level_watch(k, v, direction, kind, terminal=True):
    """A watch on component k crossing v."""
    return _Watch(lambda t, *y: y[k] - v, terminal, direction, kind, (k, v))


def _cell(vs, y):
    """The open interval between the levels `vs` (sorted, from -inf to inf)
    next below and above y; empty on a level, where g0 == 0, so that the
    next step compares in full."""
    i = bisect.bisect_left(vs, y)
    return (math.inf, -math.inf) if vs[i] == y else (vs[i - 1], vs[i])


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
    """Seventh-order interpolant over one accepted step with an event root,
    on which its roots are located."""

    __slots__ = ("t_old", "h", "y", "f")

    def __init__(self, t_old, h, y, f):
        self.t_old, self.h, self.y = t_old, h, y
        self.f = f  # per component, its F0..F6 (`_dense`)

    def __call__(self, t):
        x = (t - self.t_old) / self.h
        (ya, yb, yc), (fa, fb, fc) = self.y, self.f
        return _horner(x, ya, *fa), _horner(x, yb, *fb), _horner(x, yc, *fc)


def _dense(h, y0, y1, k1, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16):
    """F0..F6 of one component's dense output over a step h from y0 to y1.

    ``k1`` .. ``k16`` are the rates of the stages that enter it.  Floats or
    arrays alike: numpy runs the same operations in the same order, so the
    rows `_read_rows` reads on arrays are the floats `_Step` gives.
    """
    dy = y1 - y0
    return (
        dy,
        h * k1 - dy,
        2 * dy - h * (k13 + k1),
        h * (_D3_1 * k1 + _D3_6 * k6 + _D3_7 * k7 + _D3_8 * k8 + _D3_9 * k9 + _D3_10 * k10
             + _D3_11 * k11 + _D3_12 * k12 + _D3_13 * k13 + _D3_14 * k14 + _D3_15 * k15
             + _D3_16 * k16),
        h * (_D4_1 * k1 + _D4_6 * k6 + _D4_7 * k7 + _D4_8 * k8 + _D4_9 * k9 + _D4_10 * k10
             + _D4_11 * k11 + _D4_12 * k12 + _D4_13 * k13 + _D4_14 * k14 + _D4_15 * k15
             + _D4_16 * k16),
        h * (_D5_1 * k1 + _D5_6 * k6 + _D5_7 * k7 + _D5_8 * k8 + _D5_9 * k9 + _D5_10 * k10
             + _D5_11 * k11 + _D5_12 * k12 + _D5_13 * k13 + _D5_14 * k14 + _D5_15 * k15
             + _D5_16 * k16),
        h * (_D6_1 * k1 + _D6_6 * k6 + _D6_7 * k7 + _D6_8 * k8 + _D6_9 * k9 + _D6_10 * k10
             + _D6_11 * k11 + _D6_12 * k12 + _D6_13 * k13 + _D6_14 * k14 + _D6_15 * k15
             + _D6_16 * k16),
    )


def _horner(x, y0, f0, f1, f2, f3, f4, f5, f6):
    """The dense output at x = (t - t_old) / h, nested as scipy's; floats or arrays."""
    u = 1 - x
    return x * (f0 + u * (f1 + x * (f2 + u * (f3 + x * (f4 + u * (f5 + x * f6)))))) + y0


def _on_step(ev, step):
    """s -> ``ev.g(s, *step(s))`` on `step`; for a level watch, its own
    component alone, read off the interpolant: the same floats."""
    if ev.level is None:
        return lambda s: ev.g(s, *step(s))
    (k, v), t0, h = ev.level, step.t_old, step.h
    return lambda s, y0=step.y[k], fk=step.f[k]: _horner((s - t0) / h, y0, *fk) - v


def _gap(a0, b0, a1, b1):
    """The distance between rows (a0, b0) and (a1, b1) that `spacing`
    bounds: the larger of |da| and |db| / max(|b0|, |b1|, 1), per entry."""
    return np.maximum(
        np.abs(a1 - a0), np.abs(b1 - b0) / np.maximum(np.maximum(np.abs(b0), np.abs(b1)), 1.0)
    )


# one record per wide step: the index of its end row, t_old, h, y_old (3),
# y at the step end (3), the rates of the stages `_dense` reads (stages 1,
# 6..16, each for a, b, c), and t, a, b at the end row
_REC = 48


def _read_rows(rec, spacing, cols):
    """The columns `cols` (t, a, b, c) of a run with the rows of its wide steps.

    `rec` holds one `_REC` record per wide step, whose end row is the row of
    `cols` it indexes.  Each step's span from its start to its end row is
    cut into v = _gap / spacing equal parts in t, rounded up, or into v / 8
    where v exceeds 8, and each part again, level by level, until no two
    consecutive rows are more than `spacing` apart by `_gap`.  Where a
    component is quadratic in t, as x(s) is at a sonic end, one cut can
    leave a part twice the spacing wide; cutting to about 8 spacings first
    keeps the last cut's parts close to the spacing.  Rows are read on
    arrays with the operations of `_Step.__call__` in its order, so they
    hold its floats, and go in before their step's end row, in the step's
    direction in t.  Returns the four columns as the rows of one array.
    """
    r = np.frombuffer(rec, dtype=float).reshape(-1, _REC).T.copy()
    # per step: t_old, h, y_old (3), then F0..F6 (3 each); per part: t, a, b
    # at its start, then at its end
    coef = np.concatenate((r[1:6], *_dense(r[2], r[3:6], r[6:9], *r[9:45].reshape(12, 3, -1))))
    step, parts = np.arange(r.shape[1]), r[[1, 3, 4, 45, 46, 47]]
    found = []
    while True:
        # the slack keeps a part that rounding left an ulp over `spacing` whole
        v = _gap(parts[1], parts[2], parts[4], parts[5]) / spacing * (1.0 - 1e-12)
        cut = np.flatnonzero(v > 1.0)
        if not len(cut):
            break
        # equal parts in t are uneven in x, so a part wider than 8 spacings
        # is cut into parts about 8 wide first: cut at once, most parts would
        # end up just over the spacing and be halved
        v = v.take(cut)
        step, parts, n = step.take(cut), parts.take(cut, axis=1), np.ceil(np.where(v > 8, v / 8, v))
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
        y = _horner((s - c[0]) / c[1], c[2:5], *c[5:26].reshape(7, 3, -1))
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
    order = np.lexsort((np.sign(r[2]).take(st) * s, end))
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

    `t`, `ya`, `yb` and `yc` are the step ends, the start included, and
    `rec` holds one `_REC` record per step wider than the run's spacing;
    ``_read_rows(rec, spacing, (t, ya, yb, yc))`` reads the rows between
    them, where something needs them; the records are the run's only
    interpolants. `status` is 0 when `t_bound` was reached, 1 when a
    terminal event stopped the run, and -1 when the step size fell below
    10 ulp of t, or the first one came out NaN or zero. `roots` holds
    `(event index, t, a, b, c)` for every event root located before the
    stop, in traversal order; after a terminal stop its root comes last and
    `terminal` is its event index, otherwise `terminal` is None. `nfev` counts right-hand-side evaluations, of which
    `ndense` times 3 went into the dense output of `ndense` steps.
    """

    __slots__ = ("t", "ya", "yb", "yc", "status", "nfev", "ndense", "roots", "terminal", "rec")

    def __init__(self, t, ya, yb, yc, status, nfev, ndense, roots, terminal, rec):
        self.t, self.ya, self.yb, self.yc = t, ya, yb, yc
        self.status, self.nfev, self.ndense = status, nfev, ndense
        self.roots, self.terminal, self.rec = roots, terminal, rec


def solve_ivp(fun, t0, t_bound, y0, rtol, atol, max_step, events=(), spacing=math.inf):
    """Integrate a three-component ODE from t0 toward t_bound (Dormand-Prince 8(5,3)).

    ``fun(t, a, b, c)`` returns the derivatives of the state ``(a, b, c)``.
    Each of `events` provides ``g(t, a, b, c)``, ``terminal`` (a bool, or a
    predicate of the root state (t, a, b, c)) and ``direction``. An event
    fires where g changes sign over a step, in the given direction (+1
    rising, -1 falling, 0 either). Its root is found by `_brentq` (xtol =
    rtol = 4 eps) on the step's seventh-order interpolant; a search that
    does not converge raises `IntegrationFailure`. The run stops at the
    first root in traversal order where its event is terminal; the roots
    before it are kept. Every accepted step is sampled at its end, the stopping
    root included. Where two consecutive samples are more than `spacing`
    apart by `_gap`, in ``a`` or relatively in ``b``, the step is recorded
    in `rec` for `_read_rows`, which reads rows off its interpolant between
    them; the run itself reads none.  The interpolant costs three more
    evaluations of ``fun``, so it is built only where something reads it:
    for a step with an event root, whose roots are located on it, and for
    a wide step.  `nfev` counts these evaluations too, and `ndense` the
    steps they were made for.

    Watches with a ``level`` are screened: while the state stays inside the
    open cell between the levels, none can fire, so only the others are
    evaluated; a step that leaves the cell evaluates all and bisects the
    levels, sorted once per run, for its new cell.  A float ``y - v`` has
    the sign of its exact value: the events are the same, and so are the
    roots, found on the level's own component (`_on_step`).

    The tableau, the error norm (scipy's blend of the fifth- and third-order
    estimates over ``atol + rtol*max(|y|, |y_new|)``), the initial step, the
    step controller, the dense output and the event rules are those of
    ``scipy.integrate.solve_ivp(method="DOP853")``, so it follows scipy's
    DOP853 step for step, up to roundoff.

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
    gs = [ev.g for ev in events]
    start = (t, ya, yb, yc)  # a comprehension reading t or y would make them cells
    g = [gi(*start) for gi in gs]
    dirs = [ev.direction for ev in events]
    free = [i for i, ev in enumerate(events) if ev.level is None]
    levels = sorted(ev.level for ev in events if ev.level)
    lvs_a, lvs_b, lvs_c = ([-math.inf, *(v for j, v in levels if j == k), math.inf]
                           for k in range(3))
    (lo_a, hi_a), (lo_b, hi_b), (lo_c, hi_c) = _cell(lvs_a, ya), _cell(lvs_b, yb), _cell(lvs_c, yc)
    roots = []
    terminal = None
    wide = False
    rec = array("d")  # one `_REC` record per wide step

    fa, fb, fc = _eval_rhs(fun, t, ya, yb, yc)
    nfev = 1
    ndense = 0
    if span == 0.0:
        return OdeResult(ts, yas, ybs, ycs, 0, nfev, 0, roots, None, rec)

    # initial step size (Hairer, Norsett & Wanner, Sec. II.4)
    sa = atol + abs(ya) * rtol
    sb = atol + abs(yb) * rtol
    sc = atol + abs(yc) * rtol
    d0 = _rms(ya / sa, yb / sb, yc / sc)
    d1 = _rms(fa / sa, fb / sb, fc / sc)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    if not h0 > 0.0:  # NaN or zero, where a rate overflows: no step can be sized
        return OdeResult(ts, yas, ybs, ycs, -1, nfev, 0, roots, None, rec)
    ga, gb, gc = _eval_rhs(
        fun, t + h0 * d, ya + h0 * d * fa, yb + h0 * d * fb, yc + h0 * d * fc
    )
    nfev += 1
    d2 = _rms((ga - fa) / sa, (gb - fb) / sb, (gc - fc) / sc) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
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
            nfev += 12
            try:
                k2a, k2b, k2c = fun(
                    t + _C2 * h, ya + _A2_1 * fa * h, yb + _A2_1 * fb * h, yc + _A2_1 * fc * h
                )
                k3a, k3b, k3c = fun(
                    t + _C3 * h,
                    ya + (_A3_1 * fa + _A3_2 * k2a) * h,
                    yb + (_A3_1 * fb + _A3_2 * k2b) * h,
                    yc + (_A3_1 * fc + _A3_2 * k2c) * h,
                )
                k4a, k4b, k4c = fun(
                    t + _C4 * h,
                    ya + (_A4_1 * fa + _A4_3 * k3a) * h,
                    yb + (_A4_1 * fb + _A4_3 * k3b) * h,
                    yc + (_A4_1 * fc + _A4_3 * k3c) * h,
                )
                k5a, k5b, k5c = fun(
                    t + _C5 * h,
                    ya + (_A5_1 * fa + _A5_3 * k3a + _A5_4 * k4a) * h,
                    yb + (_A5_1 * fb + _A5_3 * k3b + _A5_4 * k4b) * h,
                    yc + (_A5_1 * fc + _A5_3 * k3c + _A5_4 * k4c) * h,
                )
                k6a, k6b, k6c = fun(
                    t + _C6 * h,
                    ya + (_A6_1 * fa + _A6_4 * k4a + _A6_5 * k5a) * h,
                    yb + (_A6_1 * fb + _A6_4 * k4b + _A6_5 * k5b) * h,
                    yc + (_A6_1 * fc + _A6_4 * k4c + _A6_5 * k5c) * h,
                )
                k7a, k7b, k7c = fun(
                    t + _C7 * h,
                    ya + (_A7_1 * fa + _A7_4 * k4a + _A7_5 * k5a + _A7_6 * k6a) * h,
                    yb + (_A7_1 * fb + _A7_4 * k4b + _A7_5 * k5b + _A7_6 * k6b) * h,
                    yc + (_A7_1 * fc + _A7_4 * k4c + _A7_5 * k5c + _A7_6 * k6c) * h,
                )
                k8a, k8b, k8c = fun(
                    t + _C8 * h,
                    ya + (_A8_1 * fa + _A8_4 * k4a + _A8_5 * k5a + _A8_6 * k6a + _A8_7 * k7a) * h,
                    yb + (_A8_1 * fb + _A8_4 * k4b + _A8_5 * k5b + _A8_6 * k6b + _A8_7 * k7b) * h,
                    yc + (_A8_1 * fc + _A8_4 * k4c + _A8_5 * k5c + _A8_6 * k6c + _A8_7 * k7c) * h,
                )
                k9a, k9b, k9c = fun(
                    t + _C9 * h,
                    ya + (_A9_1 * fa + _A9_4 * k4a + _A9_5 * k5a + _A9_6 * k6a + _A9_7 * k7a
                          + _A9_8 * k8a) * h,
                    yb + (_A9_1 * fb + _A9_4 * k4b + _A9_5 * k5b + _A9_6 * k6b + _A9_7 * k7b
                          + _A9_8 * k8b) * h,
                    yc + (_A9_1 * fc + _A9_4 * k4c + _A9_5 * k5c + _A9_6 * k6c + _A9_7 * k7c
                          + _A9_8 * k8c) * h,
                )
                k10a, k10b, k10c = fun(
                    t + _C10 * h,
                    ya + (_A10_1 * fa + _A10_4 * k4a + _A10_5 * k5a + _A10_6 * k6a + _A10_7 * k7a
                          + _A10_8 * k8a + _A10_9 * k9a) * h,
                    yb + (_A10_1 * fb + _A10_4 * k4b + _A10_5 * k5b + _A10_6 * k6b + _A10_7 * k7b
                          + _A10_8 * k8b + _A10_9 * k9b) * h,
                    yc + (_A10_1 * fc + _A10_4 * k4c + _A10_5 * k5c + _A10_6 * k6c + _A10_7 * k7c
                          + _A10_8 * k8c + _A10_9 * k9c) * h,
                )
                k11a, k11b, k11c = fun(
                    t + _C11 * h,
                    ya + (_A11_1 * fa + _A11_4 * k4a + _A11_5 * k5a + _A11_6 * k6a + _A11_7 * k7a
                          + _A11_8 * k8a + _A11_9 * k9a + _A11_10 * k10a) * h,
                    yb + (_A11_1 * fb + _A11_4 * k4b + _A11_5 * k5b + _A11_6 * k6b + _A11_7 * k7b
                          + _A11_8 * k8b + _A11_9 * k9b + _A11_10 * k10b) * h,
                    yc + (_A11_1 * fc + _A11_4 * k4c + _A11_5 * k5c + _A11_6 * k6c + _A11_7 * k7c
                          + _A11_8 * k8c + _A11_9 * k9c + _A11_10 * k10c) * h,
                )
                k12a, k12b, k12c = fun(
                    t + _C12 * h,
                    ya + (_A12_1 * fa + _A12_4 * k4a + _A12_5 * k5a + _A12_6 * k6a + _A12_7 * k7a
                          + _A12_8 * k8a + _A12_9 * k9a + _A12_10 * k10a + _A12_11 * k11a) * h,
                    yb + (_A12_1 * fb + _A12_4 * k4b + _A12_5 * k5b + _A12_6 * k6b + _A12_7 * k7b
                          + _A12_8 * k8b + _A12_9 * k9b + _A12_10 * k10b + _A12_11 * k11b) * h,
                    yc + (_A12_1 * fc + _A12_4 * k4c + _A12_5 * k5c + _A12_6 * k6c + _A12_7 * k7c
                          + _A12_8 * k8c + _A12_9 * k9c + _A12_10 * k10c + _A12_11 * k11c) * h,
                )
                na = ya + h * (_B1 * fa + _B6 * k6a + _B7 * k7a + _B8 * k8a + _B9 * k9a
                               + _B10 * k10a + _B11 * k11a + _B12 * k12a)
                nb = yb + h * (_B1 * fb + _B6 * k6b + _B7 * k7b + _B8 * k8b + _B9 * k9b
                               + _B10 * k10b + _B11 * k11b + _B12 * k12b)
                nc = yc + h * (_B1 * fc + _B6 * k6c + _B7 * k7c + _B8 * k8c + _B9 * k9c
                               + _B10 * k10c + _B11 * k11c + _B12 * k12c)
                k13a, k13b, k13c = fun(t + h, na, nb, nc)
                # max(|y|, |y_new|) that, like np.maximum, passes a NaN y_new on
                ma, mb, mc = abs(ya), abs(yb), abs(yc)
                sa = atol + (ma if ma >= abs(na) else abs(na)) * rtol
                sb = atol + (mb if mb >= abs(nb) else abs(nb)) * rtol
                sc = atol + (mc if mc >= abs(nc) else abs(nc)) * rtol
                ea = (_E5_1 * fa + _E5_6 * k6a + _E5_7 * k7a + _E5_8 * k8a + _E5_9 * k9a
                      + _E5_10 * k10a + _E5_11 * k11a + _E5_12 * k12a) / sa
                eb = (_E5_1 * fb + _E5_6 * k6b + _E5_7 * k7b + _E5_8 * k8b + _E5_9 * k9b
                      + _E5_10 * k10b + _E5_11 * k11b + _E5_12 * k12b) / sb
                ec = (_E5_1 * fc + _E5_6 * k6c + _E5_7 * k7c + _E5_8 * k8c + _E5_9 * k9c
                      + _E5_10 * k10c + _E5_11 * k11c + _E5_12 * k12c) / sc
                # scipy's estimates weight k13 by zero, which a non-finite
                # k13 turns into NaN: the step is rejected
                e5 = ea * ea + eb * eb + ec * ec + (0.0 * k13a + 0.0 * k13b + 0.0 * k13c)
                ea = (_E3_1 * fa + _E3_6 * k6a + _E3_7 * k7a + _E3_8 * k8a + _E3_9 * k9a
                      + _E3_10 * k10a + _E3_11 * k11a + _E3_12 * k12a) / sa
                eb = (_E3_1 * fb + _E3_6 * k6b + _E3_7 * k7b + _E3_8 * k8b + _E3_9 * k9b
                      + _E3_10 * k10b + _E3_11 * k11b + _E3_12 * k12b) / sb
                ec = (_E3_1 * fc + _E3_6 * k6c + _E3_7 * k7c + _E3_8 * k8c + _E3_9 * k9c
                      + _E3_10 * k10c + _E3_11 * k11c + _E3_12 * k12c) / sc
                e3 = ea * ea + eb * eb + ec * ec
                if e5 == 0 and e3 == 0:
                    error_norm = 0.0
                else:  # the fifth-order estimate, damped where the third is larger
                    error_norm = abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 3)
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
        t, ya, yb, yc, fa, fb, fc = t_new, na, nb, nc, k13a, k13b, k13c
        if d * (t - t_bound) >= 0:
            status = 0

        hits = []
        if lo_a < ya < hi_a and lo_b < yb < hi_b and lo_c < yc < hi_c:
            scan = free
        else:
            scan = range(len(gs))
            (lo_a, hi_a), (lo_b, hi_b), (lo_c, hi_c) = (
                _cell(lvs_a, ya), _cell(lvs_b, yb), _cell(lvs_c, yc))
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
        if hits or wide:  # the stages of the dense output
            ndense += 1
            k14a, k14b, k14c = fun(
                t_old + _C14 * h,
                ya_old + (_A14_1 * k1a + _A14_7 * k7a + _A14_8 * k8a + _A14_9 * k9a
                          + _A14_10 * k10a + _A14_11 * k11a + _A14_12 * k12a + _A14_13 * k13a) * h,
                yb_old + (_A14_1 * k1b + _A14_7 * k7b + _A14_8 * k8b + _A14_9 * k9b
                          + _A14_10 * k10b + _A14_11 * k11b + _A14_12 * k12b + _A14_13 * k13b) * h,
                yc_old + (_A14_1 * k1c + _A14_7 * k7c + _A14_8 * k8c + _A14_9 * k9c
                          + _A14_10 * k10c + _A14_11 * k11c + _A14_12 * k12c + _A14_13 * k13c) * h,
            )
            k15a, k15b, k15c = fun(
                t_old + _C15 * h,
                ya_old + (_A15_1 * k1a + _A15_6 * k6a + _A15_7 * k7a + _A15_8 * k8a
                          + _A15_11 * k11a + _A15_12 * k12a + _A15_13 * k13a + _A15_14 * k14a) * h,
                yb_old + (_A15_1 * k1b + _A15_6 * k6b + _A15_7 * k7b + _A15_8 * k8b
                          + _A15_11 * k11b + _A15_12 * k12b + _A15_13 * k13b + _A15_14 * k14b) * h,
                yc_old + (_A15_1 * k1c + _A15_6 * k6c + _A15_7 * k7c + _A15_8 * k8c
                          + _A15_11 * k11c + _A15_12 * k12c + _A15_13 * k13c + _A15_14 * k14c) * h,
            )
            k16a, k16b, k16c = fun(
                t_old + _C16 * h,
                ya_old + (_A16_1 * k1a + _A16_6 * k6a + _A16_7 * k7a + _A16_8 * k8a + _A16_9 * k9a
                          + _A16_13 * k13a + _A16_14 * k14a + _A16_15 * k15a) * h,
                yb_old + (_A16_1 * k1b + _A16_6 * k6b + _A16_7 * k7b + _A16_8 * k8b + _A16_9 * k9b
                          + _A16_13 * k13b + _A16_14 * k14b + _A16_15 * k15b) * h,
                yc_old + (_A16_1 * k1c + _A16_6 * k6c + _A16_7 * k7c + _A16_8 * k8c + _A16_9 * k9c
                          + _A16_13 * k13c + _A16_14 * k14c + _A16_15 * k15c) * h,
            )
        if hits:
            step = _Step(t_old, h, (ya_old, yb_old, yc_old), (
                _dense(h, ya_old, na, k1a, k6a, k7a, k8a, k9a, k10a, k11a, k12a, k13a,
                       k14a, k15a, k16a),
                _dense(h, yb_old, nb, k1b, k6b, k7b, k8b, k9b, k10b, k11b, k12b, k13b,
                       k14b, k15b, k16b),
                _dense(h, yc_old, nc, k1c, k6c, k7c, k8c, k9c, k10c, k11c, k12c, k13c,
                       k14c, k15c, k16c),
            ))
            found = []
            for i in hits:
                root, _, _, converged = _brentq(
                    _on_step(events[i], step), t_old, t, 4 * _EPS, 4 * _EPS
                )
                if not converged:
                    raise IntegrationFailure(
                        "event location did not converge within the step",
                        diagnostics={"event": i, "t": t_old, "h": h},
                    )
                found.append((d * root, i, root))
            found.sort(key=lambda f: f[0])  # stable: ties keep event order
            for _, i, root in found:
                ra, rb, rc = step(root)
                roots.append((i, root, ra, rb, rc))
                stop = events[i].terminal
                if stop(root, ra, rb, rc) if callable(stop) else stop:
                    terminal, status = i, 1
                    t, ya, yb, yc = root, ra, rb, rc
                    break

        if wide:  # its rows are read on demand; t, ya, yb may be a root
            rec.extend((
                len(ts), t_old, h, ya_old, yb_old, yc_old, na, nb, nc,
                k1a, k1b, k1c, k6a, k6b, k6c, k7a, k7b, k7c, k8a, k8b, k8c,
                k9a, k9b, k9c, k10a, k10b, k10c, k11a, k11b, k11c, k12a, k12b, k12c,
                k13a, k13b, k13c, k14a, k14b, k14c, k15a, k15b, k15c, k16a, k16b, k16c,
                t, ya, yb,
            ))
        ts.append(t)
        yas.append(ya)
        ybs.append(yb)
        ycs.append(yc)

    nfev += 3 * ndense
    return OdeResult(ts, yas, ybs, ycs, status, nfev, ndense, roots, terminal, rec)


# ---------------------------------------------------------------------------
# legs


def _leg(x, rho, e, dsign, branch, targets, x_end, end_kind, split, p, cfg):
    """One kernel run from (x, rho, E) on one branch and one doping piece.

    Returns the run's `OdeResult`, its last step end set to the end state,
    and the `Event` that ended the run; its kind may be `_SPLIT` or
    `_PIECE`, where the arc goes on, or `_BUDGET`.  The guard short of the
    sonic line has a predicate of its root for ``terminal``.
    """
    inv_tau = p.inv_tau
    watches = [
        _level_watch(0, x_end, int(dsign), end_kind),
        # the sonic line counts only on approach, never on departure from it
        _level_watch(1, 1.0, -int(branch), SONIC_ARRIVAL),
        # the node (1, 1/tau) is reached in infinite s only: an arc that
        # meets the line transversally has |rho'| = |rho E - 1/tau| of order
        # its crossing excess here
        _level_watch(1, 1.0 + branch * CRITICAL_GUARD, -int(branch), STEP_FAILURE,
                     lambda t, x, r, e: abs(r * e - inv_tau) <= CRITICAL_GUARD),
        *(_level_watch(1, tg.value, tg.direction * int(dsign), TARGET_DENSITY) for tg in targets),
    ]
    if split:
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

    # x' = c(rho) has the sign of the branch, so x advances with dsign in s
    res = solve_ivp(
        vector_field(p), 0.0, dsign * branch * _S_SPAN, (x, rho, e),
        cfg.rel_tol, cfg.abs_tol, cfg.max_step, watches, spacing=_spacing(cfg),
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
    return res, Event(kind, end)


def _run(x, rho, e, direction, stop_events, p, cfg, branch):
    """The arc from (x, rho, E): one `_leg` per doping piece and split; a
    leg lands on the sonic line, its guard's ``terminal`` a predicate."""
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    dsign = 1.0 if direction == "forward" else -1.0

    specs = list(stop_events or ())
    for s in specs:
        if not isinstance(s, (TargetDensity, DomainEnd, CriticalLocus)):
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

    runs = []
    while True:
        res, term = _leg(x, rho, e, dsign, branch, targets, x_end, end_kind, split, p, cfg)
        runs.append(res)
        # the arc goes on from these leg ends; the split is watched once only
        if term.kind == _SPLIT:
            split = False
            targets = targets + [s.then(term.state) for s in loci if s.then is not None]
        elif term.kind != _PIECE:
            break
        x, rho, e = term.state.x, term.state.rho, term.state.e
    if term.kind == _BUDGET:
        raise IntegrationFailure(
            "arc length budget exhausted before any stop event",
            diagnostics={"x": term.state.x, "rho": term.state.rho, "e": term.state.e},
        )
    return TrajectorySegment(runs, _spacing(cfg), dsign, term)


def _spacing(cfg):
    """The row spacing of a kernel run at `cfg`: at most its step cap, if finite."""
    return min(cfg.sample_spacing, cfg.max_step) if cfg.sample_spacing < math.inf else math.inf


def _arc_rows(runs, spacing, dsign):
    """The rows ``(xs, rhos, es)`` of an arc of kernel runs, read in one pass.

    Each run after the first starts on the row the one before ended on: its
    first row goes, and its records' end-row indices move by the rows
    before it, so that `_read_rows` reads the whole arc at once.  Then the
    abscissae are made strictly monotone in the direction ``dsign``: x
    advances monotonically in s, so it can stall only by roundoff, in the
    rows hugging a sonic end or the node, where dropping the earlier of two
    coincident points loses nothing.  An arc that turns back behind the row
    before has no single-valued profile: `IntegrationFailure`.
    """
    cols = ([], [], [], [])
    rec = array("d")
    for res in runs:
        skip = 1 if cols[0] else 0
        base, start = len(cols[0]) - skip, len(rec)
        rec += res.rec
        for k in range(start, len(rec), _REC):
            rec[k] += base
        for col, new in zip(cols, (res.t, res.ya, res.yb, res.yc)):
            col += new[skip:]
    if rec:
        cols = _read_rows(rec, spacing, cols)
    xs, rs, es = (np.asarray(col, dtype=float) for col in cols[1:])
    if np.all(dsign * np.diff(xs) > 0):  # every row advances: nothing to drop
        return xs, rs, es
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
    return np.array(keep_x), np.array(keep_r), np.array(keep_e)


def _chain(arcs):
    """One segment of arcs that each start where the one before ended.

    Its rows are read, as one arc's, in one pass; it ends as the last arc.
    """
    head = arcs[0]
    runs = [res for arc in arcs for res in arc._runs]
    return TrajectorySegment(runs, head._spacing, head._dsign, arcs[-1].terminator)


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

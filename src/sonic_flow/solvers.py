"""Boundary-value solvers for the five solution families.

All solvers return a `Solution` on [0, 1] with sonic boundary densities.
Shooting-based constructions launch from and land on the sonic line exactly,
as regular points of the integrator's field in s, so no endpoint is ever
approximated by a series cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import NOT_EXISTS, classify_regime, residual_norm
from .errors import (
    BracketFailure,
    GlueMismatch,
    LastCrossingMissing,
    NewtonDivergence,
    NoSolutionInRegime,
    NotSonicDoping,
    PreconditionViolation,
    RegimeRejection,
    ShootingDivergence,
)
from .integrator import (
    CriticalLocus,
    DomainEnd,
    IntegratorConfig,
    TargetDensity,
    TrajectorySegment,
    _brentq,
    _chain,
    integrate,
    integrate_from_sonic,
)
from .model_core import (
    ModelParams,
    ShockData,
    State,
    as_number,
    rh_jump,
    supersonic_min_density_bracket,
    tau0_bound,
    undamped_energy_potential,
    c1_transition_slope,
    node_slow_manifold,
    SlowManifold,
)
from .solution import Solution, TransitionData, graded_grid, grid_derivative

DEFAULT_J_SCHEDULE = (0.5, 0.9, 0.99, 0.999, 0.9999)

# the relaxed elliptic Newton converges where every residual row is within
# this many times its cell, plus the roundoff floor of its flux differences,
# in at most _MAX_NEWTON iterations per relaxation level
_NEWTON_TOL = 1e-10
_MAX_NEWTON = 60

# sentinel residual magnitude for shots that leave the admissible region
_OVERSHOOT = 10.0

# probe stop: every shooting residual is an abscissa miss; a probe this
# close ends the root search, and `_polish` takes the rest at output
# resolution
_RESIDUAL_FLOOR = 1e-7

# probe tolerance schedule: a probe integrates at _PROBE_FORCING times the
# square of the best real |residual| its search has shot, at most
# _PROBE_TOL_MAX (and so before any), and at least _PROBE_TOL_MIN or the
# caller's rel_tol where tighter.  The residual's relative error then falls
# with the residual itself: the forcing term of an inexact Newton method that
# keeps its fast local convergence (Dembo, Eisenstat & Steihaug, SIAM J.
# Numer. Anal. 19 (1982) 400-408).  The floor makes the probe that ends the
# search predict the fine landing within the polish's 1e-10 stop.
_PROBE_FORCING = 1e-3
_PROBE_TOL_MAX = 1e-5
_PROBE_TOL_MIN = 1e-10

# a supersonic arc at this rel_tol or finer is split at its density minimum:
# a kept arc needs the minimum as a row, and the probes that end a search
# then land as the fine arc they predict; looser probes go through it in one
# kernel run
_SPLIT_TOL = 1e-9

# a closed bracket whose two residuals both stay above this straddles a jump
# of the residual, not a root
_JUMP_GAP = 1e-6

# smallest launch excess |E - 1/tau| a sonic launch is shot at: widening
# stops here, clear of the degenerate-launch guard at 1e-6
_LAUNCH_FLOOR = 4e-6

# the pre-shock densities the shock solver takes lie below this one
_SHOCK_RHO_L_MAX = 0.99

# factor by which the shock's upper launch field widens
_SHOCK_WIDEN = 1.5

# residual_norm a C1 solution must stay below to be returned
_C1_RESIDUAL_TOL = 1e-6


def _fine(cfg: IntegratorConfig) -> IntegratorConfig:
    """Output-resolution variant of a config for final reconstructions.

    Shooting probes store only their step ends, at the tolerances of the
    probe schedule (`_probe_cfg`, 1e-5 down to 1e-10); the shot after them
    is the answer wherever it lands within the polish's 1e-10.  It runs at
    tight tolerances (1e-12 relative, 1e-14 absolute) with rows read off
    each step's interpolant at most 5e-4 apart in x, and in rho relative to
    max(rho, 1) across the square-root layers, so that the stored arrays
    support interpolation, and per-interval defect checks, at the accuracy
    of the solve itself.  The step cap stays the caller's (at the default,
    none but the error controller): the rows, not the steps, have to be
    dense.  The rows outnumber the step ends, by about 80 times on
    subsonic, supersonic and shock arcs.  They are read once per kept arc,
    when first read, in one batched pass over all its kernel runs
    (`integrator._read_rows`): the fine shots that `_polish` rejects, and
    the probes, read none.
    """
    return replace(
        cfg,
        sample_spacing=min(cfg.sample_spacing, 5e-4),
        rel_tol=min(cfg.rel_tol, 1e-12),
        abs_tol=min(cfg.abs_tol, 1e-14),
    )


class _Landed(Exception):
    """Raised inside the shooting residual by a shot within the probe stop."""


# consecutive closing shots without progress (sentinels, or real shots that
# leave the real end stalled above _JUMP_GAP) after which the bracket is
# taken to hold a jump, not a landing
_MAX_SENTINELS = 8

# a widening step goes this many times the secant's distance to its root
_SECANT_OVERSHOOT = 1.2


def _widened(rule, v, r, u, s):
    """Next launch value for an end at ``v`` whose residual ``r`` has the wrong sign.

    The secant through ``(u, s)`` and ``(v, r)``, where both residuals are
    real and rising, predicts the root; the step goes 1.2 times as far, but
    never past ``rule(v)``.  Otherwise the step is ``rule(v)``; None where
    ``rule`` is None or returns None, which pins the end.
    """
    nxt = None if rule is None else rule(v)
    if nxt is None or s is None or max(abs(r), abs(s)) >= _OVERSHOOT or (r - s) * (v - u) <= 0.0:
        return nxt
    guess = v - _SECANT_OVERSHOOT * r * (v - u) / (r - s)
    return guess if 0.0 < abs(guess - v) < abs(nxt - v) else nxt


def _shoot(shot, lo, hi, widen_lo, widen_hi, memo=None):
    """Root of a shooting residual that rises through zero in the launch parameter.

    ``shot(v)`` returns ``(residual, data)``; each launch value is shot once
    and its residual remembered.  ``hi`` is shot first, and ``lo`` only where
    ``shot(hi)`` is positive.  While ``shot(hi)`` is negative, ``hi`` moves
    up and the old ``hi`` becomes ``lo``; while ``shot(lo)`` is positive,
    ``lo`` moves down and the old ``lo`` becomes ``hi``.  Each move follows
    the secant of the last two real residuals (`_widened`), clamped to the
    end's rule ``widen_hi`` or ``widen_lo``.  A rule of None, or a rule
    returning None, pins its end; each end moves at most 60 times.  While an
    end of the bracket is a sentinel (``|residual| >= _OVERSHOOT``), the
    bracket is split at its geometric mean (its midpoint where ``lo <= 0``),
    or short of it where the real end's own secant says so; Brent's method
    closes it once both ends are real, to the width over which the secant
    of that first real bracket moves the residual by ``_RESIDUAL_FLOOR``.
    The first shot of any phase whose |residual| is at most
    ``_RESIDUAL_FLOOR`` is the root: the search stops at the probes'
    resolution, and a narrower bracket resolves nothing a probe can.

    Where ``_MAX_SENTINELS`` closing shots in a row, the bracket's ends
    included, return a sentinel, no launch value in the bracket lands and
    `BracketFailure` is raised.  While the bracket is split, a real shot
    that becomes the real end with its |residual| above ``_JUMP_GAP`` and
    at least half the old end's makes no progress either, and counts
    toward the same limit; a run that holds such a shot, on a bracket that
    still has a real end, raises `ShootingDivergence`: the residual jumps
    from the stalled real end to the sentinels.  So does a bracket that
    closes with both residuals above ``_JUMP_GAP``.  Both errors carry the
    bracket, its residuals (None for an end not shot) and the shot count.

    Returns ``(root, shots)``, where ``shots`` counts distinct launch values.
    Pass an empty dict as ``memo`` to keep the residual of every launch
    value, the root's included, for `_slope`.
    """
    memo = {} if memo is None else memo
    r_lo = r_hi = None
    sentinels = stalled = 0

    def residual(v: float) -> float:
        r = memo.get(v)
        if r is None:
            r = memo[v] = shot(v)[0]
        if abs(r) <= _RESIDUAL_FLOOR:
            raise _Landed(v)
        return r

    def failure(error, message: str):
        return error(
            message,
            diagnostics={"bracket": [lo, hi], "residuals": [r_lo, r_hi], "shots": len(memo)},
        )

    def jump():
        return failure(ShootingDivergence, "the shooting residual jumps across the closed bracket")

    def closing(v: float, r_end: float | None = None) -> float:
        """A closing shot; ``r_end`` is the real end's residual while the bracket is split."""
        nonlocal sentinels, stalled
        r = residual(v)
        if abs(r) >= _OVERSHOOT:
            sentinels += 1
        elif (r_end is not None and (r > 0.0) == (r_end > 0.0)
              and abs(r) > _JUMP_GAP and abs(r) >= 0.5 * abs(r_end)):
            sentinels, stalled = sentinels + 1, stalled + 1
        else:
            sentinels = stalled = 0
        if sentinels == _MAX_SENTINELS:
            if stalled and min(abs(r_lo), abs(r_hi)) < _OVERSHOOT:
                raise jump()
            raise failure(
                BracketFailure,
                f"no launch value lands: {sentinels} shots in a row left the admissible region",
            )
        return r

    try:
        # each end's previous position, whose residual has the end's sign
        lo_prev = hi_prev = None
        r_hi, moves = residual(hi), 0
        while r_hi < 0.0:
            nxt = _widened(widen_hi, hi, r_hi, lo, r_lo) if moves < 60 else None
            if nxt is None:
                raise failure(
                    BracketFailure, "no launch parameter moves the shooting residual above zero"
                )
            lo_prev, (lo, r_lo) = (lo, r_lo), (hi, r_hi)
            hi, r_hi, moves = nxt, residual(nxt), moves + 1
        if r_lo is None:
            r_lo, moves = residual(lo), 0
        while r_lo > 0.0:
            nxt = _widened(widen_lo, lo, r_lo, hi, r_hi) if moves < 60 else None
            if nxt is None:
                raise failure(
                    BracketFailure, "no launch parameter moves the shooting residual below zero"
                )
            hi_prev, (hi, r_hi) = (hi, r_hi), (lo, r_lo)
            lo, r_lo, moves = nxt, residual(nxt), moves + 1
        for r in (r_lo, r_hi):
            sentinels = sentinels + 1 if abs(r) >= _OVERSHOOT else 0
        while max(abs(r_lo), abs(r_hi)) >= _OVERSHOOT:
            # a sentinel carries only its sign: split the bracket rather than
            # interpolate on it, or step short of the split along the real
            # end's secant
            split = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * (lo + hi)
            end, r_end, prev = (hi, r_hi, hi_prev) if abs(r_hi) < _OVERSHOOT else (
                lo, r_lo, lo_prev
            )
            v = split if prev is None else _widened(lambda _: split, end, r_end, *prev)
            if v in (lo, hi):
                raise jump()
            r = closing(v, r_end if abs(r_end) < _OVERSHOOT else None)
            if r < 0.0:
                lo_prev, lo, r_lo = (lo, r_lo), v, r
            else:
                hi_prev, hi, r_hi = (hi, r_hi), v, r
        # Brent's method closes the bracket only as far as its secant moves
        # the residual by the probe stop: inside that, a residual the probes
        # resolve no better is noise, or a jump
        xtol = _RESIDUAL_FLOOR * abs((hi - lo) / (r_hi - r_lo))
        root, _, _, converged = _brentq(closing, lo, hi, xtol, 8.9e-16)
        if not converged:
            raise failure(
                ShootingDivergence, "Brent's method did not converge on the shooting bracket"
            )
        # Brent's last bracket: the root and the nearest shot across it
        r_root = residual(root)
        other = min((v for v, r in memo.items() if (r > 0.0) != (r_root > 0.0)),
                    key=lambda v: abs(v - root))
        lo, hi = sorted((root, other))
        r_lo, r_hi = memo[lo], memo[hi]
        if min(abs(r_lo), abs(r_hi)) > _JUMP_GAP:
            raise jump()
    except _Landed as hit:
        (root,) = hit.args
    return root, len(memo)


def _slope(memo, root):
    """Secant of the shooting residual through ``root`` and its nearest shot.

    ``memo`` is the one `_shoot` filled.  The partner is the shot nearest the
    root that is not a sentinel and whose residual differs from the root's by
    at least 1e-8; None where no shot qualifies.
    """
    r_root = memo[root]
    partners = [
        (abs(v - root), v, r)
        for v, r in memo.items()
        if abs(r) < _OVERSHOOT and abs(r - r_root) >= 1e-8
    ]
    if not partners:
        return None
    _, v, r = min(partners)
    return (r - r_root) / (v - root)


def _polish(shot_fine, v, slope):
    """Re-shoot at output resolution, then take up to 6 secant steps.

    The root was tuned against probe-resolution arcs, so the fine arc lands
    offset by the probes' own integration error.  The first step is a Newton
    step with the probes' residual ``slope`` from `_slope`; where that is
    None, the second point is ``v * (1 + 1e-4)``.  A fine shot whose data is
    None ends the polish; so does a step out of the launch domain, whose
    shots return no data.  Returns ``(v, residual, data)`` of the last
    accepted shot.
    """
    residual, data = shot_fine(v)
    v_old = r_old = None
    for _ in range(6):
        if data is None or abs(residual) <= 1e-10:
            break
        if v_old is None:
            v_next = v * (1.0 + 1e-4) if slope is None else v - residual / slope
        else:
            denom = residual - r_old
            if denom == 0.0:
                break
            v_next = v - residual * (v - v_old) / denom
        r_next, data_next = shot_fine(v_next)
        if data_next is None:
            break
        v_old, r_old = v, residual
        v, residual, data = v_next, r_next, data_next
    return v, residual, data


def _probe_cfg(cfg: IntegratorConfig, r_best: float | None) -> IntegratorConfig:
    """The probe config of a search whose best real |residual| so far is ``r_best``.

    Its rel_tol follows the schedule above; abs_tol keeps the caller's ratio
    to it, and every other field is the caller's.
    """
    tol = _PROBE_TOL_MAX if r_best is None else _PROBE_FORCING * r_best * r_best
    tol = min(max(tol, min(cfg.rel_tol, _PROBE_TOL_MIN)), _PROBE_TOL_MAX)
    return replace(cfg, rel_tol=tol, abs_tol=cfg.abs_tol * tol / cfg.rel_tol)


def _shoot_polish_land(shot, cfg, lo, hi, widen_lo, widen_hi, failure):
    """Root of ``shot(v, cfg)`` by `_shoot`, polished at output resolution.

    Each probe runs at ``_probe_cfg(cfg, r_best)``, ``r_best`` the smallest
    real |residual| its search has shot so far: loose while the search is
    far from the root, 1e-10 by the probe that ends it.  `_polish` then
    re-shoots at ``_fine(cfg)`` from the probes' Newton prediction ``v - r /
    slope``, ``slope`` their `_slope` (from ``v`` itself where that is
    None); where that first fine shot lands within 1e-10, it is the answer.
    A polished shot without data, or one that misses its landing by more
    than 1e-7, raises `ShootingDivergence` with the message ``failure``.
    Returns ``(v, residual, data, shots)``.
    """
    memo = {}

    def probe(u):
        real = [abs(r) for r in memo.values() if abs(r) < _OVERSHOOT]
        return shot(u, _probe_cfg(cfg, min(real) if real else None))

    v, shots = _shoot(probe, lo, hi, widen_lo, widen_hi, memo=memo)
    slope = _slope(memo, v)
    if slope is not None:
        v -= memo[v] / slope
    # the square-root endpoint amplifies an abscissa miss eps into a
    # sqrt(q*eps) density gap, hence the polish at output resolution
    fine = _fine(cfg)
    v, residual, data = _polish(lambda u: shot(u, fine), v, slope)
    if data is None or abs(residual) > 1e-7:
        raise ShootingDivergence(
            failure, diagnostics={"launch": v, "residual": residual, "shots": shots}
        )
    return v, residual, data, shots


def _refuse_excluded(p: ModelParams, kind: str, error) -> None:
    """Raise ``error``, citing the verdict, where `classify_regime` excludes ``kind``."""
    v = classify_regime(p)[kind]
    if v.verdict == NOT_EXISTS:
        raise error(v.condition, theorem_ref=v.theorem)


def _require_subsonic_regime(p: ModelParams) -> None:
    if p.doping.b_lower <= 1.0:
        raise PreconditionViolation(
            "subsonic solutions require inf b > 1; for sup b <= 1 none exists",
            theorem_ref="Theorem 3.1",
        )


def solve_sonic(p: ModelParams) -> Solution:
    """Closed-form solution (rho, E) = (1, 1/tau) for sonic doping."""
    _refuse_excluded(p, "sonic", NotSonicDoping)
    x = graded_grid()
    rho = np.ones_like(x)
    e = np.full_like(x, p.inv_tau)
    return Solution(
        kind="sonic",
        x=x,
        rho=rho,
        e=e,
        diagnostics={"construction": "closed_form", "boundary_residual": 0.0},
    )


# ---------------------------------------------------------------------------
# shots from a square-root sonic wall; subsonic shooting
# ---------------------------------------------------------------------------


# an arc has joined the node's slow manifold where its field lies within this
# many of the kernel's local error bounds on E of the manifold's
_JOIN_FACTOR = 100.0


def _wall_shot(
    side: str, q: float, target: float, p: ModelParams, cfg: IntegratorConfig,
    node: SlowManifold | None = None,
):
    """One arc from its side's square-root sonic wall; residual is landing - target.

    A supersonic arc leaves x = 0 forward at E = 1/tau + q, a subsonic one
    x = 1 backward at E = 1/tau - q: the walls that stay square-root layers
    for every tau.  Longer arcs land farther from their wall, so the
    residual is signed to rise with q.  Without ``node`` the arc lands on the
    sonic line, a supersonic one at ``_SPLIT_TOL`` or finer split at its
    density minimum, which is then a row; an arc that sinks into the node
    (1, 1/tau) first keeps its abscissa there as its landing, sign-correct
    either way, but no data.

    With the node's slow manifold ``node`` the arc lands where it joins it.
    At its density extremum n_e (n = rho - 1) the arc's field lies delta_e
    from the manifold's, 1/tau + node.phi(n_e).  That offset decays like
    |n / n_e|^mu on the way back, so the arc stops where it has fallen to
    the kernel's local error bound on E, tol: at n_e (tol / delta_e)^(1/mu),
    and at most 0.9 n_e.  Where the offset there exceeds _JOIN_FACTOR tol
    (an offset delta moves the landing by about delta / (b - 1)), the arc
    goes on to half its offset, and so on; `_landing_x` closes it.

    Returns ``(residual, segment)``; an arc that lands nowhere has no
    segment and the sentinel -_OVERSHOOT where too shallow (below the launch
    floor, or on the sonic line or in the node before joining the manifold),
    +_OVERSHOOT where it blows up or leaves the domain.
    """
    if q < _LAUNCH_FLOOR:  # outside the launch domain: too shallow, no data
        return -_OVERSHOOT, None
    sign, wall, direction, x_end = (
        (1.0, 0.0, "forward", 3.0) if side == "supersonic" else (-1.0, 1.0, "backward", -2.0)
    )

    def offset_and_tol(s: State):
        return abs(s.e - p.inv_tau - node.phi(s.rho - 1.0)), cfg.abs_tol + cfg.rel_tol * abs(s.e)

    def stop(extremum: State) -> TargetDensity:
        offset, tol = offset_and_tol(extremum)
        ratio = min(0.9, (tol / max(offset, tol)) ** (1.0 / node.mu))
        return TargetDensity(1.0 + ratio * (extremum.rho - 1.0), direction=+1)

    stops = [DomainEnd(x_end)]
    if node is not None or (side == "supersonic" and cfg.rel_tol <= _SPLIT_TOL):
        stops.append(CriticalLocus(then=None if node is None else stop))
    seg = integrate_from_sonic(wall, side, p.inv_tau + sign * q, direction, stops, p, cfg)
    arcs = [seg]
    while seg.terminator.kind == "target_density":  # only with a node
        end = seg.last
        offset, tol = offset_and_tol(end)
        if offset <= _JOIN_FACTOR * tol:
            # each later arc starts on the row the one before ended on
            return sign * (_landing_x(end, node, p.inv_tau) - target), _chain(arcs)
        seg = integrate(
            end, direction,
            [TargetDensity(1.0 + 0.5 * (end.rho - 1.0), direction=+1), DomainEnd(x_end)], p, cfg,
        )
        arcs.append(seg)
    kind = seg.terminator.kind
    if kind not in ("sonic_arrival", "step_failure"):
        # blow-up or domain end: the arc never returns, steer shorter
        return _OVERSHOOT, None
    if node is not None:
        # crossed the sonic line, or sank into the node, before it joined
        return -_OVERSHOOT, None
    return sign * (seg.last.x - target), (seg if kind == "sonic_arrival" else None)


def _landing_x(end: State, node: SlowManifold, inv_tau: float) -> float:
    """The landing abscissa of an arc joined to the slow manifold at ``end``.

    It is the arc's last x plus the quadrature of dx/dn along the manifold
    from its last offset n_b = rho - 1 to 0, plus the first-order effect of
    the arc's offset delta = E - 1/tau - phi(n_b) from the manifold there.
    That offset decays like (n / n_b)^mu and shifts dx/dn = 2 / lam_s by
    -2 delta(n) / (lam_s^2 n), so it moves the landing by
    2 delta / (mu lam_s^2) = delta / (b - 1).
    """
    n_b = end.rho - 1.0
    delta = end.e - inv_tau - float(node.phi(n_b))
    lam_s = node.p[0]
    return end.x + float(node.x_offsets(n_b)[-1]) + 2.0 * delta / (node.mu * lam_s * lam_s)


def _shoot_launch_excess(
    side: str, target: float, lo: float, hi: float, p: ModelParams, cfg: IntegratorConfig,
    node: SlowManifold | None = None,
):
    """The `_wall_shot` on ``side`` whose launch excess lands it at ``target``.

    `_shoot_polish_land` brackets the excess from the seeds ``lo < hi``,
    halving the lower end down to ``_LAUNCH_FLOOR`` and doubling the upper
    one.  Returns ``(q, residual, segment, shots)``.
    """
    return _shoot_polish_land(
        lambda q, c: _wall_shot(side, q, target, p, c, node), cfg, lo, hi,
        lambda q: 0.5 * q if 0.5 * q >= _LAUNCH_FLOOR else None, lambda q: 2.0 * q,
        failure=f"the {side} shot failed to land at x = {target:g}",
    )


def solve_subsonic_shooting(
    p: ModelParams, cfg: IntegratorConfig | None = None
) -> Solution:
    """Subsonic solution by root finding on the launch field E(1).

    The arc leaves the sonic line at x = 1 backward, the wall that stays a
    square-root layer for every tau, and its arc length grows monotonically
    with the launch excess q = 1/tau - E(1), so a sign change of its landing
    abscissa brackets the solution.  ``g0`` is E(0), read at the landing.
    """
    _require_subsonic_regime(p)
    q_star, residual, seg, shots = _shoot_launch_excess(
        "subsonic", 0.0, 1e-4, 0.05, p, cfg or IntegratorConfig()
    )
    return Solution(
        kind="subsonic",
        x=seg.xs[::-1],
        rho=seg.rhos[::-1],
        e=seg.es[::-1],
        diagnostics={
            "construction": "ode_trajectory",
            "g0": float(seg.last.e),
            "launch_excess": q_star,
            "boundary_residual": abs(residual),
            "shooting_iterations": shots,
            "rho_max": float(seg.rhos.max()),
        },
    )


# ---------------------------------------------------------------------------
# subsonic: current-relaxed elliptic form
# ---------------------------------------------------------------------------


def _elliptic_flux_coef(rho: np.ndarray, j: float, gamma: float) -> np.ndarray:
    return rho ** (gamma - 2.0) - j * j * rho ** (-3.0)


def _elliptic_flux_coef_d(rho: np.ndarray, j: float, gamma: float) -> np.ndarray:
    return (gamma - 2.0) * rho ** (gamma - 3.0) + 3.0 * j * j * rho ** (-4.0)


def _elliptic_residual(u, h, cell, bx, j, p):
    """Interior residual, with the midpoints, differences and flux coefficients it used."""
    um = 0.5 * (u[1:] + u[:-1])
    du = np.diff(u)
    coef = _elliptic_flux_coef(um, j, p.gamma)
    flux = coef * du / h + j * p.inv_tau / um
    return flux[1:] - flux[:-1] - (u[1:-1] - bx[1:-1]) * cell, um, du, coef


def _j_schedule(j_schedule) -> tuple[float, ...]:
    """The relaxation currents as floats; ValueError unless they suit the solve."""
    js = tuple(as_number(j) for j in j_schedule)
    if len(js) < 2 or any(not 0.0 < j < 1.0 for j in js) or any(
        b <= a for a, b in zip(js, js[1:])
    ):
        # two levels minimum: the Richardson pair
        raise ValueError("j_schedule must be strictly increasing inside (0, 1)")
    if js[-1] < 1.0 - 1e-4:
        raise ValueError("j_schedule must approach the sonic current: last j >= 0.9999")
    return js


def solve_subsonic_elliptic(
    p: ModelParams,
    j_schedule: tuple[float, ...] = DEFAULT_J_SCHEDULE,
    start: Solution | None = None,
) -> Solution:
    """Subsonic solution via the current-relaxed divergence form.

    For current j < 1 the quasilinear flux (rho^(gamma-2) - j^2 rho^-3) rho_x
    + j/(tau rho) stays uniformly elliptic on rho >= 1, so a damped Newton
    iteration on a boundary-graded finite-volume grid converges: every
    residual row within its scale, _NEWTON_TOL times the cell plus the
    roundoff floor of its flux differences.  The line search halves the step
    lam until the RMS of the scaled residual falls by the factor
    1 - lam / 4, the Armijo test on the residual's 2-norm.  Each iterate
    evaluates the residual once (an accepted trial hands its residual on) and
    solves its tridiagonal system with LAPACK dgtsv; a stalled, unconverged,
    non-finite or singular iteration raises `NewtonDivergence`, the first two
    with the largest scaled residual row in its diagnostics.  The sonic
    limit is recovered by Richardson extrapolation in (1 - j), which is
    first-order accurate in the relaxation parameter.

    Each level starts from the sine guess, or, given `start` (the solution of
    a neighbouring problem on the same schedule), from that solution's
    converged profile at the same j: natural-parameter continuation.  A
    continued solve converges only the last two levels, the pair the
    extrapolation reads.  The returned solution carries that pair of
    converged profiles in `levels`, and `newton_iterations` one count per
    level solved.
    """
    # the one scipy call at run time; imported here, out of every other solve
    from scipy.linalg.lapack import dgtsv

    _require_subsonic_regime(p)
    js = _j_schedule(j_schedule)
    first = 0 if start is None else len(js) - 2
    if start is not None and (
        getattr(start, "levels", None) is None
        or len(start.levels) != 2
        or start.diagnostics["j_schedule"] != list(js)
    ):
        raise ValueError("start must be an elliptic solution on the same j_schedule")

    x = graded_grid()
    h = np.diff(x)
    bx = p.doping(x)
    cell = 0.5 * (h[1:] + h[:-1])

    u = 1.0 + 0.5 * np.clip(bx - 1.0, 0.0, None) * np.sin(np.pi * x)
    u[0] = u[-1] = 1.0

    profiles, fields, newton_iters = [], [], []
    eps = np.finfo(float).eps
    for k, j in enumerate(js[first:]):
        if start is not None:
            u = start.levels[k]  # never written in place: iterates are copies
        # an accepted trial's residual bundle serves the next iterate
        r, um, du, coef = _elliptic_residual(u, h, cell, bx, j, p)
        # iterates must keep rho > j, where the relaxed flux stays elliptic
        floor = max(0.5, j + 1e-8)
        for it in range(_MAX_NEWTON):
            # row scale: residuals integrate a density over a cell, plus the
            # roundoff floor of the flux differences D * drho / h
            d_over_h = coef / h
            noise = 16.0 * eps * (d_over_h[:-1] + d_over_h[1:])
            scale = _NEWTON_TOL * cell + noise
            if np.all(np.abs(r) <= scale):
                newton_iters.append(it)
                break
            # tridiagonal Jacobian: flux_k depends on u_k and u_{k-1}
            slope = 0.5 * _elliptic_flux_coef_d(um, j, p.gamma) * du / h
            drift = 0.5 * j * p.inv_tau / um**2
            df_right = slope + d_over_h - drift
            df_left = slope - d_over_h - drift
            diag = df_left[1:] - df_right[:-1] - cell  # d R_i / d u_i
            upper = df_right[1:-1]  # d R_i / d u_{i+1}
            lower = -df_left[1:-1]  # d R_i / d u_{i-1}
            # every entry of upper and lower enters diag, so a non-finite
            # system shows in diag or r
            if np.isfinite(diag).all() and np.isfinite(r).all():
                # the diagonals and -r are scratch, so LAPACK may overwrite them
                step, info = dgtsv(lower, diag, upper, -r, 1, 1, 1, 1)[3:]
                reason = "singular Newton system" if info else None
            else:
                reason = "non-finite Newton system"
            if reason:
                raise NewtonDivergence(
                    f"{reason} in the relaxed elliptic solve",
                    diagnostics={"j": j, "iteration": it, "reason": reason},
                )
            # sufficient decrease of the scaled residual's RMS; the failures
            # report its largest row
            z = r / scale
            rms0 = math.sqrt(z @ z / z.size)
            lam = 1.0
            while lam > 2.0**-24:
                trial = u.copy()
                trial[1:-1] += lam * step
                if trial[1:-1].min() > floor:
                    bundle = _elliptic_residual(trial, h, cell, bx, j, p)
                    z_trial = bundle[0] / scale
                    if math.sqrt(z_trial @ z_trial / z_trial.size) < rms0 * (1.0 - 0.25 * lam):
                        u = trial
                        r, um, du, coef = bundle
                        break
                lam *= 0.5
            else:
                raise NewtonDivergence(
                    "damped Newton stalled in the relaxed elliptic solve",
                    diagnostics={"j": j, "residual": float(np.abs(z).max())},
                )
        else:
            raise NewtonDivergence(
                "relaxed elliptic solve did not converge",
                diagnostics={"j": j, "residual": float(np.abs(z).max())},
            )
        rho_x = grid_derivative(x, u)
        e_j = _elliptic_flux_coef(u, j, p.gamma) * rho_x + j * p.inv_tau / u
        profiles.append(u.copy())
        fields.append(e_j)

    # linear Richardson in s = 1 - j from the last two relaxation levels
    s_prev, s_last = 1.0 - js[-2], 1.0 - js[-1]
    w = s_last / (s_prev - s_last)
    rho_star = profiles[-1] + w * (profiles[-1] - profiles[-2])
    e_star = fields[-1] + w * (fields[-1] - fields[-2])
    rho_star[0] = rho_star[-1] = 1.0
    rho_star = np.maximum(rho_star, 1.0)

    return Solution(
        kind="subsonic",
        x=x,
        rho=rho_star,
        e=e_star,
        diagnostics={
            "construction": "relaxed_elliptic",
            "j_schedule": list(js),
            "newton_iterations": newton_iters,
            "boundary_residual": 0.0,
            "rho_max": float(rho_star.max()),
        },
        levels=tuple(profiles[-2:]),
    )


# ---------------------------------------------------------------------------
# supersonic
# ---------------------------------------------------------------------------


def solve_supersonic(p: ModelParams, cfg: IntegratorConfig | None = None) -> Solution:
    """Supersonic solution by shooting on the launch field E(0).

    The arc leaves the sonic line at x = 0 exactly, dives to its density
    minimum on the critical locus rho E = 1/tau, where it is split so that
    the minimum is a row, and climbs back; its launch excess E(0) - 1/tau is
    tuned until it lands on the sonic line at x = 1, by the subsonic
    family's `_wall_shot`.  Constant and variable doping take this one path; ``rho_min``
    and ``x_min`` are read from the rows.
    """
    _refuse_excluded(p, "supersonic", NoSolutionInRegime)
    q_star, residual, seg, shots = _shoot_launch_excess(
        "supersonic", 1.0, 0.05, 0.2, p, cfg or IntegratorConfig()
    )
    k = int(np.argmin(seg.rhos))
    return Solution(
        kind="supersonic",
        x=seg.xs,
        rho=seg.rhos,
        e=seg.es,
        diagnostics={
            "construction": "ode_trajectory",
            "g0": p.inv_tau + q_star,
            "launch_excess": q_star,
            "rho_min": float(seg.rhos[k]),
            "x_min": float(seg.xs[k]),
            "boundary_residual": abs(residual),
            "e_left": float(seg.es[0]),
            "e_right": float(seg.es[-1]),
            "shooting_iterations": shots,
        },
    )


@dataclass(frozen=True)
class SweepSample:
    """One probe of the supersonic shooting residual."""

    launch_excess: float
    residual: float
    status: str


def supersonic_residual_sweep(p: ModelParams, samples: int = 200) -> list[SweepSample]:
    """Scan of `solve_supersonic`'s own shot over launch excess, for any doping.

    The launch excess q = E(0) - 1/tau is log-spaced over (1e-5, 4).  Unlike
    the solvers this never rejects on regime: it witnesses non-existence
    numerically.  A shot that lands on the sonic line has status ``"ok"``
    and its residual; any other a NaN residual and status ``"short"`` or
    ``"long"`` (the -10 or +10 sentinel) or ``"node"`` (sunk into the node).

    At 200 samples launches are 6.7% apart.  The range holds every root the
    solvers find, up to q = 2.22 at b = 3, tau = 0.3, and both roots at
    b = 0.98 for tau 10-100 (0.0028-0.0095 and 0.016-0.020); at tau = 10 the
    lower one lies 6% above where shots start to land, so a coarser scan
    loses it.
    """
    out = []
    for q in np.geomspace(1e-5, 4.0, samples).tolist():
        res, data = _wall_shot("supersonic", q, 1.0, p, IntegratorConfig())
        if data is not None:
            out.append(SweepSample(q, float(res), "ok"))
        else:
            status = {-_OVERSHOOT: "short", _OVERSHOOT: "long"}.get(res, "node")
            out.append(SweepSample(q, math.nan, status))
    return out


def residual_sign_change(sweep: list[SweepSample]) -> bool:
    """True when two consecutive valid samples bracket a root."""
    prev = None
    for s in sweep:
        if math.isnan(s.residual):
            prev = None
            continue
        if prev is not None and prev * s.residual <= 0.0:
            return True
        prev = s.residual
    return False


# ---------------------------------------------------------------------------
# transonic shock
# ---------------------------------------------------------------------------


def _shock_shot(e0: float, rho_l: float, p: ModelParams, cfg):
    """One interior-layer shot: supersonic dive, jump, subsonic climb.

    The dive leaves the sonic line at x = 0 exactly and the climb lands on
    it.  Returns (landing_x - 1, parts) where parts is None for invalid shots.
    """
    if e0 - p.inv_tau < _LAUNCH_FLOOR:  # outside the launch domain: too shallow
        return -_OVERSHOOT, None
    sup = integrate_from_sonic(
        0.0, "supersonic", e0, "forward",
        [TargetDensity(rho_l, direction=+1), DomainEnd(4.0)], p, cfg,
    )
    if sup.terminator.kind != "target_density":
        # arc never rose back through rho_l: too shallow (back on the sonic
        # line, or into the node, first) or blown up; both mean "not this
        # launch field"
        if sup.terminator.kind in ("sonic_arrival", "step_failure"):
            return -_OVERSHOOT, None
        return _OVERSHOOT, None
    left = sup.last
    rho_r, e_r = rh_jump(left.rho, left.e)
    sub = integrate(State(left.x, rho_r, e_r), "forward", [DomainEnd(left.x + 4.0)], p, cfg)
    if sub.terminator.kind != "sonic_arrival":
        return _OVERSHOOT, None
    return sub.last.x - 1.0, (sup, sub)


def _shock_bracket(rho_l: float, p: ModelParams):
    """Launch-field bracket seeded by the frictionless energy integral.

    The lower seed is the touching energy, whose arc only just reaches
    rho_l, kept a launch excess _LAUNCH_FLOOR clear of 1/tau; the upper seed
    is the energy of the deepest dive the lemma bracket allows.  Where the
    deep seed falls below the lower one, as at small tau, the upper seed is
    one widening step above the lower one instead.  Both seeds usually
    return sentinels (too shallow, blown up), so `_shoot` splits the bracket
    geometrically until both ends are real before Brent's method closes it.
    """
    psi = lambda r: undamped_energy_potential(r, p.doping.b_upper)
    psi_lo = undamped_energy_potential(rho_l, p.doping.b_lower)
    e_touch = math.sqrt(max(2.0 * (psi(1.0) - psi_lo), 0.0))
    beta_deep, _ = supersonic_min_density_bracket(1.0, max(p.doping.b_lower, 1.0 + 1e-9))
    e_deep = math.sqrt(max(2.0 * (psi(1.0) - psi(beta_deep)), 1e-6))
    e_lo = max(e_touch * (1.0 + 1e-6), p.inv_tau + _LAUNCH_FLOOR)
    return e_lo, max(e_deep, _SHOCK_WIDEN * e_lo)


def solve_transonic_shock(
    p: ModelParams, rho_l: float, cfg: IntegratorConfig | None = None
) -> Solution:
    """Transonic solution with one entropic jump at density rho_l.

    The launch field E(0) is tuned until the arc that leaves the sonic line
    at x = 0, dives through the supersonic branch, jumps at its upward
    crossing of rho_l and climbs the subsonic branch lands on the sonic
    line at x = 1.
    """
    if not 0.0 < rho_l < 1.0:
        raise PreconditionViolation("the pre-shock density must lie in (0, 1)")
    if p.gamma != 1.0:
        raise PreconditionViolation(
            "the shock jump is the isothermal one, rho_l * rho_r = 1; it needs gamma = 1"
        )
    _refuse_excluded(p, "transonic_shock", RegimeRejection)
    if rho_l >= _SHOCK_RHO_L_MAX:
        raise PreconditionViolation(f"rho_l must lie below {_SHOCK_RHO_L_MAX}")
    cfg = cfg or IntegratorConfig()

    e_lo, e_hi = _shock_bracket(rho_l, p)
    # a lower seed past the solution is pulled toward the touching energy,
    # never into the degenerate-launch guard
    e_star, residual, parts, shots = _shoot_polish_land(
        lambda e0, c: _shock_shot(e0, rho_l, p, c),
        cfg,
        e_lo,
        e_hi,
        lambda e0: 0.5 * (e0 + p.inv_tau) if 0.5 * (e0 - p.inv_tau) >= _LAUNCH_FLOOR else None,
        lambda e0: _SHOCK_WIDEN * e0,
        failure="shock shooting failed to land at x = 1",
    )
    sup, sub = parts
    if abs(sup.last.rho - rho_l) > 1e-9:
        raise LastCrossingMissing(
            "supersonic branch did not terminate on the required crossing",
            diagnostics={"rho_end": sup.last.rho},
        )
    # the upward crossing is the last one only if the dive is unimodal;
    # along rho E = 1/tau the excess decays, so exactly one interior
    # minimum may occur.  Verify rather than assume.
    q = sup.rhos * sup.es - p.inv_tau
    crossings = int(np.count_nonzero(np.diff(np.sign(q)) != 0))
    if crossings != 1:
        raise LastCrossingMissing(
            "supersonic branch is not unimodal; the jump point is ambiguous",
            diagnostics={"sign_changes": crossings},
        )

    e_jump = float(sup.last.e)
    shock = ShockData(
        x0=float(sup.last.x), rho_l=rho_l, rho_r=rh_jump(rho_l, e_jump)[0], e_jump=e_jump
    )
    return Solution(
        kind="transonic_shock",
        x=np.concatenate([sup.xs, sub.xs]),
        rho=np.concatenate([sup.rhos, sub.rhos]),
        e=np.concatenate([sup.es, sub.es]),
        shock=shock,
        diagnostics={
            "construction": "ode_trajectory",
            "e0": e_star,
            "boundary_residual": abs(residual),
            "rho_l": rho_l,
            "shooting_iterations": shots,
        },
    )


# ---------------------------------------------------------------------------
# C1 transonic
# ---------------------------------------------------------------------------


def _landing(seg: TrajectorySegment, node: SlowManifold, inv_tau: float, spacing: float):
    """Close a joined arc on the node along the slow manifold (`_landing_x`).

    Rows read off the manifold follow the arc's own, equally spaced in n and
    at most ``spacing`` apart in x and in rho, as the kernel's are; their x
    is the cumulative quadrature, measured back from the landing.  Returns
    ``(x_hat, xs, rhos, es)``: the landing abscissa, and the rows without the
    landing itself.
    """
    end = seg.last
    n_b = end.rho - 1.0
    x_hat = _landing_x(end, node, inv_tau)
    # dx/dn is smooth on [n_b, 0]: its largest sample, with 1% to spare,
    # bounds the x-gap of equal parts in n
    steep = max(1.0, float(np.abs(node.dx_dn(np.linspace(n_b, 0.0, 41))).max()))
    parts = math.ceil(abs(n_b) * steep * 1.01 / spacing)
    n = n_b * (1.0 - np.arange(1, parts) / parts)
    offsets = node.x_offsets(n_b, parts, nodes=8)
    xs = x_hat - (offsets[-1] - offsets[:-1])
    return (
        x_hat,
        np.concatenate((seg.xs, xs)),
        np.concatenate((seg.rhos, 1.0 + n)),
        np.concatenate((seg.es, inv_tau + node.phi(n))),
    )


def _landing_slope(xs, rhos, x_hat: float) -> float:
    """drho/dx at (x_hat, 1) of the parabola through it and the last two rows."""
    u1, u2 = xs[-1] - x_hat, xs[-2] - x_hat
    n1, n2 = rhos[-1] - 1.0, rhos[-2] - 1.0
    return float((n1 * u2 * u2 - n2 * u1 * u1) / (u1 * u2 * (u2 - u1)))


def solve_c1_transonic(
    p: ModelParams,
    x0: float,
    cfg: IntegratorConfig | None = None,
) -> Solution:
    """Continuously differentiable transonic solution through rho(x0) = 1.

    Each branch leaves its square-root sonic endpoint (x = 0 supersonic,
    x = 1 subsonic) and lands on the node (1, 1/tau) along its slow
    manifold, with the slope theta1/2 fixed by the degenerate transition;
    the launch excess is tuned until the landing abscissa, closed by
    quadrature along the manifold (`_landing`), equals x0.  Tangential
    landings form a one-parameter family, which is what makes an interior
    matching point adjustable at all.  The rows from where each branch
    joins the manifold to x0 are the manifold's; ``slope_fitted`` is read
    off each branch's last rows.
    """
    if not 0.0 < x0 < 1.0:
        raise PreconditionViolation("the transition point must be interior")
    if p.gamma != 1.0:
        raise PreconditionViolation(
            "tau0 and the transition slope are the isothermal ones; C1 needs gamma = 1"
        )
    if not (p.doping.is_constant and p.doping.constant_value > 1.0):
        raise PreconditionViolation(
            "smooth transonic profiles need constant doping above the sonic level"
        )
    b = p.doping.constant_value
    if p.tau >= tau0_bound(b):
        raise RegimeRejection(
            "relaxation is too weak for a degenerate sonic transition",
            theorem_ref="Theorem 2.22",
        )
    cfg = cfg or IntegratorConfig()
    slope_ref = c1_transition_slope(b, p.tau)
    node = node_slow_manifold(b, p.tau)

    def solve_branch(side: str):
        # the node's linearization lands a launch excess q about q / (b - 1)
        # from the launch wall; seed at the branch's distance to x0
        q_seed = (b - 1.0) * (x0 if side == "supersonic" else 1.0 - x0)
        q, _, seg, shots = _shoot_launch_excess(side, x0, q_seed, 1.5 * q_seed, p, cfg, node)
        fine = _fine(cfg)
        x_hat, xs, rhos, es = _landing(
            seg, node, p.inv_tau, min(fine.sample_spacing, fine.max_step)
        )
        q_launch = q if side == "supersonic" else -q
        return xs, rhos, es, q_launch, x_hat, _landing_slope(xs, rhos, x_hat), shots

    sup_x, sup_rho, sup_e, q_sup, x_sup, m_sup, sup_shots = solve_branch("supersonic")
    sub_x, sub_rho, sub_e, q_sub, x_sub, m_sub, sub_shots = solve_branch("subsonic")

    # each branch lands within 1e-7 of x0 (`_shoot_polish_land`)
    slope_gap = max(abs(m_sup - slope_ref), abs(m_sub - slope_ref)) / slope_ref
    if slope_gap > 1e-2:
        raise GlueMismatch(
            "branch landings disagree at the sonic transition",
            diagnostics={"slope_gap": slope_gap},
        )

    # supersonic branch runs 0 -> x0; subsonic was integrated backward from
    # 1; both land on the node, where E = 1/tau
    xs = np.concatenate([sup_x, [x0], sub_x[::-1]])
    rhos = np.concatenate([sup_rho, [1.0], sub_rho[::-1]])
    es = np.concatenate([sup_e, [p.inv_tau], sub_e[::-1]])

    sol = Solution(
        kind="c1_transonic",
        x=xs,
        rho=rhos,
        e=es,
        transition=TransitionData(x0=x0, slope=0.5 * (m_sup + m_sub)),
        diagnostics={
            "construction": "ode_trajectory_glued",
            "sup_launch_field": p.inv_tau + q_sup,
            "sub_launch_field": p.inv_tau + q_sub,
            "slope_reference": slope_ref,
            "slope_fitted": [m_sup, m_sub],
            "x_hat": [float(x_sup), float(x_sub)],
            "boundary_residual": float(max(abs(x_sup - x0), abs(x_sub - x0))),
            "shooting_iterations": sup_shots + sub_shots,
        },
    )
    # a glued profile that stays within the residual band of the sonic line
    # leaves residual_norm only finite differences across its layers: such
    # a solution is not returned uncertified
    residual, where = residual_norm(sol, p)
    if not residual < _C1_RESIDUAL_TOL:
        raise GlueMismatch(
            "the glued profile fails its residual check",
            diagnostics={"residual": residual, "x": where, "x0": x0},
        )
    return sol

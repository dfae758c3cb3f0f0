"""Verification and classification utilities.

Pure functions over immutable solutions: the existence/non-existence
classifier, pointwise residual measurement, boundary-layer exponent
fitting, and phase-plane trajectory checks.  Safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import (
    InsufficientWindow,
    LemmaViolation,
    NotConstantDoping,
    PreconditionViolation,
)
from .model_core import ModelParams, sonic_coefficient, tau0_bound, xi_curve
from .solution import Solution

EXISTS = "exists"
NOT_EXISTS = "not_exists"
UNDETERMINED = "undetermined"

# advisory thresholds for the quantified-nowhere "tau large" and
# "doping close to sonic" clauses
ADVISORY_TAU = 10.0
ADVISORY_DOPING_GAP = 0.1

HOLDER_WINDOW = (1e-4, 1e-2)
WEAK_BASIS_SIZE = 32

# half-width of the density band around the sonic line excluded from
# pointwise residual checks, where rho_x blows up
RESIDUAL_BAND = 1e-2


# ---------------------------------------------------------------------------
# regime classification


@dataclass(frozen=True)
class KindVerdict:
    """Verdict for one solution kind with the clause that decided it."""

    verdict: str
    condition: str
    advisory: str | None = None
    theorem: str | None = None  # what a not_exists verdict rests on; not in to_dict

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict, "condition": self.condition}
        if self.advisory is not None:
            out["advisory"] = self.advisory
        return out


@dataclass(frozen=True)
class RegimeReport:
    """Existence verdicts per solution kind plus a parameter echo."""

    verdicts: Mapping[str, KindVerdict]
    tau: float
    gamma: float
    doping: dict

    def __getitem__(self, kind: str) -> KindVerdict:
        return self.verdicts[kind]

    def to_dict(self) -> dict:
        return {
            "verdicts": {k: v.to_dict() for k, v in self.verdicts.items()},
            "tau": self.tau,
            "gamma": self.gamma,
            "doping": self.doping,
        }


def classify_regime(p: ModelParams) -> RegimeReport:
    """Apply the sufficient existence/non-existence conditions in order.

    Only stated sufficient conditions fire; parameter regions they do not
    cover come back ``undetermined`` with the nearest clause noted.  The
    "tau large" constructions carry an advisory instead of a verdict
    because no threshold for "large" is stated.
    """
    d = p.doping
    bl, bu = d.b_lower, d.b_upper
    tau = p.tau
    v: dict[str, KindVerdict] = {}

    # sonic: rho = 1 forces E = 1/tau, whose derivative must match 1 - b
    if d.is_sonic:
        v["sonic"] = KindVerdict(
            EXISTS,
            "b = 1 identically: exact sonic solution (rho, E) = (1, 1/tau) "
            "(remark after Theorem 1.2)",
        )
    else:
        v["sonic"] = KindVerdict(
            NOT_EXISTS,
            "rho = 1 forces E = 1/tau, so E_x = 0 requires b = 1 identically "
            "(converse of the remark after Theorem 1.2)",
        )

    small_doping = bu <= 1.0 and bu * (1.0 + math.sqrt(2.0 * bu)) < 1.0
    small_tau = bu <= 1.0 and tau < 1.0 / 3.0
    near_sonic_advisory = bu <= 1.0 and (1.0 - bl) < ADVISORY_DOPING_GAP and tau >= ADVISORY_TAU
    const_b = d.constant_value if (d.is_constant and not d.is_sonic) else None
    c1_regime = const_b is not None and const_b > 1.0 and tau < tau0_bound(const_b)

    # subsonic
    if bl > 1.0:
        v["subsonic"] = KindVerdict(
            EXISTS,
            "b_lower > 1: unique interior subsonic solution (Theorem 1.1 "
            "part 1 / Theorem 3.1)",
        )
    elif bu <= 1.0:
        v["subsonic"] = KindVerdict(
            NOT_EXISTS,
            "b_upper <= 1: no interior subsonic solution (Theorem 1.2 "
            "part 1 / Theorem 3.1)",
            theorem="Theorem 3.1",
        )
    else:
        v["subsonic"] = KindVerdict(
            UNDETERMINED,
            "doping straddles the sonic line: Theorem 1.1 needs b_lower > 1, "
            "Theorem 1.2 needs b_upper <= 1",
        )

    # supersonic
    if bl > 1.0:
        v["supersonic"] = KindVerdict(
            EXISTS,
            "b_lower > 1: at least one interior supersonic solution "
            "(Theorem 1.1 part 2)",
        )
    elif small_doping:
        v["supersonic"] = KindVerdict(
            NOT_EXISTS,
            f"b_upper (1 + sqrt(2 b_upper)) = {bu * (1 + math.sqrt(2 * bu)):.4f} < 1: "
            "no interior supersonic solution (Theorem 1.2 part 2 / Theorem 3.2)",
            theorem="Theorem 3.2",
        )
    elif small_tau:
        v["supersonic"] = KindVerdict(
            NOT_EXISTS,
            "b_upper <= 1 and tau < 1/3: no interior supersonic solution "
            "(Theorem 1.2 part 3 / Theorem 3.3)",
            theorem="Theorem 3.3",
        )
    elif bu <= 1.0:
        advisory = None
        if near_sonic_advisory:
            advisory = (
                "doping close to sonic and tau >= 10: construction expected "
                "(Theorem 1.2 part 4); attempt it"
            )
        v["supersonic"] = KindVerdict(
            UNDETERMINED,
            "b_upper <= 1 outside every stated clause: Theorem 1.2 part 4 "
            "needs doping near 1 and tau large (no threshold stated)",
            advisory=advisory,
        )
    else:
        v["supersonic"] = KindVerdict(
            UNDETERMINED,
            "doping straddles the sonic line: no supersonic clause applies",
        )

    # transonic shock
    if small_doping:
        v["transonic_shock"] = KindVerdict(
            NOT_EXISTS,
            f"b_upper (1 + sqrt(2 b_upper)) = {bu * (1 + math.sqrt(2 * bu)):.4f} < 1: "
            "no transonic solution (Theorem 1.2 part 2 / Theorem 3.2)",
            theorem="Theorem 3.2",
        )
    elif small_tau:
        v["transonic_shock"] = KindVerdict(
            NOT_EXISTS,
            "b_upper <= 1 and tau < 1/3: no transonic solution "
            "(Theorem 1.2 part 3 / Theorem 3.3)",
            theorem="Theorem 3.3",
        )
    elif c1_regime:
        v["transonic_shock"] = KindVerdict(
            NOT_EXISTS,
            f"constant b > 1 and tau < tau0(b) = {tau0_bound(const_b):.6f}: "
            "no transonic shock solution (Theorem 1.1 part 4 / Theorem 2.23)",
            theorem="Theorem 2.23",
        )
    elif bl > 1.0:
        advisory = None
        if tau >= ADVISORY_TAU and (bu - bl) < ADVISORY_DOPING_GAP:
            advisory = (
                "tau >= 10 with nearly constant doping: shock family expected "
                "(Theorem 1.1 part 3); attempt construction"
            )
        v["transonic_shock"] = KindVerdict(
            UNDETERMINED,
            "Theorem 1.1 part 3 needs tau large and b_upper - b_lower small; "
            "no threshold is stated",
            advisory=advisory,
        )
    elif bu <= 1.0:
        advisory = None
        if near_sonic_advisory:
            advisory = (
                "doping close to sonic and tau >= 10: shock family expected "
                "(Theorem 1.2 part 5); attempt construction"
            )
        v["transonic_shock"] = KindVerdict(
            UNDETERMINED,
            "b_upper <= 1 outside every stated clause: Theorem 1.2 part 5 "
            "needs doping near 1 and tau large (no threshold stated)",
            advisory=advisory,
        )
    else:
        v["transonic_shock"] = KindVerdict(
            UNDETERMINED,
            "doping straddles the sonic line: no transonic clause applies",
        )

    # C1 transonic
    if c1_regime:
        v["c1_transonic"] = KindVerdict(
            EXISTS,
            f"constant b > 1 and tau < tau0(b) = {tau0_bound(const_b):.6f}: "
            "infinitely many C1 transonic solutions (Theorem 1.1 part 4 / "
            "Theorem 2.22)",
        )
    elif small_doping or small_tau:
        part, theorem = ("2", "Theorem 3.2") if small_doping else ("3", "Theorem 3.3")
        v["c1_transonic"] = KindVerdict(
            NOT_EXISTS,
            f"no transonic solution of any kind (Theorem 1.2 part {part} / {theorem})",
            theorem=theorem,
        )
    else:
        v["c1_transonic"] = KindVerdict(
            UNDETERMINED,
            "Theorem 1.1 part 4 needs constant b > 1 and tau < tau0(b)",
        )

    if p.gamma != 1.0:  # every theorem cited above is proved for gamma = 1 only
        for kind, kv in v.items():
            if kind != "sonic":
                why = f"gamma = {p.gamma:g}: the theorems hold for gamma = 1 only"
                v[kind] = KindVerdict(UNDETERMINED, f"{why} (there: {kv.verdict}, {kv.condition})")

    return RegimeReport(
        verdicts=MappingProxyType(v),
        tau=tau,
        gamma=p.gamma,
        doping=d.to_dict(),
    )


# ---------------------------------------------------------------------------
# residual measurement


# The residual probe evaluates the slopes over x over whole arrays, so it
# keeps its own copy rather than dividing model_core.vector_field by its x
# rate: that one works on plain floats through math.pow, which rejects
# arrays; serving both from one definition would make it branch on its
# caller, and a per-sample loop would make residual_norm about ten times
# slower.  It takes the doping b(x) already evaluated, so that each distinct
# abscissa is evaluated once.
def _rhs_arrays(bx, rho, e, p: ModelParams):
    coef = sonic_coefficient(rho, p.gamma)
    d_rho = (rho * e - p.inv_tau) / coef
    d_e = rho - bx
    return d_rho, d_e


def _defect_residual(sol: Solution, p: ModelParams):
    """First-equation defect per unit step on off-band intervals.

    One classical RK4 step from each stored left state is compared with the
    stored right state.  This measures consistency with the momentum
    equation without finite-differencing the square-root boundary layers,
    where second differences of the stored profile are meaningless.
    """
    x, rho, e = sol.x, sol.rho, sol.e
    h = np.diff(x)
    off_band = np.abs(rho - 1.0) >= RESIDUAL_BAND
    valid = (h > 0) & off_band[:-1] & off_band[1:]
    if sol.shock is not None:
        i = sol.shock_index
        lo = max(i - 1, 0)
        valid[lo : min(i + 2, valid.size)] = False
    if not np.any(valid):
        return None

    xs, hs = x[:-1][valid], h[valid]
    rho_pred, e_pred = rho[:-1][valid], e[:-1][valid]

    # four RK4 substeps keep the probe's own truncation error far below the
    # stored data's accuracy, so the defect measures the data, not the probe;
    # k2 and k3 share the midpoint, and k4's abscissa is the next substep's k1
    sub = 4
    hq = hs / sub
    xc = xs.copy()
    b_start = p.doping(xc)
    for _ in range(sub):
        b_mid, b_end = p.doping(xc + hq / 2), p.doping(xc + hq)
        k1r, k1e = _rhs_arrays(b_start, rho_pred, e_pred, p)
        k2r, k2e = _rhs_arrays(b_mid, rho_pred + hq / 2 * k1r, e_pred + hq / 2 * k1e, p)
        k3r, k3e = _rhs_arrays(b_mid, rho_pred + hq / 2 * k2r, e_pred + hq / 2 * k2e, p)
        k4r, k4e = _rhs_arrays(b_end, rho_pred + hq * k3r, e_pred + hq * k3e, p)
        rho_pred = rho_pred + hq / 6 * (k1r + 2 * k2r + 2 * k3r + k4r)
        e_pred = e_pred + hq / 6 * (k1e + 2 * k2e + 2 * k3e + k4e)
        xc = xc + hq
        b_start = b_end

    r0 = rho[:-1][valid]
    r1 = rho[1:][valid]
    defect = np.abs(rho_pred - r1) / hs
    scaled = defect / (1.0 + np.abs((r1 - r0) / hs))
    i_max = int(np.argmax(scaled))
    return float(scaled[i_max]), float(xs[i_max] + hs[i_max] / 2)


def _strong_residual(sol: Solution, p: ModelParams):
    """Plain finite-difference evaluation of the momentum equation."""
    from .solution import grid_derivative

    x, rho, e = sol.x, sol.rho, sol.e
    rho_x = grid_derivative(x, rho)
    res = sonic_coefficient(rho, p.gamma) * rho_x - (rho * e - p.inv_tau)
    scaled = np.abs(res) / (1.0 + np.abs(rho_x))
    i_max = int(np.argmax(scaled))
    return float(scaled[i_max]), float(x[i_max])


def _weak_residual(sol: Solution, p: ModelParams):
    """Weak-form residual against interior hat functions.

    Tests int E phi' + int (rho - b) phi = 0, which is the weak statement of
    the field equation with the flux eliminated through the stored field.
    Each value is scaled by the inverse hat mass so it is comparable to a
    pointwise residual.  All hats are integrated in one pass over the rows
    merged with the hats' knots: each interval between them lies in one
    half-hat segment, where E is linear (trapezoid) and (rho - b) phi is
    integrated by the trapezoid through the interval's midpoint.
    """
    x, rho, e = sol.x, sol.rho, sol.e
    m = WEAK_BASIS_SIZE
    width = 1.0 / (m + 1)
    knots = np.arange(m + 2) * width
    pts = np.unique(np.concatenate([knots, x[(x > knots[0]) & (x < knots[-1])]]))
    left, right = pts[:-1], pts[1:]
    mid = (left + right) / 2
    seg = np.searchsorted(knots, left, side="right") - 1
    # rho - b at the interval ends and midpoints, E at the ends
    at = np.concatenate([pts, mid])
    f = np.interp(at, x, rho) - p.doping(at)
    f_left, f_right, f_mid = f[: len(pts) - 1], f[1 : len(pts)], f[len(pts) :]
    e_pts = np.interp(pts, x, e)

    def trapezoid(knot):
        """(rho - b) phi over each interval, phi the hat centred on ``knot``."""
        g = lambda t, ft: ft * (1.0 - np.abs(t - knot) / width)
        return ((mid - left) * (g(left, f_left) + g(mid, f_mid))
                + (right - mid) * (g(mid, f_mid) + g(right, f_right))) / 2

    def per_segment(weights, shift=0):
        return np.bincount(seg + shift, weights, minlength=m + 2)[1 : m + 1]

    # hat k rises on segment k - 1 and falls on segment k
    e_seg = np.bincount(seg, (right - left) * (e_pts[:-1] + e_pts[1:]) / 2, minlength=m + 2)
    flux = (e_seg[: m] - e_seg[1 : m + 1]) / width
    source = per_segment(trapezoid(knots[seg + 1]), 1) + per_segment(trapezoid(knots[seg]))
    w = np.abs(flux + source) / width
    k = int(np.argmax(w))
    return (float(w[k]), float(knots[k + 1])) if w[k] > 0.0 else (0.0, 0.5)


def residual_norm(sol: Solution, p: ModelParams) -> tuple[float, float]:
    """Largest scaled residual of the momentum equation and its location.

    Pointwise values are scaled by 1 + |rho_x|; sonic bands (|rho - 1| below
    0.01) and the shock cell are excluded.  Solutions with an interior sonic
    point additionally get a weak-form check against 32 hat functions, since
    no pointwise statement holds across the crossing.
    """
    pointwise = _defect_residual(sol, p)
    if pointwise is None:
        pointwise = _strong_residual(sol, p)
    if sol.kind == "c1_transonic":
        weak = _weak_residual(sol, p)
        if weak[0] > pointwise[0]:
            return weak
    return pointwise


# ---------------------------------------------------------------------------
# boundary-layer exponent


@dataclass(frozen=True)
class ExponentFit:
    """Log-log regression of |rho - 1| against distance to an endpoint."""

    endpoint: int
    exponent: float
    confidence_half_width: float
    window_used: tuple[float, float]
    n_points: int
    fit_residual: float


def fit_holder_exponent(sol: Solution, endpoint) -> ExponentFit:
    """Least-squares exponent of the boundary layer at a sonic endpoint.

    Valid for solution kinds whose density leaves the endpoint like a square
    root.  The C1 transition point is explicitly not such an endpoint; pass
    ``endpoint="transition"`` and the guard explains why it is rejected.
    Below tau_n(b) = 1 / (2 sqrt((gamma + 1)(b - 1))) the node (1, 1/tau)
    is a proper node, and one wall leaves it tangentially, C1 rather than a
    square root: x = 0 of a subsonic solution, x = 1 of a supersonic one.
    At b = 2.53, tau = 0.266 (tau_n 0.286) a subsonic solution fits 1.000
    at x = 0 and 0.494 at x = 1.
    """
    if endpoint == "transition":
        raise PreconditionViolation(
            "the C1 sonic crossing is differentiable; its deviation grows "
            "linearly, not like a square root, so no exponent fit applies"
        )
    if endpoint not in (0, 1):
        raise ValueError("endpoint must be 0, 1, or 'transition'")
    if sol.kind == "sonic":
        raise PreconditionViolation(
            "the sonic solution has no boundary layer to fit"
        )

    # outer endpoints of a glued C1 solution are still square-root layers,
    # so every remaining kind is fittable at both ends
    dist = sol.x if endpoint == 0 else 1.0 - sol.x
    dev = np.abs(sol.rho - 1.0)
    lo, hi = HOLDER_WINDOW
    mask = (dist >= lo) & (dist <= hi) & (dev > 0)
    n = int(np.count_nonzero(mask))
    if n < 8:
        raise InsufficientWindow(
            f"only {n} grid points with distance in [{lo:g}, {hi:g}] "
            f"from endpoint {endpoint}; need at least 8"
        )
    ld = np.log(dist[mask])
    lv = np.log(dev[mask])
    slope, intercept = np.polyfit(ld, lv, 1)
    resid = lv - (slope * ld + intercept)
    dof = max(n - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / float(((ld - ld.mean()) ** 2).sum()))
    return ExponentFit(
        endpoint=endpoint,
        exponent=float(slope),
        confidence_half_width=1.96 * se,
        window_used=(float(dist[mask].min()), float(dist[mask].max())),
        n_points=n,
        fit_residual=float(np.sqrt(np.mean(resid**2))),
    )


# ---------------------------------------------------------------------------
# phase-plane trajectory checks


@dataclass(frozen=True)
class TrajectoryLemmaReport:
    """Outcome of the nullcline-comparison checks in the (n, F) chart."""

    branch: str
    n_range: tuple[float, float]
    max_margin: float
    origin_gap: float
    slope_at_origin: float
    points_checked: int


def lemma_tau_threshold(b: float) -> float:
    """Damping threshold 1/(3 sqrt(b^3 + b)) under which the comparisons hold."""
    if not b > 1.0:
        raise ValueError("threshold defined for constant doping b > 1")
    return 1.0 / (3.0 * math.sqrt(b) * math.hypot(b, 1.0))  # sqrt(b^3 + b), overflow-free


def check_trajectory_lemmas(p: ModelParams, trajectory) -> TrajectoryLemmaReport:
    """Check a phase-plane trajectory against the Xi nullcline bounds.

    `trajectory` is any object whose ``rhos`` and ``es`` hold one branch's
    densities and fields, ordered along it: an integrator segment, or the
    rows of a solution on one side of its sonic point.  In the chart
    n = rho - 1, F = E - 1/(tau rho), positive trajectories (n >= 0) must
    start at the origin and stay below (3/2) Xi(n); negative ones must end
    at the origin and stay above (3/2) Xi(n).  For positive
    trajectories the slope dF/dn at the origin is fitted and reported; it
    should be twice the C1 transition slope.
    """
    if not p.doping.is_constant:
        raise NotConstantDoping("trajectory comparisons need constant doping")
    b = p.doping.constant_value
    if not b > 1.0:
        raise PreconditionViolation(
            "trajectory comparisons are stated for constant doping b > 1"
        )
    thresh = lemma_tau_threshold(b)
    if not p.tau < thresh:
        raise PreconditionViolation(
            f"tau = {p.tau:g} is not below the comparison threshold "
            f"1/(3 sqrt(b^3 + b)) = {thresh:.6f}"
        )

    n = trajectory.rhos - 1.0
    f = trajectory.es - 1.0 / (p.tau * trajectory.rhos)
    interior = np.abs(n) > 1e-12
    if not np.any(interior):
        raise ValueError("trajectory never leaves the sonic line")
    pos_share = np.count_nonzero(n[interior] > 0) / np.count_nonzero(interior)
    if 0.0 < pos_share < 1.0:
        raise ValueError("trajectory mixes n > 0 and n < 0; pass one branch")
    branch = "positive" if pos_share == 1.0 else "negative"

    xi = xi_curve(n[interior], p)
    fi = f[interior]
    tol = 1e-8 * (1.0 + np.abs(xi))
    if branch == "positive":
        margin = fi - 1.5 * xi
    else:
        margin = 1.5 * xi - fi
    worst = int(np.argmax(margin))
    if margin[worst] > tol[worst]:
        raise LemmaViolation(
            f"{branch} trajectory violates the (3/2) Xi bound",
            diagnostics={
                "n": float(n[interior][worst]),
                "F": float(fi[worst]),
                "xi": float(xi[worst]),
                "margin": float(margin[worst]),
            },
        )

    # positive branches emanate from the origin, negative ones sink into it
    idx = 0 if branch == "positive" else -1
    origin_gap = float(math.hypot(n[idx], f[idx]))
    if origin_gap > 1e-4:
        raise LemmaViolation(
            f"{branch} trajectory does not meet the origin: gap {origin_gap:.3e}",
            diagnostics={"n": float(n[idx]), "F": float(f[idx])},
        )

    slope = math.nan
    if branch == "positive":
        # F(n) is two-valued over n (out and back along the trajectory);
        # fit only the strictly rising piece adjacent to the origin
        cap = min(0.05, 0.8 * float(n.max()))
        upto = 1
        while upto < n.size and n[upto] > n[upto - 1] and n[upto] <= cap:
            upto += 1
        if upto >= 8:
            coeffs = np.polynomial.polynomial.polyfit(n[:upto], f[:upto], 3)
            slope = float(coeffs[1])

    return TrajectoryLemmaReport(
        branch=branch,
        n_range=(float(n.min()), float(n.max())),
        max_margin=float(margin[worst]),
        origin_gap=origin_gap,
        slope_at_origin=slope,
        points_checked=int(np.count_nonzero(interior)),
    )

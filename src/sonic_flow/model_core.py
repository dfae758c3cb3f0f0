"""Model data types and closed-form quantities for steady Euler-Poisson flow.

The model is the steady 1-D hydrodynamic semiconductor system in normalised
form (momentum J = 1, temperature such that the sonic density is 1):

    (rho^(gamma-1) - rho^-2) rho_x = rho*E - 1/tau,
    E_x = rho - b(x),            x in [0, 1],

with sonic boundary conditions rho(0) = rho(1) = 1.  ``gamma = 1`` is the
isothermal case.  :func:`vector_field` is the one definition of this field,
rescaled by the coefficient of rho_x so that it stays regular across the
sonic line; integration lives in :mod:`sonic_flow.integrator`.  The rest
are doping profiles, parameter and state types, and the closed-form
quantities of the theory: the critical point, the Xi nullcline of the
(n, F) chart with n = rho - 1 and F = E - 1/(tau*rho), the shock jump,
the C^1 transition slope and the slow manifold of the node (1, 1/tau), on
which C^1 transitions land.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ComplexSlope,
    EntropyViolation,
    NotConstantDoping,
    SonicDoping,
)

# half-width of the node (1, 1/tau), on |rho - 1| and on |rho*E - 1/tau|:
# a sonic launch or arrival there is tangential, with no square-root branch
CRITICAL_GUARD = 1e-6
SONIC_DOPING_TOL = 1e-12


# ---------------------------------------------------------------------------
# doping profiles


def as_number(value) -> float:
    """`value` as a float; TypeError unless it is a real number (a bool or a
    numeric string is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, not {value!r}")
    return float(value)


def _finite(values) -> list[float]:
    values = [as_number(v) for v in values]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("doping parameters must be finite")
    return values


class DopingProfile:
    """Background charge density b(x) on [0, 1].

    Construct through one of the factory methods: :meth:`constant`,
    :meth:`sine_perturbed`, :meth:`piecewise_constant`, :meth:`tabulated`.
    Profiles are callable and vectorised: a scalar x gives a Python float,
    an array x an array.  Every stored number is finite.  ``b_lower`` and
    ``b_upper`` cache the essential bounds used by the regime classifier.
    """

    def __init__(self, kind: str, params: dict, b_lower: float, b_upper: float):
        if b_lower <= 0:
            raise ValueError("doping must be strictly positive")
        if b_lower > b_upper:
            raise ValueError("lower doping bound exceeds upper bound")
        self.kind = kind
        self.params = params
        self.b_lower = float(b_lower)
        self.b_upper = float(b_upper)

    # -- factories ----------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "DopingProfile":
        (value,) = _finite([value])
        return cls("constant", {"value": value}, value, value)

    @classmethod
    def sine_perturbed(cls, base: float, amplitude: float, frequency: float = 1.0) -> "DopingProfile":
        """b(x) = base + amplitude * sin(2*pi*frequency*x).

        The bounds are exact: b at both ends of [0, 1] and at the extrema
        sin = +-1 that the phase 2*pi*frequency*x passes strictly inside.
        """
        base, amplitude, frequency = _finite([base, amplitude, frequency])
        end = 2.0 * math.pi * frequency
        if not math.isfinite(end):
            raise ValueError("the sine phase 2*pi*frequency must be finite")
        lo, hi = min(0.0, end), max(0.0, end)
        # sin peaks at pi/2 + k*pi with sign (-1)^k; the first two such k
        # inside (lo, hi) give every peak value the phase reaches
        ks = range(math.floor((lo - 0.5 * math.pi) / math.pi) + 1,
                   math.ceil((hi - 0.5 * math.pi) / math.pi))
        vals = [base, base + amplitude * math.sin(end)]
        vals += [base + amplitude * (-1.0 if k % 2 else 1.0) for k in ks[:2]]
        return cls(
            "sine",
            {"base": base, "amplitude": amplitude, "frequency": frequency},
            min(vals),
            max(vals),
        )

    @classmethod
    def piecewise_constant(cls, breakpoints, values) -> "DopingProfile":
        breakpoints = _finite(breakpoints)
        values = _finite(values)
        if len(values) != len(breakpoints) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if any(not 0.0 < p < 1.0 for p in breakpoints):
            raise ValueError("breakpoints must lie strictly inside (0, 1)")
        if sorted(breakpoints) != breakpoints:
            raise ValueError("breakpoints must be sorted")
        return cls(
            "piecewise",
            {"breakpoints": breakpoints, "values": values},
            min(values),
            max(values),
        )

    @classmethod
    def tabulated(cls, knots, values) -> "DopingProfile":
        """Piecewise-linear interpolation of (knots, values); knots span [0, 1]."""
        knots = _finite(knots)
        values = _finite(values)
        if len(knots) != len(values) or len(knots) < 2:
            raise ValueError("knots and values must match and have length >= 2")
        if sorted(knots) != knots:
            raise ValueError("knots must be sorted")
        if knots[0] != 0.0 or knots[-1] != 1.0:
            raise ValueError("knots must span [0, 1]")
        return cls(
            "tabulated",
            {"knots": knots, "values": values},
            min(values),
            max(values),
        )

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x):
        if self.kind == "constant":
            v = self.params["value"]
            if np.isscalar(x):
                return v
            return np.full_like(np.asarray(x, dtype=float), v)
        if self.kind == "sine":
            p = self.params
            if np.isscalar(x):
                return p["base"] + p["amplitude"] * math.sin(2.0 * math.pi * p["frequency"] * x)
            return p["base"] + p["amplitude"] * np.sin(2.0 * math.pi * p["frequency"] * np.asarray(x, dtype=float))
        if self.kind == "piecewise":
            p = self.params
            idx = np.searchsorted(p["breakpoints"], np.asarray(x, dtype=float), side="right")
            out = np.asarray(p["values"], dtype=float)[idx]
            return float(out) if np.isscalar(x) else out
        if self.kind == "tabulated":
            p = self.params
            out = np.interp(np.asarray(x, dtype=float), p["knots"], p["values"])
            return float(out) if np.isscalar(x) else out
        raise ValueError(f"unknown doping kind {self.kind!r}")

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """The x where b jumps; b there takes the value of the piece above."""
        if self.kind == "piecewise":
            return tuple(self.params["breakpoints"])
        return ()

    # -- predicates ----------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant" or self.b_upper - self.b_lower <= 1e-15

    @property
    def constant_value(self) -> float:
        if not self.is_constant:
            raise NotConstantDoping("doping profile is not constant")
        if self.kind == "constant":
            return self.params["value"]
        return 0.5 * (self.b_lower + self.b_upper)

    @property
    def is_sonic(self) -> bool:
        """True when b(x) == 1 everywhere, to within 1e-12."""
        return abs(self.b_lower - 1.0) <= SONIC_DOPING_TOL and abs(self.b_upper - 1.0) <= SONIC_DOPING_TOL

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        return {"type": self.kind, **self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "DopingProfile":
        kind = data.get("type")
        if kind == "constant":
            return cls.constant(data["value"])
        if kind == "sine":
            return cls.sine_perturbed(data["base"], data["amplitude"], data.get("frequency", 1.0))
        if kind == "piecewise":
            return cls.piecewise_constant(data["breakpoints"], data["values"])
        if kind == "tabulated":
            return cls.tabulated(data["knots"], data["values"])
        raise ValueError(f"unknown doping type {kind!r}")

    def __repr__(self) -> str:
        return f"DopingProfile({self.kind}, {self.params})"


# ---------------------------------------------------------------------------
# parameter bundle and state types


@dataclass(frozen=True)
class ModelParams:
    """Relaxation time, doping profile and adiabatic exponent."""

    tau: float
    doping: DopingProfile
    gamma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:  # NaN included
            raise ValueError("tau must be positive and finite")
        if not 1.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 1")
        if not isinstance(self.doping, DopingProfile):
            raise TypeError("doping must be a DopingProfile")

    @property
    def inv_tau(self) -> float:
        return 1.0 / self.tau


def regime(rho: float, tol: float = 1e-9) -> str:
    """Flow regime at density rho: sonic within tol of 1, else sub- or supersonic."""
    if abs(rho - 1.0) <= tol:
        return "sonic"
    return "subsonic" if rho > 1.0 else "supersonic"


@dataclass(frozen=True)
class State:
    """Point on a trajectory in the primal chart: position, density, field."""

    x: float
    rho: float
    e: float

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("density must be positive")


@dataclass(frozen=True)
class ShockData:
    """Entropy jump data: rho_l < 1 < rho_r with rho_l*rho_r = 1, E continuous."""

    x0: float
    rho_l: float
    rho_r: float
    e_jump: float

    def __post_init__(self):
        if not 0.0 < self.x0 < 1.0:
            raise ValueError("shock position must be interior")
        if not 0.0 < self.rho_l < 1.0 < self.rho_r:
            raise EntropyViolation("shock must jump from supersonic to subsonic")
        if abs(self.rho_l * self.rho_r - 1.0) > 1e-12:
            raise ValueError("jump densities must be reciprocal")
        momentum = self.rho_l + 1.0 / self.rho_l - (self.rho_r + 1.0 / self.rho_r)
        if abs(momentum) > 1e-12:
            raise ValueError("momentum flux not conserved across jump")


# ---------------------------------------------------------------------------
# right-hand sides


def sonic_coefficient(rho: float, gamma: float = 1.0):
    """Coefficient rho^(gamma-1) - rho^-2 multiplying rho_x; vanishes at rho = 1."""
    rho = np.asarray(rho, dtype=float) if not np.isscalar(rho) else rho
    if gamma == 1.0:
        return 1.0 - rho ** -2
    return rho ** (gamma - 1.0) - rho ** -2


def vector_field(p: ModelParams):
    """The field ``f(s, x, rho, E)`` of the state in s, ds = dx / c(rho), on plain floats.

    With c(rho) = rho^(gamma-1) - rho^-2 it returns
    ``(c, rho*E - 1/tau, (rho - b(x)) * c)``.  Dividing the x-form of the
    system by c gives the slopes ``d rho/dx`` and ``dE/dx``; multiplying
    through by c is what keeps this field regular on the sonic line, where
    those slopes blow up.  The field does not depend on s.  It does not
    guard rho <= 0: there float arithmetic raises (division by zero, or
    ``math.pow`` where ``**`` would return a complex number), and the
    integrator's kernel treats the raise as a failed trial step.
    """
    inv_tau = p.inv_tau
    gamma = p.gamma
    if p.doping.is_constant:
        bc = p.doping.constant_value

        def b(x):
            return bc

    elif p.doping.kind == "sine":  # __call__'s scalar sum, in its order, minus its dispatch
        base, amp, f = (p.doping.params[k] for k in ("base", "amplitude", "frequency"))
        w = 2.0 * math.pi * f

        def b(x):
            return base + amp * math.sin(w * x)

    else:
        b = p.doping

    if gamma == 1.0 and p.doping.is_constant:  # the constant inline, without a call

        def field(s, x, r, e):
            coef = 1.0 - 1.0 / (r * r)
            return coef, r * e - inv_tau, (r - bc) * coef

    elif gamma == 1.0:

        def field(s, x, r, e):
            coef = 1.0 - 1.0 / (r * r)
            return coef, r * e - inv_tau, (r - b(x)) * coef

    else:

        def field(s, x, r, e):
            coef = math.pow(r, gamma - 1.0) - math.pow(r, -2.0)
            return coef, r * e - inv_tau, (r - b(x)) * coef

    return field


# ---------------------------------------------------------------------------
# critical point of the autonomous system


@dataclass(frozen=True)
class CriticalPointInfo:
    point: tuple[float, float]             # (rho, E) = (b, 1/(tau*b))
    eigenvalues: tuple[complex, complex]
    kind: str                              # saddle | stable_focus | stable_node


def critical_point_analysis(p: ModelParams) -> CriticalPointInfo:
    """Locate and classify the interior equilibrium (b, 1/(tau*b)).

    The linearisation has characteristic equation

        lambda^2 - b/(tau (b^2-1)) lambda - b^3/(b^2-1) = 0,

    a saddle for b > 1 and a stable focus or node for b < 1.
    """
    if not p.doping.is_constant:
        raise NotConstantDoping("critical point analysis needs constant doping")
    b = p.doping.constant_value
    if abs(b - 1.0) <= SONIC_DOPING_TOL:
        raise SonicDoping("critical point merges with the sonic line at b = 1")
    trace = b / (p.tau * (b * b - 1.0))
    det = -b ** 3 / (b * b - 1.0)
    disc = trace * trace - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        lam = (0.5 * (trace + root), 0.5 * (trace - root))
        kind = "saddle" if det < 0.0 else "stable_node"
        eigs = (complex(lam[0]), complex(lam[1]))
    else:
        root = math.sqrt(-disc)
        eigs = (complex(0.5 * trace, 0.5 * root), complex(0.5 * trace, -0.5 * root))
        kind = "stable_focus"
    return CriticalPointInfo((b, 1.0 / (p.tau * b)), eigs, kind)


# ---------------------------------------------------------------------------
# trajectory geometry in the (n, F) chart


def xi_curve(n, p: ModelParams):
    """Nullcline Xi(n) = -tau (n+1-b)(2+n) n / (1+n) of the F-equation.

    Zeros at n = 0 and n = b - 1; strictly concave for b > 0.  Constant
    doping only.
    """
    if not p.doping.is_constant:
        raise NotConstantDoping("Xi is defined for constant doping")
    b = p.doping.constant_value
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr <= -1.0):
        raise ValueError("n must exceed -1")
    out = -p.tau * (n_arr + 1.0 - b) * (2.0 + n_arr) * n_arr / (1.0 + n_arr)
    return float(out) if np.isscalar(n) else out


def rh_jump(rho_l: float, e_l: float) -> tuple[float, float]:
    """Rankine-Hugoniot jump from a supersonic left state: (1/rho_l, e_l).

    Conserves the momentum flux rho + 1/rho and the field; admissible only
    for 0 < rho_l < 1 (entropy increases across the jump).
    """
    if not 0.0 < rho_l < 1.0:
        raise EntropyViolation(f"left density {rho_l} must lie in (0, 1)")
    return 1.0 / rho_l, e_l


def c1_transition_slope(b: float, tau: float) -> float:
    """Density slope of a C^1 sonic transition for constant doping b > 1.

    rho_x(x0) = (1/tau - sqrt(1/tau^2 - 8(b-1))) / 4; real only when
    tau <= 1/sqrt(8(b-1)).
    """
    if not b > 1.0:
        raise ValueError("C^1 transitions require constant doping b > 1")
    disc = tau ** -2 - 8.0 * (b - 1.0)
    if disc < 0.0:
        raise ComplexSlope(
            f"1/tau^2 = {tau**-2:.6g} < 8(b-1) = {8*(b-1):.6g}: no real slope"
        )
    return 0.25 * (1.0 / tau - math.sqrt(disc))


# terms of the slow-manifold series; the node's eigenvalue ratio exceeds 40
# throughout the C^1 regime, so no term up to this order resonates
_MANIFOLD_ORDER = 16


@lru_cache(maxsize=None)
def _gauss_legendre(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def _series(n, c):
    """sum c[k] n^k, by numpy's ``polyval`` loop, to its floats, on a tuple `c`."""
    y = c[-1] + n * 0
    for ck in c[-2::-1]:
        y = ck + y * n
    return y


@dataclass(frozen=True)
class SlowManifold:
    """The slow manifold E = 1/tau + phi(n), n = rho - 1, of the node (1, 1/tau).

    With f = E - 1/tau (not the F of the (n, F) chart), an arc near the node
    obeys dx/dn = c(n) / P and df/dn = (n + 1 - b) c(n) / P, where
    c(n) = 1 - (1+n)^-2 and P = (1+n) f + n/tau = rho E - 1/tau.  The node's
    eigenvalues in the field of `vector_field` are lam_s < lam_f, with
    lam_s + lam_f = 1/tau and lam_s lam_f = 2 (b - 1); an arc that lands on
    the node, as a C^1 transition does, joins the curve f = phi(n) tangent
    to the slow direction with an offset that decays like |n|^mu,
    mu = lam_f / lam_s.  phi = sum a_k n^k solves the invariance equation
    phi' P(n, phi) = (n + 1 - b) c(n) order by order: a_1 = lam_s - 1/tau and

        a_k = (Q_k - a_1 a_(k-1) - sum_(j=2)^(k-1) j a_j p_(k+1-j)) / (lam_s (k - mu)),

    with Q_k = (1 - b) c_k + c_(k-1), c_k = (-1)^(k+1) (k + 1), p_1 = lam_s
    and p_i = a_i + a_(i-1), the coefficients of P(n, phi(n)) / n, which
    ``p[i - 1]`` holds.
    """

    mu: float
    a: tuple[float, ...]  # a[k] multiplies n^k
    p: tuple[float, ...]  # p[j] multiplies n^j in P(n, phi(n)) / n

    def phi(self, n):
        return _series(n, self.a)

    def dx_dn(self, n):
        """c(n) / P(n, phi(n)), regular at n = 0, where it is 2 / lam_s."""
        return (2.0 + n) / ((1.0 + n) ** 2 * _series(n, self.p))

    def x_offsets(self, n_b, parts=1, nodes=40):
        """x - x(n_b) along the manifold at n = n_b (1 - i/parts), i = 1..parts.

        Gauss-Legendre quadrature of `dx_dn` with ``nodes`` points on each of
        ``parts`` equal pieces of [n_b, 0]; the last offset closes the landing.
        """
        g, w = _gauss_legendre(nodes)
        h = -n_b / parts
        n = (n_b + h * np.arange(parts))[:, None] + 0.5 * h * (g + 1.0)
        return np.cumsum(0.5 * h * (self.dx_dn(n) @ w))


def node_slow_manifold(b: float, tau: float) -> SlowManifold:
    """The node's `SlowManifold`, its series cut after n^_MANIFOLD_ORDER.

    ValueError unless b > 1 and the eigenvalue ratio mu exceeds
    _MANIFOLD_ORDER + 1, which it does wherever tau < tau0_bound(b).
    """
    if not b > 1.0:
        raise ValueError("the node is a C^1 landing only for constant doping b > 1")
    disc = tau**-2 - 8.0 * (b - 1.0)
    if disc < 0.0:
        raise ComplexSlope(f"1/tau^2 = {tau**-2:.6g} < 8(b-1) = {8*(b-1):.6g}: no real slope")
    lam_f = 0.5 * (1.0 / tau + math.sqrt(disc))
    lam_s = 2.0 * (b - 1.0) / lam_f  # the product, without the difference's cancellation
    mu = lam_f / lam_s
    if not mu > _MANIFOLD_ORDER + 1:
        raise ValueError(f"eigenvalue ratio {mu:.6g} resonates with the series")
    c = [0.0] + [(-1.0) ** (k + 1) * (k + 1) for k in range(1, _MANIFOLD_ORDER + 1)]
    a, p = [0.0, lam_s - 1.0 / tau], [0.0, lam_s]
    for k in range(2, _MANIFOLD_ORDER + 1):
        rest = (1.0 - b) * c[k] + c[k - 1] - a[1] * a[k - 1]
        rest -= sum(j * a[j] * p[k + 1 - j] for j in range(2, k))
        a.append(rest / (lam_s * (k - mu)))
        p.append(a[k] + a[k - 1])
    p.append(a[_MANIFOLD_ORDER])  # P = (1 + n) phi + n/tau of the cut series, exactly
    return SlowManifold(mu, tuple(a), tuple(p[1:]))


def tau0_bound(b: float) -> float:
    """Smallness threshold tau_0(b) under which the C^1 transonic regime holds.

    Minimum of 1/(3 sqrt(b^3+b)) (upper trajectory barrier), 1/(4 sqrt(b-1))
    (real slope with margin) and 1/(3 sqrt(b)) (lower barrier).
    """
    if not b > 1.0:
        raise ValueError("tau0 bound is defined for b > 1")
    terms = [1.0 / (3.0 * math.sqrt(b ** 3 + b)), 1.0 / (3.0 * math.sqrt(b))]
    terms.append(1.0 / (4.0 * math.sqrt(b - 1.0)))
    return min(terms)


# ---------------------------------------------------------------------------
# frictionless (tau = infinity) energy relation, used to seed shock shooting


def undamped_energy_potential(rho, b: float):
    """Potential Psi with E^2/2 - Psi(rho) conserved when tau = infinity.

    Psi(rho) = (2 rho - b)/(2 rho^2) + rho - b log(rho), the isothermal
    (gamma = 1) relation; it does not hold at any other gamma.
    """
    r = np.asarray(rho, dtype=float)
    out = (2.0 * r - b) / (2.0 * r * r) + r - b * np.log(r)
    return float(out) if np.isscalar(rho) else out


def supersonic_min_density_bracket(length: float, b_lower: float) -> tuple[float, float]:
    """Bracket [beta, gamma] for the minimum density of a supersonic arc.

    beta(L) = 1/(2 + sqrt(2 sqrt(2) b) L) and
    gamma(L) = 1 - L^2 / (2^4 (2 + sqrt(2 sqrt(2) b) L)^3), valid for the
    isothermal (gamma = 1) frictionless profile of span L and sharp enough
    for large tau.
    """
    s = math.sqrt(2.0 * math.sqrt(2.0) * b_lower) * length
    beta = 1.0 / (2.0 + s)
    gamma_up = 1.0 - length ** 2 / (16.0 * (2.0 + s) ** 3)
    return beta, gamma_up

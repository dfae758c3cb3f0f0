"""Solution container and grid utilities shared by the solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model_core import ShockData

BOUNDARY_TOL = 1e-6

SOLUTION_KINDS = (
    "sonic",
    "subsonic",
    "supersonic",
    "transonic_shock",
    "c1_transonic",
)


@dataclass(frozen=True)
class TransitionData:
    """Location and one-sided slope of a smooth sonic transition."""

    x0: float
    slope: float

    def __post_init__(self):
        if not 0.0 < self.x0 < 1.0:
            raise ValueError("transition must be interior")
        if not self.slope > 0.0:  # NaN included
            raise ValueError("transition slope must be positive")


@dataclass
class Solution:
    """A boundary-value solution on [0, 1] with sonic endpoints.

    `x` is strictly increasing except for a single duplicated abscissa at a
    shock, where the two rows carry the pre- and post-jump states.  The
    boundary densities must equal 1 within BOUNDARY_TOL.  `levels` holds an
    elliptic solve's converged profiles at its last two relaxation currents,
    the start of a neighbouring solve; no artifact writer serializes it.
    """

    kind: str
    x: np.ndarray
    rho: np.ndarray
    e: np.ndarray
    shock: ShockData | None = None
    transition: TransitionData | None = None
    diagnostics: dict = field(default_factory=dict)
    levels: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in SOLUTION_KINDS:
            raise ValueError(f"unknown solution kind: {self.kind}")
        self.x = np.asarray(self.x, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        self.e = np.asarray(self.e, dtype=float)
        if not (len(self.x) == len(self.rho) == len(self.e)):
            raise ValueError("solution arrays must share a length")
        if not np.isfinite([self.x, self.rho, self.e]).all():
            raise ValueError("solution arrays must be finite")
        if len(self.x) < 2:
            raise ValueError("a solution needs at least two grid points")

        steps = np.diff(self.x)
        flat = np.nonzero(steps == 0.0)[0]
        if np.any(steps < 0.0):
            raise ValueError("solution grid must be increasing")
        if self.kind == "transonic_shock":
            if self.shock is None:
                raise ValueError("shock solutions must carry ShockData")
            if len(flat) != 1:
                raise ValueError("shock solutions have exactly one double point")
            k = int(flat[0])
            if not (self.rho[k] < 1.0 < self.rho[k + 1]):
                raise ValueError("shock double point must jump upward through 1")
        else:
            if len(flat):
                raise ValueError("only shock solutions may repeat an abscissa")
            if self.shock is not None:
                raise ValueError("only shock solutions carry ShockData")
        if self.kind == "c1_transonic" and self.transition is None:
            raise ValueError("smooth transonic solutions must carry TransitionData")
        if self.kind != "c1_transonic" and self.transition is not None:
            raise ValueError("only smooth transonic solutions carry TransitionData")

        if abs(self.x[0]) > BOUNDARY_TOL or abs(self.x[-1] - 1.0) > BOUNDARY_TOL:
            raise ValueError("solution grid must cover [0, 1]")
        if abs(self.rho[0] - 1.0) > BOUNDARY_TOL or abs(self.rho[-1] - 1.0) > BOUNDARY_TOL:
            raise ValueError("boundary densities must be sonic")

        margin = 1e-8
        if self.kind == "subsonic" and self.rho.min() < 1.0 - margin:
            raise ValueError("subsonic solutions stay at or above the sonic line")
        if self.kind == "supersonic" and self.rho.max() > 1.0 + margin:
            raise ValueError("supersonic solutions stay at or below the sonic line")
        if self.kind == "sonic" and np.abs(self.rho - 1.0).max() > 1e-12:
            raise ValueError("the sonic solution is identically 1")

    @property
    def shock_index(self) -> int | None:
        """Index of the pre-jump row at the shock double point."""
        if self.kind != "transonic_shock":
            return None
        return int(np.nonzero(np.diff(self.x) == 0.0)[0][0])

    def sup_distance(self, other: "Solution", samples: int = 4001) -> float:
        """Sup-norm density gap on a common dense grid."""
        lo = max(self.x[0], other.x[0])
        hi = min(self.x[-1], other.x[-1])
        xq = np.linspace(lo, hi, samples)
        gap = np.interp(xq, self.x, self.rho) - np.interp(xq, other.x, other.rho)
        return float(np.abs(gap).max())


_H_MIN = 1e-7
_RATIO = 0.9
_H_CAP = 5e-4
_MIN_CELLS = 512


def graded_grid() -> np.ndarray:
    """Nodes on [0, 1], geometrically refined toward both endpoints.

    Cells grow from _H_MIN by 1/_RATIO per step until _H_CAP, then the
    interior is filled uniformly, to at least _MIN_CELLS cells.  The pure
    geometric progression saturates long before covering the interval, hence
    the cap; without it the interior cells would be far too coarse for
    pointwise residual checks.  The floor stays at 1e-7: finite-volume fluxes
    divide density differences by the cell width, so much smaller cells would
    amplify float64 roundoff past any useful residual tolerance.
    """
    edge = [0.0]
    h = _H_MIN
    while h < _H_CAP:
        edge.append(edge[-1] + h)
        h /= _RATIO
    zone = edge[-1]
    width = 1.0 - 2.0 * zone
    n_mid = max(int(np.ceil(width / _H_CAP)), _MIN_CELLS - 2 * (len(edge) - 1))
    mid = np.linspace(zone, 1.0 - zone, n_mid + 1)
    left = np.array(edge)
    right = 1.0 - left[::-1]
    return np.concatenate([left, mid[1:-1], right])


def grid_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second-order first derivative on a nonuniform grid."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 3:
        raise ValueError("need at least three points")
    d = np.empty(n)
    hl = x[1:-1] - x[:-2]
    hr = x[2:] - x[1:-1]
    d[1:-1] = (
        hl * hl * y[2:] - hr * hr * y[:-2] + (hr * hr - hl * hl) * y[1:-1]
    ) / (hl * hr * (hl + hr))
    # one-sided 3-point endpoint formulas
    h0, h1 = x[1] - x[0], x[2] - x[1]
    d[0] = (
        -(2 * h0 + h1) / (h0 * (h0 + h1)) * y[0]
        + (h0 + h1) / (h0 * h1) * y[1]
        - h0 / (h1 * (h0 + h1)) * y[2]
    )
    hm, hn = x[-2] - x[-3], x[-1] - x[-2]
    d[-1] = (
        hn / (hm * (hm + hn)) * y[-3]
        - (hm + hn) / (hm * hn) * y[-2]
        + (2 * hn + hm) / (hn * (hm + hn)) * y[-1]
    )
    return d

"""Minimal deterministic SVG emission.

Hand-rolled polyline plots with a fixed 800x600 viewBox: no timestamps, no
random ids, no plotting dependency, so identical inputs give identical
bytes.  Pixel coordinates are written with two decimals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model_core import ModelParams, critical_point_analysis, xi_curve
from .solution import Solution

WIDTH = 800
HEIGHT = 600
MAX_POLYLINE_POINTS = 900

_STYLE = (
    "text { font-family: monospace; font-size: 12px; fill: #333; } "
    ".axis { stroke: #888; fill: none; stroke-width: 1; } "
    ".ref { stroke: #bbb; stroke-dasharray: 4 3; fill: none; stroke-width: 1; }"
)


def _fmt(v: float) -> str:
    return format(float(v), ".2f")


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        span = abs(lo) if lo else 1.0
        return lo - 0.5 * span - 1e-9, hi + 0.5 * span + 1e-9
    pad = 0.06 * (hi - lo)
    return lo - pad, hi + pad


def _decimate(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(xs)
    if n <= MAX_POLYLINE_POINTS:
        return xs, ys
    step = int(np.ceil(n / MAX_POLYLINE_POINTS))
    idx = np.arange(0, n, step)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return xs[idx], ys[idx]


@dataclass(frozen=True)
class Frame:
    """Affine map from a data rectangle to a pixel rectangle (y flipped)."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    left: float
    top: float
    width: float
    height: float

    def px(self, x: float) -> float:
        return self.left + (x - self.x_lo) / (self.x_hi - self.x_lo) * self.width

    def py(self, y: float) -> float:
        return self.top + (self.y_hi - y) / (self.y_hi - self.y_lo) * self.height

    def polyline(self, xs, ys, stroke: str, stroke_width: float = 1.5) -> str:
        xs, ys = _decimate(np.asarray(xs, float), np.asarray(ys, float))
        # px and py map whole arrays with the operations they apply to one point
        pts = " ".join(
            f"{x:.2f},{y:.2f}" for x, y in zip(self.px(xs).tolist(), self.py(ys).tolist())
        )
        return (
            f'<polyline fill="none" stroke="{stroke}" '
            f'stroke-width="{stroke_width:g}" points="{pts}"/>'
        )

    def hline(self, y: float) -> str:
        return (
            f'<line class="ref" x1="{_fmt(self.left)}" y1="{_fmt(self.py(y))}" '
            f'x2="{_fmt(self.left + self.width)}" y2="{_fmt(self.py(y))}"/>'
        )

    def vline(self, x: float) -> str:
        return (
            f'<line class="ref" x1="{_fmt(self.px(x))}" y1="{_fmt(self.top)}" '
            f'x2="{_fmt(self.px(x))}" y2="{_fmt(self.top + self.height)}"/>'
        )

    def border(self) -> str:
        return (
            f'<rect class="axis" x="{_fmt(self.left)}" y="{_fmt(self.top)}" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}"/>'
        )

    def corner_labels(self, x_name: str, y_name: str) -> list[str]:
        b = self.top + self.height
        return [
            f'<text x="{_fmt(self.left)}" y="{_fmt(b + 16)}">'
            f"{x_name}={self.x_lo:.4g}</text>",
            f'<text x="{_fmt(self.left + self.width - 80)}" y="{_fmt(b + 16)}">'
            f"{x_name}={self.x_hi:.4g}</text>",
            f'<text x="{_fmt(self.left)}" y="{_fmt(self.top - 6)}">'
            f"{y_name} in [{self.y_lo:.4g}, {self.y_hi:.4g}]</text>",
        ]


def _document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">'
        f"<style>{_STYLE}</style>"
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>'
    )
    return head + "".join(body) + "</svg>\n"


def render_profile(sol: Solution, title: str = "") -> str:
    """Stacked density and field panels; a shock shows as a vertical jump."""
    x, rho, e = sol.x, sol.rho, sol.e
    body: list[str] = []
    if title:
        body.append(f'<text x="60" y="20">{title}</text>')

    r_lo, r_hi = _pad_range(min(float(rho.min()), 1.0), max(float(rho.max()), 1.0))
    top = Frame(0.0, 1.0, r_lo, r_hi, 60, 40, 700, 230)
    body.append(top.border())
    body.append(top.hline(1.0))
    if sol.shock is not None:
        body.append(top.vline(sol.shock.x0))
    body.append(top.polyline(x, rho, "#1f4e9c", 1.8))
    body.extend(top.corner_labels("x", "rho"))

    e_lo, e_hi = _pad_range(float(e.min()), float(e.max()))
    bot = Frame(0.0, 1.0, e_lo, e_hi, 60, 330, 700, 230)
    body.append(bot.border())
    if sol.shock is not None:
        body.append(bot.vline(sol.shock.x0))
    body.append(bot.polyline(x, e, "#b0541f", 1.8))
    body.extend(bot.corner_labels("x", "E"))

    return _document(body)


def render_portrait(
    trajectories,
    p: ModelParams,
    mode: str = "primal",
    title: str = "",
) -> str:
    """Phase-plane fan with the critical point marked.

    ``trajectories`` is a sequence of (rhos, es) array pairs.  In
    ``transformed`` mode the axes are n = rho - 1 and F = E - 1/(tau rho),
    with the nullcline Xi(n) overlaid in red.
    """
    if mode not in ("primal", "transformed"):
        raise ValueError("mode must be 'primal' or 'transformed'")

    info = critical_point_analysis(p)
    (a_rho, a_e), kind = info.point, info.kind
    curves = []
    for rhos, es in trajectories:
        rhos = np.asarray(rhos, float)
        es = np.asarray(es, float)
        if mode == "primal":
            curves.append((rhos, es))
        else:
            curves.append((rhos - 1.0, es - 1.0 / (p.tau * rhos)))
    if mode == "primal":
        cx, cy = a_rho, a_e
        x_name, y_name = "rho", "E"
    else:
        cx, cy = a_rho - 1.0, a_e - 1.0 / (p.tau * a_rho)
        x_name, y_name = "n", "F"

    xs_all = np.concatenate([c[0] for c in curves]) if curves else np.array([cx])
    ys_all = np.concatenate([c[1] for c in curves]) if curves else np.array([cy])
    x_lo, x_hi = _pad_range(min(float(xs_all.min()), cx), max(float(xs_all.max()), cx))
    y_lo, y_hi = _pad_range(min(float(ys_all.min()), cy), max(float(ys_all.max()), cy))
    frame = Frame(x_lo, x_hi, y_lo, y_hi, 60, 40, 700, 510)

    body: list[str] = []
    if title:
        body.append(f'<text x="60" y="20">{title}</text>')
    body.append(frame.border())
    if mode == "primal":
        body.append(frame.vline(1.0))  # sonic line
    else:
        body.append(frame.vline(0.0))
        body.append(frame.hline(0.0))

    for us, vs in curves:
        body.append(frame.polyline(us, vs, "#1f4e9c", 1.2))

    if mode == "transformed":
        n_grid = np.linspace(max(x_lo, -0.95), x_hi, 257)
        body.append(frame.polyline(n_grid, xi_curve(n_grid, p), "#cc2222", 1.8))
        body.append(
            f'<text x="{_fmt(frame.left + frame.width - 150)}" '
            f'y="{_fmt(frame.top + 16)}" fill="#cc2222">red: Xi(n)</text>'
        )

    body.append(
        f'<circle cx="{_fmt(frame.px(cx))}" cy="{_fmt(frame.py(cy))}" r="4" '
        f'fill="#111"/>'
    )
    body.append(
        f'<text x="{_fmt(frame.px(cx) + 8)}" y="{_fmt(frame.py(cy) - 8)}">'
        f"{kind} ({a_rho:.4f}, {a_e:.4f})</text>"
    )
    body.extend(frame.corner_labels(x_name, y_name))
    return _document(body)

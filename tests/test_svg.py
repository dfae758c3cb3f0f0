"""SVG polylines against their per-point reference.

`Frame.polyline` maps the whole (decimated) arrays to pixels with the
operations `Frame.px` and `Frame.py` apply to one point, in the same order,
so the documents are byte-identical to mapping and formatting point by point.
"""

from __future__ import annotations

import numpy as np
import pytest

from sonic_flow import svg
from sonic_flow.svg import Frame, _decimate, _fmt, render_portrait, render_profile

from conftest import params


def _reference_polyline(frame, xs, ys, stroke, stroke_width=1.5):
    """The polyline as first written: one scalar px/py call per point."""
    xs, ys = _decimate(np.asarray(xs, float), np.asarray(ys, float))
    pts = " ".join(f"{_fmt(frame.px(x))},{_fmt(frame.py(y))}" for x, y in zip(xs, ys))
    return (
        f'<polyline fill="none" stroke="{stroke}" '
        f'stroke-width="{stroke_width:g}" points="{pts}"/>'
    )


@pytest.mark.parametrize("n", [1, 2, 900, 901, 5000])
def test_polyline_bytes_equal_the_reference(n):
    rng = np.random.default_rng(n)
    xs = np.sort(rng.uniform(-3.0, 7.0, n))
    ys = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    frame = Frame(-3.0, 7.0, float(ys.min()), float(ys.max()) + 1.0, 60, 40, 700, 230)
    assert frame.polyline(xs, ys, "#123456", 1.8) == _reference_polyline(
        frame, xs, ys, "#123456", 1.8
    )


def test_polyline_bytes_equal_the_reference_at_rounding_ties():
    # points whose pixels lie within roundoff of a two-decimal tie, so that a
    # mapping whose last bit differs prints a different digit
    frame = Frame(-0.37, 1.91, -2.3, 5.7, 60, 40, 700, 510)
    ticks = (np.arange(900) + 0.5) / 100.0
    xs = frame.x_lo + ticks / frame.width * (frame.x_hi - frame.x_lo)
    ys = frame.y_hi - ticks / frame.height * (frame.y_hi - frame.y_lo)
    assert frame.polyline(xs, ys, "#000") == _reference_polyline(frame, xs, ys, "#000")


@pytest.mark.parametrize("fixture", [
    "sonic_sol", "subsonic_sol", "elliptic_sol", "supersonic_sol", "shock_sol", "c1_sol",
])
def test_profiles_equal_the_reference(request, monkeypatch, fixture):
    sol = request.getfixturevalue(fixture)
    fast = render_profile(sol, title=fixture)
    monkeypatch.setattr(svg.Frame, "polyline", _reference_polyline)
    assert fast == render_profile(sol, title=fixture)


@pytest.mark.parametrize("mode", ["primal", "transformed"])
def test_portraits_equal_the_reference(monkeypatch, mode):
    t = np.linspace(0.0, 3.0, 2500)
    curves = [(1.0 + 0.5 * np.cos(t), 0.2 * np.sin(t)),
              (np.array([1.1, 1.3]), np.array([0.1, 0.4]))]
    p = params(0.5, 1.5)
    fast = render_portrait(curves, p, mode=mode)
    monkeypatch.setattr(svg.Frame, "polyline", _reference_polyline)
    assert fast == render_portrait(curves, p, mode=mode)

"""The invariants a `Solution` and its `TransitionData` refuse to break.

A returned solution is its own weak certificate: each case below breaks one
invariant of a valid base, and construction must refuse it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sonic_flow import ShockData, Solution, TransitionData

X = np.linspace(0.0, 1.0, 11)


def _base(kind):
    """Valid constructor arguments for a solution of `kind`."""
    bump = np.sin(np.pi * X)
    args = {"kind": kind, "x": X.copy(), "e": np.full(11, 0.5)}
    if kind == "sonic":
        args["rho"] = np.ones(11)
    elif kind == "subsonic":
        args["rho"] = 1.0 + 0.1 * bump
    elif kind == "supersonic":
        args["rho"] = 1.0 - 0.1 * bump
    elif kind == "c1_transonic":
        args["rho"] = 1.0 - 0.1 * np.sin(2.0 * np.pi * X)
        args["transition"] = TransitionData(x0=0.5, slope=0.1)
    else:  # a jump at x = 0.5 from 0.8 up to 1.25, the row repeated
        args["x"] = np.insert(X, 6, 0.5)
        args["rho"] = np.array([1.0, 0.95, 0.9, 0.85, 0.82, 0.8, 1.25, 1.2, 1.15, 1.1, 1.05, 1.0])
        args["e"] = np.full(12, 0.5)
        args["shock"] = ShockData(x0=0.5, rho_l=0.8, rho_r=1.25, e_jump=0.5)
    return args


def _set(name, value):
    return lambda args: args.update({name: value})


def _put(name, index, value):
    def change(args):
        args[name] = args[name].copy()
        args[name][index] = value
    return change


@pytest.mark.parametrize("kind", ["sonic", "subsonic", "supersonic", "c1_transonic",
                                  "transonic_shock"])
def test_every_base_is_valid(kind):
    sol = Solution(**_base(kind))
    assert sol.kind == kind
    assert sol.shock_index == (5 if kind == "transonic_shock" else None)


@pytest.mark.parametrize("kind, change, message", [
    ("subsonic", _set("kind", "warp"), "unknown solution kind"),
    ("subsonic", _set("e", np.full(10, 0.5)), "share a length"),
    ("subsonic", _put("rho", 5, math.nan), "must be finite"),
    ("subsonic", _put("x", 5, math.inf), "must be finite"),
    ("subsonic", _put("e", 5, -math.inf), "must be finite"),
    ("subsonic", lambda a: a.update(x=[0.0], rho=[1.0], e=[0.5]), "at least two"),
    ("subsonic", _put("x", 4, 0.25), "must be increasing"),
    ("transonic_shock", _set("shock", None), "must carry ShockData"),
    ("transonic_shock", _put("x", 3, 0.2), "exactly one double point"),
    ("transonic_shock", _put("rho", 5, 1.1), "jump upward through 1"),
    ("subsonic", _put("x", 5, 0.4), "only shock solutions may repeat"),
    ("subsonic", _set("shock", ShockData(x0=0.5, rho_l=0.8, rho_r=1.25, e_jump=0.5)),
     "only shock solutions carry ShockData"),
    ("c1_transonic", _set("transition", None), "must carry TransitionData"),
    ("subsonic", _set("transition", TransitionData(x0=0.5, slope=0.1)),
     "only smooth transonic solutions carry TransitionData"),
    ("subsonic", _put("x", 10, 0.95), "must cover"),
    ("subsonic", _put("x", 0, -1e-3), "must cover"),
    ("subsonic", _put("rho", 0, 1.1), "boundary densities must be sonic"),
    ("supersonic", _put("rho", -1, 0.9), "boundary densities must be sonic"),
    ("subsonic", _put("rho", 5, 0.99), "stay at or above the sonic line"),
    ("supersonic", _put("rho", 5, 1.01), "stay at or below the sonic line"),
    ("sonic", _put("rho", 5, 1.0 + 1e-9), "identically 1"),
], ids=["unknown_kind", "lengths_differ", "rho_nan", "x_infinite", "e_infinite",
        "one_point", "grid_decreasing", "shock_without_data", "shock_two_double_points",
        "shock_jump_downward", "repeat_without_shock", "shock_data_without_shock",
        "c1_without_transition", "transition_without_c1", "grid_short_of_1",
        "grid_before_0", "left_density_not_sonic", "right_density_not_sonic",
        "subsonic_dips_below_1", "supersonic_rises_above_1", "sonic_not_identically_1"])
def test_one_broken_invariant_is_refused(kind, change, message):
    args = _base(kind)
    change(args)
    with pytest.raises(ValueError, match=message):
        Solution(**args)


@pytest.mark.parametrize("x0, slope, message", [
    (0.0, 0.1, "interior"),
    (1.0, 0.1, "interior"),
    (math.nan, 0.1, "interior"),
    (0.5, 0.0, "positive"),
    (0.5, -0.1, "positive"),
    (0.5, math.nan, "positive"),
], ids=["x0_at_0", "x0_at_1", "x0_nan", "slope_zero", "slope_negative", "slope_nan"])
def test_transition_refuses_a_bad_point_or_slope(x0, slope, message):
    TransitionData(x0=0.5, slope=0.1)
    with pytest.raises(ValueError, match=message):
        TransitionData(x0=x0, slope=slope)

"""The relaxed elliptic Newton solve against its reference loop, and its
typed failures.

`_reference_elliptic` is the damped Newton loop as first written: three
flux-coefficient evaluations and two residual evaluations per iterate, and
the tridiagonal system solved through `scipy.linalg.solve_banded`.  A trial
step is accepted where the RMS of the scaled residual falls by 1 - lam / 4.
Each level starts from the sine guess, or from a given per-level start.
The solver evaluates each iterate once and calls LAPACK directly; both must
give the same bits, cold and continued from a neighbour's levels.  A
continued solve converges only the last two levels, the Richardson pair that
alone reaches its answer, so it must match the reference's answer and its
counts for those.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import solve_banded

from sonic_flow import (
    DopingProfile,
    ModelParams,
    NewtonDivergence,
    cli,
    residual_norm,
    solve_subsonic_elliptic,
    solve_subsonic_shooting,
)
from sonic_flow import solvers
from sonic_flow.solution import graded_grid, grid_derivative
from sonic_flow.solvers import DEFAULT_J_SCHEDULE, _j_schedule, _require_subsonic_regime


def _flux_coef(rho, j, gamma):
    return rho ** (gamma - 2.0) - j * j * rho ** (-3.0)


def _flux_coef_d(rho, j, gamma):
    return (gamma - 2.0) * rho ** (gamma - 3.0) + 3.0 * j * j * rho ** (-4.0)


def _residual(u, h, bx, j, p):
    um = 0.5 * (u[1:] + u[:-1])
    flux = _flux_coef(um, j, p.gamma) * np.diff(u) / h + j * p.inv_tau / um
    cell = 0.5 * (h[1:] + h[:-1])
    return flux[1:] - flux[:-1] - (u[1:-1] - bx[1:-1]) * cell


def _jacobian_bands(u, h, j, p):
    um = 0.5 * (u[1:] + u[:-1])
    du = np.diff(u)
    dcoef = _flux_coef_d(um, j, p.gamma)
    coef = _flux_coef(um, j, p.gamma)
    df_right = 0.5 * dcoef * du / h + coef / h - 0.5 * j * p.inv_tau / um**2
    df_left = 0.5 * dcoef * du / h - coef / h - 0.5 * j * p.inv_tau / um**2
    cell = 0.5 * (h[1:] + h[:-1])
    ab = np.zeros((3, len(u) - 2))
    ab[1, :] = df_left[1:] - df_right[:-1] - cell
    ab[0, 1:] = df_right[1:-1]
    ab[2, :-1] = -df_left[1:-1]
    return ab


def _rms(z):
    """The root mean square that the line search must lower, as the solver writes it."""
    return math.sqrt(z @ z / z.size)


def _reference_elliptic(p, j_schedule=DEFAULT_J_SCHEDULE, newton_tol=1e-10, max_newton=60,
                        start=None):
    """(x, rho, e, newton_iterations) of the reference loop; `start`, if
    given, holds the profile each level starts from."""
    _require_subsonic_regime(p)
    js = _j_schedule(j_schedule)
    x = graded_grid()
    h = np.diff(x)
    bx = p.doping(x)
    cell = 0.5 * (h[1:] + h[:-1])
    u = 1.0 + 0.5 * np.clip(bx - 1.0, 0.0, None) * np.sin(np.pi * x)
    u[0] = u[-1] = 1.0
    profiles, fields, newton_iters = [], [], []
    eps = np.finfo(float).eps
    for k, j in enumerate(js):
        if start is not None:
            u = np.array(start[k])
        converged = False
        for it in range(max_newton):
            r = _residual(u, h, bx, j, p)
            um = 0.5 * (u[1:] + u[:-1])
            d_over_h = _flux_coef(um, j, p.gamma) / h
            noise = 16.0 * eps * (d_over_h[:-1] + d_over_h[1:])
            scale = newton_tol * cell + noise
            if np.all(np.abs(r) <= scale):
                converged = True
                newton_iters.append(it)
                break
            step = solve_banded((1, 1), _jacobian_bands(u, h, j, p), -r)
            lam = 1.0
            norm0 = float(np.abs(r / scale).max())
            rms0 = _rms(r / scale)
            floor = max(0.5, j + 1e-8)
            while lam > 2.0**-24:
                trial = u.copy()
                trial[1:-1] = u[1:-1] + lam * step
                if trial[1:-1].min() > floor:
                    r_trial = _residual(trial, h, bx, j, p)
                    if _rms(r_trial / scale) < rms0 * (1.0 - 0.25 * lam):
                        u = trial
                        break
                lam *= 0.5
            else:
                raise NewtonDivergence(
                    "damped Newton stalled in the relaxed elliptic solve",
                    diagnostics={"j": j, "residual": norm0},
                )
        if not converged:
            raise NewtonDivergence(
                "relaxed elliptic solve did not converge",
                diagnostics={"j": j, "residual": float(np.abs(r / scale).max())},
            )
        rho_x = grid_derivative(x, u)
        profiles.append(u.copy())
        fields.append(_flux_coef(u, j, p.gamma) * rho_x + j * p.inv_tau / u)
    s_prev, s_last = 1.0 - js[-2], 1.0 - js[-1]
    w = s_last / (s_prev - s_last)
    rho_star = profiles[-1] + w * (profiles[-1] - profiles[-2])
    e_star = fields[-1] + w * (fields[-1] - fields[-2])
    rho_star[0] = rho_star[-1] = 1.0
    rho_star = np.maximum(rho_star, 1.0)
    return x, rho_star, e_star, newton_iters


DOPINGS = {
    "constant": DopingProfile.constant(1.5),
    "sine": DopingProfile.sine_perturbed(1.5, 0.2),
    "piecewise": DopingProfile.piecewise_constant([0.5], [1.5, 1.6]),
    "tabulated": DopingProfile.tabulated([0.0, 0.3, 1.0], [1.2, 1.9, 1.4]),
}


def _assert_matches_reference(p, start=None, **kwargs):
    levels = None
    if start is not None:
        # the reference solves every level; those before the pair, started
        # from the pair's first profile, do not reach its answer
        skipped = len(_j_schedule(kwargs.get("j_schedule", DEFAULT_J_SCHEDULE))) - 2
        levels = start.levels[:1] * skipped + start.levels
    x, rho, e, iters = _reference_elliptic(p, start=levels, **kwargs)
    sol = solve_subsonic_elliptic(p, start=start, **kwargs)
    assert np.array_equal(sol.x, x)
    assert np.array_equal(sol.rho, rho)
    assert np.array_equal(sol.e, e)
    solved = len(iters) if start is None else 2  # the levels a continued solve converges
    assert sol.diagnostics["newton_iterations"] == iters[-solved:]


@pytest.mark.parametrize("tau", [0.3, 2.0, 15.0, 1e6])
@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
@pytest.mark.parametrize("doping", list(DOPINGS))
def test_bit_identical_to_reference(doping, gamma, tau):
    _assert_matches_reference(ModelParams(tau=tau, doping=DOPINGS[doping], gamma=gamma))


def test_custom_schedule_bit_identical_to_reference():
    # four levels, and the Richardson pair alone; cold and continued
    p = ModelParams(tau=2.0, doping=DopingProfile.constant(1.3))
    for j_schedule in ((0.6, 0.95, 0.995, 0.9999), (0.99, 0.9999)):
        _assert_matches_reference(p, j_schedule=j_schedule)
        neighbour = solve_subsonic_elliptic(
            ModelParams(tau=2.0, doping=DopingProfile.constant(1.25)), j_schedule=j_schedule
        )
        _assert_matches_reference(p, start=neighbour, j_schedule=j_schedule)


# each doping of DOPINGS, moved as a sweep's next sample would move it
NEIGHBOURS = {
    "constant": DopingProfile.constant(1.45),
    "sine": DopingProfile.sine_perturbed(1.45, 0.2),
    "piecewise": DopingProfile.piecewise_constant([0.5], [1.45, 1.55]),
}


@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
@pytest.mark.parametrize("doping", list(NEIGHBOURS))
def test_continued_bit_identical_to_reference(doping, gamma):
    neighbour = solve_subsonic_elliptic(
        ModelParams(tau=2.0, doping=NEIGHBOURS[doping], gamma=gamma)
    )
    p = ModelParams(tau=2.0, doping=DOPINGS[doping], gamma=gamma)
    _assert_matches_reference(p, start=neighbour)


def test_continued_from_a_continued_neighbour_bit_identical_to_reference():
    # a continued neighbour's pair is as good a start as a cold one's
    cold = solve_subsonic_elliptic(ModelParams(tau=2.0, doping=DopingProfile.constant(1.4)))
    neighbour = solve_subsonic_elliptic(
        ModelParams(tau=2.0, doping=DopingProfile.constant(1.45)), start=cold
    )
    _assert_matches_reference(ModelParams(tau=2.0, doping=DopingProfile.constant(1.5)),
                              start=neighbour)


def test_levels_are_the_converged_profiles():
    # the pair extrapolates to the returned density, cold (five counts) and
    # continued (two); each profile is converged at its j, so a solve
    # continued from the pair itself takes no Newton step and returns it
    p = ModelParams(tau=2.0, doping=DopingProfile.constant(1.5))
    s_prev, s_last = 1.0 - DEFAULT_J_SCHEDULE[-2], 1.0 - DEFAULT_J_SCHEDULE[-1]
    w = s_last / (s_prev - s_last)
    neighbour = solve_subsonic_elliptic(ModelParams(tau=2.0, doping=DopingProfile.constant(1.45)))
    for start, solved in ((None, 5), (neighbour, 2)):
        sol = solve_subsonic_elliptic(p, start=start)
        assert len(sol.levels) == 2
        assert len(sol.diagnostics["newton_iterations"]) == solved
        rho = np.maximum(sol.levels[-1] + w * (sol.levels[-1] - sol.levels[-2]), 1.0)
        rho[0] = rho[-1] = 1.0
        assert np.array_equal(sol.rho, rho)
        again = solve_subsonic_elliptic(p, start=sol)
        assert again.diagnostics["newton_iterations"] == [0, 0]
        assert all(np.array_equal(u, v) for u, v in zip(again.levels, sol.levels))


def test_start_on_another_schedule_is_a_value_error():
    p = ModelParams(tau=2.0, doping=DopingProfile.constant(1.5))
    other = solve_subsonic_elliptic(p, j_schedule=(0.6, 0.95, 0.995, 0.9999))
    with pytest.raises(ValueError, match="start"):
        solve_subsonic_elliptic(p, start=other)


def test_start_that_is_not_elliptic_is_a_value_error():
    p = ModelParams(tau=15.0, doping=DopingProfile.constant(1.5))
    for start in (solve_subsonic_shooting(p), np.ones(len(graded_grid()))):
        with pytest.raises(ValueError, match="start"):
            solve_subsonic_elliptic(p, start=start)


def test_start_without_a_level_it_needs_is_a_value_error():
    # a continued solve reads the pair of levels the extrapolation reads
    p = ModelParams(tau=15.0, doping=DopingProfile.constant(1.5))
    sol = solve_subsonic_elliptic(p)
    for levels in (sol.levels[1:], sol.levels[:1] + sol.levels):
        with pytest.raises(ValueError, match="start"):
            solve_subsonic_elliptic(p, start=replace(sol, levels=levels))


@pytest.mark.parametrize("tau,b,kwargs", [
    (1e-3, 1.5, {}),  # line search stalls at j = 0.99
    (1.0, 50.0, {}),  # line search stalls at j = 0.5
    (2.0, 1.5, {"max_newton": 3}),  # iteration budget runs out
])
def test_failures_match_reference(monkeypatch, tau, b, kwargs):
    p = ModelParams(tau=tau, doping=DopingProfile.constant(b))
    with pytest.raises(NewtonDivergence) as ref:
        _reference_elliptic(p, **kwargs)
    if "max_newton" in kwargs:
        monkeypatch.setattr(solvers, "_MAX_NEWTON", kwargs["max_newton"])
    with pytest.raises(NewtonDivergence) as err:
        solve_subsonic_elliptic(p)
    assert str(err.value) == str(ref.value)
    assert err.value.diagnostics == ref.value.diagnostics


# about 10% over the counts of the RMS line search: 23 iterations and 32
# residual evaluations at b 1.9, tau 2; 22 and 31 at b 1.5, tau 0.3 (a
# test of the largest row halved most full steps of their last level)
@pytest.mark.parametrize("b,tau,iterations,evaluations", [
    (1.9, 2.0, 25, 35),
    (1.5, 0.3, 24, 34),
])
def test_newton_budget_in_the_hard_corner(monkeypatch, b, tau, iterations, evaluations):
    calls = []
    residual = solvers._elliptic_residual

    def counted(*args):
        calls.append(None)
        return residual(*args)

    monkeypatch.setattr(solvers, "_elliptic_residual", counted)
    sol = solve_subsonic_elliptic(ModelParams(tau=tau, doping=DopingProfile.constant(b)))
    assert sum(sol.diagnostics["newton_iterations"]) <= iterations
    assert len(calls) <= evaluations


# at most 5% over the continued totals, 94, 92 and 84 (each sample from the
# secant prediction of the two before, solving the last two levels); 130,
# 128 and 115 solving the last three, 166, 163 and 157 solving those from the
# sample before, 241, 238 and 232 solving all five levels from it, and 352,
# 349 and 365 restarting each from the sine guess
@pytest.mark.parametrize("tau,b_start,iterations", [
    (2.0, 1.05, 98),
    (15.0, 1.05, 96),
    (0.3, 1.5, 88),
], ids=["2.0-1.05", "15.0-1.05", "0.3-1.5"])  # ids without the budget, which moves
def test_newton_budget_of_a_continued_sweep(tmp_path, monkeypatch, tau, b_start, iterations):
    # the 16-sample elliptic sweep in b of the CLI
    counts = []
    solve = cli.solve_subsonic_elliptic

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        counts.append(sum(sol.diagnostics["newton_iterations"]))
        return sol

    monkeypatch.setattr(cli, "solve_subsonic_elliptic", counted)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"tau": tau, "doping": {"type": "constant", "value": b_start}},
        "solver": {"kind": "subsonic", "method": "elliptic"},
        "sweep": {"variable": "bConstant", "start": b_start, "stop": b_start + 0.5,
                  "count": 16},
    }))
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(counts) == 16
    assert sum(counts) <= iterations


# ---------------------------------------------------------------------------
# Newton systems the tridiagonal solve cannot take


def _break_newton(monkeypatch, how, above=0.0):
    """Make each Newton system whose midpoint densities exceed `above`
    non-finite (how="nan") or singular, with a zero first pivot."""
    coef_d = solvers._elliptic_flux_coef_d
    gtsv = scipy.linalg.lapack.dgtsv
    hit = [False]

    def patched_coef_d(rho, j, gamma):
        hit[0] = float(rho.max()) > above
        d = coef_d(rho, j, gamma)
        return np.full_like(d, np.nan) if hit[0] and how == "nan" else d

    def zero_pivot(dl, d, du, b, *overwrite):
        if hit[0]:
            dl, d = dl.copy(), d.copy()
            dl[0] = d[0] = 0.0  # the first column vanishes
        return gtsv(dl, d, du, b, *overwrite)

    monkeypatch.setattr(solvers, "_elliptic_flux_coef_d", patched_coef_d)
    if how == "singular":
        monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", zero_pivot)


@pytest.mark.parametrize("how,reason", [
    ("nan", "non-finite Newton system"),
    ("singular", "singular Newton system"),
])
def test_bad_newton_system_is_typed(monkeypatch, how, reason):
    _break_newton(monkeypatch, how)
    with pytest.raises(NewtonDivergence) as err:
        solve_subsonic_elliptic(ModelParams(tau=15.0, doping=DopingProfile.constant(1.5)))
    assert str(err.value) == f"{reason} in the relaxed elliptic solve"
    assert err.value.diagnostics == {"j": 0.5, "iteration": 0, "reason": reason}


@pytest.mark.parametrize("how,reason", [
    ("nan", "non-finite Newton system"),
    ("singular", "singular Newton system"),
])
def test_sweep_records_bad_newton_system(tmp_path, monkeypatch, how, reason):
    # the first iterate at b = 1.8 peaks at 1.4; the other samples stay
    # below 1.2 throughout
    _break_newton(monkeypatch, how, above=1.3)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"tau": 2.0, "doping": {"type": "constant", "value": 1.5}},
        "solver": {"kind": "subsonic", "method": "elliptic"},
        "sweep": {"variable": "bConstant", "values": [1.1, 1.8, 1.2]},
    }))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[3] for r in rows] == ["true", "false", "true"]
    assert rows[1][11:] == ["NewtonDivergence", "", f"{reason} in the relaxed elliptic solve"]
    for row, b in ((rows[0], 1.1), (rows[2], 1.2)):
        p = ModelParams(tau=2.0, doping=DopingProfile.constant(b))
        assert float(row[10]) == residual_norm(solve_subsonic_elliptic(p), p)[0]

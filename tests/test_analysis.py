"""Tests for classification, residual measurement and asymptotic checks."""

from __future__ import annotations

import dataclasses
import math
import types

import numpy as np
import pytest

from sonic_flow import (
    DopingProfile,
    InsufficientWindow,
    LemmaViolation,
    ModelParams,
    NotConstantDoping,
    PreconditionViolation,
    Solution,
    check_trajectory_lemmas,
    classify_regime,
    fit_holder_exponent,
    lemma_tau_threshold,
    residual_norm,
    sonic_coefficient,
    xi_curve,
)

from sonic_flow.analysis import RESIDUAL_BAND, WEAK_BASIS_SIZE, _defect_residual, _weak_residual

from conftest import params


def _reference_weak_residual(sol, p):
    """The weak residual before the one-pass form: one hat at a time."""

    def integral(x, y, a, b):
        nodes = x[(x > a) & (x < b)]
        pts = np.concatenate([[a], nodes, [b]])
        return float(np.trapezoid(np.interp(pts, x, y), pts))

    x, rho, e = sol.x, sol.rho, sol.e
    m = WEAK_BASIS_SIZE
    width = 1.0 / (m + 1)
    worst, where = 0.0, 0.5
    for k in range(1, m + 1):
        a, mid, c = (k - 1) * width, k * width, (k + 1) * width
        flux_term = (integral(x, e, a, mid) - integral(x, e, mid, c)) / width
        inner = x[(x > a) & (x < c)]
        pts = np.unique(np.concatenate([[a, mid, c], inner]))
        pts = np.unique(np.concatenate([pts, (pts[:-1] + pts[1:]) / 2]))
        phi = 1.0 - np.abs(pts - mid) / width
        g = (np.interp(pts, x, rho) - np.asarray(p.doping(pts), dtype=float)) * phi
        w = abs(flux_term + float(np.trapezoid(g, pts))) / width
        if w > worst:
            worst, where = w, mid
    return worst, where


def _reference_defect_residual(sol, p):
    """The RK4 defect probe evaluating the doping at every stage's abscissa."""

    def rhs(x, rho, e):
        d_rho = (rho * e - p.inv_tau) / sonic_coefficient(rho, p.gamma)
        return d_rho, rho - np.asarray(p.doping(x), dtype=float)

    x, rho, e = sol.x, sol.rho, sol.e
    h = np.diff(x)
    off_band = np.abs(rho - 1.0) >= RESIDUAL_BAND
    valid = (h > 0) & off_band[:-1] & off_band[1:]
    xs, hs = x[:-1][valid], h[valid]
    r, f = rho[:-1][valid], e[:-1][valid]
    for _ in range(4):
        hq = hs / 4
        k1r, k1e = rhs(xs, r, f)
        k2r, k2e = rhs(xs + hq / 2, r + hq / 2 * k1r, f + hq / 2 * k1e)
        k3r, k3e = rhs(xs + hq / 2, r + hq / 2 * k2r, f + hq / 2 * k2e)
        k4r, k4e = rhs(xs + hq, r + hq * k3r, f + hq * k3e)
        r = r + hq / 6 * (k1r + 2 * k2r + 2 * k3r + k4r)
        f = f + hq / 6 * (k1e + 2 * k2e + 2 * k3e + k4e)
        xs = xs + hq
    r0, r1 = rho[:-1][valid], rho[1:][valid]
    scaled = np.abs(r - r1) / hs / (1.0 + np.abs((r1 - r0) / hs))
    i = int(np.argmax(scaled))
    return float(scaled[i]), float(x[:-1][valid][i] + hs[i] / 2)


# ---------------------------------------------------------------------------
# regime classification


class TestClassifier:
    def test_supersonic_doping_grants_all_three(self):
        rep = classify_regime(params(15.0, 1.5))
        assert rep["subsonic"].verdict == "exists"
        assert rep["supersonic"].verdict == "exists"
        assert rep["sonic"].verdict == "not_exists"
        assert rep["transonic_shock"].verdict == "undetermined"
        assert rep["transonic_shock"].advisory is not None

    def test_small_doping_excludes_transonic(self):
        rep = classify_regime(params(15.0, 0.4))
        assert rep["supersonic"].verdict == "not_exists"
        assert "0.7578" in rep["supersonic"].condition
        assert rep["transonic_shock"].verdict == "not_exists"
        assert rep["c1_transonic"].verdict == "not_exists"
        assert rep["subsonic"].verdict == "not_exists"

    def test_strong_relaxation_excludes_transonic(self):
        rep = classify_regime(params(0.2, 0.9))
        assert rep["supersonic"].verdict == "not_exists"
        assert "1/3" in rep["supersonic"].condition
        assert rep["transonic_shock"].verdict == "not_exists"
        assert rep["c1_transonic"].verdict == "not_exists"

    def test_smooth_transition_regime(self):
        rep = classify_regime(params(0.1, 1.5))
        assert rep["c1_transonic"].verdict == "exists"
        assert rep["transonic_shock"].verdict == "not_exists"
        assert "Theorem 2.23" in rep["transonic_shock"].condition
        assert rep["subsonic"].verdict == "exists"

    def test_sonic_doping(self):
        rep = classify_regime(params(7.0, 1.0))
        assert rep["sonic"].verdict == "exists"
        assert rep["subsonic"].verdict == "not_exists"

    def test_sonic_consistency_invariant(self):
        for b in (0.4, 0.9, 1.0, 1.2, 1.5):
            rep = classify_regime(params(5.0, b))
            is_sonic = abs(b - 1.0) <= 1e-12
            assert (rep["sonic"].verdict == "exists") == is_sonic

    def test_near_sonic_advisory(self):
        rep = classify_regime(params(15.0, 0.95))
        assert rep["supersonic"].verdict == "undetermined"
        assert rep["supersonic"].advisory is not None
        assert rep["transonic_shock"].advisory is not None

    def test_no_advisory_for_weak_relaxation(self):
        rep = classify_regime(params(1.0, 0.95))
        assert rep["supersonic"].advisory is None

    def test_straddling_doping_undetermined(self):
        p = ModelParams(
            tau=15.0, doping=DopingProfile.sine_perturbed(1.0, 0.2, 1.0)
        )
        rep = classify_regime(p)
        assert rep["subsonic"].verdict == "undetermined"
        assert rep["supersonic"].verdict == "undetermined"

    @pytest.mark.parametrize("gamma", [1.4, 2.0])
    @pytest.mark.parametrize("tau,b", [(15.0, 1.5), (15.0, 0.4), (0.1, 1.5), (15.0, 0.95), (7.0, 1.0)])
    def test_theorem_verdicts_need_gamma_one(self, gamma, tau, b):
        rep = classify_regime(params(tau, b, gamma))
        iso = classify_regime(params(tau, b))
        assert rep["sonic"] == iso["sonic"]  # (1, 1/tau) solves the model at any gamma
        for kind in ("subsonic", "supersonic", "transonic_shock", "c1_transonic"):
            assert rep[kind].verdict == "undetermined"
            assert f"gamma = {gamma:g}" in rep[kind].condition
            assert "gamma = 1 only" in rep[kind].condition
            assert rep[kind].advisory is None

    def test_report_round_trip(self):
        rep = classify_regime(params(15.0, 1.5))
        d = rep.to_dict()
        assert d["tau"] == 15.0
        assert d["doping"] == {"type": "constant", "value": 1.5}
        assert set(d["verdicts"]) == {
            "sonic", "subsonic", "supersonic", "transonic_shock", "c1_transonic"
        }
        assert classify_regime(params(15.0, 1.5)).to_dict() == d


# ---------------------------------------------------------------------------
# residual measurement


class TestResidualNorm:
    def test_sonic_exact(self, sonic_sol):
        value, _ = residual_norm(sonic_sol, params(2.0, 1.0))
        assert value == 0.0

    def test_subsonic_trajectory(self, subsonic_sol, p_main):
        value, _ = residual_norm(subsonic_sol, p_main)
        assert value < 1e-6

    def test_supersonic_trajectory(self, supersonic_sol, p_main):
        value, _ = residual_norm(supersonic_sol, p_main)
        assert value < 1e-6

    def test_smooth_transonic(self, c1_sol, p_smooth):
        value, _ = residual_norm(c1_sol, p_smooth)
        assert value < 1e-6

    def test_shock_extrapolated(self, shock_sol, p_shock):
        # both branches are trajectories from exact sonic ends, so the
        # shock certifies like the smooth families
        value, _ = residual_norm(shock_sol, p_shock)
        assert value < 1e-6

    def test_elliptic_construction(self, elliptic_sol, p_main):
        value, _ = residual_norm(elliptic_sol, p_main)
        assert value < 5e-3

    @pytest.mark.parametrize("bump", [0.0, 1e-3])
    @pytest.mark.parametrize("doping", ["constant", "sine"])
    def test_weak_residual_is_the_hat_by_hat_one(self, c1_sol, p_smooth, bump, doping):
        # a bump on one row moves the worst hat off the transition
        rho = c1_sol.rho.copy()
        rho[int(np.argmin(np.abs(c1_sol.x - 0.3)))] += bump
        sol = dataclasses.replace(c1_sol, rho=rho)
        p = p_smooth
        if doping == "sine":
            p = ModelParams(tau=0.1, doping=DopingProfile.sine_perturbed(1.5, 0.2))
        value, where = _weak_residual(sol, p)
        ref_value, ref_where = _reference_weak_residual(sol, p)
        assert value == pytest.approx(ref_value, rel=1e-9, abs=1e-10)
        assert where == ref_where

    @pytest.mark.parametrize("doping", [
        DopingProfile.constant(1.5),
        DopingProfile.sine_perturbed(1.5, 0.2),
        DopingProfile.piecewise_constant([0.5], [1.5, 1.6]),
    ], ids=["constant", "sine", "piecewise"])
    def test_defect_probe_reads_each_abscissa_once(self, subsonic_sol, doping, monkeypatch):
        # the same bits as a probe evaluating b at every RK4 stage, from 9
        # doping evaluations: the start, then a midpoint and an end per substep
        p = ModelParams(tau=15.0, doping=doping)
        ref = _reference_defect_residual(subsonic_sol, p)
        calls = []
        call = DopingProfile.__call__

        def counted(self, x):
            calls.append(None)
            return call(self, x)

        monkeypatch.setattr(DopingProfile, "__call__", counted)
        assert _defect_residual(subsonic_sol, p) == ref
        assert len(calls) == 9

    def test_detects_perturbation(self, subsonic_sol, p_main):
        rho = subsonic_sol.rho.copy()
        k = int(np.argmin(np.abs(subsonic_sol.x - 0.5)))
        rho[k] += 0.01
        broken = Solution(
            kind="subsonic", x=subsonic_sol.x, rho=rho, e=subsonic_sol.e
        )
        value, location = residual_norm(broken, p_main)
        assert value > 1e-3
        assert abs(location - subsonic_sol.x[k]) < 0.01


# ---------------------------------------------------------------------------
# endpoint regularity


class TestHolderExponent:
    def test_subsonic_right_endpoint(self, subsonic_sol):
        fit = fit_holder_exponent(subsonic_sol, 1)
        assert 0.45 <= fit.exponent <= 0.55
        assert fit.n_points >= 8
        assert fit.window_used[0] >= 1e-4 and fit.window_used[1] <= 1e-2

    def test_subsonic_left_endpoint(self, subsonic_sol):
        fit = fit_holder_exponent(subsonic_sol, 0)
        assert 0.45 <= fit.exponent <= 0.55

    def test_supersonic_left_endpoint(self, supersonic_sol):
        fit = fit_holder_exponent(supersonic_sol, 0)
        assert 0.45 <= fit.exponent <= 0.55

    def test_shock_both_endpoints(self, shock_sol):
        for endpoint in (0, 1):
            fit = fit_holder_exponent(shock_sol, endpoint)
            assert 0.45 <= fit.exponent <= 0.55

    def test_transition_side_rejected(self, c1_sol):
        with pytest.raises(PreconditionViolation):
            fit_holder_exponent(c1_sol, "transition")

    def test_sonic_solution_rejected(self, sonic_sol):
        with pytest.raises(PreconditionViolation):
            fit_holder_exponent(sonic_sol, 0)

    def test_invalid_endpoint(self, subsonic_sol):
        with pytest.raises(ValueError):
            fit_holder_exponent(subsonic_sol, 0.5)

    def test_coarse_grid_insufficient(self):
        x = np.linspace(0.0, 1.0, 21)
        rho = 1.0 + np.sin(np.pi * x)
        e = np.full_like(x, 0.5)
        coarse = Solution(kind="subsonic", x=x, rho=rho, e=e)
        with pytest.raises(InsufficientWindow):
            fit_holder_exponent(coarse, 1)


# ---------------------------------------------------------------------------
# trajectory lemmas in the transformed chart


def _branches(c1_sol):
    """Split the composite at its transition row into (n,F)-chart segments."""
    k = int(np.argmin(np.abs(c1_sol.rho - 1.0)[1:-1])) + 1
    assert abs(c1_sol.rho[k] - 1.0) < 1e-12

    def seg(sl):
        return types.SimpleNamespace(rhos=c1_sol.rho[sl], es=c1_sol.e[sl])

    return seg(slice(k, None)), seg(slice(None, k + 1))


class TestTrajectoryLemmas:
    def test_positive_branch_below_xi_multiple(self, c1_sol, p_smooth):
        positive, _ = _branches(c1_sol)
        report = check_trajectory_lemmas(p_smooth, positive)
        assert report.branch == "positive"
        assert report.max_margin <= 0.0
        assert report.origin_gap < 1e-4

    def test_negative_branch_above_xi_multiple(self, c1_sol, p_smooth):
        _, negative = _branches(c1_sol)
        report = check_trajectory_lemmas(p_smooth, negative)
        assert report.branch == "negative"
        assert report.max_margin <= 0.0
        assert report.origin_gap < 1e-4

    def test_origin_slope_doubles_transition_slope(self, c1_sol, p_smooth):
        positive, _ = _branches(c1_sol)
        report = check_trajectory_lemmas(p_smooth, positive)
        assert report.slope_at_origin == pytest.approx(0.101020, abs=1e-3)

    def test_threshold_formula(self):
        b = 1.5
        assert lemma_tau_threshold(b) == pytest.approx(
            1.0 / (3.0 * math.sqrt(b**3 + b)), rel=1e-14
        )

    def test_precondition_needs_small_tau(self, c1_sol):
        positive, _ = _branches(c1_sol)
        with pytest.raises(PreconditionViolation):
            check_trajectory_lemmas(params(0.5, 1.5), positive)

    def test_precondition_needs_supersonic_doping(self, c1_sol):
        positive, _ = _branches(c1_sol)
        with pytest.raises(PreconditionViolation):
            check_trajectory_lemmas(params(0.1, 0.9), positive)

    @pytest.mark.parametrize("p, rhos, error, message", [
        (ModelParams(tau=0.1, doping=DopingProfile.sine_perturbed(1.5, 0.1)),
         [1.0, 1.1, 1.2], NotConstantDoping, "constant doping"),
        (params(0.1, 1.5), [1.0, 1.0, 1.0], ValueError, "never leaves the sonic line"),
        (params(0.1, 1.5), [0.9, 1.0, 1.1], ValueError, "mixes n > 0 and n < 0"),
    ], ids=["doping_not_constant", "on_the_sonic_line", "both_branches"])
    def test_refuses_what_it_cannot_check(self, p, rhos, error, message):
        trajectory = types.SimpleNamespace(rhos=np.array(rhos), es=np.full(3, 10.0))
        with pytest.raises(error, match=message):
            check_trajectory_lemmas(p, trajectory)

    def test_violation_reported_with_point(self, c1_sol, p_smooth):
        positive, _ = _branches(c1_sol)
        es = positive.es + 0.05  # push F above the allowed multiple of Xi
        bad = types.SimpleNamespace(rhos=positive.rhos, es=es)
        with pytest.raises(LemmaViolation):
            check_trajectory_lemmas(p_smooth, bad)

    def test_xi_reference_curve(self):
        # the comparison curve vanishes at the origin and at doping level
        p = params(0.1, 1.5)
        assert xi_curve(0.0, p) == 0.0
        assert xi_curve(0.5, p) == pytest.approx(0.0, abs=1e-14)

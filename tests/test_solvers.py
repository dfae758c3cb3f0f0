"""Tests for the boundary-value solvers.

Golden values were produced by the frozen oracle runs recorded alongside the
implementation notes and are asserted at the accuracy the construction
supports; moving them silently is a regression.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sonic_flow.solvers
from sonic_flow import integrator
from sonic_flow import (
    BracketFailure,
    DopingProfile,
    GlueMismatch,
    ModelParams,
    NoSolutionInRegime,
    NumericalError,
    NotSonicDoping,
    PreconditionViolation,
    RegimeRejection,
    ShootingDivergence,
    SonicFlowError,
    c1_transition_slope,
    classify_regime,
    residual_norm,
    residual_sign_change,
    solve_c1_transonic,
    solve_sonic,
    solve_subsonic_elliptic,
    solve_subsonic_shooting,
    solve_supersonic,
    solve_transonic_shock,
    supersonic_min_density_bracket,
    supersonic_residual_sweep,
    tau0_bound,
)
from sonic_flow.analysis import NOT_EXISTS
from sonic_flow.integrator import DomainEnd, IntegratorConfig, TargetDensity, integrate_from_sonic
from sonic_flow.model_core import node_slow_manifold
from sonic_flow.solvers import (
    _landing_x,
    _polish,
    _probe_cfg,
    _shock_shot,
    _shoot,
    _shoot_polish_land,
    _slope,
    _wall_shot,
)

from conftest import params

GOLDEN_G0 = 0.21909589350058623  # launch field E(0), b=1.5, tau=15
GOLDEN_RHO_MIN = 0.7614433976961565  # supersonic minimum, b=1.5, tau=15
GOLDEN_SHOCK_X0 = 0.9684341566884487  # shock abscissa, b=1.5, tau=50, rhoL=0.9

P_SINE_SUPERSONIC = ModelParams(tau=15.0, doping=DopingProfile.sine_perturbed(1.5, 0.05))


def interior_mask(x):
    return (x > 1e-6) & (x < 1.0 - 1e-6)


# ---------------------------------------------------------------------------
# sonic


class TestSonic:
    def test_closed_form(self):
        sol = solve_sonic(params(2.0, 1.0))
        assert np.all(sol.rho == 1.0)
        assert np.abs(sol.e - 0.5).max() == 0.0

    def test_field_scales_with_tau(self):
        sol = solve_sonic(params(15.0, 1.0))
        assert np.abs(sol.e - 1.0 / 15.0).max() == 0.0

    def test_rejects_off_sonic_doping(self):
        with pytest.raises(NotSonicDoping):
            solve_sonic(params(2.0, 1.0001))


# ---------------------------------------------------------------------------
# subsonic


class TestSubsonicShooting:
    def test_golden_launch_field(self, subsonic_sol):
        assert subsonic_sol.diagnostics["g0"] == pytest.approx(
            GOLDEN_G0, abs=1e-9
        )

    def test_boundaries_and_bounds(self, subsonic_sol):
        assert abs(subsonic_sol.rho[0] - 1.0) <= 1e-6
        assert abs(subsonic_sol.rho[-1] - 1.0) <= 1e-6
        assert subsonic_sol.rho.min() >= 1.0 - 1e-12
        assert subsonic_sol.rho.max() <= 1.5 + 1e-8

    def test_positive_interior_margin(self, subsonic_sol):
        m = interior_mask(subsonic_sol.x)
        ratio = (subsonic_sol.rho[m] - 1.0) / np.sin(np.pi * subsonic_sol.x[m])
        assert ratio.min() > 0.0

    def test_excess_positive_between_endpoints(self):
        sol = solve_subsonic_shooting(params(1.0, 1.2))
        m = interior_mask(sol.x)
        assert np.all(sol.rho[m] > 1.0)

    def test_landing_accuracy(self, subsonic_sol):
        assert abs(subsonic_sol.x[-1] - 1.0) < 1e-9

    def test_rejects_subsonic_doping(self):
        with pytest.raises(PreconditionViolation) as err:
            solve_subsonic_shooting(params(15.0, 0.9))
        assert err.value.theorem_ref == "Theorem 3.1"

    def test_low_tau_fine_shot_sinks_into_the_node(self):
        # below tau_n(b) the solution leaves x = 0 tangentially, on the node's
        # slow manifold: the probes from x = 1 find the launch, but its fine
        # shot sinks into the node about 3e-10 short of x = 0, with no data
        with pytest.raises(ShootingDivergence) as err:
            solve_subsonic_shooting(params(0.6, 1.2))
        assert abs(err.value.diagnostics["residual"]) < 1e-9

    def test_rows_stalled_by_roundoff_at_the_landing(self):
        # at this launch the fine arc's last rows hug x = 0 with x wiggling by
        # 3e-15, two rows back at a time: they are dropped as stalled, not
        # read as an arc that turned back
        b = 2.2496822274799126
        p = ModelParams(tau=0.29658598970464195,
                        doping=DopingProfile.sine_perturbed(b, 0.2 * b * (0.7020143140154995 - 0.5)))
        fine = sonic_flow.solvers._fine(IntegratorConfig())
        r, seg = _wall_shot("subsonic", 1.044101541378746, 0.0, p, fine)
        assert seg is not None and abs(r) < 1e-10
        assert np.all(np.diff(seg.xs) < 0) and seg.xs[-1] == seg.last.x
        sol = solve_subsonic_shooting(p)
        assert residual_norm(sol, p)[0] < 1e-6

    def test_shot_budget(self, p_main, monkeypatch):
        calls = []
        launch = sonic_flow.solvers.integrate_from_sonic

        def counted(*args, **kwargs):
            calls.append(args)
            return launch(*args, **kwargs)

        monkeypatch.setattr(sonic_flow.solvers, "integrate_from_sonic", counted)
        sol = solve_subsonic_shooting(p_main)
        assert len(calls) <= 20
        assert sol.diagnostics["shooting_iterations"] < len(calls)


class TestSubsonicElliptic:
    def test_bounds(self, elliptic_sol):
        assert elliptic_sol.rho.max() <= 1.5 + 1e-6
        m = interior_mask(elliptic_sol.x)
        assert np.all(elliptic_sol.rho[m] > 1.0)

    def test_nearly_sonic_doping_stays_near_one(self):
        sol = solve_subsonic_elliptic(params(2.0, 1.0 + 1e-9))
        assert np.abs(sol.rho - 1.0).max() <= 1e-6

    def test_rejects_subsonic_doping(self):
        with pytest.raises(PreconditionViolation) as err:
            solve_subsonic_elliptic(params(15.0, 0.9))
        assert err.value.theorem_ref == "Theorem 3.1"

    def test_schedule_must_approach_one(self):
        with pytest.raises(ValueError):
            solve_subsonic_elliptic(params(15.0, 1.5), j_schedule=(0.5, 0.9))


class TestSubsonicCrossCheck:
    @pytest.mark.parametrize("b,tau", [(1.2, 1.0), (1.5, 15.0), (2.0, 1.0)])
    def test_methods_agree(self, b, tau):
        p = params(tau, b)
        gap = solve_subsonic_shooting(p).sup_distance(solve_subsonic_elliptic(p))
        assert gap <= 1e-4


# ---------------------------------------------------------------------------
# supersonic


class TestSupersonic:
    def test_golden_minimum(self, supersonic_sol):
        assert supersonic_sol.diagnostics["rho_min"] == pytest.approx(
            GOLDEN_RHO_MIN, abs=5e-9
        )

    def test_single_interior_minimum(self, supersonic_sol):
        rho = supersonic_sol.rho
        k = int(np.argmin(rho))
        assert 0 < k < len(rho) - 1
        assert np.all(np.diff(rho[: k + 1]) <= 1e-12)
        assert np.all(np.diff(rho[k:]) >= -1e-12)

    @pytest.mark.parametrize("doping", ["constant", "sine"])
    def test_minimum_on_critical_locus(self, doping, supersonic_sol, p_main):
        # the arc is split at its minimum, so the argmin row lies on the locus
        if doping == "constant":
            p, sol = p_main, supersonic_sol
        else:
            p, sol = P_SINE_SUPERSONIC, solve_supersonic(P_SINE_SUPERSONIC)
        k = int(np.argmin(sol.rho))
        prod = sol.rho[k] * sol.e[k]
        assert prod == pytest.approx(p.inv_tau, abs=1e-7)

    def test_stays_supersonic(self, supersonic_sol):
        assert supersonic_sol.rho.max() <= 1.0 + 1e-8
        m = interior_mask(supersonic_sol.x)
        assert np.all(supersonic_sol.rho[m] < 1.0)

    def test_minimum_inside_lemma_bracket(self, supersonic_sol):
        beta, gamma = supersonic_min_density_bracket(1.0, 1.5)
        assert beta < supersonic_sol.diagnostics["rho_min"] < gamma

    def test_rejects_small_doping(self):
        with pytest.raises(NoSolutionInRegime) as err:
            solve_supersonic(params(15.0, 0.4))
        assert err.value.theorem_ref == "Theorem 3.2"

    def test_rejects_small_tau(self):
        with pytest.raises(NoSolutionInRegime) as err:
            solve_supersonic(params(0.2, 0.9))
        assert err.value.theorem_ref == "Theorem 3.3"

    @pytest.mark.parametrize("tau,b", [(15.0, 0.4), (0.2, 0.9)])
    def test_no_isothermal_refusal_at_gamma_2(self, tau, b):
        # Theorems 3.2 and 3.3 are proved for gamma = 1; at gamma 2 the
        # solve is attempted and fails as a numerical error, not a refusal
        with pytest.raises(NumericalError):
            solve_supersonic(params(tau, b, gamma=2.0))

    def test_variable_doping(self):
        doping = DopingProfile.sine_perturbed(1.5, 0.05, 1.0)
        p = ModelParams(tau=15.0, doping=doping)
        sol = solve_supersonic(p)
        assert abs(sol.x[0]) <= 1e-6 and abs(sol.x[-1] - 1.0) <= 1e-6
        assert sol.rho.max() <= 1.0 + 1e-8
        k = int(np.argmin(sol.rho))
        assert 0 < k < len(sol.rho) - 1
        assert sol.diagnostics["boundary_residual"] <= 1e-10


class TestSupersonicSweep:
    def test_no_sign_change_when_excluded(self):
        sweep = supersonic_residual_sweep(params(15.0, 0.4), samples=60)
        assert len(sweep) == 60
        assert not residual_sign_change(sweep)
        # no shot returns to the sonic line: each blows up or leaves its window
        assert {s.status for s in sweep} == {"long"}

    def test_sign_change_when_solution_exists(self):
        sweep = supersonic_residual_sweep(params(15.0, 1.5), samples=60)
        assert residual_sign_change(sweep)

    def test_two_roots_near_the_sonic_line(self):
        # b = 0.98, tau = 50: the shot lands at x = 1 from two launch
        # excesses, near 0.0035 and 0.017; the paper claims at least one,
        # and the solver returns the larger
        p = params(50.0, 0.98)
        brackets = _sign_changes(supersonic_residual_sweep(p))
        assert len(brackets) == 2
        (lo1, hi1), (lo2, hi2) = brackets
        assert hi1 < lo2
        assert 0.003 < lo1 and hi2 < 0.02
        q = solve_supersonic(p).diagnostics["launch_excess"]
        assert lo2 <= q <= hi2

    @pytest.mark.parametrize(
        "tau, doping, exists",
        [
            (50.0, DopingProfile.constant(0.95), False),
            (50.0, DopingProfile.constant(0.97), False),
            (20.0, DopingProfile.constant(0.99), True),
            (15.0, DopingProfile.sine_perturbed(1.5, 0.2, 1.0), True),
            (15.0, DopingProfile.piecewise_constant([0.5], [1.5, 1.6]), True),
        ],
        ids=["constant-0.95", "constant-0.97", "constant-0.99", "sine", "piecewise"],
    )
    def test_witness_agrees_with_the_solver(self, tau, doping, exists):
        # the witness scans the solver's own shot, so it brackets a root
        # exactly where the solver lands one, for any doping
        p = ModelParams(tau=tau, doping=doping)
        brackets = _sign_changes(supersonic_residual_sweep(p))
        if not exists:
            assert brackets == []
            with pytest.raises(NumericalError):
                solve_supersonic(p)
            return
        q = solve_supersonic(p).diagnostics["launch_excess"]
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert lo <= q <= hi


def _sign_changes(sweep):
    """Launch excess brackets of consecutive landed samples whose residuals change sign."""
    return [
        (a.launch_excess, b.launch_excess)
        for a, b in zip(sweep, sweep[1:])
        if a.status == b.status == "ok" and a.residual * b.residual <= 0.0
    ]


# ---------------------------------------------------------------------------
# transonic shock


class TestTransonicShock:
    def test_golden_position(self, shock_sol):
        assert shock_sol.shock.x0 == pytest.approx(GOLDEN_SHOCK_X0, abs=1e-7)

    def test_jump_invariants(self, shock_sol):
        s = shock_sol.shock
        assert s.rho_l * s.rho_r == pytest.approx(1.0, abs=1e-12)
        assert s.rho_r == pytest.approx(1.0 / 0.9, abs=1e-12)
        flux_gap = s.rho_l + 1.0 / s.rho_l - (s.rho_r + 1.0 / s.rho_r)
        assert abs(flux_gap) <= 1e-10

    def test_field_continuous_at_jump(self, shock_sol):
        k = shock_sol.shock_index
        assert shock_sol.x[k] == shock_sol.x[k + 1]
        assert abs(shock_sol.e[k + 1] - shock_sol.e[k]) <= 1e-10

    def test_entropy_direction(self, shock_sol):
        k = shock_sol.shock_index
        assert shock_sol.rho[k] < 1.0 < shock_sol.rho[k + 1]

    def test_boundary_residual(self, shock_sol):
        assert abs(shock_sol.rho[0] - 1.0) < 1e-6
        assert abs(shock_sol.rho[-1] - 1.0) < 1e-6

    def test_family_member_distinct(self, shock_sol, shock_sol_95):
        assert shock_sol_95.shock.x0 > shock_sol.shock.x0
        assert abs(shock_sol_95.shock.x0 - shock_sol.shock.x0) > 1e-3

    def test_rejects_smooth_regime(self):
        with pytest.raises(RegimeRejection) as err:
            solve_transonic_shock(params(0.1, 1.5), 0.9)
        assert err.value.theorem_ref == "Theorem 2.23"

    def test_rejects_small_tau_subsonic_doping(self):
        with pytest.raises(RegimeRejection) as err:
            solve_transonic_shock(params(0.2, 0.9), 0.9)
        assert err.value.theorem_ref == "Theorem 3.3"

    def test_rejects_bad_pre_shock_density(self):
        with pytest.raises(PreconditionViolation):
            solve_transonic_shock(params(50.0, 1.5), 1.2)

    @pytest.mark.parametrize("rho_l", [0.99, 0.995])
    def test_rejects_pre_shock_density_at_the_sonic_line(self, rho_l):
        # a solver constant, whatever the integrator configuration
        for cfg in (None, IntegratorConfig(rel_tol=1e-8)):
            with pytest.raises(PreconditionViolation, match="below 0.99"):
                solve_transonic_shock(params(50.0, 1.5), rho_l, cfg)

    def test_rejects_non_isothermal_gamma(self):
        # the jump rho_l * rho_r = 1 conserves rho + 1/rho only; at gamma 2
        # this input's right state missed rho^2/2 + 1/rho by 3.8e-4
        with pytest.raises(PreconditionViolation, match="gamma = 1"):
            solve_transonic_shock(params(20.0, 1.3, gamma=2.0), 0.93)

    def test_failure_is_typed_numerical(self):
        # no launch field lands this arc on x = 1: every shot is too shallow
        # or overshoots, so the bracket holds a jump between sentinels
        with pytest.raises(BracketFailure, match="no launch value lands") as err:
            solve_transonic_shock(params(1.0, 1.2), 0.9)
        assert isinstance(err.value, NumericalError)
        assert err.value.diagnostics["shots"] <= 20

    def test_stalled_real_end_is_a_divergence(self):
        # no root near the touching energy: the residual jumps from about +1
        # to the sentinel region, and each split leaves the real end above
        # half its residual; eight shots in a row without progress end the
        # search, where splitting down to a 1-ulp bracket took 56 shots
        with pytest.raises(ShootingDivergence, match="jumps") as err:
            solve_transonic_shock(params(36.48, 1.418), 0.733)
        d = err.value.diagnostics
        assert d["shots"] <= 20
        assert d["residuals"][0] == -10.0 and 0.5 < d["residuals"][1] < 10.0
        assert 0.0 < d["bracket"][1] - d["bracket"][0] < 1e-2


class TestShockRegressions:
    # inputs whose right sonic end read 1.07e-3 and 1.15e-3 when the fine
    # arcs took their rows from 5e-4 steps at tolerances 1e-11/1e-13
    @pytest.mark.parametrize("tau,b,rho_l", [
        (39.16486497462077, 1.2816648657015037, 0.9004022161395433),
        (21.179389458013766, 1.5422197738568546, 0.8805664254260208),
    ])
    def test_residual_within_bound(self, tau, b, rho_l):
        p = params(tau, b)
        sol = solve_transonic_shock(p, rho_l)
        assert residual_norm(sol, p)[0] < 1e-6


# ---------------------------------------------------------------------------
# smooth transonic


def _turning_back(leg):
    """`integrator._leg` whose legs at output resolution end their third step behind the first."""

    def turned(x, rho, e, dsign, *args):
        res, end = leg(x, rho, e, dsign, *args)
        if args[-1].sample_spacing < math.inf and len(res.ya) > 3:
            res.ya[2] = res.ya[0]
        return res, end

    return turned


class TestC1Transonic:
    def test_transition_metadata(self, c1_sol):
        t = c1_sol.transition
        assert t.x0 == pytest.approx(0.5, abs=1e-9)
        assert t.slope == pytest.approx(
            c1_transition_slope(1.5, 0.1), rel=1e-3
        )

    def test_field_at_transition(self, c1_sol, p_smooth):
        k = int(np.argmin(np.abs(c1_sol.x - 0.5)))
        assert c1_sol.e[k] == pytest.approx(p_smooth.inv_tau, abs=1e-6)

    def test_one_sided_slopes_match(self, c1_sol):
        left, right = c1_sol.diagnostics["slope_fitted"]
        reference = c1_sol.diagnostics["slope_reference"]
        assert abs(left - right) <= 1e-3 * reference
        assert left == pytest.approx(reference, rel=1e-3)
        assert right == pytest.approx(reference, rel=1e-3)

    def test_supersonic_then_subsonic(self, c1_sol):
        x0 = c1_sol.transition.x0
        left = c1_sol.x < x0 - 1e-3
        right = c1_sol.x > x0 + 1e-3
        assert np.all(c1_sol.rho[left] <= 1.0 + 1e-12)
        assert np.all(c1_sol.rho[right] >= 1.0 - 1e-12)

    def test_family_over_transition_point(self):
        p = params(0.1, 1.5)
        for x0 in (0.25, 0.75):
            sol = solve_c1_transonic(p, x0)
            assert sol.transition.x0 == pytest.approx(x0, abs=1e-6)
            assert sol.transition.slope == pytest.approx(
                c1_transition_slope(1.5, 0.1), rel=1e-3
            )

    def test_rejects_large_tau(self):
        with pytest.raises(RegimeRejection):
            solve_c1_transonic(params(0.2, 1.5), 0.5)
        assert tau0_bound(1.5) < 0.2

    def test_rejects_exterior_transition_point(self):
        with pytest.raises(PreconditionViolation):
            solve_c1_transonic(params(0.1, 1.5), 1.5)

    def test_rejects_non_isothermal_gamma(self):
        # tau0 and the transition slope are derived for gamma = 1; at gamma 2
        # this input certified against the isothermal slope 0.0505103 while
        # its arcs landed with slope 0.0507734
        with pytest.raises(PreconditionViolation, match="gamma = 1"):
            solve_c1_transonic(params(0.1, 1.5, gamma=2.0), 0.5)

    def test_arc_turning_back_is_a_typed_failure(self, monkeypatch):
        # rows that go back in x, which only roundoff can produce, must not
        # escape as a bare ValueError from the trajectory constructor.  Only
        # the arcs a solve keeps read their rows, so the legs at output
        # resolution turn back: their third step end moves behind the first
        monkeypatch.setattr(integrator, "_leg", _turning_back(integrator._leg))
        p = params(0.11102674876958835, 1.7835330259037656)
        with pytest.raises(SonicFlowError):
            solve_c1_transonic(p, 0.2206110104158862)

    def test_uncertified_glue_is_a_typed_failure(self):
        # both branches land at x0 and glue, but the profile stays within
        # 1e-2 of the sonic line, where residual_norm has no pointwise probe
        p = params(0.0974009546, 1.2)
        with pytest.raises(GlueMismatch, match="residual check") as err:
            solve_c1_transonic(p, 0.5)
        assert err.value.diagnostics["residual"] >= 1e-6

    def test_landing_shots_near_the_node_certify(self):
        # subsonic landing shots at this input sink into the node (1, 1/tau)
        # or pass close by it; they end as step failures, short of x0
        p = params(0.11102674876958835, 1.7835330259037656)
        sol = solve_c1_transonic(p, 0.2206110104158862)
        assert residual_norm(sol, p)[0] < 1e-6
        assert sol.transition.x0 == 0.2206110104158862


# ---------------------------------------------------------------------------
# regime refusals come from the classifier


class _Attempted(Exception):
    """Raised in place of the shooting once a solver passed its regime checks."""


class TestRefusalsFollowTheClassifier:
    grid = [
        ModelParams(tau=tau, doping=doping)
        for tau in (0.05, 0.1, 0.2, 0.5, 15.0)
        for doping in [DopingProfile.constant(b) for b in (0.3, 0.4, 0.6, 0.9, 1.0, 1.2, 1.5)]
        + [DopingProfile.sine_perturbed(0.5, 0.1), DopingProfile.sine_perturbed(1.5, 0.1)]
    ]

    @pytest.fixture(autouse=True)
    def no_shooting(self, monkeypatch):
        def attempted(*args, **kwargs):
            raise _Attempted

        monkeypatch.setattr(sonic_flow.solvers, "_shoot_launch_excess", attempted)
        monkeypatch.setattr(sonic_flow.solvers, "_shock_bracket", attempted)

    @pytest.mark.parametrize("kind,error,solve", [
        ("supersonic", NoSolutionInRegime, solve_supersonic),
        ("transonic_shock", RegimeRejection, lambda p: solve_transonic_shock(p, 0.9)),
        ("sonic", NotSonicDoping, solve_sonic),
    ])
    def test_refuses_exactly_where_not_exists(self, kind, error, solve):
        refused = 0
        for p in self.grid:
            verdict = classify_regime(p)[kind]
            if verdict.verdict == NOT_EXISTS:
                with pytest.raises(error) as err:
                    solve(p)
                assert type(err.value) is error
                assert err.value.theorem_ref == verdict.theorem
                assert str(err.value) == verdict.condition
                refused += 1
            else:
                try:
                    solve(p)
                except _Attempted:
                    pass
        assert 0 < refused < len(self.grid)

    def test_theorems_cited(self):
        cited = {
            classify_regime(p)[kind].theorem
            for p in self.grid
            for kind in ("supersonic", "transonic_shock")
        }
        assert cited == {None, "Theorem 3.2", "Theorem 3.3", "Theorem 2.23"}


# ---------------------------------------------------------------------------
# bracket sanity used by the supersonic seed


class TestBracketSeed:
    def test_lemma_bracket_formula(self):
        beta, gamma = supersonic_min_density_bracket(1.0, 1.5)
        root = math.sqrt(2.0 * math.sqrt(2.0) * 1.5)
        assert beta == pytest.approx(1.0 / (2.0 + root), rel=1e-12)
        assert gamma == pytest.approx(
            1.0 - 1.0 / (2.0 ** 4 * (2.0 + root) ** 3), rel=1e-12
        )
        assert 0.0 < beta < gamma < 1.0


# ---------------------------------------------------------------------------
# shooting driver


class TestShootDriver:
    @staticmethod
    def recorded(residual):
        calls = []

        def shot(v):
            calls.append(v)
            return residual(v), None

        return shot, calls

    def test_widens_both_ends(self):
        # upper end: the rule's first step (one real residual), then the
        # secant clamped to the rule, then the secant overshot 1.2 times
        shot, calls = self.recorded(lambda v: math.atan(v - 3.3))
        root, shots = _shoot(shot, 0.5, 1.0, None, lambda v: v + 1.0)
        assert root == pytest.approx(3.3, abs=1e-7)
        assert shots == len(calls)
        r2, r3 = math.atan(2.0 - 3.3), math.atan(3.0 - 3.3)
        assert 2.0 - r2 * (2.0 - 1.0) / (r2 - math.atan(1.0 - 3.3)) > 4.0  # clamped to 3.0
        assert calls[:4] == [1.0, 2.0, 3.0, 3.0 - 1.2 * r3 * (3.0 - 2.0) / (r3 - r2)]
        assert all(3.0 <= v <= calls[3] for v in calls[4:])
        # lower end: shot after the upper one, then the secant through both
        # overshot 1.2 times, short of the rule's 2.5
        shot, calls = self.recorded(lambda v: v - 3.3)
        root, shots = _shoot(shot, 5.0, 6.0, lambda v: 0.5 * v, None)
        assert root == pytest.approx(3.3, abs=1e-7)
        r5, r6 = 5.0 - 3.3, 6.0 - 3.3
        assert calls[:3] == [6.0, 5.0, 5.0 - 1.2 * r5 * (5.0 - 6.0) / (r5 - r6)]
        assert all(calls[2] <= v <= 6.0 for v in calls[3:])

    def test_lower_seed_shot_only_above_the_root(self):
        shot, calls = self.recorded(lambda v: math.atan(v - 3.0))
        _shoot(shot, 3.5, 2.8, lambda v: v - 0.5, lambda v: v + 1.0)
        assert calls[:2] == [2.8, 3.8] and 3.5 not in calls
        shot, calls = self.recorded(lambda v: math.atan(v - 3.0))
        _shoot(shot, 2.8, 3.5, lambda v: v - 0.5, lambda v: v + 1.0)
        assert calls[:2] == [3.5, 2.8]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gives_up_after_60_moves(self, sign):
        shot, calls = self.recorded(lambda v: sign)
        with pytest.raises(BracketFailure) as err:
            _shoot(shot, 1.0, 2.0, lambda v: 0.5 * v, lambda v: 2.0 * v)
        # a positive upper residual: the lower seed, then 60 lower moves; a
        # negative one: 60 upper moves; each move hands the old end across
        assert len(calls) == (62 if sign > 0 else 61)
        moved = [2.0**-60, 2.0**-59] if sign > 0 else [2.0**60, 2.0**61]
        assert err.value.diagnostics["bracket"] == moved
        assert err.value.diagnostics["residuals"] == [sign, sign]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pinned_end_fails_at_once(self, sign):
        shot, calls = self.recorded(lambda v: sign)
        with pytest.raises(BracketFailure) as err:
            _shoot(shot, 1.0, 2.0, None, None)
        assert calls == ([2.0, 1.0] if sign > 0 else [2.0])
        assert err.value.diagnostics == {
            "bracket": [1.0, 2.0],
            "residuals": [sign, sign] if sign > 0 else [None, sign],
            "shots": len(calls),
        }

    @pytest.mark.parametrize("fixture", ["subsonic_sol", "supersonic_sol", "shock_sol", "c1_sol"])
    def test_every_family_records_its_shots(self, fixture, request):
        shots = request.getfixturevalue(fixture).diagnostics["shooting_iterations"]
        assert type(shots) is int and shots > 0

    def test_root_beside_sentinel_region(self):
        # shots below 0.999 leave the admissible region and report a sentinel
        shot, _ = self.recorded(lambda v: v - 1.0 if v >= 0.999 else -10.0)
        root, _ = _shoot(shot, 0.1, 2.0, None, None)
        assert root == pytest.approx(1.0, abs=1e-12)

    def test_jump_between_sentinels_fails_after_eight_in_a_row(self):
        shot, calls = self.recorded(lambda v: -10.0 if v < 1.3 else 10.0)
        with pytest.raises(BracketFailure, match="no launch value lands") as err:
            _shoot(shot, 0.0, 2.0, None, None)
        # the two ends, then six splits: at the midpoint while lo <= 0, at the
        # geometric mean after
        assert len(calls) == 8
        assert calls[2] == 1.0 and calls[3] == math.sqrt(2.0)
        # the bracket the last shot split
        lo = max(v for v in calls[:-1] if v < 1.3)
        hi = min(v for v in calls[:-1] if v >= 1.3)
        assert lo < calls[-1] < hi
        assert err.value.diagnostics == {
            "bracket": [lo, hi], "residuals": [-10.0, 10.0], "shots": 8,
        }

    def test_real_end_stalled_beside_sentinels_is_a_divergence(self):
        # the residual jumps from +1 to the sentinel region at 1.3: the real
        # end never falls below half its residual, so its shots count with
        # the sentinels, and eight in a row end the search
        shot, calls = self.recorded(lambda v: -10.0 if v < 1.3 else 1.0 + (v - 1.3))
        with pytest.raises(ShootingDivergence, match="jumps") as err:
            _shoot(shot, 0.0, 2.0, None, None)
        d = err.value.diagnostics
        assert d["shots"] == len(calls) <= 12
        assert d["residuals"][0] == -10.0 and 1.0 <= d["residuals"][1] < 1.7
        assert d["bracket"][0] < 1.3 <= d["bracket"][1]

    def test_real_end_that_halves_keeps_the_search_going(self):
        # the same jump with a root just above it: the real end's residual
        # halves on the way down, and the search lands
        shot, _ = self.recorded(lambda v: -10.0 if v < 1.3 else 16.0 * (v - 1.30001))
        root, shots = _shoot(shot, 0.0, 2.0, None, None)
        assert root == pytest.approx(1.30001, abs=1e-12)

    @pytest.mark.parametrize("left,right", [(-0.3, 0.5), (-0.5, 0.3)])
    def test_jump_between_real_residuals_is_a_divergence(self, left, right):
        shot, calls = self.recorded(lambda v: left if v < 0.4114 else right)
        with pytest.raises(ShootingDivergence, match="jumps") as err:
            _shoot(shot, 0.2, 0.3, lambda v: 0.5 * v, lambda v: 2.0 * v)
        d = err.value.diagnostics
        assert d["residuals"] == [left, right] and d["shots"] == len(calls) <= 30
        assert d["bracket"][0] < 0.4114 <= d["bracket"][1]
        # Brent's method closes its first real bracket, (0.3, 0.6), only
        # until the bracket's secant moves the residual by the probe stop
        assert d["bracket"][1] - d["bracket"][0] <= 1e-7 * (0.6 - 0.3) / (right - left)

    def test_no_launch_value_is_shot_twice(self):
        shot, calls = self.recorded(lambda v: math.atan(v - 3.0))
        found = _shoot(shot, 3.5, 2.8, lambda v: v - 0.5, lambda v: v + 1.0)
        assert len(calls) == len(set(calls)) == found[1]

    def test_residual_floor_ends_the_closing_phase(self):
        calls = []

        def shot(v):
            calls.append(v)
            # the first shot after the bracket ends lands inside the floor
            return (1e-13 if len(calls) == 3 else math.atan(v - 1.0)), None

        root, shots = _shoot(shot, 0.0, 3.0, None, None)
        assert shots == len(calls) == 3
        assert root == calls[-1]

    def test_slope_is_the_secant_to_the_nearest_informative_shot(self):
        # 0.1 lies in the sentinel region; the residual's slope is 1 at the
        # root and 2 on the secant to the far end 2.0
        shot, calls = self.recorded(lambda v: (v - 1.0) * v if v >= 0.999 else -10.0)
        memo = {}
        root, _ = _shoot(shot, 0.1, 2.0, None, None, memo=memo)
        nearest = min(
            (v for v in calls if v >= 0.999 and abs((v - 1.0) * v - memo[root]) >= 1e-8),
            key=lambda v: abs(v - root),
        )
        slope = _slope(memo, root)
        assert slope == pytest.approx(nearest, rel=1e-6)  # secant of (v-1)v through 1
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_slope_is_none_without_an_informative_shot(self):
        # both seeds are sentinels, and so are the splits before the first
        # real shot, which lands inside the probe stop
        shot, calls = self.recorded(
            lambda v: -10.0 if v < 1.0 else (5e-8 if v <= 1.5 else 10.0)
        )
        memo = {}
        root, shots = _shoot(shot, 0.1, 2.0, None, None, memo=memo)
        assert calls == [2.0, 0.1, math.sqrt(0.2), math.sqrt(math.sqrt(0.2) * 2.0), root]
        assert 1.0 <= root <= 1.5 and shots == 5
        assert _slope(memo, root) is None

    def test_split_on_a_bracket_end_is_a_divergence(self):
        # a sentinel beside a real end one ulp away: the split rounds onto
        # an end, so the bracket cannot shrink, and the residual jumps there
        hi = math.nextafter(1.0, 2.0)
        shot, calls = self.recorded(lambda v: 1.0 if v >= hi else -10.0)
        with pytest.raises(ShootingDivergence, match="jumps") as err:
            _shoot(shot, 1.0, hi, None, None)
        assert calls == [hi, 1.0]
        assert err.value.diagnostics == {
            "bracket": [1.0, hi], "residuals": [-10.0, 1.0], "shots": 2,
        }

    def test_brent_without_convergence_is_a_divergence(self, monkeypatch):
        # a bracket of real ends that Brent's method may not close in time
        monkeypatch.setattr(sonic_flow.integrator, "_BRENT_MAXITER", 2)
        shot, calls = self.recorded(lambda v: math.atan(v - 1.3))
        with pytest.raises(ShootingDivergence, match="did not converge") as err:
            _shoot(shot, 0.0, 2.0, None, None)
        assert len(calls) == 4  # the two ends and one shot per iteration
        assert err.value.diagnostics == {
            "bracket": [0.0, 2.0], "residuals": [math.atan(-1.3), math.atan(0.7)], "shots": 4,
        }

    @staticmethod
    def polished(residual, v, slope, lands=lambda v: True):
        """`_polish` of a fine shot with ``residual``, whose data is None
        where ``lands`` is false; its result and the launch values shot."""
        calls = []

        def shot_fine(u):
            calls.append(u)
            return residual(u), ("data" if lands(u) else None)

        return _polish(shot_fine, v, slope), calls

    def test_polish_secant_steps_after_the_newton_step(self):
        # a slope twice the true one: the Newton step goes half way, and the
        # secant through both shots lands
        got, calls = self.polished(lambda u: u - 1.0, 2.0, 2.0)
        assert calls == [2.0, 1.5, 1.0] and got == (1.0, 0.0, "data")

    def test_polish_stops_where_the_secant_is_flat(self):
        got, calls = self.polished(lambda u: 0.5, 2.0, 1.0)
        assert calls == [2.0, 1.5] and got == (1.5, 0.5, "data")

    def test_polish_keeps_the_last_shot_with_data(self):
        # the secant step leaves the launch domain: its shot has no data
        got, calls = self.polished(lambda u: u - 1.0, 2.0, 2.0, lands=lambda u: u > 1.2)
        assert calls == [2.0, 1.5, 1.0] and got == (1.5, 0.5, "data")

    def test_polish_starts_from_the_newton_prediction(self, monkeypatch):
        started = []

        def polish(shot_fine, v, slope):
            started.append((v, slope))
            return v, 0.0, "data"

        monkeypatch.setattr(sonic_flow.solvers, "_polish", polish)
        probes = []

        def shot(v, cfg):
            probes.append(v)
            return math.atan(v - 1.0) + 0.1 * (v - 1.0) ** 2, "data"

        _shoot_polish_land(shot, IntegratorConfig(), 0.5, 3.0, None, None, "no landing")
        memo = {v: math.atan(v - 1.0) + 0.1 * (v - 1.0) ** 2 for v in probes}
        root = probes[-1]
        assert 0.0 < abs(memo[root]) <= 1e-7
        slope = _slope(memo, root)
        assert started == [(root - memo[root] / slope, slope)]

    @staticmethod
    def fine_residuals(solve, monkeypatch):
        """The solution, and the residual of each fine shot `_polish` makes."""
        residuals = []
        polish = sonic_flow.solvers._polish

        def counted(shot_fine, v, slope):
            def shot(u):
                r, data = shot_fine(u)
                residuals.append(r)
                return r, data

            assert slope is not None
            return polish(shot, v, slope)

        monkeypatch.setattr(sonic_flow.solvers, "_polish", counted)
        return solve(), residuals

    @pytest.mark.parametrize(
        "family", ["subsonic", "supersonic", "sine_supersonic", "transonic_shock"]
    )
    def test_polish_makes_two_fine_shots(self, family, monkeypatch):
        # inputs whose first fine shot misses by more than the polish accepts
        # (1e-10), although the probes end at 1e-10; the slope step then lands
        # within 1e-12
        def sine(tau, b, amplitude):
            return ModelParams(tau=tau, doping=DopingProfile.sine_perturbed(b, amplitude))

        solve = {
            "subsonic": lambda: solve_subsonic_shooting(sine(20.0, 1.5, 0.1)),
            "supersonic": lambda: solve_supersonic(params(5.0, 1.3)),
            "sine_supersonic": lambda: solve_supersonic(sine(1.0, 1.25, 0.15)),
            "transonic_shock": lambda: solve_transonic_shock(params(50.0, 1.4), 0.97),
        }[family]
        sol, residuals = self.fine_residuals(solve, monkeypatch)
        assert len(residuals) == 2 and abs(residuals[0]) > 1e-10
        assert sol.diagnostics["boundary_residual"] == abs(residuals[1]) <= 1e-12

    @pytest.mark.parametrize("family", [
        "subsonic", "sine_subsonic", "sine_supersonic", "shock", "supersonic", "shock_95",
    ])
    def test_first_fine_shot_lands(self, family, p_main, p_shock, monkeypatch):
        # the probes that end the search, at 1e-10, predict the root well
        # enough that the first fine shot lands within the polish's 1e-10: no
        # second shot.  The supersonic fixture and the shock at rho_l 0.95
        # took a second one while the probes ended at 1e-9
        solve = {
            "subsonic": lambda: solve_subsonic_shooting(p_main),
            "sine_subsonic": lambda: solve_subsonic_shooting(
                ModelParams(tau=5.0, doping=DopingProfile.sine_perturbed(1.6, 0.3))
            ),
            "sine_supersonic": lambda: solve_supersonic(P_SINE_SUPERSONIC),
            "shock": lambda: solve_transonic_shock(p_shock, 0.9),
            "supersonic": lambda: solve_supersonic(p_main),
            "shock_95": lambda: solve_transonic_shock(p_shock, 0.95),
        }[family]
        sol, residuals = self.fine_residuals(solve, monkeypatch)
        assert len(residuals) == 1
        assert sol.diagnostics["boundary_residual"] == abs(residuals[0]) <= 1e-10

    @pytest.mark.parametrize("fixture,budget", [
        ("subsonic_sol", 8), ("supersonic_sol", 5), ("shock_sol", 8), ("c1_sol", 9),
    ])
    def test_shot_budget_per_family(self, fixture, budget, request):
        assert request.getfixturevalue(fixture).diagnostics["shooting_iterations"] <= budget


class TestProbeSchedule:
    def test_tolerance_follows_the_best_residual(self):
        cfg = IntegratorConfig()
        assert _probe_cfg(cfg, None).rel_tol == 1e-5  # nothing real shot yet
        assert _probe_cfg(cfg, 1.0).rel_tol == 1e-5
        assert _probe_cfg(cfg, 1e-2).rel_tol == pytest.approx(1e-7, rel=1e-12)
        assert _probe_cfg(cfg, 1e-4).rel_tol == 1e-10
        assert _probe_cfg(cfg, 0.0).rel_tol == 1e-10
        # abs_tol keeps its ratio to rel_tol; every other field is the caller's
        probe = _probe_cfg(IntegratorConfig(max_step=0.01), 1e-2)
        assert probe.abs_tol == pytest.approx(1e-2 * probe.rel_tol, rel=1e-12)
        assert probe.max_step == 0.01
        # a caller's rel_tol tighter than 1e-10 is the floor
        assert _probe_cfg(IntegratorConfig(rel_tol=1e-11), 0.0).rel_tol == 1e-11

    @pytest.mark.parametrize("family", ["subsonic", "supersonic", "transonic_shock", "c1_transonic"])
    def test_probes_tighten_as_the_residual_falls(self, family, p_main, p_shock, p_smooth,
                                                  monkeypatch):
        # every probe integrates at the schedule of the best real residual
        # shot before it in its search; the probe that ends it, at 1e-10
        shots = []
        name = "_shock_shot" if family == "transonic_shock" else "_wall_shot"
        shoot = getattr(sonic_flow.solvers, name)

        def recorded(*args):
            r, data = shoot(*args)
            cfg = args[3] if family == "transonic_shock" else args[4]
            shots.append((cfg.rel_tol, r))
            return r, data

        monkeypatch.setattr(sonic_flow.solvers, name, recorded)
        solve = {
            "subsonic": lambda: solve_subsonic_shooting(p_main),
            "supersonic": lambda: solve_supersonic(p_main),
            "transonic_shock": lambda: solve_transonic_shock(p_shock, 0.9),
            "c1_transonic": lambda: solve_c1_transonic(p_smooth, 0.5),
        }[family]
        solve()
        searches, best, fine = [], None, True
        for tol, r in shots:
            if tol == 1e-12:  # a fine shot ends the search
                best, fine = None, True
                continue
            if fine:
                searches.append([])
                fine = False
            searches[-1].append(tol)
            assert tol == _probe_cfg(IntegratorConfig(), best).rel_tol
            if abs(r) < 10.0:
                best = abs(r) if best is None else min(best, abs(r))
        assert len(searches) == (2 if family == "c1_transonic" else 1)
        for tols in searches:
            assert tols[0] == 1e-5 and tols[-1] == 1e-10
            assert tols == sorted(tols, reverse=True)

    def test_only_kept_or_tight_supersonic_arcs_are_split(self, supersonic_sol, p_main,
                                                          monkeypatch):
        # a supersonic probe looser than 1e-9 runs through its density
        # minimum in one kernel run; at 1e-9 and finer the arc is split there
        runs = []
        kernel = sonic_flow.integrator.solve_ivp

        def counted(*args, **kwargs):
            runs.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(sonic_flow.integrator, "solve_ivp", counted)
        q = supersonic_sol.diagnostics["launch_excess"]
        for rel_tol, split in ((1e-5, False), (1e-8, False), (1e-9, True), (1e-10, True)):
            runs.clear()
            r, seg = _wall_shot("supersonic", q, 1.0, p_main,
                                IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-2 * rel_tol))
            assert seg is not None and abs(r) < 1e-4
            assert len(runs) == (2 if split else 1)
        # the kept arc has its minimum as a row
        k = int(np.argmin(supersonic_sol.rho))
        assert supersonic_sol.diagnostics["rho_min"] == supersonic_sol.rho[k]


@pytest.mark.parametrize("family", ["subsonic", "supersonic", "transonic_shock", "c1_transonic"])
def test_two_solves_give_identical_rows(family, p_main, p_shock, p_smooth):
    # the schedule is a function of the search's own shots: nothing else
    # moves a launch or a row
    solve = {
        "subsonic": lambda: solve_subsonic_shooting(p_main),
        "supersonic": lambda: solve_supersonic(p_main),
        "transonic_shock": lambda: solve_transonic_shock(p_shock, 0.9),
        "c1_transonic": lambda: solve_c1_transonic(p_smooth, 0.5),
    }[family]
    a, b = solve(), solve()
    for u, v in ((a.x, b.x), (a.rho, b.rho), (a.e, b.e)):
        assert u.tobytes() == v.tobytes()
    assert a.diagnostics == b.diagnostics


# ---------------------------------------------------------------------------
# output resolution and integration work


def _reference_landing_shot(side, q_launch, p, cfg, n_stop=1e-4):
    """The C1 branch shot before the slow-manifold closure: run to |rho - 1| = n_stop."""
    if side == "supersonic":
        return integrate_from_sonic(
            0.0, "supersonic", p.inv_tau + q_launch, "forward",
            [TargetDensity(1.0 - n_stop, direction=+1), DomainEnd(3.0)], p, cfg,
        )
    return integrate_from_sonic(
        1.0, "subsonic", p.inv_tau + q_launch, "backward",
        [TargetDensity(1.0 + n_stop, direction=+1), DomainEnd(-2.0)], p, cfg,
    )


def _reference_landing_fit(seg, side, p, n_stop=1e-4):
    """The landing fit the closure replaced: cubics in n over the arc's tail.

    Rows with n_stop <= |rho - 1| <= 10 n_stop on the landing half of the
    arc give x, and F = E - 1/(tau rho), at n = 0; returns (x_hat, slope,
    e_hat), or None with fewer than 8 such rows.
    """
    n = seg.rhos - 1.0
    absn = np.abs(n)
    win = (absn >= n_stop * (1.0 - 1e-12)) & (absn <= 10.0 * n_stop)
    middle = seg.xs[len(seg.xs) // 2]
    win &= (seg.xs >= middle) if side == "supersonic" else (seg.xs <= middle)
    if np.count_nonzero(win) < 8:
        return None
    t = n[win] / n_stop
    x_fit = np.polynomial.polynomial.polyfit(t, seg.xs[win], 3)
    f_fit = np.polynomial.polynomial.polyfit(t, seg.es[win] - p.inv_tau / seg.rhos[win], 3)
    return float(x_fit[0]), n_stop / float(x_fit[1]), p.inv_tau + float(f_fit[0])


def _gaps_ok(x, spacing):
    # a shock's abscissa appears twice, once on each side of the jump
    gaps = np.diff(x)
    return bool(np.all(gaps >= 0) and gaps.max() <= spacing * (1 + 1e-9))


_RHS_BUDGETS = {
    "subsonic": 1680, "supersonic": 1230, "sine_supersonic": 1480,
    "transonic_shock": 1630, "c1_transonic": 2810,
}


class TestOutputResolution:
    @pytest.mark.parametrize(
        "fixture", ["subsonic_sol", "supersonic_sol", "shock_sol", "shock_sol_95"]
    )
    def test_rows_at_most_5e4_apart(self, fixture, request):
        assert _gaps_ok(request.getfixturevalue(fixture).x, 5e-4)

    def test_rows_are_not_over_read(self, subsonic_sol):
        # rows read off steps of about 100 spacings stay within the spacing,
        # in x and in rho relative to max(rho, 1), and close to it: not cut
        # once into equal parts in s and then halved
        x, rho = subsonic_sol.x, subsonic_sol.rho
        scale = np.maximum(np.maximum(rho[1:], rho[:-1]), 1.0)
        gap = np.maximum(np.abs(np.diff(x)), np.abs(np.diff(rho)) / scale)
        assert gap.max() <= 5e-4 * (1 + 1e-9)
        assert np.median(gap) >= 0.9 * 5e-4

    def test_c1_branch_rows_at_most_5e4_apart(self, c1_sol):
        # the rows from where each branch joins the slow manifold are the
        # manifold's, up to the glue point x0, and spaced like the kernel's
        x0 = c1_sol.transition.x0
        i = int(np.nonzero(c1_sol.x == x0)[0][0])
        assert _gaps_ok(c1_sol.x[:i], 5e-4) and _gaps_ok(c1_sol.x[i + 1:], 5e-4)
        assert _gaps_ok(c1_sol.x[i - 1:i + 2], 5e-4)  # across x0
        rho = c1_sol.rho
        scale = np.maximum(np.maximum(rho[1:], rho[:-1]), 1.0)
        assert (np.abs(np.diff(rho)) / scale).max() <= 5e-4 * (1 + 1e-9)

    @staticmethod
    def kernel_nfev(family, p_main, p_shock, p_smooth, monkeypatch):
        """The nfev of every kernel run of the fixture solve of `family`."""
        nfev = []
        kernel = sonic_flow.integrator.solve_ivp

        def counted(*args, **kwargs):
            res = kernel(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        monkeypatch.setattr(sonic_flow.integrator, "solve_ivp", counted)
        if family == "subsonic":
            solve_subsonic_shooting(p_main)
        elif family == "supersonic":
            solve_supersonic(p_main)
        elif family == "sine_supersonic":
            solve_supersonic(P_SINE_SUPERSONIC)
        elif family == "transonic_shock":
            solve_transonic_shock(p_shock, 0.9)
        else:
            solve_c1_transonic(p_smooth, 0.5)
        return nfev

    # about 10% over the counts with probes on the tolerance schedule:
    # 1530, 1117, 1348, 1481 and 2555 RHS evaluations (1974, 2092, 1848,
    # 2105 and 4312 with every probe at 1e-9)
    @pytest.mark.parametrize("family", list(_RHS_BUDGETS))
    def test_rhs_evaluation_budget(self, family, p_main, p_shock, p_smooth, monkeypatch):
        nfev = self.kernel_nfev(family, p_main, p_shock, p_smooth, monkeypatch)
        assert sum(nfev) <= _RHS_BUDGETS[family]

    # a probe that reaches the sonic line lands on it in the run that crossed
    # the bulk: no run starts 1e-6 short of the line.  A supersonic probe
    # looser than 1e-9 is not split at its density minimum, and C1 takes one
    # fine shot per branch
    @pytest.mark.parametrize("family,runs", [
        ("subsonic", 9), ("supersonic", 8), ("sine_supersonic", 8),
        ("transonic_shock", 16), ("c1_transonic", 22),
    ])
    def test_kernel_runs_per_solve(self, family, runs, p_main, p_shock, p_smooth, monkeypatch):
        assert len(self.kernel_nfev(family, p_main, p_shock, p_smooth, monkeypatch)) == runs

    def test_c1_probe_keeps_landing_rows(self, c1_sol, p_smooth):
        # a probe shot to the fitted tail, at the default step cap, at the
        # accepted launch: its step ends within 1e-2 of the sonic line stay
        # at most 1e-2 apart in x, and the landing fit finds at least its 8
        # rows in 1e-4 <= |rho - 1| <= 1e-3
        q = c1_sol.diagnostics["sup_launch_field"] - p_smooth.inv_tau
        seg = _reference_landing_shot("supersonic", q, p_smooth, IntegratorConfig())
        assert seg.terminator.kind == "target_density"
        n = np.abs(seg.rhos - 1.0)
        in_band = (n[1:] < 1e-2) & (n[:-1] < 1e-2)
        assert np.abs(np.diff(seg.xs))[in_band].max() <= 1e-2 * (1 + 1e-9)
        assert _reference_landing_fit(seg, "supersonic", p_smooth) is not None

    def test_c1_probe_reads_the_graded_grid(self, c1_sol, p_smooth):
        # probe rows are the step ends, up to where the arc joins the slow
        # manifold; a sample spacing of 1e-2 keeps each of them and reads
        # rows off exactly the steps wider than that
        q = c1_sol.diagnostics["sup_launch_field"] - p_smooth.inv_tau
        node = node_slow_manifold(1.5, p_smooth.tau)
        _, probe = _wall_shot("supersonic", q, 0.5, p_smooth, IntegratorConfig(), node)
        _, graded = _wall_shot(
            "supersonic", q, 0.5, p_smooth, IntegratorConfig(sample_spacing=1e-2), node
        )

        def rows(seg):
            return list(zip(seg.xs.tolist(), seg.rhos.tolist(), seg.es.tolist()))

        def gap(u, v):
            return max(abs(v[0] - u[0]), abs(v[1] - u[1]) / max(abs(u[1]), abs(v[1]), 1.0))

        ends, graded_rows = rows(probe), rows(graded)
        at = [graded_rows.index(r) for r in ends]  # each step end, in order
        assert at[0] == 0 and at[-1] == len(graded_rows) - 1 and at == sorted(at)
        read = [(j - i > 1, gap(u, v) > 1e-2)
                for i, j, u, v in zip(at, at[1:], ends, ends[1:])]
        assert all(inner == wide for inner, wide in read) and any(wide for _, wide in read)
        assert max(gap(u, v) for u, v in zip(graded_rows, graded_rows[1:])) <= 1e-2 * (1 + 1e-9)

    @pytest.mark.parametrize("side", ["supersonic", "subsonic"])
    def test_c1_shot_goes_deeper_until_it_joins(self, c1_sol, p_smooth, side):
        # a ratio mu taken far too large puts the first stop at 0.9 of the
        # extremum's offset, before the arc has joined the manifold; the
        # guard sends it on to half that offset, where it has
        key = "sup_launch_field" if side == "supersonic" else "sub_launch_field"
        q = abs(c1_sol.diagnostics[key] - p_smooth.inv_tau)
        cfg = sonic_flow.solvers._fine(IntegratorConfig())
        node = node_slow_manifold(1.5, p_smooth.tau)
        _, seg = _wall_shot(side, q, 0.5, p_smooth, cfg, node)
        late = dataclasses.replace(node, mu=1e9)
        _, deep = _wall_shot(side, q, 0.5, p_smooth, cfg, late)
        assert deep is not None
        n_e = (seg.rhos.min() if side == "supersonic" else seg.rhos.max()) - 1.0
        assert deep.rhos[-1] - 1.0 == pytest.approx(0.45 * n_e, rel=1e-9)
        x_hat = _landing_x(seg.last, node, p_smooth.inv_tau)
        assert _landing_x(deep.last, node, p_smooth.inv_tau) == pytest.approx(x_hat, abs=1e-10)

    def test_c1_shot_that_never_joins_is_short(self, c1_sol, p_smooth):
        # against a manifold that misses the node by 1e-3 in E the guard
        # never passes: the arc goes on by halves until it sinks into the
        # node, short of a landing
        q = c1_sol.diagnostics["sup_launch_field"] - p_smooth.inv_tau
        node = node_slow_manifold(1.5, p_smooth.tau)
        wrong = dataclasses.replace(node, a=(1e-3,) + node.a[1:])
        assert _wall_shot("supersonic", q, 0.5, p_smooth, IntegratorConfig(), wrong) == (
            -10.0, None
        )

    @pytest.mark.parametrize("side", ["supersonic", "subsonic"])
    @pytest.mark.parametrize("b,tau,x0", [
        (1.5, 0.1, 0.5), (1.2, 0.15, 0.3), (1.9, 0.05, 0.6), (1.66, 0.13, 0.7),
    ])
    def test_c1_closure_matches_the_fitted_tail(self, side, b, tau, x0):
        # the landing closed by quadrature along the slow manifold, against
        # the cubic fit to the tail of the same launch run to |rho - 1| = 1e-4,
        # both at output resolution
        p = params(tau, b)
        sol = solve_c1_transonic(p, x0)
        key = "sup_launch_field" if side == "supersonic" else "sub_launch_field"
        q = sol.diagnostics[key] - p.inv_tau
        cfg = sonic_flow.solvers._fine(IntegratorConfig())
        node = node_slow_manifold(b, tau)
        r, seg = _wall_shot(side, abs(q), x0, p, cfg, node)
        assert seg is not None and seg.terminator.kind == "target_density"
        x_hat = _landing_x(seg.last, node, p.inv_tau)
        # the residual rises with the launch excess on both sides
        assert r == (x_hat - x0 if side == "supersonic" else x0 - x_hat)
        fit = _reference_landing_fit(_reference_landing_shot(side, q, p, cfg), side, p)
        assert abs(x_hat - fit[0]) <= 5e-8
        assert abs(x_hat - x0) <= 1e-10
        # the joined arc stops short of the old tail's window, well away
        # from the node, where the kernel's steps are held by stiffness
        assert abs(seg.rhos[-1] - 1.0) > 1e-3

    @pytest.mark.parametrize("side", ["supersonic", "subsonic"])
    @pytest.mark.parametrize("b,tau,x0", [
        (1.5, 0.1, 0.5), (1.2, 0.15, 0.3), (1.9, 0.05, 0.6), (1.66, 0.13, 0.7),
    ])
    def test_c1_landing_is_first_order_in_the_join_offset(self, side, b, tau, x0):
        # a probe and a fine shot at the accepted launch join the manifold at
        # different offsets; with the offset's shift of the landing,
        # delta / (b - 1), they land within 5e-9 of each other (up to 1e-7
        # apart without it)
        p = params(tau, b)
        sol = solve_c1_transonic(p, x0)
        key = "sup_launch_field" if side == "supersonic" else "sub_launch_field"
        q = sol.diagnostics[key] - p.inv_tau
        node = node_slow_manifold(b, tau)
        landings = []
        for cfg in (IntegratorConfig(), sonic_flow.solvers._fine(IntegratorConfig())):
            _, seg = _wall_shot(side, abs(q), x0, p, cfg, node)
            assert seg is not None
            landings.append(_landing_x(seg.last, node, p.inv_tau))
        assert abs(landings[0] - landings[1]) <= 5e-9

    @pytest.mark.parametrize("family", ["subsonic", "supersonic", "transonic_shock"])
    def test_probe_ends_as_at_graded_rows(self, family, request):
        # a probe shot at the accepted launch stores its step ends only, and
        # ends on the same floats as a shot reading the graded density grid
        if family == "subsonic":
            p, sol = request.getfixturevalue("p_main"), request.getfixturevalue("subsonic_sol")
            q = sol.diagnostics["launch_excess"]
            shot = lambda cfg: _wall_shot("subsonic", q, 0.0, p, cfg)
        elif family == "supersonic":
            p, sol = request.getfixturevalue("p_main"), request.getfixturevalue("supersonic_sol")
            q = sol.diagnostics["launch_excess"]
            shot = lambda cfg: _wall_shot("supersonic", q, 1.0, p, cfg)
        else:
            p, sol = request.getfixturevalue("p_shock"), request.getfixturevalue("shock_sol")
            e0 = sol.diagnostics["e0"]
            shot = lambda cfg: _shock_shot(e0, 0.9, p, cfg)
        r_probe, probe = shot(IntegratorConfig())
        r_graded, graded = shot(IntegratorConfig(sample_spacing=1e-2))
        probe = probe if isinstance(probe, tuple) else (probe,)
        graded = graded if isinstance(graded, tuple) else (graded,)
        assert r_probe == r_graded
        for a, b in zip(probe, graded, strict=True):
            assert a.terminator == b.terminator
            assert len(a.xs) < len(b.xs)


class TestRowPasses:
    # a solve reads the rows of the arcs it keeps, once each, in one
    # `_read_rows` pass per arc; probe shots and the fine shots the polish
    # rejects read none
    @staticmethod
    def passes(monkeypatch):
        """The `_read_rows` passes made from now on, as their record counts."""
        calls = []
        read = integrator._read_rows

        def counted(rec, spacing, cols):
            calls.append(len(rec) // integrator._REC)
            return read(rec, spacing, cols)

        monkeypatch.setattr(integrator, "_read_rows", counted)
        return calls

    @pytest.mark.parametrize("family,kept,fine", [
        ("subsonic", 1, 2), ("supersonic", 1, 2), ("transonic_shock", 2, 2), ("c1_transonic", 2, 4),
    ])
    def test_one_pass_per_kept_arc(self, family, kept, fine, monkeypatch):
        # inputs whose first fine shot misses, so the polish rejects it: C1's
        # does on both branches
        solve = {
            "subsonic": lambda: solve_subsonic_shooting(
                ModelParams(tau=2.0, doping=DopingProfile.sine_perturbed(1.8, 0.1))
            ),
            "supersonic": lambda: solve_supersonic(params(5.0, 1.3)),
            "transonic_shock": lambda: solve_transonic_shock(params(50.0, 1.4), 0.97),
            "c1_transonic": lambda: solve_c1_transonic(params(0.1, 1.3), 0.5),
        }[family]
        calls = self.passes(monkeypatch)
        sol, residuals = TestShootDriver.fine_residuals(solve, monkeypatch)
        assert len(residuals) == fine
        assert len(calls) == kept and min(calls) > 0
        assert sol.diagnostics["shooting_iterations"] > 1

    def test_shots_read_no_rows_until_read(self, p_main, p_shock, subsonic_sol, shock_sol,
                                           monkeypatch):
        calls = self.passes(monkeypatch)
        fine = sonic_flow.solvers._fine(IntegratorConfig())
        q = subsonic_sol.diagnostics["launch_excess"]
        _, probe = _wall_shot("subsonic", q, 0.0, p_main, IntegratorConfig())
        r, seg = _wall_shot("subsonic", q, 0.0, p_main, fine)
        r_shock, (sup, sub) = _shock_shot(shock_sol.diagnostics["e0"], 0.9, p_shock, fine)
        assert calls == []
        for arc in (probe, seg, sup, sub):
            assert arc.last == arc.terminator.state
        assert r == -seg.last.x and r_shock == sub.last.x - 1.0
        assert calls == []
        # the first read reads the whole arc, the next ones nothing
        assert seg.xs[-1] == seg.last.x and seg.rhos[-1] == 1.0
        assert len(seg.rhos) == len(seg.es) == len(seg.xs) and len(calls) == 1
        assert sub.xs[0] == sup.xs[-1] == sup.last.x and len(calls) == 3
        assert probe.xs[-1] == probe.last.x and len(calls) == 3  # no wide steps


@pytest.mark.parametrize("solve", [solve_subsonic_shooting, solve_supersonic],
                         ids=["subsonic", "supersonic"])
@pytest.mark.parametrize("doping", [
    DopingProfile.sine_perturbed(1.5, 0.05),
    DopingProfile.tabulated([0.0, 0.3, 1.0], [1.2, 1.9, 1.4]),
], ids=["sine", "tabulated"])
def test_shooting_certifies_on_variable_doping(doping, solve):
    # tabulated doping is the one kind the field reads through the profile's
    # own call, once per stage
    p = ModelParams(tau=15.0, doping=doping)
    sol = solve(p)
    assert residual_norm(sol, p)[0] < 1e-6
    assert abs(sol.rho[0] - 1.0) <= 1e-6 and abs(sol.rho[-1] - 1.0) <= 1e-6


class TestPiecewiseDoping:
    # a jump at 0.5 that the residual probe read as a 6.3e-7 defect there,
    # after 29 probe shots, while steps ran across it
    p = ModelParams(
        tau=10.61367011339821,
        doping=DopingProfile.piecewise_constant(
            [0.5], [1.515614998344564, 1.0800736960449766]
        ),
    )

    def test_subsonic_certifies_with_rows_on_the_jump(self):
        sol = solve_subsonic_shooting(self.p)
        assert residual_norm(sol, self.p)[0] < 1e-7
        assert sol.diagnostics["shooting_iterations"] <= 16
        assert 0.5 in sol.x

    def test_supersonic_certifies_with_rows_on_the_jump(self):
        # shooting on the interior minimum failed here: at its bracket end
        # rho_min = 0.98 the forward half-arc stalled instead of landing
        p = ModelParams(
            tau=1.2286643843647187,
            doping=DopingProfile.piecewise_constant(
                [0.5], [1.0828340905445146, 1.6028020707984527]
            ),
        )
        sol = solve_supersonic(p)
        assert residual_norm(sol, p)[0] < 1e-6
        assert 0.5 in sol.x


# ---------------------------------------------------------------------------
# typed or certified across the stated parameter space


class TestLaunchDomain:
    @pytest.mark.parametrize("b,tau", [(1.3, 0.2), (1.1, 0.3), (0.9, 0.4)])
    def test_shock_bracket_never_inverted(self, b, tau):
        # the deep seed falls below the lower seed 1/tau + 4e-6 here
        p = params(tau, b)
        lo, hi = sonic_flow.solvers._shock_bracket(0.9, p)
        assert p.inv_tau < lo < hi
        with pytest.raises(SonicFlowError):
            solve_transonic_shock(p, 0.9)

    def test_shots_outside_the_launch_domain_have_no_data(self, p_main, p_shock):
        # what a polish secant step below the launch floor reads
        assert _wall_shot("supersonic", -0.189, 1.0, p_main, IntegratorConfig()) == (-10.0, None)
        assert _wall_shot("subsonic", 1e-6, 0.0, p_main, IntegratorConfig()) == (-10.0, None)
        assert _shock_shot(p_shock.inv_tau, 0.9, p_shock, IntegratorConfig()) == (-10.0, None)

    def test_polish_stays_in_the_launch_domain(self, monkeypatch):
        # its probe residual jumps from about -0.33 to +0.53 across the
        # root, where the polish secant once stepped to a launch excess of
        # -0.189; the jump now fails the probe search, before any polish.
        # Brent's method closes the bracket only to the probe stop's
        # resolution: 29 shots, where closing it to 1e-15 took 51
        def polish(*args):
            raise AssertionError("the polish ran on a jump")

        monkeypatch.setattr(sonic_flow.solvers, "_polish", polish)
        p = ModelParams(tau=6.59, doping=DopingProfile.sine_perturbed(0.959, 0.158))
        with pytest.raises(ShootingDivergence, match="jumps") as err:
            solve_supersonic(p)
        d = err.value.diagnostics
        assert d["residuals"][0] < -1e-6 and d["residuals"][1] > 1e-6
        assert 0.0 < d["bracket"][1] - d["bracket"][0] <= 1e-8 and d["shots"] <= 30


_FAMILY_TOL = {
    "sonic": 1e-6, "subsonic": 1e-6, "supersonic": 1e-6, "transonic_shock": 1e-6,
    "c1_transonic": 1e-6,
}


def _doping(kind, b, u):
    if kind == "constant":
        return DopingProfile.constant(b)
    if kind == "sine":
        return DopingProfile.sine_perturbed(b, 0.2 * b * (u - 0.5))
    return DopingProfile.piecewise_constant([0.5], [b, 0.3 + 2.7 * u])


class TestTypedOrCertified:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(sorted(_FAMILY_TOL)),
        gamma=st.sampled_from([1.0, 1.0, 1.4, 2.0]),
        log_tau=st.floats(math.log(0.02), math.log(80.0)),
        doping=st.sampled_from(["constant", "sine", "piecewise"]),
        b=st.floats(0.3, 3.0),
        u=st.floats(0.0, 1.0),
        x0=st.floats(0.05, 0.95),
        rho_l=st.floats(0.5, 0.98),
    )
    def test_every_solve_certifies_or_raises_typed(
        self, kind, gamma, log_tau, doping, b, u, x0, rho_l
    ):
        p = ModelParams(tau=math.exp(log_tau), doping=_doping(doping, b, u), gamma=gamma)
        solve = {
            "sonic": solve_sonic,
            "subsonic": solve_subsonic_shooting,
            "supersonic": solve_supersonic,
            "transonic_shock": lambda p: solve_transonic_shock(p, rho_l),
            "c1_transonic": lambda p: solve_c1_transonic(p, x0),
        }[kind]
        try:
            sol = solve(p)
        except SonicFlowError:
            return
        assert residual_norm(sol, p)[0] < _FAMILY_TOL[kind]

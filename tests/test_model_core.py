"""Unit tests for the model charts and closed-form quantities.

Golden values below were derived by hand from the defining formulas and are
frozen here on purpose; if an implementation change moves them, the
implementation is wrong.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonic_flow import (
    ComplexSlope,
    DopingProfile,
    EntropyViolation,
    ModelParams,
    NotConstantDoping,
    ShockData,
    SonicDoping,
    State,
    c1_transition_slope,
    critical_point_analysis,
    rh_jump,
    supersonic_min_density_bracket,
    tau0_bound,
    undamped_energy_potential,
    vector_field,
    xi_curve,
)
from sonic_flow.model_core import _series, node_slow_manifold, regime


def _params(tau, b, gamma=1.0):
    return ModelParams(tau=tau, doping=DopingProfile.constant(b), gamma=gamma)


def rhs_x(x, rho, e, p):
    """(d rho/dx, dE/dx): the model's vector field over its x rate."""
    dx, d_rho, d_e = vector_field(p)(0.0, x, rho, e)
    return d_rho / dx, d_e / dx


def rhs_rho(rho, e, x, p):
    """(dE/d rho, dx/d rho): the model's vector field over its density rate."""
    dx, d_rho, d_e = vector_field(p)(0.0, x, rho, e)
    return d_e / d_rho, dx / d_rho


# ---------------------------------------------------------------------------
# doping profiles


class TestDopingProfile:
    def test_constant(self):
        d = DopingProfile.constant(1.5)
        assert d(0.3) == 1.5
        assert d.b_lower == d.b_upper == 1.5
        assert d.is_constant and not d.is_sonic

    def test_breakpoints_are_the_jumps(self):
        d = DopingProfile.piecewise_constant([0.25, 0.5], [1.5, 1.2, 1.8])
        assert d.breakpoints == (0.25, 0.5)
        assert d(0.5) == 1.8 and d(math.nextafter(0.5, 0.0)) == 1.2
        assert DopingProfile.constant(1.5).breakpoints == ()
        assert DopingProfile.sine_perturbed(1.5, 0.2).breakpoints == ()
        assert DopingProfile.tabulated([0.0, 0.5, 1.0], [1.5, 1.2, 1.8]).breakpoints == ()

    def test_sonic_detection(self):
        assert DopingProfile.constant(1.0).is_sonic
        assert not DopingProfile.constant(1.0 + 1e-9).is_sonic

    def test_sine_bounds(self):
        d = DopingProfile.sine_perturbed(1.0, -0.2, 1.0)
        x = np.linspace(0, 1, 101)
        vals = d(x)
        assert d.b_lower - 1e-12 <= vals.min() and vals.max() <= d.b_upper + 1e-12
        assert d.b_lower == pytest.approx(0.8, abs=1e-6)
        assert not d.is_constant

    def test_sine_bounds_exact_at_high_frequency(self):
        # 4097 samples of 2048 periods alias to a nearly constant profile
        d = DopingProfile.sine_perturbed(1.5, 0.4, 2048)
        assert d.b_lower == 1.5 - 0.4 and d.b_upper == 1.5 + 0.4
        assert d(1.0 / 8192) == pytest.approx(1.9, abs=1e-12)

    @pytest.mark.parametrize("base,amplitude", [(1.0, -0.2), (1.6, 0.3), (1.5, 0.05)])
    def test_sine_bounds_exact_at_frequency_one(self, base, amplitude):
        d = DopingProfile.sine_perturbed(base, amplitude, 1.0)
        assert (d.b_lower, d.b_upper) == (base - abs(amplitude), base + abs(amplitude))

    @pytest.mark.parametrize("frequency", [0.1, 0.25, 0.6, -0.3, 2.5, 40.3, 1e200])
    def test_sine_bounds_match_dense_sampling(self, frequency):
        d = DopingProfile.sine_perturbed(1.5, 0.4, frequency)
        vals = d(np.linspace(0.0, 1.0, 400001))
        assert d.b_lower <= vals.min() <= d.b_lower + 1e-6
        assert d.b_upper - 1e-6 <= vals.max() <= d.b_upper

    def test_piecewise(self):
        d = DopingProfile.piecewise_constant([0.5], [2.0, 0.5])
        assert d(0.2) == 2.0 and d(0.7) == 0.5
        assert d.b_lower == 0.5 and d.b_upper == 2.0

    def test_tabulated_interpolates(self):
        d = DopingProfile.tabulated([0.0, 0.5, 1.0], [1.0, 2.0, 1.0])
        assert d(0.25) == pytest.approx(1.5)
        assert d.b_upper == 2.0

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            DopingProfile.constant(-1.0)
        with pytest.raises(ValueError):
            DopingProfile.piecewise_constant([0.5], [1.0, 0.0])

    def test_round_trip_dict(self):
        d = DopingProfile.sine_perturbed(1.2, 0.1, 2.0)
        d2 = DopingProfile.from_dict(d.to_dict())
        assert d2(0.37) == pytest.approx(d(0.37), abs=0)

    @pytest.mark.parametrize("d", [
        DopingProfile.sine_perturbed(1.6, 0.3, 1.0),
        DopingProfile.sine_perturbed(1.2, -0.1, 2.5),
        DopingProfile.piecewise_constant([0.3, 0.7], [1.5, 0.8, 2.0]),
    ], ids=["sine", "sine_f2.5", "piecewise"])
    def test_scalar_call_is_float_matching_array_call(self, d):
        for x in np.linspace(-0.05, 1.05, 221).tolist():
            v = d(x)
            assert type(v) is float
            assert v == d(np.array([x]))[0]

    @pytest.mark.parametrize("spec", [
        {"type": "constant", "value": float("nan")},
        {"type": "constant", "value": float("inf")},
        {"type": "sine", "base": 1.5, "amplitude": float("nan")},
        {"type": "sine", "base": 1.5, "amplitude": 0.1, "frequency": float("inf")},
        {"type": "piecewise", "breakpoints": [float("nan")], "values": [1.5, 2.0]},
        {"type": "piecewise", "breakpoints": [0.5], "values": [1.5, float("inf")]},
        {"type": "tabulated", "knots": [0.0, 1.0], "values": [1.5, float("nan")]},
        {"type": "tabulated", "knots": [0.0, float("nan"), 1.0], "values": [1.5, 1.6, 1.7]},
    ])
    def test_non_finite_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            DopingProfile.from_dict(spec)

    def test_sine_phase_overflow_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DopingProfile.sine_perturbed(1.5, 0.1, 1e308)

    @pytest.mark.parametrize("breakpoints, values, message", [
        ([0.5], [1.5], "one more value than breakpoints"),
        ([0.5], [1.5, 1.6, 1.7], "one more value than breakpoints"),
        ([0.0], [1.5, 1.6], "strictly inside"),
        ([1.0], [1.5, 1.6], "strictly inside"),
        ([0.6, 0.3], [1.5, 1.6, 1.7], "sorted"),
    ], ids=["count_short", "count_long", "range_at_0", "range_at_1", "order"])
    def test_piecewise_refuses_bad_breakpoints(self, breakpoints, values, message):
        DopingProfile.piecewise_constant([0.3, 0.6], [1.5, 1.6, 1.7])
        with pytest.raises(ValueError, match=message):
            DopingProfile.piecewise_constant(breakpoints, values)

    @pytest.mark.parametrize("knots, values, message", [
        ([0.0, 1.0], [1.5], "must match"),
        ([1.0], [1.5], "length >= 2"),
        ([0.0, 0.7, 0.3, 1.0], [1.5, 1.6, 1.7, 1.8], "sorted"),
        ([0.1, 1.0], [1.5, 1.6], "span"),
        ([0.0, 0.9], [1.5, 1.6], "span"),
    ], ids=["length_mismatch", "length_one", "order", "span_from_0", "span_to_1"])
    def test_tabulated_refuses_bad_knots(self, knots, values, message):
        DopingProfile.tabulated([0.0, 0.3, 1.0], [1.5, 1.6, 1.7])
        with pytest.raises(ValueError, match=message):
            DopingProfile.tabulated(knots, values)


# ---------------------------------------------------------------------------
# states


class TestStates:
    def test_regime_tags(self):
        assert regime(1.0) == "sonic"
        assert regime(1.2) == "subsonic"
        assert regime(0.8) == "supersonic"

    def test_positive_density_required(self):
        with pytest.raises(ValueError):
            State(0.0, -0.1, 0.0)

    @pytest.mark.parametrize("tau, gamma, message", [
        (0.0, 1.0, "tau"), (math.inf, 1.0, "tau"), (math.nan, 1.0, "tau"),
        (1.0, 0.9, "gamma"), (1.0, math.inf, "gamma"), (1.0, math.nan, "gamma"),
    ], ids=["tau_zero", "tau_inf", "tau_nan", "gamma_below_1", "gamma_inf", "gamma_nan"])
    def test_params_refuse_tau_or_gamma_out_of_range(self, tau, gamma, message):
        # solution.json and classify.json echo both, and JSON holds no Infinity
        with pytest.raises(ValueError, match=message):
            ModelParams(tau=tau, doping=DopingProfile.constant(1.5), gamma=gamma)

    @pytest.mark.parametrize("x0, rho_l, rho_r, error, message", [
        (0.0, 0.8, 1.25, ValueError, "interior"),
        (1.0, 0.8, 1.25, ValueError, "interior"),
        (0.5, 1.25, 0.8, EntropyViolation, "supersonic to subsonic"),
        (0.5, 0.8, 1.3, ValueError, "reciprocal"),
        # reciprocal within 1e-12, which leaves a momentum gap of 5e-10 at rho_l 1e-3
        (0.5, 1e-3, 1e3 * (1.0 + 5e-13), ValueError, "momentum"),
    ], ids=["x0_at_0", "x0_at_1", "jump_downward", "not_reciprocal", "momentum_not_conserved"])
    def test_shock_data_refuses_a_broken_jump(self, x0, rho_l, rho_r, error, message):
        ShockData(x0=0.5, rho_l=0.8, rho_r=1.25, e_jump=0.1)
        with pytest.raises(error, match=message):
            ShockData(x0=x0, rho_l=rho_l, rho_r=rho_r, e_jump=0.1)


# ---------------------------------------------------------------------------
# the vector field, and the slopes over x and over rho read off it


class TestRhsPrimal:
    def test_zero_at_equilibrium(self):
        p = _params(2.0, 1.5)
        d_rho, d_e = rhs_x(0.0, 1.5, 1.0 / (2.0 * 1.5), p)
        assert d_rho == pytest.approx(0.0, abs=1e-15)
        assert d_e == pytest.approx(0.0, abs=1e-15)

    def test_critical_locus_zero_slope(self):
        # rho*E = 1/tau with rho != b: density stationary, field not
        p = _params(1.0, 1.5)
        d_rho, d_e = rhs_x(0.3, 2.0, 0.5, p)
        assert d_rho == pytest.approx(0.0, abs=1e-15)
        assert d_e == pytest.approx(0.5)

    def test_sonic_guard(self):
        # the slopes over x are singular on the sonic line; the field in s
        # is regular there: x stalls while rho moves at rho*E - 1/tau
        p = _params(1.0, 1.5)
        with pytest.raises(ArithmeticError):
            rhs_x(0.0, 1.0, 0.3, p)
        assert vector_field(p)(0.0, 0.0, 1.0, 0.3) == (0.0, 0.3 - 1.0, -0.0)

    @pytest.mark.parametrize("tau,b", [(0.5, 1.5), (2.0, 0.5), (15.0, 2.0)])
    def test_equilibrium_family(self, tau, b):
        p = _params(tau, b)
        d_rho, d_e = rhs_x(0.1, b, 1.0 / (tau * b), p)
        assert abs(d_rho) < 1e-14 and abs(d_e) < 1e-14

    def test_isentropic_coefficient(self):
        # gamma = 2: coefficient rho - rho^-2
        p = _params(1.0, 1.5, gamma=2.0)
        d_rho, _ = rhs_x(0.0, 2.0, 1.0, p)
        assert d_rho == pytest.approx((2.0 - 1.0) / (2.0 - 0.25))


class TestRhsTransformed:
    """The (n, F) chart, n = rho - 1 and F = E - 1/(tau rho), read off the x-chart.

    n_x = rho_x and F_x = E_x + rho_x/(tau rho^2); the hand-derived chart is
    n_x = (1+n)^3 F / ((2+n) n), F_x = n + 1 - b + (1+n) F / (tau (2+n) n).
    """

    @staticmethod
    def _nf_rates(n, f, p):
        rho = 1.0 + n
        d_rho, d_e = rhs_x(0.0, rho, f + 1.0 / (p.tau * rho), p)
        return d_rho, d_e + d_rho / (p.tau * rho ** 2)

    def test_zero_at_saddle(self):
        p = _params(0.5, 1.5)
        d_n, d_f = self._nf_rates(0.5, 0.0, p)
        assert d_n == pytest.approx(0.0, abs=1e-15)
        assert d_f == pytest.approx(0.0, abs=1e-15)

    def test_zero_field_derivative_on_xi(self):
        p = _params(0.1, 1.5)
        f = xi_curve(0.25, p)
        assert f == pytest.approx(0.01125, abs=1e-15)
        _, d_f = self._nf_rates(0.25, f, p)
        assert d_f == pytest.approx(0.0, abs=1e-12)

    def test_chain_rule_against_primal(self):
        # same trajectory direction in either chart
        b = 1.2
        p = _params(2.0, b)
        s = State(0.4, 1.3, 0.2)
        n, f = s.rho - 1.0, s.e - 1.0 / (p.tau * s.rho)
        d_n = (1.0 + n) ** 3 * f / ((2.0 + n) * n)
        d_f = n + 1.0 - b + (1.0 + n) * f / (p.tau * (2.0 + n) * n)
        d_rho, d_e = rhs_x(s.x, s.rho, s.e, p)
        assert d_n == pytest.approx(d_rho, rel=1e-10)
        # F = E - 1/(tau rho) => F_x = E_x + rho_x/(tau rho^2)
        assert d_f == pytest.approx(d_e + d_rho / (p.tau * s.rho ** 2), rel=1e-10)


class TestRhsRhoIndependent:
    def test_flat_at_sonic_line(self):
        p = _params(15.0, 1.5)
        dedr, dxdr = rhs_rho(1.0, -0.5, 0.0, p)
        assert dedr == pytest.approx(0.0, abs=1e-15)
        assert dxdr == pytest.approx(0.0, abs=1e-15)

    def test_golden_value(self):
        p = _params(15.0, 1.5)
        dedr, dxdr = rhs_rho(0.8, -1.0, 0.0, p)
        assert dedr == pytest.approx(-0.45432692307692285, rel=1e-12)
        assert dxdr == pytest.approx(0.6490384615384612, rel=1e-12)

    def test_isentropic_golden_value(self):
        # gamma = 2: dx/drho = (rho - rho^-2)/(rho E - 1/tau) = 183/208
        p = _params(15.0, 1.5, gamma=2.0)
        dedr, dxdr = rhs_rho(0.8, -1.0, 0.0, p)
        assert dedr == pytest.approx(-1281.0 / 2080.0, rel=1e-12)
        assert dxdr == pytest.approx(183.0 / 208.0, rel=1e-12)

    def test_critical_guard(self):
        # the slopes over rho are singular on the critical locus instead
        p = _params(2.0, 1.5)
        with pytest.raises(ArithmeticError):
            rhs_rho(2.0, 0.25, 0.0, p)  # rho*E = 0.5 = 1/tau

    def test_variable_doping_reads_x(self):
        d = DopingProfile.sine_perturbed(1.5, 0.1)
        p = ModelParams(tau=2.0, doping=d)
        for x in (0.0, 0.25, 0.6):
            coef = 1.0 - 1.0 / (0.8 * 0.8)
            assert vector_field(p)(0.0, x, 0.8, -1.0)[2] == (0.8 - d(x)) * coef

    @pytest.mark.parametrize("base,amp,freq", [(1.5, 0.1, 1.0), (1.2, -0.1, 2.5)])
    def test_sine_doping_read_bit_for_bit(self, base, amp, freq):
        # the field reads sine doping through its own plain-float closure;
        # at rho = 0.5 its E rate is 3 (b(x) - 0.5), and 0.5 - b(x) is
        # exact for b in [1, 2), so every bit of b(x) shows
        d = DopingProfile.sine_perturbed(base, amp, freq)
        f = vector_field(ModelParams(tau=2.0, doping=d))
        xs = np.random.default_rng(12).uniform(-0.5, 1.5, 100_000).tolist()
        assert [x for x in xs if f(0.0, x, 0.5, 0.0)[2] != (0.5 - d(x)) * -3.0] == []

    @settings(max_examples=300, deadline=None)
    @given(
        tau=st.floats(0.01, 100.0),
        b=st.floats(0.1, 3.0),
        x=st.floats(-1.0, 2.0),
        r=st.floats(0.01, 10.0),
        e=st.floats(-100.0, 100.0),
    )
    def test_constant_doping_read_bit_for_bit(self, tau, b, x, r, e):
        # the field takes constant doping inline; the same formulas read
        # through p.doping(x) give the same bits, or raise alike
        p = _params(tau, b)
        f = vector_field(p)

        def via_doping():
            coef = 1.0 - 1.0 / (r * r)
            return (coef, r * e - p.inv_tau, (r - p.doping(x)) * coef)

        assert [v.hex() for v in f(0.0, x, r, e)] == [v.hex() for v in via_doping()]

    @pytest.mark.parametrize(
        "rho,e", [(0.7, -0.8), (1.4, 0.6), (2.2, 0.4), (0.5, 1.2)]
    )
    def test_chart_consistency(self, rho, e):
        # (drho, de)/dx from the primal chart matches the rho-chart ratios
        p = _params(2.0, 1.3)
        if abs(rho * e - p.inv_tau) < 1e-2 or abs(rho - 1.0) < 1e-2:
            pytest.skip("too close to a singular set for the comparison")
        d_rho, d_e = rhs_x(0.0, rho, e, p)
        dedr, dxdr = rhs_rho(rho, e, 0.0, p)
        assert dxdr * d_rho == pytest.approx(1.0, rel=1e-10)
        assert dedr * d_rho == pytest.approx(d_e, rel=1e-10)


# ---------------------------------------------------------------------------
# critical point


class TestCriticalPoint:
    def test_saddle_golden(self):
        info = critical_point_analysis(_params(15.0, 1.5))
        assert info.point[0] == pytest.approx(1.5, abs=0)
        assert info.point[1] == pytest.approx(2.0 / 45.0, rel=1e-14)
        assert info.kind == "saddle"
        eigs = sorted(e.real for e in info.eigenvalues)
        assert eigs[1] == pytest.approx(1.6836544649043486, rel=1e-10)
        assert eigs[0] == pytest.approx(-1.6036544649043485, rel=1e-10)

    def test_saddle_small_tau(self):
        info = critical_point_analysis(_params(0.5, 1.5))
        assert info.point == (1.5, pytest.approx(4.0 / 3.0))
        assert info.kind == "saddle"

    def test_stable_focus(self):
        info = critical_point_analysis(_params(15.0, 0.5))
        assert info.point[1] == pytest.approx(2.0 / 15.0)
        assert info.kind == "stable_focus"
        assert info.eigenvalues[0].real == pytest.approx(-0.022222222222222223, rel=1e-10)
        assert abs(info.eigenvalues[0].imag) == pytest.approx(0.4076430295076476, rel=1e-10)

    def test_stable_node_small_tau(self):
        # heavy damping turns the focus into a node
        info = critical_point_analysis(_params(0.05, 0.5))
        assert info.kind == "stable_node"
        assert all(e.imag == 0 and e.real < 0 for e in info.eigenvalues)

    @pytest.mark.parametrize("b", [0.3, 0.8, 1.2, 2.0, 3.0])
    def test_eigenvalue_product_sign(self, b):
        # product of eigenvalues is -b^3/(b^2-1): saddle iff b > 1
        info = critical_point_analysis(_params(1.0, b))
        prod = info.eigenvalues[0] * info.eigenvalues[1]
        assert prod.imag == pytest.approx(0.0, abs=1e-12)
        assert prod.real == pytest.approx(-b ** 3 / (b * b - 1.0), rel=1e-10)
        assert (info.kind == "saddle") == (b > 1.0)

    def test_guards(self):
        with pytest.raises(SonicDoping):
            critical_point_analysis(_params(1.0, 1.0))
        p = ModelParams(tau=1.0, doping=DopingProfile.sine_perturbed(1.5, 0.1))
        with pytest.raises(NotConstantDoping):
            critical_point_analysis(p)


# ---------------------------------------------------------------------------
# Xi curve


class TestXiCurve:
    def test_golden_value(self):
        assert xi_curve(0.25, _params(0.1, 1.5)) == pytest.approx(0.01125, abs=1e-16)

    def test_zeros(self):
        p = _params(0.3, 1.7)
        assert xi_curve(0.0, p) == 0.0
        assert xi_curve(0.7, p) == pytest.approx(0.0, abs=1e-15)

    def test_concavity(self):
        p = _params(0.2, 1.4)
        n = np.linspace(-0.9, 2.0, 400)
        vals = xi_curve(n, p)
        second = np.diff(vals, 2)
        assert np.all(second < 0.0)

    @given(
        n=st.floats(-0.9, 3.0),
        tau=st.floats(0.01, 50.0),
        b=st.floats(0.1, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_defining_formula(self, n, tau, b):
        p = _params(tau, b)
        expected = -tau * (n + 1.0 - b) * (2.0 + n) * n / (1.0 + n)
        assert xi_curve(n, p) == pytest.approx(expected, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# jump conditions


class TestRhJump:
    def test_golden_pairs(self):
        assert rh_jump(0.8, -0.3) == (pytest.approx(1.25), -0.3)
        assert rh_jump(0.5, 0.0)[0] == pytest.approx(2.0)

    def test_momentum_flux_preserved(self):
        rho_r, _ = rh_jump(0.8, 0.1)
        assert 0.8 + 1.0 / 0.8 == pytest.approx(rho_r + 1.0 / rho_r, abs=1e-15)

    def test_entropy_violation(self):
        with pytest.raises(EntropyViolation):
            rh_jump(1.1, 0.0)
        with pytest.raises(EntropyViolation):
            rh_jump(1.0, 0.0)

    @given(rho_l=st.floats(1e-3, 1.0 - 1e-9), e=st.floats(-5.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_involution(self, rho_l, e):
        rho_r, e_r = rh_jump(rho_l, e)
        assert rho_r > 1.0 and e_r == e
        back, _ = rh_jump(1.0 / rho_r, e_r)
        assert back == pytest.approx(rho_r, rel=1e-14)


# ---------------------------------------------------------------------------
# transition slope and smallness thresholds


class TestC1Slope:
    def test_golden(self):
        assert c1_transition_slope(1.5, 0.1) == pytest.approx(0.05051025721682212, rel=1e-13)

    def test_vanishes_as_b_to_one(self):
        assert c1_transition_slope(1.0 + 1e-12, 0.1) == pytest.approx(0.0, abs=1e-10)

    def test_complex_slope(self):
        # 1/tau^2 < 8(b-1) makes the quadratic discriminant negative
        with pytest.raises(ComplexSlope):
            c1_transition_slope(1.5, 0.6)

    def test_requires_b_above_one(self):
        with pytest.raises(ValueError):
            c1_transition_slope(0.9, 0.1)

    @pytest.mark.parametrize("b", [1.1, 1.3, 1.8])
    def test_slope_positive_and_increasing_in_b(self, b):
        tau = 0.05
        assert 0.0 < c1_transition_slope(b, tau) < c1_transition_slope(b + 0.1, tau)


class TestTau0Bound:
    def test_goldens(self):
        assert tau0_bound(1.5) == pytest.approx(0.15097027121927942, rel=1e-12)
        assert tau0_bound(2.0) == pytest.approx(0.10540925533894598, rel=1e-12)

    def test_limit_b_to_one(self):
        # 1/(3 sqrt 2): the slope term is inactive just above b = 1
        assert tau0_bound(1.0 + 1e-12) == pytest.approx(0.23570226039528014, rel=1e-9)

    def test_below_complex_slope_threshold(self):
        for b in (1.2, 1.5, 2.0, 3.0):
            tau = tau0_bound(b)
            # slope must be real for every tau below the bound
            assert c1_transition_slope(b, tau * 0.999) > 0.0


class TestNodeSlowManifold:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        b=st.floats(min_value=1.0 + 1e-9, max_value=50.0),
        share=st.floats(min_value=1e-6, max_value=1.0 - 1e-12),
    )
    def test_eigenvalue_ratio_above_40_in_the_c1_regime(self, b, share):
        # no term of the series up to order 40 resonates with the node
        assert node_slow_manifold(b, share * tau0_bound(b)).mu > 40.0

    def test_eigenvalue_ratio_is_smallest_near_b_1_66(self):
        mus = {b: node_slow_manifold(b, tau0_bound(b) * (1 - 1e-12)).mu
               for b in (1.3, 1.5, 1.66, 1.7, 2.0, 3.0)}
        assert min(mus, key=mus.get) == 1.66 and 40.4 < mus[1.66] < 40.5

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        b=st.floats(min_value=1.0 + 1e-9, max_value=5.0),
        share=st.floats(min_value=0.05, max_value=1.0 - 1e-12),
    )
    def test_invariance_residual(self, b, share):
        # phi' P(n, phi) = (n + 1 - b) c(n) for |n| <= 2e-2, with P from
        # its own coefficients and c(n) = 1 - (1 + n)^-2; the coefficients
        # grow like 1/tau, and so does their roundoff
        m = node_slow_manifold(b, share * tau0_bound(b))
        poly = np.polynomial.polynomial
        n = np.linspace(-2e-2, 2e-2, 401)
        p_n = n * poly.polyval(n, m.p)
        residual = poly.polyval(n, poly.polyder(m.a)) * p_n - (n + 1.0 - b) * n * (2.0 + n) / (1.0 + n) ** 2
        assert np.abs(residual).max() <= 1e-12
        # P is rho E - 1/tau on the manifold, E = 1/tau + phi
        tau = share * tau0_bound(b)
        np.testing.assert_allclose(p_n, (1.0 + n) * m.phi(n) + n / tau, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("b,tau", [(1.5, 0.1), (1.2, 0.2), (2.0, 0.05)])
    def test_landing_slope_is_the_transition_slope(self, b, tau):
        m = node_slow_manifold(b, tau)
        assert 1.0 / m.dx_dn(0.0) == pytest.approx(c1_transition_slope(b, tau), rel=1e-12)
        assert m.phi(0.0) == 0.0

    @pytest.mark.parametrize("b,tau", [(1.5, 0.1), (1.2, 0.2), (2.0, 0.05)])
    def test_series_is_polyval_bit_for_bit(self, b, tau):
        # the Horner loop of phi and dx_dn against numpy's polyval, on
        # floats and on the 1-D and 2-D arrays the landing reads
        m = node_slow_manifold(b, tau)
        polyval = np.polynomial.polynomial.polyval
        n1 = np.linspace(-0.02, 0.02, 40)
        for c in (m.a, m.p):
            for n in (-0.013, -1e-9, -0.0, 0.0, 2e-3, 0.5):
                assert float(_series(n, c)).hex() == float(polyval(n, c)).hex()
            for n in (n1, n1.reshape(5, -1)):
                got, ref = _series(n, c), polyval(n, c)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        n = n1.reshape(5, -1)
        dx_dn = (2.0 + n) / ((1.0 + n) ** 2 * polyval(n, m.p))
        assert m.dx_dn(n).tobytes() == dx_dn.tobytes()
        assert m.phi(n).tobytes() == polyval(n, m.a).tobytes()

    def test_quadrature_pieces_add_up(self):
        m = node_slow_manifold(1.5, 0.1)
        whole = m.x_offsets(-0.01)
        pieces = m.x_offsets(-0.01, 7, nodes=8)
        assert whole.shape == (1,) and pieces.shape == (7,)
        assert pieces[-1] == pytest.approx(whole[-1], rel=1e-14)
        assert np.all(np.diff(pieces) > 0)  # x rises toward the landing from below
        n = np.linspace(-0.01, 0.0, 200001)
        assert whole[-1] == pytest.approx(np.trapezoid(m.dx_dn(n), n), rel=1e-12)

    def test_outside_the_regime(self):
        with pytest.raises(ValueError):
            node_slow_manifold(0.9, 0.1)
        with pytest.raises(ComplexSlope):
            node_slow_manifold(1.5, 0.6)
        with pytest.raises(ValueError, match="resonates"):
            node_slow_manifold(1.5, 0.3)  # real slope, but tau > tau0: mu near 3


# ---------------------------------------------------------------------------
# frictionless energy relation and supersonic bracket


class TestUndampedQuantities:
    def test_potential_derivative(self):
        # d Psi / d rho = (rho - b)(rho^2 - 1)/rho^3, checked by central FD
        b = 1.5
        for rho in (0.4, 0.9, 1.3, 2.1):
            h = 1e-6
            fd = (undamped_energy_potential(rho + h, b) - undamped_energy_potential(rho - h, b)) / (2 * h)
            assert fd == pytest.approx((rho - b) * (rho ** 2 - 1.0) / rho ** 3, rel=1e-7)

    def test_bracket_golden(self):
        beta, gam = supersonic_min_density_bracket(1.0, 1.5)
        assert beta == pytest.approx(0.24631954606086112, rel=1e-12)
        assert gam == pytest.approx(0.9990659359788854, rel=1e-12)
        assert 0.0 < beta < gam < 1.0

    def test_bracket_orders_with_length(self):
        b1 = supersonic_min_density_bracket(0.5, 1.5)
        b2 = supersonic_min_density_bracket(1.5, 1.5)
        assert b2[0] < b1[0] and b2[1] < b1[1]

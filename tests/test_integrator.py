"""Tests for the chart-switching trajectory integrator."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate

import sonic_flow
from sonic_flow import integrator
from sonic_flow import (
    CriticalPoint,
    DegenerateLaunch,
    DomainEnd,
    IntegratorConfig,
    SonicSingularity,
    State,
    TargetDensity,
    c1_transition_slope,
    integrate,
    integrate_from_sonic,
    launch_from_sonic,
)

from conftest import params


# ---------------------------------------------------------------------------
# configuration


class TestConfig:
    @pytest.mark.parametrize(
        "field",
        [
            "rel_tol",
            "abs_tol",
            "max_step",
            "sonic_band",
            "blow_up_density",
            "blow_up_field",
            "max_arc_length",
        ],
    )
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            IntegratorConfig(**{field: 0.0})
        with pytest.raises(ValueError):
            IntegratorConfig(**{field: -1.0})

    def test_band_must_exceed_coefficient_guard(self):
        with pytest.raises(ValueError):
            IntegratorConfig(sonic_band=1e-9)

    def test_defaults_valid(self):
        cfg = IntegratorConfig()
        assert cfg.rel_tol == 1e-9 and cfg.max_step == 1e-2


# ---------------------------------------------------------------------------
# basic runs and event location


class TestEvents:
    def test_equilibrium_stays_put(self):
        p = params(15.0, 1.5)
        start = State(0.0, 1.5, 1.0 / (15.0 * 1.5))
        seg = integrate(start, "forward", [DomainEnd(1.0)], p)
        assert seg.terminator.kind == "domain_end"
        assert seg.last.x == pytest.approx(1.0, abs=1e-12)
        assert np.abs(seg.rhos - 1.5).max() < 1e-9
        assert np.abs(seg.es - start.e).max() < 1e-9

    def test_target_density_location(self):
        # a supersonic state with E above the critical level loses density
        p = params(15.0, 1.5)
        seg = integrate(
            State(0.0, 0.99, 0.5), "forward", [TargetDensity(0.9)], p
        )
        assert seg.terminator.kind == "target_density"
        assert seg.last.rho == pytest.approx(0.9, abs=1e-9)

    def test_event_location_tolerance_stable(self):
        p = params(15.0, 1.5)
        loose = integrate(
            State(0.0, 0.99, 0.5), "forward", [TargetDensity(0.9)], p,
            IntegratorConfig(),
        )
        tight = integrate(
            State(0.0, 0.99, 0.5), "forward", [TargetDensity(0.9)], p,
            IntegratorConfig(rel_tol=5e-10, abs_tol=5e-12),
        )
        assert loose.last.x == pytest.approx(tight.last.x, abs=1e-8)

    def test_negative_field_rises_to_sonic(self):
        # with E < 1/(tau rho) a supersonic density climbs; the arc must end
        # on the sonic line almost immediately
        p = params(15.0, 1.5)
        seg = integrate(
            State(0.0, 0.99, -0.5), "forward", [TargetDensity(0.9)], p
        )
        assert seg.terminator.kind == "sonic_arrival"
        assert seg.last.rho == pytest.approx(1.0, abs=1e-9)
        assert seg.last.x < 1e-3

    def test_cannot_start_on_sonic_line(self):
        p = params(15.0, 1.5)
        with pytest.raises(SonicSingularity):
            integrate(State(0.0, 1.0, 0.5), "forward", [DomainEnd(1.0)], p)

    def test_blow_up_detected(self):
        # large subsonic density with a strong field runs away
        p = params(15.0, 1.5)
        cfg = IntegratorConfig(blow_up_density=50.0)
        seg = integrate(
            State(0.0, 5.0, 5.0), "forward", [DomainEnd(10.0)], p, cfg
        )
        assert seg.terminator.kind == "blow_up"
        assert seg.last.rho == pytest.approx(50.0, rel=1e-6)


# ---------------------------------------------------------------------------
# sonic launches


class TestSonicLaunch:
    def test_square_root_profile_off_launch(self):
        # leading order: (1 - rho)^2 grows linearly in x with slope |q|
        p = params(2.0, 1.5)
        q = -1.0
        st = launch_from_sonic(0.0, "supersonic", p.inv_tau + q, p)
        assert st.rho < 1.0
        w_rate = (1.0 - st.rho) ** 2 / abs(st.x)
        assert w_rate == pytest.approx(abs(q), rel=1e-2)

    def test_launch_respects_band_offset(self):
        p = params(2.0, 1.5)
        cfg = IntegratorConfig()
        st = launch_from_sonic(0.0, "subsonic", p.inv_tau + 0.5, p, cfg)
        assert st.rho - 1.0 == pytest.approx(cfg.sonic_band / 2.0, abs=1e-15)

    def test_tangential_launch_slope(self):
        p = params(0.1, 1.5)
        st = launch_from_sonic(0.0, "subsonic", p.inv_tau, p)
        slope = (st.rho - 1.0) / st.x
        assert slope == pytest.approx(c1_transition_slope(1.5, 0.1), rel=1e-12)

    def test_tangential_launch_needs_supersonic_doping(self):
        p = params(0.1, 0.9)
        with pytest.raises(DegenerateLaunch):
            launch_from_sonic(0.0, "subsonic", p.inv_tau, p)

    def test_tangential_launch_needs_small_tau(self):
        p = params(0.5, 1.5)  # tau above the smooth-transition threshold
        with pytest.raises(DegenerateLaunch):
            launch_from_sonic(0.0, "subsonic", p.inv_tau, p)

    def test_integrate_from_sonic_departure_sign(self):
        p = params(15.0, 1.5)
        with pytest.raises(DegenerateLaunch):
            integrate_from_sonic(
                0.0, "subsonic", p.inv_tau, "forward", [DomainEnd(1.0)], p
            )


# ---------------------------------------------------------------------------
# trajectory quality


class TestTrajectoryQuality:
    def test_reversibility(self):
        p = params(15.0, 1.5)
        cfg = IntegratorConfig()
        fwd = integrate(
            State(0.0, 1.3, 0.2), "forward", [DomainEnd(0.5)], p, cfg
        )
        back = integrate(fwd.last, "backward", [DomainEnd(0.0)], p, cfg)
        assert back.last.rho == pytest.approx(1.3, abs=100 * cfg.rel_tol)
        assert back.last.e == pytest.approx(0.2, abs=100 * cfg.rel_tol)

    def test_chart_independence_near_sonic(self):
        # the same arc integrated with a wide and a narrow switching band
        # exercises the rho-chart and the x-chart over different spans
        p = params(15.0, 1.5)
        wide = IntegratorConfig(sonic_band=5e-2)
        narrow = IntegratorConfig(sonic_band=5e-3)
        a = integrate(
            State(0.0, 1.2, 0.4), "forward", [TargetDensity(1.04)], p, wide
        )
        b = integrate(
            State(0.0, 1.2, 0.4), "forward", [TargetDensity(1.04)], p, narrow
        )
        assert a.last.x == pytest.approx(b.last.x, abs=100 * wide.rel_tol)
        assert a.last.e == pytest.approx(b.last.e, abs=100 * wide.rel_tol)

    def test_midpoint_defect_small(self):
        p = params(15.0, 1.5)
        seg = integrate(
            State(0.0, 1.3, 0.2), "forward", [DomainEnd(0.5)], p
        )
        assert seg.midpoint_defect(p) < 1e-4

    def test_supersonic_arc_single_critical_point(self):
        # between two sonic approaches a supersonic arc has one critical point
        p = params(15.0, 1.5)
        seg = integrate_from_sonic(
            0.0, "supersonic", p.inv_tau + 0.3, "forward",
            [CriticalPoint()], p,
        )
        assert seg.terminator.kind == "critical_point"
        st = seg.last
        assert st.rho * st.e == pytest.approx(p.inv_tau, abs=1e-9)

    def test_focus_spiral_alternating_extrema(self):
        # subsonic doping and weak damping: trajectories rotate around the
        # interior equilibrium and the density extrema close in on it
        p = params(15.0, 0.5)
        seg = integrate(
            State(0.0, 0.47, 2.0 / 15.0), "forward", [DomainEnd(40.0)], p
        )
        rho = seg.rhos
        inner = (rho[1:-1] - rho[:-2]) * (rho[2:] - rho[1:-1])
        ext = rho[1:-1][inner < 0.0]
        assert len(ext) >= 4
        signs = np.sign(ext - 0.5)
        assert np.all(signs[1:] != signs[:-1])
        amplitudes = np.abs(ext - 0.5)
        assert amplitudes[-1] < amplitudes[0]
        assert amplitudes[-1] < 0.02


# ---------------------------------------------------------------------------
# stored-array contracts


class TestSegmentContracts:
    def test_monotone_abscissae(self):
        p = params(15.0, 1.5)
        seg = integrate(
            State(0.0, 1.3, 0.2), "forward", [DomainEnd(0.5)], p
        )
        assert np.all(np.diff(seg.xs) > 0)
        assert seg.direction == "forward"

    def test_backward_monotone(self):
        p = params(15.0, 1.5)
        seg = integrate(
            State(0.5, 1.3, 0.2), "backward", [DomainEnd(0.0)], p
        )
        assert np.all(np.diff(seg.xs) < 0)
        assert seg.direction == "backward"

    def test_step_cap_respected(self):
        p = params(15.0, 1.5)
        cfg = IntegratorConfig(max_step=5e-3)
        seg = integrate(
            State(0.0, 1.3, 0.2), "forward", [DomainEnd(0.5)], p, cfg
        )
        assert np.abs(np.diff(seg.xs)).max() <= cfg.max_step * (1 + 1e-9)


# ---------------------------------------------------------------------------
# the Dormand-Prince kernel against scipy's RK45, which stays a test-only oracle


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every kernel run the chart legs make: (args, kwargs, result)."""
    calls = []
    kernel = integrator.solve_ivp

    def spy(*args, **kwargs):
        res = kernel(*args, **kwargs)
        calls.append((args, kwargs, res))
        return res

    monkeypatch.setattr(integrator, "solve_ivp", spy)
    return calls


def _rk45(args, kwargs):
    """The same run through scipy.integrate.solve_ivp(method="RK45")."""
    fun, t0, t_bound, y0, rtol, atol, max_step, watches = args
    events = []
    for w in watches:
        ev = (lambda g: lambda t, y: g(t, y[0], y[1]))(w.g)
        ev.terminal, ev.direction = w.terminal, w.direction
        events.append(ev)
    return scipy.integrate.solve_ivp(
        lambda t, y: fun(t, y[0], y[1]),
        (t0, t_bound),
        list(y0),
        method="RK45",
        rtol=rtol,
        atol=atol,
        max_step=max_step,
        events=events,
        t_eval=kwargs.get("t_eval"),
        dense_output=kwargs.get("dense_output", False),
    )


def _assert_matches_rk45(call):
    args, kwargs, res = call
    ref = _rk45(args, kwargs)
    assert res.status == ref.status
    assert res.nfev == ref.nfev
    assert len(res.t) == len(ref.t)
    assert res.t[-1] == pytest.approx(ref.t[-1], abs=1e-12)
    assert res.ya[-1] == pytest.approx(ref.y[0, -1], abs=1e-12)
    assert res.yb[-1] == pytest.approx(ref.y[1, -1], abs=1e-12)
    d = math.copysign(1.0, args[2] - args[1])
    ref_roots = sorted(
        ((i, float(t)) for i, ts in enumerate(ref.t_events) for t in ts),
        key=lambda r: d * r[1],
    )
    assert [i for i, *_ in res.roots] == [i for i, _ in ref_roots]
    for (_, t, *_), (_, t_ref) in zip(res.roots, ref_roots):
        assert t == pytest.approx(t_ref, abs=1e-12)
    return ref


class TestKernelMatchesRK45:
    # a loose step cap leaves the step sizes to the error controller
    loose_cap = IntegratorConfig(max_step=0.5)

    def test_x_chart_arc_to_domain_end(self, kernel_calls):
        p = params(15.0, 1.5)
        seg = integrate(
            State(0.0, 1.5, p.inv_tau / 1.5 + 0.05), "forward", [DomainEnd(1.0)], p,
            self.loose_cap,
        )
        assert seg.terminator.kind == "domain_end"
        assert len(kernel_calls) == 1
        _assert_matches_rk45(kernel_calls[0])
        assert kernel_calls[0][2].status == 0

    def test_rho_chart_arc_with_t_eval(self, kernel_calls):
        p = params(15.0, 1.5)
        integrate_from_sonic(
            0.0, "subsonic", p.inv_tau + 0.02, "forward", [DomainEnd(1.0)], p,
            self.loose_cap,
        )
        args, kwargs, res = kernel_calls[0]
        assert kwargs["t_eval"] is not None and kwargs["dense_output"]
        assert args[1] == 1.0  # the rho-chart leg leaving the sonic line
        _assert_matches_rk45(kernel_calls[0])
        assert len(res.t) == len(kwargs["t_eval"])

    def test_arc_ending_on_terminal_target(self, kernel_calls):
        p = params(15.0, 1.5)
        seg = integrate(
            State(0.0, 1.5, p.inv_tau / 1.5 + 0.05), "forward",
            [TargetDensity(1.52)], p, self.loose_cap,
        )
        assert seg.terminator.kind == "target_density"
        args, _, res = kernel_calls[-1]
        assert res.status == 1
        assert args[7][res.terminal].kind == "target_density"
        ref = _assert_matches_rk45(kernel_calls[-1])
        assert res.roots[-1][1] == pytest.approx(
            float(ref.t_events[res.terminal][0]), abs=1e-12
        )


    def test_controller_after_rejections(self):
        # a steep tanh front makes the controller reject trial steps on the
        # way in and hold back growth right after each rejection
        def fun(t, a, b):
            return 50.0 / math.cosh(50.0 * (t - 1.0)) ** 2, a

        args = (fun, 0.0, 2.0, (math.tanh(-50.0), 0.0), 1e-9, 1e-11, 1.0, [])
        res = integrator.solve_ivp(*args)
        accepted = len(res.t) - 1
        assert res.nfev > 2 + 6 * accepted  # some trial steps were rejected
        _assert_matches_rk45((args, {}, res))
        assert res.ya[-1] == pytest.approx(math.tanh(50.0), abs=1e-8)


# ---------------------------------------------------------------------------
# kernel event semantics on closed-form flows


def _unit_drift(t, a, b):
    return 1.0, 0.0  # a(t) = a(t0) + (t - t0)


def _watch(level, terminal=True, direction=0):
    return integrator._Watch(lambda t, a, b: a - level, terminal, direction, "level")


def _step_of(res, t):
    """Index of the accepted step whose span holds t."""
    return next(
        k for k, s in enumerate(res.steps)
        if min(s.t_old, s.t_old + s.h) <= t <= max(s.t_old, s.t_old + s.h)
    )


class TestKernelEvents:
    @pytest.mark.parametrize("forward", [True, False])
    def test_two_terminal_roots_in_one_step_stop_at_earlier(self, forward):
        # the later root in traversal order gets the lower event index
        t0, t1 = (0.0, 1.0) if forward else (1.0, 0.0)
        first, second = (0.5, 0.5 + 1e-6) if forward else (0.5 + 1e-6, 0.5)
        watches = [_watch(second), _watch(first)]
        res = integrator.solve_ivp(
            _unit_drift, t0, t1, (t0, 0.0), 1e-9, 1e-11, 1.0, watches,
            dense_output=True,
        )
        assert _step_of(res, first) is _step_of(res, second)
        assert res.status == 1 and res.terminal == 1
        assert [i for i, *_ in res.roots] == [1]
        assert res.t[-1] == pytest.approx(first, abs=1e-12)
        assert res.ya[-1] == pytest.approx(first, abs=1e-12)

    def test_direction_filters(self):
        # a = sin t falls through 0 at pi and rises through it at 2 pi
        def fun(t, a, b):
            return math.cos(t), 0.0

        watches = [_watch(0.0, False, 1), _watch(0.0, False, -1), _watch(0.0, False, 0)]
        res = integrator.solve_ivp(
            fun, 0.5, 7.0, (math.sin(0.5), 0.0), 1e-10, 1e-12, 0.1, watches
        )
        assert res.status == 0 and res.terminal is None
        got = [(i, round(t / math.pi, 6)) for i, t, *_ in res.roots]
        assert sorted(got) == [(0, 2.0), (1, 1.0), (2, 1.0), (2, 2.0)]

    def test_non_terminal_root_before_terminal_is_recorded(self):
        watches = [
            _watch(0.3, terminal=False),
            _watch(0.6),
            _watch(0.6 + 1e-9, terminal=False),  # past the stop: dropped
        ]
        res = integrator.solve_ivp(
            _unit_drift, 0.0, 1.0, (0.0, 0.0), 1e-9, 1e-11, 1.0, watches,
            dense_output=True,
        )
        assert _step_of(res, 0.6) is _step_of(res, 0.6 + 1e-9)
        assert res.status == 1 and res.terminal == 1
        assert [i for i, *_ in res.roots] == [0, 1]
        assert res.roots[0][1] == pytest.approx(0.3, abs=1e-12)
        assert res.t[-1] == pytest.approx(0.6, abs=1e-12)

    def test_t_eval_sampling_includes_terminal_point(self):
        def run(t_eval):
            return integrator.solve_ivp(
                _unit_drift, 0.0, 1.0, (0.0, 0.0), 1e-9, 1e-11, 1.0,
                [_watch(0.5)], t_eval=t_eval,
            )

        root = run(None).t[-1]
        res = run([0.0, 0.25, root, 0.75])
        assert res.status == 1
        assert res.t == [0.0, 0.25, root]
        assert res.ya == pytest.approx([0.0, 0.25, 0.5], abs=1e-12)


def test_import_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(sonic_flow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sonic_flow; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"

"""Tests for the trajectory integrator and its Dormand-Prince 8(5,3) kernel."""

from __future__ import annotations

import bisect
import math
import os
import re
import signal
import subprocess
import sys
from array import array
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from scipy.integrate._ivp import dop853_coefficients
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sonic_flow
from sonic_flow import integrator, model_core, solvers
from sonic_flow import (
    DegenerateLaunch,
    DomainEnd,
    DopingProfile,
    IntegrationFailure,
    IntegratorConfig,
    ModelParams,
    SonicFlowError,
    SonicSingularity,
    State,
    TargetDensity,
    integrate,
    integrate_from_sonic,
    solve_c1_transonic,
    solve_subsonic_shooting,
    solve_supersonic,
    solve_transonic_shock,
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

    def test_rejects_nan(self):
        for field in ("rel_tol", "abs_tol", "max_step",
                      "blow_up_density", "blow_up_field", "max_arc_length"):
            with pytest.raises(ValueError):
                IntegratorConfig(**{field: float("nan")})

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_sample_spacing_validated(self, value):
        with pytest.raises(ValueError):
            IntegratorConfig(sample_spacing=value)

    def test_sonic_band_is_not_a_field(self):
        # one chart covers the sonic line: there is no band to switch in
        with pytest.raises(TypeError):
            IntegratorConfig(sonic_band=1e-2)

    def test_defaults_valid(self):
        cfg = IntegratorConfig()
        assert cfg.rel_tol == 1e-9 and cfg.max_step == 1.0


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
# target selection


class TestTargetSelection:
    # each free arc crosses its target once: rising within 1e-2 of the sonic
    # line (id rho_chart) and falling in the bulk (id x_chart)
    @pytest.mark.parametrize("direction", [-1, 0, 1])
    @pytest.mark.parametrize(
        "start, target, crossing",
        [(State(0.0, 1.005, 0.5), 1.008, 1), (State(0.0, 1.2, 0.0), 1.1, -1)],
        ids=["rho_chart", "x_chart"],
    )
    def test_target_stops_only_in_its_direction(self, start, target, crossing, direction):
        p = params(15.0, 1.5)
        free = integrate(start, "forward", [DomainEnd(0.5)], p)
        seg = integrate(
            start, "forward", [TargetDensity(target, direction), DomainEnd(0.5)], p
        )
        if direction in (0, crossing):
            assert seg.terminator.kind == "target_density"
            assert seg.last.rho == pytest.approx(target, abs=1e-12)
            assert seg.last.x < free.last.x
        else:
            assert seg.terminator == free.terminator
            assert np.array_equal(seg.xs, free.xs)
            assert np.array_equal(seg.rhos, free.rhos)

    @pytest.mark.parametrize("start", [State(0.0, 1.005, 0.5), State(0.0, 1.2, 0.6)],
                             ids=["rho_chart", "x_chart"])
    def test_nearest_target_ahead_stops(self, start):
        # both arcs rise; the farther target is listed first
        p = params(15.0, 1.5)
        near = start.rho + 0.002
        stops = [TargetDensity(start.rho + 0.004), TargetDensity(near), DomainEnd(0.5)]
        seg = integrate(start, "forward", stops, p)
        assert seg.terminator.kind == "target_density"
        assert seg.last.rho == pytest.approx(near, abs=1e-12)


# ---------------------------------------------------------------------------
# sonic launches


class TestSonicLaunch:
    def test_integrate_from_sonic_departure_sign(self):
        p = params(15.0, 1.5)
        with pytest.raises(DegenerateLaunch):
            integrate_from_sonic(
                0.0, "subsonic", p.inv_tau, "forward", [DomainEnd(1.0)], p
            )

    @pytest.mark.parametrize("q,direction", [(-0.01, "forward"), (0.01, "backward")])
    def test_direction_conflict_is_typed(self, q, direction):
        # E(0) < 1/tau leaves the sonic line backward only, and E(0) > 1/tau
        # forward only
        p = params(15.0, 1.5)
        with pytest.raises(SonicSingularity, match="sign\\(E - 1/tau\\)"):
            integrate_from_sonic(
                0.0, "subsonic", p.inv_tau + q, direction, [DomainEnd(1.0)], p
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
        # the same arc in one run, and restarted on its way to the sonic
        # line at rho = 1.1, ends at the same state
        p = params(15.0, 1.5)
        cfg = IntegratorConfig()
        a = integrate(State(0.0, 1.2, 0.0), "forward", [TargetDensity(1.04)], p, cfg)
        half = integrate(State(0.0, 1.2, 0.0), "forward", [TargetDensity(1.1)], p, cfg)
        b = integrate(half.last, "forward", [TargetDensity(1.04)], p, cfg)
        assert a.terminator.kind == b.terminator.kind == "target_density"
        assert a.last.x == pytest.approx(b.last.x, abs=100 * cfg.rel_tol)
        assert a.last.e == pytest.approx(b.last.e, abs=100 * cfg.rel_tol)

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

    def test_backward_monotone(self):
        p = params(15.0, 1.5)
        seg = integrate(
            State(0.5, 1.3, 0.2), "backward", [DomainEnd(0.0)], p
        )
        assert np.all(np.diff(seg.xs) < 0)

    def test_step_cap_respected(self):
        p = params(15.0, 1.5)
        cfg = IntegratorConfig(max_step=5e-3)
        seg = integrate(
            State(0.0, 1.3, 0.2), "forward", [DomainEnd(0.5)], p, cfg
        )
        assert np.abs(np.diff(seg.xs)).max() <= cfg.max_step * (1 + 1e-9)

    def test_arc_turning_back_raises_typed_failure(self, monkeypatch):
        # x is monotone in s on either side of the sonic line, so only
        # roundoff can move it back; rows that go back behind the row before
        # the last have no single-valued profile.  The rows are read, and
        # checked, when first read
        def leg(x, rho, e, dsign, *args):
            end = integrator.Event("domain_end", State(0.6, 1.2, 0.1))
            res = SimpleNamespace(t=[0.0] * 5, ya=[1.0, 0.8, 0.7, 0.9, 0.6],
                                  yb=[1.0, 1.1, 1.2, 1.2, 1.2], yc=[0.3] * 5, rec=array("d"))
            return res, end

        monkeypatch.setattr(integrator, "_leg", leg)
        p = params(15.0, 1.5)
        seg = integrate_from_sonic(1.0, "subsonic", p.inv_tau - 0.1, "backward", [], p)
        with pytest.raises(IntegrationFailure, match="turned back") as err:
            seg.xs
        diag = err.value.diagnostics
        assert diag["x"] > diag["x_reached"]  # behind, on a backward run
        assert (diag["x"], diag["x_reached"]) == (0.9, 0.7)

    def test_arc_sinking_into_the_node_is_a_step_failure(self):
        # a subsonic arc launched backward from x = 1 that lands tangentially
        # on the node (1, 1/tau), where x stalls; its rows stay monotone
        p = ModelParams(tau=0.11102674876958835, doping=DopingProfile.constant(1.7835330259037656))
        seg = integrate_from_sonic(
            1.0, "subsonic", p.inv_tau - 1e-4, "backward",
            [TargetDensity(1.0001, direction=+1), DomainEnd(-2.0)], p,
        )
        assert seg.terminator.kind == "step_failure"
        # stopped 1e-6 short of the sonic line, where rho E = 1/tau to 1e-6
        assert seg.last.rho == pytest.approx(1.0 + 1e-6, abs=1e-15)
        assert abs(seg.last.rho * seg.last.e - p.inv_tau) <= 1e-6
        assert np.all(np.diff(seg.xs) < 0) and seg.rhos.max() < 1.0001

    @pytest.mark.parametrize("launch", [
        lambda p: integrate(State(0.0, 1.2, math.inf), "forward", [DomainEnd(1.0)], p),
        lambda p: integrate_from_sonic(0.0, "subsonic", math.inf, "forward", [DomainEnd(1.0)], p),
        lambda p: integrate(State(0.0, 1.2, 1e300), "forward", [DomainEnd(1.0)], p),
    ], ids=["field_infinite", "sonic_field_infinite", "rate_overflowing"])
    def test_start_without_a_first_step_ends(self, launch, kernel_calls):
        # an infinite field made the first step size NaN, which no comparison
        # with the minimum step refuses, and the kernel retried forever; a
        # rate that overflows made it zero, and the initial-step estimate
        # divided by it.  The alarm turns a hang into a failure
        def hang(signum, frame):
            raise TimeoutError("the kernel did not return within 10 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            seg = launch(params(15.0, 1.5))
        except SonicFlowError:
            pass
        else:
            assert seg.terminator.kind == "step_failure" and len(seg.xs) == 1
            assert [(res.status, res.nfev) for _, _, res in kernel_calls] == [(-1, 1)]
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("excess,kind", [(1e-6, "sonic_arrival"), (0.98e-6, "step_failure")])
    def test_guard_crossing_is_decided_in_one_run(self, excess, kind, kernel_calls):
        # a subsonic arc started 1.01e-6 from the sonic line, falling toward
        # it: where it crosses the guard 1e-6 short of the line, its
        # |rho E - 1/tau| sits just above CRITICAL_GUARD, and the same run
        # lands on the line, or just below it, and the run stops there
        p = params(15.0, 1.5)
        rho = 1.0 + 1.01e-6
        seg = integrate(State(0.0, rho, (p.inv_tau - excess) / rho), "forward", [DomainEnd(1.0)], p)
        ((args, _, res),) = kernel_calls
        ((_, _, _, r, e),) = [root for root in res.roots if args[7][root[0]].kind == "step_failure"]
        assert r == pytest.approx(1.0 + 1e-6, abs=1e-15)
        assert seg.terminator.kind == kind
        if kind == "sonic_arrival":
            assert 1e-6 < abs(r * e - p.inv_tau) <= 1.02e-6
            assert seg.last.rho == 1.0 and res.roots[-1][0] == res.terminal
        else:
            assert 0.98e-6 <= abs(r * e - p.inv_tau) <= 1e-6
            assert (seg.last.rho, seg.last.e) == (r, e)


class TestRhoLegRows:
    # legs from the sonic line rho = 1: one kernel run crosses the bulk and
    # lands on the line, in +s on the subsonic side and in -s on the
    # supersonic one; 1e-6 short of the line it records a root, not a row
    p = params(15.0, 1.5)

    def arc(self, cfg, side="subsonic", q=0.02):
        return integrate_from_sonic(
            0.0, side, self.p.inv_tau + q, "forward", [DomainEnd(3.0)], self.p, cfg,
        )

    def test_rows_are_step_ends_at_probe_resolution(self, kernel_calls):
        for side in ("subsonic", "supersonic"):
            del kernel_calls[:]
            seg = self.arc(IntegratorConfig(), side)
            assert seg.terminator.kind == "sonic_arrival"
            ((args, kwargs, res),) = kernel_calls
            assert args[2] == (1e4 if side == "subsonic" else -1e4)
            assert not res.rec  # no step is wider than the spacing: no interpolant
            dense, steps = _stepped(*args)
            assert len(dense.t) == len(steps) + 1  # the start and every step end
            assert res.t == dense.t
            rows = list(zip(res.ya, res.yb))
            # the guard 1e-6 short of the line: a root, where the arc goes on
            ((_, _, x_near, rho_near, _),) = [
                r for r in res.roots if args[7][r[0]].kind == "step_failure"
            ]
            assert abs(rho_near - 1.0) == pytest.approx(1e-6, abs=1e-15)
            assert (x_near, rho_near) not in rows
            assert res.terminal == 1 and rows[-1][1] == 1.0  # on the line
            assert list(zip(seg.xs.tolist(), seg.rhos.tolist())) == rows

    # short legs, whose step ends lie closer than 1e-2
    @pytest.mark.parametrize("side,q", [
        ("subsonic", 0.01), ("subsonic", 0.03), ("supersonic", 0.015), ("supersonic", 0.03),
    ])
    def test_end_rows_match_the_graded_grid(self, side, q):
        # a finite sample spacing keeps every step end a row, ends alike and
        # adds rows read off the steps in between
        cfg = IntegratorConfig()
        probe = self.arc(cfg, side, q)
        graded = self.arc(replace(cfg, sample_spacing=1e-3), side, q)
        assert probe.terminator == graded.terminator
        assert set(probe.xs.tolist()) < set(graded.xs.tolist())
        # rows at most 1e-3 apart in x, and in rho relative to max(rho, 1)
        assert np.abs(np.diff(graded.xs)).max() <= 1e-3 * (1 + 1e-9)
        scale = np.maximum(np.maximum(graded.rhos[1:], graded.rhos[:-1]), 1.0)
        assert (np.abs(np.diff(graded.rhos)) / scale).max() <= 1e-3 * (1 + 1e-9)


# ---------------------------------------------------------------------------
# the Dormand-Prince 8(5,3) kernel against scipy's DOP853, which stays a
# test-only oracle


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every kernel run the legs make: (args, kwargs, result)."""
    calls = []
    kernel = integrator.solve_ivp

    def spy(*args, **kwargs):
        res = kernel(*args, **kwargs)
        calls.append((args, kwargs, res))
        return res

    monkeypatch.setattr(integrator, "solve_ivp", spy)
    return calls


# below every step's extent: every step of a run at this spacing is wide,
# so the run records the interpolant of every step
_EVERY_STEP = 1e-300


def _steps(res):
    """The `_Step` of each step that run `res` recorded, rebuilt from its
    wide-step records, whose t_old, h, y_old, y_new and stage rates are
    what `_dense` takes."""
    r = res.rec.tolist()
    steps = []
    for k in range(0, len(r), integrator._REC):
        t_old, h, y0, y1, rates = r[k + 1], r[k + 2], r[k + 3:k + 6], r[k + 6:k + 9], r[k + 9:k + 45]
        f = tuple(integrator._dense(h, y0[c], y1[c], *rates[c::3]) for c in range(3))
        steps.append(integrator._Step(t_old, h, tuple(y0), f))
    return steps


def _stepped(*args):
    """The run ``solve_ivp(*args)`` with every step recorded, and its steps."""
    res = integrator.solve_ivp(*args, spacing=_EVERY_STEP)
    steps = _steps(res)
    assert len(steps) == len(res.t) - 1
    return res, steps


def _read(steps, ts):
    """The states (a, b, c) at each of ts, read off the last of `steps`
    that starts before it (the first step, for a t before every start)."""
    d = math.copysign(1.0, steps[0].h)
    starts = [d * s.t_old for s in steps]
    return [steps[max(bisect.bisect_left(starts, d * t) - 1, 0)](t) for t in ts]


def _rows(res, spacing):
    """The rows (t, a, b, c) of a kernel run: its step ends and the rows
    `_read_rows` reads off its wide steps."""
    cols = (res.t, res.ya, res.yb, res.yc)
    return tuple(integrator._read_rows(res.rec, spacing, cols)) if res.rec else cols


def _dop853(args, kwargs, stop=None):
    """The same run through scipy.integrate.solve_ivp(method="DOP853").

    scipy runs a watch whose stop rule is a predicate as a non-terminal
    event; ``stop = (i, n)`` makes watch i terminal at its n-th root.
    """
    fun, t0, t_bound, y0, rtol, atol, max_step, watches = args
    events = []
    for i, w in enumerate(watches):
        ev = (lambda g: lambda t, y: g(t, y[0], y[1], y[2]))(w.g)
        ev.terminal = False if callable(w.terminal) else w.terminal
        if stop is not None and stop[0] == i:
            ev.terminal = stop[1]
        ev.direction = w.direction
        events.append(ev)
    return scipy.integrate.solve_ivp(
        lambda t, y: fun(t, y[0], y[1], y[2]),
        (t0, t_bound),
        list(y0),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        max_step=max_step,
        events=events,
        dense_output=True,
    )


def _assert_matches_dop853(call):
    args, kwargs, res = call
    ref = _dop853(args, kwargs)
    # a predicate watch stops the kernel at the first of scipy's roots that
    # meets the predicate, or, where none does, it does not stop the kernel;
    # then scipy stops there too, step for step
    d = math.copysign(1.0, args[2] - args[1])
    watches = args[7]
    first = min(
        ((d * float(t), i, n)
         for i, w in enumerate(watches) if callable(w.terminal)
         for n, (t, y) in enumerate(zip(ref.t_events[i], ref.y_events[i]), 1)
         if w.terminal(t, *y)),
        default=None,
    )
    if first is None:
        assert res.terminal is None or not callable(watches[res.terminal].terminal)
    else:
        _, i, n = first
        assert res.terminal == i
        assert res.t[-1] == pytest.approx(float(ref.t_events[i][n - 1]), abs=1e-12)
        ref = _dop853(args, kwargs, (i, n))
    assert res.status == ref.status
    # the stage evaluations: scipy, asked for dense output, evaluates the
    # interpolant's three extra stages on every accepted step, the kernel
    # only on the steps it reads
    assert res.nfev - 3 * res.ndense == ref.nfev - 3 * (len(ref.t) - 1)
    assert len(res.t) == len(ref.t)  # the step ends
    for k, c in enumerate((res.ya, res.yb, res.yc)):
        assert c[-1] == pytest.approx(ref.y[k, -1], abs=1e-12)
    ref_roots = sorted(
        ((i, float(t)) for i, ts in enumerate(ref.t_events) for t in ts),
        key=lambda r: d * r[1],
    )
    assert [i for i, *_ in res.roots] == [i for i, _ in ref_roots]
    for (_, t, *_), (_, t_ref) in zip(res.roots, ref_roots):
        assert t == pytest.approx(t_ref, abs=1e-12)
    return ref


class TestKernelMatchesDOP853:
    # a loose step cap leaves the step sizes to the error controller
    loose_cap = IntegratorConfig(max_step=0.5)

    def test_x_chart_arc_to_domain_end(self, kernel_calls):
        # an arc in the bulk, stopped by its level watch on x
        p = params(15.0, 1.5)
        seg = integrate(
            State(0.0, 1.5, p.inv_tau / 1.5 + 0.05), "forward", [DomainEnd(1.0)], p,
            self.loose_cap,
        )
        assert seg.terminator.kind == "domain_end"
        assert len(kernel_calls) == 1
        _assert_matches_dop853(kernel_calls[0])
        args, _, res = kernel_calls[0]
        assert res.status == 1 and args[7][res.terminal].kind == "domain_end"

    def test_sonic_launch_with_sample_spacing(self, kernel_calls):
        # a finite sample spacing reads rows off the steps of the run
        p = params(15.0, 1.5)
        seg = integrate_from_sonic(
            0.0, "subsonic", p.inv_tau + 0.15, "forward", [DomainEnd(3.0)], p,
            replace(self.loose_cap, sample_spacing=1e-2),
        )
        # its one run, which lands on the sonic line
        assert seg.terminator.kind == "sonic_arrival" and len(kernel_calls) == 1
        args, kwargs, res = kernel_calls[0]
        assert kwargs["spacing"] == 1e-2
        assert args[3] == (0.0, 1.0, p.inv_tau + 0.15)  # the sonic launch
        ref = _assert_matches_dop853(kernel_calls[0])
        s, xs, rhos, es = _rows(res, 1e-2)
        assert len(s) > len(ref.t) and np.all(np.diff(xs) > 0)
        np.testing.assert_allclose(xs, ref.sol(s)[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(rhos, ref.sol(s)[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(es, ref.sol(s)[2], rtol=0, atol=1e-12)

    def test_sonic_launch_at_probe_resolution(self, kernel_calls):
        # at the default spacing the rows are the kernel's step ends
        p = params(15.0, 1.5)
        seg = integrate_from_sonic(
            0.0, "subsonic", p.inv_tau + 0.02, "forward", [DomainEnd(1.0)], p,
            self.loose_cap,
        )
        assert seg.terminator.kind == "sonic_arrival" and len(kernel_calls) == 1
        args, kwargs, res = kernel_calls[0]
        assert kwargs["spacing"] == math.inf
        ref = _assert_matches_dop853(kernel_calls[0])
        assert res.status == 1 and len(res.t) == len(ref.t)
        assert res.ndense == 1  # the stopping step's: no other step is read
        # the step ends, up to the roundoff the step controller carries along:
        # the error estimate cancels to about 1e-7 of its size, so a step
        # size, and every step end after it, can differ in the eighth digit
        np.testing.assert_allclose(res.t, ref.t, rtol=1e-7, atol=0)

    def test_arc_ending_on_terminal_target(self, kernel_calls):
        p = params(15.0, 1.5)
        seg = integrate(
            State(0.0, 1.5, p.inv_tau / 1.5 + 0.05), "forward",
            [TargetDensity(1.52)], p, self.loose_cap,
        )
        assert seg.terminator.kind == "target_density" and len(kernel_calls) == 1
        args, _, res = kernel_calls[-1]
        assert res.status == 1
        assert args[7][res.terminal].kind == "target_density"
        ref = _assert_matches_dop853(kernel_calls[-1])
        assert res.roots[-1][1] == pytest.approx(
            float(ref.t_events[res.terminal][0]), abs=1e-12
        )

    @pytest.mark.parametrize("excess", [1e-6, 0.98e-6])
    def test_guard_stops_at_scipys_first_root_that_sinks(self, excess, kernel_calls):
        # the arcs of `test_guard_crossing_is_decided_in_one_run`: scipy
        # runs the guard as a non-terminal event, and the kernel stops at its
        # root only where the arc sinks into the node
        p = params(15.0, 1.5)
        rho = 1.0 + 1.01e-6
        integrate(State(0.0, rho, (p.inv_tau - excess) / rho), "forward", [DomainEnd(1.0)], p,
                  self.loose_cap)
        _assert_matches_dop853(kernel_calls[0])
        args, _, res = kernel_calls[0]
        (guard,) = [i for i, w in enumerate(args[7]) if callable(w.terminal)]
        assert (res.terminal == guard) == (excess < 1e-6)

    def test_controller_after_rejections(self):
        # a steep tanh front makes the controller reject trial steps on the
        # way in and hold back growth right after each rejection.  (b, c)
        # turns as (cos, -sin): a component linear in t has an error
        # estimate of pure roundoff, which the order of the sums decides
        def fun(t, a, b, c):
            return 50.0 / math.cosh(50.0 * (t - 1.0)) ** 2, c, -b

        args = (fun, 0.0, 2.0, (math.tanh(-50.0), math.cos(1.0), -math.sin(1.0)),
                1e-9, 1e-11, 1.0, [])
        res = integrator.solve_ivp(*args)
        accepted = len(res.t) - 1
        assert res.ndense == 0  # no step has an event root or is wide: none is read
        assert res.nfev > 2 + 12 * accepted  # some trial steps were rejected
        assert (res.nfev - 2) % 12 == 0  # 12 evaluations per trial step
        _assert_matches_dop853((args, {}, res))
        assert res.ya[-1] == pytest.approx(math.tanh(50.0), abs=1e-8)


class TestTableauIsScipys:
    # the kernel's literals against scipy's dop853_coefficients, bit for bit:
    # the kernel cannot import its source, so it must not drift from it

    @staticmethod
    def literals(pattern):
        """The kernel's constants whose names match `pattern`, by their indices."""
        found = {}
        for name, value in vars(integrator).items():
            m = re.fullmatch(pattern, name)
            if m:
                assert type(value) is float
                found[tuple(map(int, m.groups()))] = value
        return found

    @staticmethod
    def nonzero(a, first=None):
        """The nonzero entries of `a`, keyed by their indices counted from
        `first` per axis (from 1 by default)."""
        first = first or (1,) * a.ndim
        return {
            tuple(int(i) + f for i, f in zip(ix, first)): a[ix] for ix in zip(*np.nonzero(a))
        }

    def test_stage_weights(self):
        # rows 2..12 and the dense output's 14..16; row 13 is `_B`
        A = dop853_coefficients.A
        expected = {ij: v for ij, v in self.nonzero(A).items() if ij[0] != 13}
        assert self.literals(r"_A(\d+)_(\d+)") == expected
        assert len(expected) == 50 + 24

    def test_nodes(self):
        # stage 1 runs at t, stage 13 at t + h, as the kernel writes them
        C = dop853_coefficients.C
        assert (C[0], C[12]) == (0.0, 1.0)
        expected = {(i + 1,): C[i] for i in range(16) if i not in (0, 12)}
        assert self.literals(r"_C(\d+)") == expected

    def test_solution_weights(self):
        c = dop853_coefficients
        assert np.array_equal(c.A[12, :12], c.B) and not c.A[12, 12:].any()
        assert self.literals(r"_B(\d+)") == self.nonzero(c.B)

    def test_error_weights(self):
        # neither estimate weights stage 13, the derivative at the step end
        c = dop853_coefficients
        assert c.E3[12] == c.E5[12] == 0.0
        assert self.literals(r"_E3_(\d+)") == self.nonzero(c.E3)
        assert self.literals(r"_E5_(\d+)") == self.nonzero(c.E5)

    def test_dense_output_weights(self):
        # F3..F6; F0..F2 come from the step's ends
        D = dop853_coefficients.D
        assert self.literals(r"_D(\d+)_(\d+)") == self.nonzero(D, first=(3, 1))


# ---------------------------------------------------------------------------
# the Brent port against scipy.optimize.brentq, a test-only oracle like DOP853

_EPS = sys.float_info.epsilon
# (xtol, rtol) of the event location and of each shooting bracket
_BRENT_TOLS = [(4 * _EPS, 4 * _EPS)] + [(x, 8.9e-16) for x in (1e-13, 1e-14, 1e-15, 1e-16)]


def _scipy_brentq(f, a, b, xtol, rtol):
    """scipy's (root, calls, iterations, converged), or "ValueError".

    scipy leaves its iteration counter unset when f is zero at an end; the
    port counts 0 iterations there.
    """
    try:
        root, info = scipy.optimize.brentq(
            f, a, b, xtol=xtol, rtol=rtol, full_output=True, disp=False
        )
    except ValueError:
        return "ValueError"
    iterations = 0 if f(a) == 0 or f(b) == 0 else info.iterations
    return root, info.function_calls, iterations, info.converged


def _port_brentq(f, a, b, xtol, rtol):
    try:
        return integrator._brentq(f, a, b, xtol, rtol)
    except ValueError:
        return "ValueError"


def _shape(kind, r, s, k):
    """A function rising (s > 0) or falling through zero at r."""
    if kind == "smooth":
        return lambda x: s * (math.tanh(k * (x - r)) + 0.1 * (x - r) ** 3)
    if kind == "kinked":
        return lambda x: s * (x - r) * (k if x > r else 1.0)
    return lambda x: s if x > r else -s  # step


_units = st.floats(-3.0, 3.0, allow_nan=False)
_scales = st.builds(lambda sign, u: sign * 10.0**u, st.sampled_from([1.0, -1.0]), st.floats(-8.0, 3.0))


class TestBrentMatchesScipy:
    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(["smooth", "kinked", "step"]),
        r=st.floats(-2.0, 2.0),
        s=_scales,
        k=st.floats(0.01, 100.0),
        a=_units,
        b=_units,
        tols=st.sampled_from(_BRENT_TOLS),
    )
    def test_root_calls_iterations_and_flag(self, kind, r, s, k, a, b, tols):
        f = _shape(kind, r, s, k)
        # both orders of the bracket, and ends of one sign, which both reject
        assert _port_brentq(f, a, b, *tols) == _scipy_brentq(f, a, b, *tols)
        assert _port_brentq(f, b, a, *tols) == _scipy_brentq(f, b, a, *tols)

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (2.0, 1.0), (0.0, 1.0)])
    def test_exact_zero_at_an_end_returns_that_end(self, a, b):
        f = lambda x: x - a  # noqa: E731
        assert integrator._brentq(f, a, b, 1e-15, 8.9e-16) == (a, 2, 0, True)
        assert _scipy_brentq(f, a, b, 1e-15, 8.9e-16) == (a, 2, 0, True)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            integrator._brentq(lambda x: math.nan if x > 0.7 else x - 0.5, 0.0, 1.0, 1e-15, 8.9e-16)

    def test_too_wide_a_bracket_reports_non_convergence(self):
        # a step at 1e-20 in [0, 1e300] needs about 1000 bisections, not 100
        f = lambda x: 1.0 if x > 1e-20 else -1.0  # noqa: E731
        got = integrator._brentq(f, 0.0, 1e300, 1e-16, 8.9e-16)
        assert got == _scipy_brentq(f, 0.0, 1e300, 1e-16, 8.9e-16)
        assert got[1:] == (102, 100, False)

    def test_unconverged_event_location_is_an_integration_failure(self, monkeypatch):
        monkeypatch.setattr(integrator, "_BRENT_MAXITER", 1)
        with pytest.raises(IntegrationFailure, match="event location"):
            integrator.solve_ivp(_unit_drift, 0.0, 2.0, (0.0, 0.0, 0.0), 1e-9, 1e-11, 1.0, [_watch(0.5)])

# ---------------------------------------------------------------------------
# kernel event semantics on closed-form flows


def _unit_drift(t, a, b, c):
    return 1.0, 0.0, 0.0  # a(t) = a(t0) + (t - t0)


def _watch(level, terminal=True, direction=0):
    return integrator._Watch(lambda t, a, b, c: a - level, terminal, direction, "level")


def _level(k, v, terminal=True, direction=0, calls=None):
    """A watch on component k crossing v, declared as a level; `calls` counts g."""

    def g(t, a, b, c):
        if calls is not None:
            calls.append(t)
        return (a, b, c)[k] - v

    return integrator._Watch(g, terminal, direction, "level", (k, v))


def _unleveled(watches):
    return [w._replace(level=None) for w in watches]


def _screened_as_full(fun, t0, t1, y0, watches):
    """The run with the level screen, after asserting it equals the one without."""
    screened, full = (
        integrator.solve_ivp(fun, t0, t1, y0, 1e-9, 1e-11, 0.1, ws, spacing=_EVERY_STEP)
        for ws in (watches, _unleveled(watches))
    )
    for res in (screened, full):
        assert res.status in (0, 1)
    assert (screened.t, screened.ya, screened.yb, screened.yc) == (
        full.t, full.ya, full.yb, full.yc
    )
    assert (screened.status, screened.terminal, screened.nfev) == (
        full.status, full.terminal, full.nfev
    )
    assert screened.roots == full.roots
    return screened


def _step_of(steps, t):
    """Index of the step of `steps` whose span holds t."""
    return next(
        k for k, s in enumerate(steps)
        if min(s.t_old, s.t_old + s.h) <= t <= max(s.t_old, s.t_old + s.h)
    )


class TestKernelEvents:
    @pytest.mark.parametrize("forward", [True, False])
    def test_two_terminal_roots_in_one_step_stop_at_earlier(self, forward):
        # the later root in traversal order gets the lower event index
        t0, t1 = (0.0, 1.0) if forward else (1.0, 0.0)
        first, second = (0.5, 0.5 + 1e-6) if forward else (0.5 + 1e-6, 0.5)
        watches = [_watch(second), _watch(first)]
        res, steps = _stepped(_unit_drift, t0, t1, (t0, 0.0, 0.0), 1e-9, 1e-11, 1.0, watches)
        assert _step_of(steps, first) is _step_of(steps, second)
        assert res.status == 1 and res.terminal == 1
        assert [i for i, *_ in res.roots] == [1]
        assert res.t[-1] == pytest.approx(first, abs=1e-12)
        assert res.ya[-1] == pytest.approx(first, abs=1e-12)

    def test_direction_filters(self):
        # a = sin t falls through 0 at pi and rises through it at 2 pi
        def fun(t, a, b, c):
            return math.cos(t), 0.0, 0.0

        watches = [_watch(0.0, False, 1), _watch(0.0, False, -1), _watch(0.0, False, 0)]
        res = integrator.solve_ivp(
            fun, 0.5, 7.0, (math.sin(0.5), 0.0, 0.0), 1e-10, 1e-12, 0.1, watches
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
        res, steps = _stepped(_unit_drift, 0.0, 1.0, (0.0, 0.0, 0.0), 1e-9, 1e-11, 1.0, watches)
        assert _step_of(steps, 0.6) is _step_of(steps, 0.6 + 1e-9)
        assert res.status == 1 and res.terminal == 1
        assert [i for i, *_ in res.roots] == [0, 1]
        assert res.roots[0][1] == pytest.approx(0.3, abs=1e-12)
        assert res.t[-1] == pytest.approx(0.6, abs=1e-12)

    # the level screen: a leveled watch against the same watch evaluated on
    # every step

    def test_screen_skips_level_evaluations(self):
        screened, full = [], []
        res = integrator.solve_ivp(
            _unit_drift, 0.0, 1.0, (0.0, 0.0, 0.0), 1e-9, 1e-11, 0.1,
            [_level(0, 0.6, calls=screened)],
        )
        unscreened = integrator.solve_ivp(
            _unit_drift, 0.0, 1.0, (0.0, 0.0, 0.0), 1e-9, 1e-11, 0.1,
            _unleveled([_level(0, 0.6, calls=full)]),
        )
        # unscreened, g runs at the start, on every step and in the root
        # search; screened, at the start and on the step that leaves the
        # cell only: none of the steps before is evaluated, and the root
        # search reads component 0 off the interpolant, to the same root
        n = len(res.t) - 1  # the accepted steps
        assert res.status == 1 and n > 3
        assert full[:n] == res.t[:n] and len(full) > n + 1  # step ends, then the search
        assert screened == [full[0], full[n]]
        assert res.roots == unscreened.roots and res.t == unscreened.t

    @pytest.mark.parametrize("direction", [-1, 0, 1])
    def test_start_exactly_on_a_level(self, direction):
        # g0 == 0: a rising or two-way watch stops at once, a falling one
        # waits; the far level stops the run then
        watches = [_level(0, 0.5, direction=direction), _level(0, 0.8)]
        res = _screened_as_full(_unit_drift, 0.0, 1.0, (0.5, 0.0, 0.0), watches)
        assert res.status == 1
        if direction >= 0:
            assert (res.terminal, res.t[-1]) == (0, 0.0)
        else:
            assert res.terminal == 1
            assert res.ya[-1] == pytest.approx(0.8, abs=1e-12)

    def test_crossing_against_the_direction_moves_the_cell(self):
        # a = cos t falls through 0.5 at pi/3, which a rising watch ignores,
        # and rises back through it at 5 pi/3, where it fires
        watches = [_level(0, 0.5, direction=1), _level(0, -2.0)]
        res = _screened_as_full(_oscillator, 0.0, 7.0, (1.0, 0.0, 0.0), watches)
        assert res.status == 1 and res.terminal == 0
        assert res.t[-1] == pytest.approx(5 * math.pi / 3, abs=1e-9)

    @pytest.mark.parametrize("forward", [True, False])
    def test_two_levels_crossed_in_one_step(self, forward):
        t0, t1 = (0.0, 1.0) if forward else (1.0, 0.0)
        watches = [
            _level(0, 0.5 + 1e-6, terminal=False),
            _level(0, 0.5, terminal=False),
            _level(0, 0.9 if forward else 0.1),
        ]
        res = _screened_as_full(_unit_drift, t0, t1, (t0, 0.0, 0.0), watches)
        steps = _steps(res)
        assert _step_of(steps, 0.5) is _step_of(steps, 0.5 + 1e-6)
        assert [i for i, *_ in res.roots] == ([1, 0, 2] if forward else [0, 1, 2])

    def test_level_on_the_second_component(self):
        # b = -sin t falls through -0.5 at pi/6 and rises back at 5 pi/6
        watches = [_level(1, -0.5, terminal=False), _level(0, -0.9), _level(1, 0.5)]
        res = _screened_as_full(_oscillator, 0.0, 7.0, (1.0, 0.0, 0.0), watches)
        assert [i for i, *_ in res.roots] == [0, 0, 1] and res.terminal == 1
        assert [t for _, t, *_ in res.roots] == pytest.approx(
            [math.pi / 6, 5 * math.pi / 6, math.acos(-0.9)], abs=1e-9
        )

    def test_level_on_the_third_component(self):
        # c = t grows through 2, where the run stops, and the screen holds
        watches = [_level(2, 2.0), _level(0, -2.0)]
        res = _screened_as_full(_oscillator, 0.0, 7.0, (1.0, 0.0, 0.0), watches)
        assert res.terminal == 0 and res.t[-1] == pytest.approx(2.0, abs=1e-12)


def _scan_cell(levels, k, y):
    """The cell `solve_ivp` once found by scanning every (k, v) of `levels`:
    the reference for the bisected `_cell`."""
    vs = [v for j, v in levels if j == k]
    if y in vs:  # empty: g0 == 0 there, so the next step must compare in full
        return math.inf, -math.inf
    lo = max((v for v in vs if v < y), default=-math.inf)
    return lo, min((v for v in vs if v > y), default=math.inf)


# a few values that the draws repeat, so that levels coincide, and -0.0
_level_values = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 1.0 + 1e-6]) | st.floats(-4.0, 4.0)
_REPEATED = [(1, 1.0), (1, 0.5), (1, 1.0), (0, 1.0), (1, 2.0)]
_coefficients = st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7).map(tuple)


class TestKernelRewrites:
    # the kernel's level cells and level roots against the code they replace

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        levels=st.lists(st.tuples(st.integers(0, 2), _level_values), max_size=12),
        y=_level_values,
        on=st.integers(0, 11) | st.none(),
    )
    @example(levels=_REPEATED, y=1.0, on=None)  # on a repeated level
    @example(levels=_REPEATED, y=0.7, on=None)
    @example(levels=_REPEATED, y=3.0, on=None)
    def test_bisected_cells_are_the_scanned_cells(self, levels, y, on):
        if on is not None and levels:  # a start exactly on a level: the empty cell
            y = levels[on % len(levels)][1]
        for k in range(3):
            vs = [-math.inf, *sorted(v for j, v in levels if j == k), math.inf]
            assert integrator._cell(vs, y) == _scan_cell(levels, k, y)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        t_old=st.floats(-5.0, 5.0),
        h=_scales,
        y=st.tuples(_units, _units, _units),
        f=st.tuples(_coefficients, _coefficients, _coefficients),
        k=st.integers(0, 2),
        theta=st.floats(0.0, 1.0),
    )
    def test_one_component_roots_are_the_full_state_roots(self, t_old, h, y, f, k, theta):
        # a random step and a level of component k between its ends: the
        # level's g on component k alone gives the floats of g on the whole
        # interpolated state, and so Brent's method finds the same root
        step = integrator._Step(t_old, h, y, f)
        t_end = t_old + h
        ends = step(t_old)[k], step(t_end)[k]
        v = ends[0] + theta * (ends[1] - ends[0])
        watch = integrator._level_watch(k, v, 0, "level")
        one = integrator._on_step(watch, step)
        full = lambda s: watch.g(s, *step(s))  # noqa: E731
        ts = [t_old + j * h / 16 for j in range(17)]
        assert [one(s).hex() for s in ts] == [full(s).hex() for s in ts]
        if one(t_old) * one(t_end) < 0:
            eps = 4 * sys.float_info.epsilon
            assert integrator._brentq(one, t_old, t_end, eps, eps) == integrator._brentq(
                full, t_old, t_end, eps, eps
            )


# ---------------------------------------------------------------------------
# kernel sampling between step ends


def _oscillator(t, a, b, c):
    return b, -a, 1.0  # a = cos t, b = -sin t, c = t from (1, 0, 0) at t = 0


def _drift_wave(t, a, b, c):
    return 1.0, c, -b  # a = t, b = cos t, c = -sin t from (0, 1, 0) at t = 0


def _gap(y0, y1):
    return max(abs(y1[0] - y0[0]), abs(y1[1] - y0[1]) / max(abs(y0[1]), abs(y1[1]), 1.0))


def _fill(step, t0, y0, t1, y1, spacing, rows, refined):
    """The recursive reader that `solve_ivp` once used, one call per row: the
    reference the batched rows must equal.  Appends to `rows` the reads of
    `step` strictly between t0 and t1, cut into v = _gap / spacing equal
    parts, rounded up, or v / 8 where v exceeds 8, and each part again;
    `refined` gets the start row of each part that is cut again.
    """
    v = _gap(y0, y1) / spacing * (1.0 - 1e-12)
    n = math.ceil(v / 8 if v > 8 else v)
    if n <= 1:
        return
    ta, ya = t0, y0
    a, b = y0[0], y0[1]
    for j in range(1, n + 1):
        if j < n:
            s = t0 + j * (t1 - t0) / n
            y = step(s)
        else:
            s, y = t1, y1
        a_new, b_new = y[0], y[1]
        gap = abs(b_new - b) / max(abs(b), abs(b_new), 1.0)
        gap = max(abs(a_new - a), gap)
        if gap / spacing * (1.0 - 1e-12) > 1.0:
            refined.append(ya)
            _fill(step, ta, ya, s, y, spacing, rows, refined)
        if j < n:
            rows.append((s, *y))
        ta, ya, a, b = s, y, a_new, b_new


def _recursive_rows(args, spacing):
    """The rows of ``solve_ivp(*args, spacing=spacing)`` read by `_fill` off
    the steps of the same run without a spacing; the count of step ends; the
    start rows of the parts cut again."""
    plain, steps = _stepped(*args)
    ends = list(zip(plain.t, plain.ya, plain.yb, plain.yc))
    rows, refined = [ends[0]], []
    for step, (t0, a0, b0, _), end in zip(steps, ends, ends[1:]):
        if _gap((a0, b0), end[1:]) > spacing:
            _fill(step, t0, (a0, b0), end[0], end[1:3], spacing, rows, refined)
        rows.append(end)
    return rows, len(ends), refined


class TestKernelSampling:
    spacing = 0.01

    def run(self, forward, spacing=math.inf, watches=()):
        """The run and its rows."""
        t0, t1 = (0.0, 3.0) if forward else (3.0, 0.0)
        res = integrator.solve_ivp(
            _drift_wave, t0, t1, (t0, math.cos(t0), -math.sin(t0)), 1e-9, 1e-11, 1.0,
            list(watches), spacing=spacing,
        )
        return res, _rows(res, spacing)

    @pytest.mark.parametrize("forward", [True, False])
    def test_step_ends_stay_rows(self, forward):
        uncapped, _ = self.run(forward)
        sampled, (ts, yas, ybs, ycs) = self.run(forward, self.spacing)
        assert np.abs(np.diff(uncapped.t)).max() > 4 * self.spacing
        # the same trial steps; the sampled run builds the interpolants of
        # its wide steps too
        assert sampled.nfev - 3 * sampled.ndense == uncapped.nfev - 3 * uncapped.ndense
        # the run holds its step ends, the rows hold them too
        ends = (uncapped.t, uncapped.ya, uncapped.yb, uncapped.yc)
        assert (sampled.t, sampled.ya, sampled.yb, sampled.yc) == ends
        rows = dict(zip(ts, zip(yas, ybs, ycs)))
        for t, a, b, c in zip(*ends):
            assert rows[t] == (a, b, c)

    @pytest.mark.parametrize("forward", [True, False])
    def test_inner_samples_come_from_the_interpolant(self, forward):
        sampled, (ts, yas, ybs, ycs) = self.run(forward, self.spacing)
        ends = set(sampled.t)
        inner = [k for k, t in enumerate(ts) if t not in ends]
        assert len(inner) > len(sampled.t) - 1  # more inner rows than steps
        # each is read off the recorded wide step whose span holds it
        dense = _read(_steps(sampled), [ts[k] for k in inner])
        assert [(yas[k], ybs[k], ycs[k]) for k in inner] == dense

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("stop", [None, 0.2])
    def test_rows_at_most_the_spacing_apart(self, forward, stop):
        watches = [] if stop is None else [_watch(stop)]
        res, (ts, yas, ybs, _) = self.run(forward, self.spacing, watches)
        gaps = np.diff(ts) * (1.0 if forward else -1.0)
        assert np.all(gaps > 0)
        rows = list(zip(yas, ybs))
        assert max(_gap(u, v) for u, v in zip(rows, rows[1:])) <= self.spacing * (1 + 1e-9)
        if stop is not None:
            assert res.status == 1
            assert res.ya[-1] == pytest.approx(stop, abs=1e-12)

    @pytest.mark.parametrize("case", [
        "drift forward", "drift backward", "drift cut forward", "drift cut backward",
        "square forward", "square backward", "fine subsonic", "fine supersonic",
    ])
    def test_rows_are_the_recursive_reads(self, case, kernel_calls, request):
        # the batched reader against the recursive one, row for row and bit
        # for bit
        if case.startswith("fine"):
            # the output-resolution arcs of the p_main solutions, in +s and in
            # -s, cut again near both square-root ends
            side = case.split()[1]
            p = request.getfixturevalue("p_main")
            e0 = request.getfixturevalue(side + "_sol").e[0]
            kernel_calls.clear()  # the fixture's solve, where it ran just now
            seg = integrate_from_sonic(0.0, side, e0, "forward", [DomainEnd(1.5)], p,
                                       solvers._fine(IntegratorConfig()))
            assert seg.terminator.kind == "sonic_arrival"
            runs = [(args, kwargs["spacing"]) for args, kwargs, _ in kernel_calls]
            sign = 1.0 if side == "subsonic" else -1.0
            assert [math.copysign(1.0, args[2]) for args, _ in runs] == [sign]  # one run
        else:
            forward = case.endswith("forward")
            t0, t1 = (0.0, 3.0) if forward else (3.0, 0.0)
            if case.startswith("square"):
                args = (lambda t, a, b, c: (2.0 * t, 0.0, 0.0), t0, t1, (t0 * t0, 0.0, 0.0))
                spacing = 0.05
            else:
                args = (_drift_wave, t0, t1, (t0, math.cos(t0), -math.sin(t0)))
                spacing = self.spacing
            watches = [_watch(1.234567)] if "cut" in case else []
            runs = [(args + (1e-9, 1e-11, 1.0, watches), spacing)]
        n_rows = n_ends = 0
        refined = []
        for args, spacing in runs:
            res = integrator.solve_ivp(*args, spacing=spacing)
            rows, ends, cut_again = _recursive_rows(args, spacing)
            assert list(zip(*_rows(res, spacing))) == rows
            n_rows, n_ends, refined = n_rows + len(rows), n_ends + ends, refined + cut_again
        assert n_rows > 3 * n_ends
        if "cut" in case:
            assert res.status == 1 and res.ya[-1] == pytest.approx(1.234567, abs=1e-12)
        if case.startswith("square"):
            assert len(refined) > 40
        if case.startswith("fine"):
            xs = [y[0] for y in refined]
            assert min(xs) < 0.1 and max(xs) > 0.9

    @pytest.mark.parametrize("forward", [True, False])
    def test_quadratic_component_is_refined(self, forward):
        # a = t^2 over one long step: equal parts in t leave the part at the
        # far end about twice as wide in a, so it is cut again
        def fun(t, a, b, c):
            return 2.0 * t, 0.0, 0.0

        t0, t1 = (0.0, 1.0) if forward else (1.0, 0.0)
        res = integrator.solve_ivp(
            fun, t0, t1, (t0 * t0, 0.0, 0.0), 1e-9, 1e-11, 1.0, [], spacing=0.05,
        )
        ts, yas, _, _ = _rows(res, 0.05)
        assert len(ts) > 21
        assert np.abs(np.diff(yas)).max() <= 0.05 * (1 + 1e-9)


def _jump_at_half(t, a, b, c):
    return (3.0 if t >= 0.5 else 1.0), 0.0, 0.0  # right-continuous, like the doping


class TestKernelJumps:
    # piecewise doping: a leg integrates one piece's constant and stops on
    # the x level of the next breakpoint; the next leg starts there
    p = ModelParams(tau=15.0, doping=DopingProfile.piecewise_constant([0.25], [1.5, 1.4]))

    @pytest.mark.parametrize("forward", [True, False])
    def test_no_step_spans_a_jump(self, forward, kernel_calls):
        start, stop = (State(0.0, 1.3, 0.2), 0.5) if forward else (State(0.5, 1.3, 0.0), 0.0)
        seg = integrate(start, "forward" if forward else "backward", [DomainEnd(stop)], self.p)
        assert seg.terminator.kind == "domain_end"
        assert len(kernel_calls) == 2
        (first_args, _, first), (second_args, _, second) = kernel_calls
        assert first.ya[-1] == second_args[3][0] == 0.25  # on the jump itself
        below, above = (first, second) if forward else (second, first)
        assert max(below.ya) <= 0.25 <= min(above.ya)
        # each leg integrates its own piece's constant
        coef = 1.0 - 1.0 / 1.3**2
        for (args, _, _), b in zip(kernel_calls, (1.5, 1.4) if forward else (1.4, 1.5)):
            assert args[0](0.0, 0.1, 1.3, 0.2)[2] == (1.3 - b) * coef
        assert np.all(np.diff(seg.xs) * (1.0 if forward else -1.0) > 0)

    def test_without_breaks_a_step_spans_the_jump(self):
        # the kernel knows no jumps: a field that jumps in t is stepped across
        _, steps = _stepped(_jump_at_half, 0.0, 1.0, (0.0, 0.0, 0.0), 1e-9, 1e-11, 1.0, [])
        assert any(s.t_old < 0.5 < s.t_old + s.h for s in steps)

    def test_x_leg_passes_the_doping_jumps(self, kernel_calls):
        seg = integrate(State(0.0, 1.3, 0.2), "forward", [DomainEnd(0.5)], self.p)
        args, _, res = kernel_calls[0]
        assert args[7][res.terminal].kind == integrator._PIECE
        assert args[7][res.terminal].level == (0, 0.25)
        assert 0.25 in seg.xs


# ---------------------------------------------------------------------------
# the split at the critical locus


class TestCriticalLocus:
    # sonic launches: the supersonic arc dips to its density minimum on
    # rho E = 1/tau, the subsonic one rises to its maximum there
    p = params(15.0, 1.5)

    @pytest.mark.parametrize("side,q", [("supersonic", 0.1), ("subsonic", 0.02)])
    def test_split_puts_one_row_on_the_locus(self, side, q, kernel_calls):
        def arc(stops):
            return integrate_from_sonic(0.0, side, self.p.inv_tau + q, "forward", stops, self.p)

        plain = arc([DomainEnd(3.0)])
        n_plain = len(kernel_calls)
        split = arc([DomainEnd(3.0), integrator.CriticalLocus()])
        assert split.terminator.kind == plain.terminator.kind == "sonic_arrival"
        on_locus = np.abs(split.rhos * split.es - self.p.inv_tau) <= 1e-12
        assert np.count_nonzero(on_locus) == 1
        extremum = np.argmin if side == "supersonic" else np.argmax
        assert on_locus[extremum(split.rhos)]
        # one leg stops on the locus, the next starts there, and no leg
        # after the split watches for it again
        legs = kernel_calls[n_plain:]
        assert len(legs) == n_plain + 1
        watching = [(args[7], res) for args, _, res in legs
                    if any(w.kind == integrator._SPLIT for w in args[7])]
        assert len(watching) == 1
        ((watches, res),) = watching
        assert res.status == 1 and watches[res.terminal].kind == integrator._SPLIT

    @pytest.mark.parametrize("side,q", [("supersonic", 0.1), ("subsonic", 0.02)])
    def test_split_sets_a_target_for_the_way_back(self, side, q):
        # the target is set from the extremum, so the arc ends on its way
        # back, at half the extremum's offset from the sonic line
        seen = []

        def halfway(state):
            seen.append(state)
            return TargetDensity(0.5 * (1.0 + state.rho), direction=+1 if side == "supersonic" else -1)

        stops = [DomainEnd(3.0), integrator.CriticalLocus(then=halfway)]
        arc = integrate_from_sonic(0.0, side, self.p.inv_tau + q, "forward", stops, self.p)
        assert len(seen) == 1 and arc.terminator.kind == "target_density"
        (extremum,) = seen
        assert abs(extremum.rho * extremum.e - self.p.inv_tau) <= 1e-12
        assert arc.last.rho == pytest.approx(0.5 * (1.0 + extremum.rho), abs=1e-12)
        far = np.argmin if side == "supersonic" else np.argmax
        assert arc.rhos[far(arc.rhos)] == extremum.rho and arc.last.x > extremum.x



# ---------------------------------------------------------------------------
# rows read once per arc


class TestArcRows:
    # an arc reads the rows of all its kernel runs in one `_read_rows` pass;
    # they are the rows of each run read on its own, joined as the runs are
    # (each later run starts on the row the one before ended on)
    fine = solvers._fine(IntegratorConfig())

    @pytest.mark.parametrize("case", ["supersonic", "piecewise", "c1"])
    def test_one_pass_reads_each_legs_rows(self, case, kernel_calls, c1_sol, p_smooth,
                                           monkeypatch):
        p = params(15.0, 1.5)
        if case == "supersonic":
            # the split on the critical locus, and the leg from there that
            # lands on the sonic line
            seg = integrate_from_sonic(0.0, "supersonic", p.inv_tau + 0.1, "forward",
                                       [DomainEnd(3.0), integrator.CriticalLocus()], p, self.fine)
            legs = 2
        elif case == "piecewise":
            # a leg per doping piece, the last one landing on the sonic line
            p = ModelParams(tau=15.0, doping=DopingProfile.piecewise_constant(
                [0.03, 0.06], [1.5, 1.6, 1.4]))
            seg = integrate_from_sonic(0.0, "subsonic", p.inv_tau + 0.02, "forward",
                                       [DomainEnd(3.0)], p, self.fine)
            legs = 3
        else:
            # a C1 branch whose first arc stops before it joins the slow
            # manifold, and goes on in a second arc
            q = c1_sol.diagnostics["sup_launch_field"] - p_smooth.inv_tau
            late = replace(model_core.node_slow_manifold(1.5, p_smooth.tau), mu=1e9)
            _, seg = solvers._wall_shot("supersonic", q, 0.5, p_smooth, self.fine, late)
            legs = 3
        assert seg.terminator.kind in ("sonic_arrival", "target_density")
        runs = [res for _, _, res in kernel_calls]
        assert len(runs) == legs and all(len(res.rec) > 0 for res in runs)
        passes = []
        read = integrator._read_rows
        monkeypatch.setattr(integrator, "_read_rows",
                            lambda *args: passes.append(args) or read(*args))
        rows = [seg.xs, seg.rhos, seg.es]
        assert len(passes) == 1
        # one leg at a time, each leg's first row dropped after the first leg
        ref = [_rows(res, self.fine.sample_spacing)[1:] for res in runs]
        for k, col in enumerate(rows):
            expected = np.concatenate([r[k][1 if i else 0:] for i, r in enumerate(ref)])
            assert col.tolist() == expected.tolist()
        assert np.all(np.diff(rows[0]) > 0)  # forward, with no row dropped


# ---------------------------------------------------------------------------
# the level screen on whole solves


def _sine(tau):
    return ModelParams(tau=tau, doping=DopingProfile.sine_perturbed(1.5, 0.1))


def _piecewise(tau):
    return ModelParams(tau=tau, doping=DopingProfile.piecewise_constant([0.5], [1.5, 1.6]))


class TestLevelScreenOnSolves:
    cases = {
        "subsonic": lambda: solve_subsonic_shooting(params(15.0, 1.5)),
        "supersonic": lambda: solve_supersonic(params(15.0, 1.5)),
        "shock": lambda: solve_transonic_shock(params(50.0, 1.5), 0.9),
        "c1": lambda: solve_c1_transonic(params(0.1, 1.5), 0.5),
        "sine_subsonic": lambda: solve_subsonic_shooting(_sine(15.0)),
        "piecewise_supersonic": lambda: solve_supersonic(_piecewise(15.0)),
        "supersonic_low_tau": lambda: solve_supersonic(params(0.6, 1.2)),
    }

    @staticmethod
    def outcome(solve, monkeypatch, screen):
        """The solve's profile and diagnostics, or its typed error; the kernel nfev."""
        kernel = integrator.solve_ivp
        nfev = []

        def run(*args, **kwargs):
            assert len(args) == 8  # the legs pass their watches positionally
            if not screen:
                args = (*args[:7], _unleveled(args[7]))
            res = kernel(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        monkeypatch.setattr(integrator, "solve_ivp", run)
        try:
            sol = solve()
            out = (sol.x.tolist(), sol.rho.tolist(), sol.e.tolist(), repr(sol.diagnostics))
        except SonicFlowError as exc:
            out = (type(exc), str(exc), repr(getattr(exc, "diagnostics", None)))
        finally:
            monkeypatch.setattr(integrator, "solve_ivp", kernel)
        return out, nfev

    @pytest.mark.parametrize("case", list(cases))
    def test_bit_identical_to_evaluating_every_watch(self, case, monkeypatch):
        screened = self.outcome(self.cases[case], monkeypatch, True)
        full = self.outcome(self.cases[case], monkeypatch, False)
        assert screened == full
        out, _ = screened
        if case == "supersonic_low_tau":
            assert out[0].__name__ == "ShootingDivergence"
        else:
            assert isinstance(out[0], list)


def _run_isolated(code):
    """stdout of ``code`` run in a fresh interpreter that imports this source tree."""
    src = os.path.dirname(os.path.dirname(sonic_flow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True, timeout=120,
    )
    return out.stdout.strip()


_SCIPY_LOADED = "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"


def test_shooting_solves_load_no_scipy():
    out = _run_isolated(
        "import sys, sonic_flow.cli\n"
        "from sonic_flow import (DopingProfile, ModelParams,\n"
        "                        solve_subsonic_shooting, solve_supersonic)\n"
        "p = ModelParams(tau=15.0, doping=DopingProfile.constant(1.5))\n"
        "solve_subsonic_shooting(p)\n"
        "solve_supersonic(p)\n" + _SCIPY_LOADED
    )
    assert out == "[]"


def test_elliptic_solve_loads_scipy_linalg_only():
    out = _run_isolated(
        "import sys\n"
        "from sonic_flow import DopingProfile, ModelParams, solve_subsonic_elliptic\n"
        "solve_subsonic_elliptic(ModelParams(tau=15.0, doping=DopingProfile.constant(1.5)))\n"
        "print('scipy.linalg' in sys.modules, 'scipy.optimize' in sys.modules,"
        " 'scipy.integrate' in sys.modules)"
    )
    assert out == "True False False"

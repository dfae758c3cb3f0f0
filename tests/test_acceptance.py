"""Acceptance suite: the quantitative anchors and properties, with budgets.

Each test times its own work against the stated budget.  Budgets are soft
upper bounds on commodity hardware; blowing one usually means an algorithmic
regression (bracket thrashing, lost convergence), not a slow machine.
"""

from __future__ import annotations

import json
import math
import time
import types
from contextlib import contextmanager

import numpy as np
import pytest

from sonic_flow import (
    DopingProfile,
    ModelParams,
    NoSolutionInRegime,
    PreconditionViolation,
    RegimeRejection,
    c1_transition_slope,
    check_trajectory_lemmas,
    cli,
    critical_point_analysis,
    fit_holder_exponent,
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
)

from conftest import params


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"budget {seconds}s exceeded: {elapsed:.1f}s"


class TestCriterion1SonicExactness:
    def test_sonic_exact_for_all_tau(self):
        with budget(1.0):
            for tau in (0.5, 2.0, 15.0):
                p = params(tau, 1.0)
                sol = solve_sonic(p)
                assert np.all(sol.rho == 1.0)
                assert np.abs(sol.e - 1.0 / tau).max() < 1e-15
                value, _ = residual_norm(sol, p)
                assert value < 1e-12


class TestCriterion2CriticalPoints:
    def test_golden_coordinates_and_kinds(self):
        with budget(1.0):
            info = critical_point_analysis(params(15.0, 1.5))
            assert info.point == (1.5, 2.0 / 45.0)
            assert info.kind == "saddle"

            info = critical_point_analysis(params(0.5, 1.5))
            assert info.point == (1.5, 4.0 / 3.0)
            assert info.kind == "saddle"

            info = critical_point_analysis(params(15.0, 0.5))
            assert info.point == (0.5, 2.0 / 15.0)
            assert info.kind == "stable_focus"


class TestCriterion3SubsonicUniqueness:
    def test_methods_agree_across_matrix(self):
        with budget(30.0):
            for b in (1.2, 1.5, 2.0):
                for tau in (1.0, 15.0):
                    p = params(tau, b)
                    shoot = solve_subsonic_shooting(p)
                    elliptic = solve_subsonic_elliptic(p)
                    assert shoot.sup_distance(elliptic) <= 1e-4

                    assert shoot.rho.min() >= 1.0 - 1e-12
                    assert shoot.rho.max() <= b + 1e-8
                    m = (shoot.x > 1e-6) & (shoot.x < 1.0 - 1e-6)
                    ratio = (shoot.rho[m] - 1.0) / np.sin(np.pi * shoot.x[m])
                    assert ratio.min() > 0.0


class TestCriterion4OptimalRegularity:
    def test_square_root_exponents(self, subsonic_sol, supersonic_sol):
        with budget(10.0):
            sub = fit_holder_exponent(subsonic_sol, 1)
            sup = fit_holder_exponent(supersonic_sol, 0)
            assert abs(sub.exponent - 0.5) <= 0.05
            assert abs(sup.exponent - 0.5) <= 0.05


class TestCriterion5SupersonicStructure:
    def test_single_minimum_inside_lemma_bracket(self, supersonic_sol):
        with budget(10.0):
            rho = supersonic_sol.rho
            k = int(np.argmin(rho))
            assert 0 < k < len(rho) - 1
            assert np.all(np.diff(rho[: k + 1]) <= 1e-12)
            assert np.all(np.diff(rho[k:]) >= -1e-12)

            beta, gamma = supersonic_min_density_bracket(1.0, 1.5)
            assert beta <= rho[k] <= gamma


class TestCriterion6ShockFamily:
    def test_two_members_with_invariants(self):
        with budget(60.0):
            p = params(50.0, 1.5)
            members = [solve_transonic_shock(p, r) for r in (0.90, 0.95)]
            x0s = [s.shock.x0 for s in members]
            assert abs(x0s[0] - x0s[1]) > 1e-3

            for sol in members:
                s = sol.shock
                assert abs(s.rho_l * s.rho_r - 1.0) <= 1e-10
                flux = s.rho_l + 1.0 / s.rho_l - (s.rho_r + 1.0 / s.rho_r)
                assert abs(flux) <= 1e-10
                k = sol.shock_index
                assert abs(sol.e[k + 1] - sol.e[k]) <= 1e-10
                assert sol.rho[k] < 1.0 < sol.rho[k + 1]  # entropy: upward jump
                assert abs(sol.rho[0] - 1.0) < 1e-6
                assert abs(sol.rho[-1] - 1.0) < 1e-6


class TestCriterion7SmoothTransonicSlope:
    def test_family_slopes(self):
        with budget(30.0):
            p = params(0.1, 1.5)
            reference = c1_transition_slope(1.5, 0.1)
            assert reference == pytest.approx(0.0505102, abs=1e-7)
            for x0 in (0.25, 0.5, 0.75):
                sol = solve_c1_transonic(p, x0)
                left, right = sol.diagnostics["slope_fitted"]
                assert left == pytest.approx(reference, rel=1e-3)
                assert right == pytest.approx(reference, rel=1e-3)
                k = int(np.argmin(np.abs(sol.x - x0)))
                assert sol.e[k] == pytest.approx(1.0 / 0.1, abs=1e-6)


class TestCriterion8NonExistenceWitnesses:
    def test_rejections_and_exhaustive_sweep(self):
        with budget(60.0):
            with pytest.raises(PreconditionViolation) as err:
                solve_subsonic_shooting(params(15.0, 0.9))
            assert err.value.theorem_ref == "Theorem 3.1"

            condition = 0.4 * (1.0 + math.sqrt(2.0 * 0.4))
            assert condition == pytest.approx(0.7578, abs=5e-5)
            with pytest.raises(NoSolutionInRegime) as err:
                solve_supersonic(params(15.0, 0.4))
            assert err.value.theorem_ref == "Theorem 3.2"

            with pytest.raises(NoSolutionInRegime) as err:
                solve_supersonic(params(0.2, 0.9))
            assert err.value.theorem_ref == "Theorem 3.3"

            with pytest.raises(RegimeRejection) as err:
                solve_transonic_shock(params(0.1, 1.5), 0.9)
            assert err.value.theorem_ref == "Theorem 2.23"
            smooth = solve_c1_transonic(params(0.1, 1.5), 0.5)
            assert smooth.kind == "c1_transonic"

            sweep = supersonic_residual_sweep(params(15.0, 0.4), samples=200)
            assert len(sweep) == 200
            assert not residual_sign_change(sweep)
            # stronger than no sign change: no arc pair even lands
            assert all(s.status != "ok" for s in sweep)


class TestCriterion9TrajectoryLemmas:
    def test_positive_branch_bound_and_origin_slope(self, c1_sol, p_smooth):
        with budget(10.0):
            k = int(np.argmin(np.abs(c1_sol.rho - 1.0)[1:-1])) + 1
            positive = types.SimpleNamespace(rhos=c1_sol.rho[k:], es=c1_sol.e[k:])
            report = check_trajectory_lemmas(p_smooth, positive)
            assert report.max_margin <= 0.0
            assert report.slope_at_origin == pytest.approx(0.101020, abs=1e-3)


class TestCriterion10Determinism:
    CONFIGS = [
        {"model": {"tau": 2.0, "doping": {"type": "constant", "value": 1.0}},
         "solver": {"kind": "sonic"}},
        {"model": {"tau": 15.0, "doping": {"type": "constant", "value": 1.5}},
         "solver": {"kind": "subsonic"}},
        {"model": {"tau": 15.0, "doping": {"type": "constant", "value": 1.5}},
         "solver": {"kind": "supersonic"}},
        {"model": {"tau": 50.0, "doping": {"type": "constant", "value": 1.5}},
         "solver": {"kind": "transonic_shock", "rho_l": 0.9}},
        {"model": {"tau": 0.1, "doping": {"type": "constant", "value": 1.5}},
         "solver": {"kind": "c1_transonic", "x0": 0.5}},
    ]

    def test_artifacts_byte_identical(self, tmp_path):
        for i, payload in enumerate(self.CONFIGS):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps(payload))
            a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
            assert cli.main(["solve", "--config", str(cfg), "--out", str(a)]) == 0
            assert cli.main(["solve", "--config", str(cfg), "--out", str(b)]) == 0
            for name in ("solution.csv", "solution.json"):
                assert (a / name).read_bytes() == (b / name).read_bytes()

        cfg = tmp_path / "classify.json"
        cfg.write_text(json.dumps({
            "model": {"tau": 15.0, "doping": {"type": "constant", "value": 0.4}},
        }))
        a, b = tmp_path / "ca", tmp_path / "cb"
        assert cli.main(["classify", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["classify", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "classify.json").read_bytes() == (b / "classify.json").read_bytes()

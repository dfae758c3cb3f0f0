"""End-to-end tests for the command-line interface and its artifacts."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from sonic_flow import (
    DopingProfile,
    ModelParams,
    NewtonDivergence,
    cli,
    integrator,
    residual_norm,
    solve_subsonic_elliptic,
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def model(tau, b):
    return {"tau": tau, "doping": {"type": "constant", "value": b}}


# ---------------------------------------------------------------------------
# solve command


class TestSolve:
    def test_artifacts_and_boundaries(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": model(15.0, 1.5),
            "solver": {"kind": "subsonic"},
        })
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0

        lines = (out / "solution.csv").read_text().splitlines()
        assert lines[0] == "x,rho,e,regime"
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert abs(float(first[1]) - 1.0) <= 1e-6
        assert abs(float(last[1]) - 1.0) <= 1e-6
        assert {row.split(",")[3] for row in lines[1:]} <= {"sonic", "subsonic"}

        meta = json.loads((out / "solution.json").read_text())
        assert meta["kind"] == "subsonic"
        assert meta["model"]["tau"] == 15.0
        assert meta["residual_norm"] < 1e-6

        svg = (out / "profile.svg").read_text()
        assert svg.startswith("<svg")
        assert 'viewBox="0 0 800 600"' in svg

    def test_sonic_constant_columns(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": model(2.0, 1.0),
            "solver": {"kind": "sonic"},
        })
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "solution.csv").read_text().splitlines()[1:]
        rhos = {row.split(",")[1] for row in rows}
        es = {row.split(",")[2] for row in rows}
        assert rhos == {"1.0"}
        assert es == {"0.5"}
        assert {row.split(",")[3] for row in rows} == {"sonic"}

    @staticmethod
    def assert_byte_deterministic(tmp_path, payload):
        cfg = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("solution.csv", "solution.json", "profile.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_byte_determinism(self, tmp_path):
        self.assert_byte_deterministic(tmp_path, {
            "model": model(50.0, 1.5),
            "solver": {"kind": "transonic_shock", "rho_l": 0.9},
        })

    @pytest.mark.parametrize("family", [
        "subsonic", "supersonic", "sine_supersonic", "piecewise_subsonic", "c1",
    ])
    def test_byte_determinism_of_the_other_families(self, family, tmp_path):
        sine = {"tau": 15.0, "doping": {"type": "sine", "base": 1.5, "amplitude": 0.1}}
        piecewise = {"tau": 15.0, "doping": {"type": "piecewise", "breakpoints": [0.5],
                                             "values": [1.5, 1.6]}}
        shooting = {"kind": "subsonic", "method": "shooting"}
        self.assert_byte_deterministic(tmp_path, dict(zip(("model", "solver"), {
            "subsonic": (model(15.0, 1.5), shooting),
            "supersonic": (model(15.0, 1.5), {"kind": "supersonic"}),
            "sine_supersonic": (sine, {"kind": "supersonic"}),
            "piecewise_subsonic": (piecewise, shooting),
            "c1": (model(0.1, 1.5), {"kind": "c1_transonic", "x0": 0.5}),
        }[family])))

    def test_shock_metadata(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": model(50.0, 1.5),
            "solver": {"kind": "transonic_shock", "rho_l": 0.9},
        })
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "solution.json").read_text())
        shock = meta["shock"]
        assert shock["rho_l"] == pytest.approx(0.9, abs=1e-12)
        assert shock["rho_r"] == pytest.approx(1.0 / 0.9, abs=1e-12)
        assert 0.0 < shock["x0"] < 1.0

    def test_regime_rejection_exit_and_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": model(15.0, 0.9),
            "solver": {"kind": "subsonic"},
        })
        rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)
        assert err["theoremRef"] == "Theorem 3.1"
        assert err["code"] == "PreconditionViolation"
        assert err["message"]

    def test_usage_errors(self, tmp_path, capsys):
        assert cli.main(["solve", "--config", "/does/not/exist.json"]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["solve", "--config", str(bad)]) == 1
        cfg = write_config(tmp_path, {"model": model(15.0, 1.5),
                                      "solver": {"kind": "warp"}})
        assert cli.main(["solve", "--config", cfg]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_doping_is_usage_error(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {"model": model(15.0, value),
                                      "solver": {"kind": "subsonic"}})
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e400", "-1e400"])
    def test_non_finite_integrator_value_is_usage_error(self, tmp_path, capsys, value):
        # JSON readers take 1e400 as infinity, which solution.json could not echo
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "model": model(15.0, 1.5), "solver": {"kind": "subsonic"},
            "integrator": {"max_arc_length": 0.0},
        }).replace("0.0}", value + "}"))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "finite" in lines[0]
        assert captured.out == "" and not out.exists()

    def test_c1_refuses_non_isothermal_gamma(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {**model(0.1, 1.5), "gamma": 2.0},
            "solver": {"kind": "c1_transonic", "x0": 0.5},
        })
        rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_REGIME
        err = json.loads(capsys.readouterr().out)
        assert err["code"] == "PreconditionViolation"
        assert "gamma = 1" in err["message"]

    def test_arc_turning_back_is_a_typed_failure(self, tmp_path, capsys, monkeypatch):
        # rows that go back in x, which only roundoff can produce, end the
        # solve with the integrator's typed failure; only the arcs a solve
        # keeps read their rows, so the legs at output resolution turn back
        leg = integrator._leg

        def turned(x, rho, e, dsign, *args):
            res, end = leg(x, rho, e, dsign, *args)
            if args[-1].sample_spacing < math.inf and len(res.ya) > 3:
                res.ya[2] = res.ya[0]  # the third step end behind the first
            return res, end

        monkeypatch.setattr(integrator, "_leg", turned)
        cfg = write_config(tmp_path, {
            "model": model(0.11102674876958835, 1.7835330259037656),
            "solver": {"kind": "c1_transonic", "x0": 0.2206110104158862},
        })
        rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().out)
        assert err["code"] == "IntegrationFailure"

    def test_c1_input_near_the_node_certifies(self, tmp_path):
        # its subsonic landing shots pass close by the node (1, 1/tau)
        cfg = write_config(tmp_path, {
            "model": model(0.11102674876958835, 1.7835330259037656),
            "solver": {"kind": "c1_transonic", "x0": 0.2206110104158862},
        })
        out = tmp_path / "o"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        meta = json.loads((out / "solution.json").read_text())
        assert meta["residual_norm"] < 1e-6

    def test_sample_spacing_is_not_an_integrator_option(self, tmp_path, capsys):
        payload = {"model": model(15.0, 1.5), "solver": {"kind": "subsonic"}}
        cfg = write_config(tmp_path, {**payload, "integrator": {"sample_spacing": 1e-3}})
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
        assert "sample_spacing" in capsys.readouterr().err
        cfg = write_config(tmp_path, {**payload, "integrator": {"max_step": 1e-2}})
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        meta = json.loads((tmp_path / "b" / "solution.json").read_text())
        assert sorted(meta["integrator"]) == [
            "abs_tol", "blow_up_density", "blow_up_field", "max_arc_length",
            "max_step", "rel_tol",
        ]

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["transmogrify"]) == 1


# ---------------------------------------------------------------------------
# classify command


class TestClassify:
    def test_report_artifact(self, tmp_path):
        cfg = write_config(tmp_path, {"model": model(15.0, 0.4)})
        out = tmp_path / "out"
        assert cli.main(["classify", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "classify.json").read_text())
        assert rep["verdicts"]["supersonic"]["verdict"] == "not_exists"
        assert "0.7578" in rep["verdicts"]["supersonic"]["condition"]

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, {"model": model(15.0, 1.5)})
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["classify", "--config", cfg, "--out", str(a)])
        cli.main(["classify", "--config", cfg, "--out", str(b)])
        assert (a / "classify.json").read_bytes() == (b / "classify.json").read_bytes()

    @pytest.mark.parametrize("b", [1e155, 1e308])
    def test_huge_doping_classifies_and_fails_typed(self, tmp_path, capsys, b):
        # tau0(b) and the lemma threshold computed b ** 3, an OverflowError
        # traceback above b = 5.6e102
        cfg = write_config(tmp_path, {"model": model(0.1, b)})
        out = tmp_path / "out"
        assert cli.main(["classify", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads((out / "classify.json").read_text(), parse_constant=_not_json)
        assert rep["verdicts"]["subsonic"]["verdict"] == "exists"
        assert rep["verdicts"]["c1_transonic"]["verdict"] == "undetermined"
        cfg = write_config(tmp_path, {"model": model(0.1, b), "solver": {"kind": "supersonic"}})
        rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "solve")])
        assert rc == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert json.loads(captured.out)["code"] == "BracketFailure"
        assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# portrait command


class TestPortrait:
    def _run(self, tmp_path, tau, b, mode="primal"):
        cfg = write_config(tmp_path, {
            "model": model(tau, b),
            "integrator": {"max_step": 2e-2},
            "portrait": {"mode": mode, "span": 2.0, "count": 6},
        })
        out = tmp_path / f"out_{tau}_{b}_{mode}"
        rc = cli.main(["portrait", "--config", cfg, "--out", str(out)])
        assert rc == 0
        return out

    def test_saddle_marked(self, tmp_path):
        out = self._run(tmp_path, 15.0, 1.5)
        svg = (out / "portrait.svg").read_text()
        assert "saddle" in svg
        assert "1.5000" in svg and "0.0444" in svg

    def test_weak_damping_saddle(self, tmp_path):
        out = self._run(tmp_path, 0.5, 1.5)
        svg = (out / "portrait.svg").read_text()
        assert "saddle" in svg
        assert "1.3333" in svg

    def test_focus_marked(self, tmp_path):
        out = self._run(tmp_path, 15.0, 0.5)
        svg = (out / "portrait.svg").read_text()
        assert "focus" in svg
        assert "0.5000" in svg and "0.1333" in svg

    def test_transformed_mode_overlays_xi(self, tmp_path):
        out = self._run(tmp_path, 0.5, 1.5, mode="transformed")
        svg = (out / "portrait.svg").read_text()
        assert "Xi" in svg

    def test_csv_shape(self, tmp_path):
        out = self._run(tmp_path, 15.0, 1.5)
        lines = (out / "portrait.csv").read_text().splitlines()
        assert lines[0] == "trajectory,x,rho,e"
        ids = {int(line.split(",")[0]) for line in lines[1:]}
        assert len(ids) > 1 and min(ids) == 0

    def test_default_rows_at_most_1e2_apart(self, tmp_path):
        # the default step cap leaves steps to the error controller; the
        # portrait sets its own row spacing
        cfg = write_config(tmp_path, {"model": model(15.0, 1.5)})
        out = tmp_path / "out"
        assert cli.main(["portrait", "--config", cfg, "--out", str(out)]) == 0
        rows = {}
        for line in (out / "portrait.csv").read_text().splitlines()[1:]:
            i, x = line.split(",")[:2]
            rows.setdefault(i, []).append(float(x))
        assert len(rows) > 1
        assert max(max(abs(np.diff(xs))) for xs in rows.values()) <= 1e-2 * (1 + 1e-9)

    def test_explicit_launches_run_both_ways(self, tmp_path):
        # each launch gives two trajectories from x = 0: forward, then backward
        launches = [[1.2, 0.5], [0.8, 1.0]]
        cfg = write_config(tmp_path, {"model": model(0.5, 1.5),
                                      "portrait": {"span": 1.0, "launches": launches}})
        out = tmp_path / "o"
        assert cli.main(["portrait", "--config", cfg, "--out", str(out)]) == 0
        rows = {}
        for line in (out / "portrait.csv").read_text().splitlines()[1:]:
            i, *row = line.split(",")
            rows.setdefault(int(i), []).append([float(v) for v in row])
        assert sorted(rows) == [0, 1, 2, 3]
        for i, (rho0, e0) in enumerate(launches):
            for k, sign in ((2 * i, 1.0), (2 * i + 1, -1.0)):
                arc = np.array(rows[k])
                assert list(arc[0]) == [0.0, rho0, e0]
                assert len(arc) > 1 and np.all(sign * np.diff(arc[:, 0]) > 0)

    def test_variable_doping_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"tau": 15.0, "doping": {
                "type": "sine", "base": 1.5, "amplitude": 0.2, "frequency": 1.0
            }},
        })
        assert cli.main(["portrait", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 1

    def test_unknown_mode_is_usage_error_before_any_arc(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: pytest.fail("arc integrated"))
        cfg = write_config(tmp_path, {"model": model(0.5, 1.5), "portrait": {"mode": "polar"}})
        assert cli.main(["portrait", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: invalid portrait section: unknown mode 'polar'\n"

    @pytest.mark.parametrize("spec, message", [
        ({"count": 0}, "count must be positive, not 0"),
        ({"count": -3}, "count must be positive, not -3"),
        ({"span": 0}, "span must be positive and finite, not 0.0"),
        ({"span": -1}, "span must be positive and finite, not -1.0"),
        ({"span": math.nan}, "span must be positive and finite, not nan"),
        ({"span": math.inf}, "span must be positive and finite, not inf"),
        ({"span": -1, "launches": [[1.2, 0.1]]}, "span must be positive and finite, not -1.0"),
        ({"count": math.nan}, "count must be a whole number, not nan"),
        ({"count": math.inf}, "count must be a whole number, not inf"),
    ], ids=["count_zero", "count_negative", "span_zero", "span_negative", "span_nan",
            "span_inf", "span_negative_with_launches", "count_nan", "count_inf"])
    def test_count_or_span_not_positive_is_usage_error_before_any_arc(
            self, tmp_path, capsys, monkeypatch, spec, message):
        # "count": 0 once wrote a header-only portrait.csv, and "span": -1
        # let every arc run to its own stops; both exited 0
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: pytest.fail("arc integrated"))
        cfg = write_config(tmp_path, {"model": model(0.5, 1.5), "portrait": spec})
        out = tmp_path / "o"
        assert cli.main(["portrait", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: invalid portrait section: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec, keys", [
        ({"mdoe": "transformed"}, "['mdoe']"),
        ({"radius_rho": 0.1, "radius_e": 0.1}, "['radius_e', 'radius_rho']"),
    ], ids=["mode_misspelt", "fan_radii"])
    def test_unknown_key_is_usage_error_before_any_arc(self, tmp_path, capsys, monkeypatch,
                                                       spec, keys):
        # the fan's radii are fixed, 0.4 rho* and max(0.5 |E*|, 0.05)
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: pytest.fail("arc integrated"))
        cfg = write_config(tmp_path, {"model": model(0.5, 1.5), "portrait": spec})
        assert cli.main(["portrait", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: unknown portrait options: {keys}\n"


# ---------------------------------------------------------------------------
# sweep command


def _replay_continued_sweep(rows, params):
    """Every row of an elliptic sweep, solved again as the sweep solves it:
    cold, then from the sample before, then from the secant prediction of the
    two before; each stays within roundoff of a cold solve of its value."""
    older = previous = None
    values = [float(row[2]) for row in rows]
    for k, row in enumerate(rows):
        assert row[3:5] == ["true", "subsonic"]
        p = params(values[k])
        cold = solve_subsonic_elliptic(p)
        start = cli._sweep_start(older, previous, values[max(k - 2, 0):k + 1])
        assert (start is None) == (k == 0)
        sol = cold if start is None else solve_subsonic_elliptic(p, start=start)
        assert float(row[10]) == residual_norm(sol, p)[0]
        assert abs(float(row[10]) - residual_norm(cold, p)[0]) <= 1e-9
        assert np.abs(sol.rho - cold.rho).max() <= 1e-10
        older, previous = previous, sol


class TestSweep:
    def test_shock_family(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": model(50.0, 1.5),
            "solver": {"kind": "transonic_shock"},
            "sweep": {"variable": "rhoL", "values": [0.90, 0.92, 0.95]},
        })
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        successes = [r for r in rows if r[3] == "true"]
        assert len(successes) >= 2
        x0s = {r[5] for r in successes}
        assert len(x0s) == len(successes)

    def test_smooth_family_shares_slope(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": model(0.1, 1.5),
            "solver": {"kind": "c1_transonic"},
            "sweep": {"variable": "x0", "values": [0.25, 0.5, 0.75]},
        })
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert all(r[3] == "true" for r in rows)
        slopes = [float(r[9]) for r in rows]
        assert max(slopes) - min(slopes) <= 1e-3 * slopes[0]

    def test_shock_tau_sweep_writes_every_row(self, tmp_path):
        # at small tau the shock bracket's deep seed falls below its lower
        # seed; every sample must still end in a row, typed failures included
        cfg = write_config(tmp_path, {
            "model": model(1.0, 0.9),
            "solver": {"kind": "transonic_shock", "rho_l": 0.9},
            "sweep": {"variable": "tau", "start": 0.1, "stop": 0.4, "count": 7},
        })
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert len(rows) == 7
        assert all(r[3] == "true" or r[11] for r in rows)  # success, or an error class

    def test_rejections_recorded_not_fatal(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": model(1.0, 0.9),
            "solver": {"kind": "supersonic"},
            "sweep": {"variable": "tau", "values": [0.2, 0.3]},
        })
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        assert all(r[3] == "false" for r in rows)
        assert all("Theorem 3.3" in line for line in lines[1:])

    def test_elliptic_doping_sweep_certifies_every_row(self, tmp_path):
        # the shape of the benchmark's sweep: 16 elliptic samples in b
        cfg = write_config(tmp_path, {
            "model": model(2.0, 1.5),
            "solver": {"kind": "subsonic", "method": "elliptic"},
            "sweep": {"variable": "bConstant", "start": 1.05, "stop": 1.55, "count": 16},
        })
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert len(rows) == 16
        _replay_continued_sweep(
            rows, lambda v: ModelParams(tau=2.0, doping=DopingProfile.constant(v))
        )

    def test_elliptic_uneven_tau_sweep_follows_the_secant(self, tmp_path):
        # uneven steps weight the secant prediction by w != 1, on sine doping
        # at gamma 1.4
        values = [0.5, 0.6, 0.9, 1.0, 1.6, 4.0, 4.5]
        doping = {"type": "sine", "base": 1.5, "amplitude": 0.2}
        cfg = write_config(tmp_path, {
            "model": {"tau": 1.0, "gamma": 1.4, "doping": doping},
            "solver": {"kind": "subsonic", "method": "elliptic"},
            "sweep": {"variable": "tau", "values": values},
        })
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [float(r[2]) for r in rows] == values
        _replay_continued_sweep(rows, lambda v: ModelParams(
            tau=v, doping=DopingProfile.from_dict(doping), gamma=1.4))

    def test_secant_start(self):
        # u1 + w (u1 - u0) for each level of the pair, w from the sweep values
        p = lambda b: ModelParams(tau=2.0, doping=DopingProfile.constant(b))
        cold = solve_subsonic_elliptic(p(1.2))
        older = solve_subsonic_elliptic(p(1.3), start=cold)
        previous = solve_subsonic_elliptic(p(1.35), start=older)
        w = (1.5 - 1.35) / (1.35 - 1.3)
        # after a cold retry too: cold and continued solves carry the same pair
        retry = solve_subsonic_elliptic(p(1.35))
        for sol in (previous, retry):
            start = cli._sweep_start(older, sol, [1.3, 1.35, 1.5])
            assert len(start.levels) == 2
            for u0, u1, u in zip(older.levels, sol.levels, start.levels):
                assert np.array_equal(u, u1 + w * (u1 - u0))
            assert start.diagnostics == sol.diagnostics
            assert np.array_equal(start.rho, sol.rho)
        # one sample before, or two at one value: the previous sample itself
        assert cli._sweep_start(None, previous, [1.35, 1.5]) is previous
        assert cli._sweep_start(older, previous, [1.35, 1.35, 1.5]) is previous
        # after a failure, or a solve without levels: cold
        assert cli._sweep_start(older, None, [1.3, 1.35, 1.5]) is None
        shooting = cli.solve_subsonic_shooting(
            ModelParams(tau=15.0, doping=DopingProfile.constant(1.5))
        )
        assert cli._sweep_start(None, shooting, [1.3, 1.5]) is None

    def test_failed_continuation_is_solved_cold(self, tmp_path, monkeypatch):
        # only the continued attempt at b = 1.3 fails; its row is the cold
        # retry's, and the next sample continues from that retry
        solve = cli.solve_subsonic_elliptic
        calls = []

        def flaky(p, *args, start=None, **kwargs):
            b = p.doping.constant_value
            calls.append((b, start is not None))
            if b == 1.3 and start is not None:
                raise NewtonDivergence("continued attempt fails")
            return solve(p, *args, start=start, **kwargs)

        monkeypatch.setattr(cli, "solve_subsonic_elliptic", flaky)
        cfg = write_config(tmp_path, {
            "model": model(2.0, 1.5),
            "solver": {"kind": "subsonic", "method": "elliptic"},
            "sweep": {"variable": "bConstant", "values": [1.2, 1.3, 1.4]},
        })
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert calls == [(1.2, False), (1.3, True), (1.3, False), (1.4, True)]
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [r[3] for r in rows] == ["true"] * 3
        p = ModelParams(tau=2.0, doping=DopingProfile.constant(1.3))
        retry = solve_subsonic_elliptic(p)
        assert float(rows[1][10]) == residual_norm(retry, p)[0]
        # the next sample starts from the secant of the first sample and the retry
        first = solve_subsonic_elliptic(ModelParams(tau=2.0, doping=DopingProfile.constant(1.2)))
        start = cli._sweep_start(first, retry, [1.2, 1.3, 1.4])
        p = ModelParams(tau=2.0, doping=DopingProfile.constant(1.4))
        assert float(rows[2][10]) == residual_norm(solve_subsonic_elliptic(p, start=start), p)[0]

    @pytest.mark.parametrize("sweep", [
        {"variable": "bConstant", "values": []},
        {"variable": "tau", "values": [1.0, -1.0, 2.0]},
        {"variable": "tau", "valeus": [1.0, 2.0], "start": 1.0, "stop": 3.0, "count": 3},
    ], ids=["no_values", "negative_tau", "values_misspelt"])
    def test_bad_value_is_usage_error_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                         sweep):
        def unreachable(*args, **kwargs):
            raise AssertionError("a sample was solved")

        monkeypatch.setattr(cli, "solve_subsonic_elliptic", unreachable)
        cfg = write_config(tmp_path, {
            "model": model(2.0, 1.5),
            "solver": {"kind": "subsonic", "method": "elliptic"},
            "sweep": sweep,
        })
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "sweep.csv").exists()

    def test_missing_section_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, {"model": model(15.0, 1.5)})
        assert cli.main(["sweep", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 1

    def test_value_grid_from_range(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": model(50.0, 1.5),
            "solver": {"kind": "transonic_shock"},
            "sweep": {"variable": "rhoL", "start": 0.9, "stop": 0.94,
                      "count": 2},
        })
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3


# ---------------------------------------------------------------------------
# verify command


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


class TestVerify:
    def _solve(self, tmp_path, payload):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("payload", [
        {"model": model(15.0, 1.5), "solver": {"kind": "subsonic"}},
        {"model": model(50.0, 1.5),
         "solver": {"kind": "transonic_shock", "rho_l": 0.9}},
        {"model": model(0.1, 1.5), "solver": {"kind": "c1_transonic", "x0": 0.5}},
    ])
    def test_round_trip_residual(self, tmp_path, payload):
        out = self._solve(tmp_path, payload)
        assert cli.main(["verify", "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["match"] is True
        assert report["residual_gap"] <= 1e-12

    def test_tampered_diagnostic_fails(self, tmp_path):
        out = self._solve(tmp_path, {
            "model": model(15.0, 1.5), "solver": {"kind": "subsonic"},
        })
        meta = json.loads((out / "solution.json").read_text())
        meta["residual_norm"] *= 2.0
        (out / "solution.json").write_text(json.dumps(meta, sort_keys=True))
        assert cli.main(["verify", "--out", str(out)]) == 3
        report = json.loads((out / "verify.json").read_text())
        assert report["match"] is False

    def test_missing_artifacts_usage_error(self, tmp_path, capsys):
        assert cli.main(["verify", "--out", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_recorded_null_residual_fails(self, tmp_path):
        # a recorded null is well formed, but there is nothing to match
        out = self._solve(tmp_path, {
            "model": model(15.0, 1.5), "solver": {"kind": "subsonic"},
        })
        meta = json.loads((out / "solution.json").read_text())
        meta["residual_norm"] = None
        (out / "solution.json").write_text(json.dumps(meta, sort_keys=True))
        assert cli.main(["verify", "--out", str(out)]) == 3
        report = json.loads((out / "verify.json").read_text(), parse_constant=_not_json)
        assert report["match"] is False and report["residual_gap"] is None


# ---------------------------------------------------------------------------
# record schemas: the artifacts serialize the fields of ShockData,
# TransitionData and ExponentFit, so a new field changes them


class TestRecordSchemas:
    def _solve(self, tmp_path, tau, solver):
        cfg = write_config(tmp_path, {"model": model(tau, 1.5), "solver": solver})
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        return out

    def test_shock_record(self, tmp_path):
        out = self._solve(tmp_path, 50.0, {"kind": "transonic_shock", "rho_l": 0.9})
        meta = json.loads((out / "solution.json").read_text())
        assert set(meta["shock"]) == {"x0", "rho_l", "rho_r", "e_jump"}
        assert meta["transition"] is None

    def test_transition_record(self, tmp_path):
        out = self._solve(tmp_path, 0.1, {"kind": "c1_transonic", "x0": 0.5})
        meta = json.loads((out / "solution.json").read_text())
        assert set(meta["transition"]) == {"x0", "slope"}
        assert meta["shock"] is None

    def test_holder_fit_records(self, tmp_path):
        out = self._solve(tmp_path, 15.0, {"kind": "subsonic"})
        assert cli.main(["verify", "--out", str(out)]) == 0
        fits = json.loads((out / "verify.json").read_text())["holder_fits"]
        assert set(fits) == {"0", "1"}
        for fit in fits.values():
            assert set(fit) == {"endpoint", "exponent", "confidence_half_width",
                                "window_used", "n_points", "fit_residual"}

    def test_sweep_header(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": model(1.0, 0.9), "solver": {"kind": "supersonic"},
            "sweep": {"variable": "tau", "values": [0.2]},
        })
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "sweep.csv").read_text().splitlines()[0] == (
            "index,variable,value,success,kind,x0,rho_l,rho_r,e_jump,slope,"
            "residual,error,theorem,message"
        )


# ---------------------------------------------------------------------------
# malformed outside input


_CSV = "x,rho,e,regime\n0.0,1.0,0.5,sonic\n0.5,1.0,0.5,sonic\n1.0,1.0,0.5,sonic\n"
_JSON = json.dumps({"kind": "sonic", "model": model(2.0, 1.0)})


class TestMalformedInput:
    @pytest.mark.parametrize("command, content", [
        ("solve", {"model": model(50.0, 1.5),
                   "solver": {"kind": "transonic_shock", "rho_l": "abc"}}),
        ("solve", {"model": model(0.1, 1.5),
                   "solver": {"kind": "c1_transonic", "x0": None}}),
        ("solve", {"model": model(15.0, 1.5),
                   "solver": {"kind": "subsonic", "method": "elliptic", "j_schedule": 5}}),
        ("solve", {"model": model(15.0, 1.5),
                   "solver": {"kind": "subsonic", "method": "elliptic",
                              "j_schedule": [0.5, 0.4, 1.0]}}),
        ("solve", {"model": model(15.0, 1.5), "solver": {"kind": "subsonic"},
                   "integrator": {"max_step": None}}),
        ("solve", {"model": model(15.0, 1.5),
                   "solver": {"kind": "subsonic", "methd": "elliptic"}}),
        ("solve", {"model": model(15.0, 1.5),
                   "solver": {"kind": "supersonic", "bracket": [0.3, 0.9]}}),
        ("solve", {"model": model(0.1, 1.5),
                   "solver": {"kind": "c1_transonic", "x0": 0.5, "n_stop": 1e-4}}),
        ("sweep", {"model": model(15.0, 1.5), "solver": {"kind": "subsonic"},
                   "sweep": {"variable": "tau", "values": ["x"]}}),
        ("portrait", {"model": model(15.0, 1.5), "portrait": {"count": "x"}}),
        ("portrait", {"model": model(15.0, 1.5), "portrait": {"span": "x"}}),
        ("verify", (_CSV.replace("1.0,0.5,sonic\n1.0", "abc,0.5,sonic\n1.0"), _JSON)),
        ("verify", (_CSV + "2.0,1.0\n", _JSON)),
        ("verify", (_CSV, "{not json")),
        ("verify", (_CSV, _JSON.replace('"sonic"', '"warp"'))),
        ("solve", {"model": {"tau": 15.0, "doping": [1]}, "solver": {"kind": "subsonic"}}),
        ("portrait", {"model": model(15.0, 1.5), "portrait": [1]}),
        ("verify", (_CSV, json.dumps({"kind": "sonic", "model": model(2.0, 1.0),
                                      "residual_norm": "abc"}))),
        ("sweep", {"model": model(15.0, 1.5), "solver": {"kind": "subsonic"},
                   "sweep": {"variable": "tau", "values": "123"}}),
        ("verify", (_CSV.replace("0.5,1.0,0.5,sonic\n", ""), _JSON)),
        # numbers must be JSON numbers: no bool or numeric string is read as one
        ("solve", {"model": {"tau": True, "doping": {"type": "constant", "value": 1.5}},
                   "solver": {"kind": "subsonic"}}),
        ("solve", {"model": {"tau": 2.0, "doping": {"type": "constant", "value": True}},
                   "solver": {"kind": "sonic"}}),
        ("solve", {"model": dict(model(15.0, 1.5), gamma=True), "solver": {"kind": "subsonic"}}),
        ("solve", {"model": model(50.0, 1.5),
                   "solver": {"kind": "transonic_shock", "rho_l": "0.9"}}),
        ("solve", {"model": model(15.0, 1.5), "solver": {"kind": "subsonic"},
                   "integrator": {"rel_tol": True}}),
        ("solve", {"model": model(15.0, 1.5),
                   "solver": {"kind": "subsonic", "method": "elliptic",
                              "j_schedule": [0.5, "0.9", 0.9999]}}),
        ("sweep", {"model": model(15.0, 1.5), "solver": {"kind": "subsonic", "method": "elliptic"},
                   "sweep": {"variable": "bConstant", "values": [1.5, True]}}),
        ("sweep", {"model": model(15.0, 1.5), "solver": {"kind": "subsonic", "method": "elliptic"},
                   "sweep": {"variable": "bConstant", "start": 1.5, "stop": 1.6, "count": 2.7}}),
        ("portrait", {"model": model(0.5, 1.5), "portrait": {"count": 2.5}}),
        ("sweep", {"model": model(15.0, 1.5), "solver": {"kind": "subsonic"},
                   "sweep": {"variable": "tau", "start": 1.0, "stop": 2.0, "count": math.inf}}),
        # a launch the kernel cannot take a step from
        ("portrait", {"model": model(0.5, 1.5), "portrait": {"launches": [[-0.5, 1.0]]}}),
        ("portrait", {"model": model(0.5, 1.5), "portrait": {"launches": [[math.nan, 1.0]]}}),
        ("portrait", {"model": model(0.5, 1.5), "portrait": {"launches": [[1.2, math.inf]]}}),
        # no number that JSON cannot hold is echoed into an artifact
        ("classify", {"model": model(math.inf, 1.5)}),
        ("classify", {"model": model(5e-324, 1.5)}),
        ("classify", {"model": dict(model(15.0, 1.5), gamma=math.inf)}),
        ("sweep", {"model": model(15.0, 1.5), "solver": {"kind": "subsonic"},
                   "sweep": {"variable": "tau", "values": [15.0, math.inf]}}),
        ("verify", (_CSV.replace("0.5,1.0,0.5", "0.5,nan,0.5"), _JSON)),
    ], ids=[
        "rho_l_not_a_number", "x0_null", "j_schedule_not_a_list",
        "j_schedule_not_increasing", "integrator_value_null",
        "solver_key_misspelt", "supersonic_bracket_removed", "c1_n_stop_removed",
        "sweep_value_not_a_number", "portrait_count_not_a_number",
        "portrait_span_not_a_number",
        "csv_cell_not_a_number", "csv_short_row", "json_not_json", "json_unknown_kind",
        "doping_not_an_object", "portrait_not_an_object", "recorded_residual_not_a_number",
        "sweep_values_not_a_list", "csv_two_rows",
        "tau_true", "doping_value_true", "gamma_true", "rho_l_a_string",
        "integrator_value_true", "j_schedule_entry_a_string", "sweep_value_true",
        "sweep_count_not_whole", "portrait_count_not_whole", "sweep_count_infinite",
        "portrait_launch_density_negative", "portrait_launch_density_nan",
        "portrait_launch_field_infinite", "tau_infinite", "tau_inverse_infinite", "gamma_infinite",
        "sweep_tau_infinite", "csv_density_nan",
    ])
    def test_usage_error_without_traceback(self, tmp_path, capsys, command, content):
        if command == "verify":
            (tmp_path / "solution.csv").write_text(content[0])
            (tmp_path / "solution.json").write_text(content[1])
            argv = ["verify", "--out", str(tmp_path)]
        else:
            argv = [command, "--config", write_config(tmp_path, content),
                    "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, section", [
        ("solve", "model"), ("classify", "model"), ("solve", "solver"),
        ("solve", "integrator"), ("portrait", "portrait"), ("sweep", "sweep"),
        ("sweep", "model"), ("sweep", "solver"),
    ])
    @pytest.mark.parametrize("value", [[1], 1, "x", None])
    def test_section_of_the_wrong_type_is_usage_error(self, tmp_path, capsys, command,
                                                      section, value):
        # a sweep sets its variable in the section under test
        config = {"model": model(15.0, 1.5), "solver": {"kind": "subsonic"},
                  "integrator": {}, "portrait": {},
                  "sweep": {"variable": "x0" if section == "solver" else "tau",
                            "values": [0.5]}}
        config[section] = value
        argv = [command, "--config", write_config(tmp_path, config),
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("solver, solve", [
        ({"kind": "sonic"}, "solve_sonic"),
        ({"kind": "subsonic", "method": "shooting"}, "solve_subsonic_shooting"),
        ({"kind": "subsonic", "method": "elliptic", "j_schedule": [0.5, 0.9, 0.9999]},
         "solve_subsonic_elliptic"),
        ({"kind": "supersonic"}, "solve_supersonic"),
        ({"kind": "transonic_shock", "rho_l": 0.9}, "solve_transonic_shock"),
        ({"kind": "c1_transonic", "x0": 0.5}, "solve_c1_transonic"),
    ])
    def test_every_solver_key_of_a_kind_is_accepted(self, solver, solve):
        call, _, _ = cli._solve_call(solver, cli.IntegratorConfig())
        assert call is getattr(cli, solve)

    def test_well_formed_artifacts_are_read(self, tmp_path):
        # the base the verify cases above each break in one place
        (tmp_path / "solution.csv").write_text(_CSV)
        (tmp_path / "solution.json").write_text(_JSON)
        sol, p, _ = cli.reconstruct_solution(tmp_path)
        assert sol.kind == "sonic" and len(sol.x) == 3 and p.tau == 2.0

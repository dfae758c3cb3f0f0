"""Seeded inputs, timed operations and correctness checks for each workload.

Inputs are stratified draws, one stream per operation kind: every block of
four consecutive draws covers each quarter of each draw range once, and the
seed places the draws inside their quarters.  A run of a block or more thus
meets cheap and dear regions in the same proportion whatever the seed, while
a new seed still gives new inputs.

An operation is prepared untimed, run timed and checked untimed.  ``run``
returns what ``check`` inspects; ``check`` returns None or a failure reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# the tier-1 tests' tolerances
RESIDUAL_TOL = {
    "subsonic": 1e-6,
    "supersonic": 1e-6,
    "c1_transonic": 1e-6,
    "transonic_shock": 1e-3,
    "elliptic": 5e-3,
    "sonic": 1e-6,
}
BOUNDARY_TOL = 1e-6
JUMP_TOL = 1e-12
SLOPE_REL_TOL = 1e-3

SWEEP_COUNT = 16

# solve_mix draws only where the baseline certifies every solve: no
# operation of a workload may fail.  The inputs the baseline fails on are
# probed separately (DEFECTS below, README.md).
SOLVE_TAU = (2.5, 50.0)  # subsonic and supersonic, log-uniform
SOLVE_B = (1.2, 2.0)
SHOCK_TAU = (10.0, 60.0)
SHOCK_B = (1.2, 1.45)
SHOCK_RHO_L = (0.9, 0.97)
# C1: [b, tau, x0] points the baseline certifies, in order of tau / tau0(b).
# Its failures are spread over the whole (b, tau / tau0, x0) box instead of
# one corner of it, so C1 draws pick from these points (README.md).
C1_POINTS = json.loads(Path(__file__).with_name("c1_points.json").read_text())

SOLVE_FAMILIES = ("subsonic", "supersonic", "transonic_shock", "c1_transonic")
CLI_ROUND = ("solve", "verify", "sonic", "classify", "sweep")
WORKLOADS = ("solve_mix", "cli_roundtrip")

# strata of the four draws in one block, per dimension; rows are rotated
# between dimensions and blocks so no two dimensions pair strata alike, and
# draws 0, 1 and draws 2, 3 of every row take mirrored quarters
_BLOCK = 4
_STRATA = ((0, 3, 1, 2), (1, 2, 0, 3), (2, 1, 3, 0), (3, 0, 2, 1))


class Stream:
    """Symmetric Latin-hypercube blocks of four draws in [0, 1)^4.

    Each block of four consecutive draws puts one draw in each quarter of
    every dimension.  The seed places the draws inside their quarters, the
    draw in quarter 3 - k mirroring the one in quarter k.  Draws 2i and
    2i + 1 are such mirrors in every dimension, so the mean of any even
    number of draws sits at the middle of every range whatever the seed:
    a run that stops inside a block stays balanced.
    """

    def __init__(self, seed: int, name: str):
        self.key = f"{seed}/{name}"

    def __call__(self, j: int) -> list[float]:
        block, t = divmod(j, _BLOCK)
        u = []
        for d in range(4):
            k = _STRATA[(d + block) % _BLOCK][t]
            v = random.Random(f"{self.key}/{block}/{d}/{min(k, 3 - k)}").random()
            u.append((k + (v if k < 2 else 1.0 - v)) / _BLOCK)
        return u


def _between(u: float, bounds: tuple[float, float]) -> float:
    return bounds[0] + (bounds[1] - bounds[0]) * u


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _solve_doping(u_b: float, u_kind: float, u_shape: float) -> dict:
    """Constant or sine doping for solve_mix, as a config dict."""
    b = _between(u_b, SOLVE_B)
    if u_kind < 0.6:
        return {"type": "constant", "value": b}
    return {"type": "sine", "base": b, "amplitude": (0.2 + 0.6 * u_shape) * (b - 1.0)}


def _doping_above_one(u_b: float, u_kind: float, u_shape: float) -> dict:
    """Constant, sine or piecewise doping with b_lower > 1, as a config dict."""
    b = 1.05 + 0.95 * u_b
    if u_kind < 0.6:
        return {"type": "constant", "value": b}
    if u_kind < 0.8:
        return {"type": "sine", "base": b, "amplitude": (0.2 + 0.6 * u_shape) * (b - 1.0)}
    return {"type": "piecewise", "breakpoints": [0.5], "values": [b, 1.05 + 0.95 * u_shape]}


class Inputs:
    """The seed's input for operation i of a workload, as plain data."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        kinds = {"solve_mix": SOLVE_FAMILIES,
                 "cli_roundtrip": ("solve", "sonic", "classify", "sweep")}[workload]
        self.streams = {k: Stream(seed, k) for k in kinds}

    def round_size(self) -> int:
        return {"solve_mix": 4, "cli_roundtrip": len(CLI_ROUND)}[self.workload]

    def __call__(self, i: int) -> dict:
        r, k = divmod(i, self.round_size())
        if self.workload == "solve_mix":
            return self._solve(SOLVE_FAMILIES[k], self.streams[SOLVE_FAMILIES[k]](r))
        return self._cli(CLI_ROUND[k], r)

    def _solve(self, family: str, u: list[float]) -> dict:
        if family in ("subsonic", "supersonic"):
            return {"kind": family, "tau": _log_uniform(u[0], *SOLVE_TAU),
                    "doping": _solve_doping(u[1], u[2], u[3])}
        if family == "transonic_shock":
            return {"kind": family, "tau": _between(u[0], SHOCK_TAU),
                    "doping": {"type": "constant", "value": _between(u[1], SHOCK_B)},
                    "rho_l": _between(u[2], SHOCK_RHO_L)}
        b, tau, x0 = C1_POINTS[int(u[0] * len(C1_POINTS))]
        return {"kind": family, "tau": tau, "doping": {"type": "constant", "value": b}, "x0": x0}

    def _cli(self, command: str, r: int) -> dict:
        if command == "verify":
            return {"kind": "verify", "of": r}
        u = self.streams[command](r)
        if command == "solve":
            return {"kind": "solve", "tau": _log_uniform(u[0], 0.3, 50.0),
                    "doping": _doping_above_one(u[1], u[2], u[3])}
        if command == "sonic":
            return {"kind": "sonic", "tau": _log_uniform(u[0], 0.3, 50.0)}
        if command == "classify":
            return {"kind": "classify", "tau": _log_uniform(u[0], 0.01, 100.0),
                    "b": 0.1 + 2.9 * u[1]}
        start = 1.05 + 0.45 * u[1]
        return {"kind": "sweep", "tau": _log_uniform(u[0], 0.3, 50.0),
                "start": start, "stop": start + 0.5, "count": SWEEP_COUNT}


# inputs the baseline fails on, one per known defect (README.md); the traced
# run solves each once, untimed, and reports whether it still fails
DEFECTS = (
    ("subsonic_low_tau", {"kind": "subsonic", "tau": 0.6,
                          "doping": {"type": "constant", "value": 1.2}}),
    ("supersonic_low_tau", {"kind": "supersonic", "tau": 0.6,
                            "doping": {"type": "constant", "value": 1.2}}),
    ("supersonic_piecewise", {"kind": "supersonic", "tau": 1.2286643843647187,
                              "doping": {"type": "piecewise", "breakpoints": [0.5],
                                         "values": [1.0828340905445146, 1.6028020707984527]}}),
    ("subsonic_piecewise_residual", {"kind": "subsonic", "tau": 10.61367011339821,
                                     "doping": {"type": "piecewise", "breakpoints": [0.5],
                                                "values": [1.515614998344564,
                                                           1.0800736960449766]}}),
    ("shock_residual", {"kind": "transonic_shock", "tau": 21.179389458013766,
                        "doping": {"type": "constant", "value": 1.5422197738568546},
                        "rho_l": 0.8805664254260208}),
    ("c1_divergence", {"kind": "c1_transonic", "tau": 0.0974009546,
                       "doping": {"type": "constant", "value": 1.2}, "x0": 0.5}),
    ("c1_untyped", {"kind": "c1_transonic", "tau": 0.11102674876958835,
                    "doping": {"type": "constant", "value": 1.7835330259037656},
                    "x0": 0.2206110104158862}),
)


class CommandExit(Exception):
    """A CLI command returned a non-zero exit code."""

    def __init__(self, code: int):
        super().__init__(f"exit code {code}")
        self.code = code


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _boundary_error(rho_left: float, rho_right: float) -> str | None:
    if max(abs(rho_left - 1.0), abs(rho_right - 1.0)) > BOUNDARY_TOL:
        return "boundary"
    return None


class Builder:
    """Turns input dicts into operations against the imported package."""

    def __init__(self, sf, work_dir: Path):
        self.sf = sf
        self.work_dir = work_dir

    def params(self, spec: dict):
        m = self.sf.model_core
        doping = spec["doping"]
        return m.ModelParams(tau=spec["tau"], doping=m.DopingProfile.from_dict(doping))

    def __call__(self, i: int, spec: dict) -> Op:
        kind = spec["kind"]
        if kind in SOLVE_FAMILIES:
            return self._solve_op(spec)
        return self._cli_op(i, spec)

    # -- solve_mix ----------------------------------------------------------

    def _solve_op(self, spec: dict) -> Op:
        solvers, analysis = self.sf.solvers, self.sf.analysis
        kind = spec["kind"]
        p = self.params(spec)

        def run():
            # looked up at call time so the tracer's wrappers take effect
            if kind == "subsonic":
                sol = solvers.solve_subsonic_shooting(p)
            elif kind == "supersonic":
                sol = solvers.solve_supersonic(p)
            elif kind == "transonic_shock":
                sol = solvers.solve_transonic_shock(p, spec["rho_l"])
            else:
                sol = solvers.solve_c1_transonic(p, spec["x0"])
            return sol, analysis.residual_norm(sol, p)[0]

        def check(out):
            sol, residual = out
            if not residual < RESIDUAL_TOL[kind]:
                return "residual"
            bad = _boundary_error(sol.rho[0], sol.rho[-1])
            if bad:
                return bad
            if kind == "transonic_shock" and abs(sol.shock.rho_l * sol.shock.rho_r - 1.0) > JUMP_TOL:
                return "jump"
            if kind == "c1_transonic":
                ref = self.sf.model_core.c1_transition_slope(spec["doping"]["value"], spec["tau"])
                if any(abs(m - ref) > SLOPE_REL_TOL * ref for m in sol.diagnostics["slope_fitted"]):
                    return "slope"
            return None

        return Op(kind, run, check)

    # -- cli_roundtrip ------------------------------------------------------

    def _cli_op(self, i: int, spec: dict) -> Op:
        cli = self.sf.cli
        kind = spec["kind"]
        if kind == "verify":
            out = self.work_dir / f"solve-{spec['of']}"
            argv = ["verify", "--out", str(out)]
        else:
            out = self.work_dir / f"{kind}-{i // len(CLI_ROUND)}"
            config = {"model": {"tau": spec["tau"]}}
            if kind == "solve":
                config["model"]["doping"] = spec["doping"]
                config["solver"] = {"kind": "subsonic", "method": "elliptic"}
            elif kind == "sonic":
                config["model"]["doping"] = {"type": "constant", "value": 1.0}
                config["solver"] = {"kind": "sonic"}
            elif kind == "classify":
                config["model"]["doping"] = {"type": "constant", "value": spec["b"]}
            else:
                config["model"]["doping"] = {"type": "constant", "value": spec["start"]}
                config["solver"] = {"kind": "subsonic", "method": "elliptic"}
                config["sweep"] = {"variable": "bConstant", "start": spec["start"],
                                   "stop": spec["stop"], "count": spec["count"]}
            path = self.work_dir / f"config-{i}.json"
            path.write_text(json.dumps(config))
            command = "solve" if kind in ("solve", "sonic") else kind
            argv = [command, "--config", str(path), "--out", str(out)]

        def run():
            # failures print a JSON object on stdout; keep the result line last
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            # verify exits non-zero only when the recomputed residual differs:
            # a wrong artifact, which check() reports; other commands exit
            # non-zero for typed solver failures
            if code != 0 and kind != "verify":
                raise CommandExit(code)
            return code

        def check(code):
            if code != 0:
                return "verify"
            return _check_artifacts(kind, out, spec)

        return Op("cli." + kind, run, check)


def _check_artifacts(kind: str, out: Path, spec: dict) -> str | None:
    if kind in ("solve", "sonic"):
        meta = json.loads((out / "solution.json").read_text())
        tol = RESIDUAL_TOL["elliptic" if kind == "solve" else "sonic"]
        if not meta["residual_norm"] < tol:
            return "residual"
        return _boundary_error(meta["boundary"]["rho_left"], meta["boundary"]["rho_right"])
    if kind == "verify":
        return None if json.loads((out / "verify.json").read_text())["match"] else "verify"
    if kind == "classify":
        verdicts = json.loads((out / "classify.json").read_text())["verdicts"]
        expected = {"sonic", "subsonic", "supersonic", "transonic_shock", "c1_transonic"}
        return None if set(verdicts) == expected else "verdicts"
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    if len(rows) != spec["count"]:
        return "sweep_rows"
    for row in rows:
        cols = row.split(",")
        if cols[3] != "true":
            return "sweep_sample_" + cols[11]
        if not float(cols[10]) < RESIDUAL_TOL["elliptic"]:
            return "residual"
    return None

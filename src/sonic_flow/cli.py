"""Command-line entry point and artifact serialization.

Commands: solve, classify, portrait, sweep, verify.  All artifacts are
byte-deterministic: CSV numbers use shortest round-trip decimals, JSON is
key-sorted, SVG carries no timestamps.

Exit codes: 0 success, 1 usage or configuration error, 2 regime rejection,
3 numerical failure.  Solver rejections also print a machine-readable JSON
object {"code", "message", "theoremRef"} to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .analysis import classify_regime, fit_holder_exponent, residual_norm
from .errors import InsufficientWindow, PreconditionViolation, RegimeError, SonicFlowError
from .integrator import DomainEnd, IntegratorConfig, integrate
from .model_core import (
    DopingProfile,
    ModelParams,
    ShockData,
    State,
    as_number,
    critical_point_analysis,
    regime,
)
from .solution import SOLUTION_KINDS, Solution, TransitionData
from .solvers import (
    solve_c1_transonic,
    solve_sonic,
    solve_subsonic_elliptic,
    solve_subsonic_shooting,
    solve_supersonic,
    solve_transonic_shock,
    _j_schedule,
)
from .svg import render_portrait, render_profile

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REGIME = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    """Bad command line or configuration content."""


# what converting a malformed value read from a config or an artifact raises;
# a section that is not a JSON object has no .get
_MALFORMED = (TypeError, ValueError, KeyError, IndexError, AttributeError)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; the contract here
    # reserves 2 for regime rejections, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# configuration


def _require(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict):
        raise UsageError(f"{context} section must be a JSON object")
    if key not in mapping:
        raise UsageError(f"missing required key {key!r} in {context}")
    return mapping[key]


def _check_keys(spec: dict, keys, context: str) -> None:
    """UsageError unless `spec` is a JSON object whose keys are all in `keys`."""
    if not isinstance(spec, dict):
        raise UsageError(f"{context} section must be a JSON object")
    extra = set(spec) - set(keys)
    if extra:
        raise UsageError(f"unknown {context} options: {sorted(extra)}")


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config root must be a JSON object")
    return cfg


def model_from_config(cfg: dict) -> ModelParams:
    model = _require(cfg, "model", "config")
    doping_spec = _require(model, "doping", "model")
    try:
        doping = DopingProfile.from_dict(doping_spec)
        return ModelParams(
            tau=as_number(_require(model, "tau", "model")),
            doping=doping,
            gamma=as_number(model.get("gamma", 1.0)),
        )
    except _MALFORMED as exc:
        raise UsageError(f"invalid model section: {exc}") from exc


# the IntegratorConfig fields a config file may set, and solution.json echoes
_INTEGRATOR_KEYS = tuple(f.name for f in fields(IntegratorConfig) if f.name != "sample_spacing")


def integrator_from_config(cfg: dict) -> IntegratorConfig:
    spec = cfg.get("integrator", {})
    _check_keys(spec, _INTEGRATOR_KEYS, "integrator")
    try:
        values = {k: as_number(v) for k, v in spec.items()}
        if not all(map(math.isfinite, values.values())):  # solution.json echoes them
            raise ValueError("integrator values must be finite")
        return IntegratorConfig(**values)
    except _MALFORMED as exc:
        raise UsageError(f"invalid integrator section: {exc}") from exc


def _checked_solve_call(solver: dict, icfg: IntegratorConfig):
    """`_solve_call`, with a malformed section as a UsageError."""
    try:
        return _solve_call(solver, icfg)
    except _MALFORMED as exc:
        raise UsageError(f"invalid solver section: {exc}") from exc


# the keys each solver section may set, by kind (and subsonic method)
_SOLVER_KEYS = {
    "sonic": {"kind"},
    "shooting": {"kind", "method"},
    "elliptic": {"kind", "method", "j_schedule"},
    "supersonic": {"kind"},
    "transonic_shock": {"kind", "rho_l"},
    "c1_transonic": {"kind", "x0"},
}


def _solve_call(solver: dict, icfg: IntegratorConfig):
    """The solver the section names, with the arguments it gives beyond the model."""
    kind = _require(solver, "kind", "solver")
    if kind not in SOLUTION_KINDS:
        raise UsageError(f"unknown solver kind {kind!r}; expected one of {SOLUTION_KINDS}")
    method = solver.get("method", "shooting") if kind == "subsonic" else None
    if method not in (None, "shooting", "elliptic"):
        raise UsageError(f"unknown subsonic method {method!r}")
    _check_keys(solver, _SOLVER_KEYS[method or kind], "solver")
    if kind == "sonic":
        return solve_sonic, (), {}
    if method == "shooting":
        return solve_subsonic_shooting, (), {"cfg": icfg}
    if method == "elliptic":
        kwargs = {}
        if "j_schedule" in solver:
            kwargs["j_schedule"] = _j_schedule(solver["j_schedule"])
        return solve_subsonic_elliptic, (), kwargs
    if kind == "supersonic":
        return solve_supersonic, (), {"cfg": icfg}
    if kind == "transonic_shock":
        rho_l = as_number(_require(solver, "rho_l", "solver"))
        return solve_transonic_shock, (rho_l,), {"cfg": icfg}
    rho_x0 = as_number(_require(solver, "x0", "solver"))
    return solve_c1_transonic, (rho_x0,), {"cfg": icfg}


# ---------------------------------------------------------------------------
# artifact writers


def write_solution_csv(sol: Solution, path: Path) -> None:
    lines = ["x,rho,e,regime"]
    for x, rho, e in zip(sol.x.tolist(), sol.rho.tolist(), sol.e.tolist()):
        lines.append(f"{x!r},{rho!r},{e!r},{regime(rho)}")
    path.write_text("\n".join(lines) + "\n")


def read_solution_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    if not lines or lines[0] != "x,rho,e,regime":
        raise UsageError(f"{path} is not a solution CSV (bad header)")
    cols = [line.split(",") for line in lines[1:]]
    x = np.array([float(c[0]) for c in cols])
    rho = np.array([float(c[1]) for c in cols])
    e = np.array([float(c[2]) for c in cols])
    return x, rho, e


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):  # no NaN or Infinity in JSON
        return None
    return obj


def _dump_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(_json_ready(payload), sort_keys=True, indent=2) + "\n")


def solution_json_payload(
    sol: Solution, p: ModelParams, icfg: IntegratorConfig, solver_echo: dict
) -> dict:
    residual, location = residual_norm(sol, p)
    return {
        "kind": sol.kind,
        "model": {
            "tau": p.tau,
            "gamma": p.gamma,
            "doping": p.doping.to_dict(),
        },
        "integrator": {k: getattr(icfg, k) for k in _INTEGRATOR_KEYS},
        "solver": solver_echo,
        "shock": asdict(sol.shock) if sol.shock else None,
        "transition": asdict(sol.transition) if sol.transition else None,
        "diagnostics": dict(sol.diagnostics),
        "residual_norm": residual,
        "residual_location": location,
        "boundary": {"rho_left": float(sol.rho[0]), "rho_right": float(sol.rho[-1])},
        "points": int(len(sol.x)),
    }


def reconstruct_solution(out_dir: Path):
    """Rebuild (Solution, ModelParams) from solution.csv + solution.json."""
    meta_path = out_dir / "solution.json"
    csv_path = out_dir / "solution.csv"
    if not meta_path.exists() or not csv_path.exists():
        raise UsageError(f"no solution artifacts in {out_dir}")
    try:
        meta = json.loads(meta_path.read_text())
        x, rho, e = read_solution_csv(csv_path)
        if len(x) < 3:  # the residual's finite differences need three
            raise ValueError(f"{csv_path.name} has {len(x)} rows, fewer than three")
        shock = None
        if meta.get("shock"):
            shock = ShockData(**meta["shock"])
        transition = None
        if meta.get("transition"):
            transition = TransitionData(**meta["transition"])
        sol = Solution(
            kind=meta["kind"],
            x=x,
            rho=rho,
            e=e,
            shock=shock,
            transition=transition,
            diagnostics=meta.get("diagnostics", {}),
        )
        m = meta["model"]
        p = ModelParams(
            tau=as_number(m["tau"]),
            doping=DopingProfile.from_dict(m["doping"]),
            gamma=as_number(m.get("gamma", 1.0)),
        )
    except _MALFORMED as exc:
        raise UsageError(f"malformed solution artifacts in {out_dir}: {exc}") from exc
    return sol, p, meta


# ---------------------------------------------------------------------------
# commands


def run_solve(cfg: dict, out_dir: Path) -> int:
    p = model_from_config(cfg)
    icfg = integrator_from_config(cfg)
    solver = cfg.get("solver", {})
    solve, args, kwargs = _checked_solve_call(solver, icfg)
    # the solve runs outside the guard: its own errors are not usage errors
    sol = solve(p, *args, **kwargs)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_solution_csv(sol, out_dir / "solution.csv")
    _dump_json(
        solution_json_payload(sol, p, icfg, solver_echo=solver),
        out_dir / "solution.json",
    )
    (out_dir / "profile.svg").write_text(
        render_profile(sol, title=f"{sol.kind} solution")
    )
    return EXIT_OK


def run_classify(cfg: dict, out_dir: Path) -> int:
    p = model_from_config(cfg)
    report = classify_regime(p)
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(report.to_dict(), out_dir / "classify.json")
    return EXIT_OK


_PORTRAIT_KEYS = ("mode", "span", "count", "launches")


def _count(value) -> int:
    """A portrait or sweep count: a whole number; ValueError otherwise."""
    n = as_number(value)
    if not n.is_integer():  # NaN and infinity included
        raise ValueError(f"count must be a whole number, not {value!r}")
    return int(n)


def _portrait_spec(p: ModelParams, spec: dict):
    """Mode, span and launches: a fan around the critical point unless given explicitly."""
    _check_keys(spec, _PORTRAIT_KEYS, "portrait")
    try:
        mode = spec.get("mode", "primal")
        if mode not in ("primal", "transformed"):
            raise ValueError(f"unknown mode {mode!r}")
        span = as_number(spec.get("span", 4.0))
        if not 0.0 < span < math.inf:  # NaN included
            raise ValueError(f"span must be positive and finite, not {span!r}")
        if "launches" in spec:
            launches = [(as_number(r), as_number(e)) for r, e in spec["launches"]]
            for r, e in launches:
                if not (0.0 < r < math.inf and math.isfinite(e)):  # NaN included
                    raise ValueError(f"a launch needs a positive, finite density and a "
                                     f"finite field, not {[r, e]!r}")
            return mode, span, launches
        a_rho, a_e = critical_point_analysis(p).point  # raises only typed errors
        count = _count(spec.get("count", 12))
        if count < 1:
            raise ValueError(f"count must be positive, not {count}")
    except _MALFORMED as exc:
        raise UsageError(f"invalid portrait section: {exc}") from exc
    radius_rho, radius_e = 0.4 * a_rho, max(0.5 * abs(a_e), 0.05)
    out = []
    for k in range(count):
        ang = 2.0 * math.pi * k / count
        rho0 = a_rho + radius_rho * math.cos(ang)
        e0 = a_e + radius_e * math.sin(ang)
        if rho0 > 0.05:
            out.append((rho0, e0))
    return mode, span, out


def run_portrait(cfg: dict, out_dir: Path) -> int:
    p = model_from_config(cfg)
    if not p.doping.is_constant:
        raise UsageError("portrait requires constant doping")
    # rows at most 1e-2 apart in x, whatever the step cap
    icfg = replace(integrator_from_config(cfg), sample_spacing=1e-2)
    mode, span, launches = _portrait_spec(p, cfg.get("portrait", {}))

    segments = []
    for rho0, e0 in launches:
        for direction, limit in (("forward", span), ("backward", -span)):
            seg = integrate(
                State(0.0, rho0, e0), direction, [DomainEnd(limit)], p, icfg
            )
            segments.append(seg)

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["trajectory,x,rho,e"]
    for i, seg in enumerate(segments):
        for x, rho, e in zip(seg.xs.tolist(), seg.rhos.tolist(), seg.es.tolist()):
            lines.append(f"{i},{x!r},{rho!r},{e!r}")
    (out_dir / "portrait.csv").write_text("\n".join(lines) + "\n")

    curves = [(seg.rhos, seg.es) for seg in segments]
    title = f"phase portrait ({mode}), tau={p.tau:g}, b={p.doping.constant_value:g}"
    (out_dir / "portrait.svg").write_text(
        render_portrait(curves, p, mode=mode, title=title)
    )
    return EXIT_OK


SWEEP_VARIABLES = ("rhoL", "x0", "tau", "bConstant")
_SWEEP_KEYS = ("variable", "values", "start", "stop", "count")


def _sweep_values(spec: dict) -> list[float]:
    try:
        if "values" in spec:
            if not isinstance(spec["values"], list):
                raise UsageError("sweep values must be a list")
            values = [as_number(v) for v in spec["values"]]
            if not values:
                raise UsageError("sweep values must not be empty")
            return values
        start = as_number(_require(spec, "start", "sweep"))
        stop = as_number(_require(spec, "stop", "sweep"))
        count = _count(_require(spec, "count", "sweep"))
    except _MALFORMED as exc:
        raise UsageError(f"invalid sweep section: {exc}") from exc
    if count < 1:
        raise UsageError("sweep count must be positive")
    return [float(v) for v in np.linspace(start, stop, count)]


def _sweep_sample(cfg: dict, variable: str, value: float):
    """(model, solve, args, kwargs) of one sample; UsageError if its config is bad."""
    local = json.loads(json.dumps(cfg))  # deep copy; samples mutate independently
    solver = local.setdefault("solver", {})
    try:
        if variable == "rhoL":
            solver["rho_l"] = value
        elif variable == "x0":
            solver["x0"] = value
        elif variable == "tau":
            local["model"]["tau"] = value
        else:
            local["model"]["doping"] = {"type": "constant", "value": value}
    except _MALFORMED as exc:
        raise UsageError(f"cannot set sweep variable {variable}: {exc}") from exc
    p = model_from_config(local)
    return (p, *_checked_solve_call(solver, integrator_from_config(local)))


def _sweep_start(older: Solution | None, previous: Solution | None, values) -> Solution | None:
    """The start of a continued sample at values[-1]: the secant prediction
    u1 + w (u1 - u0) of the relaxation levels of the two samples before,
    where both succeeded, else the previous sample; None where that has no
    levels (it failed, or is no elliptic solve)."""
    if previous is None or previous.levels is None:
        return None
    if older is None or values[-2] == values[-3]:
        return previous
    w = (values[-1] - values[-2]) / (values[-2] - values[-3])
    return replace(previous, levels=tuple(
        u1 + w * (u1 - u0) for u0, u1 in zip(older.levels, previous.levels)
    ))


def _sweep_solve(p, solve, args, kwargs, start: Solution | None) -> Solution:
    """One sample, continued from `start` where there is one; a continued
    solve that fails is re-solved cold."""
    if start is not None:
        try:
            return solve(p, *args, start=start, **kwargs)
        except SonicFlowError:
            pass
    return solve(p, *args, **kwargs)


def _sweep_cells(sol: Solution, p: ModelParams) -> str:
    """The kind, record and residual cells of a solved sample's row."""
    record = {}
    for rec in (sol.shock, sol.transition):
        if rec is not None:
            record.update(asdict(rec))
    nums = [record.get(k, "") for k in ("x0", "rho_l", "rho_r", "e_jump", "slope")]
    nums.append(residual_norm(sol, p)[0])
    return ",".join([sol.kind] + ["" if v == "" else repr(float(v)) for v in nums])


def run_sweep(cfg: dict, out_dir: Path) -> int:
    spec = cfg.get("sweep")
    if not spec:
        raise UsageError("sweep command needs a 'sweep' config section")
    _check_keys(spec, _SWEEP_KEYS, "sweep")
    variable = _require(spec, "variable", "sweep")
    if variable not in SWEEP_VARIABLES:
        raise UsageError(f"sweep variable must be one of {SWEEP_VARIABLES}")
    values = _sweep_values(spec)
    # every sample's config is checked before the first solve
    samples = [_sweep_sample(cfg, variable, v) for v in values]
    lines = [
        "index,variable,value,success,kind,x0,rho_l,rho_r,e_jump,slope,"
        "residual,error,theorem,message"
    ]
    # serial: each elliptic sample starts from the ones before, and a failed
    # sample leaves the next to start cold
    older = previous = None
    for k, (p, solve, args, kwargs) in enumerate(samples):
        start = _sweep_start(older, previous, values[max(k - 2, 0):k + 1])
        older = previous
        try:
            previous = _sweep_solve(p, solve, args, kwargs, start)
        except SonicFlowError as exc:  # only a RegimeError names a theorem
            previous = None
            theorem = getattr(exc, "theorem_ref", None) or ""
            msg = str(exc).replace(",", ";").replace("\n", " ")
            cells = f"false,,,,,,,,{type(exc).__name__},{theorem},{msg}"
        else:
            cells = f"true,{_sweep_cells(previous, p)},,,"
        lines.append(f"{k},{variable},{values[k]!r},{cells}")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def run_verify(cfg: dict, out_dir: Path) -> int:
    sol, p, meta = reconstruct_solution(out_dir)
    residual, location = residual_norm(sol, p)
    recorded = meta.get("residual_norm")
    try:  # a recorded null is no usage error: it has no gap, so it exits 3
        gap = abs(residual - as_number(recorded)) if recorded is not None else math.inf
    except _MALFORMED as exc:
        raise UsageError(f"malformed residual_norm in {out_dir}: {exc}") from exc
    checks = {
        "residual_recomputed": residual,
        "residual_recorded": recorded,
        "residual_gap": gap,
        "residual_location": location,
        "boundary_left": float(abs(sol.rho[0] - 1.0)),
        "boundary_right": float(abs(sol.rho[-1] - 1.0)),
        "kind": sol.kind,
        "points": int(len(sol.x)),
    }
    exponents = {}
    if sol.kind in ("subsonic", "supersonic", "transonic_shock"):
        for endpoint in (0, 1):
            try:
                fit = fit_holder_exponent(sol, endpoint)
                exponents[str(endpoint)] = asdict(fit)
            except (InsufficientWindow, PreconditionViolation) as exc:
                exponents[str(endpoint)] = {"skipped": str(exc)}
    checks["holder_fits"] = exponents
    ok = gap <= 1e-12
    checks["match"] = bool(ok)
    _dump_json(checks, out_dir / "verify.json")
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # built once per process; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sonic-flow",
        description="Steady Euler-Poisson flows with sonic boundaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "classify", "portrait", "sweep", "verify"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=(name != "verify"))
        cmd.add_argument("--out", default=".")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = load_config(args.config) if args.config else {}
        out_dir = Path(args.out)
        runner = {
            "solve": run_solve,
            "classify": run_classify,
            "portrait": run_portrait,
            "sweep": run_sweep,
            "verify": run_verify,
        }[args.command]
        return runner(cfg, out_dir)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SonicFlowError as exc:
        print(json.dumps({
            "code": type(exc).__name__,
            "message": str(exc),
            "theoremRef": getattr(exc, "theorem_ref", None),
        }, sort_keys=True))
        return EXIT_REGIME if isinstance(exc, RegimeError) else EXIT_NUMERICAL


def entry() -> None:
    """Console-script shim: translate main()'s return code into an exit."""
    sys.exit(main())


if __name__ == "__main__":
    entry()

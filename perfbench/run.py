"""sonic-flow benchmark: one seeded workload, closed loop, one caller.

    python3 perfbench/run.py --workload solve_mix --seed 1 --seconds 45 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
Human-readable lines come first; the last line of standard output is one
JSON object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7  # fresh-process set-up probes per run, spread over the run
OP_TIME_LIMIT = 30.0  # seconds; an operation running longer counts as failed
FINGERPRINT_OPS = 64


class OpTimeout(Exception):
    """An operation outlived OP_TIME_LIMIT."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def load_package():
    """Import sonic_flow from this checkout's src/, nowhere else."""
    src = ROOT / "src"
    if not (src / "sonic_flow" / "__init__.py").is_file():
        raise ImportError(f"no sonic_flow package under {src}")
    sys.path.insert(0, str(src))
    names = ("analysis", "cli", "errors", "integrator", "model_core", "solvers")
    mods = {n: importlib.import_module("sonic_flow." + n) for n in names}
    if Path(mods["cli"].__file__).resolve().parent != (src / "sonic_flow").resolve():
        raise ImportError("sonic_flow was imported from outside this checkout")
    return SimpleNamespace(**mods)


def fingerprint(inputs: workloads.Inputs) -> str:
    data = json.dumps([inputs(i) for i in range(FINGERPRINT_OPS)], sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def failure_class(exc: Exception, sf) -> str:
    if isinstance(exc, OpTimeout):
        return "timeout"
    if isinstance(exc, workloads.CommandExit):
        return f"exit_{exc.code}"
    if isinstance(exc, sf.errors.SonicFlowError):
        return type(exc).__name__
    return "untyped_" + type(exc).__name__


class Loop:
    """Closed loop over the seed's operations with per-operation accounting."""

    def __init__(self, sf, inputs: workloads.Inputs, build: workloads.Builder):
        self.sf = sf
        self.inputs = inputs
        self.build = build
        self.next_op = 0
        self.samples: list[tuple[str, float, str | None]] = []
        self.wrong = 0

    def run_one(self, rec: tracing.Recorder | None = None, i: int | None = None):
        """Prepare, time and check operation i (default: the next one).

        Returns (kind, seconds).  With rec, the timed call gets an "op" span.
        """
        if i is None:
            i = self.next_op
            self.next_op += 1
        op = self.build(i, self.inputs(i))
        signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT)
        span = rec.begin("op") if rec is not None else None
        t0 = time.perf_counter()
        try:
            out = op.run()
            failure = None
        except Exception as exc:  # every failure is counted, none ends the run
            failure = failure_class(exc, self.sf)
        finally:
            elapsed = time.perf_counter() - t0
            if span is not None:
                rec.end(span)
            signal.setitimer(signal.ITIMER_REAL, 0)
        if failure is None:
            reason = op.check(out)
            if reason is not None:
                failure = "check_" + reason
                self.wrong += 1
        self.samples.append((op.kind, elapsed, failure))
        return op.kind, elapsed


def setup_probe(workload: str, seed: int, process: hostspeed.Sampler) -> tuple[float, float]:
    """Wall time of one fresh process that imports the package and makes the
    inputs, raw and at nominal host speed.  ``process`` runs the reference
    process right before and right after it; the probe is scaled by the mean
    of those two."""
    process.take()
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    seconds = time.perf_counter() - t0
    process.take()
    return seconds, seconds * process.nominal / statistics.mean(process.samples[-2:])


def warm_up(sf) -> None:
    """First-call costs (lazy imports, scipy set-up) before any timing."""
    m = sf.model_core
    p = m.ModelParams(tau=15.0, doping=m.DopingProfile.constant(1.5))
    sol = sf.solvers.solve_subsonic_elliptic(p)
    sf.analysis.residual_norm(sol, p)
    sf.analysis.classify_regime(p)
    sf.solvers.integrate_from_sonic(
        0.0, "subsonic", p.inv_tau + 0.01, "forward",
        [sf.integrator.DomainEnd(3.0)], p, sf.integrator.IntegratorConfig(),
    )


def percentile_line(name: str, values: list[float], unit: str = "s") -> str:
    """Median, count and the highest percentile with ten samples beyond it."""
    if not values:
        return f"{name}: no successful operations"
    line = f"{name} {statistics.median(values):.6g} {unit} (median, n={len(values)}"
    if len(values) > 10:
        q = int(100 * (len(values) - 10) / len(values))
        cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
        line += f", p{q}={cut:.6g} {unit}"
    return line + ")"


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def run_end_to_end(sf, args, inputs, build) -> dict:
    """Closed loop for --seconds.  solve_mix times and setup_s are stated at
    nominal host speed; cli_roundtrip times are raw."""
    warm_up(sf)
    process = hostspeed.process_sampler()
    # solve_mix spends its time in small-array ODE steps, which the kernel
    # follows; the CLI's goes to file I/O, larger arrays and a thread pool,
    # which neither reference follows (see README.md)
    host = hostspeed.kernel_sampler() if args.workload == "solve_mix" else None
    loop = Loop(sf, inputs, build)
    setups = [setup_probe(args.workload, args.seed, process)]
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    while loop.next_op == 0 or time.perf_counter() < deadline:
        loop.run_one()
        if host:
            host.between_ops()
        # the other probes are spread evenly over the run; the loop's
        # deadline moves by the time they take
        due = t_start + len(setups) * args.seconds / (SETUP_PROBES - 1)
        if len(setups) < SETUP_PROBES - 1 and time.perf_counter() >= due:
            t0 = time.perf_counter()
            setups.append(setup_probe(args.workload, args.seed, process))
            deadline += time.perf_counter() - t0
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args.workload, args.seed, process))

    samples = loop.samples
    scale = host.factor() if host else 1.0
    failed = sum(1 for _, _, f in samples if f is not None)
    attempted: dict[str, list[float]] = {}
    by_kind: dict[str, list[float]] = {}
    for kind, t, f in samples:
        attempted.setdefault(kind, []).append(t * scale)
        by_kind.setdefault(kind, [])
        if f is None:
            by_kind[kind].append(t * scale)
    # one median per kind, so the kinds weigh alike whatever their mix, and a
    # run's one to three slow failing draws do not set its rate (README.md)
    medians = [statistics.median(ts) for ts in by_kind.values() if ts]
    round_seconds = sum(statistics.median(ts) for ts in attempted.values())
    raw_seconds = sum(t for _, t, _ in samples)
    op_seconds = raw_seconds * scale
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "ops_per_s": (len(attempted) / round_seconds, "1/s"),
        "op_s": (statistics.geometric_mean(medians) if medians else op_seconds, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    _write_ops(args, loop)

    print("setup_s raw, at nominal host speed: "
          + " ".join(f"{raw:.4f},{scaled:.4f}" for raw, scaled in setups))
    if host:
        print(f"host: {len(host.samples)} samples of {host.reference.__name__}, mean "
              f"{statistics.mean(host.samples):.6g} s, nominal {host.nominal:.6g} s; "
              f"operation times scaled by {scale:.4f}")
    print(f"op time {raw_seconds:.3f} s raw, {op_seconds:.3f} s scaled, "
          f"attempted {len(samples)}, attempted_per_s {len(samples) / op_seconds:.6g} 1/s, "
          f"failed {failed}, failed_frac {failed / len(samples):.4f}")
    for kind, times in by_kind.items():
        print(percentile_line(_kind_metric(kind), times))
    tally = Counter(f for _, _, f in samples if f is not None)
    print("failures: " + (" ".join(f"{k}={v}" for k, v in sorted(tally.items())) or "none"))
    return {"correct": loop.wrong == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def _kind_metric(kind: str) -> str:
    if kind in workloads.SOLVE_FAMILIES:
        return "solve_s." + kind
    return kind.replace("cli.sonic", "cli.solve_sonic") + "_s"


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def run_traced(sf, args, inputs, build) -> dict:
    """Run each operation traced and untraced; work counts come from round 0.

    A round is one operation of each kind.  Round 0 always completes, so its
    counts do not depend on how fast the host is.  Times are per traced
    operation.  The untraced twin of each operation, run right before or
    after it, gives the tracing overhead on the same inputs.
    """
    warm_up(sf)
    rec = tracing.Recorder()
    tracer = tracing.Tracer(sf, rec)
    loop = Loop(sf, inputs, build)
    seconds = {True: 0.0, False: 0.0}  # traced? -> time over the same operations
    sweep_wall = 0.0
    window = None
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < inputs.round_size() or time.perf_counter() < deadline:
        # each operation runs traced and untraced, in alternating order
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                with tracer:
                    kind, elapsed = loop.run_one(rec, i)
                if kind == "cli.sweep":
                    sweep_wall += elapsed
            else:
                kind, elapsed = loop.run_one(None, i)
            seconds[traced] += elapsed
        i += 1
        if i == inputs.round_size():
            window = Counter(rec.counts)
            window["cli.artifact.bytes"] = _artifact_bytes(build.work_dir)

    spans = rec.spans
    _write_spans(args, spans)
    busy, self_time = tracing.layer_times(spans)
    traced_ops, op_wall = i, seconds[True]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    def per_op(seconds):
        return seconds / traced_ops

    for key in ("integrator.calls", "integrator.samples", "ode.legs", "ode.rhs_evals",
                "model_core.doping_evals", "solvers.elliptic.newton_iters"):
        put(key, window[key], "count")
    for kind in tracing.TERM_KINDS + ("none", "raised"):
        put("integrator.term." + kind, window["integrator.term." + kind], "count")
    for fam in workloads.SOLVE_FAMILIES:
        solves = window["solves." + fam]
        put(f"solvers.shots_per_solve.{fam}",
            window["shots." + fam] / solves if solves else 0.0, "count")
    put("cli.artifact.bytes", window["cli.artifact.bytes"], "B")

    put("integrator.busy_s", per_op(busy["integrator"]), "s")
    put("integrator.self_s", per_op(self_time["integrator"]), "s")
    put("ode.busy_s", per_op(busy["ode"]), "s")
    n_spans = Counter(s[0] for s in spans)
    for fam in workloads.SOLVE_FAMILIES:
        n = n_spans["solvers." + fam]
        put("solvers.busy_s." + fam, busy["solvers." + fam] / n if n else 0.0, "s")
        put("solvers.self_s." + fam, self_time["solvers." + fam] / n if n else 0.0, "s")
    for name, layer in (
        ("solvers.elliptic.busy_s", "solvers.elliptic"),
        ("analysis.residual.busy_s", "analysis.residual"),
        ("analysis.holder.busy_s", "analysis.holder"),
        ("analysis.classify.busy_s", "analysis.classify"),
        ("svg.render.busy_s", "svg.render"),
        ("cli.artifact.write_s", "cli.write"),
        ("cli.artifact.read_s", "cli.read"),
    ):
        put(name, per_op(busy[layer]), "s")
    put("cli.self_s", per_op(self_time["cli"]), "s")
    main_thread = threading.get_ident()
    pooled = sum(t1 - t0 for layer, t0, t1, _, tid in spans
                 if layer.startswith("solvers.") and tid != main_thread)
    put("cli.sweep.overlap", pooled / sweep_wall if sweep_wall else 0.0, "ratio")
    put("integrator.share", busy["integrator"] / op_wall, "frac")
    put("trace.accounted_frac", 1.0 - self_time["op"] / op_wall, "frac")

    defects = probe_defects(sf, build)
    for name, failure in defects.items():
        put("defects." + name, float(failure is not None), "count")

    traced_rate = traced_ops / op_wall
    plain_rate = traced_ops / seconds[False]
    put("trace.ops_per_s", traced_rate, "1/s")
    put("trace.untraced_ops_per_s", plain_rate, "1/s")
    put("trace.overhead_frac", 1.0 - traced_rate / plain_rate, "frac")

    print(f"operations {traced_ops}, each run traced and untraced; spans {len(spans)}")
    shares = sorted(((v / op_wall, k) for k, v in self_time.items()), reverse=True)
    print("self-time share of traced op wall: "
          + " ".join(f"{k}={v:.4f}" for v, k in shares))
    print("known defects: " + " ".join(f"{k}={v or 'fixed'}" for k, v in defects.items()))
    samples = loop.samples
    failed = sum(1 for _, _, f in samples if f is not None)
    return {"correct": loop.wrong == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def probe_defects(sf, build: workloads.Builder) -> dict[str, str | None]:
    """Solve each input of workloads.DEFECTS once, untimed and outside the
    workload's operations; maps each defect to how it still fails, or None."""
    found = {}
    for name, spec in workloads.DEFECTS:
        op = build(0, spec)
        signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT)
        try:
            reason = op.check(op.run())
            found[name] = reason and "check_" + reason
        except Exception as exc:
            found[name] = failure_class(exc, sf)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return found


def _artifact_bytes(work_dir: Path) -> int:
    return sum(p.stat().st_size for p in work_dir.rglob("*")
               if p.is_file() and not p.name.startswith("config-"))


def _write_ops(args, loop: Loop) -> None:
    """One row per operation: kind, raw seconds, failure, input."""
    out = ROOT / ".perfbench_out" / f"ops-{args.workload}-{args.seed}.json"
    rows = [[kind, t, f, loop.inputs(i)] for i, (kind, t, f) in enumerate(loop.samples)]
    out.write_text(json.dumps(rows))


def _write_spans(args, spans) -> None:
    out = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json"
    t0 = spans[0][1] if spans else 0.0
    rows = [[layer, round(a - t0, 9), round(b - t0, 9), parent, tid]
            for layer, a, b, parent, tid in spans]
    out.write_text(json.dumps(rows))


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and make the inputs, then exit (times set-up)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        sf = load_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs = workloads.Inputs(args.workload, args.seed)
    if args.setup_probe:
        fingerprint(inputs)
        return 0

    import numpy
    import scipy

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"closed loop, 1 caller; nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}")
    print(f"inputs {fingerprint(inputs)}")
    signal.signal(signal.SIGALRM, _on_alarm)
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        build = workloads.Builder(sf, work_dir)
        runner = run_traced if args.trace else run_end_to_end
        result = runner(sf, args, inputs, build)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

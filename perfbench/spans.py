"""Outside-in tracing of sonic_flow: spans and work counts per layer.

The tracer replaces public functions under the names their callers look
them up by (a module global or a class attribute), records one span per
call and puts the originals back on exit.  The package itself is not
changed.  Spans are kept in memory and written out when the run ends.

A span is ``[layer, start, end, parent, thread]``; ``parent`` indexes the
enclosing span on the same thread, or is -1.  A layer's self time is the
duration of its spans minus the part their child spans cover; its busy time
counts only spans with no enclosing span of the same layer.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter

TERM_KINDS = (
    "sonic_arrival",
    "target_density",
    "critical_point",
    "domain_end",
    "step_failure",
    "blow_up",
)

# solver entry points and the family (span layer suffix) each one is timed as
SOLVER_FAMILIES = {
    "solve_sonic": "sonic",
    "solve_subsonic_shooting": "subsonic",
    "solve_subsonic_elliptic": "elliptic",
    "solve_supersonic": "supersonic",
    "solve_transonic_shock": "transonic_shock",
    "solve_c1_transonic": "c1_transonic",
}


class Recorder:
    """In-memory span store; safe to use from the sweep's worker threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[list] = []
        self.counts: Counter = Counter()

    def stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str) -> int:
        stack = self.stack()
        span = [layer, time.perf_counter(), None, stack[-1] if stack else -1,
                threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack().pop()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def enclosing(self, prefix: str) -> str | None:
        """Layer of the innermost open span on this thread starting with prefix."""
        for index in reversed(self.stack()):
            layer = self.spans[index][0]
            if layer.startswith(prefix):
                return layer
        return None


def _spanned(rec: Recorder, layer: str, fn, on_call=None, on_result=None, on_error=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if on_call is not None:
            on_call()
        index = rec.begin(layer)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            rec.end(index)
        if on_result is not None:
            on_result(out)
        return out

    return traced


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, sf, rec: Recorder):
        self.rec = rec
        self._patches = []
        cli, solvers, integrator, analysis = sf.cli, sf.solvers, sf.integrator, sf.analysis

        self._patch(integrator, "solve_ivp", self._ode)
        for name in ("integrate", "integrate_from_sonic"):
            self._patch(solvers, name, self._integrator)
        for module in (solvers, cli):
            for name, family in SOLVER_FAMILIES.items():
                if hasattr(module, name):
                    self._patch(module, name, lambda fn, f=family: self._solver(fn, f))
        for module in (analysis, cli):
            self._patch(module, "residual_norm", self._layer("analysis.residual"))
            self._patch(module, "classify_regime", self._layer("analysis.classify"))
        self._patch(cli, "fit_holder_exponent", self._layer("analysis.holder"))
        self._patch(cli, "render_profile", self._layer("svg.render"))
        for name in ("write_solution_csv", "_dump_json"):
            self._patch(cli, name, self._layer("cli.write"))
        for name in ("load_config", "reconstruct_solution", "read_solution_csv"):
            self._patch(cli, name, self._layer("cli.read"))
        self._patch(cli, "main", self._layer("cli"))
        self._patch(sf.model_core.DopingProfile, "__call__", self._doping)

    def _patch(self, owner, name, make):
        self._patches.append((owner, name, getattr(owner, name), make))

    def __enter__(self):
        for owner, name, original, make in self._patches:
            setattr(owner, name, make(original))
        return self

    def __exit__(self, *exc):
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)
        return False

    # -- wrappers -----------------------------------------------------------

    def _layer(self, layer):
        return lambda fn: _spanned(self.rec, layer, fn)

    def _ode(self, fn):
        rec = self.rec

        def on_result(sol):
            rec.count("ode.legs")
            rec.count("ode.rhs_evals", int(sol.nfev))

        return _spanned(rec, "ode", fn, on_result=on_result)

    def _integrator(self, fn):
        rec = self.rec

        def on_call():
            rec.count("integrator.calls")
            family = rec.enclosing("solvers.")
            if family is not None:
                rec.count("shots." + family.split(".", 1)[1])

        def on_result(seg):
            rec.count("integrator.samples", len(seg.xs))
            kind = seg.terminator.kind if seg.terminator is not None else "none"
            rec.count("integrator.term." + (kind if kind in TERM_KINDS else "none"))

        def on_error(exc):
            rec.count("integrator.term.raised")

        return _spanned(rec, "integrator", fn, on_call, on_result, on_error)

    def _solver(self, fn, family):
        rec = self.rec

        def on_call():
            rec.count("solves." + family)

        def on_result(sol):
            if family == "elliptic":
                rec.count("solvers.elliptic.newton_iters",
                          sum(sol.diagnostics["newton_iterations"]))

        return _spanned(rec, "solvers." + family, fn, on_call, on_result)

    def _doping(self, fn):
        rec = self.rec

        @functools.wraps(fn)
        def traced(profile, x):
            rec.count("model_core.doping_evals")
            return fn(profile, x)

        return traced


def layer_times(spans: list[list]) -> tuple[Counter, Counter]:
    """Busy and self seconds per layer over closed spans."""
    child = [0.0] * len(spans)
    for layer, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    busy: Counter = Counter()
    self_time: Counter = Counter()
    for i, (layer, t0, t1, parent, _) in enumerate(spans):
        self_time[layer] += (t1 - t0) - child[i]
        while parent >= 0 and spans[parent][0] != layer:
            parent = spans[parent][3]
        if parent < 0:
            busy[layer] += t1 - t0
    return busy, self_time

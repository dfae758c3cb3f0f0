"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. The same seed gives the same inputs and another seed gives other inputs.
2. Two traced runs with one seed give identical work counts.

Exits 0 when both hold.  Takes one to two minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

# per-layer metrics that count work and must repeat exactly for one seed
COUNTS = (
    "integrator.calls",
    "integrator.samples",
    "ode.legs",
    "ode.rhs_evals",
    "model_core.doping_evals",
    "solvers.elliptic.newton_iters",
    "cli.artifact.bytes",
)
COUNT_PREFIXES = ("integrator.term.", "solvers.shots_per_solve.")


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        check=True, capture_output=True, text=True, timeout=600,
    )
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k in COUNTS or k.startswith(COUNT_PREFIXES)}


def main() -> int:
    sf = run.load_package()
    ok = True
    for workload in workloads.WORKLOADS:
        def fp(seed):
            return run.fingerprint(workloads.Inputs(workload, seed))

        same, other = fp(1) == fp(1), fp(1) != fp(2)
        print(f"{workload}: same seed same inputs {same}, other seed other inputs {other}")
        ok &= same and other
        first, second = traced_counts(workload, 7), traced_counts(workload, 7)
        diff = sorted(k for k in first if first[k] != second.get(k))
        print(f"{workload}: traced counts repeat {not diff}"
              + (f" (differ: {', '.join(diff)})" if diff else "")
              + f"; integrator.calls {first['integrator.calls']}, "
              f"ode.rhs_evals {first['ode.rhs_evals']}")
        ok &= not diff
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Exception taxonomy.

Three families matter to callers:

* chart and formula guards (``SonicSingularity``, ``NotConstantDoping``,
  ...) -- raised by the integrator when a run is asked to start where no
  chart applies, and by closed-form formulas outside their stated domain;
* regime rejections (``RegimeError`` subclasses) -- the requested solution
  kind provably does not exist for the supplied parameters, carrying the
  theorem reference used by the classifier;
* numerical failures (``NumericalError`` subclasses) -- the construction was
  admissible but an iteration did not converge.

The command line maps regime rejections to exit code 2 and numerical
failures to exit code 3.
"""

from __future__ import annotations


class SonicFlowError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# chart and formula guards


class SonicSingularity(SonicFlowError):
    """An integration was asked to start on the sonic line without a branch."""


class NotConstantDoping(SonicFlowError):
    """Operation requires a spatially constant doping profile."""


class SonicDoping(SonicFlowError):
    """Operation requires doping != 1 (the critical point degenerates at b = 1)."""


class EntropyViolation(SonicFlowError):
    """Requested jump does not dissipate (left state must be supersonic)."""


class ComplexSlope(SonicFlowError):
    """No real transition slope: 1/tau^2 < 8*(b - 1)."""


# ---------------------------------------------------------------------------
# regime rejections (exit code 2)


class RegimeError(SonicFlowError):
    """The requested solution kind does not exist for these parameters."""

    code = "regime-rejection"

    def __init__(self, message: str, theorem_ref: str | None = None):
        super().__init__(message)
        self.theorem_ref = theorem_ref


class NotSonicDoping(RegimeError):
    """solve_sonic requires doping identically 1."""

    code = "not-sonic-doping"


class PreconditionViolation(RegimeError):
    """Solver precondition on the doping bounds fails."""

    code = "precondition-violation"


class NoSolutionInRegime(RegimeError):
    """Classifier proves non-existence before any iteration starts."""

    code = "no-solution-in-regime"


class RegimeRejection(RegimeError):
    """Transonic construction rejected for these parameters."""

    code = "regime-rejection"


class DegenerateLaunch(RegimeError):
    """Sonic launch data admits no local expansion of the requested type."""

    code = "degenerate-launch"


# ---------------------------------------------------------------------------
# numerical failures (exit code 3)


class NumericalError(SonicFlowError):
    """An admissible construction failed to converge."""

    code = "numerical-failure"

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class NewtonDivergence(NumericalError):
    code = "newton-divergence"


class BracketFailure(NumericalError):
    code = "bracket-failure"


class ShootingDivergence(NumericalError):
    code = "shooting-divergence"


class LastCrossingMissing(NumericalError):
    code = "last-crossing-missing"


class GlueMismatch(NumericalError):
    code = "glue-mismatch"


class IntegrationFailure(NumericalError):
    code = "integration-failure"


class InsufficientWindow(NumericalError):
    code = "insufficient-window"


class LemmaViolation(NumericalError):
    code = "lemma-violation"

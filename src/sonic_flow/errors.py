"""Exception taxonomy.

Three families matter to callers:

* launch and formula guards (``SonicSingularity``, ``NotConstantDoping``,
  ...) -- raised by the integrator when a run is asked to leave the sonic
  line without a branch or against its departure direction, and by
  closed-form formulas outside their stated domain;
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
# launch and formula guards


class SonicSingularity(SonicFlowError):
    """A run was asked to leave the sonic line without a branch, or against
    the direction sign(E - 1/tau) sets."""


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

    def __init__(self, message: str, theorem_ref: str | None = None):
        super().__init__(message)
        self.theorem_ref = theorem_ref


class NotSonicDoping(RegimeError):
    """solve_sonic requires doping identically 1."""


class PreconditionViolation(RegimeError):
    """Solver precondition on the doping bounds fails."""


class NoSolutionInRegime(RegimeError):
    """Classifier proves non-existence before any iteration starts."""


class RegimeRejection(RegimeError):
    """Transonic construction rejected for these parameters."""


class DegenerateLaunch(RegimeError):
    """Sonic launch data admits no local expansion of the requested type."""


# ---------------------------------------------------------------------------
# numerical failures (exit code 3)


class NumericalError(SonicFlowError):
    """An admissible construction failed to converge."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class NewtonDivergence(NumericalError):
    """A damped Newton iteration stalled, ran out of iterations, or could not step."""


class BracketFailure(NumericalError):
    """No launch parameter moves a shooting residual across zero."""


class ShootingDivergence(NumericalError):
    """A shooting iteration did not converge, or its arc misses its landing."""


class LastCrossingMissing(NumericalError):
    """A shock branch does not end on the one required crossing."""


class GlueMismatch(NumericalError):
    """Two branches disagree where they are glued together."""


class IntegrationFailure(NumericalError):
    """An arc could not be continued: budgets exhausted or turned back in x."""


class InsufficientWindow(NumericalError):
    """Too few samples to fit a local exponent."""


class LemmaViolation(NumericalError):
    """A computed quantity contradicts a lemma of the theory."""

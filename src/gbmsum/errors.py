"""Exception and warning types shared across the library."""


class GbmSumError(Exception):
    """Base class for all library errors."""


class ParameterError(GbmSumError, ValueError):
    """Invalid or infeasible model parameters / function arguments."""


class ConvergenceError(GbmSumError, RuntimeError):
    """Fixed-point iteration failed to reach the requested tolerance.

    Carries the trace of successive-iterate sup-norm differences so the
    caller can inspect how the iteration stalled.
    """

    def __init__(self, message, delta_trace=None):
        super().__init__(message)
        self.delta_trace = list(delta_trace) if delta_trace is not None else []


class DivergentExpectationError(GbmSumError, ValueError):
    """Requested expectation does not exist (payoff growth >= tail exponent)."""


class NoRootError(GbmSumError, ValueError):
    """A calibration equation has no solution in the admissible range."""


class AccuracyWarning(UserWarning):
    """Result may be degraded (truncation-dominated integral, noisy derivative)."""


class CoarseGridWarning(AccuracyWarning):
    """Gaussian kernel width is under-resolved by the grid step."""


class CancellationWarning(AccuracyWarning):
    """Alternating-series evaluation lost significant digits."""


class RegimeWarning(UserWarning):
    """Asymptotic formula applied at the edge of (or inside) its regime."""

"""Exception and warning types shared across the package."""
from __future__ import annotations


class TransmuteError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TransmuteError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class IntegrationFailure(TransmuteError):
    """The ODE propagation could not reach the requested accuracy.

    Attributes
    ----------
    x : float
        Abscissa at which the failure was detected.
    """

    def __init__(self, message: str, x: float):
        super().__init__(f"{message} (at x={x:.6g})")
        self.x = x


class IllConditionedFit(TransmuteError):
    """The collocation design matrix lost rank below the requested size."""


class QuadratureError(TransmuteError):
    """A quadrature did not converge to the requested tolerance."""


class MissedRootWarning(UserWarning):
    """No longer emitted: Sturm's count makes a missed root a TransmuteError.
    Kept only because the benchmark's workloads import it."""


class AccuracyWarning(UserWarning):
    """A closed-form evaluation suffered cancellation beyond its documented
    accuracy threshold."""

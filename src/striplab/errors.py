"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class DomainError(ValueError):
    """An input lies outside an operation's admissible domain."""


class DiagnosticError(RuntimeError):
    """A diagnostic could not be formed (e.g. a degenerate rotation average)."""


class StepRejected(RuntimeError):
    """A trial state violated the determinant guard at some quadrature point.

    Carries the offending quadrature point location and determinant value so
    the solver can report where a step failed.
    """

    def __init__(self, x1: float, x2: float, det: float, floor: float):
        self.x1 = float(x1)
        self.x2 = float(x2)
        self.det = float(det)
        self.floor = float(floor)
        super().__init__(
            f"determinant guard: det = {self.det:.6g} <= {self.floor:g} "
            f"at quadrature point ({self.x1:.6g}, {self.x2:.6g})"
        )


class NonConvergence(RuntimeError):
    """An iteration stalled; carries the last residual norm and the number
    of iterations taken."""

    def __init__(self, message: str, residual: float, iterations: int = 0):
        self.residual = float(residual)
        self.iterations = int(iterations)
        super().__init__(f"{message} (last residual {self.residual:.6g})")


class TruncationFailure(RuntimeError):
    """Truncation could not proceed (typically an empty good set)."""

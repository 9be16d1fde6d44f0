"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent.

    Raised only by `config` and by `cli`'s --out check; a library argument
    error is a plain ValueError."""


class DomainError(ValueError):
    """An input lies outside an operation's admissible domain."""


class DiagnosticError(RuntimeError):
    """A diagnostic could not be formed (a degenerate average, an empty good set)."""


class StepRejected(RuntimeError):
    """A trial state violated the determinant guard at some quadrature point."""


class NonConvergence(RuntimeError):
    """An iteration stalled; carries the last residual norm and the number
    of iterations taken."""

    def __init__(self, message: str, residual: float, iterations: int = 0):
        self.residual = float(residual)
        self.iterations = int(iterations)
        super().__init__(f"{message} (last residual {self.residual:.6g})")


"""Exception hierarchy shared across the package."""


class Dirac1DError(Exception):
    """Base class for all package errors."""


class ConfigurationError(Dirac1DError):
    """Invalid grid, scheme, problem or run configuration."""


class StabilityError(Dirac1DError):
    """A run was requested outside the scheme's stability region."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class SolverError(Dirac1DError):
    """A time step failed (singular solve, residual or non-convergence)."""

    def __init__(self, message, step=None, diagnostics=None):
        super().__init__(message)
        self.step = step
        self.diagnostics = diagnostics

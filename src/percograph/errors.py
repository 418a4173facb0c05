"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numeric domain violations and solver non-convergence with 3,
failed acceptance checks with 1.
"""


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


class DomainError(ValueError):
    """A numeric routine was asked to leave its domain of validity."""


class DivergenceError(DomainError):
    """A truncated expectation or series does not converge at the
    requested growth rate."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget.

    Carries the last iterate and residual so callers can report them.
    """

    def __init__(self, message, last=None, residual=None):
        super().__init__(message)
        self.last = last
        self.residual = residual


class CheckFailure(AssertionError):
    """An acceptance check embedded in an experiment config failed."""

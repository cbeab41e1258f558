"""Shared exception types."""


class ConfigurationError(ValueError):
    """Invalid run configuration or grid/problem parameters."""


class ConvergenceError(RuntimeError):
    """A numerical solve hit its iteration cap or failed a gate or a factorization."""

    def __init__(self, message, residual=None, iterations=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.history = history

"""Exception types shared across the package."""


class DemflowError(Exception):
    """Base class for all errors raised by this package."""


class InvalidStateError(DemflowError):
    """A thermodynamic or geometric state violates admissibility."""


class SolverError(DemflowError):
    """A Riemann solver or the time loop broke down."""


class ConfigError(DemflowError):
    """A run configuration is malformed or inconsistent."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line

"""Exception types shared across the package."""

from contextlib import contextmanager


class DemflowError(Exception):
    """Base class for all errors raised by this package."""


class InvalidStateError(DemflowError):
    """A thermodynamic or geometric state violates admissibility."""


class SolverError(DemflowError):
    """A Riemann solver or the time loop broke down."""


class ConfigError(DemflowError):
    """A run configuration is malformed or inconsistent; `where` names its
    source ("line 3", "override k=v") and prefixes the message."""

    def __init__(self, message, where=None):
        super().__init__(message if where is None else f"{where}: {message}")


@contextmanager
def _prefixed(label):
    """Re-raise an InvalidStateError from the block as 'label: message'."""
    try:
        yield
    except InvalidStateError as exc:
        raise InvalidStateError(f"{label}: {exc}") from None


def _require(ok, kind, field, message, *others):
    """Unless ok, raise kind(message) whose `field` names the failing field
    and whose `reads` names every field the rule reads: field, then others."""
    if not ok:
        exc = kind(message)
        exc.field, exc.reads = field, (field, *others)
        raise exc

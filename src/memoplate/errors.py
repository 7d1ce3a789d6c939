"""Shared exception types.

Every failure mode raised by this package derives from MemoplateError so the
CLI can map any library failure to a single nonzero exit code while keeping
the class name as the diagnostic category.
"""


class MemoplateError(Exception):
    """Base class for all package errors."""


class DomainError(MemoplateError):
    """A parameter lies outside its admissible range."""


class NonIntegrableError(MemoplateError):
    """Requested kernel quantity is a divergent integral."""


class ShapeError(MemoplateError):
    """Array arguments have inconsistent lengths."""


class ResolutionError(MemoplateError):
    """Grid too coarse for the requested tolerance; the message gives the
    figure achieved and the one requested."""

    def __init__(self, message: str, achieved: float, requested: float):
        super().__init__(f"{message} (achieved {achieved:.3e}, requested {requested:.3e})")


class SingularStepError(MemoplateError):
    """Linear solve inside a time step failed."""


class UnsupportedOracleError(MemoplateError):
    """Closed-form cross-check requested for a kernel without one: a weakly
    singular kernel has no exact memory-integral closure."""


class DegenerateModeError(MemoplateError):
    """Probe construction hit a vanishing denominator for this mode."""


class FitError(MemoplateError):
    """Not enough data points for the requested regression."""


class ConfigError(MemoplateError):
    """Invalid experiment configuration; message includes the key path."""

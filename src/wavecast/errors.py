"""Exception hierarchy.

Every failure mode raised by the library derives from WavecastError so
callers (and the CLI) can map classes of failure to exit codes without
string matching.
"""


class WavecastError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(WavecastError, ValueError):
    """An argument is outside its documented domain."""


class ConfigurationError(WavecastError):
    """A scenario or config file is malformed or inconsistent."""


class PrecisionError(WavecastError):
    """Requested accuracy is unattainable in double precision."""


class DegenerateInputError(WavecastError):
    """Input data are degenerate (coinciding poles, zero residues, ...)."""


class PoleProximityError(WavecastError):
    """Evaluation point is too close to a pole of a rational function."""


class BreakdownError(WavecastError):
    """Iteration broke down; carries the offending iteration index."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NearDefectiveError(WavecastError):
    """Eigenvector basis is too ill-conditioned to trust."""


class SamplingError(WavecastError):
    """A time grid is too coarse for the requested bandwidth."""


class ValidationError(WavecastError):
    """A validation tolerance was exceeded in assert mode."""

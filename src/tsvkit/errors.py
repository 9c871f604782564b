"""Exception types shared across the toolkit."""


class TsvKitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(TsvKitError, ValueError):
    """Invalid parameter values or domain violations in the closed-form models."""


class GeometryOverlapError(ValidationError):
    """Pitch too small relative to the via radius: the pair geometry is non-physical."""


class NetworkDegeneracyError(TsvKitError, ArithmeticError):
    """Singular or numerically degenerate nodal system.

    ``index`` is the member of a stacked solve that failed, when one did.
    """

    def __init__(self, message, frequency=None, index=None):
        super().__init__(message)
        self.frequency = frequency
        self.index = index


class ConversionError(TsvKitError, ArithmeticError):
    """Impedance/scattering conversion failed (singular or ill-conditioned matrix)."""

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


class TouchstoneError(TsvKitError, ValueError):
    """Malformed Touchstone content.  ``line`` is the 1-based offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ModelValidityError(TsvKitError, ValueError):
    """Scenario outside the validity region of the narrowband sideband model."""


class ConfigError(TsvKitError, ValueError):
    """Bad key/value configuration input."""


class CalibrationWarning(UserWarning):
    """Reference spur points are mutually inconsistent beyond the expected spread."""


class NarrowbandWarning(UserWarning):
    """Modulation index approaching the limit of the small-index approximation."""

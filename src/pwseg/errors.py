"""Exception types shared across the package.

All errors derive from ValueError so callers that do not care about the
fine-grained category can catch one base class.
"""


class DomainError(ValueError):
    """A scalar argument lies outside its mathematical domain."""


class ShapeError(ValueError):
    """Tensor shapes or extents are inconsistent with an operation."""


class ScheduleError(ShapeError):
    """A window schedule cannot be constructed for the given extent."""


class NonFiniteError(ValueError):
    """An input tensor holds NaN or infinite values."""


class ConfigError(ValueError):
    """A configuration is internally inconsistent."""


class VolumeFormatError(ValueError):
    """Base class for volume-file parse errors."""


class BadMagicError(VolumeFormatError):
    """The file does not start with the expected magic bytes."""


class UnsupportedVersionError(VolumeFormatError):
    """The file header declares a version this reader does not support."""


class TruncatedFileError(VolumeFormatError):
    """The payload is shorter than the header-declared size."""

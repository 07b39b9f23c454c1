"""Exception types shared across the package.

Every error derives from PwsegError (itself a ValueError), so callers that
do not care about the fine-grained category can catch one base class.
"""


class PwsegError(ValueError):
    """Base class of every error this package raises on bad input or config."""


class DomainError(PwsegError):
    """A scalar argument lies outside its mathematical domain."""


class ShapeError(PwsegError):
    """Tensor shapes or extents are inconsistent with an operation."""


class ScheduleError(ShapeError):
    """A window schedule cannot be constructed for the given extent."""


class NonFiniteError(PwsegError):
    """An input tensor holds NaN or infinite values, or a finite input overflows the float range."""


class ConfigError(PwsegError):
    """A configuration is internally inconsistent."""


class VolumeFormatError(PwsegError):
    """Base class for volume-file parse errors."""


class BadMagicError(VolumeFormatError):
    """The file does not start with the expected magic bytes."""


class UnsupportedVersionError(VolumeFormatError):
    """The file header declares a version this reader does not support."""


class TruncatedFileError(VolumeFormatError):
    """The payload is shorter than the header-declared size."""

"""Exception types shared across the package."""


class PhotonStatError(Exception):
    """Base class for all package-specific failures."""


class AccuracyError(PhotonStatError):
    """Requested accuracy is unreachable: the cutoff cap is hit, or a
    quantity overflows or underflows in float64."""


class UndefinedStateError(PhotonStatError):
    """The requested modification annihilates the state (zero norm)."""


"""Exception types shared across the package."""


class FreeconvError(Exception):
    """Base class for all freeconv errors."""


class NonPositiveWeight(FreeconvError):
    pass


class MassNotOne(FreeconvError):
    pass


class OrderTooLarge(FreeconvError):
    pass


class NTooLarge(FreeconvError):
    pass


class OutOfRange(FreeconvError):
    pass


class NotUpperHalfPlane(FreeconvError):
    pass


class CauchyVanishes(FreeconvError):
    pass


class NotCentered(FreeconvError):
    pass


class NotNormalized(FreeconvError):
    pass


class InversionDiverged(FreeconvError):
    """last_iterate has the input's shape; failed, for an array input, is a
    boolean mask of the points that did not converge."""

    def __init__(self, message, last_iterate=None, failed=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.failed = failed


class FixedPointDiverged(FreeconvError):
    """last_iterate: Z_n of the input's shape for a power, (Z1, Z2) for a pair."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class ScheduleTooShort(FreeconvError):
    pass

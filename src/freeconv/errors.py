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
    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class FixedPointDiverged(FreeconvError):
    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class ScheduleTooShort(FreeconvError):
    pass

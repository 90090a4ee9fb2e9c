"""Exception types shared across the package."""


class CycleZetaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CycleZetaError, ValueError):
    """An argument is outside the domain of the requested operation."""


class SizeCapExceeded(CycleZetaError, RuntimeError):
    """An exhaustive enumeration would exceed its hard size cap.

    Enumerators refuse rather than truncate: a partial census is worse
    than no census.
    """


class RadiusError(DomainError):
    """A series was evaluated outside its certified radius of convergence."""


class UnsupportedDimension(DomainError):
    """No closed form or tractable enumeration exists for this cycle dimension."""


class IntegralityError(CycleZetaError, ArithmeticError):
    """An exact computation produced a non-integer where an integer is forced.

    This always indicates an internal bug (e.g. a wrong point count feeding
    a Moebius inversion), never bad user input.
    """


class AuditMismatch(CycleZetaError):
    """A closed form and its brute-force oracle disagree.

    Like ``IntegralityError`` this is an internal fault, never bad input.
    """


class AllZero(DomainError):
    """Every polynomial in the tuple is zero, so log max |f_i| is -infinity."""


class ZeroPolynomial(DomainError):
    """The zero polynomial has no leading coefficient."""


class BandAmbiguity(CycleZetaError, RuntimeError):
    """Numerically borderline objects prevent an exact classification.

    Carries the list of borderline objects in ``borderline``.
    """

    def __init__(self, message, borderline=()):
        super().__init__(message)
        self.borderline = tuple(borderline)

"""Exception types with stable machine-readable codes.

Every error that can surface through the CLI carries a ``code`` string so
callers can dispatch on it without parsing messages.
"""


class MttoError(Exception):
    """Base class for all package errors."""

    code = "E_GENERIC"


class ParseError(MttoError):
    code = "E_PARSE"


class DimensionMismatchError(MttoError):
    code = "E_DIM_MISMATCH"


class NotInnerError(MttoError):
    code = "E_NOT_INNER"


class NotPureError(MttoError):
    code = "E_NOT_PURE"


class NotProjectionError(MttoError):
    code = "E_NOT_PROJECTION"


class NotUnitaryError(MttoError):
    code = "E_NOT_UNITARY"


class NotGammaSymmetricError(MttoError):
    code = "E_NOT_GAMMA_SYMMETRIC"


class NotMttoError(MttoError):
    code = "E_NOT_MTTO"


class IdentityCheckError(MttoError):
    """An internal algebraic identity failed its runtime verification.

    Raised when a quantity that vanishes in exact arithmetic (a truncation
    tail, a division remainder, a containment residual) exceeds its
    tolerance.  Seeing this means the inputs are numerically degenerate or
    there is a bug, not that the caller passed bad data.
    """

    code = "E_IDENTITY_CHECK"

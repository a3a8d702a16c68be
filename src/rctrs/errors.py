"""Exception types shared across the package.

Input errors derive from ValueError, so one base class catches them, and
the command line exits 2; MethodDisagreementError, an analysis fault, is a
RuntimeError, for which it exits 1.  Division by zero reuses the builtin
ZeroDivisionError; a bad element index is also an IndexError.
"""


class ElementIndexError(IndexError, ValueError):
    """Element index outside [0, q) for its field."""


class NotPrimeError(ValueError):
    """Field characteristic is not a prime number."""


class ReducibleError(ValueError):
    """Supplied modulus polynomial factors over the prime field."""


class DegreeMismatchError(ValueError):
    """Extension degree out of range (a field order above 2^64 included),
    or a modulus whose degree or shape does not match it, or with a
    coefficient outside [0, p)."""


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class NotADivisorError(ValueError):
    """Requested subfield degree does not divide the extension degree."""


class OrderDoesNotDivideError(ValueError):
    """Requested subgroup order does not divide the group order."""


class NotSquareError(ValueError):
    """Determinant requested for a non-square matrix."""


class InvalidSpecError(ValueError):
    """Code spec violates a structural invariant."""


class LengthMismatchError(ValueError):
    """Vector length does not match the expected dimension."""


class WrongHookTwistError(ValueError):
    """Closed-form check applied to a spec outside its hook/twist range."""


class DegenerateBCError(ValueError):
    """The twist point pair is degenerate for the requested construction.

    Raised when b = c where the recipe needs them distinct, or when every
    distinct twist value also appears among the evaluation points while a
    single (k-1)-subset of points can hold them all; in that case the
    column minor through the twist column is singular and the code cannot
    be MDS.
    """


class MembershipViolationError(ValueError):
    """A construction input lies outside its required subfield or group."""


class UnsupportedExtendedGeneralHError(ValueError):
    """Extended code requested for a hook with no closed-form guarantee."""


class ParseError(ValueError):
    """Malformed spec or matrix text."""


class MethodDisagreementError(RuntimeError):
    """Two independent verification methods returned different verdicts."""

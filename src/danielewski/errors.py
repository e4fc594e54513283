"""Exception hierarchy for the workbench.

Everything raised on purpose derives from DanielewskiError so callers (and
the CLI) can separate expected failures from genuine bugs.
"""


class DanielewskiError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatchError(DanielewskiError):
    """Operands live over different coefficient fields."""


class UnknownVariableError(DanielewskiError):
    """A variable name is not part of the relevant variable list."""


class PolyParseError(DanielewskiError):
    """Syntax error in a polynomial expression, with its position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SurfaceConstraintError(DanielewskiError):
    """Input violates a structural hypothesis (monicity, degree bounds...)."""


class PreconditionError(DanielewskiError):
    """An operation was called outside its stated precondition."""


class HypothesisError(PreconditionError):
    """The stable-isomorphism construction's hypotheses fail; ``report``
    is the hypothesis report that says which."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class ComaximalityError(DanielewskiError):
    """(P, P_Z) is not the unit ideal, so no Bezout pair exists; ``resultant``
    is the Res_Z(P, P_Z) the solve computed (None when P_Z = 0)."""

    def __init__(self, message: str, resultant=None):
        super().__init__(message)
        self.resultant = resultant


class SearchCapExceededError(DanielewskiError):
    """A search would count more candidates than the configured cap allows.

    The isomorphism search counts the (lambda, mu) pairs it tries, the
    values of a free lambda or gamma, and the delta residues it produces
    with their CRT combinations; factoring over Q counts the subsets it
    recombines.  ``needed`` is the count so far plus that of the step that
    was refused, and a refused step lists nothing.
    """

    def __init__(self, needed: int, cap: int):
        super().__init__(f"search needs {needed} candidates, cap is {cap}")
        self.needed = needed
        self.cap = cap


class InfiniteFamilyError(DanielewskiError):
    """The certificate set is an infinite family (positive-dimensional
    solution set over the rationals); carries one representative.
    """

    def __init__(self, parameter: str, representative=None):
        super().__init__(
            f"infinitely many certificates: free parameter {parameter!r}"
        )
        self.parameter = parameter
        self.representative = representative


class VerificationInternalError(DanielewskiError):
    """A certificate built by this package failed its own verification.

    This always indicates a bug, never bad user input.
    """


class InputError(DanielewskiError):
    """Malformed document or CLI input."""

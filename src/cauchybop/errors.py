"""Exception hierarchy.

The library distinguishes three kinds of failure:

* bad input (malformed measures, a non-positive density at a quadrature
  node, evaluation on a pole or cut) -- ``ValueError``,
  :class:`InvalidDensityError` and :class:`PoleEvaluationError`;
* degeneracy (a measure with too few points of increase makes a leading
  minor vanish) -- reported, recoverable;
* theory violations -- an identity that is a theorem for valid input fails
  in exact arithmetic.  This can only happen if the input data is corrupt
  (e.g. a negative weight smuggled past validation) or the code is wrong,
  so it gets its own class and the CLI maps it to a dedicated exit code.
"""


class CauchybopError(Exception):
    """Base class for all library errors."""


class PrecisionExhaustedError(CauchybopError):
    """The arithmetic ran out of precision: exact values exceeded the
    configured bit bound, or float data lost too many digits to give a
    result that holds for valid input (e.g. non-real eigenvalues of an
    oscillatory truncation)."""


class InvalidDensityError(CauchybopError):
    """Density evaluated non-positive at a quadrature node."""


class DegenerateMatrixError(CauchybopError):
    """A leading principal minor vanished; the measure has too few points
    of increase for the requested order."""

    def __init__(self, order: int):
        self.order = order
        super().__init__(f"degenerate bimoment matrix at order {order}")


class TheoryViolationError(CauchybopError):
    """An exact identity that holds for all valid inputs failed."""


class OrderUnderflowError(CauchybopError):
    """Requested window exceeds the truncation order that was built."""


class PoleEvaluationError(CauchybopError):
    """Pointwise evaluation requested on a pole or cut of the function."""

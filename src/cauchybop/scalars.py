"""Scalar backends.

Two backends run through the whole library:

* exact -- ``fractions.Fraction``, used whenever the input measures carry
  rational data.  Every identity asserted in exact mode is asserted as
  literal equality of rationals.
* float -- IEEE doubles (complex where needed), used for density-backed
  measures after discretization.

User-facing positions and weights are ingested as decimal strings and
parsed to exact rationals, so a literal like "0.1" never picks up binary
noise on the way in.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isfinite, log10

from .errors import PrecisionExhaustedError

#: Bit bound for numerators/denominators in exact mode.  Generous: the bound
#: exists to turn a runaway computation into a clean error instead of an
#: apparent hang.
_MAX_BITS = 1 << 20

#: Decimal digits of a _MAX_BITS-bit integer: the longest literal, and the
#: largest decimal exponent, that :func:`parse_exact` accepts.
_MAX_DIGITS = int(_MAX_BITS * log10(2))

_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)$")


def guard_bits(bits: int, what: str) -> None:
    """Raise :class:`PrecisionExhaustedError` if `what`, an exact integer of
    `bits` bits (or a bound on them), outgrew the bound."""
    if bits > _MAX_BITS:
        raise PrecisionExhaustedError(
            f"precision exhausted: {what} exceeds {_MAX_BITS} bits")


def guard_precision(value) -> None:
    """Raise :class:`PrecisionExhaustedError` if an exact value outgrew the
    bound, or a float one the double range (inf or nan)."""
    if isinstance(value, Fraction):
        guard_bits(max(value.numerator.bit_length(),
                       value.denominator.bit_length()), "rational")
    elif isinstance(value, int):
        guard_bits(value.bit_length(), "integer")
    elif isinstance(value, float) and not isfinite(value):
        raise PrecisionExhaustedError(
            f"precision exhausted: a float value came out {value!r}")


def parse_exact(text: str) -> Fraction:
    """Parse a decimal string ("1.25", "3", "7/4") to an exact rational.

    A string longer than ``_MAX_DIGITS`` characters, or with a decimal
    exponent past it, is refused with :class:`PrecisionExhaustedError`
    before the Fraction is built: its numerator or denominator would pass
    ``_MAX_BITS`` bits, and the power of ten alone costs more the larger
    the exponent."""
    text = str(text).strip()
    if len(text) > _MAX_DIGITS:
        raise PrecisionExhaustedError(
            f"precision exhausted: a literal of {len(text)} characters "
            f"exceeds {_MAX_DIGITS} digits")
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > _MAX_DIGITS:
        raise PrecisionExhaustedError(
            f"precision exhausted: decimal exponent {exponent[1]} exceeds "
            f"{_MAX_DIGITS}")
    return Fraction(text)


def is_exact(x) -> bool:
    """True for scalars that participate in the exact backend."""
    return isinstance(x, (int, Fraction))


def format_scalar(x) -> str:
    """Lossless string form: "p/q" for rationals, repr for floats."""
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        try:
            return str(f)
        except ValueError:      # past Python's int-to-str digit limit
            bits = max(abs(f.numerator).bit_length(), f.denominator.bit_length())
            raise PrecisionExhaustedError(
                f"precision exhausted: a rational of {bits} bits passes the "
                "digit limit of decimal output") from None
    return repr(float(x))


def residual(lhs, rhs):
    """|lhs - rhs| / max(1, |lhs|, |rhs|): zero exactly when the identity
    holds, and the scaling every float identity check shares."""
    return abs(lhs - rhs) / max(1, abs(lhs), abs(rhs))


def to_float(x, what: str) -> float:
    """float(x), refused with :class:`PrecisionExhaustedError` when x,
    described by `what`, lies past the double range (an exact value from
    atoms as large as 1e400 can)."""
    try:
        return float(x)
    except OverflowError:
        raise PrecisionExhaustedError(
            f"precision exhausted: {what} overflows a float") from None


def scalar_sqrt(x) -> float:
    """Positive square root as a float (normalized quantities live in the
    float layer only).  The arguments are norms h_n, positive for valid
    input, so a negative one is float rounding noise past the reliable
    degrees."""
    value = to_float(x, "a norm")
    if value < 0:
        raise PrecisionExhaustedError(
            f"precision exhausted: square root of a negative norm {value!r}")
    return value ** 0.5

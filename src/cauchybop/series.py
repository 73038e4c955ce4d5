"""Truncated Laurent expansions at infinity with explicit order tracking.

A :class:`PowerTail` stores finitely many coefficients of

    f(z) = sum_j  c_j z**j        (j ranging over integers, bounded above)

together with ``valid_lo``: the lowest power whose coefficient is actually
known.  An exact expansion (a polynomial, or a series that terminates) is
one known down to ``EXACT = -inf``, the default horizon, so every horizon
is a plain number and -inf absorbs each horizon sum.  Arithmetic
propagates validity, so a claim like "f = O(1/z**(n+1))" becomes the
finite, checkable statement "every known coefficient above power -(n+1) is
zero, and those coefficients are known".  Asking for a coefficient below
the validity horizon raises, rather than silently returning zero.

:meth:`PowerTail.make` is the one constructor (negation, which cannot make
a zero, builds directly): it drops zero coefficients and those below the
horizon, so the stored coefficients are nonzero, in descending powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: valid_lo of an exact expansion: every coefficient is known.
EXACT = -math.inf


@dataclass(frozen=True)
class PowerTail:
    coeffs: tuple      # tuple of (power, coefficient), nonzero, sorted desc
    valid_lo: float    # lowest known power: an int, or EXACT

    # -- construction -------------------------------------------------------

    @staticmethod
    def make(coeff_map, valid_lo=EXACT) -> "PowerTail":
        items = tuple(sorted(((p, c) for p, c in coeff_map.items()
                              if c != 0 and p >= valid_lo), reverse=True))
        return PowerTail(items, valid_lo)

    @staticmethod
    def from_poly(coeffs) -> "PowerTail":
        """Exact expansion of a polynomial given lowest-power-first coefficients."""
        return PowerTail.make(dict(enumerate(coeffs)))

    @staticmethod
    def from_moment_stream(moments) -> "PowerTail":
        """sum_j moments[j] * z**(-j-1), known through the listed moments."""
        n = len(moments)
        return PowerTail.make({-j - 1: m for j, m in enumerate(moments)}, -n)

    # -- inspection ----------------------------------------------------------

    def coeff(self, power: int):
        if power < self.valid_lo:
            raise ValueError(
                f"coefficient of z**{power} below validity horizon {self.valid_lo}")
        for p, c in self.coeffs:
            if p == power:
                return c
        return 0

    def max_abs_through(self, lo_power: int):
        """Largest |coefficient| with power >= lo_power, those powers being
        known; 0 certifies that they all vanish."""
        if self.valid_lo > lo_power:
            raise ValueError(
                f"coefficients down to z**{lo_power} requested, known only "
                f"down to z**{self.valid_lo}")
        vals = [abs(c) for p, c in self.coeffs if p >= lo_power]
        return max(vals) if vals else 0

    def max_abs_all(self):
        vals = [abs(c) for _, c in self.coeffs]
        return max(vals) if vals else 0

    # -- arithmetic ----------------------------------------------------------

    def _eff_top(self):
        """Top power of the function including its error term, for validity
        propagation: the top nonzero known power, or valid_lo - 1 where the
        error term sits higher; EXACT for the exact zero."""
        return max(self.coeffs[0][0] if self.coeffs else EXACT,
                   self.valid_lo - 1)

    def __add__(self, other: "PowerTail") -> "PowerTail":
        merged = dict(self.coeffs)
        for p, c in other.coeffs:
            merged[p] = merged.get(p, 0) + c
        return PowerTail.make(merged, max(self.valid_lo, other.valid_lo))

    def __neg__(self) -> "PowerTail":
        return PowerTail(tuple([(p, -c) for p, c in self.coeffs]),
                         self.valid_lo)

    def __sub__(self, other: "PowerTail") -> "PowerTail":
        return self + (-other)

    def scale(self, s) -> "PowerTail":
        return PowerTail.make({p: c * s for p, c in self.coeffs},
                              self.valid_lo)

    # scalar * tail and tail / scalar, so that row combiners written for
    # point values also combine series
    __rmul__ = scale

    def __truediv__(self, s) -> "PowerTail":
        return self.scale(1 / s)

    def __mul__(self, other: "PowerTail") -> "PowerTail":
        # the error term of each factor meets the other's top power; an
        # exact factor's horizon is -inf, which absorbs the sum
        lo = max(self.valid_lo - 1 + other._eff_top(),
                 other.valid_lo - 1 + self._eff_top()) + 1
        # powers descend, so each inner loop stops at the validity horizon
        out: dict = {}
        for p, c in self.coeffs:
            for q, d in other.coeffs:
                if p + q < lo:
                    break
                out[p + q] = out.get(p + q, 0) + c * d
        return PowerTail.make(out, lo)

"""Truncated Laurent expansions at infinity with explicit order tracking.

A :class:`PowerTail` stores finitely many coefficients of

    f(z) = sum_j  c_j z**j        (j ranging over integers, bounded above)

together with ``valid_lo``: the lowest power whose coefficient is actually
known.  ``valid_lo = None`` means the expansion is exact (a polynomial, or
a series that terminates).  Arithmetic propagates validity, so a claim like
"f = O(1/z**(n+1))" becomes the finite, checkable statement "every known
coefficient above power -(n+1) is zero, and those coefficients are known".
Asking for a coefficient below the validity horizon raises, rather than
silently returning zero.
"""

from __future__ import annotations

from dataclasses import dataclass


def _as_dict(items):
    return {p: c for p, c in items if c != 0}


@dataclass(frozen=True)
class PowerTail:
    coeffs: tuple          # tuple of (power, coefficient), nonzero, sorted desc
    valid_lo: int | None   # lowest known power; None = exact

    # -- construction -------------------------------------------------------

    @staticmethod
    def make(coeff_map, valid_lo=None) -> "PowerTail":
        if valid_lo is not None:
            coeff_map = {p: c for p, c in coeff_map.items() if p >= valid_lo}
        items = tuple(sorted(((p, c) for p, c in coeff_map.items() if c != 0),
                             reverse=True))
        return PowerTail(items, valid_lo)

    @staticmethod
    def from_poly(coeffs) -> "PowerTail":
        """Exact expansion of a polynomial given lowest-power-first coefficients."""
        return PowerTail.make({k: c for k, c in enumerate(coeffs)}, None)

    @staticmethod
    def from_moment_stream(moments) -> "PowerTail":
        """sum_j moments[j] * z**(-j-1), known through the listed moments."""
        n = len(moments)
        return PowerTail.make({-j - 1: m for j, m in enumerate(moments)}, -n)

    @staticmethod
    def zero(valid_lo=None) -> "PowerTail":
        return PowerTail((), valid_lo)

    # -- inspection ----------------------------------------------------------

    def coeff(self, power: int):
        if self.valid_lo is not None and power < self.valid_lo:
            raise ValueError(
                f"coefficient of z**{power} below validity horizon {self.valid_lo}")
        for p, c in self.coeffs:
            if p == power:
                return c
        return 0

    def leading(self):
        """(power, coefficient) of the top nonzero known term, or None."""
        return self.coeffs[0] if self.coeffs else None

    def top_power(self):
        lead = self.leading()
        return lead[0] if lead else None

    def max_abs_through(self, lo_power: int):
        """Largest |coefficient| with power >= lo_power, those powers being
        known; 0 certifies that they all vanish."""
        if self.valid_lo is not None and self.valid_lo > lo_power:
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
        propagation.  A pure error term sits at valid_lo - 1."""
        top = self.top_power()
        cands = [t for t in (top, None if self.valid_lo is None else self.valid_lo - 1)
                 if t is not None]
        return max(cands) if cands else None

    def __add__(self, other: "PowerTail") -> "PowerTail":
        merged = _as_dict(self.coeffs).copy()
        for p, c in other.coeffs:
            merged[p] = merged.get(p, 0) + c
        los = [v for v in (self.valid_lo, other.valid_lo) if v is not None]
        return PowerTail.make(merged, max(los) if los else None)

    def __neg__(self) -> "PowerTail":
        return PowerTail(tuple((p, -c) for p, c in self.coeffs), self.valid_lo)

    def __sub__(self, other: "PowerTail") -> "PowerTail":
        return self + (-other)

    def scale(self, s) -> "PowerTail":
        if s == 0:
            return PowerTail.zero(self.valid_lo)
        return PowerTail(tuple((p, c * s) for p, c in self.coeffs), self.valid_lo)

    # scalar * tail and tail / scalar, so that row combiners written for
    # point values also combine series
    __rmul__ = scale

    def __truediv__(self, s) -> "PowerTail":
        return self.scale(1 / s)

    def __mul__(self, other: "PowerTail") -> "PowerTail":
        out: dict = {}
        for p, c in self.coeffs:
            for q, d in other.coeffs:
                out[p + q] = out.get(p + q, 0) + c * d
        contaminated = []
        if self.valid_lo is not None:
            other_top = other._eff_top()
            if other_top is not None:
                contaminated.append(self.valid_lo - 1 + other_top)
        if other.valid_lo is not None:
            self_top = self._eff_top()
            if self_top is not None:
                contaminated.append(other.valid_lo - 1 + self_top)
        lo = max(contaminated) + 1 if contaminated else None
        return PowerTail.make(out, lo)

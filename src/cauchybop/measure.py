"""Positive measures on the positive axis.

Two concrete representations:

* :class:`DiscreteMeasure` -- finitely many atoms with strictly positive
  positions and weights.  With rational data the whole downstream pipeline
  runs in exact arithmetic.
* :class:`DensityMeasure` -- a strictly positive density on a compact
  interval [a, b] with 0 <= a < b.  Its one Gauss-Legendre rule, formed
  once, is read by :func:`discretize`, which makes the float atoms, and by
  the split Cauchy transform :func:`cauchy_transform_density`, which
  ``rhp`` reads near the cuts.

Every power sum -- a measure's moments, the bimoments and the Markov
moment streams -- comes from one kernel, :func:`power_sums`.

Every measure lives on the positive axis.  The reflected measure dm*
appears only inside the Markov transforms, whose recipes place its atoms
at -t (``transforms._RECIPES``, built by ``nikishin.markov``).

Measures with unbounded support are handled only through a user-supplied
truncation interval.  The density of polynomials in the associated L2
spaces is an assumption of the construction and is recorded here, not
verified.

numpy and cmath are imported only by the float work on densities (the
quadrature rule, the density values and the split Cauchy transform), so
discrete measures never load them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, lcm
from typing import Callable, Sequence

from .errors import InvalidDensityError, PrecisionExhaustedError
from .polys import peval
from .scalars import guard_bits, guard_precision, is_exact, parse_exact


@dataclass(frozen=True)
class Atom:
    """A point mass: position on the (positive) real line and weight."""
    position: Fraction | float
    weight: Fraction | float

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"atom weight must be positive, got {self.weight}")
        if self.position <= 0:
            raise ValueError(
                f"atom position must be strictly positive, got {self.position}")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many atoms, sorted by position."""
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a discrete measure needs at least one atom")
        positions = [a.position for a in self.atoms]
        if len(set(positions)) != len(positions):
            raise ValueError("atom positions must be pairwise distinct")
        object.__setattr__(self, "atoms",
                           tuple(sorted(self.atoms, key=lambda a: a.position)))

    # -- basic queries -------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return all(is_exact(a.position) and is_exact(a.weight) for a in self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def weights(self):
        return tuple([a.weight for a in self.atoms])

    def positions(self):
        return tuple([a.position for a in self.atoms])

    def support_hull(self):
        """(min, max) of the support."""
        pts = self.positions()
        return min(pts), max(pts)


#: Most Gauss-Legendre nodes a density takes.  numpy's rule builds a dense
#: order x order matrix, 8 MB at this bound and 728 TiB at 10**7 nodes, and
#: the bimoments sum over order**2 atom pairs; the float lane's degree cap
#: stays far below the 2 * order - 1 a rule integrates exactly.
MAX_QUADRATURE_ORDER = 1000


@dataclass(frozen=True)
class DensityMeasure:
    """Absolutely continuous measure on [a, b] with strictly positive density.

    The density may be given directly as a callable or as a polynomial
    potential U with scale hbar, meaning density(x) = exp(-U(x)/hbar).
    Its quadrature rule is formed on first read and kept (:attr:`rule`).
    """
    support: tuple[float, float]
    density: Callable[[float], float] | None = None
    potential: Sequence[float] | None = None   # polynomial coefficients of U
    hbar: float = 1.0
    order: int = 64             # Gauss-Legendre nodes

    def __post_init__(self):
        a, b = self.support
        if not (0 <= a < b < inf):
            raise ValueError(
                f"support must satisfy 0 <= a < b < inf, got [{a}, {b}]")
        if (self.density is None) == (self.potential is None):
            raise ValueError("give exactly one of density / potential")
        # bool is an int subclass, but True is no node count
        if isinstance(self.order, bool) or not isinstance(self.order, int):
            raise ValueError(f"quadrature order must be an integer, got "
                             f"{self.order!r}")
        if not 1 <= self.order <= MAX_QUADRATURE_ORDER:
            raise ValueError(f"quadrature node count must be in 1.."
                             f"{MAX_QUADRATURE_ORDER}, got {self.order}")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    def density_at(self, x: float) -> float:
        if self.density is not None:
            return float(self.density(x))
        import numpy as np
        with np.errstate(over="ignore"):    # inf, refused by the rule
            return float(np.exp(-peval(tuple(self.potential), x) / self.hbar))

    @cached_property
    def rule(self):
        """The order-point Gauss-Legendre rule on the support: node and
        weight arrays (weights not yet times the density) and the density
        at each node, refused with InvalidDensityError unless in (0, inf)."""
        import numpy as np
        t, weights = np.polynomial.legendre.leggauss(self.order)
        a, b = self.support
        half, mid = (b - a) / 2.0, (b + a) / 2.0
        nodes, rho = mid + half * t, []
        for x in nodes:
            rho.append(self.density_at(x))
            if not 0 < rho[-1] < inf:
                raise InvalidDensityError(
                    f"invalid density: {rho[-1]} at node {x}")
        return nodes, weights * half, rho


# -- operations ---------------------------------------------------------------


def power_sums(points, weights, depth: int) -> list:
    """[sum_k w_k t_k**j for j < depth] in atom order, the one route to
    every power sum (moments, bimoments, Markov moment streams).  Exact
    data (int or Fraction) runs over integers: with t_k = a_k / D and
    w_k = b_k / E (D, E the lcms of the denominators), sum j is
    sum_k b_k a_k**j / (E D**j), one Fraction per sum.  Float data sums
    w * t**j term by term; a power past the float range, or a sum that is
    not finite, raises :class:`PrecisionExhaustedError`.  So does exact
    data whose common denominator, or one of whose terms b_k a_k**j, would
    pass the exact lane's bit bound: refused before the work, whose gcds
    on integers of millions of bits would take seconds to minutes."""
    if all(is_exact(v) for v in (*points, *weights)):
        D, E = _common_denominator(points), _common_denominator(weights)
        sums = [0] * depth
        for t, w in zip(points, weights):
            a = t.numerator * (D // t.denominator)
            b = w.numerator * (E // w.denominator)
            # a lower bound on the bits of the top term b * a**(depth - 1)
            guard_bits(abs(b).bit_length() - 1 + (depth - 1)
                       * (abs(a).bit_length() - 1), "a power sum term")
            for j in range(depth):
                sums[j] += b
                b *= a
        out = [Fraction(s, E * D ** j) for j, s in enumerate(sums)]
    else:
        out = [0] * depth
        try:
            for t, w in zip(points, weights):
                for j in range(depth):
                    out[j] += w * t ** j
        except OverflowError as exc:
            raise PrecisionExhaustedError(
                f"precision exhausted: {t!r} ** {j} overflows a float"
            ) from exc
    for v in out:
        guard_precision(v)
    return out


def _common_denominator(values) -> int:
    """The lcm of the denominators of exact values, refused as soon as it
    passes the exact lane's bit bound."""
    D = 1
    for v in values:
        D = lcm(D, v.denominator)
        guard_bits(D.bit_length(), "a common denominator")
    return D


def discretize(m: DensityMeasure) -> DiscreteMeasure:
    """Gauss-Legendre reduction to float atoms (node, weight * density(node)),
    read off the measure's one rule, :attr:`DensityMeasure.rule`.

    Total mass reproduces the integral of the density to the accuracy of
    the rule; for a polynomial density of degree <= 2*order - 1 it is exact
    up to rounding.  A density value that is not positive, or not a finite
    double, is refused with :class:`InvalidDensityError`.
    """
    return DiscreteMeasure(tuple([Atom(float(x), float(w * rho))
                                  for x, w, rho in zip(*m.rule)]))


def measure_from_strings(pairs: Sequence[tuple[str, str]]) -> DiscreteMeasure:
    """Build an exact discrete measure from (position, weight) decimal strings."""
    return DiscreteMeasure(tuple([Atom(parse_exact(x), parse_exact(w))
                                  for x, w in pairs]))


# -- near the cut --------------------------------------------------------------


#: Central-difference step for f'(x0), in support lengths: about the cube
#: root of the double epsilon, which balances truncation against rounding.
_NODE_STEP = 2.0 ** -17


def cauchy_transform_density(dm: DensityMeasure, g, w):
    """integral g(y) density(y) dy / (w - y) on the rule ``dm.rule``,
    stable arbitrarily close to the cut.

    Off the support the plain quadrature sum is used.  For Re(w) interior
    and |Im w| at most 0.05 times the support length, the integrand is
    split at x0 = Re(w): the subtracted part is smooth at the ulp scale of
    eps and integrates accurately, while F(x0) (log(w-a) - log(w-b))
    carries the exact near-cut behavior.  A node at x0 (odd orders put one
    at the midpoint) takes its term's limit, -f'(x0) times its weight, with
    f = g times the density and f' by a central difference.
    """
    import cmath
    import numpy as np
    a, b = dm.support
    ys, wts, rho = dm.rule
    fvals = np.array([g(y) * r for y, r in zip(ys, rho)], dtype=complex)
    x0 = w.real if isinstance(w, complex) else float(w)
    imag = w.imag if isinstance(w, complex) else 0.0
    margin = 0.05 * (b - a)
    if a + 1e-12 < x0 < b - 1e-12 and abs(imag) <= margin:
        f0 = g(x0) * dm.density_at(x0)
        d = x0 - ys
        at = d == 0
        terms = wts * (fvals - f0) / np.where(at, 1.0, d)
        if at.any():
            h = _NODE_STEP * (b - a)
            df = (g(x0 + h) * dm.density_at(x0 + h)
                  - g(x0 - h) * dm.density_at(x0 - h)) / (2 * h)
            terms[at] = -wts[at] * df
        sub = np.sum(terms)
        return complex(sub + f0 * (cmath.log(w - a) - cmath.log(w - b)))
    return complex(np.sum(wts * fvals / (w - ys)))

"""Positive measures on the positive axis.

Two concrete representations:

* :class:`DiscreteMeasure` -- finitely many atoms with strictly positive
  positions and weights.  With rational data the whole downstream pipeline
  runs in exact arithmetic.
* :class:`DensityMeasure` -- a strictly positive density on a compact
  interval [a, b] with 0 <= a < b, reduced to a float
  :class:`DiscreteMeasure` by Gauss-Legendre quadrature before anything
  else touches it.

Every measure lives on the positive axis.  The reflected measure dm*
appears only inside the Markov transforms, whose recipes place its atoms
at -t (``nikishin.markov``).

Measures with unbounded support are handled only through a user-supplied
truncation interval.  The density of polynomials in the associated L2
spaces is an assumption of the construction and is recorded here, not
verified.

numpy is imported only by the float work on densities (the quadrature
rule and the density values), so discrete measures never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InvalidDensityError
from .polys import peval
from .scalars import guard_precision, is_exact, parse_exact


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
        return tuple(a.weight for a in self.atoms)

    def positions(self):
        return tuple(a.position for a in self.atoms)

    def support_hull(self):
        """(min, max) of the support."""
        pts = self.positions()
        return min(pts), max(pts)

    def total_mass(self):
        return sum(self.weights())


@dataclass(frozen=True)
class DensityMeasure:
    """Absolutely continuous measure on [a, b] with strictly positive density.

    The density may be given directly as a callable or as a polynomial
    potential U with scale hbar, meaning density(x) = exp(-U(x)/hbar).
    """
    support: tuple[float, float]
    density: Callable[[float], float] | None = None
    potential: Sequence[float] | None = None   # polynomial coefficients of U
    hbar: float = 1.0
    order: int = 64             # Gauss-Legendre nodes

    def __post_init__(self):
        a, b = self.support
        if not (0 <= a < b):
            raise ValueError(f"support must satisfy 0 <= a < b, got [{a}, {b}]")
        if (self.density is None) == (self.potential is None):
            raise ValueError("give exactly one of density / potential")
        if self.order < 1:
            raise ValueError("quadrature node count must be >= 1")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    def density_at(self, x: float) -> float:
        if self.density is not None:
            return float(self.density(x))
        import numpy as np
        return float(np.exp(-peval(tuple(self.potential), x) / self.hbar))


# -- operations ---------------------------------------------------------------


def moment(m: DiscreteMeasure, j: int):
    """j-th power moment; exact rational for discrete-rational measures."""
    if j < 0:
        raise ValueError("moment order must be nonnegative")
    total = 0
    for atom in m.atoms:
        total += atom.weight * atom.position ** j
        guard_precision(total)
    return total


def discretize(m: DensityMeasure) -> DiscreteMeasure:
    """Gauss-Legendre reduction to float atoms (node, weight * density(node)).

    Total mass reproduces the integral of the density to the accuracy of
    the rule; for a polynomial density of degree <= 2*order - 1 it is exact
    up to rounding.
    """
    atoms = []
    for x, w in zip(*gauss_legendre(m)):
        rho = m.density_at(x)
        if not rho > 0:
            raise InvalidDensityError(f"invalid density: {rho} at node {x}")
        atoms.append(Atom(float(x), float(w * rho)))
    return DiscreteMeasure(tuple(atoms))


def gauss_legendre(m: DensityMeasure):
    """The m.order-point Gauss-Legendre rule mapped onto m.support: two
    float arrays, the nodes and the weights (not yet times the density)."""
    import numpy as np
    nodes, weights = np.polynomial.legendre.leggauss(m.order)
    a, b = m.support
    half, mid = (b - a) / 2.0, (b + a) / 2.0
    return mid + half * nodes, weights * half


def measure_from_strings(pairs: Sequence[tuple[str, str]]) -> DiscreteMeasure:
    """Build an exact discrete measure from (position, weight) decimal strings."""
    return DiscreteMeasure(tuple(Atom(parse_exact(x), parse_exact(w))
                                 for x, w in pairs))

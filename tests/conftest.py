"""Shared fixtures: worked measure pairs and prebuilt apparatus."""

from fractions import Fraction
from random import Random

import pytest

from cauchybop import (Atom, DegenerateMatrixError, DiscreteMeasure,
                       build_apparatus, measure_from_strings)
from cauchybop.bimoment import minor


@pytest.fixture(scope="session")
def two_atom_pair():
    alpha = measure_from_strings([("1", "1"), ("2", "1")])
    beta = measure_from_strings([("1", "1"), ("3", "1")])
    return alpha, beta


@pytest.fixture(scope="session")
def six_atom_pair():
    alpha = measure_from_strings(
        [("1", "1"), ("2", "1"), ("3.5", "0.25"), ("4", "2"),
         ("1.25", "0.8"), ("6", "1")])
    beta = measure_from_strings(
        [("0.5", "2"), ("1", "1"), ("3", "1"), ("4.5", "0.125"),
         ("2.25", "1.7"), ("7", "0.3")])
    return alpha, beta


@pytest.fixture(scope="session")
def app6(six_atom_pair):
    """Degree-5 apparatus on the six-atom pair (exact)."""
    return build_apparatus(*six_atom_pair, N=5)


def random_rational_measure(rng: Random, atoms: int) -> DiscreteMeasure:
    """Distinct positive rational atoms with positive rational weights."""
    positions = set()
    while len(positions) < atoms:
        positions.add(Fraction(rng.randint(1, 60), rng.randint(1, 8)))
    return DiscreteMeasure(tuple(
        Atom(p, Fraction(rng.randint(1, 12), rng.randint(1, 6)))
        for p in sorted(positions)))


def rational_points_off(measures, count: int, start: int = 1):
    """Deterministic rational points avoiding every atom and reflected atom."""
    poles = set()
    for m in measures:
        for p in m.positions():
            poles.add(Fraction(p))
            poles.add(-Fraction(p))
    pts = []
    k = start
    while len(pts) < count:
        for cand in (Fraction(2 * k + 1, 7), -Fraction(3 * k + 2, 11),
                     Fraction(k, 13) + 8):
            if cand not in poles and cand != 0 and len(pts) < count:
                pts.append(cand)
        k += 1
    return pts


def determinantal_oracle(I, n: int):
    """Monic coefficients of (p_n, q_n) by cofactor expansion of the
    bordered determinants, bypassing the factorization entirely."""
    one = Fraction(1) if I.exact else 1.0
    D_n = minor(I.entries, range(n), range(n), I.exact) if n else one
    if D_n == 0:
        raise DegenerateMatrixError(n)
    p_coeffs = []
    for i in range(n + 1):
        m = minor(I.entries, [r for r in range(n + 1) if r != i], range(n),
                  I.exact) if n else one
        sign = -1 if (i + n) % 2 else 1
        p_coeffs.append(sign * m / D_n)
    q_coeffs = []
    for j in range(n + 1):
        m = minor(I.entries, range(n), [c for c in range(n + 1) if c != j],
                  I.exact) if n else one
        sign = -1 if (j + n) % 2 else 1
        q_coeffs.append(sign * m / D_n)
    return tuple(p_coeffs), tuple(q_coeffs)

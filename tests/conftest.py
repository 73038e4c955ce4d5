"""Shared fixtures: worked measure pairs and prebuilt apparatus."""

import sys
from fractions import Fraction
from random import Random

import pytest

from cauchybop import (Atom, DegenerateMatrixError, DiscreteMeasure,
                       build_apparatus, measure_from_strings)
from cauchybop.bimoment import BimomentMatrix, det
from cauchybop.recurrence import build_hatted


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


@pytest.fixture
def hatted_builds(monkeypatch):
    """The families build_hatted is called on, counted under every name
    that binds it in a loaded cauchybop module, as the benchmark's tracer
    counts them."""
    builds = []

    def counted(family):
        builds.append(family)
        return build_hatted(family)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cauchybop":
            for attr, value in list(vars(module).items()):
                if value is build_hatted:
                    monkeypatch.setattr(module, attr, counted)
    return builds


@pytest.fixture
def leggauss_calls(monkeypatch):
    """The orders numpy's Gauss-Legendre rule is formed at, one per call."""
    import numpy.polynomial.legendre as legendre
    calls = []
    leggauss = legendre.leggauss
    monkeypatch.setattr(legendre, "leggauss",
                        lambda n: calls.append(n) or leggauss(n))
    return calls


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


def term_by_term_power_sums(points, weights, depth: int) -> list:
    """[sum_k w_k t_k**j for j < depth], one term w * t**j at a time in
    atom order, in the arithmetic of the data."""
    out = [0] * depth
    for t, w in zip(points, weights):
        for j in range(depth):
            out[j] += w * t ** j
    return out


def minor(entries, row_idx, col_idx, exact: bool):
    """The determinant of entries on the given rows and columns."""
    return det([[entries[i][j] for j in col_idx] for i in row_idx], exact)


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


def shifted(I: BimomentMatrix, di: int, dj: int) -> BimomentMatrix:
    """The matrix with entries I[di+i][dj+j]: bimoments of the measures
    multiplied by x**di and y**dj."""
    n = I.order - max(di, dj)
    sub = tuple(tuple(I.entries[di + i][dj + j] for j in range(n))
                for i in range(n))
    return BimomentMatrix(n, sub, I.exact)

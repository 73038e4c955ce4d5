import math
from dataclasses import replace
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cauchybop import (Atom, CauchybopError, DegenerateMatrixError,
                       DiscreteMeasure, build_apparatus, build_family,
                       build_XY, compute_bimoments, evaluate,
                       measure_from_strings, pair)
from cauchybop.bimoment import BimomentMatrix

from .conftest import determinantal_oracle


@pytest.fixture(scope="module")
def fam2(two_atom_pair):
    alpha, beta = two_atom_pair
    I = compute_bimoments(alpha, beta, 3)
    return build_family(I, 1, alpha, beta), I


def test_degree_zero_is_one(fam2):
    fam, _ = fam2
    assert fam.p_monic[0] == (1,)
    assert fam.q_monic[0] == (1,)


def test_two_atom_degree_one_coefficients(fam2):
    fam, _ = fam2
    assert fam.p_monic[1] == (F(-109, 77), 1)
    assert fam.q_monic[1] == (F(-131, 77), 1)


def test_norms_are_minor_ratios(fam2):
    fam, _ = fam2
    assert fam.h == (F(77, 60), F(2, 77))


def test_monic_leading_coefficients(app6):
    for n in range(app6.N + 1):
        assert app6.family.p_monic[n][n] == 1
        assert app6.family.q_monic[n][n] == 1


def test_biorthogonality_exact(app6):
    fam = app6.family
    for i in range(6):
        for j in range(6):
            expected = fam.h[i] if i == j else 0
            assert pair(app6.I, fam.p_monic[i], fam.q_monic[j]) == expected


def test_rescaled_pair_is_biorthonormal(app6):
    fam = app6.family
    for i in range(6):
        for j in range(6):
            assert pair(app6.I, fam.p_monic[i], fam.q_star(j)) == \
                (1 if i == j else 0)


def test_determinantal_oracle_agrees(app6):
    for n in range(0, 6):
        p, q = determinantal_oracle(app6.I, n)
        assert p == app6.family.p_monic[n]
        assert q == app6.family.q_monic[n]


def test_degenerate_when_too_few_atoms():
    m = measure_from_strings([("1", "1")])
    I = compute_bimoments(m, m, 3)
    with pytest.raises(DegenerateMatrixError) as err:
        build_family(I, 1)
    assert err.value.order == 2
    with pytest.raises(DegenerateMatrixError):
        determinantal_oracle(I, 2)


def test_averages_worked_values(fam2, two_atom_pair):
    fam, _ = fam2
    assert fam.pi_monic[0] == 2           # total mass of alpha
    assert fam.pi_monic[1] == F(13, 77)   # alpha_1 - (109/77) alpha_0
    assert fam.eta_monic[1] == F(46, 77)


def test_averages_strictly_positive(app6):
    assert all(v > 0 for v in app6.family.pi_monic)
    assert all(v > 0 for v in app6.family.eta_monic)


def test_evaluate_monic_and_normalized(fam2):
    fam, _ = fam2
    assert evaluate(fam, "p", 1, F(109, 77)) == 0
    assert evaluate(fam, "q", 0, F(5, 3)) == 1
    # normalized p_0 = 1 / sqrt(h_0) = sqrt(60/77)
    assert math.isclose(float(evaluate(fam, "p", 0, F(1))) / fam.c(0),
                        math.sqrt(60 / 77), rel_tol=1e-14)


def test_normalized_q_leading_coefficient_is_reciprocal_norm(app6):
    # leading coefficient of q_n / sqrt(h_n) is 1/c_n with c_n^2 = h_n
    fam = app6.family
    for n in range(4):
        lead = float(fam.q_monic[n][n]) / fam.c(n)
        assert math.isclose(lead, 1 / fam.c(n), rel_tol=1e-14)
        assert math.isclose(fam.c(n) ** 2, float(fam.h[n]), rel_tol=1e-14)


def random_float_measure(rng: Random, atoms: int) -> DiscreteMeasure:
    return DiscreteMeasure(tuple(Atom(rng.uniform(0.2, 8.0),
                                      rng.uniform(0.1, 2.0))
                                 for _ in range(atoms)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 8), st.integers(2, 8),
       st.integers(1, 7))
def test_float_apparatus_equals_a_fresh_elimination(seed, atoms_a, atoms_b,
                                                    N):
    # the float apparatus keeps its elimination tables for the ladder's
    # degree N + 1; a fresh elimination of the same entries must give the
    # same doubles, so what the apparatus keeps cannot move a verdict
    rng = Random(seed)
    alpha = random_float_measure(rng, atoms_a)
    beta = random_float_measure(rng, atoms_b)
    N = min(N, atoms_a - 1, atoms_b - 1)
    try:
        app = build_apparatus(alpha, beta, N)
        ladder = app.ladder
    except CauchybopError:          # refused float input: nothing to compare
        assume(False)
    fresh = BimomentMatrix(app.I.order, app.I.entries, app.I.exact)
    family = build_family(fresh, N, alpha, beta)
    # repr tells every double apart, -0.0 and nan included
    assert repr(family) == repr(app.family)
    assert repr(fresh.pivots) == repr(app.I.pivots)
    assert repr(build_XY(family, fresh)) == repr((app.X, app.Y))
    assert repr(replace(app, I=fresh, family=family).ladder) == repr(ladder)

import itertools
import math
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchybop import (Atom, DensityMeasure, DiscreteMeasure,
                       TheoryViolationError, check_total_positivity,
                       compute_bimoments, discretize, measure_from_strings,
                       moment, oracle_dn, rank_one_shift_residual)
from cauchybop.bimoment import (BimomentMatrix, _cauchy_sum, bareiss_det, det,
                                vandermonde)

from .conftest import random_rational_measure


def brute_force_bimoment(alpha, beta, i, j):
    """The stated oracle: an explicit double sum over atom pairs."""
    total = F(0)
    for a in alpha.atoms:
        for b in beta.atoms:
            total += (a.position ** i * b.position ** j * a.weight * b.weight
                      / (a.position + b.position))
    return total


def cauchy_determinant_residual(xs, ys):
    """Residual of the closed form for the bordered Cauchy determinant.

    For 0 < x_1 < ... < x_{n+1} and 0 < y_1 < ... < y_n, the
    (n+1) x (n+1) determinant with rows 1/(x_j + y_i) and a final row of
    ones equals Delta(X) Delta(Y) / prod_{j,k} (x_j + y_k); exact input.
    """
    rows = [[1 / F(x + y) for x in xs] for y in ys]
    rows.append([F(1)] * len(xs))
    denom = math.prod(x + y for x in xs for y in ys)
    return det(rows, True) - vandermonde(xs) * vandermonde(ys) / F(denom)


def brute_force_dn(alpha, beta, n):
    """The tuple-sum oracle with one determinant per pair of n-tuples:
    sum of Delta(X) Delta(Y) det[K(x_i, y_j)] w_X w_Y."""
    exact = alpha.is_exact and beta.is_exact
    if n == 0:
        return F(1) if exact else 1.0
    if n > len(alpha) or n > len(beta):
        return F(0) if exact else 0.0
    xs, ws_a = alpha.positions(), alpha.weights()
    ys, ws_b = beta.positions(), beta.weights()
    total = 0
    for rows in itertools.combinations(range(len(xs)), n):
        xr = [xs[i] for i in rows]
        wx = math.prod(ws_a[i] for i in rows)
        for cols in itertools.combinations(range(len(ys)), n):
            yc = [ys[j] for j in cols]
            kmat = [[1 / _cauchy_sum(x, y) for x in xr] for y in yc]
            wy = math.prod(ws_b[j] for j in cols)
            total += (vandermonde(xr) * vandermonde(yc) * det(kmat, exact)
                      * wx * wy)
    return total


def test_single_pair_constant_half():
    m = measure_from_strings([("1", "1")])
    I = compute_bimoments(m, m, 3)
    assert all(I[i, j] == F(1, 2) for i in range(3) for j in range(3))


def test_two_atom_worked_example(two_atom_pair):
    alpha, beta = two_atom_pair
    I = compute_bimoments(alpha, beta, 2)
    # frozen values, re-derived by the brute-force double sum
    expected = {(0, 0): F(77, 60), (1, 0): F(109, 60),
                (0, 1): F(131, 60), (1, 1): F(187, 60)}
    for (i, j), val in expected.items():
        assert brute_force_bimoment(alpha, beta, i, j) == val
        assert I[i, j] == val


def test_shift_identity_at_origin(two_atom_pair):
    alpha, beta = two_atom_pair
    I = compute_bimoments(alpha, beta, 2)
    assert I[1, 0] + I[0, 1] == moment(alpha, 0) * moment(beta, 0)


def test_leading_minors_two_atom(two_atom_pair):
    I = compute_bimoments(*two_atom_pair, 2)
    assert I.leading_minors() == (F(77, 60), F(1, 30))


def test_leading_minors_degenerate_single_atom():
    m = measure_from_strings([("1", "1")])
    I = compute_bimoments(m, m, 2)
    D = I.leading_minors()
    assert D[0] == F(1, 2) and D[1] == 0


def test_leading_minor_negative_is_theory_violation():
    # forged matrix: corrupted data can only be reached by bypassing atom
    # validation, which is exactly what this violation flags
    bad = BimomentMatrix(2, ((F(1), F(2)), (F(2), F(1))), True)
    with pytest.raises(TheoryViolationError):
        bad.leading_minors()


def test_oracle_matches_elimination(six_atom_pair):
    alpha, beta = six_atom_pair
    I = compute_bimoments(alpha, beta, 5)
    D = I.leading_minors()
    for n in range(1, 5):
        assert oracle_dn(alpha, beta, n) == D[n - 1]


def test_oracle_edge_cases(two_atom_pair):
    alpha, beta = two_atom_pair
    I = compute_bimoments(alpha, beta, 2)
    assert oracle_dn(alpha, beta, 1) == I[0, 0]
    assert oracle_dn(alpha, beta, 2) == F(1, 30)
    assert oracle_dn(alpha, beta, 3) == 0     # more tuples than atoms


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 5))
def test_oracle_matches_brute_force(seed, atoms_a, atoms_b, n):
    rng = Random(seed)
    alpha = random_rational_measure(rng, atoms_a)
    beta = random_rational_measure(rng, atoms_b)
    value = oracle_dn(alpha, beta, n)
    assert isinstance(value, F) and value == brute_force_dn(alpha, beta, n)


def test_float_oracle_matches_exact_on_rationalized_atoms():
    rng = Random(7)

    def float_measure(atoms):
        return DiscreteMeasure(tuple(
            Atom(rng.uniform(0.3, 9.0), rng.uniform(0.1, 2.0))
            for _ in range(atoms)))

    def rationalized(m):
        return DiscreteMeasure(tuple(Atom(F(a.position), F(a.weight))
                                     for a in m.atoms))
    alpha, beta = float_measure(7), float_measure(6)
    for n in range(1, 5):
        value = oracle_dn(alpha, beta, n)
        ref = oracle_dn(rationalized(alpha), rationalized(beta), n)
        assert isinstance(value, float)
        assert abs(F(value) - ref) <= F(1e-12) * abs(ref)


def test_tp_certificate_passes_on_generic_pair(six_atom_pair):
    I = compute_bimoments(*six_atom_pair, 6)
    cert = check_total_positivity(I, 4)
    assert cert.passed and cert.min_minor > 0


def test_tp_certificate_flags_rank_one():
    m = measure_from_strings([("1", "1")])
    I = compute_bimoments(m, m, 2)
    cert = check_total_positivity(I, 2)
    assert not cert.passed
    assert cert.violation[0] == 2 and cert.violation[3] == 0


def test_tp_certificate_shifted_matrix(six_atom_pair):
    # dropping leading rows/columns = multiplying the measures by powers;
    # total positivity survives
    I = compute_bimoments(*six_atom_pair, 6)
    for di, dj in ((1, 0), (0, 1), (2, 1)):
        assert check_total_positivity(I.shifted(di, dj), 3).passed


def test_rank_one_shift_residual_zero(six_atom_pair):
    alpha, beta = six_atom_pair
    I = compute_bimoments(alpha, beta, 6)
    res = rank_one_shift_residual(I, alpha, beta)
    assert len(res) == 5
    assert all(v == 0 for row in res for v in row)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rank_one_shift_residual_random(seed):
    from random import Random
    rng = Random(seed)
    alpha = random_rational_measure(rng, rng.randint(1, 4))
    beta = random_rational_measure(rng, rng.randint(1, 4))
    I = compute_bimoments(alpha, beta, 4)
    res = rank_one_shift_residual(I, alpha, beta)
    assert all(v == 0 for row in res for v in row)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 5))
def test_factored_sum_matches_brute_force(seed, atoms_a, atoms_b, N):
    rng = Random(seed)
    alpha = random_rational_measure(rng, atoms_a)
    beta = random_rational_measure(rng, atoms_b)
    I = compute_bimoments(alpha, beta, N)
    assert I.exact
    assert all(I[i, j] == brute_force_bimoment(alpha, beta, i, j)
               for i in range(N) for j in range(N))


def test_float_bimoments_match_fsum_double_sum():
    # 72 x 72 nodes: more atom pairs than any desk-scale exact input
    alpha = discretize(DensityMeasure(support=(0.5, 2.0),
                                      potential=[0.0, 1.0], order=72))
    beta = discretize(DensityMeasure(support=(0.25, 3.0),
                                     potential=[0.0, 0.5, 0.1], order=72))
    I = compute_bimoments(alpha, beta, 6)
    assert not I.exact
    for i in range(6):
        for j in range(6):
            ref = math.fsum(a.position ** i * b.position ** j * a.weight
                            * b.weight / (a.position + b.position)
                            for a in alpha.atoms for b in beta.atoms)
            assert abs(I[i, j] - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("xs,ys", [
    ([F(1), F(2)], [F(3)]),
    ([F(1), F(2), F(5)], [F(1, 2), F(3)]),
    ([F(1, 3), F(1), F(7, 2), F(4)], [F(1, 2), F(2), F(3)]),
    ([F(1), F(2), F(3), F(4), F(5)], [F(1, 2), F(3, 2), F(5, 2), F(7, 2)]),
])
def test_cauchy_determinant_identity(xs, ys):
    assert cauchy_determinant_residual(xs, ys) == 0


@pytest.mark.parametrize("xs,ys", [
    ([F(1)], [F(3)]),
    ([F(1), F(5)], [F(1, 2), F(3)]),
    ([F(1, 3), F(1), F(7, 2)], [F(1, 2), F(2), F(3)]),
    ([F(1), F(2), F(3), F(4)], [F(1, 2), F(3, 2), F(5, 2), F(7, 2)]),
    ([F(-1, 3), F(2), F(5)], [F(1), F(3, 4), F(6)]),
])
def test_plain_cauchy_determinant_closed_form(xs, ys):
    # det[1/(x_i + y_j)] = Delta(X) Delta(Y) / prod (x_i + y_j): the form
    # oracle_dn sums without taking a determinant
    rows = [[1 / (x + y) for y in ys] for x in xs]
    assert bareiss_det(rows) == (vandermonde(xs) * vandermonde(ys)
                                 / math.prod(x + y for x in xs for y in ys))


def test_bareiss_matches_naive_expansion():
    rows = [[F(1, 2), F(1, 3), F(2)], [F(3), F(1, 5), F(1)],
            [F(1), F(4), F(1, 7)]]
    # 3x3 rule as the independent oracle
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    expected = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert bareiss_det(rows) == expected
    assert bareiss_det([[F(0), F(1)], [F(1), F(0)]]) == -1
    assert bareiss_det([[F(0), F(0)], [F(1), F(1)]]) == 0

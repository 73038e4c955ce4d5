import sys
import threading
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cauchybop import (Atom, BandOperator, DensityMeasure, DiscreteMeasure,
                       OrderUnderflowError, build_apparatus, build_family,
                       build_hatted, build_XY, compute_bimoments,
                       four_term_residual, pair, rank_one_XY_residual,
                       tn_oscillatory_certificate,
                       verify_block_against_dense)
from cauchybop.bimoment import det
from cauchybop.measure import power_sums
from cauchybop.polys import peval

from .conftest import (dense_block_residual, minor, random_rational_measure,
                       rational_points_off, shifted)


def test_X_entries_worked_example(two_atom_pair):
    app = build_apparatus(*two_atom_pair, N=1)
    # <x p_0 | q*_0> = I_10 / I_00 and the y-side analogue
    assert app.X[0, 0] == F(109, 77)
    assert app.Y[0, 0] == F(131, 77)
    # rank-one check at (0,0): sum equals pi_0 eta_0 / h_0 = 240/77
    assert app.X[0, 0] + app.Y[0, 0] == F(240, 77)


def test_hessenberg_shape_and_positive_supradiagonal(app6):
    size = app6.N + 1
    h = app6.family.h
    for i in range(size):
        for j in range(i + 2, size):
            assert app6.X[i, j] == 0
            assert app6.Y[i, j] == 0
        if i + 1 < size:
            assert app6.X[i, i + 1] == 1                  # rescaled frame
            assert app6.Y[i, i + 1] == h[i + 1] / h[i]    # positive


def test_rank_one_XY_exact(app6):
    res = rank_one_XY_residual(app6.X, app6.Y, app6.family)
    assert all(v == 0 for row in res for v in row)


def _assert_XY_match_pairings(app):
    # the triangular products against the pairing definitions
    fam = app.family
    size = app.N + 1
    for i in range(size):
        xp = (0,) + fam.p_monic[i]
        yq = (0,) + fam.q_star(i)
        for j in range(size):
            assert app.X[i, j] == pair(app.I, xp, fam.q_star(j))
            assert app.Y[i, j] == pair(app.I, fam.p_monic[j], yq)


def test_XY_match_pairings(app6):
    _assert_XY_match_pairings(app6)


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_XY_match_pairings_random_measures(seed):
    rng = Random(seed)
    alpha = random_rational_measure(rng, 6)
    beta = random_rational_measure(rng, 6)
    _assert_XY_match_pairings(build_apparatus(alpha, beta, N=4))


def _matmul(A, B, rows, cols, inner):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(inner))
                       for j in range(cols)) for i in range(rows))


def dense_XY(family, I):
    """X = P I_x Q*^T and Y^T = P I_y Q*^T over the zero-padded coefficient
    triangles P (monic p) and Q* (q*), with I_x[a][b] = I[a+1][b] and
    I_y[a][b] = I[a][b+1]."""
    size = family.N + 1
    zero = F(0) if family.exact else 0.0
    P = [p + (zero,) * (size - len(p)) for p in family.p_monic]
    Qt = tuple(zip(*(family.q_star(j) + (zero,) * (size - j - 1)
                     for j in range(size))))

    def sandwich(shifted):
        return _matmul(_matmul(P, shifted.entries, size, size, size), Qt,
                       size, size, size)
    return sandwich(shifted(I, 1, 0)), tuple(zip(*sandwich(shifted(I, 0, 1))))


def normalized_float(op, h):
    """Entries of op conjugated back to the normalized (sqrt-h) basis."""
    s = [float(x) ** 0.5 for x in h]
    return tuple(tuple(float(op.entries[i][j]) * s[j] / s[i]
                       for j in range(op.valid_cols))
                 for i in range(op.valid_rows))


def dense_products(app, s):
    """A = L X and Ahat = X Lhat as full products, and the commutator
    [Pi_n, (-s - Y^T) Lhat] for n = 2..N-1 summed over every k."""
    size = app.N + 1
    X, Y, Lh = app.X.entries, app.Y.entries, app.Lhat.entries
    A = _matmul(app.L.entries, X, size - 1, size, size)
    Ahat = _matmul(X, Lh, size, size - 1, size)
    M = [[sum((-s * (1 if i == k else 0) - Y[k][i]) * Lh[k][j]
              for k in range(size))
          for j in range(size - 1)] for i in range(size)]
    commutators = [tuple(tuple(M[i][j] * ((i < n) - (j < n))
                               for j in range(size - 1))
                         for i in range(size)) for n in range(2, app.N)]
    return A, Ahat, commutators


def _bit(v):
    """A value with its type; a float by its bit pattern, so a signed zero
    counts."""
    return v.hex() if isinstance(v, float) else (type(v), v)


def _bits(M):
    return [[_bit(v) for v in row] for row in M]


def _assert_products_match_dense(app, s):
    A, Ahat, commutators = dense_products(app, s)
    assert _bits(app.A.entries) == _bits(A)
    assert _bits(app.Ahat.entries) == _bits(Ahat)
    assert app.B.entries == tuple(zip(*(tuple(-v for v in r) for r in A)))
    assert app.Bhat.entries == tuple(zip(*(tuple(-v for v in r)
                                           for r in Ahat)))
    for n, dense in zip(range(2, app.N), commutators):
        assert (_bit(verify_block_against_dense(app, n, s))
                == _bit(dense_block_residual(app, n, s, dense)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 3))
def test_construction_matches_dense_route_exact(seed, N, extra):
    # N+1 atoms make D_{N+2} = 0: the tables stop short of a further pivot
    rng = Random(seed)
    alpha = random_rational_measure(rng, N + extra)
    beta = random_rational_measure(rng, N + extra)
    app = build_apparatus(alpha, beta, N=N)
    X, Y = dense_XY(app.family, app.I)
    assert _bits(app.X.entries) == _bits(X)
    assert _bits(app.Y.entries) == _bits(Y)
    _assert_products_match_dense(app, F(rng.randint(-9, 9), 7))


def test_products_match_dense_route_float():
    app = build_apparatus(
        DensityMeasure(support=(0.5, 2.0), potential=[0.0, 1.0], order=24),
        DensityMeasure(support=(0.25, 3.0), potential=[0.0, 0.5, 0.1],
                       order=24), N=7)
    assert not app.exact
    _assert_products_match_dense(app, 0.375)


def test_build_XY_needs_tables_one_power_past_the_family(six_atom_pair):
    # X and Y read the LDU of the matrix they are given, which must reach
    # order N + 2; a family of its leading block is the same family
    short = compute_bimoments(*six_atom_pair, 4)
    full = compute_bimoments(*six_atom_pair, 5)
    with pytest.raises(OrderUnderflowError):
        build_XY(build_family(full, 3), short)
    assert (build_XY(build_family(short, 3), full)
            == build_XY(build_family(full, 3), full))


def test_L_and_Lhat_annihilate_X_plus_Y_transpose(app6):
    # L (X + Y^T) = 0 and (X + Y^T) Lhat = 0 pin the sign convention of L, Lhat
    size = app6.N + 1
    S = [[app6.X[i, j] + app6.Y[j, i] for j in range(size)]
         for i in range(size)]
    for i in range(app6.L.valid_rows):
        for j in range(size):
            assert sum(app6.L[i, k] * S[k][j] for k in range(size)) == 0
    for i in range(size):
        for j in range(size - 1):
            assert sum(S[i][k] * app6.Lhat[k, j] for k in range(size)) == 0


def test_normalized_float_view_supradiagonal_positive(app6):
    norm = normalized_float(app6.X, app6.family.h)
    for i in range(len(norm) - 1):
        assert norm[i][i + 1] > 0


def test_L_Lhat_entry_placement(app6):
    fam = app6.family
    for i in range(app6.N):
        assert app6.L[i, i] == -1 / fam.pi_monic[i]
        assert app6.L[i, i + 1] == 1 / fam.pi_monic[i + 1]
    for i in range(1, app6.N + 1):
        assert app6.Lhat[i, i] == -1 / fam.eta_star(i)
        assert app6.Lhat[i, i - 1] == 1 / fam.eta_star(i)


def test_L_annihilates_averages(app6):
    # L applied to the average vector gives shift differences that cancel
    pi = app6.family.pi_monic
    for i in range(app6.N):
        assert app6.L[i, i] * pi[i] + app6.L[i, i + 1] * pi[i + 1] == 0


def test_band_supports_exact(app6):
    assert app6.A.band_violations() == []
    assert app6.Ahat.band_violations() == []
    assert app6.A.support == (-1, 2)
    assert app6.Ahat.support == (-2, 1)


def test_B_is_minus_A_transpose(app6):
    for i in range(app6.B.valid_rows):
        for j in range(app6.B.valid_cols):
            assert app6.B[i, j] == -app6.A[j, i]
    for i in range(app6.Bhat.valid_rows):
        for j in range(app6.Bhat.valid_cols):
            assert app6.Bhat[i, j] == -app6.Ahat[j, i]


def test_four_term_recurrence_exact(app6, six_atom_pair):
    pts = rational_points_off(six_atom_pair, 20)
    for n in range(1, app6.N):
        for pt in pts:
            rp, rq = four_term_residual(app6.family, app6.A, app6.Bhat, n, pt)
            assert rp == 0 and rq == 0


def test_four_term_at_zero_and_window(app6):
    rp, rq = four_term_residual(app6.family, app6.A, app6.Bhat, 1, F(0))
    assert rp == 0 and rq == 0
    with pytest.raises(OrderUnderflowError):
        four_term_residual(app6.family, app6.A, app6.Bhat, app6.N, F(1, 2))


def test_hatted_defining_properties(app6):
    hat = app6.hatted
    fam = app6.family
    beta_moms = power_sums(app6.beta.positions(), app6.beta.weights(),
                           app6.N + 2)
    for n in range(app6.N):
        assert len(hat.q_hat[n]) == n + 2        # degree n + 1
        assert len(hat.p_hat[n]) == n + 1        # degree n
        # beta average of qhat vanishes
        assert sum(c * beta_moms[k] for k, c in enumerate(hat.q_hat[n])) == 0
        # leading coefficient of qhat_n
        assert hat.q_hat[n][n + 1] * fam.eta_monic[n + 1] == 1
    for n in range(app6.N + 1):
        for m in range(app6.N):
            assert pair(app6.I, hat.p_hat[n], hat.q_hat[m]) == \
                (1 if n == m else 0)


def test_phat_constant_pairing(app6):
    # <phat_n | 1> / beta_0 = -1 for every n
    beta0 = power_sums(app6.beta.positions(), app6.beta.weights(), 1)[0]
    for n in range(app6.N + 1):
        assert pair(app6.I, app6.hatted.p_hat[n], (1,)) == -beta0


def test_phat_pairs_like_beta_moments(app6):
    # <phat_n | y^j> = -beta_j for j <= n
    beta_moms = power_sums(app6.beta.positions(), app6.beta.weights(),
                           app6.N + 1)
    for n in range(app6.N + 1):
        for j in range(n + 1):
            ypow = tuple([0] * j + [1])
            assert pair(app6.I, app6.hatted.p_hat[n], ypow) == -beta_moms[j]


def hatted_determinantal_oracle(I, beta_moments, family, n):
    """(qhat_n, phat_n) from the bordered determinants with the beta-moment
    row, expanded by cofactors; exact match with build_hatted after the
    normalization is cleared of square roots.

    The qhat prefactor 1/(eta_n eta_{n+1} sqrt(D_n D_{n+2})) collapses to
    the rational 1/(eta~_n eta~_{n+1} D_n) once the normalized averages are
    written through the monic ones.
    """
    D = [minor(I.entries, range(k), range(k), True) if k else F(1)
         for k in range(n + 3)]
    # qhat_n: rows = I rows 0..n-1 then the beta row; columns 0..n+1; the
    # power row is expanded away.
    base_rows = [[I[i, j] for j in range(n + 2)] for i in range(n)]
    base_rows.append([beta_moments[j] for j in range(n + 2)])
    q_coeffs = []
    for j in range(n + 2):
        sub = [[row[c] for c in range(n + 2) if c != j] for row in base_rows]
        sign = -1 if (n + 1 + j) % 2 else 1
        q_coeffs.append(sign * det(sub, True))
    scale_q = family.eta_monic[n] * family.eta_monic[n + 1] * D[n]
    q_hat = tuple(c / scale_q for c in q_coeffs)
    # phat_n: rows = I rows 0..n and the beta row; columns 0..n; the power
    # column (1, x, ..., x^n, 0) is expanded away.
    rows = [[I[i, j] for j in range(n + 1)] for i in range(n + 1)]
    rows.append([beta_moments[j] for j in range(n + 1)])
    p_coeffs = []
    for i in range(n + 1):
        sub = [rows[r] for r in range(n + 2) if r != i]
        sign = -1 if (i + n + 1) % 2 else 1
        p_coeffs.append(sign * det(sub, True))
    p_hat = tuple(c / D[n + 1] for c in p_coeffs)
    return q_hat, p_hat


def test_hatted_determinantal_oracle(app6):
    beta_moms = power_sums(app6.beta.positions(), app6.beta.weights(),
                           app6.N + 2)
    for n in range(app6.N - 1):
        qh, ph = hatted_determinantal_oracle(app6.I, beta_moms, app6.family, n)
        assert qh == app6.hatted.q_hat[n]
        assert ph == app6.hatted.p_hat[n]


def test_intertwining_relations(app6):
    # x p_i = sum_j Ahat[i][j] phat_j  and  y qhat_j = -sum_i q*_i Ahat[i][j]
    pts = [F(3, 7), F(-5, 2), F(9, 4)]
    for x in pts:
        for i in range(app6.N - 1):
            lhs = x * peval(app6.family.p_monic[i], x)
            rhs = sum(app6.Ahat[i, j] * peval(app6.hatted.p_hat[j], x)
                      for j in range(max(0, i - 2),
                                     min(app6.Ahat.valid_cols, i + 2)))
            assert lhs == rhs
    for y in pts:
        for j in range(app6.N - 2):
            lhs = y * peval(app6.hatted.q_hat[j], y)
            rhs = -sum(peval(app6.family.q_star(i), y) * app6.Ahat[i, j]
                       for i in range(max(0, j - 1), j + 3))
            assert lhs == rhs


# -- the hatted families are built on first read --------------------------------


def _in_doubles(m: DiscreteMeasure) -> DiscreteMeasure:
    return DiscreteMeasure(tuple(Atom(float(a.position), float(a.weight))
                                 for a in m.atoms))


@pytest.fixture(params=["exact", "float"])
def built(request, six_atom_pair, hatted_builds):
    """A new degree-4 apparatus on the six-atom pair, exact or in doubles,
    and the families build_hatted has been called on since."""
    pair = six_atom_pair if request.param == "exact" else \
        tuple(map(_in_doubles, six_atom_pair))
    return build_apparatus(*pair, N=4), hatted_builds


def test_hatted_family_is_built_on_first_read_only(built):
    app, builds = built
    assert builds == []         # build_apparatus built none
    hat = app.hatted
    assert app.hatted is hat
    assert len(builds) == 1 and builds[0] is app.family
    expected = build_hatted(app.family)
    if app.exact:
        assert hat == expected
    else:       # repr tells every double apart, -0.0 and nan included
        assert repr(hat) == repr(expected)


def test_replaced_family_reads_its_own_hatted_family(app6, six_atom_pair):
    other = build_apparatus(*reversed(six_atom_pair), N=app6.N).family
    stale = app6.hatted
    swapped = replace(app6, family=other)
    assert swapped.hatted == build_hatted(other) != stale


def test_threads_reading_the_hatted_family_at_once_agree(six_atom_pair):
    app = build_apparatus(*six_atom_pair, N=5)
    start = threading.Barrier(4)
    results = []

    def read():
        start.wait(timeout=10)
        results.append(app.hatted)
    threads = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    assert all(hat == build_hatted(app.family) for hat in results)


def test_tn_oscillatory_certificate(app6):
    cert = tn_oscillatory_certificate(app6.X)
    assert cert.tn_passed
    assert cert.invertible
    assert cert.subdiagonal_positive and cert.supradiagonal_positive
    assert cert.oscillatory
    cert_y = tn_oscillatory_certificate(app6.Y)
    assert cert_y.oscillatory


def all_minors_nonnegative(a, top=None):
    """The oracle for the Neville test: every minor of order <= top (of
    every order by default)."""
    n = len(a)
    return all(minor(a, rows, cols, True) >= 0
               for k in range(1, (top or n) + 1)
               for rows in combinations(range(n), k)
               for cols in combinations(range(n), k))


def _dense(a):
    n = len(a)
    return BandOperator(tuple(map(tuple, a)), (1 - n, n - 1), n, n)


def _bidiagonal_product(rng, n, perturb):
    """A positive diagonal times elementary bidiagonal factors with
    nonnegative multipliers (so TN), one entry perturbed if asked."""
    a = [[F(rng.randint(1, 5), rng.randint(1, 3)) if i == j else F(0)
          for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, n * (n - 1))):
        i, m = rng.randint(1, n - 1), F(rng.randint(0, 4), rng.randint(1, 3))
        if rng.random() < 0.5:          # lower factor: row i += m row i-1
            a[i] = [x + m * y for x, y in zip(a[i], a[i - 1])]
        else:                           # upper factor: col i += m col i-1
            for row in a:
                row[i] += m * row[i - 1]
    if perturb:
        a[rng.randrange(n)][rng.randrange(n)] += F(rng.randint(-6, 6),
                                                   rng.randint(1, 4))
    return a


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5), st.booleans())
def test_neville_certificate_matches_all_minors(seed, n, perturb):
    a = _bidiagonal_product(Random(seed), n, perturb)
    assume(det(a, True) != 0)
    cert = tn_oscillatory_certificate(_dense(a))
    assert cert.invertible and cert.kmax == n
    assert cert.tn_passed == all_minors_nonnegative(a)


def test_certificate_sees_a_negative_determinant_past_order_four():
    # the 5x5 Cauchy matrix 1/(i+j) with a_11 lowered just enough to turn
    # the determinant negative; every minor of order <= 4 stays >= 0
    a = [[F(1, i + j) for j in range(1, 6)] for i in range(1, 6)]
    a[0][0] -= F(101, 100) * det(a, True) / det([r[1:] for r in a[1:]], True)
    assert det(a, True) < 0 and all_minors_nonnegative(a, 4)
    cert = tn_oscillatory_certificate(_dense(a))
    assert not cert.tn_passed and not cert.oscillatory
    assert cert.invertible and cert.min_minor < 0


def test_singular_input_is_not_certified():
    cert = tn_oscillatory_certificate(_dense([[F(1), F(1)], [F(1), F(1)]]))
    assert not cert.invertible and not cert.tn_passed
    assert cert.min_minor == 0


def test_two_by_two_truncation_determinant_positive(two_atom_pair):
    app = build_apparatus(*two_atom_pair, N=1)
    det = app.X[0, 0] * app.X[1, 1] - app.X[0, 1] * app.X[1, 0]
    assert det > 0


def test_conjugation_invariance_of_certificate(app6):
    # the float normalized form has the same minor signs
    import numpy as np
    norm = np.array(normalized_float(app6.X, app6.family.h))
    rat = np.array([[float(v) for v in row] for row in app6.X.entries])
    for k in (1, 2):
        from itertools import combinations
        for rows in combinations(range(4), k):
            for cols in combinations(range(4), k):
                a = np.linalg.det(norm[np.ix_(rows, cols)])
                b = np.linalg.det(rat[np.ix_(rows, cols)])
                assert (a >= -1e-12) == (b >= -1e-12)

from fractions import Fraction as F

import pytest

from cauchybop import (OrderUnderflowError, cd_residual_hat,
                       cd_residual_plain, commutator_block, dense_commutator,
                       verify_block_against_dense)

from .conftest import rational_points_off


def test_block_entries_against_operator(app6):
    n = 3
    s = F(5, 9)
    grid = commutator_block(app6, n, s)
    Ah = app6.Ahat
    assert grid[0] == (0, 0, Ah[n - 1, n])
    assert grid[1][0] == -Ah[n, n - 2]
    assert grid[1][1] == s / app6.family.eta_star(n) - Ah[n, n - 1]
    assert grid[1][2] == 0
    assert grid[2] == (0, -Ah[n + 1, n - 1], 0)


def test_block_has_four_nonzero_entries(app6):
    grid = commutator_block(app6, 2, F(1, 2))
    nonzero = sum(1 for row in grid for v in row if v != 0)
    assert nonzero == 4


def test_block_linear_in_s(app6):
    s1, s2 = F(2, 5), F(-7, 3)
    g1, g2 = commutator_block(app6, 3, s1), commutator_block(app6, 3, s2)
    diff = [[g1[i][j] - g2[i][j] for j in range(3)] for i in range(3)]
    assert diff[1][1] == (s1 - s2) / app6.family.eta_star(3)
    diff[1][1] = 0
    assert all(v == 0 for row in diff for v in row)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_matches_dense_commutator(app6, n):
    for s in (F(3, 7), F(-1, 2), F(11, 5)):
        assert verify_block_against_dense(app6, n, s) == 0


def test_dense_commutator_support(app6):
    dense = dense_commutator(app6, 3, F(1, 3))
    for i in range(len(dense)):
        for j in range(len(dense[0])):
            inside = (3 - 1 <= i <= 3 + 1) and (3 - 2 <= j <= 3)
            if not inside:
                assert dense[i][j] == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_plain_cd_identity_exact(app6, six_atom_pair, n):
    pts = rational_points_off(six_atom_pair, 20)
    pairs = list(zip(pts[::2], pts[1::2]))
    for x, y in pairs:
        assert cd_residual_plain(app6, n, x, y) == 0


def test_cd_identities_degree_five_and_deep_oracle():
    # the n = 5 window needs seven points of increase
    from random import Random

    from cauchybop import build_apparatus

    from .conftest import determinantal_oracle, random_rational_measure
    rng = Random(777)
    alpha = random_rational_measure(rng, 8)
    beta = random_rational_measure(rng, 8)
    app = build_apparatus(alpha, beta, N=6)
    pts = rational_points_off([alpha, beta], 6)
    for x, y in zip(pts[::2], pts[1::2]):
        assert cd_residual_plain(app, 5, x, y) == 0
        assert cd_residual_hat(app, 5, x, y) == 0
    # factorization and bordered determinants agree through degree 6
    p, q = determinantal_oracle(app.I, 6)
    assert p == app.family.p_monic[6] and q == app.family.q_monic[6]


def test_cd_float_evaluation_of_exact_data():
    # exact apparatus, float points: cancellation stays at rounding level
    from random import Random

    from cauchybop import build_apparatus

    from .conftest import random_rational_measure
    rng = Random(1234)
    app = build_apparatus(random_rational_measure(rng, 12),
                          random_rational_measure(rng, 12), N=9)
    for n in (4, 8):
        for x, y in [(0.37, 1.91), (-2.5, 0.63), (11.2, -3.7)]:
            assert cd_residual_plain(app, n, x, y) < 1e-9
            assert cd_residual_hat(app, n, x, y) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hatted_cd_identity_exact(app6, six_atom_pair, n):
    pts = rational_points_off(six_atom_pair, 20)
    for x, y in zip(pts[::2], pts[1::2]):
        assert cd_residual_hat(app6, n, x, y) == 0


def test_antidiagonal_specialization(app6):
    # x = -y kills the left side, so the window product itself must vanish
    y = F(9, 8)
    assert cd_residual_plain(app6, 3, -y, y) == 0


def test_bidegree_of_kernel_sum(app6):
    # sum_{j<n} q_j(y) p_j(x) has bidegree (n-1, n-1) by construction:
    # the top summand is the product of two degree-(n-1) factors
    fam = app6.family
    n = 4
    assert len(fam.p_monic[n - 1]) == n              # degree n-1 in x
    assert len(fam.q_star(n - 1)) == n               # degree n-1 in y


def test_window_underflow(app6):
    with pytest.raises(OrderUnderflowError):
        commutator_block(app6, 1, F(1, 2))
    with pytest.raises(OrderUnderflowError):
        cd_residual_plain(app6, app6.N, F(1), F(2))

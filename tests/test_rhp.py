import cmath
import math
from fractions import Fraction as F

import pytest

from cauchybop import (DensityMeasure, OrderUnderflowError, assemble_gamma,
                       assemble_gamma_hat, asymptotic_check, build_apparatus,
                       extract_constants, jump_residual, jump_slope_study)
from cauchybop.nikishin import PointBackend, aux_columns, markov
from cauchybop.polys import peval
from cauchybop.rhp import boundary_matrix, jump_matrix, series_at_infinity

from .conftest import rational_points_off


@pytest.fixture(scope="module")
def appd():
    alpha = DensityMeasure(support=(1.0, 2.0), density=lambda x: 1.0, order=120)
    beta = DensityMeasure(support=(1.0, 2.0), density=lambda x: 1.0, order=120)
    return build_apparatus(alpha, beta, N=4)


# -- exact assembly -----------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_det_gamma_unity_exact(app6, six_atom_pair, n):
    for w in rational_points_off(six_atom_pair, 5):
        g = assemble_gamma(app6, n, w)
        assert g.determinant == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_gamma_hat_unity_exact(app6, six_atom_pair, n):
    for z in rational_points_off(six_atom_pair, 5):
        gh = assemble_gamma_hat(app6, n, z)
        assert gh.determinant == 1


def test_assembly_runs_at_rational_point_off_the_supports(app6):
    # both matrices assemble at a rational point off every support without
    # raising; route agreement is pinned by the prefactor test below
    assemble_gamma(app6, 3, F(23, 2))
    assemble_gamma_hat(app6, 3, F(23, 2))


def prefactor_gamma_rows(app, n, q):
    """The same matrix by the normalization-prefactor route: a 3x3 constant
    matrix times the raw window matrix, written in square-root-free combos
    (c_n q_{a,n} = h_n q*_{a,n} and q_{a,j}/c_j = q*_{a,j})."""
    fam = app.family
    s1 = [fam.h[n] * q[a][n] for a in range(3)]
    s2 = [q[a][n - 1] / fam.eta_star(n - 1) for a in range(3)]
    s3 = [(-1) ** (n + 1) * q[a][n - 2] for a in range(3)]
    row0 = tuple(s1[a] - fam.eta_monic[n] * s2[a] for a in range(3))
    row1 = tuple(s2)
    row2 = tuple((-1) ** n * fam.eta_star(n - 2) * s2[a] + s3[a]
                 for a in range(3))
    return row0, row1, row2


def prefactor_gamma_hat_rows(app, n, phat, wbs):
    """Gammahat by the prefactor route, using only hatted windows plus the
    convention phat_{b,-1} = (0, -1, -W_beta_star(z)) that extends the
    forward substitution one slot below degree zero."""
    fam = app.family
    minus1 = [phat[b][n - 2] if n >= 2 else (0, -1, -wbs)[b] for b in range(3)]
    row0 = tuple(-(fam.h[n] / fam.eta_monic[n]) * (phat[b][n] - phat[b][n - 1])
                 for b in range(3))
    row1 = tuple(-phat[b][n - 1] for b in range(3))
    row2 = tuple((-1) ** n * (minus1[b] - phat[b][n - 1]) / fam.eta_monic[n - 1]
                 for b in range(3))
    return row0, row1, row2


def test_prefactor_route_agrees_with_assembly(app6, six_atom_pair):
    # the normalization-prefactor route is the oracle for both matrices
    for w in rational_points_off(six_atom_pair, 5):
        for n in (2, 3, 4):
            q, _ = aux_columns(app6, "q", n, PointBackend(w))
            assert assemble_gamma(app6, n, w).entries == \
                prefactor_gamma_rows(app6, n, q)
        wbs = markov(app6.alpha, app6.beta, "W_beta_star")(w)
        for n in (1, 2, 3, 4):
            _, phat = aux_columns(app6, "p", n, PointBackend(w))
            assert assemble_gamma_hat(app6, n, w).entries == \
                prefactor_gamma_hat_rows(app6, n, phat, wbs)


def test_gamma_rows_are_rational_combinations(app6):
    g = assemble_gamma(app6, 2, F(23, 2))
    assert all(isinstance(v, F) or v == int(v)
               for row in g.entries for v in row)


def test_middle_row_growth(app6):
    # entry (2,1) grows like w^{n-1} with coefficient 1/eta~_{n-1}
    n = 3
    grid = series_at_infinity(app6, n, "gamma")
    assert grid[1][0].coeff(n - 1) == 1 / app6.family.eta_monic[n - 1]
    # entry (2,3) decays like w^{-n} with the alternating coefficient
    lead = grid[1][2].coeff(-n)
    expected = (-1) ** n * app6.family.h[n - 1] / app6.family.eta_monic[n - 1]
    assert lead == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_asymptotic_powers_gamma(app6, n):
    cert = asymptotic_check(app6, n, "gamma")
    assert cert.passed, cert.failures
    assert cert.diag_powers == (n, -1, -n + 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_asymptotic_powers_gamma_hat(app6, n):
    cert = asymptotic_check(app6, n, "gamma_hat")
    assert cert.passed, cert.failures
    assert cert.diag_powers == (n, 0, -n)


def test_gamma_hat_middle_column_unit_limit(app6):
    grid = series_at_infinity(app6, 3, "gamma_hat")
    assert grid[1][1].coeff(0) == 1          # from the -1 limit of phat-aux-1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_extract_constants_round_trip(app6, n):
    c_sq, eta_sq = extract_constants(app6, n)
    fam = app6.family
    assert c_sq == fam.h[n - 1]
    assert eta_sq == fam.eta_monic[n - 1] ** 2 / fam.h[n - 1]
    # the squared float constants agree too
    assert math.isclose(float(c_sq), fam.c(n - 1) ** 2, rel_tol=1e-14)
    eta_normalized = float(fam.eta_monic[n - 1]) / fam.c(n - 1)
    assert math.isclose(float(eta_sq), eta_normalized ** 2, rel_tol=1e-14)


def test_window_underflow(app6):
    with pytest.raises(OrderUnderflowError):
        assemble_gamma(app6, 1, F(10))
    with pytest.raises(OrderUnderflowError):
        assemble_gamma_hat(app6, 0, F(10))


# -- boundary values on density input ------------------------------------------------


def test_det_gamma_float_density(appd):
    g = assemble_gamma(appd, 2, 10.0)
    assert abs(g.determinant - 1) < 1e-9


@pytest.mark.parametrize("which, assemble", [("gamma", assemble_gamma),
                                              ("gamma_hat", assemble_gamma_hat)])
def test_density_backend_matches_point_backend_off_the_cuts(appd, which,
                                                            assemble):
    # off both cuts the split transform is the plain quadrature sum, which
    # the point backend takes over the discretized atoms
    dens = boundary_matrix(appd, 2, 10.0, which)
    point = assemble(appd, 2, 10.0).entries
    for i in range(3):
        for j in range(3):
            assert abs(dens[i][j] - point[i][j]) <= 1e-9 * abs(point[i][j])


def test_jump_matrix_selection(appd):
    J = jump_matrix(appd, 1.5, "gamma")
    assert J[0][1] == -2j * cmath.pi
    J2 = jump_matrix(appd, -1.5, "gamma")
    assert J2[1][2] == -2j * cmath.pi
    with pytest.raises(ValueError):
        jump_matrix(appd, 5.0, "gamma")


def test_jump_residual_linear_in_eps_first_cut(appd):
    eps = [1e-4, 1e-5, 1e-6]
    residuals, slope = jump_slope_study(appd, 2, 1.5, eps, "gamma")
    assert residuals[0] < 1e-2
    assert 0.5 <= slope <= 2.0
    assert residuals[0] > residuals[1] > residuals[2]


def test_jump_residual_second_cut(appd):
    residuals, slope = jump_slope_study(appd, 2, -1.5, [1e-4, 1e-5, 1e-6],
                                        "gamma")
    assert 0.5 <= slope <= 2.0


def test_jump_residual_gamma_hat_both_cuts(appd):
    residuals, slope = jump_slope_study(appd, 2, 1.5, [1e-4, 1e-5, 1e-6],
                                        "gamma_hat")
    assert 0.5 <= slope <= 2.0
    residuals, slope = jump_slope_study(appd, 2, -1.5, [1e-4, 1e-5, 1e-6],
                                        "gamma_hat")
    assert 0.5 <= slope <= 2.0


def test_jump_residual_potential_density():
    # non-constant density given through an exponential potential
    rho = DensityMeasure(support=(0.5, 2.0), potential=[0.1, 0.4, 0.05],
                         hbar=0.8, order=150)
    app = build_apparatus(rho, rho, N=3)
    for w0, which in ((1.1, "gamma"), (-1.2, "gamma")):
        residuals, slope = jump_slope_study(app, 2, w0, [1e-4, 1e-5, 1e-6],
                                            which)
        assert 0.5 <= slope <= 2.0
        assert residuals[0] < 1e-2


def two_sided_difference(app, n, w0, eps):
    """max |Gamma(w0 + i eps) - Gamma(w0 - i eps)|: tends to zero off the
    cuts (analyticity), the control experiment for jump_residual."""
    gp, gm = (boundary_matrix(app, n, complex(w0, s * eps)) for s in (1, -1))
    return max(abs(gp[i][j] - gm[i][j]) for i in range(3) for j in range(3))


def test_boundary_matrix_at_a_quadrature_node():
    # an odd order puts a node at the midpoint 1.5, where the split Cauchy
    # transform takes the node's term at its limit: Gamma there agrees
    # with an even order's, which has no node at 1.5
    def gamma(order):
        dm = DensityMeasure(support=(1.0, 2.0), potential=[0.0, 1.0],
                            order=order)
        return boundary_matrix(build_apparatus(dm, dm, N=3), 2,
                               1.5 + 1e-5j)
    even, odd = gamma(96), gamma(97)
    scale = max(abs(v) for row in even for v in row)
    assert max(abs(x - y) for r, s in zip(even, odd)
               for x, y in zip(r, s)) <= 1e-8 * scale


def test_analyticity_off_support(appd):
    d5 = two_sided_difference(appd, 2, 3.0, 1e-5)
    d6 = two_sided_difference(appd, 2, 3.0, 1e-6)
    assert d6 < d5 / 5          # shrinks linearly with eps off the cuts


def test_jump_requires_density(app6):
    with pytest.raises(ValueError):
        jump_residual(app6, 2, 1.5, 1e-4)


def constant_jump_postfactor(U, V, hbar, w):
    """Diagonal post-multiplier turning Gamma's jumps into constants when
    the densities are exp(-U/hbar), exp(-V/hbar): e.g. the (1,2) jump
    entry -2 pi i e^{-V/hbar} times the ratio of the first two diagonal
    exponentials collapses to -2 pi i.  U is evaluated reflected (the
    second cut lives on the negative axis)."""
    u_star = peval(tuple(U), -w)
    v = peval(tuple(V), w)
    return (cmath.exp(-(2 * v + u_star) / (3 * hbar)),
            cmath.exp((v - u_star) / (3 * hbar)),
            cmath.exp((2 * u_star + v) / (3 * hbar)))


def test_constant_jump_postfactor_flattens_jumps():
    # with exp-potential densities the conjugated jump entry is -2 pi i
    U = [0.3, 0.1]
    V = [0.2, 0.05]
    hbar = 0.7
    w = 1.3
    d1, d2, d3 = constant_jump_postfactor(U, V, hbar, w)
    rho_beta = math.exp(-(V[0] + V[1] * w) / hbar)
    entry = -2j * cmath.pi * rho_beta * d2 / d1
    assert abs(entry - (-2j * cmath.pi)) < 1e-12
    # second cut: the (2,3) entry against the alpha-star density
    wneg = -1.1
    e1, e2, e3 = constant_jump_postfactor(U, V, hbar, wneg)
    rho_astar = math.exp(-(U[0] + U[1] * (-wneg)) / hbar)
    entry23 = -2j * cmath.pi * rho_astar * e3 / e2
    assert abs(entry23 - (-2j * cmath.pi)) < 1e-12


def test_unit_determinant_random_measures():
    from random import Random

    from .conftest import random_rational_measure
    for seed in (5, 17, 91):
        rng = Random(seed)
        app = build_apparatus(random_rational_measure(rng, 5),
                              random_rational_measure(rng, 5), N=4)
        w = rational_points_off([app.alpha, app.beta], 1)[0]
        assert assemble_gamma(app, 3, w).determinant == 1
        assert assemble_gamma_hat(app, 3, w).determinant == 1
        assert asymptotic_check(app, 3, "gamma").passed
        assert asymptotic_check(app, 3, "gamma_hat").passed

"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with -s; a failure fails the test outright).

All identity criteria run in exact rational arithmetic -- "zero" below
means literal equality, not a small number.  Float enters only where the
criterion says so: eigenvalue-based zero location and the boundary-value
jump study on density input.
"""

import time
from fractions import Fraction as F
from random import Random

import pytest

from cauchybop import (DegenerateMatrixError, DensityMeasure,
                       assemble_gamma, assemble_gamma_hat, asymptotic_check,
                       aux_vectors, build_apparatus, build_family,
                       cd_residual_hat, cd_residual_plain,
                       check_total_positivity, compute_bimoments,
                       duality_check, ecd_residual, extract_constants,
                       four_term_residual, jump_slope_study,
                       measure_from_strings, oracle_dn, order_check,
                       pade_solve, pair, plucker_residual,
                       rank_one_shift_residual, rank_one_XY_residual,
                       verify_block_against_dense, zeros_of,
                       charpoly_identity_residual)

from .conftest import (determinantal_oracle, random_rational_measure,
                       rational_points_off)

SEED = 20260809


def _report(k: int, text: str):
    print(f"ACCEPTANCE {k:2d}: {text} ... PASS")


@pytest.fixture(scope="module")
def random_pairs():
    rng = Random(SEED)
    return [(random_rational_measure(rng, 6), random_rational_measure(rng, 6))
            for _ in range(5)]


@pytest.fixture(scope="module")
def random_apps(random_pairs):
    return [build_apparatus(a, b, N=5) for a, b in random_pairs]


@pytest.fixture(scope="module")
def app12():
    rng = Random(SEED + 1)
    return build_apparatus(random_rational_measure(rng, 12),
                           random_rational_measure(rng, 12), N=8)


@pytest.fixture(scope="module")
def appd():
    rho = DensityMeasure(support=(1.0, 2.0), density=lambda x: 1.0, order=120)
    return build_apparatus(rho, rho, N=3)


def test_criterion_1_bimoment_tp_and_oracle(random_pairs):
    t0 = time.monotonic()
    for alpha, beta in random_pairs:
        I = compute_bimoments(alpha, beta, 6)
        cert = check_total_positivity(I, 4)
        assert cert.passed and cert.min_minor > 0
        D = I.leading_minors()
        for n in range(1, 5):
            assert D[n - 1] == oracle_dn(alpha, beta, n)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, f"5 random pairs: consecutive minors of I[6] positive through "
               f"4x4 and D_n = oracle exactly, n <= 4 ({elapsed:.2f}s)")


def test_criterion_2_rank_one_shift(random_pairs):
    for alpha, beta in random_pairs:
        I = compute_bimoments(alpha, beta, 6)
        res = rank_one_shift_residual(I, alpha, beta)
        assert len(res) == 5 and len(res[0]) == 5
        assert all(v == 0 for row in res for v in row)
    _report(2, "shift identity exactly zero on the 5x5 window, 5 pairs")


def test_criterion_3_biorthogonality(random_apps):
    for app in random_apps:
        fam = app.family
        for i in range(6):
            for j in range(6):
                assert pair(app.I, fam.p_monic[i], fam.q_monic[j]) == \
                    (fam.h[i] if i == j else 0)
        for n in range(5):
            p, q = determinantal_oracle(app.I, n)
            assert p == fam.p_monic[n] and q == fam.q_monic[n]
    _report(3, "<p_i|q_j> = h_i delta_ij exactly for i,j <= 5; "
               "determinantal oracle matches through n = 4")


def test_criterion_4_recurrence_structure(random_apps, random_pairs):
    for app, (alpha, beta) in zip(random_apps, random_pairs):
        assert app.A.band_violations() == []
        assert app.Ahat.band_violations() == []
        res = rank_one_XY_residual(app.X, app.Y, app.family)
        assert all(v == 0 for row in res for v in row)
        pts = rational_points_off([alpha, beta], 20)
        for n in range(1, 5):
            for pt in pts:
                rp, rq = four_term_residual(app.family, app.A, app.Bhat, n, pt)
                assert rp == 0 and rq == 0
    _report(4, "A in M[-1,2], Ahat in M[-2,1] exactly; four-term recurrences "
               "zero at 20 rational points, n <= 4; rank-one exact")


def test_criterion_5_zeros(app12):
    t0 = time.monotonic()
    for which in ("p", "q"):
        for n in range(1, 9):
            rep = zeros_of(app12, which, n)
            assert rep.all_positive and rep.inside_hull
            span = (rep.zeros[-1] - rep.zeros[0]) if n > 1 else 1.0
            if n > 1:
                assert rep.min_gap > 1e-10 * span
            assert rep.interlaced_with_previous
    for n in range(1, 5):
        for pt in (F(0), F(5, 7), F(-13, 3)):
            assert charpoly_identity_residual(app12, "p", n, pt) == 0
            assert charpoly_identity_residual(app12, "q", n, pt) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(5, f"zeros n <= 8 positive, simple, in hull, interlaced; "
               f"characteristic identity exact n <= 4 ({elapsed:.2f}s)")


def test_criterion_6_cd_identities(app6, six_atom_pair):
    pts = rational_points_off(six_atom_pair, 20)
    pairs = list(zip(pts[::2], pts[1::2]))
    assert len(pairs) == 10
    for n in (2, 3):
        assert verify_block_against_dense(app6, n, pts[0]) == 0
        assert verify_block_against_dense(app6, n, pts[1]) == 0
        for x, y in pairs:
            assert cd_residual_plain(app6, n, x, y) == 0
            assert cd_residual_hat(app6, n, x, y) == 0
    _report(6, "plain + hatted CD identities exactly zero, n in {2,3}, "
               "10 rational pairs; block commutator = dense commutator")


def test_criterion_7_pade_nikishin(app6, six_atom_pair):
    alpha, beta = six_atom_pair
    for z in rational_points_off([alpha, beta], 10):
        assert plucker_residual(app6, z) == 0
    for n in range(0, 5):
        assert order_check(pade_solve(app6, n, "q")).passed
        switched = pade_solve(app6, n, "switched")
        assert order_check(switched).passed
    _report(7, "product identity exact at 10 points; approximation orders "
               "exact through n = 4; switched problem solved by p_n(-z)")


def test_criterion_8_extended_cd_and_duality(app6):
    w, z = F(19, 4), F(22, 7)
    for n in (2, 3):
        aux = aux_vectors(app6, n, w, z)
        for a in range(3):
            for b in range(3):
                assert ecd_residual(app6, a, b, n, w, z, aux) == 0
    # duality_check == 0 at every n pins the pairing to the antidiagonal for
    # each n separately, which is the n-independence claim
    for n in (2, 3, 4):
        for a in range(3):
            for b in range(3):
                assert duality_check(app6, a, b, n, F(17, 3)) == 0
    _report(8, "extended CD exactly zero for all 9 windows, n in {2,3}; "
               "duality reproduces the antidiagonal exactly for n in {2,3,4}")


def test_criterion_9_rhp(app6, six_atom_pair, appd):
    t0 = time.monotonic()
    pts = rational_points_off(six_atom_pair, 5)
    for n in (2, 3):
        for w in pts:
            assert assemble_gamma(app6, n, w).determinant == 1
            assert assemble_gamma_hat(app6, n, w).determinant == 1
        cert = asymptotic_check(app6, n, "gamma")
        assert cert.passed and cert.diag_powers == (n, -1, -n + 1)
        cert_h = asymptotic_check(app6, n, "gamma_hat")
        assert cert_h.passed and cert_h.diag_powers == (n, 0, -n)
        c_sq, eta_sq = extract_constants(app6, n)
        assert c_sq == app6.family.h[n - 1]
        assert eta_sq == app6.family.eta_monic[n - 1] ** 2 / app6.family.h[n - 1]
    residuals, slope = jump_slope_study(appd, 2, 1.5, [1e-4, 1e-5, 1e-6])
    assert 0.5 <= slope <= 2.0
    assert residuals[0] > residuals[1] > residuals[2]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(9, f"det = 1 exactly at 5 rational points; asymptotic powers "
               f"exact; constants round-trip exactly; jump slope "
               f"{slope:.3f} in [0.5, 2] ({elapsed:.2f}s)")


def test_criterion_10_degenerate_handling():
    alpha = measure_from_strings([("1", "1")])
    beta = measure_from_strings([("2", "3")])
    I = compute_bimoments(alpha, beta, 2)
    D = I.leading_minors()
    assert D[1] == 0                              # clean zero, no crash
    cert = check_total_positivity(I, 2)
    assert not cert.passed                        # never a false TP pass
    assert cert.violation[3] == 0
    with pytest.raises(DegenerateMatrixError) as err:
        build_family(I, 1)
    assert err.value.order == 2
    assert "degenerate" in str(err.value)
    _report(10, "single-atom measures: D_2 = 0 with a clean degeneracy "
                "diagnostic; TP certificate reports the vanishing minor")

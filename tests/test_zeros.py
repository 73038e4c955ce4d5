from fractions import Fraction as F
from random import Random

import numpy as np
import pytest

from cauchybop import (OrderUnderflowError, build_apparatus,
                       charpoly_identity_residual, zeros_of)
from cauchybop.polys import peval

from .conftest import random_rational_measure


@pytest.fixture(scope="module")
def app12():
    rng = Random(1234)
    alpha = random_rational_measure(rng, 12)
    beta = random_rational_measure(rng, 12)
    return build_apparatus(alpha, beta, N=9)


def _coeffs(app, which, n):
    return (app.family.p_monic if which == "p" else app.family.q_monic)[n]


def companion_deviation(app, which, rep):
    """Largest distance between the reported zeros and the companion-matrix
    roots of the coefficient vector, relative to max(1, largest zero)."""
    coeffs = _coeffs(app, which, rep.degree)
    roots = np.sort(np.roots([float(c) for c in reversed(coeffs)]).real)
    zeros = np.array(rep.zeros)
    return float(np.max(np.abs(zeros - roots))) / max(1.0, np.max(np.abs(zeros)))


def residual_at_zeros(app, which, rep):
    """max |p_n(z)| over the reported zeros z, relative to
    max(1, largest zero) ** n."""
    coeffs = _coeffs(app, which, rep.degree)
    scale = max(1.0, max(abs(z) for z in rep.zeros))
    return max(abs(float(peval(coeffs, z))) for z in rep.zeros) \
        / scale ** rep.degree


def test_degree_zero_empty_report(app6):
    rep = zeros_of(app6, "p", 0)
    assert rep.zeros == () and rep.all_positive


def test_degree_one_zero_is_linear_root(two_atom_pair):
    app = build_apparatus(*two_atom_pair, N=1)
    rep = zeros_of(app, "p", 1)
    assert abs(rep.zeros[0] - 109 / 77) < 1e-14
    assert rep.all_positive and rep.inside_hull


def test_zeros_positive_simple_in_hull(app12):
    for which in ("p", "q"):
        for n in range(1, 9):
            rep = zeros_of(app12, which, n)
            assert len(rep.zeros) == n
            assert rep.all_positive
            assert rep.inside_hull
            assert not rep.numerically_coincident
            span = rep.zeros[-1] - rep.zeros[0] if n > 1 else 1.0
            if n > 1:
                assert rep.min_gap > 1e-10 * span
            assert companion_deviation(app12, which, rep) < 1e-8


def strictly_interlaced(zn, zp):
    """z1(n) < z1(n-1) < z2(n) < ... < z_{n-1}(n-1) < zn(n), read off the
    sorted zeros of consecutive degrees."""
    chain = [z for pair in zip(zn, zp) for z in pair] + [zn[-1]]
    return all(a < b for a, b in zip(chain, chain[1:]))


def test_interlacing_all_consecutive_degrees(app12):
    for which in ("p", "q"):
        reports = [zeros_of(app12, which, n) for n in range(1, 9)]
        for k in range(1, len(reports)):
            assert strictly_interlaced(reports[k].zeros, reports[k - 1].zeros)
            assert reports[k].interlaced_with_previous


def test_interlacing_vacuous_for_degree_one(app12):
    assert zeros_of(app12, "p", 1).interlaced_with_previous is True
    assert zeros_of(app12, "p", 0).interlaced_with_previous is None


def test_charpoly_identity_exact(app6):
    pts = [F(0), F(1, 3), F(-7, 2), F(22, 7)]
    for which in ("p", "q"):
        for n in range(1, 6):
            for pt in pts:
                assert charpoly_identity_residual(app6, which, n, pt) == 0


def test_charpoly_identity_degree_one_at_zero(two_atom_pair):
    app = build_apparatus(*two_atom_pair, N=1)
    # p_1(0) = -109/77 = -X[0][0]
    assert charpoly_identity_residual(app, "p", 1, F(0)) == 0
    assert app.X[0, 0] == F(109, 77)


def test_charpoly_identity_float(app12):
    for n in (2, 5, 8):
        res = charpoly_identity_residual(app12, "p", n, 1.25)
        scale = max(1.0, abs(peval([float(c) for c in app12.family.p_monic[n]],
                                   1.25)))
        assert abs(res) < 1e-8 * scale


def test_residual_at_computed_zero_small(app12):
    rep = zeros_of(app12, "p", 6)
    assert residual_at_zeros(app12, "p", rep) < 1e-8


def certify_sign_changes(app, which, n):
    """Rigorous count of n positive simple zeros by exact sign evaluation.

    Rational test points are placed between consecutive float zeros (and
    at 0 and past the hull); the monic polynomial must alternate in sign
    across the n+1 points, which certifies n distinct positive roots.
    Exact data only.
    """
    assert app.exact, "rigorous certification requires exact data"
    zs = zeros_of(app, which, n).zeros
    coeffs = _coeffs(app, which, n)
    hi = max(float(max((app.alpha if which == "p" else app.beta)
                       .positions())), zs[-1] if zs else 1.0)
    points = [F(0)]
    for k in range(len(zs) - 1):
        points.append(F((zs[k] + zs[k + 1]) / 2).limit_denominator(10 ** 9))
    points.append(F(int(hi) + 1))
    signs = []
    for t in points:
        v = peval(coeffs, t)
        if v == 0:
            return False   # landed on a root: refuse rather than guess
        signs.append(1 if v > 0 else -1)
    return all(signs[k] != signs[k + 1] for k in range(len(signs) - 1))


def test_rigorous_sign_change_certificate(app12):
    for n in (2, 5, 8):
        assert certify_sign_changes(app12, "p", n)
        assert certify_sign_changes(app12, "q", n)


def test_window_errors(app6):
    with pytest.raises(OrderUnderflowError):
        zeros_of(app6, "p", app6.N + 1)
    with pytest.raises(OrderUnderflowError):
        charpoly_identity_residual(app6, "p", 0, F(1))

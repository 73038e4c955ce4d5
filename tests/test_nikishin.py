import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from functools import partial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchybop import (Atom, DiscreteMeasure, MarkovFunction,
                       PoleEvaluationError, PowerTail, aux_vectors,
                       build_apparatus, duality_check, ecd_hat_residual,
                       ecd_residual, f_hat_matrix, markov,
                       measure_from_strings, order_check, pade_solve,
                       pair, plucker_residual, polynomial_part)
from cauchybop.cdkernel import _cd_residual
from cauchybop.measure import power_sums
from cauchybop.nikishin import _CHAINS
from cauchybop.polys import peval
from cauchybop.recurrence import build_hatted
from cauchybop.transforms import (MARKOV_TAGS, PointBackend, SeriesBackend,
                                  aux_columns, f_matrix, hatted_combination)

from .conftest import (random_rational_measure, rational_points_off,
                       term_by_term_power_sums)


# -- Markov functions -------------------------------------------------------------


def test_single_atom_pointwise():
    alpha = measure_from_strings([("2", "1")])
    beta = measure_from_strings([("1", "1")])
    w = markov(alpha, beta, "W_beta")
    assert w(F(-1)) == F(-1, 2)


def test_series_first_coefficient_is_mass(six_atom_pair):
    alpha, beta = six_atom_pair
    w = markov(alpha, beta, "W_beta")
    assert w.series(3).coeff(-1) == power_sums(beta.positions(),
                                               beta.weights(), 1)[0]
    ws = markov(alpha, beta, "W_alpha_star")
    a = power_sums(alpha.positions(), alpha.weights(), 3)
    assert ws.series(4).coeff(-3) == a[2]
    assert ws.series(4).coeff(-2) == -a[1]


def test_folded_series_leading_is_bimoment(two_atom_pair):
    alpha, beta = two_atom_pair
    w = markov(alpha, beta, "W_alpha_star_beta")
    assert w.series(2).coeff(-1) == -F(77, 60)
    w2 = markov(alpha, beta, "W_beta_alpha_star")
    assert w2.series(2).coeff(-1) == F(77, 60)


def test_pointwise_matches_series_partial_sums(six_atom_pair):
    alpha, beta = six_atom_pair
    for tag in MARKOV_TAGS:
        w = markov(alpha, beta, tag)
        radius = max(abs(float(t)) for t in w.points)
        z = F(10) * F(int(radius) + 1)
        depth = 18
        moms = w.moments(depth + 1)
        partial = sum(moms[j] * z ** (-j - 1) for j in range(depth))
        first_omitted = abs(moms[depth] * z ** (-depth - 1))
        assert abs(w(z) - partial) <= 2 * first_omitted


def test_moments_match_moment_exactly(six_atom_pair):
    alpha, beta = six_atom_pair
    for tag in MARKOV_TAGS:
        w = markov(alpha, beta, tag)
        # oracle: the plain power sums, one Fraction operation at a time
        for depth in (0, 1, 5, 9):
            assert w.moments(depth) == [
                sum(m * t ** j for t, m in zip(w.points, w.masses))
                for j in range(depth)]


#: swapping the two measures of the pair swaps alpha and beta in every tag
MIRROR = {"W_alpha": "W_beta", "W_alpha_star": "W_beta_star",
          "W_alpha_beta_star": "W_beta_alpha_star",
          "W_alpha_star_beta": "W_beta_star_alpha"}
MIRROR.update({v: k for k, v in MIRROR.items()})


@pytest.mark.parametrize("tag", MARKOV_TAGS)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_markov_mirror_swaps_the_measures(six_atom_pair, tag, exact):
    alpha, beta = six_atom_pair if exact else (
        DiscreteMeasure(tuple(Atom(float(a.position), float(a.weight))
                              for a in m.atoms)) for m in six_atom_pair)
    w, mirror = markov(alpha, beta, tag), markov(beta, alpha, MIRROR[tag])
    assert w.points == mirror.points
    assert w.masses == mirror.masses


def test_markov_is_built_once_per_pair_and_lane(two_atom_pair):
    # the float copy of these dyadic atoms compares and hashes equal to the
    # rational pair, yet its apparatus must hold float transforms of its own
    flt = tuple(DiscreteMeasure(tuple(Atom(float(a.position), float(a.weight))
                                      for a in m.atoms))
                for m in two_atom_pair)
    assert flt == two_atom_pair
    app, app_flt = (build_apparatus(*ms, N=1) for ms in (two_atom_pair, flt))
    for tag in MARKOV_TAGS:
        w = app.markov[tag]
        assert app.markov[tag] is w
        assert w == markov(*two_atom_pair, tag)
        assert all(type(m) is F for m in w.masses)
        assert all(type(m) is float for m in app_flt.markov[tag].masses)


def test_pole_evaluation_raises(six_atom_pair):
    alpha, beta = six_atom_pair
    w = markov(alpha, beta, "W_beta")
    with pytest.raises(PoleEvaluationError):
        w(beta.positions()[0])


def test_unknown_tag_rejected(six_atom_pair):
    with pytest.raises(ValueError):
        markov(*six_atom_pair, "W_gamma")


def test_plucker_exact_at_rational_points(app6, six_atom_pair):
    for z in rational_points_off(six_atom_pair, 10):
        assert plucker_residual(app6, z) == 0


def test_plucker_swapped_family(six_atom_pair):
    alpha, beta = six_atom_pair
    app = build_apparatus(beta, alpha, N=5)
    for z in rational_points_off([alpha, beta], 3):
        assert plucker_residual(app, z) == 0


def test_plucker_float_point(app6):
    assert abs(plucker_residual(app6, 1j)) < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_plucker_random_measures(seed):
    rng = Random(seed)
    alpha = random_rational_measure(rng, rng.randint(1, 3))
    beta = random_rational_measure(rng, rng.randint(1, 3))
    z = F(200, 3)
    app = build_apparatus(alpha, beta, N=min(len(alpha), len(beta)) - 1)
    assert plucker_residual(app, z) == 0


# -- simultaneous approximation ----------------------------------------------------


def test_pade_degree_one_polynomial_part(two_atom_pair):
    alpha, beta = two_atom_pair
    app = build_apparatus(alpha, beta, N=1)
    sol = pade_solve(app, 1, "q")
    # monic Q of degree 1: divided difference against beta is the mass
    assert sol.P1 == (power_sums(beta.positions(), beta.weights(), 1)[0],) \
        == (F(2),)


def test_pade_remainder_series_leading(two_atom_pair):
    alpha, beta = two_atom_pair
    app = build_apparatus(alpha, beta, N=1)
    sol = pade_solve(app, 1, "q")
    # R_1(z) = int q_1(y)/(z-y) db: leading coefficient is the monic average
    assert sol.R1.series(1).coeff(-1) == F(46, 77)


def test_order_conditions_q_problem(app6):
    for n in range(0, 6):
        cert = order_check(pade_solve(app6, n, "q"))
        assert cert.passed, cert.checks


def test_order_conditions_p_problem(app6):
    for n in range(0, 6):
        assert order_check(pade_solve(app6, n, "p")).passed


def test_order_conditions_switched_problem(app6):
    # Q(z) = p_n(-z) against the original chain
    for n in range(0, 6):
        sol = pade_solve(app6, n, "switched")
        assert sol.Q[-1] == (-1) ** sol.n or sol.n == 0
        assert order_check(sol).passed


def test_third_condition_is_biorthogonality(app6):
    # the z^-1..z^-n coefficients of R3 are kernel-weighted power pairings
    sol = pade_solve(app6, 3, "q")
    moms = sol.R3.moments(4)
    assert moms[:3] == [0, 0, 0]
    assert moms[3] != 0


def test_vacuous_order_zero(app6):
    assert order_check(pade_solve(app6, 0, "q")).passed


# -- the remainders against direct weighting ---------------------------------------


def direct_remainders(app, sol):
    """R1, R2, R3 by direct weighting: the chain's F1 and F2 weighted by
    Q, and its G1 weighted by that R1."""
    F1, F2, G1 = (app.markov[t] for t in _CHAINS[sol.problem][:3])
    R1 = F1.weighted(partial(peval, sol.Q), "R1")
    return R1, F2.weighted(partial(peval, sol.Q), "R2"), G1.weighted(R1, "R3")


def assert_remainders_match_direct_weighting(app, problems):
    for problem in problems:
        for n in range(app.N + 1):
            sol = pade_solve(app, n, problem)
            for got, want in zip((sol.R1, sol.R2, sol.R3),
                                 direct_remainders(app, sol)):
                assert (got.points, got.masses) == (want.points, want.masses)


def assert_hatted_combination_matches_horner(app, points):
    fam, hat = app.family, build_hatted(app.family)
    es = [fam.eta_star(k) for k in range(app.N + 1)]
    for s in points:
        p_values = [peval(fam.p_monic[k], s) for k in range(app.N + 1)]
        q_values = [peval(fam.q_star(k), s) for k in range(app.N + 1)]
        assert hatted_combination("p", es, p_values) == \
            tuple(peval(c, s) for c in hat.p_hat)
        assert hatted_combination("q", es, q_values) == \
            tuple(peval(c, s) for c in hat.q_hat)


def test_remainders_match_direct_weighting(app6, six_atom_pair):
    assert_remainders_match_direct_weighting(app6, ("q", "p", "switched"))
    assert_hatted_combination_matches_horner(
        app6, rational_points_off(six_atom_pair, 6))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 8), st.integers(1, 8))
def test_remainders_match_direct_weighting_random_pairs(seed, a, b):
    rng = Random(seed)
    alpha = random_rational_measure(rng, a)
    beta = random_rational_measure(rng, b)
    app = build_apparatus(alpha, beta, N=min(a, b) - 1)
    assert_remainders_match_direct_weighting(app, ("q", "p", "switched"))
    assert_hatted_combination_matches_horner(
        app, rational_points_off([alpha, beta], 3))


def test_float_remainders_of_p_and_switched_match_bit_for_bit(six_atom_pair):
    # side "p" as it is, or reflected by exact negations: no bit moves
    app = build_apparatus(
        *(DiscreteMeasure(tuple(Atom(float(a.position), float(a.weight))
                                for a in m.atoms)) for m in six_atom_pair),
        N=5)
    assert_remainders_match_direct_weighting(app, ("p", "switched"))


def test_polynomial_part_helper(six_atom_pair):
    alpha, beta = six_atom_pair
    w = markov(alpha, beta, "W_beta")
    Q = (F(1), F(2), F(1))          # 1 + 2z + z^2
    moms = w.moments(2)
    P = polynomial_part(Q, moms)
    # P_i = sum_{k>i} Q_k mom_{k-1-i}
    assert P[1] == moms[0]
    assert P[0] == 2 * moms[0] + moms[1]


# -- auxiliary vectors and extended identities --------------------------------------


@pytest.fixture(scope="module")
def aux23(app6, six_atom_pair):
    w, z = F(19, 4), F(22, 7)
    return {n: aux_vectors(app6, n, w, z) for n in (2, 3)}, (F(19, 4), F(22, 7))


def test_q1_asymptotics_float(app6):
    # w q_1[n](w) -> eta*_n as w -> infinity (rescaled frame)
    w = 1e6
    aux = aux_vectors(app6, 3, w, F(1, 2))
    for n in range(4):
        lim = float(app6.family.eta_star(n))
        assert abs(float(w * aux.q[1][n]) - lim) / abs(lim) < 1e-4


def test_phat1_limit_is_minus_one(app6):
    aux = aux_vectors(app6, 3, F(3, 2), 1e7)
    for n in range(4):
        assert abs(float(aux.phat[1][n]) + 1.0) < 1e-4


def verify_phat1_both_ways(app, n, z):
    """The two constructions of phat-aux-1 agree: the running-sum form and
    forward substitution applied to p1 + <p|1>/beta_0 (the constant vector
    collapses to -1 in every component).  Returns the maximum componentwise
    difference, exact 0 on exact data."""
    p_all, phat = aux_columns(app, "p", n + 1, PointBackend(z))
    beta0 = power_sums(app.beta.positions(), app.beta.weights(), 1)[0]
    fam = app.family
    v = [p_all[1][k] + pair(app.I, fam.p_monic[k], (1,)) / beta0
         for k in range(n + 2)]
    acc = 0
    worst = 0
    for j in range(n + 2):
        acc += fam.eta_star(j) * v[j]
        worst = max(worst, abs(phat[1][j] - (-acc)))
    return worst


def test_phat1_both_constructions_agree(app6):
    assert verify_phat1_both_ways(app6, 3, F(17, 3)) == 0


def test_qhat_aux_reproduces_zero_average(app6):
    # int qhat_j db = 0 reappears as the w->infinity limit of the first
    # transform: w * qhat[1][j](w) -> 0
    w = 10 ** 8
    aux = aux_vectors(app6, 2, w, F(1, 2))
    for j in range(2):
        assert abs(float(w * aux.qhat[1][j])) < 1e-4


@pytest.mark.parametrize("n", [2, 3])
def test_extended_cd_all_windows_exact(app6, aux23, n):
    auxmap, (w, z) = aux23
    for a in range(3):
        for b in range(3):
            assert ecd_residual(app6, a, b, n, w, z, auxmap[n]) == 0


def test_extended_cd_many_points(app6, six_atom_pair):
    pts = rational_points_off(six_atom_pair, 10)
    for w, z in zip(pts[::2], pts[1::2]):
        assert ecd_residual(app6, 2, 2, 3, w, z) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_extended_cd_hatted_derived_exact(app6, aux23, n):
    auxmap, (w, z) = aux23
    for a in range(3):
        for b in range(3):
            assert ecd_hat_residual(app6, a, b, n, w, z, auxmap[n]) == 0


def test_transcription_diagnostic_pins_defective_entries(app6, aux23):
    # the customary transcription of the hatted correction matrix is the
    # derived one with two defects: W_beta(z) for W_beta(w) at (1,1) and
    # 1 for 0 at (2,0); it fails there and nowhere else
    auxmap, (w, z) = aux23
    aux = auxmap[3]
    W_b = app6.markov["W_beta"]
    scale = (w + z) / power_sums(app6.beta.positions(), app6.beta.weights(),
                               1)[0]
    literal = [list(row) for row in f_hat_matrix(app6, w, z)]
    literal[1][1] -= scale * (W_b(z) - W_b(w))
    literal[2][0] -= scale
    for a in range(3):
        for b in range(3):
            residual = _cd_residual(app6, 3, w + z, aux.qhat[a], aux.phat[b],
                                    aux.q[a], aux.phat[b], z, literal[a][b])
            assert (residual != 0) == ((a, b) in ((1, 1), (2, 0)))


def test_f_hat_is_a_rank_one_update_of_f(app6, six_atom_pair):
    # FF - FFhat = (w+z)/beta_0 u v^T, u = (1, W_beta(w), W_alpha_star_beta(w))
    # and v = (0, 1, W_beta_star(z)), entry for entry
    W = app6.markov
    beta_0 = power_sums(app6.beta.positions(), app6.beta.weights(), 1)[0]
    pts = rational_points_off(six_atom_pair, 4)
    for w, z in ((pts[0], pts[3]), (pts[1], pts[2])):
        u = (1, W["W_beta"](w), W["W_alpha_star_beta"](w))
        v = (0, 1, W["W_beta_star"](z))
        F_, Fhat = f_matrix(app6, w, z), f_hat_matrix(app6, w, z)
        for i in range(3):
            for j in range(3):
                assert F_[i][j] - Fhat[i][j] == (w + z) / beta_0 * u[i] * v[j]


def lemma_constructive_residuals(app, n, w, z):
    """The constructive identities behind the hatted extended CD relations,
    checked on the uncorrupted window.  Returns the worst residual.

    q-side, entries j < n:  w qhat_a[j](w) + sum_i q_a[i](w) Ahat[i][j]
    equals 0 for a = 0, 1 and -<1|qhat_j> for a = 2.

    p-side, entries j <= n:  ((z - X) Lhat phat_b(z))[j] equals 0 for
    b = 0; <p_j|z + y>/beta_0 for b = 1; and
    -<p_j|1> + <p_j|z + y> W_beta_star(z)/beta_0 for b = 2.  Applying Lhat
    to the hatted aux vectors returns the plain ones except in row 0, where
    the subtracted constants (1, resp. W_beta_star(z)) resurface.
    """
    aux = aux_vectors(app, n, w, z)
    fam = app.family
    beta0 = power_sums(app.beta.positions(), app.beta.weights(), 1)[0]
    wbs = markov(app.alpha, app.beta, "W_beta_star")(z)
    worst = 0
    for a in range(3):
        for j in range(n):
            acc = w * aux.qhat[a][j]
            for i in range(max(0, j - 1), j + 3):
                acc += aux.q[a][i] * app.Ahat[i, j]
            if a == 2:
                acc += pair(app.I, (1,), app.hatted.q_hat[j])
            worst = max(worst, abs(acc))
    for b in range(3):
        lhp = list(aux.p[b][: n + 2])
        if b == 1:
            lhp[0] += 1 / fam.eta_star(0)
        elif b == 2:
            lhp[0] += wbs / fam.eta_star(0)
        for j in range(n + 1):
            acc = z * lhp[j] - sum(app.X[j, k] * lhp[k] for k in range(j + 2))
            if b == 0:
                rhs = 0
            else:
                zy = (z * pair(app.I, fam.p_monic[j], (1,))
                      + pair(app.I, fam.p_monic[j], (0, 1)))
                rhs = zy / beta0 if b == 1 else \
                    -pair(app.I, fam.p_monic[j], (1,)) + zy * wbs / beta0
            worst = max(worst, abs(acc - rhs))
    return worst


def test_lemma_constructive_identities(app6):
    assert lemma_constructive_residuals(app6, 3, F(19, 4), F(22, 7)) == 0
    assert lemma_constructive_residuals(app6, 2, F(-11, 3), F(9, 8)) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_perfect_duality_antidiagonal(app6, n):
    J = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    for z in (F(17, 3), F(9, 7)):
        for a in range(3):
            for b in range(3):
                assert duality_check(app6, a, b, n, z) == 0
                # i.e. the pairing itself equals J[a][b]


def test_duality_independent_of_degree_and_point(app6):
    # the pairing value is the same constant for every admissible (n, z)
    vals = {duality_check(app6, 0, 2, n, z)
            for n in (2, 3, 4) for z in (F(17, 3), F(-31, 8))}
    assert vals == {0}


@pytest.mark.parametrize("exact", [True, False])
def test_duality_with_shared_aux_matches_own_aux(app6, six_atom_pair, exact):
    # float atoms give nonzero residuals, so equality is not vacuous there
    app = app6 if exact else build_apparatus(
        *(DiscreteMeasure(tuple(Atom(float(a.position), float(a.weight))
                                for a in m.atoms)) for m in six_atom_pair),
        N=5)
    z = F(17, 3) if exact else 17 / 3
    for n in (2, 3, 4):
        shared = aux_vectors(app, n, -z, z)
        for a in range(3):
            for b in range(3):
                assert duality_check(app, a, b, n, z, shared) == \
                    duality_check(app, a, b, n, z)


def test_aux_pole_detection(app6):
    y0 = app6.beta.positions()[0]
    with pytest.raises(PoleEvaluationError):
        aux_vectors(app6, 2, y0, F(1, 2))


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_extended_cd_and_duality_random_measures(seed):
    # the identity catalogue is not tuned to any fixture: rebuild it on
    # random rational measures and demand exact zeros again
    rng = Random(seed)
    alpha = random_rational_measure(rng, 4)
    beta = random_rational_measure(rng, 4)
    app = build_apparatus(alpha, beta, N=3)
    pts = rational_points_off([alpha, beta], 2)
    w, z = pts[0], pts[1]
    aux = aux_vectors(app, 2, w, z)
    for a in range(3):
        for b in range(3):
            assert ecd_residual(app, a, b, 2, w, z, aux) == 0
            assert ecd_hat_residual(app, a, b, 2, w, z, aux) == 0
            assert duality_check(app, a, b, 2, pts[0]) == 0


# -- fast paths against the routes they replaced ----------------------------------


def running_power_moments(points, masses, depth):
    """Moment stream by one pass per atom with running powers, in the
    arithmetic of the data."""
    out = [0] * depth
    for t, m in zip(points, masses):
        for j in range(depth):
            out[j] += m
            m *= t
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
    st.fractions(min_value=-9, max_value=9, max_denominator=30)),
    min_size=1, max_size=6), st.integers(0, 12))
def test_integer_moment_stream_matches_fraction_loop(atoms, depth):
    points, masses = (tuple(v) for v in zip(*atoms))
    moms = MarkovFunction("m", points, masses).moments(depth)
    assert moms == running_power_moments(points, masses, depth)
    assert all(type(m) is F for m in moms)
    # float data sums w * t**j term by term, bit for bit
    fp, fm = tuple(map(float, points)), tuple(map(float, masses))
    assert MarkovFunction("m", fp, fm).moments(depth) == \
        term_by_term_power_sums(fp, fm, depth)


def per_call_columns(app, side, top, evaluate):
    """Transform columns of aux_columns by the per-call route: each degree's
    transforms rebuilt from the measures (the second with its atoms placed
    at -t, weighted by the first there), then evaluated."""
    fam = app.family
    first, second = (app.beta, app.alpha) if side == "q" else (app.alpha,
                                                                app.beta)
    polys = ([fam.q_star(j) for j in range(top + 1)] if side == "q"
             else fam.p_monic[: top + 1])
    cols = ([], [])
    for P in polys:
        inner = MarkovFunction("inner", first.positions(), tuple(
            w * peval(P, t) for t, w in zip(first.positions(),
                                            first.weights())))
        ts = tuple(-t for t in second.positions())
        outer = MarkovFunction("outer", ts, tuple(
            w * inner(t) for t, w in zip(ts, second.weights())))
        cols[0].append(evaluate(inner))
        cols[1].append(evaluate(outer))
    return tuple(map(tuple, cols))


@pytest.mark.parametrize("side", "qp")
@pytest.mark.parametrize("backend", [PointBackend(F(19, 4)),
                                     SeriesBackend(8)], ids=["point", "series"])
def test_aux_columns_read_in_steps_match_one_read(six_atom_pair, side,
                                                  backend):
    # degrees 0..2 built by the first read, 3..5 by the second: the same
    # columns as a fresh apparatus that builds 0..5 at once
    stepped = build_apparatus(*six_atom_pair, N=5)
    aux_columns(stepped, side, 2, backend)
    fresh = build_apparatus(*six_atom_pair, N=5)
    assert aux_columns(stepped, side, 5, backend) == \
        aux_columns(fresh, side, 5, backend)
    assert sorted(stepped.aux) == sorted(fresh.aux) == [
        (side, j) for j in range(6)]


def test_aux_columns_shared_across_threads(six_atom_pair):
    # threads race to build the same degrees of one apparatus; a race only
    # builds an equal entry twice, so every read sees the one-thread columns
    point = PointBackend(F(19, 4))
    reference = aux_columns(build_apparatus(*six_atom_pair, N=5), "q", 5,
                            point)
    app = build_apparatus(*six_atom_pair, N=5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(aux_columns, app, "q", 5, point)
                       for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [reference] * 8
    assert sorted(app.aux) == [("q", j) for j in range(6)]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from("qp"), st.data())
def test_cached_aux_columns_match_per_call_route(seed, side, data):
    rng = Random(seed)
    alpha = random_rational_measure(rng, rng.randint(3, 5))
    beta = random_rational_measure(rng, rng.randint(3, 5))
    app = build_apparatus(alpha, beta, N=min(len(alpha), len(beta)) - 1)
    top = data.draw(st.integers(0, app.N))
    poles = {t for m in (alpha, beta) for t in m.positions()}
    s = data.draw(st.fractions(min_value=-70, max_value=70,
                               max_denominator=20).filter(
        lambda v: v not in poles and -v not in poles))
    cols, _ = aux_columns(app, side, top, PointBackend(s))
    assert cols[1:] == per_call_columns(app, side, top, lambda f: f(s))
    depth = data.draw(st.integers(1, 10))
    cols, _ = aux_columns(app, side, top, SeriesBackend(depth))
    assert cols[1:] == per_call_columns(
        app, side, top, lambda f: PowerTail.from_moment_stream(
            running_power_moments(f.points, f.masses, depth)))

"""The verify engine's six invariant suites.

A suite is ``suite(runner, apparatus, kmax or None, eps ladder)``; it hands
each computation to the runner (``checks.Runner``), which times it and
judges what it returns.  :data:`SUITES` maps the names ``cauchybop verify
--suite`` takes to them, in the order ``--suite all`` runs them.

Every degree range comes from one rule, ``checks._windows``, through the
apparatus's one degree cap (``app.cap``, N - 1 when exact), and every
residual is judged by ``bundle.tolerance`` at the highest degree it reads.
The checks a suite shares with a subcommand of ``cli`` are in ``checks``.
"""

from __future__ import annotations

from dataclasses import replace

from .bimoment import oracle_dn
from .bundle import Apparatus
from .cdkernel import (cd_residual_hat, cd_residual_plain,
                       verify_block_against_dense)
from .checks import (Runner, _sample_points, _windows, check_jump_slope,
                     check_shift, check_unit_dets, tp_certificate)
from .nikishin import (aux_vectors, duality_check, ecd_hat_residual,
                       ecd_residual, f_hat_matrix, f_matrix, order_check,
                       pade_solve, plucker_residual)
from .recurrence import (four_term_residual, rank_one_XY_residual,
                         tn_oscillatory_certificate)
from .rhp import asymptotic_check, extract_constants, series_at_infinity


# -- the suites ----------------------------------------------------------------------


def _suite_tp(r: Runner, app: Apparatus, kmax, eps_list):
    label = ("consecutive minors positive" if app.exact
             else "no negative consecutive minor")
    # by Cauchy-Binet, minors past the smaller atom count m vanish
    m = min(len(app.alpha), len(app.beta))
    k = min(kmax or 6, m, app.I.order)  # a new default renames a pinned check
    r.run(f"{label} through {k}x{k}", lambda: tp_certificate(app.I, k).passed)
    D = app.I.leading_minors()
    # the tuple-sum oracle forms one n x n Hankel determinant per alpha
    # n-tuple, C(atoms, n) of them: too many past 16 atoms or past D_4
    many = max(len(app.alpha), len(app.beta)) > 16
    for n in range(1, min(4, m, len(D)) + 1):
        name = f"leading minor D_{n} equals tuple-sum oracle"
        why = ("more than 16 atoms" if many else "below the double range"
               if not app.exact and D[n - 1] == 0 else None)
        if why:
            r.skip(name, why)
            continue
        # relative in the input's arithmetic: an exact D_n may lie below
        # the double range, so only the residual is converted
        r.run(name, lambda: float(abs(D[n - 1] - oracle_dn(
            app.alpha, app.beta, n)) / abs(D[n - 1])), n)
    check_shift(r, app.I, app.alpha, app.beta)


def _suite_recurrence(r: Runner, app: Apparatus, kmax, eps_list):
    win = app.cap + 2

    def rank_one():
        res = rank_one_XY_residual(app.X, app.Y, app.family)
        return max(0, *(abs(res[i][j])
                        / max(1, abs(app.X[i, j]), abs(app.Y[j, i]))
                        for i in range(win) for j in range(win)))
    r.run(f"rank-one identity X + Y^T = pi eta^T (window {win})", rank_one,
          win)
    scale = max(abs(v) for row in app.X.entries[:win] for v in row[:win])
    where = "" if app.exact else f" (window {win})"

    def window(op):
        return replace(op, valid_rows=min(win, op.valid_rows),
                       valid_cols=min(win, op.valid_cols))
    for op, band in ((app.A, "A in [-1,2]"), (app.Ahat, "Ahat in [-2,1]")):
        r.run(f"band support {band}{where}",
              lambda: max((abs(v) for *_, v in window(op).band_violations()),
                          default=0) / scale, win)
    pts = _sample_points([app.alpha, app.beta], 5)
    Bhat = app.Bhat
    for n in _windows(r, app, 1, "four-term recurrence residual, degree {}"):
        r.run(f"four-term recurrence residual, degree {n}",
              lambda: max(0, *(v for pt in pts for v in four_term_residual(
                  app.family, app.A, Bhat, n, pt))), n + 2)
    # Neville's zero threshold, not a residual: set by the tolerance rule it
    # would zero real entries of X and fail valid input
    zero = 0.0 if app.exact else 1e-8 * float(scale)
    r.run("X totally nonnegative + oscillatory",
          lambda: tn_oscillatory_certificate(window(app.X), zero).oscillatory)


def _suite_cdi(r: Runner, app: Apparatus, kmax, eps_list):
    pts = _sample_points([app.alpha, app.beta], 6)
    # not (x, -x): at x + y = 0 both sides vanish, and a float residual is
    # then the window's rounding noise measured against 1
    pairs = list(zip(pts[:3], pts[3:]))
    for n in _windows(r, app, 2, "CD identities, n={}"):
        r.run(f"commutator block equals dense commutator, n={n}",
              lambda: verify_block_against_dense(app, n, pts[0]), n + 2)
        r.run(f"plain CD identity residual, n={n}",
              lambda: max(cd_residual_plain(app, n, x, y)
                          for x, y in pairs), n + 2)
        r.run(f"hatted CD identity residual, n={n}",
              lambda: max(cd_residual_hat(app, n, x, y)
                          for x, y in pairs), n + 2)


def _suite_pade(r: Runner, app: Apparatus, kmax, eps_list):
    pts = _sample_points([app.alpha, app.beta], 10)
    r.run("product identity of the two Nikishin chains",
          lambda: max(plucker_residual(app, z) for z in pts))
    for problem in ("q", "p", "switched"):
        name = f"approximation orders, problem={problem}, n={{}}"
        for n in _windows(r, app, 0, name, reach=0):
            r.run(name.format(n), lambda: order_check(
                pade_solve(app, n, problem)).residual, n)


def _suite_duality(r: Runner, app: Apparatus, kmax, eps_list):
    """Both extended CD identities and the duality pairing at each window
    of _windows, from F, Fhat and aux vectors formed once, at the first."""
    pts = _sample_points([app.alpha, app.beta], 4)
    w, z = pts[0], pts[3]     # not antipodal, as in _suite_cdi
    F = Fhat = pairing = None
    for n in _windows(r, app, 2, "extended CD, n={}"):
        if F is None:       # through degree cap + 1, read by every window
            aux = aux_vectors(app, app.cap, w, z)
            F, Fhat = f_matrix(app, w, z), f_hat_matrix(app, w, z)
        for label, residual, C in (("", ecd_residual, F),
                                   ("hatted ", ecd_hat_residual, Fhat)):
            r.run(f"{label}extended CD residual, all 9 windows, n={n}",
                  lambda: max(residual(app, a, b, n, w, z, aux, C)
                              for a in range(3) for b in range(3)), n + 2)
    for n in _windows(r, app, 2, "perfect duality pairing, n={}"):
        pairing = pairing or aux_vectors(app, app.cap, -pts[2], pts[2])
        r.run(f"perfect duality pairing, n={n}",
              lambda: max(duality_check(app, a, b, n, pts[2], pairing)
                          for a in range(3) for b in range(3)), n + 2)


def _suite_rhp(r: Runner, app: Apparatus, kmax, eps_list):
    pts = _sample_points([app.alpha, app.beta], 3)
    n = min(3, app.N - 1, app.cap + 1)  # the check names carry no level
    for w in pts:
        check_unit_dets(r, app, n, w)
    grids = {}      # which -> its expansion at infinity, built once

    def asymptotic(which):
        grids[which] = series_at_infinity(app, n, which)
        return asymptotic_check(app, n, which, grids[which]).residual
    for which, label in (("gamma", "Gamma"), ("gamma_hat", "Gammahat")):
        r.run(f"asymptotic powers of {label}", lambda: asymptotic(which), n)
    h = app.family.h[n - 1]
    eta_sq = None

    def recovered_c():
        nonlocal eta_sq
        c_sq, eta_sq = extract_constants(app, n, grids["gamma"])
        return (c_sq - h) / h
    r.run("recovered c^2 matches family norm", recovered_c, n)
    eta_ref = app.family.eta_monic[n - 1] ** 2 / h
    r.run("recovered eta^2 matches family average",
          lambda: (eta_sq - eta_ref) / eta_ref, n)
    # the jump study needs a density on both sides, so float input
    if app.alpha_density is not None and app.beta_density is not None:
        check_jump_slope(r, app, n, eps_list)


#: name -> suite(runner, apparatus, kmax or None, eps ladder)
SUITES = {"tp": _suite_tp, "recurrence": _suite_recurrence, "cdi": _suite_cdi,
          "pade": _suite_pade, "duality": _suite_duality, "rhp": _suite_rhp}

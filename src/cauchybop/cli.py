"""Command-line front end.

One binary, subcommand style:

    cauchybop bimoments  spec.json -N 6 --kmax 4
    cauchybop verify     spec.json -N 5 --suite all --mode exact
    cauchybop bop        spec.json -n 3
    cauchybop zeros      spec.json -n 4
    cauchybop recurrence spec.json -N 5
    cauchybop rhp        spec.json -n 2 --point 10

The measure spec is a JSON document with keys "alpha" and "beta", each

    {"type": "discrete", "atoms": [{"x": "<decimal>", "w": "<decimal>"}, ...]}

or

    {"type": "density", "support": [a, b],
     "potential": {"coeffs": [...], "hbar": 1.0},
     "quadrature": {"rule": "gauss-legendre", "order": 64}}

Gauss-Legendre is the only quadrature rule.  Positions and weights are
decimal strings parsed to exact rationals, so exact-mode results are
reproducible bit for bit.  Every subcommand prints one JSON document;
rationals are emitted as "p/q" strings and floats as shortest round-trip
decimals.

Subcommands judge an identity by the verify suites' check for it.  Float
degree windows come from the apparatus's one degree cap (``app.cap``):
every ``verify`` suite reads it, and ``bop``, ``zeros`` and ``rhp`` refuse
a float degree past cap + 1.  Every residual is judged by one rule,
``bundle.tolerance``, at the highest family degree it reads (``Runner.run``).

Exit codes: 0 = all checks pass, 1 = a check failed, 2 = usage or input
error (a density spec in exact mode and a stdout closed early included),
3 = theory violation (an exact identity failed, meaning corrupted input
or an internal bug -- never seen on valid data).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction

from . import __version__
from .bimoment import (check_total_positivity, compute_bimoments, oracle_dn,
                       rank_one_shift_residual)
from .bop import evaluate
from .bundle import Apparatus, build_apparatus, reliable_degree_cap, tolerance
from .cdkernel import (cd_residual_hat, cd_residual_plain,
                       verify_block_against_dense)
from .errors import (CauchybopError, PrecisionExhaustedError,
                     TheoryViolationError)
from .measure import (Atom, DensityMeasure, DiscreteMeasure, discretize,
                      measure_from_strings)
from .nikishin import (aux_vectors, duality_check, ecd_hat_residual,
                       ecd_residual, f_hat_matrix, f_matrix, order_check,
                       pade_solve, plucker_residual)
from .recurrence import (four_term_residual, rank_one_XY_residual,
                         tn_oscillatory_certificate)
from .rhp import (assemble_gamma, assemble_gamma_hat, asymptotic_check,
                  extract_constants, jump_slope_study, series_at_infinity)
from .scalars import format_scalar, parse_exact
from .zeros import charpoly_identity_residual, zeros_of

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_THEORY = 3


class UsageError(Exception):
    pass


# -- measure spec parsing ---------------------------------------------------------


def _measure_from_dict(d, float_mode: bool):
    try:
        kind = d["type"]
        if kind == "discrete":
            pairs = [(a["x"], a["w"]) for a in d["atoms"]]
            m = measure_from_strings(pairs)
            if float_mode:
                m = DiscreteMeasure(tuple(Atom(float(a.position), float(a.weight))
                                          for a in m.atoms))
            return m
        if kind == "density":
            pot = d["potential"]
            quad = d.get("quadrature", {})
            if not isinstance(quad, dict):
                raise ValueError(f"quadrature must be an object, got {quad!r}")
            rule = quad.get("rule", "gauss-legendre")
            if rule != "gauss-legendre":
                raise ValueError(f"unsupported quadrature rule {rule!r}")
            return DensityMeasure(
                support=tuple(float(v) for v in d["support"]),
                potential=[float(c) for c in pot["coeffs"]],
                hbar=float(pot.get("hbar", 1.0)),
                order=int(quad.get("order", 64)),
            )
        raise UsageError(f"unknown measure type {kind!r}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError,
            OverflowError) as exc:
        raise UsageError(f"malformed measure spec: {exc}") from exc


def load_spec(args):
    """The measure pair of args.spec, checked against the command line: the
    jump study (--eps, in rhp and in the verify rhp suite) needs densities
    on both sides, and a density needs --mode float."""
    float_mode = args.mode == "float"
    try:
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            with open(args.spec) as fh:
                text = fh.read()
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise UsageError("malformed JSON spec: the top level must be an "
                             "object with keys \"alpha\" and \"beta\"")
        pair = (_measure_from_dict(doc["alpha"], float_mode),
                _measure_from_dict(doc["beta"], float_mode))
    except OSError as exc:
        raise UsageError(f"cannot read spec: {exc}") from exc
    except (json.JSONDecodeError, KeyError) as exc:
        raise UsageError(f"malformed JSON spec: {exc}") from exc
    densities = [isinstance(m, DensityMeasure) for m in pair]
    if getattr(args, "eps", None) and not all(densities):
        raise UsageError("--eps (the jump study) needs density measures on "
                         "both sides")
    if not float_mode and any(densities):
        raise UsageError("exact mode requires discrete-rational measures")
    return pair


def _point(text: str) -> Fraction:
    """The --point argument as an exact rational."""
    try:
        return parse_exact(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--point must be a decimal or p/q rational, "
                         f"got {text!r}") from exc


def _grid(rows):
    return [[format_scalar(v) for v in row] for row in rows]


def _emit(payload):
    print(json.dumps(payload, indent=2))


def _sample_points(measures, count: int):
    """Deterministic rational evaluation points off every pole set."""
    hull_max = max(max(abs(p) for p in m.positions()) for m in measures)
    poles = set()
    for m in measures:
        for p in m.positions():
            poles.add(Fraction(p))
            poles.add(-Fraction(p))
    base = Fraction(int(hull_max) + 2)
    pts = []
    k = 1
    while len(pts) < count:
        for cand in (base + Fraction(k, 7), -base - Fraction(k, 7),
                     Fraction(k, 11)):
            if cand not in poles and cand != 0 and len(pts) < count:
                pts.append(cand)
        k += 1
    return pts


# -- the verification suites -------------------------------------------------------


class Runner:
    def __init__(self, ladder):     # the defect ladder; None when exact
        self.ladder = ladder
        self.mode = "exact" if ladder is None else "float"
        self.checks = []

    def _push(self, name, status, mag, elapsed):
        self.checks.append({
            "name": name,
            "status": status,
            "residual": format_scalar(mag),
            "mode": self.mode,
            "elapsed": round(elapsed, 6),
        })

    def run(self, name, fn, degree: int = 0):
        """Time fn() and judge what it returns: a bool verdict, or a
        residual within ``tolerance(ladder, degree)``, degree being the
        highest family degree it reads: 0 (shift, product identity), n (D_n,
        Pade orders and rhp checks at n), n + 2 (recurrence, commutator, CD
        and duality at window n) or the window (rank-one, band supports).
        A callable name is called once fn has run."""
        t0 = time.perf_counter()
        residual = fn()
        elapsed = time.perf_counter() - t0
        if callable(name):
            name = name()
        if isinstance(residual, bool):
            ok, mag = residual, 0 if residual else 1
        else:
            mag = abs(residual)
            ok = mag <= tolerance(self.ladder, degree)
        self._push(name, "pass" if ok else "fail", mag, elapsed)
        return ok

    def skip(self, name: str, why: str):
        self._push(f"{name} [skipped: {why}]", "skip", 0, 0.0)

    @property
    def passed(self):
        return all(c["status"] != "fail" for c in self.checks)

    def report(self, suite: str, order: int):
        return {"suite": suite, "order": order, "mode": self.mode,
                "status": "pass" if self.passed else "fail",
                "checks": self.checks}


# unused: perfbench's tracer test still looks for this binding
float_degree_cap = reliable_degree_cap


def _refuse_past_cap(app: Apparatus, n: int):
    """Refuse a degree past cap + 1 (never exact, where the cap is N - 1)."""
    if n > app.cap + 1:
        raise PrecisionExhaustedError(
            f"precision exhausted: degree {n} exceeds the float degree cap "
            f"{app.cap + 1} set by the biorthonormality defect ladder")


def _windows(r: Runner, app: Apparatus, degrees, name: str):
    """The degrees n a check can run at; past N - 1 or past the float
    degree cap it is listed as a skip of name.format(n), with the reason."""
    for n in degrees:
        if n > app.N - 1:
            r.skip(name.format(n), f"needs N >= {n + 1}")
        elif n > app.cap:
            r.skip(name.format(n), "float conditioning")
        else:
            yield n


def _tp_certificate(I, kmax: int | None):
    """The consecutive-minor certificate through kmax x kmax (default 6,
    clipped to the order of I) and a float minor floor (not a residual)."""
    kmax = min(kmax or 6, I.order)
    if I.exact:
        return check_total_positivity(I, kmax)
    scale = max(abs(v) for row in I.entries for v in row)
    try:
        tol = 1e-12 * (kmax * float(scale)) ** kmax
    except OverflowError:
        raise PrecisionExhaustedError(
            f"precision exhausted: {kmax}x{kmax} minors of float "
            f"bimoments as large as {float(scale):.3e} overflow") from None
    return check_total_positivity(I, kmax, tol=tol)


def _check_shift(r: Runner, I, alpha, beta) -> bool:
    """Judge the rank-one shift identity, relative to the largest bimoment."""
    def shift():
        res = rank_one_shift_residual(I, alpha, beta)
        scale = max(1, *(abs(v) for row in I.entries for v in row))
        return max((abs(v) for row in res for v in row), default=0) / scale
    return r.run("rank-one shift identity on bimoments", shift)


def _check_unit_dets(r: Runner, app: Apparatus, n: int, point):
    """Judge det = 1 of Gamma and Gammahat at point; returns both."""
    matrices = []
    for assemble, name in ((assemble_gamma, "det Gamma(w={}) = 1"),
                           (assemble_gamma_hat, "det Gammahat(z={}) = 1")):
        def unit_det():
            matrices.append(assemble(app, n, point))
            return matrices[-1].determinant - 1
        r.run(name.format(point), unit_det, n)
    return matrices


def _check_jump_slope(r: Runner, app: Apparatus, n: int, eps_list):
    """Judge that the jump residual at w0, the middle of supp(db), falls
    linearly in eps (a slope, no residual); returns (w0, residuals, slope)."""
    w0 = sum(app.beta_density.support) / 2.0
    study = None

    def jump():
        nonlocal study
        study = jump_slope_study(app, n, w0, eps_list)
        return 0.5 <= study[1] <= 2.0
    r.run(lambda: f"jump residual slope {study[1]:.3f} within factor 2 of "
          "linear", jump)
    return (w0, *study)


def _suite_tp(r: Runner, app: Apparatus, kmax, eps_list):
    label = ("consecutive minors positive" if app.exact
             else "no negative consecutive minor")
    cert = None

    def tp():
        nonlocal cert
        cert = _tp_certificate(app.I, kmax)
        return cert.passed
    r.run(lambda: f"{label} through {cert.kmax}x{cert.kmax}", tp)
    D = app.I.leading_minors()
    # the tuple-sum oracle enumerates C(atoms, n)^2 index pairs, O(n) work
    # each through the closed-form Cauchy determinant, too many past 16 atoms
    many = max(len(app.alpha), len(app.beta)) > 16
    for n in range(1, min(4, len(app.alpha), len(app.beta), len(D)) + 1):
        name = f"leading minor D_{n} equals tuple-sum oracle"
        if many:
            r.skip(name, "more than 16 atoms")
            continue
        r.run(name, lambda: abs(D[n - 1] - oracle_dn(app.alpha, app.beta, n))
              / abs(float(D[n - 1])), n)
    _check_shift(r, app.I, app.alpha, app.beta)


def _suite_recurrence(r: Runner, app: Apparatus, kmax, eps_list):
    win = min(app.cap + 2, app.N + 1)

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
    for n in _windows(r, app, range(1, min(4, app.N - 1) + 1),
                      "four-term recurrence residual, degree {}"):
        r.run(f"four-term recurrence residual, degree {n}",
              lambda: max(0, *(v for pt in pts for v in four_term_residual(
                  app.family, app.A, app.Bhat, n, pt))), n + 2)
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
    for n in _windows(r, app, range(2, min(5, app.N - 1) + 1),
                      "CD identities, n={}"):
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
    top = min(4, app.N) if app.exact else app.cap
    for problem in ("q", "p", "switched"):
        for n in range(0, top + 1):
            r.run(f"approximation orders, problem={problem}, n={n}",
                  lambda: order_check(pade_solve(app, n, problem)).residual,
                  n)


def _suite_duality(r: Runner, app: Apparatus, kmax, eps_list):
    pts = _sample_points([app.alpha, app.beta], 4)
    w, z = pts[0], pts[3]     # not antipodal, as in _suite_cdi
    for n in _windows(r, app, (2, 3), "extended CD, n={}"):
        aux = aux_vectors(app, n, w, z)     # read by both identities
        for label, residual, constants in (
                ("", ecd_residual, f_matrix),
                ("hatted ", ecd_hat_residual, f_hat_matrix)):

            def ecd():
                C = constants(app, w, z)
                return max(residual(app, a, b, n, w, z, aux, C)
                           for a in range(3) for b in range(3))
            r.run(f"{label}extended CD residual, all 9 windows, n={n}", ecd,
                  n + 2)
    for n in _windows(r, app, (2, 3, 4), "perfect duality pairing, n={}"):

        def pairing():
            aux = aux_vectors(app, n, -pts[2], pts[2])
            return max(duality_check(app, a, b, n, pts[2], aux)
                       for a in range(3) for b in range(3))
        r.run(f"perfect duality pairing, n={n}", pairing, n + 2)


def _suite_rhp(r: Runner, app: Apparatus, kmax, eps_list):
    pts = _sample_points([app.alpha, app.beta], 3)
    n = min(3, app.N - 1) if app.exact else min(2, app.N - 1)
    for w in pts:
        _check_unit_dets(r, app, n, w)
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
    # densities on both sides mean float input, where n <= 2
    if app.alpha_density is not None and app.beta_density is not None:
        _check_jump_slope(r, app, n, eps_list)


#: name -> suite(runner, apparatus, kmax or None, eps ladder)
SUITES = {"tp": _suite_tp, "recurrence": _suite_recurrence, "cdi": _suite_cdi,
          "pade": _suite_pade, "duality": _suite_duality, "rhp": _suite_rhp}


# -- subcommands --------------------------------------------------------------------


def cmd_bimoments(args) -> int:
    alpha, beta = load_spec(args)
    if isinstance(alpha, DensityMeasure):
        alpha = discretize(alpha)
    if isinstance(beta, DensityMeasure):
        beta = discretize(beta)
    N = args.order
    warnings = []
    if args.kmax and args.kmax > N:
        warnings.append(f"kmax {args.kmax} clipped to order {N}")
    I = compute_bimoments(alpha, beta, N)
    D = I.leading_minors()
    cert = _tp_certificate(I, args.kmax)
    # no family: the shift reads degree 0, where the ladder is at the floor
    shift_ok = _check_shift(Runner(None if I.exact else (0,)), I, alpha, beta)
    degenerate = [n + 1 for n, d in enumerate(D) if d == 0]
    if degenerate:
        warnings.append(
            f"degenerate: leading minor vanishes at order {degenerate[0]} "
            "(measure has fewer points of increase)")
    payload = {
        "order": N,
        "I": _grid(I.entries),
        "D": [format_scalar(d) for d in D],
        "total_positivity": {
            "passed": cert.passed, "kmax": cert.kmax,
            "min_minor": format_scalar(cert.min_minor),
            "violation": None if cert.violation is None else {
                "k": cert.violation[0], "row": cert.violation[1],
                "col": cert.violation[2],
                "value": format_scalar(cert.violation[3])},
        },
        "rank_one_shift": "pass" if shift_ok else "fail",
        "warnings": warnings,
    }
    _emit(payload)
    return EXIT_PASS if shift_ok else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    alpha, beta = load_spec(args)
    app = build_apparatus(alpha, beta, args.order)
    runner = Runner(app.ladder)
    eps_list = args.eps or [1e-4, 1e-5, 1e-6]
    for name in (list(SUITES) if args.suite == "all" else [args.suite]):
        SUITES[name](runner, app, args.kmax, eps_list)
    _emit(runner.report(args.suite, args.order))
    return EXIT_PASS if runner.passed else EXIT_CHECK_FAILED


def cmd_bop(args) -> int:
    alpha, beta = load_spec(args)
    n = args.degree
    point = None if args.point is None else _point(args.point)
    app = build_apparatus(alpha, beta, max(n, 1))
    _refuse_past_cap(app, n)
    fam = app.family
    payload = {
        "degree": n,
        "p_monic": [format_scalar(c) for c in fam.p_monic[n]],
        "q_monic": [format_scalar(c) for c in fam.q_monic[n]],
        "h": format_scalar(fam.h[n]),
        "pi": format_scalar(fam.pi_monic[n]),
        "eta": format_scalar(fam.eta_monic[n]),
        "c_float": fam.c(n),
    }
    if point is not None:
        pt = point if app.exact else float(point)
        payload["p_at_point"] = format_scalar(evaluate(fam, "p", n, pt))
        payload["q_at_point"] = format_scalar(evaluate(fam, "q", n, pt))
    _emit(payload)
    return EXIT_PASS


def cmd_zeros(args) -> int:
    alpha, beta = load_spec(args)
    n = args.degree
    app = build_apparatus(alpha, beta, max(n, 1))
    _refuse_past_cap(app, n)
    payload = {"degree": n}
    ok = True
    for which in ("p", "q"):
        rep = zeros_of(app, which, n)
        res = charpoly_identity_residual(app, which, n, Fraction(0)) if n else 0
        payload[which] = {
            "zeros": list(rep.zeros),
            "min_gap": rep.min_gap if rep.min_gap != float("inf") else None,
            "all_positive": rep.all_positive,
            "inside_support_hull": rep.inside_hull,
            "interlaced_with_previous": rep.interlaced_with_previous,
            "charpoly_residual_at_0": format_scalar(res),
            "numerically_coincident": rep.numerically_coincident,
        }
        ok = ok and rep.all_positive and rep.inside_hull \
            and rep.interlaced_with_previous is not False \
            and not rep.numerically_coincident
    _emit(payload)
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def cmd_recurrence(args) -> int:
    alpha, beta = load_spec(args)
    app = build_apparatus(alpha, beta, args.order)
    payload = {
        "order": args.order,
        "X": _grid(app.X.entries),
        "Y": _grid(app.Y.entries),
        "A": _grid(app.A.entries),
        "Ahat": _grid(app.Ahat.entries),
        "band_supports": {"X": list(app.X.support), "Y": list(app.Y.support),
                          "A": list(app.A.support),
                          "Ahat": list(app.Ahat.support)},
    }
    _emit(payload)
    return EXIT_PASS


def cmd_rhp(args) -> int:
    alpha, beta = load_spec(args)
    n = args.degree
    point = _point(args.point) if args.point else Fraction(10)
    app = build_apparatus(alpha, beta, n + 1)
    _refuse_past_cap(app, n)
    r = Runner(app.ladder)
    payload = {"degree": n}
    if args.eps:
        w0, residuals, slope = _check_jump_slope(r, app, n, args.eps)
        payload["jump_study"] = {"w0": w0, "eps": list(args.eps),
                                 "residuals": residuals, "slope": slope}
    else:
        pt = point if app.exact else float(point)
        matrices = _check_unit_dets(r, app, n, pt)
        payload["point"] = format_scalar(pt)
        for key, m in zip(("gamma", "gamma_hat"), matrices):
            payload[key] = _grid(m.entries)
            payload[f"det_{key}"] = format_scalar(m.determinant)
    _emit(payload)
    return EXIT_PASS if r.passed else EXIT_CHECK_FAILED


# -- entry point ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cauchybop",
        description="Biorthogonal polynomial apparatus for the Cauchy "
                    "kernel: construction and verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree=False):
        p.add_argument("spec", help="measure spec JSON file, or - for stdin")
        if degree:
            p.add_argument("-n", "--degree", type=int, required=True)
        else:
            p.add_argument("-N", "--order", type=int, required=True)
        p.add_argument("--mode", choices=("exact", "float"), default="exact")

    p = sub.add_parser("bimoments", help="bimoment matrix, minors, certificates")
    common(p)
    p.add_argument("--kmax", type=int)
    p.set_defaults(fn=cmd_bimoments)

    p = sub.add_parser("verify", help="run an invariant suite")
    common(p)
    p.add_argument("--suite", choices=("all",) + tuple(SUITES), default="all")
    p.add_argument("--kmax", type=int)
    p.add_argument("--eps", type=float, nargs="+")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bop", help="biorthogonal polynomial coefficients")
    common(p, degree=True)
    p.add_argument("--point")
    p.set_defaults(fn=cmd_bop)

    p = sub.add_parser("zeros", help="zeros, gaps, interlacing")
    common(p, degree=True)
    p.set_defaults(fn=cmd_zeros)

    p = sub.add_parser("recurrence", help="band operators")
    common(p)
    p.set_defaults(fn=cmd_recurrence)

    p = sub.add_parser("rhp", help="boundary-value matrices")
    common(p, degree=True)
    p.add_argument("--point")
    p.add_argument("--eps", type=float, nargs="+")
    p.set_defaults(fn=cmd_rhp)
    return parser


def _check_orders(args) -> None:
    """Reject order arguments below their minimum, and an --eps ladder
    that is not positive, too short to fit a slope, or given to rhp with a
    --point the jump study would not read, before anything is built."""
    # Gamma needs n >= 2, and the rhp suite takes n = min(3, N - 1)
    low_n = 2 if args.command == "rhp" else 0
    low_N = 3 if getattr(args, "suite", None) in ("all", "rhp") else 1
    for flag, attr, low in (("-N", "order", low_N), ("-n", "degree", low_n),
                            ("--kmax", "kmax", 1)):
        value = getattr(args, attr, None)
        if value is not None and value < low:
            raise UsageError(f"{flag} must be at least {low}, got {value}")
    ladder = getattr(args, "eps", None) or ()
    for eps in ladder:
        if not eps > 0:
            raise UsageError(f"--eps must be positive, got {eps}")
    if ladder and len(set(ladder)) < 2:
        raise UsageError("--eps needs at least 2 distinct values, got 1")
    if ladder and getattr(args, "point", None) is not None:
        raise UsageError("--point is not read by the jump study (--eps)")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _check_orders(args)
        code = args.fn(args)
        sys.stdout.flush()      # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the output was written",
              file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TheoryViolationError as exc:
        print(f"theory violation: {exc}", file=sys.stderr)
        return EXIT_THEORY
    except CauchybopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

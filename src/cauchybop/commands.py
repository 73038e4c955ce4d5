"""The subcommands of ``cli``: each builds what it reports from the spec
and the parsed command line, prints one JSON document, and returns its
verdict, True when every check it judged passed.

Rationals are emitted as "p/q" strings and floats as shortest round-trip
decimals.  Subcommands judge an identity by the verify suites' check for
it (``checks``).  ``bop``, ``zeros`` and ``rhp`` refuse a float degree
past the apparatus's degree cap + 1.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bimoment import compute_bimoments
from .bop import evaluate
from .bundle import Apparatus, build_apparatus
from .checks import (Runner, _sample_points, check_jump_slope, check_shift,
                     check_unit_dets, tp_certificate)
from .errors import PrecisionExhaustedError
from .measure import DensityMeasure, discretize
from .scalars import format_scalar
from .spec import _point, load_spec
from .suites import SUITES
from .zeros import charpoly_identity_residual, zeros_of


def _grid(rows):
    return [[format_scalar(v) for v in row] for row in rows]


def _emit(payload):
    print(json.dumps(payload, indent=2))


def _refuse_past_cap(app: Apparatus, n: int):
    """Refuse a degree past cap + 1 <= N (never exact: the cap is N - 1)."""
    if n > app.cap + 1:
        raise PrecisionExhaustedError(
            f"precision exhausted: degree {n} exceeds the float degree cap "
            f"{app.cap + 1} set by the biorthonormality defect ladder")


# -- subcommands --------------------------------------------------------------------


def cmd_bimoments(args) -> bool:
    alpha, beta = [discretize(m) if isinstance(m, DensityMeasure) else m
                   for m in load_spec(args)]
    N = args.order
    warnings = []
    if args.kmax and args.kmax > N:
        warnings.append(f"kmax {args.kmax} clipped to order {N}")
    I = compute_bimoments(alpha, beta, N)
    D = I.leading_minors()
    cert = tp_certificate(I, args.kmax)
    # no family: the shift reads degree 0, where the ladder is at the floor
    shift_ok = check_shift(Runner(None if I.exact else (0,)), I, alpha, beta)
    # D_k > 0 exactly when k <= m (oracle_dn's tuple sum), in both lanes;
    # a float D_k may round to 0.0 below that, or miss 0 past it
    m = min(len(alpha), len(beta))
    if m < N:
        warnings.append(
            f"degenerate: leading minor vanishes at order {m + 1} "
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
    return shift_ok


def cmd_verify(args) -> bool:
    alpha, beta = load_spec(args)
    app = build_apparatus(alpha, beta, args.order)
    runner = Runner(app.ladder)
    eps_list = args.eps or [1e-4, 1e-5, 1e-6]
    for name in (list(SUITES) if args.suite == "all" else [args.suite]):
        SUITES[name](runner, app, args.kmax, eps_list)
    _emit(runner.report(args.suite, args.order))
    return runner.passed


def cmd_bop(args) -> bool:
    alpha, beta = load_spec(args)
    n = args.degree
    point = (None if args.point is None
             else _point(args.point, args.mode == "float"))
    app = build_apparatus(alpha, beta, n)
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
        payload["p_at_point"] = format_scalar(evaluate(fam, "p", n, point))
        payload["q_at_point"] = format_scalar(evaluate(fam, "q", n, point))
    _emit(payload)
    return True


def cmd_zeros(args) -> bool:
    alpha, beta = load_spec(args)
    n = args.degree
    app = build_apparatus(alpha, beta, n)
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
    return ok


def cmd_recurrence(args) -> bool:
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
    return True


def cmd_rhp(args) -> bool:
    alpha, beta = load_spec(args)
    n = args.degree
    point = (None if args.point is None
             else _point(args.point, args.mode == "float"))
    app = build_apparatus(alpha, beta, n + 1)
    _refuse_past_cap(app, n)
    r = Runner(app.ladder)
    payload = {"degree": n}
    if args.eps:
        w0, residuals, slope = check_jump_slope(r, app, n, args.eps)
        payload["jump_study"] = {"w0": w0, "eps": list(args.eps),
                                 "residuals": residuals, "slope": slope}
    else:
        if point is None:       # the rhp suite's first det Gamma point
            point = _sample_points([app.alpha, app.beta], 1)[0]
        matrices = check_unit_dets(r, app, n, point)
        payload["point"] = format_scalar(point)
        for key, m in zip(("gamma", "gamma_hat"), matrices):
            payload[key] = _grid(m.entries)
            payload[f"det_{key}"] = format_scalar(m.determinant)
    _emit(payload)
    return r.passed

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

Gauss-Legendre is the only quadrature rule, and its order an integer
node count.  Positions and weights are
decimal strings parsed to exact rationals, so exact-mode results are
reproducible bit for bit.  Every subcommand prints one JSON document;
rationals are emitted as "p/q" strings and floats as shortest round-trip
decimals.

This module parses the spec and the command line and runs a subcommand;
the verify engine (the suites, their runner and the checks the
subcommands share with them) is ``suites``.  Subcommands judge an identity
by the verify suites' check for it.  ``bop``, ``zeros`` and ``rhp`` refuse
a float degree past the apparatus's degree cap + 1.  The parser is built
once per process, however often :func:`main` runs in it.

Exit codes: 0 = all checks pass, 1 = a check failed, 2 = usage or input
error (a density spec in exact mode and a stdout closed early included),
3 = theory violation (an exact identity failed, meaning corrupted input
or an internal bug -- never seen on valid data).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .bimoment import compute_bimoments
from .bop import evaluate
from .bundle import Apparatus, build_apparatus, reliable_degree_cap
from .errors import (CauchybopError, PrecisionExhaustedError,
                     TheoryViolationError)
from .measure import (Atom, DensityMeasure, DiscreteMeasure, discretize,
                      measure_from_strings)
from .scalars import format_scalar, parse_exact
from .suites import (SUITES, Runner, check_jump_slope, check_shift,
                     check_unit_dets, tp_certificate)
from .zeros import charpoly_identity_residual, zeros_of

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_THEORY = 3


class UsageError(CauchybopError):
    pass


# -- measure spec parsing ---------------------------------------------------------


def _measure_from_dict(d, float_mode: bool):
    try:
        kind = d["type"]
        if kind == "discrete":
            pairs = [(a["x"], a["w"]) for a in d["atoms"]]
            m = measure_from_strings(pairs)
            if float_mode:
                m = DiscreteMeasure(tuple([Atom(float(a.position),
                                                float(a.weight))
                                           for a in m.atoms]))
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
                support=tuple([float(v) for v in d["support"]]),
                potential=[float(c) for c in pot["coeffs"]],
                hbar=float(pot.get("hbar", 1.0)),
                order=quad.get("order", 64),
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


def _point(text: str, float_mode: bool) -> Fraction | float:
    """The --point argument in the lane's arithmetic: an exact rational, or
    its nearest double in float mode, refused past the double range."""
    try:
        point = parse_exact(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--point must be a decimal or p/q rational, "
                         f"got {text!r}") from exc
    try:
        return float(point) if float_mode else point
    except OverflowError:
        raise PrecisionExhaustedError(
            f"precision exhausted: --point {text} overflows a float") from None


def _grid(rows):
    return [[format_scalar(v) for v in row] for row in rows]


def _emit(payload):
    print(json.dumps(payload, indent=2))


# unused: perfbench's tracer test still looks for this binding
float_degree_cap = reliable_degree_cap


def _refuse_past_cap(app: Apparatus, n: int):
    """Refuse a degree past cap + 1 (never exact, where the cap is N - 1)."""
    if n > app.cap + 1:
        raise PrecisionExhaustedError(
            f"precision exhausted: degree {n} exceeds the float degree cap "
            f"{app.cap + 1} set by the biorthonormality defect ladder")


# -- subcommands --------------------------------------------------------------------


def cmd_bimoments(args) -> int:
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
    point = (None if args.point is None
             else _point(args.point, args.mode == "float"))
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
        payload["p_at_point"] = format_scalar(evaluate(fam, "p", n, point))
        payload["q_at_point"] = format_scalar(evaluate(fam, "q", n, point))
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
    point = _point("10" if args.point is None else args.point,
                   args.mode == "float")
    app = build_apparatus(alpha, beta, n + 1)
    _refuse_past_cap(app, n)
    r = Runner(app.ladder)
    payload = {"degree": n}
    if args.eps:
        w0, residuals, slope = check_jump_slope(r, app, n, args.eps)
        payload["jump_study"] = {"w0": w0, "eps": list(args.eps),
                                 "residuals": residuals, "slope": slope}
    else:
        matrices = check_unit_dets(r, app, n, point)
        payload["point"] = format_scalar(point)
        for key, m in zip(("gamma", "gamma_hat"), matrices):
            payload[key] = _grid(m.entries)
            payload[f"det_{key}"] = format_scalar(m.determinant)
    _emit(payload)
    return EXIT_PASS if r.passed else EXIT_CHECK_FAILED


# -- entry point ---------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # one parser per process: repeated in-process main calls do not each
    # leave a parser tree for the garbage collector
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
    except TheoryViolationError as exc:
        print(f"theory violation: {exc}", file=sys.stderr)
        return EXIT_THEORY
    except CauchybopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

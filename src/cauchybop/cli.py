"""Command-line front end.

One binary, subcommand style:

    cauchybop bimoments  spec.json -N 6 --kmax 4
    cauchybop verify     spec.json -N 5 --suite all --mode exact
    cauchybop bop        spec.json -n 3
    cauchybop zeros      spec.json -n 4
    cauchybop recurrence spec.json -N 5
    cauchybop rhp        spec.json -n 2 --point 10

Every subcommand reads a measure spec (its format is in ``spec``) and
prints one JSON document.

This module builds the argument parser, rejects out-of-range orders and
--eps ladders before anything is built, runs the subcommand (``commands``)
and maps its verdict or error to an exit code.  The verify engine is
``suites`` (the six suites) on ``checks`` (their runner and the checks the
subcommands share with them).  The parser is built once per process,
however often :func:`main` runs in it.

Exit codes: 0 = all checks pass, 1 = a check failed, 2 = usage or input
error (a density spec in exact mode and a stdout closed early included),
3 = theory violation (an exact identity failed, meaning corrupted input
or an internal bug -- never seen on valid data).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__
# unused: perfbench's tracer test still looks for these two bindings
from .bundle import build_apparatus  # noqa: F401
from .bundle import reliable_degree_cap as float_degree_cap  # noqa: F401
from .commands import (cmd_bimoments, cmd_bop, cmd_recurrence, cmd_rhp,
                       cmd_verify, cmd_zeros)
from .errors import CauchybopError, TheoryViolationError
from .spec import UsageError
from .suites import SUITES

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_THEORY = 3


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
    # Gamma needs n >= 2, so the rhp level min(3, N - 1, cap + 1) needs N >= 3;
    # the cdi and duality windows start at n = 2 and read degree n + 1 <= N
    low_n = 2 if args.command == "rhp" else 0
    low_N = 3 if getattr(args, "suite", None) in (
        "all", "rhp", "cdi", "duality") else 1
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
        code = EXIT_PASS if args.fn(args) else EXIT_CHECK_FAILED
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

"""The measure spec and the command-line values read in a lane's arithmetic.

The measure spec is a JSON document with keys "alpha" and "beta", each

    {"type": "discrete", "atoms": [{"x": "<decimal>", "w": "<decimal>"}, ...]}

or

    {"type": "density", "support": [a, b],
     "potential": {"coeffs": [...], "hbar": 1.0},
     "quadrature": {"rule": "gauss-legendre", "order": 64}}

Gauss-Legendre is the only quadrature rule, and its order an integer
node count.  Positions and weights are decimal strings parsed to exact
rationals, so exact-mode results are reproducible bit for bit.  A malformed spec or argument raises
:class:`UsageError`, which ``cli.main`` reports with exit code 2.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .errors import CauchybopError
from .measure import (Atom, DensityMeasure, DiscreteMeasure,
                      measure_from_strings)
from .scalars import parse_exact, to_float


class UsageError(CauchybopError):
    pass


def _measure_from_dict(d, float_mode: bool):
    try:
        kind = d["type"]
        if kind == "discrete":
            pairs = [(a["x"], a["w"]) for a in d["atoms"]]
            m = measure_from_strings(pairs)
            if float_mode:
                m = DiscreteMeasure(tuple([
                    Atom(to_float(a.position, "an atom position"),
                         to_float(a.weight, "an atom weight"))
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
    return to_float(point, f"--point {text}") if float_mode else point

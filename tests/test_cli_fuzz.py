"""Fuzz the command line: every argv and spec, however malformed, ends in a
documented exit code, never a traceback, and a usage error says so in one
line."""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cauchybop.cli import SUITES, main

COMMANDS = ("bimoments", "verify", "bop", "zeros", "recurrence", "rhp")
WEIGHTS = ("1", "2", "0.5", "3/2", "5/4", "7", "1e1", "0.125")
#: zero, negative, non-numeric, a zero denominator and non-finite
BAD_NUMBERS = ("0", "-1", "x", "1/0", "", "nan", "inf")
POINTS = ("10", "1/3", "-3/7", "2.5", "1e1")
EPS = ("1e-4", "1e-5", "1e-6", "0.5")
BAD_EPS = ("0", "-1e-4", "x", "nan", "inf")


@st.composite
def discrete(draw, flawed):
    """Distinct positions (2j + 1)/d with positive weights; a flawed one has
    one bad number or a repeated position."""
    count = draw(st.sampled_from((6, 5, 4, 3, 2, 1)))
    atoms = [{"x": f"{2 * j + 1}/{draw(st.sampled_from((1, 2)))}",
              "w": draw(st.sampled_from(WEIGHTS))} for j in range(count)]
    if flawed:
        atom = atoms[draw(st.integers(0, count - 1))]
        atom[draw(st.sampled_from("xw"))] = draw(
            st.sampled_from(BAD_NUMBERS + (atoms[0]["x"],)))
    return {"type": "discrete", "atoms": atoms}


@st.composite
def density(draw, flawed):
    """A positive density exp(-U/hbar) on a compact interval, with few
    nodes; a flawed one has one bad field."""
    doc = {"type": "density",
           "support": draw(st.sampled_from([[0.5, 2.0], [0.0, 1.0],
                                            [1.0, 3.0]])),
           "potential": {"coeffs": draw(st.lists(st.sampled_from(
               [0.0, 1.0, -1.0, 0.5]), max_size=3)), "hbar": 1.0},
           "quadrature": {"rule": "gauss-legendre",
                          "order": draw(st.sampled_from([8, 16]))}}
    if flawed:
        key, sub, value = draw(st.sampled_from([
            ("support", None, [2.0, 1.0]), ("support", None, [-1.0, 1.0]),
            ("potential", "coeffs", [0.0, -400.0]),
            ("potential", "hbar", 0.0), ("quadrature", "order", 0),
            ("quadrature", "rule", "simpson"),
            ("quadrature", None, "gauss-legendre")]))
        if sub is None:
            doc[key] = value
        else:
            doc[key][sub] = value
    return doc


def measure(flawed):
    return st.one_of(discrete(flawed), density(flawed))


MALFORMED_DOCS = ("", "{", "null", "3", "[]", '{"alpha": {}, "beta": {}}',
                  '{"alpha": {"type": "lattice"}, "beta": {"type": "x"}}',
                  '{"alpha": {"type": "discrete", "atoms": []}}')


@st.composite
def invocation(draw):
    """(argv, spec text), with at most one flaw."""
    flaw = draw(st.sampled_from(
        [None, None, None, "order", "measure", "doc", "option"]))
    cmd = draw(st.sampled_from(COMMANDS))
    suite = draw(st.sampled_from(("all",) + tuple(SUITES))) \
        if cmd == "verify" else None
    degree = cmd in ("bop", "zeros", "rhp")
    # the lowest order each command accepts; Gamma needs n >= 2
    low = {"rhp": 2, "verify": 3 if suite in ("all", "rhp") else 1}.get(
        cmd, 0 if degree else 1)
    # -N and -n up to 5; they can still exceed the atom count without a flaw
    order = draw(st.integers(-2, low - 1) if flaw == "order"
                 else st.integers(low, 5))
    argv = [cmd, "SPEC", "-n" if degree else "-N", str(order)]
    if suite is not None:
        argv += ["--suite", suite]
    if draw(st.booleans()):
        argv += ["--mode", draw(st.sampled_from(("exact", "float")))]
    bad = flaw == "option"
    if cmd in ("bimoments", "verify") and draw(st.booleans()):
        argv += ["--kmax", str(draw(st.integers(-1, 0) if bad
                                    else st.integers(1, 8)))]
        bad = False
    if cmd in ("bop", "rhp") and draw(st.booleans()):
        argv += ["--point=" + draw(st.sampled_from(
            BAD_NUMBERS if bad else POINTS))]
        bad = False
    if cmd in ("verify", "rhp") and draw(st.booleans()):
        eps = draw(st.lists(st.sampled_from(EPS), min_size=1, max_size=3))
        if bad:
            eps[-1] = draw(st.sampled_from(BAD_EPS))
        argv += ["--eps"] + eps
    if flaw == "doc":
        return argv, draw(st.sampled_from(MALFORMED_DOCS))
    flawed = draw(st.sampled_from(["alpha", "beta"])) \
        if flaw == "measure" else None
    return argv, json.dumps({side: draw(measure(side == flawed))
                             for side in ("alpha", "beta")})


def _atoms(*pairs):
    return {"type": "discrete",
            "atoms": [{"x": x, "w": w} for x, w in pairs]}


#: an atom past the double range: exact zeros and bop read an operator
#: entry, a support end or a norm built from it as a float
BEYOND_DOUBLE = json.dumps({
    "alpha": _atoms(("1e400", "1"), ("2", "0.5"), ("3", "0.25")),
    "beta": _atoms(("0.5", "1"), ("1.5", "2"), ("4", "0.75"))})


@settings(max_examples=40, deadline=None)
@given(invocation())
@example((["zeros", "SPEC", "-n", "2"], BEYOND_DOUBLE))
@example((["zeros", "SPEC", "-n", "1"], BEYOND_DOUBLE))
@example((["bop", "SPEC", "-n", "2"], BEYOND_DOUBLE))
def test_cli_exits_with_a_documented_code(tmp_path_factory, case):
    argv, text = case
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(text)
    argv = [str(path) if a == "SPEC" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert sum("error:" in line
                   for line in err.getvalue().splitlines()) == 1

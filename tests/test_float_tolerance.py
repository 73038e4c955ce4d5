"""The float lane's one tolerance rule (``bundle.tolerance``), end to end.

A float residual passes within SAFETY times the biorthonormality defect
ladder at the highest family degree the check reads.  These tests pin that
the rule passes valid quadrature input, still catches a corrupted operator
entry, and never fails a check that the exact lane passes on the same
atoms.
"""

import contextlib
import io
import json
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cauchybop import DensityMeasure, build_apparatus, cli
from cauchybop.bundle import reliable_degree_cap
from cauchybop.measure import discretize


def density(a, b, c1, c2, order=96):
    """exp(-(c1 x + c2 x^2)) on [a, b], as a spec side."""
    return {"type": "density", "support": [a, b],
            "potential": {"coeffs": [0.0, c1, c2], "hbar": 1.0},
            "quadrature": {"rule": "gauss-legendre", "order": order}}


# Jobs 1, 5, 11 and 14 of the float-verify benchmark workload, seed 0
# (``perfbench/workloads.py``).  Under fixed per-check tolerances they
# failed the commutator block (all four), the band support of A (1 and
# 14) and the duality pairing (14, an absolute 5.1e-3 that is 8.4e-9
# relative to the terms it sums), and job 11 moved between degree caps 1
# and 2 with the last bits of the ladder.  Job 5 still fails the
# commutator block if it is compared past the window cap + 2.
FLOAT_VERIFY_JOBS = {
    1: {"alpha": density(0.9286706252882317, 3.894259362566627,
                         0.9677950339305892, 0.12723885949678487),
        "beta": density(0.15033268804752042, 3.0514101385194348,
                        1.4165669417319684, 0.19747770737765286)},
    5: {"alpha": density(0.053670625288231744, 2.699259362566627,
                         1.4405223066578619, 0.1978270947909025),
        "beta": density(0.5947771324919648, 2.6387117258210218,
                        0.5165669417319685, 0.26063560211449494)},
    11: {"alpha": density(0.24117062528823174, 1.366759362566627,
                          0.8603570174016635, 0.003709447732078996),
         "beta": density(0.5207030584178909, 2.3197396925632745,
                         1.1165669417319684, 0.055372444219758156)},
    14: {"alpha": density(0.8661706252882317, 3.191759362566627,
                          1.214902471947118, 0.05665062420266724),
         "beta": density(0.6318141695290018, 3.3288099873478547,
                         1.424259249424276, 0.10274086527238968)},
}


def verify(spec, N, mode):
    """``cauchybop verify - -N N --suite all --mode mode`` with the spec on
    stdin; returns (exit code, report or None)."""
    out = io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(spec))
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", "-", "-N", str(N), "--suite", "all",
                             "--mode", mode])
    finally:
        sys.stdin = old_stdin
    text = out.getvalue()
    return code, json.loads(text) if text.startswith("{") else None


def failed(report):
    return [c["name"] for c in report["checks"] if c["status"] == "fail"]


@pytest.mark.parametrize("job", sorted(FLOAT_VERIFY_JOBS))
def test_float_verify_passes_on_quadrature_pairs(job):
    code, report = verify(FLOAT_VERIFY_JOBS[job], 8, "float")
    assert failed(report) == []
    assert code == 0


def _suites(app, names):
    runner = cli.Runner(app.ladder)
    for name in names:
        cli.SUITES[name](runner, app, None, None)
    return {c["name"]: c["status"] for c in runner.checks}


def test_perturbed_ahat_entry_fails_in_float():
    # the rule must not be so loose that a corrupted operator passes: a
    # relative 1e-4 error in Ahat[2][1], which the n = 2 block reads
    spec = FLOAT_VERIFY_JOBS[1]
    app = build_apparatus(
        *(DensityMeasure(support=tuple(spec[side]["support"]),
                         potential=spec[side]["potential"]["coeffs"],
                         order=spec[side]["quadrature"]["order"])
          for side in ("alpha", "beta")), 8)
    assert reliable_degree_cap(app) >= 2
    rows = [list(row) for row in app.Ahat.entries]
    rows[2][1] *= 1 + 1e-4
    bad = replace(app, Ahat=replace(app.Ahat,
                                    entries=tuple(map(tuple, rows))))
    before = _suites(app, ("cdi", "duality"))
    after = _suites(bad, ("cdi", "duality"))
    assert "fail" not in before.values()
    assert [name for name, status in after.items() if status == "fail"]


def _rationalized(a, length, c1, c2, order):
    """A discrete spec side whose atoms are the exact rational values of
    the float quadrature atoms of exp(-(c1 x + c2 x^2)) on [a, a + length],
    so the exact and the float lane read the same atoms."""
    atoms = discretize(DensityMeasure(support=(a, a + length),
                                      potential=[0.0, c1, c2],
                                      order=order)).atoms
    return {"type": "discrete",
            "atoms": [{"x": str(Fraction(t.position)),
                       "w": str(Fraction(t.weight))} for t in atoms]}


def _by_name(report):
    # the float lane names its operator window, the exact lane does not
    return {c["name"].split(" (window")[0]: c["status"]
            for c in report["checks"]}


side = st.tuples(st.floats(0.0, 1.0), st.floats(1.0, 3.0),
                 st.floats(0.2, 1.5), st.floats(0.0, 0.3))


# Pinned pairs that a looser reading of the ladder failed in float: the CD
# checks at window N - 1 read degree N + 1, past a ladder that stopped at N;
# D_3 against the ladder at degree 2 instead of 3; and the product identity
# as an absolute residual, with W_beta near a node at z = 1/11.
@settings(max_examples=4, deadline=None)
@given(side, side, st.integers(5, 7), st.integers(3, 5))
@example((0.11468936216224745, 3.0, 0.29964712814998606, 0.0),
         (1.0, 2.781536255710611, 0.2, 0.3), 5, 3)
@example((0.0, 2.0905741795362918, 1.1893853578091451, 0.04097820388194227),
         (1.0, 1.8743383661364388, 0.6638643926843497, 0.0), 6, 4)
@example((0.0, 3.0, 0.2, 0.2530630747756616),
         (0.0, 2.68971106109578, 1.5, 0.28446091800719575), 6, 4)
def test_float_lane_never_fails_where_the_exact_shadow_passes(
        alpha, beta, order, N):
    # the tp suite reads minors of the order-(N + 2) bimoment matrix, which
    # vanish unless each measure has N + 2 atoms
    N = min(N, order - 2)
    spec = {"alpha": _rationalized(*alpha, order),
            "beta": _rationalized(*beta, order)}
    exact_code, exact = verify(spec, N, "exact")
    float_code, floats = verify(spec, N, "float")
    assert exact_code == 0
    if floats is None:          # a clean float refusal (exit 2) runs no check
        assert float_code == 2
        return
    exact, floats = _by_name(exact), _by_name(floats)
    shared = [name for name, status in exact.items()
              if status == "pass" and floats.get(name) in ("pass", "fail")]
    assert shared
    assert [name for name in shared if floats[name] == "fail"] == []

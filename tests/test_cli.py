import itertools
import json
import operator
import sys
import time
import types
from fractions import Fraction as F

import pytest

from cauchybop.cli import main

TWO_ATOM = {
    "alpha": {"type": "discrete",
              "atoms": [{"x": "1", "w": "1"}, {"x": "2", "w": "1"}]},
    "beta": {"type": "discrete",
             "atoms": [{"x": "1", "w": "1"}, {"x": "3", "w": "1"}]},
}

SIX_ATOM = {
    "alpha": {"type": "discrete", "atoms": [
        {"x": "1", "w": "1"}, {"x": "2", "w": "1"}, {"x": "3.5", "w": "0.25"},
        {"x": "4", "w": "2"}, {"x": "1.25", "w": "0.8"}, {"x": "6", "w": "1"}]},
    "beta": {"type": "discrete", "atoms": [
        {"x": "0.5", "w": "2"}, {"x": "1", "w": "1"}, {"x": "3", "w": "1"},
        {"x": "4.5", "w": "0.125"}, {"x": "2.25", "w": "1.7"},
        {"x": "7", "w": "0.3"}]},
}

DENSITY = {
    "alpha": {"type": "density", "support": [1.0, 2.0],
              "potential": {"coeffs": [0.0], "hbar": 1.0},
              "quadrature": {"rule": "gauss-legendre", "order": 96}},
    "beta": {"type": "density", "support": [1.0, 2.0],
             "potential": {"coeffs": [0.0], "hbar": 1.0},
             "quadrature": {"rule": "gauss-legendre", "order": 96}},
}


@pytest.fixture
def spec_file(tmp_path):
    def write(doc, name="spec.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)
    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_bimoments_two_atom(spec_file, capsys):
    code, payload = run(capsys, ["bimoments", spec_file(TWO_ATOM), "-N", "2"])
    assert code == 0
    assert payload["I"] == [["77/60", "131/60"], ["109/60", "187/60"]]
    assert payload["D"] == ["77/60", "1/30"]
    assert payload["total_positivity"]["passed"]
    assert payload["rank_one_shift"] == "pass"


def test_bimoments_round_trips_exact_rationals(spec_file, capsys):
    code, payload = run(capsys, ["bimoments", spec_file(SIX_ATOM), "-N", "4"])
    assert code == 0
    reparsed = [[F(v) for v in row] for row in payload["I"]]
    from cauchybop import compute_bimoments, measure_from_strings
    alpha = measure_from_strings([(a["x"], a["w"])
                                  for a in SIX_ATOM["alpha"]["atoms"]])
    beta = measure_from_strings([(a["x"], a["w"])
                                 for a in SIX_ATOM["beta"]["atoms"]])
    I = compute_bimoments(alpha, beta, 4)
    assert reparsed == [list(row) for row in I.entries]


def test_bimoments_degenerate_single_atom(spec_file, capsys):
    doc = {"alpha": {"type": "discrete", "atoms": [{"x": "1", "w": "1"}]},
           "beta": {"type": "discrete", "atoms": [{"x": "1", "w": "1"}]}}
    code, payload = run(capsys, ["bimoments", spec_file(doc), "-N", "2"])
    assert code == 0                      # degenerate is a warning, not a crash
    assert payload["D"][1] == "0"
    assert not payload["total_positivity"]["passed"]
    assert any("degenerate" in w for w in payload["warnings"])


#: the float-verify benchmark's seed 0 job 12 (``perfbench/workloads.py``):
#: 96 nodes a side, where a float D_7 once rounded to 0.0
JOB_12 = {side: {"type": "density", "support": support,
                 "potential": {"coeffs": [0.0, c1, c2], "hbar": 1.0},
                 "quadrature": {"rule": "gauss-legendre", "order": 96}}
          for side, support, c1, c2 in (
              ("alpha", [0.6161706252882317, 2.141759362566627],
               0.9785388355834816, 0.02135650655560841),
              ("beta", [0.9651475028623353, 3.0498984227220043],
               1.2165669417319687, 0.0711619179039686))}
SIX_ATOM_WARNING = ("degenerate: leading minor vanishes at order 7 (measure "
                    "has fewer points of increase)")


@pytest.mark.parametrize("spec, argv, warnings", [
    (JOB_12, ["-N", "10", "--mode", "float"], []),
    (SIX_ATOM, ["-N", "8", "--mode", "float"], [SIX_ATOM_WARNING]),
    (SIX_ATOM, ["-N", "8"], [SIX_ATOM_WARNING])],
    ids=["96 nodes float", "six atoms float", "six atoms exact"])
def test_bimoments_degenerate_warning_counts_atoms(spec, argv, warnings,
                                                   spec_file, capsys):
    # the warning reads the atom counts, not a D that rounds to 0.0 or not
    code, payload = run(capsys, ["bimoments", spec_file(spec)] + argv)
    assert code == 0 and payload["warnings"] == warnings


def test_bimoments_kmax_clipped(spec_file, capsys):
    code, payload = run(capsys,
                        ["bimoments", spec_file(TWO_ATOM), "-N", "2",
                         "--kmax", "5"])
    assert code == 0
    assert any("clipped" in w for w in payload["warnings"])
    assert payload["total_positivity"]["kmax"] == 2


def test_verify_all_exact(spec_file, capsys):
    code, payload = run(capsys, ["verify", spec_file(SIX_ATOM), "-N", "5",
                                 "--suite", "all"])
    assert code == 0
    assert payload["status"] == "pass"
    assert all(c["status"] != "fail" for c in payload["checks"])


def test_verify_duality_suite(spec_file, capsys):
    code, payload = run(capsys, ["verify", spec_file(SIX_ATOM), "-N", "4",
                                 "--suite", "duality"])
    assert code == 0 and payload["status"] == "pass"


def test_verify_tp_fails_on_degenerate(spec_file, capsys):
    doc = {"alpha": {"type": "discrete", "atoms": [{"x": "1", "w": "1"},
                                                   {"x": "2", "w": "1"}]},
           "beta": {"type": "discrete", "atoms": [{"x": "1", "w": "1"},
                                                  {"x": "3", "w": "1"}]}}
    # order 3 > points of increase: the family build degenerates -> usage error
    code = main(["verify", spec_file(doc), "-N", "3", "--suite", "tp"])
    assert code == 2


@pytest.mark.parametrize("argv", [["bop", "-n", "400"], ["verify", "-N", "9"]],
                         ids=["bop -n 400", "verify -N 9"])
def test_order_past_the_atoms_refused_before_bimoments(argv, monkeypatch,
                                                       spec_file, capsys):
    # six atoms a side support degrees 0..5 (D_k > 0 exactly for k <= 6)
    from cauchybop.bimoment import compute_bimoments

    def refuse(*args, **kwargs):
        raise AssertionError("bimoments computed for an order the atoms "
                             "cannot support")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cauchybop":
            for attr, value in list(vars(module).items()):
                if value is compute_bimoments:
                    monkeypatch.setattr(module, attr, refuse)
    code = main([argv[0], spec_file(SIX_ATOM)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: degenerate bimoment matrix at order 7\n"


def test_verify_tp_reports_degenerate_minor(spec_file, capsys):
    # two points of increase support the order-1 family; the order-3
    # bimoment block's 3x3 minors vanish by Cauchy-Binet, so the suite
    # certifies through 2x2 (``bimoments`` reports them, with a warning)
    doc = {"alpha": {"type": "discrete", "atoms": [{"x": "1", "w": "1"},
                                                   {"x": "2", "w": "1"}]},
           "beta": {"type": "discrete", "atoms": [{"x": "1", "w": "1"},
                                                  {"x": "3", "w": "1"}]}}
    code, payload = run(capsys, ["verify", spec_file(doc), "-N", "1",
                                 "--suite", "tp"])
    assert code == 0
    assert payload["status"] == "pass"
    assert payload["checks"][0]["name"] == \
        "consecutive minors positive through 2x2"


@pytest.mark.parametrize("mode, label", [
    ("exact", "consecutive minors positive"),
    ("float", "no negative consecutive minor")])
def test_verify_tp_stops_at_the_smaller_atom_count(mode, label, spec_file,
                                                   capsys):
    # 4 atoms a side at -N 3: the order-5 block's 5x5 minors vanish by
    # Cauchy-Binet, and both lanes certify through 4x4
    doc = {side: {"type": "discrete", "atoms": [{"x": x, "w": "1"}
                                                for x in xs]}
           for side, xs in (("alpha", "1234"), ("beta", "1235"))}
    code, payload = run(capsys, ["verify", spec_file(doc), "-N", "3",
                                 "--suite", "tp", "--mode", mode])
    assert code == 0 and payload["status"] == "pass"
    assert payload["checks"][0]["name"] == f"{label} through 4x4"


def test_verify_exact_mode_rejects_density(spec_file, capsys):
    code = main(["verify", spec_file(DENSITY), "-N", "3", "--suite", "tp",
                 "--mode", "exact"])
    assert code == 2


def test_verify_float_on_density(spec_file, capsys):
    code, payload = run(capsys, ["verify", spec_file(DENSITY), "-N", "3",
                                 "--suite", "rhp", "--mode", "float"])
    assert code == 0
    assert payload["status"] == "pass"
    assert any("jump residual slope" in c["name"] for c in payload["checks"])


def test_verify_float_on_discrete_spec(spec_file, capsys):
    # float mode converts the atoms to doubles; the suite self-calibrates
    # its degree window and must still pass
    code, payload = run(capsys, ["verify", spec_file(SIX_ATOM), "-N", "5",
                                 "--suite", "recurrence", "--mode", "float"])
    assert code == 0 and payload["status"] == "pass"
    assert payload["mode"] == "float"


def test_bop_degree_zero(spec_file, capsys):
    code, payload = run(capsys, ["bop", spec_file(TWO_ATOM), "-n", "0"])
    assert code == 0
    assert payload["p_monic"] == ["1"]


def test_bop_degree_one_values(spec_file, capsys):
    code, payload = run(capsys, ["bop", spec_file(TWO_ATOM), "-n", "1",
                                 "--point", "109/77"])
    assert code == 0
    assert payload["p_monic"] == ["-109/77", "1"]
    assert payload["h"] == "2/77"
    assert payload["p_at_point"] == "0"


def test_zeros_command(spec_file, capsys):
    code, payload = run(capsys, ["zeros", spec_file(TWO_ATOM), "-n", "1"])
    assert code == 0
    assert abs(payload["p"]["zeros"][0] - 109 / 77) < 1e-12
    assert payload["p"]["all_positive"]


def test_zeros_broken_interlacing_exits_1(monkeypatch, spec_file, capsys):
    from dataclasses import replace
    from cauchybop import commands
    zeros_of = commands.zeros_of

    def not_interlaced(app, which, n):
        return replace(zeros_of(app, which, n), interlaced_with_previous=False)
    monkeypatch.setattr(commands, "zeros_of", not_interlaced)
    code, payload = run(capsys, ["zeros", spec_file(SIX_ATOM), "-n", "3"])
    assert code == 1
    assert payload["p"]["interlaced_with_previous"] is False


def test_recurrence_command(spec_file, capsys):
    code, payload = run(capsys, ["recurrence", spec_file(SIX_ATOM),
                                 "-N", "4"])
    assert code == 0
    assert F(payload["X"][0][0]) > 0
    assert payload["band_supports"]["Ahat"] == [-2, 1]


def test_rhp_command_exact_point(spec_file, capsys):
    code, payload = run(capsys, ["rhp", spec_file(SIX_ATOM), "-n", "2",
                                 "--point", "10"])
    assert code == 0
    assert payload["det_gamma"] == "1"
    assert payload["det_gamma_hat"] == "1"


def test_rhp_command_jump_table(spec_file, capsys):
    code, payload = run(capsys, ["rhp", spec_file(DENSITY), "-n", "2",
                                 "--eps", "1e-4", "1e-5", "1e-6",
                                 "--mode", "float"])
    assert code == 0
    study = payload["jump_study"]
    assert len(study["residuals"]) == 3
    assert 0.5 <= study["slope"] <= 2.0


def test_malformed_json_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["bimoments", str(p), "-N", "2"]) == 2
    p2 = tmp_path / "bad2.json"
    p2.write_text(json.dumps({"alpha": {"type": "discrete", "atoms": []}}))
    assert main(["bimoments", str(p2), "-N", "2"]) == 2


def test_negative_weight_rejected(spec_file, capsys):
    doc = {"alpha": {"type": "discrete", "atoms": [{"x": "1", "w": "-1"}]},
           "beta": {"type": "discrete", "atoms": [{"x": "1", "w": "1"}]}}
    assert main(["bimoments", spec_file(doc), "-N", "2"]) == 2


def test_theory_violation_exit_code(monkeypatch, spec_file, capsys):
    # unreachable with valid input; force it to pin the exit-code contract
    from cauchybop.errors import TheoryViolationError
    from cauchybop import commands

    def boom(*a, **k):
        raise TheoryViolationError("forced")

    monkeypatch.setattr(commands, "compute_bimoments", boom)
    assert main(["bimoments", spec_file(TWO_ATOM), "-N", "2"]) == 3


def test_usage_error_on_bad_flags(capsys):
    assert main(["bimoments"]) == 2
    assert main(["no-such-command"]) == 2


def test_repeated_main_calls_build_one_parser(monkeypatch, spec_file,
                                              capsys):
    # in-process runs share one parser tree: the program's parser and one
    # parser per subcommand, 7 in all, however many times main runs
    import argparse

    from cauchybop import cli
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    for _ in range(2):
        assert main(["verify", spec_file(SIX_ATOM), "-N", "3", "--suite",
                     "tp"]) == 0
    capsys.readouterr()
    assert len(built) == 7


def test_verify_elapsed_times_the_check(monkeypatch, spec_file, capsys):
    # each suite hands the runner the computation, so a slow oracle shows
    # up in the elapsed time of its own check
    import time

    from cauchybop import suites
    oracle = suites.oracle_dn

    def slow_oracle(*args, **kwargs):
        time.sleep(0.05)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(suites, "oracle_dn", slow_oracle)
    code, payload = run(capsys, ["verify", spec_file(SIX_ATOM), "-N", "3",
                                 "--suite", "tp"])
    assert code == 0
    timed = [c for c in payload["checks"] if "tuple-sum oracle" in c["name"]]
    assert timed and all(c["elapsed"] >= 0.05 for c in timed)


# 17 atoms on each side, one past the tuple-sum oracle's atom limit
SEVENTEEN_ATOM = {
    side: {"type": "discrete",
           "atoms": [{"x": str(k + shift), "w": "1"} for k in range(1, 18)]}
    for side, shift in (("alpha", 0), ("beta", 0.5))}


@pytest.mark.parametrize("spec, N, count, skipped", [
    pytest.param(SIX_ATOM, 3, 44, [
        "extended CD, n=3 [skipped: needs N >= 4]",
        "perfect duality pairing, n=3 [skipped: needs N >= 4]",
        "perfect duality pairing, n=4 [skipped: needs N >= 5]"],
        id="six atoms N=3"),
    pytest.param(SEVENTEEN_ATOM, 4, 52, [
        *(f"leading minor D_{n} equals tuple-sum oracle "
          "[skipped: more than 16 atoms]" for n in range(1, 5)),
        "perfect duality pairing, n=4 [skipped: needs N >= 5]"],
        id="17 atoms N=4"),
])
def test_dropped_checks_are_reported_as_skips(spec, N, count, skipped,
                                              spec_file, capsys):
    code, payload = run(capsys, ["verify", spec_file(spec), "-N", str(N),
                                 "--suite", "all"])
    assert code == 0
    assert len(payload["checks"]) == count
    assert [c["name"] for c in payload["checks"]
            if c["status"] == "skip"] == skipped


ARRAY_SPEC = [SIX_ATOM["alpha"], SIX_ATOM["beta"]]
ZERO_DENOMINATOR = {"alpha": {"type": "discrete", "atoms": [
    {"x": "1", "w": "1/0"}]}, "beta": SIX_ATOM["beta"]}
ZERO_HBAR = {"alpha": {**DENSITY["alpha"], "potential": {"coeffs": [],
                                                         "hbar": 0.0}},
             "beta": DENSITY["beta"]}
# exact atoms against a density: the float lane, with one density only
MIXED = {"alpha": SIX_ATOM["alpha"], "beta": DENSITY["beta"]}
CLENSHAW_CURTIS = {"alpha": DENSITY["alpha"], "beta": {
    **DENSITY["beta"], "quadrature": {"rule": "clenshaw-curtis"}}}
QUADRATURE_STRING = {"alpha": DENSITY["alpha"], "beta": {
    **DENSITY["beta"], "quadrature": "gauss-legendre"}}
LATTICE = {"alpha": {"type": "lattice", "step": "1"}, "beta": SIX_ATOM["beta"]}
MISSING = None      # no spec file: the path names nothing
#: an atom past the float range, and one whose square is past it
BEYOND_FLOAT = {"alpha": {"type": "discrete", "atoms": [
    {"x": "1e400", "w": "1"}, {"x": "2", "w": "1"}]}, "beta": TWO_ATOM["beta"]}
SQUARE_BEYOND_FLOAT = {"alpha": {"type": "discrete", "atoms": [
    {"x": "1e200", "w": "1"}, {"x": "2", "w": "1"}]}, "beta": TWO_ATOM["beta"]}
#: a Gauss-Legendre rule numpy would ask 728 TiB for
HUGE_QUADRATURE = {"alpha": DENSITY["alpha"], "beta": {
    **DENSITY["beta"], "quadrature": {"order": 10000000}}}
#: quadrature orders that int() would read as 2 and as 1
FRACTIONAL_ORDER, BOOLEAN_ORDER = (
    {"alpha": DENSITY["alpha"], "beta": {
        **DENSITY["beta"], "quadrature": {"order": order}}}
    for order in (2.5, True))
#: exp(800 x) on [1, 2] passes the float range; one node, at 1.5
OVERFLOWING_DENSITY = {"alpha": {**DENSITY["alpha"], "potential": {
    "coeffs": [0.0, -800.0]}, "quadrature": {"order": 1}},
    "beta": DENSITY["beta"]}
#: bimoments past the float range: a power sum comes out inf
OVERFLOWING_WEIGHT = {"alpha": {"type": "discrete", "atoms": [
    {**SIX_ATOM["alpha"]["atoms"][0], "w": "1e308"},
    *SIX_ATOM["alpha"]["atoms"][1:]]}, "beta": SIX_ATOM["beta"]}
#: json reads Infinity as a float; a support must be a compact interval
INFINITE_SUPPORT = {"alpha": {**DENSITY["alpha"],
                              "support": [1.0, float("inf")]},
                    "beta": DENSITY["beta"]}
#: a 16614-bit denominator, past the 4300-digit int-to-str limit
TINY_WEIGHT = {"alpha": {"type": "discrete", "atoms": [
    {"x": "1", "w": "1e-5000"}, {"x": "2", "w": "1"}]},
    "beta": TWO_ATOM["beta"]}
MESSAGES = {
    ("rhp", "-n", "1"): "error: -n must be at least 2, got 1\n",
    ("rhp", "-n", "2", "--point="): "error: --point must be a decimal or p/q "
        "rational, got ''\n",
    ("verify", "-N", "2"): "error: -N must be at least 3, got 2\n",
    ("rhp", "-n", "2", "--eps", "1e-4", "1e-5"):
        "error: --eps (the jump study) needs density measures on both sides\n",
    ("verify", "-N", "3", "--mode", "float", "--eps", "1e-4"):
        "error: --eps needs at least 2 distinct values, got 1\n",
    ("verify", "-N", "3", "--suite", "rhp", "--eps", "1e-4", "1e-5"):
        "error: --eps (the jump study) needs density measures on both sides\n",
    ("rhp", "-n", "2", "--mode", "float", "--eps", "1e-4", "1e-5", "--point",
     "3"): "error: --point is not read by the jump study (--eps)\n",
    ("bimoments", "-N", "3", "--mode", "float"): "error: malformed measure "
        "spec: unsupported quadrature rule 'clenshaw-curtis'\n",
    ("bimoments", "-N", "4", "--mode", "float"): "error: malformed measure "
        "spec: quadrature must be an object, got 'gauss-legendre'\n",
    ("bimoments", "-N", "5"): "error: unknown measure type 'lattice'\n",
    ("zeros", "-n", "2"): "error: cannot read spec: [Errno 2] No such file "
        "or directory: '{path}'\n",
    **dict.fromkeys([("bimoments", "-N", "1", "--mode", "float"),
                     ("zeros", "-n", "2", "--mode", "float"),
                     ("bop", "-n", "3", "--mode", "float"),
                     ("rhp", "-n", "2", "--mode", "float")],
                    "error: precision exhausted: an atom position "
                    "overflows a float\n"),
    ("bop", "-n", "1", "--mode", "float"): "error: precision exhausted: "
        "1e+200 ** 2 overflows a float\n",
    ("bimoments", "-N", "6", "--mode", "float"): "error: malformed measure "
        "spec: quadrature node count must be in 1..1000, got 10000000\n",
    ("bimoments", "-N", "7", "--mode", "float"): "error: malformed measure "
        "spec: quadrature order must be an integer, got 2.5\n",
    ("bimoments", "-N", "8", "--mode", "float"): "error: malformed measure "
        "spec: quadrature order must be an integer, got True\n",
    **dict.fromkeys([("bimoments", "-N", "9", "--mode", "float"),
                     ("verify", "-N", "4", "--mode", "float"),
                     ("bop", "-n", "2", "--mode", "float")],
                    "error: invalid density: inf at node 1.5\n"),
    ("bop", "-n", "1"): "error: precision exhausted: a rational of 16614 "
        "bits passes the digit limit of decimal output\n",
    ("bimoments", "-N", "10", "--mode", "float"): "error: precision exhausted: a float value came out inf\n",
    ("verify", "-N", "5", "--mode", "float"): "error: malformed measure "
        "spec: support must satisfy 0 <= a < b < inf, got [1.0, inf]\n",
    **{(cmd, "-n", n, "--mode", "float", "--point", "1e400"): "error: "
       "precision exhausted: --point 1e400 overflows a float\n"
       for cmd, n in (("bop", "3"), ("rhp", "2"))},
    **{("rhp", "-n", "3", "--mode", "float", "--point", point): "error: "
       "precision exhausted: a float value came out nan\n"
       for point in ("1e200", "1e300")},
}


@pytest.mark.parametrize("argv, spec", [
    pytest.param(argv, spec, id=" ".join(argv) + suffix)
    for argv, spec, suffix in [
        (["verify", "-N", "1"], SIX_ATOM, ""),
        (["verify", "-N", "0"], SIX_ATOM, ""),
        (["verify", "-N", "-1"], SIX_ATOM, ""),
        (["bimoments", "-N", "0"], SIX_ATOM, ""),
        (["bop", "-n", "-1"], SIX_ATOM, ""),
        (["recurrence", "-N", "-1"], SIX_ATOM, ""),
        (["bimoments", "-N", "3", "--kmax", "0"], SIX_ATOM, ""),
        (["verify", "-N", "3", "--kmax", "0"], SIX_ATOM, ""),
        (["rhp", "-n", "0"], SIX_ATOM, ""),
        (["rhp", "-n", "1"], SIX_ATOM, ""),
        (["rhp", "-n", "2", "--point", "x"], SIX_ATOM, ""),
        (["rhp", "-n", "2", "--point="], SIX_ATOM, ""),
        (["bop", "-n", "2", "--point", "x"], SIX_ATOM, ""),
        (["verify", "-N", "3"], ARRAY_SPEC, " [array spec]"),
        (["verify", "-N", "3", "--mode", "float", "--eps", "0"], DENSITY, ""),
        (["rhp", "-n", "2", "--mode", "float", "--eps", "0"], DENSITY, ""),
        (["verify", "-N", "2"], SIX_ATOM, ""),
        (["bimoments", "-N", "2"], ZERO_DENOMINATOR, " [weight 1/0]"),
        (["bimoments", "-N", "2", "--mode", "float"], ZERO_HBAR,
         " [hbar 0]"),
        (["rhp", "-n", "2", "--eps", "1e-4", "1e-5"], MIXED,
         " [one density]"),
        (["rhp", "-n", "2", "--mode", "float", "--eps", "1e-4", "1e-4"],
         DENSITY, ""),
        (["verify", "-N", "3", "--mode", "float", "--eps", "1e-4"], DENSITY,
         ""),
        (["verify", "-N", "3", "--suite", "rhp", "--eps", "1e-4", "1e-5"],
         SIX_ATOM, ""),
        (["rhp", "-n", "2", "--mode", "float", "--eps", "1e-4", "1e-5",
          "--point", "3"], DENSITY, ""),
        (["bimoments", "-N", "3", "--mode", "float"], CLENSHAW_CURTIS,
         " [clenshaw-curtis]"),
        (["bimoments", "-N", "4", "--mode", "float"], QUADRATURE_STRING,
         " [quadrature not an object]"),
        (["bimoments", "-N", "5"], LATTICE, " [unknown measure type]"),
        (["zeros", "-n", "2"], MISSING, " [unreadable spec]"),
        *[(argv, BEYOND_FLOAT, " [atom past the float range]") for argv in (
            ["bimoments", "-N", "1", "--mode", "float"],
            ["zeros", "-n", "2", "--mode", "float"],
            ["bop", "-n", "3", "--mode", "float"],
            ["rhp", "-n", "2", "--mode", "float"])],
        (["bop", "-n", "1", "--mode", "float"], SQUARE_BEYOND_FLOAT,
         " [power past the float range]"),
        (["bimoments", "-N", "6", "--mode", "float"], HUGE_QUADRATURE,
         " [quadrature order]"),
        (["bimoments", "-N", "7", "--mode", "float"], FRACTIONAL_ORDER,
         " [fractional quadrature order]"),
        (["bimoments", "-N", "8", "--mode", "float"], BOOLEAN_ORDER,
         " [boolean quadrature order]"),
        (["bimoments", "-N", "9", "--mode", "float"], OVERFLOWING_DENSITY,
         " [density past the float range]"),
        (["verify", "-N", "4", "--mode", "float"], OVERFLOWING_DENSITY,
         " [density past the float range]"),
        (["bop", "-n", "2", "--mode", "float"], OVERFLOWING_DENSITY,
         " [density past the float range]"),
        (["bimoments", "-N", "2"], TINY_WEIGHT, " [rational past the digit "
         "limit]"),
        (["bop", "-n", "1"], TINY_WEIGHT, " [rational past the digit limit]"),
        (["bimoments", "-N", "10", "--mode", "float"], OVERFLOWING_WEIGHT, " [power sum past the float range]"),
        (["verify", "-N", "5", "--mode", "float"], INFINITE_SUPPORT,
         " [infinite support]"),
        (["bop", "-n", "3", "--mode", "float", "--point", "1e400"], SIX_ATOM,
         " [point past the float range]"),
        (["rhp", "-n", "2", "--mode", "float", "--point", "1e400"], SIX_ATOM,
         " [point past the float range]"),
        (["rhp", "-n", "3", "--mode", "float", "--point", "1e200"], SIX_ATOM,
         " [Gamma past the float range]"),
        (["rhp", "-n", "3", "--mode", "float", "--point", "1e300"], SIX_ATOM,
         " [Gamma past the float range]"),
    ]])
def test_bad_order_arguments_exit_2(argv, spec, spec_file, tmp_path, capsys):
    path = (str(tmp_path / "missing.json") if spec is MISSING
            else spec_file(spec))
    code = main([argv[0], path] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1
    if tuple(argv) in MESSAGES:
        assert captured.err == MESSAGES[tuple(argv)].format(path=path)


# 10**999999999 is a 415 MB integer, hours of work to build
@pytest.mark.parametrize("argv, spec", [
    (["bimoments", "-N", "2"], {**TWO_ATOM, "alpha": {
        "type": "discrete", "atoms": [{"x": "1e999999999", "w": "1"}]}}),
    (["bop", "-n", "1", "--point", "1e999999999"], TWO_ATOM)],
    ids=["atom", "point"])
def test_huge_decimal_exponent_exits_2_within_a_second(argv, spec, spec_file,
                                                       capsys):
    t0 = time.perf_counter()
    code = main([argv[0], spec_file(spec)] + argv[1:])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert capsys.readouterr() == ("", "error: precision exhausted: decimal "
                                   "exponent 999999999 exceeds 315652\n")


# literals just inside the parse bound: 1.05 M-bit integers whose power
# sums would take gcds of millions of bits for minutes
@pytest.mark.parametrize("x", ["1e-315000", "1e315000"])
def test_literal_inside_the_parse_bound_exits_2_within_2_s(x, spec_file,
                                                           capsys):
    spec = {**TWO_ATOM, "alpha": {"type": "discrete",
                                  "atoms": [{"x": x, "w": "1"}]}}
    t0 = time.perf_counter()
    code = main(["bimoments", spec_file(spec), "-N", "2"])
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: precision exhausted:")
    assert len(err.splitlines()) == 1


def test_bimoments_float_on_density(spec_file, capsys):
    # a density spec is discretized before the bimoments are formed
    code, payload = run(capsys, ["bimoments", spec_file(DENSITY), "-N", "3",
                                 "--mode", "float"])
    assert code == 0 and payload["rank_one_shift"] == "pass"
    assert payload["total_positivity"]["passed"]
    assert len(payload["I"]) == 3 and len(payload["D"]) == 3
    assert all(float(d) > 0 for d in payload["D"])


def test_bimoments_float_order_one(spec_file, capsys):
    # at N=1 the shift identity has no window to check
    code, payload = run(capsys, ["bimoments", spec_file(SIX_ATOM), "-N", "1",
                                 "--mode", "float"])
    assert code == 0 and payload["rank_one_shift"] == "pass"


def test_rhp_suite_builds_the_gamma_expansion_once(monkeypatch, spec_file,
                                                  capsys):
    # the asymptotic check and the constant recovery read one expansion of
    # Gamma (q side); Gammahat (p side) is expanded once too
    from cauchybop import rhp
    from cauchybop.transforms import SeriesBackend
    aux_columns, builds = rhp.aux_columns, []

    def counted(app, side, top, backend):
        if isinstance(backend, SeriesBackend):
            builds.append(side)
        return aux_columns(app, side, top, backend)
    monkeypatch.setattr(rhp, "aux_columns", counted)
    code, payload = run(capsys, ["verify", spec_file(SIX_ATOM), "-N", "5",
                                 "--suite", "rhp"])
    assert code == 0 and payload["status"] == "pass"
    assert sorted(builds) == ["p", "q"]


def test_verify_one_density_skips_the_jump_study(spec_file, capsys):
    code, payload = run(capsys, ["verify", spec_file(MIXED), "-N", "3",
                                 "--suite", "rhp", "--mode", "float"])
    assert code == 0 and payload["status"] == "pass"
    assert not any("jump" in c["name"] for c in payload["checks"])


# ROADMAP sample spec D: exp(-x) on [0.5, 2] against
# exp(-(0.5 y + 0.1 y^2)) on [0.25, 3], default 64-node quadrature
D_SPEC = {
    "alpha": {"type": "density", "support": [0.5, 2.0],
              "potential": {"coeffs": [0.0, 1.0]}},
    "beta": {"type": "density", "support": [0.25, 3.0],
             "potential": {"coeffs": [0.0, 0.5, 0.1]}},
}


# exp(400 x) against exp(-y), both on [0.5, 1.5] with 16 nodes: the float
# bimoments reach ~1e257, so at N=3 the tp suite's 5x5 minors overflow, and
# at N=5 the average pi_5 comes out 0.0 while the family is built
HUGE_DENSITY = {
    side: {"type": "density", "support": [0.5, 1.5],
           "potential": {"coeffs": [0.0, c]},
           "quadrature": {"rule": "gauss-legendre", "order": 16}}
    for side, c in (("alpha", -400.0), ("beta", 1.0))}


@pytest.mark.parametrize("order", ["3", "5"])
def test_float_precision_limits_exit_2(order, spec_file, capsys):
    code = main(["verify", spec_file(HUGE_DENSITY), "-N", order,
                 "--mode", "float"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    assert captured.out == ""
    assert captured.err.startswith("error: precision exhausted")
    assert len(captured.err.splitlines()) == 1


def test_zeros_float_matches_exact(spec_file, capsys):
    path = spec_file(SIX_ATOM)
    code, exact = run(capsys, ["zeros", path, "-n", "3"])
    assert code == 0
    code, flt = run(capsys, ["zeros", path, "-n", "3", "--mode", "float"])
    assert code == 0
    assert len(flt["p"]["zeros"]) == 3
    for a, b in zip(exact["p"]["zeros"], flt["p"]["zeros"]):
        assert abs(a - b) <= 1e-9


def test_zeros_float_non_real_eigenvalues_exit_2(spec_file, capsys):
    code = main(["zeros", spec_file(D_SPEC), "-n", "12", "--mode", "float"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_bop_float_negative_norm_exit_2(spec_file, capsys):
    # D's float h_9 comes out negative, so c_9 = sqrt(h_9) does not exist
    code = main(["bop", spec_file(D_SPEC), "-n", "9", "--mode", "float"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: precision exhausted")
    assert len(captured.err.splitlines()) == 1


def test_zeros_float_past_degree_cap_exit_2(spec_file, capsys):
    # D's defect ladder is clean only through degree 3 (6.6e-7 at degree 4)
    code = main(["zeros", spec_file(D_SPEC), "-n", "4", "--mode", "float"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


# Run in a fresh interpreter, since other test modules import numpy into
# this one: prints whether numpy is loaded after `import cauchybop`, then
# each command's exit code and the same flag after it.
NUMPY_PROBE = """
import contextlib, io, json, sys
import cauchybop
from cauchybop.cli import main
seen = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([main(argv), "numpy" in sys.modules])
print(json.dumps(seen))
"""


@pytest.mark.parametrize("commands, loads_numpy", [
    pytest.param([["verify", "SIX", "-N", "5", "--suite", "all"],
                  ["bimoments", "SIX", "-N", "4"],
                  ["bop", "SIX", "-n", "3", "--point", "1/3"],
                  ["recurrence", "SIX", "-N", "4"],
                  ["rhp", "SIX", "-n", "2"]], False, id="exact lane"),
    pytest.param([["verify", "DENSITY", "-N", "3", "--suite", "rhp",
                   "--mode", "float"]], True, id="float verify"),
    pytest.param([["zeros", "SIX", "-n", "3"]], True, id="zeros"),
])
def test_only_float_lane_and_zeros_load_numpy(commands, loads_numpy,
                                              spec_file):
    import os
    import subprocess
    import sys

    import cauchybop
    paths = {"SIX": spec_file(SIX_ATOM, "six.json"),
             "DENSITY": spec_file(DENSITY, "density.json")}
    argvs = [[argv[0], paths[argv[1]]] + argv[2:] for argv in commands]
    src = os.path.dirname(os.path.dirname(cauchybop.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", NUMPY_PROBE,
                          json.dumps(argvs)], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    after_import, *runs = json.loads(out)
    assert after_import is False
    assert runs == [[0, loads_numpy]] * len(commands)


# The subcommands judge by the verify suites' checks and degree window.


def test_bimoments_float_shift_is_judged_relative(spec_file, capsys):
    # the shift residual reaches 4.8e-7 against bimoments of 6.3e9: 7.6e-17
    # relative, as the tp suite measures it
    code, payload = run(capsys, ["bimoments", spec_file(SIX_ATOM), "-N", "8",
                                 "--mode", "float"])
    assert code == 0 and payload["rank_one_shift"] == "pass"


def test_rhp_float_det_within_the_rhp_suite_tolerance(spec_file, capsys):
    # det Gammahat - 1 = 1.9e-11, inside the rhp suite's float tolerance
    code, payload = run(capsys, ["rhp", spec_file(SIX_ATOM), "-n", "3",
                                 "--mode", "float"])
    assert code == 0
    assert abs(float(payload["det_gamma_hat"]) - 1) > 1e-12


@pytest.mark.parametrize("argv, spec", [
    pytest.param(["rhp", "-n", "4"], SIX_ATOM, id="rhp six -n 4"),
    pytest.param(["bop", "-n", "10"], D_SPEC, id="bop D -n 10"),
])
def test_float_degree_past_cap_exit_2(argv, spec, spec_file, capsys):
    code = main([argv[0], spec_file(spec)] + argv[1:] + ["--mode", "float"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: precision exhausted:")
    assert len(captured.err.splitlines()) == 1


def test_verify_computes_the_float_cap_once(monkeypatch, spec_file, capsys):
    # counted under every name that binds it, as perfbench's tracer does
    from cauchybop.bundle import reliable_degree_cap
    calls = []

    def counted(app):
        calls.append(app.N)
        return reliable_degree_cap(app)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cauchybop":
            for attr, value in list(vars(module).items()):
                if value is reliable_degree_cap:
                    monkeypatch.setattr(module, attr, counted)
    code, payload = run(capsys, ["verify", spec_file(SIX_ATOM), "-N", "5",
                                 "--suite", "all", "--mode", "float"])
    assert code == 0 and payload["status"] == "pass"
    assert calls == [5]


def _count_eliminations(monkeypatch):
    """Patch the Doolittle loop; return the list of (order, tables) of its
    runs."""
    from cauchybop.bimoment import BimomentMatrix
    ldu = BimomentMatrix.__dict__["ldu"]
    eliminate, runs = ldu.func, []

    def counted(I):
        runs.append((I.order, eliminate(I)))
        return runs[-1][1]
    monkeypatch.setattr(ldu, "func", counted)
    return runs


def test_float_verify_eliminates_the_bimoments_once(monkeypatch, spec_file,
                                                   capsys):
    # the family, X and Y and the ladder's degree N + 1 share one LDU: the
    # float apparatus keeps its tables
    runs = _count_eliminations(monkeypatch)
    code, payload = run(capsys, ["verify", spec_file(DENSITY), "-N", "4",
                                 "--suite", "all", "--mode", "float"])
    assert code == 0 and payload["status"] == "pass"
    assert [order for order, _ in runs] == [6]


def _reachable(root) -> set:
    """ids of every object reachable from root through instance attributes
    and container items (classes, modules and functions not followed)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") and not isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            stack.extend(vars(obj).values())
    return seen


def test_exact_apparatus_keeps_no_elimination_table(monkeypatch,
                                                    six_atom_pair):
    from cauchybop import build_apparatus
    runs = _count_eliminations(monkeypatch)
    app = build_apparatus(*six_atom_pair, N=5)
    assert len(runs) == 1
    *tables, h = runs[0][1]
    table_ids = {id(t) for t in tables} | {id(r) for t in tables for r in t}
    assert not table_ids & _reachable(app)
    # the minors are read off the kept pivots, with no second elimination
    D = app.I.leading_minors()
    assert D[:len(h)] == tuple(itertools.accumulate(h, operator.mul))
    assert len(runs) == 1


def test_exact_verify_eliminates_the_bimoments_once(monkeypatch, spec_file,
                                                   capsys):
    runs = _count_eliminations(monkeypatch)
    code, payload = run(capsys, ["verify", spec_file(SIX_ATOM), "-N", "5",
                                 "--suite", "all"])
    assert code == 0 and payload["status"] == "pass"
    assert len(runs) == 1


#: SIX_ATOM with every alpha weight scaled by 1e-100: D_4 is about 1e-400
TINY_ALPHA = {**SIX_ATOM, "alpha": {"type": "discrete", "atoms": [
    {**a, "w": a["w"] + "e-100"} for a in SIX_ATOM["alpha"]["atoms"]]}}


def test_tp_suite_judges_minors_below_the_double_range(spec_file, capsys):
    # the exact residual is formed exactly, then converted for the report
    code, payload = run(capsys, ["verify", spec_file(TINY_ALPHA), "-N", "4",
                                 "--suite", "tp"])
    assert code == 0
    minors = [c for c in payload["checks"] if c["name"].startswith("leading")]
    assert [(c["status"], c["residual"]) for c in minors] == [("pass", "0.0")] * 4


def test_tp_suite_skips_a_float_minor_below_the_double_range(spec_file,
                                                             capsys):
    # the float D_4 underflows to 0.0 and cannot be judged; the float floor
    # underflows to 0.0 too, and a 0.0 minor is still not negative
    code = main(["verify", spec_file(TINY_ALPHA), "-N", "4", "--suite", "tp",
                 "--mode", "float"])
    out, err = capsys.readouterr()
    checks = json.loads(out)["checks"]
    minors = [c for c in checks if c["name"].startswith("leading")]
    assert err == "" and [c["status"] for c in minors] == ["pass"] * 3 + ["skip"]
    assert minors[3]["name"].endswith("[skipped: below the double range]")
    assert code == 0
    assert (checks[0]["name"], checks[0]["status"]) == (
        "no negative consecutive minor through 6x6", "pass")


def test_float_tp_suite_refuses_minors_past_the_double_range(spec_file,
                                                             capsys):
    # alpha weights x 1e35: products of 5x5 minors overflow in condensation
    # while the floor 1e-12 (6 scale)**6 does not; the exact lane passes
    doc = {**SIX_ATOM, "alpha": {"type": "discrete", "atoms": [
        {**a, "w": a["w"] + "e35"} for a in SIX_ATOM["alpha"]["atoms"]]}}
    path = spec_file(doc)
    code = main(["verify", path, "-N", "4", "--suite", "tp", "--mode",
                 "float"])
    assert (code, capsys.readouterr()) == (
        2, ("", "error: precision exhausted: a float value came out nan\n"))
    code, payload = run(capsys, ["verify", path, "-N", "4", "--suite", "tp"])
    assert code == 0 and payload["checks"][0]["status"] == "pass"


def test_format_scalar_refuses_a_rational_past_the_digit_limit():
    from cauchybop.errors import PrecisionExhaustedError
    from cauchybop.scalars import format_scalar
    assert format_scalar(F(1, 10 ** 4000)) == f"1/{10 ** 4000}"
    with pytest.raises(PrecisionExhaustedError, match="16610 bits"):
        format_scalar(F(1, 10 ** 5000))


def test_pade_suite_builds_each_markov_transform_once(monkeypatch, spec_file,
                                                      capsys):
    from cauchybop import nikishin
    tags = []

    def counted(alpha, beta, tag):
        tags.append(tag)
        return markov(alpha, beta, tag)
    markov = nikishin.markov
    monkeypatch.setattr(nikishin, "markov", counted)
    code, payload = run(capsys, ["verify", spec_file(SIX_ATOM), "-N", "5",
                                 "--suite", "pade"])
    assert code == 0 and payload["status"] == "pass"
    assert sorted(tags) == sorted(nikishin.MARKOV_TAGS)


@pytest.fixture
def aux_builds(monkeypatch):
    """(apparatus, side, degree) of every build of auxiliary transforms."""
    from cauchybop import transforms
    aux_transforms, builds = transforms.aux_transforms, []

    def counted(app, side, j):
        builds.append((app, side, j))
        return aux_transforms(app, side, j)
    monkeypatch.setattr(transforms, "aux_transforms", counted)
    return builds


def built_degrees(builds):
    return sorted((side, j) for _, side, j in builds)


def test_verify_builds_each_side_of_the_aux_transforms_once(aux_builds,
                                                            spec_file, capsys):
    code, payload = run(capsys, ["verify", spec_file(SIX_ATOM), "-N", "5",
                                 "--suite", "all"])
    assert code == 0 and payload["status"] == "pass"
    assert built_degrees(aux_builds) == [(side, j) for side in "pq"
                                         for j in range(6)]


def test_pade_suite_alone_builds_each_aux_degree_once_and_no_other_fold(
        monkeypatch, aux_builds, spec_file, capsys):
    # problem q reads side q, problems p and switched side p, at n <= 4.  A
    # fold weights one transform by another; the remainders take theirs off
    # the auxiliary transforms, so the only folds are app.markov's four and
    # one outer transform per aux build
    from cauchybop.transforms import MarkovFunction
    weighted, weights = MarkovFunction.weighted, []

    def counted(self, fn, tag):
        weights.append(fn)
        return weighted(self, fn, tag)
    monkeypatch.setattr(MarkovFunction, "weighted", counted)
    code, payload = run(capsys, ["verify", spec_file(SIX_ATOM), "-N", "5",
                                 "--suite", "pade"])
    assert code == 0 and payload["status"] == "pass"
    assert built_degrees(aux_builds) == [(side, j) for side in "pq"
                                         for j in range(5)]
    folds = [fn for fn in weights if isinstance(fn, MarkovFunction)]
    assert len(folds) == 4 + len(aux_builds)


@pytest.mark.parametrize("spec, argv", [
    (SIX_ATOM, ["-N", "5"]),
    (DENSITY, ["-N", "8", "--mode", "float"]),
], ids=["exact", "float"])
def test_each_suite_alone_reports_what_it_reports_in_all(spec, argv,
                                                         spec_file, capsys):
    # the suites share the apparatus's caches; the order they fill them in
    # changes no result
    def triples(suite):
        code, payload = run(capsys, ["verify", spec_file(spec), *argv,
                                     "--suite", suite])
        assert code == 0
        return [(c["name"], c["status"], c["residual"])
                for c in payload["checks"]]
    alone = [t for suite in ("tp", "recurrence", "cdi", "pade", "duality",
                             "rhp") for t in triples(suite)]
    assert alone == triples("all")


TEN_ATOM = {side: {"type": "discrete", "atoms": [
    {"x": str(x + shift), "w": w} for x, w in zip(range(1, 11), weights)]}
    for side, shift, weights in (
        ("alpha", 0, ["1", "1/2", "1", "2", "1", "3/4", "1", "1/3", "1", "1"]),
        ("beta", -0.5, ["1", "2", "1", "1/5", "1", "1", "3/2", "1", "1",
                        "1"]))}


def test_exact_verify_builds_no_aux_degree_past_5(aux_builds, spec_file,
                                                  capsys):
    # the duality windows read degree n + 1 <= 5 and the rhp suite n = 3
    code, payload = run(capsys, ["verify", spec_file(TEN_ATOM), "-N", "8",
                                 "--suite", "all"])
    assert code == 0 and payload["status"] == "pass"
    assert built_degrees(aux_builds) == [(side, j) for side in "pq"
                                         for j in range(6)]


def test_float_verify_builds_no_aux_degree_past_the_cap(aux_builds,
                                                        spec_file, capsys):
    # windows stop at the cap and read one degree past it; rhp reads n = 2
    code, payload = run(capsys, ["verify", spec_file(DENSITY), "-N", "8",
                                 "--suite", "all", "--mode", "float"])
    assert code == 0 and payload["status"] == "pass"
    top = max(aux_builds[0][0].cap + 1, 2)
    assert top < 8
    assert built_degrees(aux_builds) == [(side, j) for side in "pq"
                                         for j in range(top + 1)]


@pytest.mark.parametrize("argv", [
    ["verify", "-N", "5", "--suite", "all"],
    ["bop", "-n", "3"],
    ["zeros", "-n", "3"],
    ["recurrence", "-N", "4"],
    ["rhp", "-n", "2", "--point", "10"],
], ids=["verify", "bop", "zeros", "recurrence", "rhp"])
def test_no_command_builds_the_hatted_family(argv, hatted_builds, spec_file,
                                             capsys):
    # the CD checks form the hatted values by the hatted combination
    code, _ = run(capsys, [argv[0], spec_file(SIX_ATOM), *argv[1:]])
    assert code == 0
    assert hatted_builds == []


def test_extended_cd_builds_f_matrix_once_per_window(monkeypatch, spec_file,
                                                     capsys):
    from cauchybop import nikishin
    calls = []

    def counting(fn):
        def counted(app, w, z):
            calls.append(fn.__name__)
            return fn(app, w, z)
        return counted
    for fn in (nikishin.f_matrix, nikishin.f_hat_matrix):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "cauchybop" and \
                    getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting(fn))
    code, payload = run(capsys, ["verify", spec_file(SIX_ATOM), "-N", "5",
                                 "--suite", "duality"])
    assert code == 0 and payload["status"] == "pass"
    windows = [c for c in payload["checks"]
               if c["name"].startswith("extended CD residual")]
    hatted = [c for c in payload["checks"]
              if c["name"].startswith("hatted extended CD residual")]
    assert len(windows) == len(hatted) == 2
    # one F per plain window, one Fhat per hatted window, and the F that
    # f_hat_matrix reads its hatted matrix off
    assert calls.count("f_hat_matrix") == len(hatted)
    assert calls.count("f_matrix") == len(windows) + len(hatted)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_perturbed_hatted_constant_matrix_fails(mode, monkeypatch, spec_file,
                                                capsys):
    from cauchybop import suites

    def perturbed(app, w, z):
        Fhat = [list(row) for row in f_hat_matrix(app, w, z)]
        Fhat[2][2] += 1
        return Fhat
    f_hat_matrix = suites.f_hat_matrix
    monkeypatch.setattr(suites, "f_hat_matrix", perturbed)
    code, payload = run(capsys, ["verify", spec_file(SIX_ATOM), "-N", "5",
                                 "--suite", "duality", "--mode", mode])
    assert code == 1
    failed = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
    assert failed and all(name.startswith("hatted extended CD residual")
                          for name in failed)


# exp(-(0.38 x + 0.23 x^2)) on [0.3, 1.75] against exp(-(0.72 y + 0.29 y^2))
# on [0.37, 3.03], default 64-node quadrature.  Its plain, hatted and
# extended CD residuals at n = 2 read 2e-3 to 3e-3 when the sample points
# had x + y = 0, where both sides vanish and the window product's rounding
# noise is measured against 1.
CD_DENSITY = {
    side: {"type": "density", "support": support,
           "potential": {"coeffs": [0.0, c1, c2]}}
    for side, support, c1, c2 in (("alpha", [0.3, 1.75], 0.38, 0.23),
                                  ("beta", [0.37, 3.03], 0.72, 0.29))}


@pytest.mark.parametrize("suite", ["cdi", "duality"])
def test_float_cd_checks_pass_off_antipodal_points(suite, spec_file, capsys):
    code, payload = run(capsys, ["verify", spec_file(CD_DENSITY), "-N", "4",
                                 "--suite", suite, "--mode", "float"])
    cd = [c for c in payload["checks"]
          if "CD" in c["name"] and c["status"] != "skip"]
    assert cd and all(c["status"] == "pass" for c in cd)
    assert code == 0


@pytest.mark.parametrize("argv", [["bimoments", "-N", "3"],
                                  ["bop", "-n", "2"], ["zeros", "-n", "2"],
                                  ["recurrence", "-N", "3"],
                                  ["rhp", "-n", "2"]],
                         ids=lambda argv: argv[0])
def test_exact_mode_refuses_a_density(argv, spec_file, capsys):
    code = main([argv[0], spec_file(DENSITY)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: exact mode requires discrete-rational " \
        "measures\n"


def test_tp_floor_uses_the_clipped_kmax(monkeypatch, spec_file, capsys):
    # -N 3 builds bimoments of order 5, so --kmax 12 certifies 5x5 minors
    from cauchybop import checks
    seen = []
    certify = checks.check_total_positivity

    def captured(I, kmax, tol=0.0):
        seen.append((I, kmax, tol))
        return certify(I, kmax, tol=tol)
    monkeypatch.setattr(checks, "check_total_positivity", captured)
    code, _ = run(capsys, ["verify", spec_file(SIX_ATOM), "-N", "3",
                           "--kmax", "12", "--suite", "tp", "--mode", "float"])
    assert code == 0
    [(I, kmax, tol)] = seen
    scale = max(abs(v) for row in I.entries for v in row)
    assert kmax == 5 == I.order
    assert tol == 1e-12 * (5 * scale) ** 5


def test_closed_stdout_exits_2_without_traceback(spec_file):
    import os
    import subprocess
    import sys

    import cauchybop
    src = os.path.dirname(os.path.dirname(cauchybop.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cauchybop.cli", "verify",
         spec_file(SIX_ATOM), "-N", "3", "--suite", "tp"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()           # the reader goes away before the report
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    proc.stderr.close()
    assert "Traceback" not in err
    assert err.startswith("error:") and len(err.splitlines()) == 1


# The float jump study reads each density's one quadrature rule.

JUMP_STUDY = ["-n", "2", "--mode", "float", "--eps", "1e-4", "1e-5", "1e-6"]


def density_spec(order):
    return {side: {**m, "quadrature": {"rule": "gauss-legendre",
                                       "order": order}}
            for side, m in DENSITY.items()}


@pytest.mark.parametrize("order", [31, 33, 95, 96, 97])
@pytest.mark.parametrize("command", ["verify", "rhp"])
def test_jump_study_passes_at_odd_and_even_orders(order, command, spec_file,
                                                  capsys):
    # at an odd order the middle of supp(db), where the study sits, is a
    # node, and the split transform's subtracted term there is 0/0
    import warnings
    argv = ([command, spec_file(density_spec(order))]
            + (["-N", "3", "--mode", "float"] if command == "verify"
               else JUMP_STUDY))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, payload = run(capsys, argv)
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if command == "rhp":
        assert 0.5 <= payload["jump_study"]["slope"] <= 2.0
    else:
        assert payload["status"] == "pass"
        assert any(c["name"].startswith("jump residual slope")
                   for c in payload["checks"])


@pytest.mark.parametrize("argv", [
    ["verify", "-N", "3", "--suite", "rhp", "--mode", "float"],
    ["rhp", *JUMP_STUDY],
], ids=["verify rhp suite", "rhp jump study"])
def test_each_density_forms_its_quadrature_rule_once(argv, leggauss_calls,
                                                     spec_file, capsys):
    code, _ = run(capsys, [argv[0], spec_file(DENSITY), *argv[1:]])
    assert code == 0
    assert leggauss_calls == [96, 96]


# Float determinants take the Bareiss route of the exact lane.


@pytest.mark.parametrize("argv", [
    ["verify", "-N", "4", "--suite", "rhp", "--mode", "float"],
    ["rhp", "-n", "2", "--mode", "float"]])
def test_float_unit_dets_take_the_bareiss_route(argv, monkeypatch, spec_file,
                                                capsys):
    import numpy

    from cauchybop import checks
    from cauchybop.bimoment import bareiss_det

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.det called")
    monkeypatch.setattr(numpy.linalg, "det", refuse)
    matrices = []

    def recorded(assemble):
        def wrapper(*args):
            matrices.append(assemble(*args))
            return matrices[-1]
        return wrapper
    for name in ("assemble_gamma", "assemble_gamma_hat"):
        monkeypatch.setattr(checks, name, recorded(getattr(checks, name)))
    code, _ = run(capsys, [argv[0], spec_file(SIX_ATOM), *argv[1:]])
    assert code == 0
    assert len(matrices) == (6 if argv[0] == "verify" else 2)
    for m in matrices:
        assert type(m.determinant) is float
        assert m.determinant == float(bareiss_det(m.entries))


def test_float_verify_on_discrete_input_leaves_numpy_unloaded(spec_file):
    import os
    import subprocess

    import cauchybop
    argv = ["verify", spec_file(SIX_ATOM), "-N", "4", "--suite", "all",
            "--mode", "float"]
    src = os.path.dirname(os.path.dirname(cauchybop.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", NUMPY_PROBE,
                          json.dumps([argv])], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert json.loads(out) == [False, [0, False]]


@pytest.mark.parametrize("argv", [
    ["rhp", "-n", "2", "--mode", "float", "--eps", "1e-4", "1e-5", "1e-6"],
    ["verify", "-N", "3", "--suite", "rhp", "--mode", "float"]])
def test_nan_boundary_value_refused_by_the_jump_study(argv, monkeypatch,
                                                      spec_file, capsys):
    # a NaN above the cut must not read as a zero jump residual
    from cauchybop import rhp
    transform = rhp.cauchy_transform_density
    monkeypatch.setattr(rhp, "cauchy_transform_density", lambda dm, g, w: (
        complex("nan") if complex(w).imag > 0 else transform(dm, g, w)))
    code = main([argv[0], spec_file(DENSITY), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("error: precision exhausted: a float value came "
                            "out nan\n")

import json
import sys
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
    # two points of increase support the order-1 family, but the order-3
    # bimoment block has a vanishing consecutive minor: reported, exit 1
    doc = {"alpha": {"type": "discrete", "atoms": [{"x": "1", "w": "1"},
                                                   {"x": "2", "w": "1"}]},
           "beta": {"type": "discrete", "atoms": [{"x": "1", "w": "1"},
                                                  {"x": "3", "w": "1"}]}}
    code, payload = run(capsys, ["verify", spec_file(doc), "-N", "1",
                                 "--suite", "tp"])
    assert code == 1
    assert payload["status"] == "fail"
    assert any(c["status"] == "fail" and "minor" in c["name"]
               for c in payload["checks"])


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
    import cauchybop.cli as cli_mod
    zeros_of = cli_mod.zeros_of

    def not_interlaced(app, which, n):
        return replace(zeros_of(app, which, n), interlaced_with_previous=False)
    monkeypatch.setattr(cli_mod, "zeros_of", not_interlaced)
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
    import cauchybop.cli as cli_mod

    def boom(*a, **k):
        raise TheoryViolationError("forced")

    monkeypatch.setattr(cli_mod, "compute_bimoments", boom)
    assert main(["bimoments", spec_file(TWO_ATOM), "-N", "2"]) == 3


def test_usage_error_on_bad_flags(capsys):
    assert main(["bimoments"]) == 2
    assert main(["no-such-command"]) == 2


def test_verify_elapsed_times_the_check(monkeypatch, spec_file, capsys):
    # each suite hands the runner the computation, so a slow oracle shows
    # up in the elapsed time of its own check
    import time

    import cauchybop.cli as cli_mod
    oracle = cli_mod.oracle_dn

    def slow_oracle(*args, **kwargs):
        time.sleep(0.05)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "oracle_dn", slow_oracle)
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
    pytest.param(SIX_ATOM, 3, 43, [
        "extended CD, n=3 [skipped: needs N >= 4]",
        "perfect duality pairing, n=3 [skipped: needs N >= 4]",
        "perfect duality pairing, n=4 [skipped: needs N >= 5]"],
        id="six atoms N=3"),
    pytest.param(SEVENTEEN_ATOM, 4, 50, [
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
MESSAGES = {
    ("rhp", "-n", "1"): "error: -n must be at least 2, got 1\n",
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
    ]])
def test_bad_order_arguments_exit_2(argv, spec, spec_file, capsys):
    code = main([argv[0], spec_file(spec)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1
    if tuple(argv) in MESSAGES:
        assert captured.err == MESSAGES[tuple(argv)]


def test_bimoments_float_order_one(spec_file, capsys):
    # at N=1 the shift identity has no window to check
    code, payload = run(capsys, ["bimoments", spec_file(SIX_ATOM), "-N", "1",
                                 "--mode", "float"])
    assert code == 0 and payload["rank_one_shift"] == "pass"


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
    from cauchybop import cli
    seen = []
    certify = cli.check_total_positivity

    def captured(I, kmax, tol=0.0):
        seen.append((I, kmax, tol))
        return certify(I, kmax, tol=tol)
    monkeypatch.setattr(cli, "check_total_positivity", captured)
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

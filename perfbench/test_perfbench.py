"""Smoke test of the benchmark itself, at the tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs through ``run.py`` exactly as the benchmark runs it,
traced and untraced; the test checks that every metric named in
``BENCHMARK.json`` is printed with its unit, that the tracer puts every
wrapped function back, and that tracing changes no verdict or digest.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {w: workloads.SIZES[w]["tiny"] for w in workloads.WORKLOADS}


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def test_benchmark_workloads_are_defined():
    assert {w["name"] for w in BENCH["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1",
                     "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "exact-build", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _bindings():
    from cauchybop import cli
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "cauchybop" or name.startswith("cauchybop."):
            for attr, value in vars(module).items():
                if callable(value):
                    found[(name, attr)] = value
    found.update({("cli.SUITES", k): v for k, v in cli.SUITES.items()})
    return found


def test_tracer_restores_every_wrapped_function():
    before = _bindings()
    tracer = tracing.Tracer()
    restore = tracer.install()
    during = _bindings()
    wrapped = [key for key in before if during[key] is not before[key]]
    # every layer, under each name that imports it, and the six suites
    assert {getattr(during[k], "__wrapped__", None) for k in wrapped} >= \
        {before[("cauchybop." + m, f)] for m, f in tracing.LAYERS}
    assert ("cauchybop.cli", "build_apparatus") in wrapped
    assert ("cauchybop.cli", "float_degree_cap") in wrapped
    assert all(("cli.SUITES", s) in wrapped for s in tracing.SUITE_NAMES)
    restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced(workload, spec):
    tracer = tracing.Tracer()
    restore = tracer.install()
    tracer.job = 1
    try:
        outcome = workloads.run_job(workload, spec, TINY[workload])
    finally:
        restore()
    return outcome, tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_verdicts_and_digests_unchanged(workload):
    spec = workloads.make_spec(workload, 5, 1, TINY[workload])
    plain = workloads.run_job(workload, spec, TINY[workload])
    traced, tracer = _traced(workload, spec)
    assert tracer.spans and all(s is not None for s in tracer.spans)
    assert not tracer.stack
    if workload == "exact-build":
        assert workloads.apparatus_digest(traced.apparatus) == \
            workloads.apparatus_digest(plain.apparatus)
        assert workloads.gate(workload, traced, None) == []
    else:
        assert traced.exit_code == plain.exit_code
        # residuals and verdicts; per-check elapsed is not an output
        strip = [(c["name"], c["status"], c["residual"])
                 for c in plain.report["checks"]]
        assert [(c["name"], c["status"], c["residual"])
                for c in traced.report["checks"]] == strip


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [("outer", 0.0, 10.0, -1, 1), ("inner", 2.0, 5.0, 0, 1),
                       ("inner", 6.0, 7.0, 0, 1)]
    table = tracer.aggregate()
    assert table["outer"] == [1, 6.0, 10.0]
    assert table["inner"] == [2, 4.0, 4.0]

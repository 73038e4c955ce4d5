"""The exact lane's ground rule as a test: ``verify --suite all`` on the
exact-verify benchmark inputs, seed 0 jobs 1-8 (``perfbench/workloads.py``,
imported read-only), keeps its exit code and every check's name, status
and residual.

The reference lives in ``tests/data/exact_verify_seed0.json``.  Writing it
again (``python tests/test_exact_verify_reference.py``) changes what the
exact lane is pinned to, so a new file needs its reason stated.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from cauchybop import cli

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "data" / "exact_verify_seed0.json"
N, ATOMS, SEED, JOBS = 6, 8, 0, range(1, 9)


def _make_spec():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module.make_spec


def outcomes():
    """{job: {"exit": code, "checks": [[name, status, residual], ...]}}."""
    make_spec = _make_spec()
    out = {}
    for job in JOBS:
        spec = make_spec("exact-verify", SEED, job, {"atoms": ATOMS})
        stdout = io.StringIO()
        old_stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(spec))
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["verify", "-", "-N", str(N), "--suite",
                                 "all", "--mode", "exact"])
        finally:
            sys.stdin = old_stdin
        report = json.loads(stdout.getvalue())
        out[str(job)] = {"exit": code, "checks": [
            [c["name"], c["status"], c["residual"]] for c in report["checks"]]}
    return out


def test_exact_verify_matches_the_reference():
    reference = json.loads(REFERENCE.read_text())
    got = outcomes()
    assert got.keys() == reference.keys()
    for job, expected in reference.items():
        assert got[job] == expected, f"job {job}"


if __name__ == "__main__":
    REFERENCE.parent.mkdir(exist_ok=True)
    jobs = [f' "{job}": {{"exit": {o["exit"]}, "checks": [\n'
            + ",\n".join(f"  {json.dumps(c)}" for c in o["checks"]) + "]}"
            for job, o in outcomes().items()]
    REFERENCE.write_text("{\n" + ",\n".join(jobs) + "\n}\n")

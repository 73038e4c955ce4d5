"""Seeded inputs, jobs and the correctness gate for the three workloads.

Every workload is a closed loop: one client in one thread runs its jobs one
after another, in process.  A job's input is a measure-pair spec made only
from the workload name, the seed and the job's index, so the same seed
gives the same inputs and the program sees nothing but the spec.

* ``exact-build`` -- ``build_apparatus(alpha, beta, N=16)`` on exact
  discrete pairs with 24 atoms per measure.  It exists because the
  construction layers (bimoments, LDU family, X/Y, A/Ahat, hatted) do all
  of the work there, at the exact lane's target size.
* ``exact-verify`` -- ``cauchybop verify SPEC -N 6 --suite all`` on the same
  generator with 8 atoms per measure.  It exists because the verify suites
  and their oracles (``oracle_dn``, ``aux_vectors``, the TN certificate)
  take nearly all of the time there and construction almost none.
* ``float-verify`` -- ``cauchybop verify SPEC -N 8 --suite all --mode
  float`` on density pairs exp(-(c1 x + c2 x^2)) with 96-node quadrature.
  It exists because it is the only one to run the float lane: quadrature,
  the biorthonormality ladder and degree cap, the jump-slope study and the
  numpy bimoment path.  It is not a workload of ``BENCHMARK.json``: more
  than half of its jobs exit 1 on the spurious float FAILs of ROADMAP item
  5, and a benchmark workload must be one on which no job fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import cauchybop
from cauchybop import cli
from cauchybop.recurrence import rank_one_XY_residual

#: Full sizes, as measured by the benchmark, and the tiny sizes used by the
#: warm-up job and the benchmark's own smoke test.  The warm-up runs the
#: same code path as a timed job; the interpreter has no JIT, so a small
#: job is enough to finish lazy imports and first-call set-up, and it keeps
#: set-up cheap enough to repeat in fresh interpreters within one run.
SIZES = {
    "exact-build": {"full": {"N": 16, "atoms": 24}, "tiny": {"N": 3, "atoms": 6}},
    "exact-verify": {"full": {"N": 6, "atoms": 8}, "tiny": {"N": 3, "atoms": 6}},
    "float-verify": {"full": {"N": 8, "order": 96}, "tiny": {"N": 3, "order": 96}},
}

WORKLOADS = tuple(SIZES)


# -- input generators ----------------------------------------------------------


def exact_measure(rng: random.Random, atoms: int) -> dict:
    """Distinct positions on the quarter grid 0.5..13, weights in eighths
    from 1/8 to 2, both as decimal strings."""
    quarters = rng.sample(range(2, 53), atoms)
    return {"type": "discrete",
            "atoms": [{"x": str(Decimal(q) / 4),
                       "w": str(Decimal(rng.randint(1, 16)) / 8)}
                      for q in quarters]}


#: Density parameters (side, name, low, high), most influential on job time
#: first, since the lowest Halton bases spread points most evenly.
DENSITY_PARAMS = (("alpha", "a", 0.0, 1.0), ("beta", "a", 0.0, 1.0),
                  ("alpha", "L", 1.0, 3.0), ("beta", "L", 1.0, 3.0),
                  ("alpha", "c1", 0.2, 1.5), ("beta", "c1", 0.2, 1.5),
                  ("alpha", "c2", 0.0, 0.3), ("beta", "c2", 0.0, 0.3))
HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19)


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0
    while i:
        f /= base
        inv += f * (i % base)
        i //= base
    return inv


def density_pair(workload: str, seed: int, index: int, order: int) -> dict:
    """Density pair exp(-(c1 x + c2 x^2)) on [a, a + L] for both sides.

    Each parameter is uniform on its range (a in [0, 1], L in [1, 3], c1 in
    [0.2, 1.5], c2 in [0, 0.3]).  The points are a Halton sequence shifted
    by a random vector drawn from the seed: every job's parameters are still
    uniform, but the jobs of one run cover the ranges evenly, so a run's
    mix of cheap and costly pairs varies far less between seeds.
    """
    shift = random.Random(f"perfbench/{workload}/{seed}/shift")
    values = {"alpha": {}, "beta": {}}
    for (side, name, lo, hi), base in zip(DENSITY_PARAMS, HALTON_BASES):
        u = (_radical_inverse(index, base) + shift.random()) % 1.0
        values[side][name] = lo + (hi - lo) * u
    return {side: {"type": "density",
                   "support": [v["a"], v["a"] + v["L"]],
                   "potential": {"coeffs": [0.0, v["c1"], v["c2"]],
                                 "hbar": 1.0},
                   "quadrature": {"rule": "gauss-legendre", "order": order}}
            for side, v in values.items()}


def make_spec(workload: str, seed: int, index: int, size: dict) -> dict:
    if workload == "float-verify":
        return density_pair(workload, seed, index, size["order"])
    rng = random.Random(f"perfbench/{workload}/{seed}/{index}")
    return {"alpha": exact_measure(rng, size["atoms"]),
            "beta": exact_measure(rng, size["atoms"])}


# -- jobs ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What a job produced, for the gate to judge after timing stops."""
    exit_code: int = 0
    report: dict | None = None
    stderr: str = ""
    apparatus: object = None
    error: str | None = None


def _discrete(side: dict):
    return cauchybop.measure_from_strings(
        [(a["x"], a["w"]) for a in side["atoms"]])


def run_build(spec: dict, size: dict) -> Outcome:
    app = cauchybop.build_apparatus(_discrete(spec["alpha"]),
                                    _discrete(spec["beta"]), N=size["N"])
    return Outcome(apparatus=app)


def run_verify(spec: dict, size: dict, mode: str) -> Outcome:
    """``cauchybop verify - -N n --suite all`` with the spec on stdin."""
    argv = ["verify", "-", "-N", str(size["N"]), "--suite", "all",
            "--mode", mode]
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(spec))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    text = out.getvalue()
    return Outcome(exit_code=code,
                   report=json.loads(text) if text.startswith("{") else None,
                   stderr=err.getvalue().strip())


def run_job(workload: str, spec: dict, size: dict) -> Outcome:
    if workload == "exact-build":
        return run_build(spec, size)
    return run_verify(spec, size, "float" if workload == "float-verify"
                      else "exact")


# -- correctness gate ----------------------------------------------------------


def _hex(v) -> str:
    v = Fraction(v)
    return f"{v.numerator:x}/{v.denominator:x}"


def _flatten(obj):
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _flatten(item)
    else:
        yield obj


def apparatus_parts(app) -> dict:
    """The exact content of an apparatus, grouped by construction stage."""
    fam = app.family
    return {
        "I": app.I.entries,
        "family": (fam.p_monic, fam.q_monic, fam.h, fam.pi_monic,
                   fam.eta_monic),
        "XY": (app.X.entries, app.Y.entries),
        "LLhat": (app.L.entries, app.Lhat.entries),
        "AAhat": (app.A.entries, app.Ahat.entries, app.B.entries,
                  app.Bhat.entries),
        "hatted": (app.hatted.p_hat, app.hatted.q_hat),
    }


def apparatus_digest(app) -> str:
    h = hashlib.sha256()
    for stage, part in apparatus_parts(app).items():
        h.update(stage.encode())
        for v in _flatten(part):
            h.update(_hex(v).encode())
            h.update(b",")
    return h.hexdigest()


def max_bits(part) -> int:
    """Largest numerator or denominator bit length among exact entries."""
    best = 0
    for v in _flatten(part):
        if isinstance(v, (int, Fraction)):
            v = Fraction(v)
            best = max(best, v.numerator.bit_length(),
                       v.denominator.bit_length())
    return best


def build_invariant_errors(app) -> list[str]:
    """Identities every exact apparatus satisfies, whatever the seed."""
    errors = []
    res = rank_one_XY_residual(app.X, app.Y, app.family)
    if any(v != 0 for row in res for v in row):
        errors.append("nonzero rank-one residual X + Y^T - pi eta*^T")
    if app.A.band_violations():
        errors.append("band violation in A")
    if app.Ahat.band_violations():
        errors.append("band violation in Ahat")
    fam = app.family
    for n in range(app.N + 1):
        if cauchybop.pair(app.I, fam.p_monic[n], fam.q_star(n)) != 1:
            errors.append(f"<p_{n}|q*_{n}> != 1")
            break
    return errors


def gate(workload: str, outcome: Outcome,
         reference: str | None) -> list[str]:
    """Reasons the job failed; empty when it passed.

    ``reference`` is the recorded apparatus digest for this job's spec, or
    None when no digest was recorded for it.  Per-check ``elapsed`` in the
    verify report is never read: the suites hand precomputed residuals to
    the runner, so that field is always about zero.
    """
    if outcome.error is not None:
        return [outcome.error]
    if workload == "exact-build":
        errors = build_invariant_errors(outcome.apparatus)
        if reference is not None and \
                apparatus_digest(outcome.apparatus) != reference:
            errors.append("apparatus differs from the recorded digest")
        return errors
    errors = []
    if outcome.exit_code != 0:
        errors.append(f"exit code {outcome.exit_code} {outcome.stderr}".strip())
    if outcome.report is None:
        errors.append("no JSON report")
    else:
        failed = [c["name"] for c in outcome.report["checks"]
                  if c["status"] == "fail"]
        if failed:
            errors.append(f"{len(failed)} failed checks, first: {failed[0]}")
    return errors


def wrong_answer(workload: str, outcome: Outcome, errors: list[str]) -> bool:
    """True when a failed job also gave a wrong answer.

    Exact lanes are the ground truth, so any failure there is wrong.  The
    float lane works on rounded data: a FAIL verdict (exit code 1) is a
    tolerance test missed, and a clean refusal (exit code 2, such as a
    bimoment matrix that loses definiteness in doubles) is a precision
    limit reported as documented.  Both count as failed jobs, not as wrong
    answers.  A crash or a theory violation (exit code 3) is wrong in every
    lane.
    """
    if not errors:
        return False
    if workload != "float-verify":
        return True
    return outcome.error is not None or outcome.exit_code not in (1, 2)

"""cauchybop benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-build --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the gated end-to-end ones, ``setup_s`` and
``peak_rss_mb``, measured with tracing off; with ``--trace 1`` they are
the per-layer ones from a traced pass, plus the tracing overhead against an
untraced pass over the same jobs.  Only the metrics ``BENCHMARK.json``
lists go on that line; any others go into the run's record.

``float-verify`` runs here too but is not a workload of ``BENCHMARK.json``:
its float ``verify`` jobs exit 1 on spurious FAIL verdicts (ROADMAP item
5) in more than half of the jobs, so its ``failed`` count is never zero and
moves with the number of jobs a run fits in.  Run it by hand for the float
lane's layers (quadrature, the biorthonormality ladder, the jump-slope
study) and for the failure share that item 5 should lower.

The line before it is the run's record: the machine, the drift probe,
and, untraced, the end-to-end figures that are reported but not gated
(``jobs_per_s``, ``job_s.p50``, ``job_s.tail``, ``failed_frac``).  On a
shared two-core virtual machine whose speed drifted by up to 2x over tens
of seconds, the spread of ``jobs_per_s`` over ten seeds reached 0.30 of
its median, too wide for a regression gate.  Traced, the record holds each
layer's share of traced job time.  Spans of a traced run are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters set up per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Specs made per run; a run stops early when they are used up.
POOL = 256
#: Nominal seconds per full-size job.  A traced run makes
#: ``seconds / 2 / nominal`` jobs (at least one), a count fixed by the
#: arguments alone, so its ``.calls`` and ``.max_bits`` repeat exactly.
NOMINAL_JOB_S = {"exact-build": 7.0, "exact-verify": 4.0, "float-verify": 0.8}
BIT_STAGES = {"bimoment.I": "I", "bop.family": "family",
              "recurrence.XY": "XY", "recurrence.AAhat": "AAhat",
              "recurrence.hatted": "hatted"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("exact-build", "exact-verify", "float-verify"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the smoke-test size, not a benchmark result")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- machine record and drift probe ---------------------------------------------


def probe_ms(duration: float = 0.3) -> float:
    """Median time of a fixed pure-Fraction loop, repeated for `duration`.

    Reported before and after each run so a drifting host shows up; it is
    never used to rescale a metric.
    """
    samples = []
    stop = time.perf_counter() + duration
    while time.perf_counter() < stop or len(samples) < 3:
        t0 = time.perf_counter()
        acc = 0
        for k in range(1, 3000):
            acc += (Fraction(k, k + 7) + Fraction(k + 3, k + 5)).numerator
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def machine() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


# -- set-up ------------------------------------------------------------------------


def prepare(args):
    """Imports, spec generation and the untimed warm-up job."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    sizes = workloads.SIZES[args.workload]
    size = sizes[args.size]
    pool = [workloads.make_spec(args.workload, args.seed, i, size)
            for i in range(1, POOL + 1)]
    # the warm-up input is the same in every run, so that set-up time does
    # not depend on the seed
    tiny = sizes["tiny"]
    warm = workloads.run_job(args.workload,
                             workloads.make_spec(args.workload, 0, 0, tiny),
                             tiny)
    errors = workloads.gate(args.workload, warm, None)
    if workloads.wrong_answer(args.workload, warm, errors) or (
            args.workload != "exact-build" and warm.report is None):
        raise SystemExit(f"warm-up job gave a wrong answer: {errors[0]}")
    return workloads, size, pool


def setup_once(args) -> float:
    """Wall time from starting a fresh interpreter until it is ready to run
    its first timed job."""
    argv = [sys.executable, str(Path(__file__)), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"set-up in a fresh interpreter failed ({code})")
    return elapsed


# -- running jobs --------------------------------------------------------------------


class Tally:
    """Jobs attempted and failed, and whether any answer was wrong."""

    def __init__(self, workloads, workload, seed, size):
        self.w = workloads
        self.workload = workload
        self.references = self._references(seed, size)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_error = None

    def _references(self, seed, size):
        path = HERE / "reference.json"
        if self.workload != "exact-build" or not path.is_file():
            return {}
        ref = json.loads(path.read_text())
        if ref["size"] != size:
            return {}
        return ref["digests"].get(str(seed), {})

    def timed(self, spec, size):
        """Run one job; return (seconds, outcome).  Exceptions are failures."""
        t0 = time.perf_counter()
        try:
            outcome = self.w.run_job(self.workload, spec, size)
        except Exception as exc:        # a crash is a failed job, not a stop
            outcome = self.w.Outcome(error=f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, outcome

    def judge(self, index, outcome):
        errors = self.w.gate(self.workload, outcome,
                             self.references.get(str(index)))
        self.attempted += 1
        if errors:
            self.failed += 1
            self.first_error = self.first_error or f"job {index}: {errors[0]}"
            if self.w.wrong_answer(self.workload, outcome, errors):
                self.wrong += 1


def metric(value, unit):
    return {"value": value, "unit": unit}


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_untraced(args, tally, size, pool):
    # set-up samples are taken between jobs, spread over the run, so that
    # their median does not hang on one moment of a host whose speed drifts
    setups = [setup_once(args)]
    times = []
    busy = 0.0
    for index, spec in enumerate(pool, start=1):
        elapsed, outcome = tally.timed(spec, size)
        tally.judge(index, outcome)
        times.append(elapsed)
        busy += elapsed
        if len(setups) < SETUP_SAMPLES and \
                busy >= args.seconds * len(setups) / SETUP_SAMPLES:
            setups.append(setup_once(args))
        # stop where the run ends nearest the requested seconds, whatever
        # the job length
        if busy + statistics.fmean(times) / 2 >= args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_once(args))
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    reported = {
        "jobs_per_s": metric(len(times) / busy, "1/s"),
        "job_s.p50": metric(statistics.median(times), "s"),
        "failed_frac": metric(tally.failed / tally.attempted, "ratio"),
    }
    if len(times) >= 11:
        q = 100 * (len(times) - 10) // len(times)
        reported["job_s.tail"] = {**metric(percentile(times, q), "s"),
                                  "percentile": q}
    summary = {"jobs": len(times), "reported": reported,
               "setup_samples_s": setups,
               "job_s": [round(t, 4) for t in times]}
    return metrics, summary


def run_traced(args, tally, size, pool):
    import tracer as tracing
    jobs = max(1, int(args.seconds / 2 / NOMINAL_JOB_S[args.workload]))
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    checks = skipped = failed_checks = 0
    caps = []
    bits = dict.fromkeys(BIT_STAGES, 0)
    for index, spec in enumerate(pool[:jobs], start=1):
        # both passes run each job; which goes first alternates, so host
        # drift and any state a job leaves behind favour neither
        for traced_pass in (index % 2 == 0, index % 2 == 1):
            restore = tracer.install() if traced_pass else None
            tracer.job = index
            try:
                elapsed, job_outcome = tally.timed(spec, size)
            finally:
                tracer.job = None
                if restore:
                    restore()
            tally.judge(index, job_outcome)
            if traced_pass:
                traced += elapsed
                outcome = job_outcome
            else:
                untraced += elapsed
        if outcome.report is not None:
            for c in outcome.report["checks"]:
                checks += 1
                skipped += c["status"] == "skip"
                failed_checks += c["status"] == "fail"
        for name, call_args, result in tracer.captured:
            if name == "bundle.build_apparatus" and result.exact:
                parts = tally.w.apparatus_parts(result)
                for key, part in BIT_STAGES.items():
                    bits[key] = max(bits[key], tally.w.max_bits(parts[part]))
            elif name == "bundle.reliable_degree_cap":
                caps.append(result / (call_args[0].N - 1))
        tracer.captured.clear()
    table = tracer.aggregate()
    metrics = {}
    for name in tracing.layer_names():
        calls, self_s, total_s = table.get(name, (0, 0.0, 0.0))
        if not name.startswith("cli.suite."):
            metrics[f"{name}.calls"] = metric(calls, "count")
            metrics[f"{name}.self_s"] = metric(self_s, "s")
        metrics[f"{name}.total_s"] = metric(total_s, "s")
    metrics["cli.checks.skip_frac"] = metric(skipped / checks if checks else 0.0,
                                             "ratio")
    metrics["cli.checks.fail_frac"] = metric(
        failed_checks / checks if checks else 0.0, "ratio")
    metrics["bundle.degree_cap_ratio"] = metric(
        statistics.mean(caps) if caps else 0.0, "ratio")
    for key, value in bits.items():
        metrics[f"{key}.max_bits"] = metric(value, "bits")
    metrics["trace.overhead_frac"] = metric(traced / untraced - 1, "ratio")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    # shares of traced job time; "(outside spans)" is cli parsing, report
    # output and the helpers no traced layer calls
    shares = {name: round(row[1] / traced, 4) for name, row in
              sorted(table.items(), key=lambda kv: -kv[1][1])}
    shares["(outside spans)"] = round(
        1 - sum(row[1] for row in table.values()) / traced, 4)
    summary = {"traced_jobs": jobs, "untraced_s": untraced,
               "traced_s": traced, "self_time_share": shares}
    return metrics, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cauchybop" / "__init__.py").is_file():
        print(f"error: no cauchybop sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        prepare(args)
        print("ready", flush=True)
        return 0
    probe_before = probe_ms()
    workloads, size, pool = prepare(args)
    tally = Tally(workloads, args.workload, args.seed, size)
    run = run_traced if args.trace else run_untraced
    metrics, summary = run(args, tally, size, pool)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in bench["per_layer" if args.trace
                                       else "end_to_end"]}
    unlisted = {k: v for k, v in metrics.items() if k not in listed}
    if unlisted:
        summary["unlisted_metrics"] = unlisted
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "machine": machine(),
              "probe_ms": {"before": probe_before, "after": probe_ms()},
              "first_error": tally.first_error, **summary}
    print(json.dumps(record))
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: v for k, v in metrics.items()
                                  if k in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

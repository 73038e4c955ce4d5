"""Span tracer installed from outside the program.

Each traced layer is a public function of a ``cauchybop`` module.  The
tracer wraps it and rebinds the wrapper under every name that refers to
the original in any loaded ``cauchybop`` module, because ``cli.py``,
``bundle.py`` and others take these functions by ``from`` import.  The
suites are timed by wrapping the entries of the public ``cli.SUITES``
mapping.  :meth:`Tracer.install` returns a function that puts every
original back.

A span is ``(name, start, end, parent, job)``; spans stay in memory until
the run writes them out.  Self time is a span's duration minus the time
its direct children cover (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

#: (module, function) pairs traced, named ``<module>.<function>``.
LAYERS = (
    ("bimoment", "compute_bimoments"),
    ("bimoment", "oracle_dn"),
    ("bimoment", "bareiss_det"),
    ("bimoment", "check_total_positivity"),
    ("bop", "build_family"),
    ("bop", "pair"),
    ("recurrence", "build_XY"),
    ("recurrence", "build_A_Ahat"),
    ("recurrence", "build_hatted"),
    ("recurrence", "tn_oscillatory_certificate"),
    ("recurrence", "four_term_residual"),
    ("measure", "discretize"),
    ("bundle", "build_apparatus"),
    ("bundle", "biorthonormality_defects"),
    ("bundle", "reliable_degree_cap"),
    ("cdkernel", "verify_block_against_dense"),
    ("cdkernel", "cd_residual_plain"),
    ("cdkernel", "cd_residual_hat"),
    ("nikishin", "aux_vectors"),
    ("nikishin", "markov"),
    ("nikishin", "pade_solve"),
    ("nikishin", "order_check"),
    ("nikishin", "plucker_residual"),
    ("nikishin", "duality_check"),
    ("nikishin", "ecd_residual"),
    ("rhp", "assemble_gamma"),
    ("rhp", "assemble_gamma_hat"),
    ("rhp", "asymptotic_check"),
    ("rhp", "extract_constants"),
    ("rhp", "jump_slope_study"),
)

SUITE_NAMES = ("tp", "recurrence", "cdi", "pade", "duality", "rhp")

#: Layers whose arguments and results the benchmark inspects after a job.
CAPTURED = ("bundle.build_apparatus", "bundle.reliable_degree_cap")


def layer_names():
    return [f"{m}.{f}" for m, f in LAYERS] + \
        [f"cli.suite.{s}" for s in SUITE_NAMES]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.captured = []          # (layer, args, result) of CAPTURED calls

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        capture = name in CAPTURED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if capture:
                self.captured.append((name, args, result))
            return result
        return traced

    def install(self):
        """Wrap every layer; return a function that restores the originals."""
        from cauchybop import cli
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cauchybop" or name.startswith("cauchybop.")]
        undo = []
        for mod_name, fn_name in LAYERS:
            original = getattr(sys.modules[f"cauchybop.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        suites = dict(cli.SUITES)
        for name, fn in suites.items():
            cli.SUITES[name] = self.wrap(f"cli.suite.{name}", fn)

        def restore():
            for module, attr, original in undo:
                setattr(module, attr, original)
            cli.SUITES.update(suites)
        return restore

    def aggregate(self) -> dict:
        """{name: [calls, self_s, total_s]} over every recorded span."""
        child_time = defaultdict(float)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            row = table[name]
            row[0] += 1
            row[1] += (end - start) - child_time[index]
            row[2] += end - start
        return dict(table)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")

"""Record the exact-build apparatus digests that the correctness gate checks.

    python3 perfbench/record_reference.py

Builds the first JOBS full-size exact-build jobs of the default seed and
writes their digests to ``perfbench/reference.json``.  Run it only when the
exact content of an apparatus is meant to change; the exact lane must stay
bit-identical otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

DEFAULT_SEED = 0
JOBS = 8


def main() -> int:
    size = workloads.SIZES["exact-build"]["full"]
    digests = {}
    for index in range(1, JOBS + 1):
        spec = workloads.make_spec("exact-build", DEFAULT_SEED, index, size)
        outcome = workloads.run_build(spec, size)
        errors = workloads.build_invariant_errors(outcome.apparatus)
        if errors:
            print(f"job {index}: {errors[0]}", file=sys.stderr)
            return 1
        digests[str(index)] = workloads.apparatus_digest(outcome.apparatus)
        print(index, digests[str(index)], flush=True)
    doc = {"workload": "exact-build", "size": size,
           "digests": {str(DEFAULT_SEED): digests}}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

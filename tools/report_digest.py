"""Digest of every benchmark check's report, one line per check.

    python tools/report_digest.py [--smoke] [SEED ...]

Runs every check of the three perfbench workloads (seeds 1, 2 and 3 by
default; ``--smoke`` shrinks every size as ``perfbench/run.py --smoke``
does) in this process through ``perfbench/child.run_check``, with this
tree's ``src/`` and ``perfbench/`` first on the import path, and prints
for each check its seed, workload, id, exit code and the SHA-256 of its
report.  Run it in two trees and ``diff`` the outputs: a change that
keeps every report byte prints the same lines.  Exits 1 if any check
raised (exit code None), 0 otherwise.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
# the benchmark's own setting (perfbench/run.py); set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import child  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    seeds = [int(a) for a in argv if a != "--smoke"] or [1, 2, 3]
    raised = 0
    for seed in seeds:
        for name in workloads.NAMES:
            for check in workloads.build(name, seed, smoke=smoke):
                code, report, _ = child.run_check(check)
                raised += code is None
                digest = hashlib.sha256(report.encode()).hexdigest()
                print(seed, name, check["id"], code, digest, flush=True)
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

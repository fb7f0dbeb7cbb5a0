"""One benchmark child process.

``child.py setup`` imports the program, initialises numpy's BLAS and
LAPACK, prints ``ready`` and exits: the parent times spawn-to-ready.

``child.py run`` does the same set-up, reads a JSON spec (check list,
seconds, trace flag) from stdin, prints ``ready``, then repeats passes
of the check list until the time is up and prints one JSON result line.
With tracing on, passes alternate untraced and traced, so one run gives
both the overhead ratio and the byte comparison of their reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

import numpy as np  # noqa: E402

from vertex_sheaf import cli, linalg, operators, transfer, weights  # noqa: E402


def _blas_init() -> None:
    a = np.arange(64, dtype=complex).reshape(8, 8)
    np.linalg.svd(a @ a)


def _spinflip(check: dict) -> dict:
    ws = weights.WeightsSym(*check["weights"])
    n = check["sites"]
    fam_ev = transfer.transfer_family(operators.lax_even(ws), n)
    fam_od = transfer.transfer_family(operators.lax_odd(ws), n)
    worst = 0.0
    for t_ev, t_od in zip(fam_ev, fam_od):
        flipped = transfer.sigma_x_string(t_ev.sites) @ t_ev.matrix
        dev = linalg.max_abs(t_od.matrix - flipped)
        worst = max(worst, dev / max(1.0, linalg.max_abs(t_ev.matrix)))
    return {"worst_dev": worst}


def _stagprod(check: dict) -> dict:
    first, second = weights.sample_krinsky_pair(check["sample_seed"])
    t1a, t2a = transfer.staggered_transfer_pair(first, check["pairs"])
    t1b, t2b = transfer.staggered_transfer_pair(second, check["pairs"])
    product = linalg.rel_commutator_norm(t1a.matrix @ t2a.matrix, t1b.matrix @ t2b.matrix)
    factor = linalg.rel_commutator_norm(t1a.matrix, t2b.matrix)
    return {"product": product, "factor": factor}


_LIBRARY = {"spinflip": _spinflip, "stagprod": _stagprod}


def run_check(check: dict) -> tuple[object, str, float]:
    """(exit code or None if it raised, report text, seconds)."""
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        if check["kind"] == "cli":
            with contextlib.redirect_stdout(buf):
                code = cli.main(check["argv"])
        else:
            buf.write(json.dumps(_LIBRARY[check["kind"]](check)))
            code = 0
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # a crash is a failed check, not a failed run
        traceback.print_exc(limit=3)
        code = None
    return code, buf.getvalue(), perf_counter() - t0


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/meminfo", encoding="ascii") as fh:
        mem_kb = int(next(line for line in fh if line.startswith("MemTotal")).split()[1])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024,
    }


def _blas_threads():
    """Thread count OpenBLAS reports at run time, else the variable the child got."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def run(spec: dict) -> dict:
    import verdicts
    from tracing import Tracer

    checks = spec["checks"]
    tracer = Tracer() if spec["trace"] else None
    first_digest: dict[int, bytes] = {}
    latencies: list[float] = []
    walls: list[tuple[bool, float]] = []
    failures: list[str] = []
    attempted = failed = 0
    t_start = perf_counter()
    while len(walls) < (2 if tracer else 1) or perf_counter() - t_start < spec["seconds"]:
        traced = tracer is not None and len(walls) % 2 == 1
        if traced:
            tracer.install()
        t0 = perf_counter()
        for check in checks:
            if traced:
                tracer.check_id = attempted
                tracer.expect = check["expect"]
            code, output, dt = run_check(check)
            reason = verdicts.judge(check, code, output)
            digest = hashlib.sha256(output.encode()).digest()
            if reason is None and first_digest.setdefault(check["id"], digest) != digest:
                reason = "report bytes differ from the first pass" + (" (traced)" if traced else "")
            if traced and check["kind"] == "cli":
                tracer.counts["cli.report_bytes"] += len(output.encode())
            if not traced:
                latencies.append(dt)
            attempted += 1
            if reason is not None:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"check {check['id']} {check.get('argv', check['kind'])}: {reason}")
        walls.append((traced, perf_counter() - t0))
        if traced:
            tracer.uninstall()
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "latencies_s": latencies,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": _environment(),
    }
    if tracer is not None:
        traced_walls = [w for t, w in walls if t]
        result["layers"] = tracer.summary(len(traced_walls), sum(traced_walls))
        np.savez_compressed(spec["spans_path"], **tracer.spans())
    return result


def main() -> int:
    import vertex_sheaf

    src = ROOT / "src"
    if not Path(vertex_sheaf.__file__).resolve().is_relative_to(src):
        print(f"vertex_sheaf imported from {vertex_sheaf.__file__}, not {src}", file=sys.stderr)
        return 2
    _blas_init()
    if sys.argv[1:] == ["setup"]:
        print("ready", flush=True)
        return 0
    spec = json.load(sys.stdin)
    print("ready", flush=True)
    result = run(spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

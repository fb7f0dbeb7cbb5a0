"""vertex-sheaf verification benchmark.

    python3 perfbench/run.py --workload local-checks --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--workload all`` runs the three
workloads one after the other.  Each workload runs in fresh child
processes with one BLAS thread; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``).  The lines before it give the environment
and a readable summary; the full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: One OpenBLAS thread on every commit.  With the default two threads a
#: small commutation scan ran ~40x slower for the whole life of about one
#: process in twelve; with one thread every process was steady.  The price
#: is dense speed: a 2048^2 complex product takes 1.3 s instead of 0.7 s.
BLAS_THREADS = 1
#: set-up-only children spawned before and after the workload child; with
#: the workload child itself they give the samples setup_s is the median of
SETUP_SPAWNS = (5, 4)
#: percentiles considered for the tail, highest first
_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(mode: str, env: dict, stdin_text: str | None, timeout: float):
    """Start a child; return (seconds from spawn to its ready line, rest of stdout)."""
    cmd = [sys.executable, str(HERE / "child.py"), mode]
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
    )
    try:
        if stdin_text is not None:
            proc.stdin.write(stdin_text)
        proc.stdin.close()
        proc.stdin = None  # communicate() must not flush it again
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"child {mode} failed with exit code {proc.returncode}")
    return setup, rest


def tail(latencies: list[float], percentile: float) -> tuple[float, float]:
    """Nearest-rank value at ``percentile``, stepping down the ladder until
    at least ten samples lie beyond it.  Returns (percentile, value)."""
    xs = sorted(latencies)
    for p in [percentile] + [q for q in _LADDER if q < percentile]:
        rank = max(1, math.ceil(p / 100 * len(xs)))
        if len(xs) - rank >= 10 or p == _LADDER[-1]:
            return p, xs[rank - 1]
    raise AssertionError("unreachable")


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vertex_sheaf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() or None


def run_workload(name: str, args, bench: dict) -> dict:
    checks = workloads.build(name, args.seed, smoke=args.smoke)
    env = _child_env()
    timeout = args.seconds + 100  # the whole run must end within 180 s
    OUT.mkdir(exist_ok=True)
    setups = [_spawn("setup", env, None, 60)[0] for _ in range(SETUP_SPAWNS[0])]
    spans_path = OUT / f"spans-{name}-seed{args.seed}.npz"
    spec = {"checks": checks, "seconds": args.seconds, "trace": bool(args.trace),
            "spans_path": str(spans_path)}
    setup, rest = _spawn("run", env, json.dumps(spec), timeout)
    setups.append(setup)
    setups += [_spawn("setup", env, None, 60)[0] for _ in range(SETUP_SPAWNS[1])]
    child = json.loads(rest.strip().splitlines()[-1])

    untraced = [w for traced, w in child["walls"] if not traced]
    lat = child["latencies_s"]
    tail_p, tail_s = tail(lat, workloads.TAIL_PERCENTILE[name])
    attempted, failed = child["attempted"], child["failed"]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(untraced),
        "check_p50_ms": statistics.median(lat) * 1e3,
        "check_tail_ms": tail_s * 1e3,
        "peak_rss_mb": child["peak_rss_mb"],
        "pass_ratio": 1.0 - failed / attempted,
    }
    problems = list(child["failures"])
    if args.trace:
        traced = [w for t, w in child["walls"] if t]
        values = dict(child["layers"])
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        for span in workloads.REQUIRED_SPANS[name]:
            if not values.get(f"{span}.calls"):
                problems.append(f"span {span} recorded no calls on {name}")
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in bench[kind]:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            **child["environment"],
            "blas_threads_requested": BLAS_THREADS,
            "git_commit": _git_commit(),
            "source_digest": _source_digest(),
        },
        "checks_per_pass": len(checks),
        "pass_walls_s": child["walls"],
        "check_tail": {"percentile": tail_p, "samples": len(lat)},
        "fail_ratio": failed / attempted,
        "problems": problems,
        "all_values": values,
        "result": result,
    }
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    print(json.dumps({"workload": name, "environment": detail["environment"]}))
    print(
        f"# {name}: {attempted} checks in {len(child['walls'])} passes of {len(checks)}, "
        f"{failed} failed (fail_ratio {failed / attempted:.4g}); "
        f"check_tail_ms is p{tail_p:g} over {len(lat)} checks"
    )
    for key, m in metrics.items():
        print(f"#   {key} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"# FAIL {problem}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "vertex_sheaf" / "cli.py").is_file() or not bench_file.is_file():
        print(f"no vertex_sheaf sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args, bench) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

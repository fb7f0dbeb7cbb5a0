"""Command-line surface: every verification as a JSON-emitting subcommand.

Output is deterministic: fixed key order, floats serialized through
Python's shortest round-trip repr (at most 17 significant digits), and
seeded randomness only.  Exit codes: 0 all checks passed, 1 a check
failed its threshold, 2 usage or guard error.  A non-finite number
anywhere in a report is a guard error, so a report on stdout is always
strict JSON.  ``--tol`` exists only on subcommands with a pass
threshold; its default comes from ``DEFAULT_THRESHOLDS``.

Each ``cmd_*`` function builds its own report fields and returns
``(report, ok)``; ``main`` alone resolves the threshold, appends
``"pass"``, serializes and picks the exit code.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import transfer
from .elliptic import EllipticPoint, GuardError, ThetaParams, baxter_weights
from .operators import (
    functional_residuals,
    lax_odd,
    normalize_gauge,
    sheaf_r_elliptic,
    sheaf_yang_baxter_residual,
    solve_intertwiner,
)
from .weights import (
    Parity,
    UndefinedInvariantError,
    WeightsEight,
    WeightsSym,
    free_fermion_residual,
    krinsky_invariants,
    manifold_report,
    sample_krinsky_pair,
    to_eight,
    weights_to_json,
)

__all__ = ["main", "DEFAULT_THRESHOLDS"]

#: pass/fail thresholds shared by every subcommand
DEFAULT_THRESHOLDS = {
    "residual": 1e-10,      # Yang-Baxter and functional-relation residuals
    "kernel": 1e-8,         # singular-value cutoff and kernel matching
    "commutator": 1e-9,     # relative transfer-matrix commutators
    "enumeration": 1e-11,   # trace vs enumeration and equivalence gaps
}

_PARITY = {"ev": Parity.EVEN, "od": Parity.ODD, "even": Parity.EVEN, "odd": Parity.ODD}


def _matrix_json(m: np.ndarray) -> list:
    """Nested [re, im] pairs, row-major."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _complex_json(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _is_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_is_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_is_finite(v) for v in value)
    return True


def positive_float(text: str) -> float:
    """``--tol`` values: a threshold must be finite and > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _parse_floats(text: str, count: int, label: str) -> list[float]:
    parts = [p for p in text.split(",") if p]
    if len(parts) != count:
        raise ValueError(f"{label} needs {count} comma-separated numbers")
    return [float(p) for p in parts]


def cmd_param(args, tol) -> tuple[dict, bool]:
    point = EllipticPoint(args.k, args.lam, args.mu)
    ws = baxter_weights(point)
    report = {
        "command": "param",
        "k": args.k,
        "lambda": args.lam,
        "mu": args.mu,
        "a": ws.a,
        "b": ws.b,
        "c": ws.c,
        "d": ws.d,
    }
    report.update(manifold_report(to_eight(ws)).to_json_dict())
    return report, True


def cmd_ybe(args, tol) -> tuple[dict, bool]:
    params = ThetaParams.from_modulus(args.k)
    if args.parities.strip().lower() == "all":
        triples = list(itertools.product((Parity.ODD, Parity.EVEN), repeat=3))
    else:
        labels = [p for p in args.parities.split(",") if p]
        if len(labels) != 3 or any(p not in _PARITY for p in labels):
            raise ValueError("parities must be three of ev/od, or 'all'")
        triples = [tuple(_PARITY[p] for p in labels)]
    records = []
    for tri in triples:
        res = sheaf_yang_baxter_residual(
            tri, args.mu1, args.mu2, args.k, args.lam, params, detune=args.detune
        )
        records.append(
            {"parities": [p.value for p in tri], "residual": res, "pass": bool(res < tol)}
        )
    report = {
        "command": "ybe",
        "k": args.k,
        "lambda": args.lam,
        "mu1": args.mu1,
        "mu2": args.mu2,
        "detune": args.detune,
        "tol": tol,
        "records": records,
    }
    return report, all(rec["pass"] for rec in records)


def cmd_solve_r(args, tol) -> tuple[dict, bool]:
    res_tol = DEFAULT_THRESHOLDS["residual"]
    if args.weights1 or args.weights2:
        if not (args.weights1 and args.weights2):
            raise ValueError("explicit mode needs both --weights1 and --weights2")
        w1 = _parse_floats(args.weights1, 4, "--weights1")
        w2 = _parse_floats(args.weights2, 4, "--weights2")
        ws_p = WeightsSym(*w1, parity=Parity.ODD)
        ws_pp = WeightsSym(*w2, parity=Parity.ODD)
        prediction = None
    else:
        if args.mu1 is None or args.mu2 is None:
            raise ValueError("need --mu1/--mu2 or --weights1/--weights2")
        params = ThetaParams.from_modulus(args.k)
        ws_p = baxter_weights(EllipticPoint(args.k, args.lam, args.mu1), params)
        ws_pp = baxter_weights(EllipticPoint(args.k, args.lam, args.mu2), params)
        prediction = sheaf_r_elliptic(
            (Parity.ODD, Parity.ODD), args.k, args.lam, args.mu1 - args.mu2, params
        )
    dim, candidates = solve_intertwiner(lax_odd(ws_p), lax_odd(ws_pp), rel_tol=tol)
    records = []
    ok = True
    for cand in candidates:
        r_vec = (cand[0, 0], cand[1, 1], cand[1, 2], cand[0, 3])
        residuals = np.abs(functional_residuals(r_vec, ws_p, ws_pp))
        good = bool(residuals.max() < res_tol)
        ok = ok and good
        records.append(
            {
                "matrix": _matrix_json(cand),
                "functional_residuals": [float(x) for x in residuals],
                "pass": good,
            }
        )
    report = {
        "command": "solve-r",
        "weights1": list(ws_p.as_tuple()),
        "weights2": list(ws_pp.as_tuple()),
        "tol": tol,
        "kernel_dim": dim,
        "candidates": records,
    }
    if prediction is not None:
        pred = normalize_gauge(prediction)
        report["prediction"] = _matrix_json(pred)
        if dim == 1:
            gap = float(np.max(np.abs(candidates[0] - pred)))
            report["prediction_gap"] = gap
            ok = ok and gap < tol
        else:
            ok = False
    return report, ok


def cmd_commute(args, tol) -> tuple[dict, bool]:
    params = ThetaParams.from_modulus(args.k)
    mus = [float(x) for x in args.mus.split(",") if x]
    points = [
        baxter_weights(EllipticPoint(args.k, args.lam, mu), params) for mu in mus
    ]
    kinds = tuple(args.kinds.split(","))
    if len(kinds) != 2:
        raise ValueError("--kinds needs two comma-separated transfer kinds")
    norms = transfer.commutation_scan(points, args.sites, kinds)
    report = {
        "command": "commute",
        "k": args.k,
        "lambda": args.lam,
        "mus": mus,
        "sites": args.sites,
        "kinds": list(kinds),
        "tol": tol,
        "norms": [[float(x) for x in row] for row in norms],
        "max_norm": float(norms.max()),
    }
    return report, bool(norms.max() < tol)


def _weights_from_args(args) -> WeightsEight:
    parity = _PARITY[args.model]
    if args.weights:
        vals = _parse_floats(args.weights, 8, "--weights")
        return WeightsEight(tuple(vals), parity)
    rng = np.random.default_rng(args.seed)
    return WeightsEight(tuple(rng.uniform(0.2, 1.4, size=8)), parity)


def cmd_partition(args, tol) -> tuple[dict, bool]:
    w8 = _weights_from_args(args)
    lattice = transfer.LatticeSpec(args.rows, args.cols)
    report = {
        "command": "partition",
        "model": w8.parity.value,
        "staggered": args.staggered,
        "rows": args.rows,
        "cols": args.cols,
        "weights": weights_to_json(w8),
        "seed": args.seed,
        "backend": args.backend,
        "tol": tol,
    }
    ok = True
    if args.backend in ("trace", "both"):
        z = transfer.partition_trace(w8, lattice, staggered=args.staggered)
        report["trace"] = _complex_json(z)
    if args.backend in ("enumerate", "both"):
        z = transfer.partition_enumerate(w8, lattice, staggered=args.staggered)
        report["enumerate"] = _complex_json(z)
    if args.backend == "both":
        zt = complex(*report["trace"])
        ze = complex(*report["enumerate"])
        scale = max(abs(zt), abs(ze))
        gap = abs(zt - ze) / scale if scale > 0 else 0.0
        report["rel_diff"] = gap
        ok = gap < tol
    return report, ok


def cmd_wukunz(args, tol) -> tuple[dict, bool]:
    w8 = _weights_from_args(args)
    lattice = transfer.LatticeSpec(args.rows, args.cols)
    rep = transfer.wu_kunz_check(w8, lattice, backend=args.backend)
    report = {
        "command": "wukunz",
        "weights": weights_to_json(w8),
        "seed": args.seed,
        "tol": tol,
    }
    report.update(rep.to_json_dict())
    return report, rep.rel_diff < tol


def cmd_sample_krinsky(args, tol) -> tuple[dict, bool]:
    first, second = sample_krinsky_pair(args.seed)
    inv1 = np.array(krinsky_invariants(first))
    inv2 = np.array(krinsky_invariants(second))
    ff = (abs(free_fermion_residual(first)), abs(free_fermion_residual(second)))
    gap = float(np.max(np.abs(inv1 - inv2)))
    report = {
        "command": "sample-krinsky",
        "seed": args.seed,
        "first": weights_to_json(first),
        "second": weights_to_json(second),
        "ff_residuals": [ff[0], ff[1]],
        "krinsky_first": [float(x) for x in inv1],
        "krinsky_gap": gap,
        "tol": tol,
    }
    return report, max(ff) < tol and gap < tol


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vertex-sheaf",
        description="Eight-vertex integrability checks with JSON reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, threshold=None):
        p = sub.add_parser(name, help=help)
        p.add_argument("--output", help="write the report to a file instead of stdout")
        if threshold is not None:
            p.add_argument("--tol", type=positive_float,
                           default=DEFAULT_THRESHOLDS[threshold],
                           help="pass threshold (default: %(default)g)")
        p.set_defaults(func=func)
        return p

    p = command("param", cmd_param, "elliptic weights and manifold invariants")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)

    p = command("ybe", cmd_ybe, "parity-labelled Yang-Baxter residuals", "residual")
    p.add_argument("--k", type=float, default=0.5)
    p.add_argument("--lam", type=float, default=0.7)
    p.add_argument("--mu1", type=float, required=True)
    p.add_argument("--mu2", type=float, required=True)
    p.add_argument("--parities", default="od,od,ev", help="three of ev/od, or 'all'")
    p.add_argument("--detune", type=float, default=0.0,
                   help="shift the middle spectral argument (negative control)")

    p = command("solve-r", cmd_solve_r, "discover the intertwiner by SVD kernel", "kernel")
    p.add_argument("--k", type=float, default=0.5)
    p.add_argument("--lam", type=float, default=0.7)
    p.add_argument("--mu1", type=float, default=None)
    p.add_argument("--mu2", type=float, default=None)
    p.add_argument("--weights1", help="a,b,c,d of the first point (off-manifold runs)")
    p.add_argument("--weights2", help="a,b,c,d of the second point")

    p = command("commute", cmd_commute, "pairwise transfer-matrix commutators", "commutator")
    p.add_argument("--k", type=float, default=0.5)
    p.add_argument("--lam", type=float, default=0.7)
    p.add_argument("--mus", required=True, help="comma-separated spectral points")
    p.add_argument("--sites", type=int, default=6)
    p.add_argument("--kinds", default="even,even", help="two of even/odd/stag1/stag2/stagprod")

    p = command("partition", cmd_partition, "torus partition function", "enumeration")
    p.add_argument("--model", choices=("even", "odd"), required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--weights", help="w1..w8 comma-separated; omit to draw from --seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--staggered", action="store_true")
    p.add_argument("--backend", choices=("trace", "enumerate", "both"), default="both")

    p = command("wukunz", cmd_wukunz, "uniform vs staggered equivalence check", "enumeration")
    p.add_argument("--model", choices=("even", "odd"), default="odd")
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--cols", type=int, default=2)
    p.add_argument("--weights", help="w1..w8 comma-separated; omit to draw from --seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=("trace", "enumerate"), default="enumerate")

    p = command("sample-krinsky", cmd_sample_krinsky, "seeded on-manifold weight pair",
                "commutator")
    p.add_argument("--seed", type=int, required=True)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; write its report and return the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        report, ok = args.func(args, getattr(args, "tol", None))
        bad = [key for key, value in report.items() if not _is_finite(value)]
        if bad:
            raise GuardError(f"non-finite result in {', '.join(bad)}")
        code = 0 if ok else 1
    except (GuardError, UndefinedInvariantError, ValueError) as exc:
        report, ok, code = {"command": args.command, "error": str(exc)}, False, 2
    report["pass"] = bool(ok)
    text = json.dumps(report, allow_nan=False)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

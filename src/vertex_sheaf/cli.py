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

The options are declared once, in ``_COMMANDS``.  ``main`` reads a plain
argv straight into argparse's namespace (``_read_plain``) and hands any
other to the argparse parser, which alone prints help and usage errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import linalg, transfer
from .elliptic import EllipticPoint, baxter_weights
from .operators import (
    functional_residuals,
    lax_odd,
    normalize_gauge,
    sheaf_r_elliptic,
    sheaf_weight_points,
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
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


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
    report.update(manifold_report(ws))
    return report, True


def cmd_ybe(args, tol) -> tuple[dict, bool]:
    if args.parities.strip().lower() == "all":
        triples = list(itertools.product((Parity.ODD, Parity.EVEN), repeat=3))
    else:
        labels = [p for p in args.parities.split(",") if p]
        if len(labels) != 3 or any(p not in _PARITY for p in labels):
            raise ValueError("parities must be three of ev/od, or 'all'")
        triples = [tuple(_PARITY[p] for p in labels)]
    points = sheaf_weight_points(args.mu1, args.mu2, args.k, args.lam, detune=args.detune)
    residuals = sheaf_yang_baxter_residual(triples, points)
    records = [
        {"parities": [p.value for p in tri], "residual": res, "pass": res < tol}
        for tri, res in zip(triples, residuals)
    ]
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
        ws_p = WeightsSym(*w1)
        ws_pp = WeightsSym(*w2)
        prediction = None
    else:
        if args.mu1 is None or args.mu2 is None:
            raise ValueError("need --mu1/--mu2 or --weights1/--weights2")
        ws_p = baxter_weights(EllipticPoint(args.k, args.lam, args.mu1))
        ws_pp = baxter_weights(EllipticPoint(args.k, args.lam, args.mu2))
        prediction = sheaf_r_elliptic(
            (Parity.ODD, Parity.ODD), args.k, args.lam, args.mu1 - args.mu2
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
    mus = [float(x) for x in args.mus.split(",") if x]
    points = [baxter_weights(EllipticPoint(args.k, args.lam, mu)) for mu in mus]
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
    zs = {}
    for name in transfer.BACKENDS if args.backend == "both" else (args.backend,):
        compute = getattr(transfer, transfer.BACKENDS[name])
        zs[name] = compute(w8, lattice, staggered=args.staggered)
        report[name] = [zs[name], 0.0]
    if len(zs) == 1:
        return report, True
    report["rel_diff"] = gap = linalg.rel_gap(*zs.values())
    return report, gap < tol


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
    report.update(rep, lhs=[rep["lhs"], 0.0], rhs=[rep["rhs"], 0.0])
    return report, rep["rel_diff"] < tol


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


#: each subcommand's function, help, threshold and own options, as
#: (option string, ``add_argument`` keywords); the argparse parser and the
#: plain-argv reader are both built from it
_COMMANDS = {
    "param": (cmd_param, "elliptic weights and manifold invariants", None, (
        ("--k", dict(type=float, required=True)),
        ("--lam", dict(type=float, required=True)),
        ("--mu", dict(type=float, required=True)),
    )),
    "ybe": (cmd_ybe, "parity-labelled Yang-Baxter residuals", "residual", (
        ("--k", dict(type=float, default=0.5)),
        ("--lam", dict(type=float, default=0.7)),
        ("--mu1", dict(type=float, required=True)),
        ("--mu2", dict(type=float, required=True)),
        ("--parities", dict(default="od,od,ev", help="three of ev/od, or 'all'")),
        ("--detune", dict(type=float, default=0.0,
                          help="shift the middle spectral argument (negative control)")),
    )),
    "solve-r": (cmd_solve_r, "discover the intertwiner by SVD kernel", "kernel", (
        ("--k", dict(type=float, default=0.5)),
        ("--lam", dict(type=float, default=0.7)),
        ("--mu1", dict(type=float, default=None)),
        ("--mu2", dict(type=float, default=None)),
        ("--weights1", dict(help="a,b,c,d of the first point (off-manifold runs)")),
        ("--weights2", dict(help="a,b,c,d of the second point")),
    )),
    "commute": (cmd_commute, "pairwise transfer-matrix commutators", "commutator", (
        ("--k", dict(type=float, default=0.5)),
        ("--lam", dict(type=float, default=0.7)),
        ("--mus", dict(required=True, help="comma-separated spectral points")),
        ("--sites", dict(type=int, default=6)),
        ("--kinds", dict(default="even,even", help="two of even/odd/stag1/stag2/stagprod")),
    )),
    "partition": (cmd_partition, "torus partition function", "enumeration", (
        ("--model", dict(choices=("even", "odd"), required=True)),
        ("--rows", dict(type=int, required=True)),
        ("--cols", dict(type=int, required=True)),
        ("--weights", dict(help="w1..w8 comma-separated; omit to draw from --seed")),
        ("--seed", dict(type=int, default=0)),
        ("--staggered", dict(action="store_true")),
        ("--backend", dict(choices=(*transfer.BACKENDS, "both"), default="both")),
    )),
    "wukunz": (cmd_wukunz, "uniform vs staggered equivalence check", "enumeration", (
        ("--model", dict(choices=("even", "odd"), default="odd")),
        ("--rows", dict(type=int, default=2)),
        ("--cols", dict(type=int, default=2)),
        ("--weights", dict(help="w1..w8 comma-separated; omit to draw from --seed")),
        ("--seed", dict(type=int, default=0)),
        ("--backend", dict(choices=tuple(transfer.BACKENDS), default="enumerate")),
    )),
    "sample-krinsky": (cmd_sample_krinsky, "seeded on-manifold weight pair", "commutator", (
        ("--seed", dict(type=int, required=True)),
    )),
}


def _options(name: str) -> tuple:
    """Every option of a subcommand: ``--output``, ``--tol`` if it has a
    threshold, then its own."""
    _, _, threshold, own = _COMMANDS[name]
    common = [("--output", dict(help="write the report to a file instead of stdout"))]
    if threshold is not None:
        common.append(("--tol", dict(type=positive_float, default=DEFAULT_THRESHOLDS[threshold],
                                     help="pass threshold (default: %(default)g)")))
    return (*common, *own)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vertex-sheaf",
        description="Eight-vertex integrability checks with JSON reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for flag, kwargs in _options(name):
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _reader(name: str) -> tuple:
    """(func, option string -> (dest, type or None for a flag, choices),
    defaults, required dests) of a subcommand, read off ``_options`` as
    ``add_argument`` reads its keywords."""
    spec, defaults, required = {}, {}, set()
    for flag, kwargs in _options(name):
        dest, is_flag = flag[2:].replace("-", "_"), kwargs.get("action") == "store_true"
        spec[flag] = dest, None if is_flag else kwargs.get("type", str), kwargs.get("choices")
        defaults[dest] = kwargs.get("default", False if is_flag else None)
        if kwargs.get("required"):
            required.add(dest)
    return _COMMANDS[name][0], spec, defaults, required


_READERS = {name: _reader(name) for name in _COMMANDS}


def _read_plain(argv: list):
    """The namespace ``parse_args`` gives a plain argv, or None.

    Plain is a subcommand followed only by its own option strings, each
    with one value that does not start with "-" (a flag with none), every
    value converting and within its choices, and every required option
    given.  A repeated option keeps its last value, as in argparse.
    """
    if not argv or argv[0] not in _READERS:
        return None
    func, spec, defaults, required = _READERS[argv[0]]
    values, seen = dict(defaults), set()
    words = iter(argv[1:])
    try:
        for word in words:
            dest, convert, choices = spec[word]
            if convert is None:
                values[dest] = True
            else:
                text = next(words)
                if text.startswith("-"):
                    return None
                values[dest] = convert(text)
                if choices is not None and values[dest] not in choices:
                    return None
            seen.add(dest)
    except (KeyError, StopIteration, AttributeError, TypeError, ValueError,
            argparse.ArgumentTypeError):
        return None
    if not required <= seen:
        return None
    return argparse.Namespace(command=argv[0], func=func, **values)


def _parse(argv) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``: a plain argv is read directly,
    any other (help, an abbreviation, ``--name=value``, a negative value,
    an error) goes to argparse, the only source of help and usage text."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return _read_plain(argv) or _build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one subcommand; write its report and return the exit code."""
    args = _parse(argv)
    try:
        report, ok = args.func(args, getattr(args, "tol", None))
        code = 0 if ok else 1
    except (UndefinedInvariantError, ValueError) as exc:
        report, ok, code = {"command": args.command, "error": str(exc)}, False, 2
    report["pass"] = bool(ok)
    try:
        text = json.dumps(report, allow_nan=False)
    except ValueError:
        # a non-finite number is a guard error; walk the report to name its keys
        bad = [key for key, value in report.items() if not _is_finite(value)]
        if not bad:
            raise
        error = f"non-finite result in {', '.join(bad)}"
        text = json.dumps({"command": args.command, "error": error, "pass": False})
        code = 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            sys.stderr.write(f"vertex-sheaf: cannot write {args.output}: {exc.strerror}\n")
            return 2
    else:
        sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

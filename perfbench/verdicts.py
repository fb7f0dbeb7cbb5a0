"""Judge each check against what the theory predicts.

The report's own ``"pass"`` field is never trusted.  A check fails when
its exit code is wrong, when its report is not strict JSON (a bare
``NaN`` or ``Infinity`` token), when any number in it is non-finite, or
when the numbers disagree with the expectation recomputed here from the
report's raw values: trace against enumeration from the two partition
functions, the quadric and Krinsky invariants from the weights, the
kernel candidate against the predicted intertwiner, and so on.
"""

from __future__ import annotations

import json
import math

from workloads import (
    COMMUTATOR_TOL,
    CONTROL_FLOOR,
    ENUMERATION_TOL,
    KERNEL_TOL,
    RESIDUAL_TOL,
    SPIN_FLIP_TOL,
)


class Failed(Exception):
    """A check's output disagrees with the expectation."""


def _reject_constant(token: str):
    raise Failed(f"report is not strict JSON: bare {token} token")


def _check_finite(obj, path="report"):
    if isinstance(obj, float) and not math.isfinite(obj):
        raise Failed(f"non-finite number at {path}")
    if isinstance(obj, dict):
        for key, val in obj.items():
            _check_finite(val, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            _check_finite(val, f"{path}[{i}]")


def parse_report(text: str) -> dict:
    """Strict JSON with finite numbers only; one object per report."""
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise Failed(f"report is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise Failed("report is not a JSON object")
    _check_finite(obj)
    return obj


def _require(ok: bool, what: str):
    if not ok:
        raise Failed(what)


def _close(x: float, y: float, tol: float = 1e-9) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


def _z(pair) -> complex:
    return complex(pair[0], pair[1])


def _rel_gap(z1: complex, z2: complex) -> float:
    scale = max(abs(z1), abs(z2))
    return abs(z1 - z2) / scale if scale > 0 else 0.0


def _positive_real(z: complex, what: str):
    # a sum of products of positive weights is real and positive
    _require(z.real > 0 and abs(z.imag) <= 1e-9 * z.real, f"{what} = {z} is not real positive")


def _ff(w) -> float:
    return w[0] * w[1] + w[2] * w[3] - w[4] * w[5] - w[6] * w[7]


def _krinsky(w) -> tuple[float, float, float]:
    den = w[4] * w[6]
    return (
        w[5] * w[7] / den,
        (w[0] * w[3] + w[1] * w[2]) / den,
        (w[0] ** 2 + w[3] ** 2 - w[1] ** 2 - w[2] ** 2) / den,
    )


def _param(rep, expect):
    a, b, c, d = (rep[x] for x in "abcd")
    _require(min(a, b, c, d) > 0, "weights leave the physical regime 0 < mu < lambda")
    den = a * b + c * d
    _require(_close(rep["gamma"], (a * b - c * d) / den), "gamma disagrees with (a, b, c, d)")
    _require(
        _close(rep["delta"], (a * a + b * b - c * c - d * d) / (2 * den)),
        "delta disagrees with (a, b, c, d)",
    )
    w = (a, a, b, b, c, c, d, d)
    _require(_close(rep["ff_residual"], _ff(w)), "free-fermion residual disagrees")
    got, want = rep["krinsky"], _krinsky(w)
    _require(all(_close(g, x) for g, x in zip(got, want)), "Krinsky invariants disagree")


def _ybe(rep, expect, detuned=False):
    res = [r["residual"] for r in rep["records"]]
    _require(len(res) == expect["records"], f"{len(res)} parity triples, want {expect['records']}")
    if detuned:
        _require(min(res) > CONTROL_FLOOR, f"detuned residual {min(res):.3g} is not a failure")
    else:
        _require(max(res) < RESIDUAL_TOL, f"Yang-Baxter residual {max(res):.3g}")


def _solve_r(rep, expect):
    dim = rep["kernel_dim"]
    _require(dim == expect["kernel_dim"], f"kernel dim {dim}, want {expect['kernel_dim']}")
    _require(len(rep["candidates"]) == dim, "candidate count disagrees with the kernel dim")
    if dim == 1:
        cand = [_z(e) for row in rep["candidates"][0]["matrix"] for e in row]
        pred = [_z(e) for row in rep["prediction"] for e in row]
        gap = max(abs(x - y) for x, y in zip(cand, pred))
        _require(gap < KERNEL_TOL, f"kernel vector misses the predicted intertwiner by {gap:.3g}")
        worst = max(rep["candidates"][0]["functional_residuals"])
        _require(worst < RESIDUAL_TOL, f"functional residual {worst:.3g}")


def _commute(rep, expect):
    worst = max(max(row) for row in rep["norms"])
    _require(worst < COMMUTATOR_TOL, f"commutator {worst:.3g}")


def _partition(rep, expect):
    zs = {key: _z(rep[key]) for key in ("trace", "enumerate") if key in rep}
    _require(zs, "report carries no partition function")
    if expect.get("z_zero"):
        # odd model on an odd-by-odd torus: every configuration vanishes
        z = zs.get("enumerate")
        _require(z == 0, f"odd-by-odd enumeration gives {z}, not exactly 0")
        return
    for key, z in zs.items():
        _positive_real(z, key)
    if len(zs) == 2:
        gap = _rel_gap(zs["trace"], zs["enumerate"])
        _require(gap < ENUMERATION_TOL, f"trace and enumeration differ by {gap:.3g}")


def _wukunz(rep, expect):
    lhs, rhs = _z(rep["lhs"]), _z(rep["rhs"])
    _positive_real(lhs, "lhs")
    gap = _rel_gap(lhs, rhs)
    _require(gap < ENUMERATION_TOL, f"uniform and staggered sides differ by {gap:.3g}")


def _sample_krinsky(rep, expect):
    w1, w2 = rep["first"]["w"], rep["second"]["w"]
    for w in (w1, w2):
        _require(abs(_ff(w)) < COMMUTATOR_TOL, f"free-fermion residual {_ff(w):.3g}")
    gap = max(abs(x - y) for x, y in zip(_krinsky(w1), _krinsky(w2)))
    _require(gap < COMMUTATOR_TOL, f"Krinsky invariants differ by {gap:.3g}")
    _require(max(abs(x - y) for x, y in zip(w1, w2)) >= 1e-3, "the two points coincide")


def _spinflip(rep, expect):
    _require(rep["worst_dev"] < SPIN_FLIP_TOL, f"T_od - S T_ev deviates by {rep['worst_dev']:.3g}")


def _stagprod(rep, expect):
    _require(rep["product"] < COMMUTATOR_TOL, f"staggered products commute to {rep['product']:.3g}")
    _require(rep["factor"] > CONTROL_FLOOR, f"single factors commute ({rep['factor']:.3g})")


_JUDGES = {
    "param": _param,
    "ybe": _ybe,
    "ybe-detuned": lambda rep, expect: _ybe(rep, expect, detuned=True),
    "solve-r": _solve_r,
    "commute": _commute,
    "partition": _partition,
    "wukunz": _wukunz,
    "sample-krinsky": _sample_krinsky,
    "spinflip": _spinflip,
    "stagprod": _stagprod,
}


def judge(check: dict, exit_code, output: str) -> str | None:
    """None when the check meets its expectation, else the reason it fails.

    ``exit_code`` is None when the check raised instead of returning.
    """
    expect = check["expect"]
    want_exit = expect.get("exit", 0)
    if exit_code != want_exit:
        return f"exit code {exit_code}, want {want_exit}"
    name = expect.get("check", check["kind"])
    try:
        _JUDGES[name](parse_report(output), expect)
    except Failed as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None

"""Vertex weight vectors, symmetry maps, and manifold invariants.

The even and odd families each carry eight energy weights.  Arrow-inversion
symmetry collapses them to four (a, b, c, d).  This module houses the
quadric invariants of the commuting-transfer manifold, the free-fermion
and Krinsky constraint residuals, the sublattice companion permutation
used by the staggered equivalences, and a seeded sampler for pairs of
weight points sharing the free-fermion/Krinsky manifold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Parity",
    "UndefinedInvariantError",
    "manifold_report",
    "WeightsSym",
    "WeightsEight",
    "to_eight",
    "baxter_invariants",
    "free_fermion_residual",
    "krinsky_invariants",
    "staggered_companion",
    "ev_od_swap",
    "sample_krinsky_pair",
    "reparity",
    "weights_to_json",
]


class Parity(enum.Enum):
    """Vertex family: even or odd number of inward arrows per vertex."""

    EVEN = "even"
    ODD = "odd"

    @property
    def flipped(self) -> "Parity":
        return Parity.ODD if self is Parity.EVEN else Parity.EVEN


class UndefinedInvariantError(ArithmeticError):
    """A manifold invariant was requested at a vanishing denominator."""


def _real_weights(values) -> None:
    if not all(isinstance(x, (int, float, np.integer, np.floating)) and math.isfinite(x)
               for x in values):
        raise ValueError("weights must be real and finite")


@dataclass(frozen=True)
class WeightsSym:
    """Arrow-inversion symmetric weights (a, b, c, d): four reals of no family;
    the operator built from them (``lax_even``, ``lax_odd``) names it."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        _real_weights(self.as_tuple())

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class WeightsEight:
    """Eight energy weights w1..w8 (stored 0-indexed) of one vertex family."""

    w: tuple[float, ...]
    parity: Parity

    def __post_init__(self):
        if len(self.w) != 8:
            raise ValueError(f"expected 8 weights, got {len(self.w)}")
        _real_weights(self.w)
        object.__setattr__(self, "w", tuple(map(float, self.w)))

    def as_array(self) -> np.ndarray:
        return np.array(self.w, dtype=float)


def to_eight(ws: WeightsSym) -> WeightsEight:
    """The even weights (a, a, b, b, c, c, d, d); ``reparity`` reads them as odd."""
    a, b, c, d = ws.as_tuple()
    return WeightsEight((a, a, b, b, c, c, d, d), Parity.EVEN)


def baxter_invariants(ws: WeightsSym) -> tuple[float, float]:
    """The two quadric ratios that label the commuting-transfer manifold.

    Returns ``((ab - cd)/(ab + cd), (a^2 + b^2 - c^2 - d^2)/(2(ab + cd)))``.
    """
    a, b, c, d = ws.as_tuple()
    den = a * b + c * d
    if den == 0.0:
        raise UndefinedInvariantError("ab + cd vanishes; invariants undefined")
    gamma = (a * b - c * d) / den
    delta = (a * a + b * b - c * c - d * d) / (2.0 * den)
    return gamma, delta


def free_fermion_residual(w8: WeightsEight) -> float:
    """``w1*w2 + w3*w4 - w5*w6 - w7*w8``; zero on the free-fermion quadric."""
    w = w8.w
    return w[0] * w[1] + w[2] * w[3] - w[4] * w[5] - w[6] * w[7]


def krinsky_invariants(w8: WeightsEight) -> tuple[float, float, float]:
    """The three weight ratios fixed on the asymmetric commuting manifold.

    ``(w6*w8/(w5*w7), (w1*w4 + w2*w3)/(w5*w7),
    (w1^2 + w4^2 - w2^2 - w3^2)/(w5*w7))``.
    """
    w = w8.w
    den = w[4] * w[6]
    if den == 0.0:
        raise UndefinedInvariantError("w5*w7 vanishes; invariants undefined")
    d1 = w[5] * w[7] / den
    d2 = (w[0] * w[3] + w[1] * w[2]) / den
    d3 = (w[0] ** 2 + w[3] ** 2 - w[1] ** 2 - w[2] ** 2) / den
    return d1, d2, d3


def staggered_companion(w8: WeightsEight) -> WeightsEight:
    """Sublattice-Y weight permutation (w3,w4,w1,w2,w8,w7,w6,w5), parity kept.

    A staggered torus of one family carries the weights on sublattice X
    and this permutation of them, read as the same family, on Y; a
    uniform model of the other family is equivalent to it.  It is an
    involution on the weight vector and preserves the free-fermion
    residual.
    """
    w = w8.w
    return WeightsEight((w[2], w[3], w[0], w[1], w[7], w[6], w[5], w[4]), w8.parity)


def ev_od_swap(ws: WeightsSym) -> WeightsSym:
    """Exchange (a, b) with (c, d).

    Realizes the even/odd index exchange of the intertwiner family; both
    manifold invariants change sign under it.
    """
    return WeightsSym(ws.c, ws.d, ws.a, ws.b)


def sample_krinsky_pair(seed: int) -> tuple[WeightsEight, WeightsEight]:
    """Two distinct odd weight vectors sharing the free-fermion/Krinsky manifold.

    The first point is drawn at random and projected onto the free-fermion
    quadric by solving for w8.  Its ratios (d1, d2, d3) are imposed on a
    second point in closed form: draw w1, w5, w6, w7, set w8 = d1*w5*w7/w6,
    and with s = w5*w6 + w7*w8, p = d2*w5*w7, q = d3*w5*w7 the remaining
    equations (the free-fermion quadric and the last two ratios) become
    AB = s + p, CD = s - p, AC - BD = q in A = w1 + w3, B = w2 + w4,
    C = w1 - w3, D = w2 - w4.  So X = AC solves X^2 - qX - (s^2 - p^2) = 0,
    w3 = sqrt(w1^2 - X), C = X/A, B = (s + p)/A and D = (s - p)/C.  Of the
    nonzero real roots with X <= w1^2 the larger in magnitude is taken (it
    keeps D small); a draw with none is redrawn.  Both constraints are
    re-checked from the returned weights.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    for _ in range(50):
        w = rng.uniform(0.3, 1.3, size=8)
        w[7] = (w[0] * w[1] + w[2] * w[3] - w[4] * w[5]) / w[6]
        if abs(w[7]) < 0.05:
            continue
        first = WeightsEight(tuple(w), Parity.ODD)
        d1, d2, d3 = krinsky_invariants(first)

        for _ in range(20):
            w5, w7 = rng.uniform(0.3, 1.3, size=2)
            w6 = rng.uniform(0.3, 1.3)
            w8 = d1 * w5 * w7 / w6
            w1 = rng.uniform(0.3, 1.3)
            s = w5 * w6 + w7 * w8
            p = d2 * w5 * w7
            q = d3 * w5 * w7
            disc = q * q + 4.0 * (s * s - p * p)
            if disc < 0.0:
                continue
            r = math.sqrt(disc)
            roots = [x for x in ((q + r) / 2.0, (q - r) / 2.0) if x != 0.0 and x <= w1 * w1]
            if not roots:
                continue
            x = max(roots, key=abs)
            w3 = math.sqrt(w1 * w1 - x)
            a = w1 + w3
            b, d = (s + p) / a, (s - p) / (x / a)
            second = WeightsEight(
                (w1, (b + d) / 2.0, w3, (b - d) / 2.0, w5, w6, w7, w8), Parity.ODD
            )
            if np.max(np.abs(second.as_array() - first.as_array())) < 1e-3:
                continue
            if abs(free_fermion_residual(second)) > 1e-10:
                continue
            got = np.array(krinsky_invariants(second))
            if np.max(np.abs(got - np.array([d1, d2, d3]))) > 1e-9:
                continue
            return first, second
    raise RuntimeError("krinsky pair sampler: draw budget exhausted")


def manifold_report(ws: WeightsSym) -> dict:
    """The quadric invariants and both constraint residuals, as report fields.

    The residual and the Krinsky ratios are those of ``to_eight(ws)``.
    ``gamma``/``delta`` are None when ab + cd vanishes, ``krinsky`` when c does.
    """
    try:
        gamma, delta = baxter_invariants(ws)
    except UndefinedInvariantError:
        gamma = delta = None
    w8 = to_eight(ws)
    try:
        krinsky = list(krinsky_invariants(w8))
    except UndefinedInvariantError:
        krinsky = None
    return {
        "gamma": gamma,
        "delta": delta,
        "ff_residual": free_fermion_residual(w8),
        "krinsky": krinsky,
    }


def weights_to_json(w8: WeightsEight) -> dict:
    """Wire format shared with the CLI: 8 numbers plus a parity string."""
    return {"w": list(w8.w), "parity": w8.parity.value}


def reparity(w8: WeightsEight, parity: Parity) -> WeightsEight:
    """Same weight vector read as the other family."""
    return replace(w8, parity=parity)

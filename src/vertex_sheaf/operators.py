"""Local 4x4 operators and the Yang-Baxter layer.

Builds the four-member intertwiner family R^(alpha,beta) labelled by
parity pairs, the symmetric Lax operators (its members with an even
quantum label), the one eight-weight Lax constructor (its family is the
weights' parity), and everything needed to test the Yang-Baxter equation
numerically: leg embeddings, residuals, the six functional relations,
and an SVD kernel solver that discovers the intertwiner from scratch.
The solver's 64x16 linear system applies the three-leg relation to the
16 unit matrices embedded on legs 1, 2.

Every 4x4 vertex operator, Lax operator and intertwiner alike, is a
plain float64 array: eight real weights on one of two sparsity patterns.
Embeddings, solver and gauge keep that dtype.
``SLOTS`` is the one vertex dictionary of where w1..w8 sit, filled by
``vertex_matrix`` and read back by ``matches_pattern``, and both
partition backends of the transfer module read their weights through it.

Basis conventions, fixed once for the whole package: two-dimensional
legs with up = index 0, basis order (00, 01, 10, 11), first tensor slot
the horizontal/auxiliary space.  Structural zeros of every constructor
are exact.

Spectral convention of the intertwiner family: ``sheaf_r_elliptic`` at
argument mu fills the parity-pair pattern with the elliptic weights
taken at mu - lam.  With that offset the family obeys the additive
three-leg relations with arguments (mu1, mu1 + mu2, mu2), its value at 0
is proportional to the leg permutation, and the intertwiner of two Lax
operators at spectral points mu', mu'' is the family member at
mu' - mu''.  The offset is intrinsic: the same family written without it
satisfies the relations only with the middle argument shifted by lam.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .elliptic import EllipticPoint, baxter_weights
from .weights import Parity, WeightsEight, WeightsSym, ev_od_swap

__all__ = [
    "SIGMA_X",
    "SLOTS",
    "vertex_matrix",
    "matches_pattern",
    "lax_even",
    "lax_odd",
    "lax_asym",
    "r_sheaf",
    "sheaf_r_elliptic",
    "yang_baxter_residual",
    "functional_residuals",
    "solve_intertwiner",
    "sheaf_weight_points",
    "sheaf_yang_baxter_residual",
    "normalize_gauge",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])

#: the vertex dictionary: where w1..w8 sit in each sparsity class,
#:   even [[w1,0,0,w7],[0,w3,w6,0],[0,w5,w4,0],[w8,0,0,w2]]
#:   odd  [[0,w1,w7,0],[w3,0,0,w6],[w5,0,0,w4],[0,w8,w2,0]]
SLOTS = {
    "even": ((0, 0), (3, 3), (1, 1), (2, 2), (2, 1), (1, 2), (0, 3), (3, 0)),
    "odd": ((0, 1), (3, 2), (1, 0), (2, 3), (2, 0), (1, 3), (0, 2), (3, 1)),
}
_FLAT_SLOTS = {kind: np.array([4 * i + j for i, j in ij]) for kind, ij in SLOTS.items()}


def vertex_matrix(kind: str, w) -> np.ndarray:
    """The 4x4 matrix with w1..w8 at the ``SLOTS[kind]`` positions, zero elsewhere."""
    m = np.zeros(16)
    m[_FLAT_SLOTS[kind]] = w
    return m.reshape(4, 4)


def matches_pattern(m: np.ndarray, kind: str, tol: float = 0.0) -> bool:
    """True when every off-pattern entry has magnitude <= tol."""
    off = np.delete(np.asarray(m).reshape(16), _FLAT_SLOTS[kind])
    return all(abs(x) <= tol for x in off)


def lax_even(ws: WeightsSym) -> np.ndarray:
    """Symmetric even Lax operator R^(ev,ev): weights on the even pattern.
    A Lax operator is the sheaf member whose quantum label is even."""
    return r_sheaf((Parity.EVEN, Parity.EVEN), ws)


def lax_odd(ws: WeightsSym) -> np.ndarray:
    """Symmetric odd Lax operator R^(od,ev): weights on the odd pattern.

    Equals (sx (x) sx) L_even (sx (x) I) for every weight point, the
    weight-independent local transformation linking the two families.
    """
    return r_sheaf((Parity.ODD, Parity.EVEN), ws)


def lax_asym(w8: WeightsEight) -> np.ndarray:
    """Asymmetric vertex operator: the eight weights on their family's pattern.

    The family is the weights' parity: odd weights fill the odd ``SLOTS``
    pattern (sublattice X of the staggered chain), even weights the even
    one, the staggered-equivalence partner.  At arrow-inversion symmetric
    weights either reduces to the symmetric operator of its family.  The
    even entry dictionary is pinned by two requirements: the symmetric
    limit is the even operator above, and flipping one vertical leg per
    vertex turns a uniform odd torus into the staggered even torus with
    the companion weights on sublattice Y (which makes the staggered
    partition equivalences exact identities, checked by enumeration in
    the tests).  Equivalently the even matrix equals the odd one at the
    same weights times (I (x) sx).
    """
    return vertex_matrix(w8.parity.value, w8.w)


def r_sheaf(pair: tuple[Parity, Parity], ws: WeightsSym) -> np.ndarray:
    """One member of the four-matrix intertwiner family at given weights.

    (ev,ev): even pattern with (a,b,c,d);  (od,od): even pattern with
    (c,d,a,b);  (od,ev): odd pattern with (a,b,c,d), identical to the
    symmetric odd Lax matrix;  (ev,od): odd pattern with (c,d,a,b).
    Exchanging both labels amounts to the weight swap a<->c, b<->d.
    """
    alpha, beta = pair
    a, b, c, d = (ev_od_swap(ws) if beta is Parity.ODD else ws).as_tuple()
    return vertex_matrix("even" if alpha is beta else "odd", (a, a, b, b, c, c, d, d))


def sheaf_r_elliptic(
    pair: tuple[Parity, Parity], k: float, lam: float, mu: float
) -> np.ndarray:
    """Intertwiner family member at spectral argument ``mu``.

    Fills the pattern with the elliptic weights at mu - lam (see the
    module docstring for why the offset is part of the family).  At
    mu = 0 every member is proportional to a permutation-type matrix.
    """
    ws = baxter_weights(EllipticPoint(k, lam, mu - lam))
    return r_sheaf(pair, ws)


def _three_leg_residual(x12: np.ndarray, x13: np.ndarray, x23: np.ndarray) -> np.ndarray:
    """Per member of three (n, 4, 4) stacks: max-entry norm of
    X12 X13 X23 - X23 X13 X12 over the product of the operand norms.

    A member with a zero operand has residual 0.0.
    """
    n12, n13, n23 = (np.max(np.abs(x), axis=(-2, -1)) for x in (x12, x13, x23))
    scale = n12 * n13 * n23
    f12 = linalg.two_site_operator(x12, 3, 0, 1)
    f13 = linalg.two_site_operator(x13, 3, 0, 2)
    f23 = linalg.two_site_operator(x23, 3, 1, 2)
    diff = np.max(np.abs(f12 @ f13 @ f23 - f23 @ f13 @ f12), axis=(-2, -1))
    return np.divide(diff, scale, out=np.zeros_like(scale), where=scale != 0.0)


def yang_baxter_residual(r12: np.ndarray, lax_p: np.ndarray, lax_pp: np.ndarray) -> float:
    """Relative residual of R12 L'13 L''23 = L''23 L'13 R12 on three legs.

    Max-entry norm of the difference, divided by the product of the
    operand norms.
    """
    stacks = (linalg.as_matrix(r12), np.asarray(lax_p), np.asarray(lax_pp))
    return float(_three_leg_residual(*(x[np.newaxis] for x in stacks))[0])


def functional_residuals(
    r: Iterable[float], ws_p: WeightsSym, ws_pp: WeightsSym
) -> np.ndarray:
    """The six functional relations coupling (r1..r4) to two weight points.

    Returns the six left-hand sides verbatim; all vanish exactly when
    (r1..r4) fills the intertwiner of the two points.
    """
    r1, r2, r3, r4 = r
    ap, bp, cp, dp = ws_p.as_tuple()
    app, bpp, cpp, dpp = ws_pp.as_tuple()
    return np.array(
        [
            r4 * cp * bpp + r1 * ap * cpp - r2 * ap * dpp - r3 * cp * app,
            r1 * dp * app + r4 * bp * dpp - r2 * cp * app - r3 * ap * dpp,
            r4 * dp * app + r1 * bp * dpp - r3 * dp * bpp - r2 * bp * cpp,
            r1 * cp * bpp + r4 * ap * cpp - r2 * dp * bpp - r3 * bp * cpp,
            r1 * ap * bpp + r4 * cp * cpp - r1 * bp * app - r4 * dp * dpp,
            r2 * ap * app + r3 * cp * dpp - r2 * bp * bpp - r3 * dp * cpp,
        ]
    )


def normalize_gauge(m: np.ndarray) -> np.ndarray:
    """Scale so the largest-magnitude entry becomes exactly +1.

    Removes the scalar freedom the Yang-Baxter equation leaves in an
    intertwiner.
    """
    m = np.asarray(m)
    pivot = m.flat[int(np.argmax(np.abs(m)))]
    if pivot == 0.0:
        raise ValueError("cannot normalize the zero matrix")
    return m / pivot


def solve_intertwiner(
    lax_p: np.ndarray, lax_pp: np.ndarray, rel_tol: float = 1e-8
) -> tuple[int, list[np.ndarray]]:
    """Numerically solve the three-leg relation for an unknown 4x4 R.

    Vectorizes R -> R12 (L'13 L''23) - (L''23 L'13) R12 into a 64x16
    linear map, column j the image of the j-th unit matrix, and returns
    its SVD kernel dimension together with the kernel vectors reshaped to
    4x4 and gauge-normalized.  A zero Lax operator is rejected: every R
    would solve the relation.
    """
    if not (lax_p.any() and lax_pp.any()):
        raise ValueError("cannot solve for the intertwiner of a zero Lax operator")
    l13 = linalg.two_site_operator(lax_p, 3, 0, 2)
    l23 = linalg.two_site_operator(lax_pp, 3, 1, 2)
    units = linalg.two_site_operator(np.eye(16).reshape(16, 4, 4), 3, 0, 1)
    system = (units @ (l13 @ l23) - (l23 @ l13) @ units).reshape(16, 64).T
    kernel = linalg.null_space(system, rel_tol)
    candidates = [normalize_gauge(vec.reshape(4, 4)) for vec in kernel]
    return len(kernel), candidates


def sheaf_weight_points(
    mu1: float, mu2: float, k: float, lam: float, detune: float = 0.0
) -> tuple[WeightsSym, WeightsSym, WeightsSym]:
    """Elliptic weights of R12(mu1), R13(mu1 + mu2) and R23(mu2), each at mu - lam.

    Every parity labelling of the three-leg relation is filled from these
    three points.  ``detune`` shifts the middle argument and serves as a
    negative control.
    """
    mus = (mu1, mu1 + mu2 + detune, mu2)
    return tuple(baxter_weights(EllipticPoint(k, lam, mu - lam)) for mu in mus)


def sheaf_yang_baxter_residual(
    triples: Sequence[tuple[Parity, Parity, Parity]],
    points: tuple[WeightsSym, WeightsSym, WeightsSym],
) -> list[float]:
    """Relative residual of each parity-labelled three-leg relation.

    Evaluates R12^(a1,a2) R13^(a1,a3) R23^(a2,a3) against the reversed
    product for every triple (a1, a2, a3), the members filled from the
    three ``sheaf_weight_points``.  The twelve members (four parity
    pairs at each point) are built once and every triple is evaluated
    in one stacked contraction.
    """
    pairs = list(itertools.product(Parity, repeat=2))
    members = np.array([[r_sheaf(pair, ws) for pair in pairs] for ws in points])
    legs = ((0, 1), (0, 2), (1, 2))
    rows = ([pairs.index((tri[i], tri[j])) for tri in triples] for i, j in legs)
    return _three_leg_residual(*(m[r] for m, r in zip(members, rows))).tolist()

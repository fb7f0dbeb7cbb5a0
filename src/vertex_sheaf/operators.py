"""Local 4x4 operators and the Yang-Baxter layer.

Builds the symmetric even/odd Lax matrices, the asymmetric odd Lax pair
of the staggered chain, the four-member intertwiner family labelled by
parity pairs, and everything needed to test the Yang-Baxter equation
numerically: leg embeddings, residuals, the six functional relations,
and an SVD kernel solver that discovers the intertwiner from scratch.

Every 4x4 vertex matrix, Lax operator and intertwiner alike, is eight
weights on one of two sparsity patterns: ``SLOTS`` is the one vertex
dictionary of where w1..w8 sit, filled by ``vertex_matrix``, and both
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

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import linalg
from .elliptic import EllipticPoint, ThetaParams, baxter_weights
from .weights import Parity, WeightsEight, WeightsSym, ev_od_swap

__all__ = [
    "SIGMA_X",
    "LaxOperator",
    "SLOTS",
    "vertex_matrix",
    "even_pattern",
    "odd_pattern",
    "matches_pattern",
    "lax_even",
    "lax_odd",
    "lax_asym_odd",
    "lax_asym_even",
    "r_sheaf",
    "sheaf_r_elliptic",
    "yang_baxter_residual",
    "functional_residuals",
    "solve_intertwiner",
    "sheaf_yang_baxter_residual",
    "normalize_gauge",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: the vertex dictionary: where w1..w8 sit in each sparsity class,
#:   even [[w1,0,0,w7],[0,w3,w6,0],[0,w5,w4,0],[w8,0,0,w2]]
#:   odd  [[0,w1,w7,0],[w3,0,0,w6],[w5,0,0,w4],[0,w8,w2,0]]
SLOTS = {
    "even": ((0, 0), (3, 3), (1, 1), (2, 2), (2, 1), (1, 2), (0, 3), (3, 0)),
    "odd": ((0, 1), (3, 2), (1, 0), (2, 3), (2, 0), (1, 3), (0, 2), (3, 1)),
}
_FLAT_SLOTS = {kind: np.array([4 * i + j for i, j in ij]) for kind, ij in SLOTS.items()}

#: nonzero positions of the two sparsity classes
EVEN_POSITIONS = frozenset(SLOTS["even"])
ODD_POSITIONS = frozenset(SLOTS["odd"])


@dataclass(frozen=True)
class LaxOperator:
    """A 4x4 vertex operator with its (auxiliary, quantum) parity labels."""

    matrix: np.ndarray
    pair: tuple[Parity, Parity]

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        if m.shape != (4, 4):
            raise ValueError("Lax operators are 4x4")
        object.__setattr__(self, "matrix", m)
        if not matches_pattern(m, self.kind):
            raise ValueError(f"matrix violates the {self.kind} sparsity pattern")

    @property
    def kind(self) -> str:
        """Sparsity class: equal labels give 'even', mixed give 'odd'."""
        return "even" if self.pair[0] is self.pair[1] else "odd"


def vertex_matrix(kind: str, w) -> np.ndarray:
    """The 4x4 matrix with w1..w8 at the ``SLOTS[kind]`` positions, zero elsewhere."""
    m = np.zeros(16, dtype=complex)
    m[_FLAT_SLOTS[kind]] = w
    return m.reshape(4, 4)


def even_pattern(r1, r2, r3, r4) -> np.ndarray:
    """[[r1,0,0,r4],[0,r2,r3,0],[0,r3,r2,0],[r4,0,0,r1]]"""
    return vertex_matrix("even", (r1, r1, r2, r2, r3, r3, r4, r4))


def odd_pattern(a, b, c, d) -> np.ndarray:
    """[[0,a,d,0],[b,0,0,c],[c,0,0,b],[0,d,a,0]]"""
    return vertex_matrix("odd", (a, a, b, b, c, c, d, d))


def matches_pattern(m: np.ndarray, kind: str, tol: float = 0.0) -> bool:
    """True when every off-pattern entry has magnitude <= tol."""
    positions = EVEN_POSITIONS if kind == "even" else ODD_POSITIONS
    m = np.asarray(m)
    return all(
        abs(m[i, j]) <= tol
        for i in range(4)
        for j in range(4)
        if (i, j) not in positions
    )


def lax_even(ws: WeightsSym) -> LaxOperator:
    """Symmetric even vertex operator: weights on the even pattern."""
    return LaxOperator(even_pattern(*ws.as_tuple()), (Parity.EVEN, Parity.EVEN))


def lax_odd(ws: WeightsSym) -> LaxOperator:
    """Symmetric odd vertex operator: weights on the odd pattern.

    Equals (sx (x) sx) L_even (sx (x) I) for every weight point, the
    weight-independent local transformation linking the two families.
    """
    return LaxOperator(odd_pattern(*ws.as_tuple()), (Parity.ODD, Parity.EVEN))


def _lax_asym(w8: WeightsEight, parity: Parity) -> LaxOperator:
    kind = parity.value
    if w8.parity is not parity:
        raise ValueError(f"asymmetric {kind} operator needs {kind}-family weights")
    return LaxOperator(vertex_matrix(kind, w8.w), (parity, Parity.EVEN))


def lax_asym_odd(w8: WeightsEight) -> LaxOperator:
    """Asymmetric odd vertex operator (sublattice X of the staggered chain).

    The eight weights on the odd ``SLOTS`` pattern; reduces to the
    symmetric odd operator at arrow-inversion symmetric weights.
    """
    return _lax_asym(w8, Parity.ODD)


def lax_asym_even(w8: WeightsEight) -> LaxOperator:
    """Asymmetric even vertex operator, the staggered-equivalence partner.

    The eight weights on the even ``SLOTS`` pattern.  The entry
    dictionary is pinned by two requirements: the symmetric limit is the
    even operator above, and flipping one vertical leg per vertex turns
    a uniform odd torus into the staggered even torus with the companion
    weights on sublattice Y (which makes the staggered partition
    equivalences exact identities, checked by enumeration in the tests).
    Equivalently it equals the plain asymmetric odd matrix times
    (I (x) sx).
    """
    return _lax_asym(w8, Parity.EVEN)


def r_sheaf(pair: tuple[Parity, Parity], ws: WeightsSym) -> np.ndarray:
    """One member of the four-matrix intertwiner family at given weights.

    (ev,ev): even pattern with (a,b,c,d);  (od,od): even pattern with
    (c,d,a,b);  (od,ev): odd pattern with (a,b,c,d), identical to the
    symmetric odd Lax matrix;  (ev,od): odd pattern with (c,d,a,b).
    Exchanging both labels amounts to the weight swap a<->c, b<->d.
    """
    alpha, beta = pair
    if beta is Parity.ODD:
        ws = ev_od_swap(ws)
    return (even_pattern if alpha is beta else odd_pattern)(*ws.as_tuple())


def sheaf_r_elliptic(
    pair: tuple[Parity, Parity],
    k: float,
    lam: float,
    mu: float,
    params: ThetaParams | None = None,
) -> np.ndarray:
    """Intertwiner family member at spectral argument ``mu``.

    Fills the pattern with the elliptic weights at mu - lam (see the
    module docstring for why the offset is part of the family).  At
    mu = 0 every member is proportional to a permutation-type matrix.
    """
    ws = baxter_weights(EllipticPoint(k, lam, mu - lam), params)
    return r_sheaf(pair, ws)


def _three_leg_residual(x12: np.ndarray, x13: np.ndarray, x23: np.ndarray) -> float:
    """Max-entry norm of X12 X13 X23 - X23 X13 X12 over the product of operand norms."""
    scale = linalg.max_abs(x12) * linalg.max_abs(x13) * linalg.max_abs(x23)
    if scale == 0.0:
        return 0.0
    f12 = linalg.two_site_operator(x12, 3, 0, 1)
    f13 = linalg.two_site_operator(x13, 3, 0, 2)
    f23 = linalg.two_site_operator(x23, 3, 1, 2)
    return linalg.max_abs(f12 @ f13 @ f23 - f23 @ f13 @ f12) / scale


def yang_baxter_residual(
    r12: np.ndarray, lax_p: LaxOperator, lax_pp: LaxOperator
) -> float:
    """Relative residual of R12 L'13 L''23 = L''23 L'13 R12 on three legs.

    Max-entry norm of the difference, divided by the product of the
    operand norms.
    """
    return _three_leg_residual(linalg.as_matrix(r12), lax_p.matrix, lax_pp.matrix)


def functional_residuals(
    r: Iterable[float], ws_p: WeightsSym, ws_pp: WeightsSym
) -> np.ndarray:
    """The six functional relations coupling (r1..r4) to two weight points.

    Returns the six left-hand sides verbatim; all vanish exactly when
    (r1..r4) fills the intertwiner of the two points.
    """
    r1, r2, r3, r4 = (complex(x) for x in r)
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
    m = np.asarray(m, dtype=complex)
    pivot = m.flat[int(np.argmax(np.abs(m)))]
    if pivot == 0.0:
        raise ValueError("cannot normalize the zero matrix")
    return m / pivot


def solve_intertwiner(
    lax_p: LaxOperator, lax_pp: LaxOperator, rel_tol: float = 1e-8
) -> tuple[int, list[np.ndarray]]:
    """Numerically solve the three-leg relation for an unknown 4x4 R.

    Vectorizes R -> R12 (L'13 L''23) - (L''23 L'13) R12 into a 64x16
    linear map and returns its SVD kernel dimension together with the
    kernel vectors reshaped to 4x4 and gauge-normalized.  A zero Lax
    operator is rejected: every R would solve the relation.
    """
    if not (lax_p.matrix.any() and lax_pp.matrix.any()):
        raise ValueError("cannot solve for the intertwiner of a zero Lax operator")
    l13 = linalg.two_site_operator(lax_p.matrix, 3, 0, 2)
    l23 = linalg.two_site_operator(lax_pp.matrix, 3, 1, 2)
    a = l13 @ l23
    b = l23 @ l13
    system = np.zeros((64, 16), dtype=complex)
    for idx in range(16):
        basis = np.zeros((4, 4), dtype=complex)
        basis[idx // 4, idx % 4] = 1.0
        basis12 = linalg.two_site_operator(basis, 3, 0, 1)
        system[:, idx] = (basis12 @ a - b @ basis12).reshape(64)
    kernel = linalg.null_space(system, rel_tol)
    candidates = [normalize_gauge(vec.reshape(4, 4)) for vec in kernel]
    return len(kernel), candidates


def sheaf_yang_baxter_residual(
    parities: tuple[Parity, Parity, Parity],
    mu1: float,
    mu2: float,
    k: float,
    lam: float,
    params: ThetaParams | None = None,
    detune: float = 0.0,
) -> float:
    """Relative residual of one parity-labelled three-leg relation.

    Evaluates R12^(a1,a2)(mu1) R13^(a1,a3)(mu1+mu2) R23^(a2,a3)(mu2)
    against the reversed product, each member built from the elliptic
    family at its own argument.  ``detune`` shifts the middle argument
    and serves as a negative control.
    """
    a1, a2, a3 = parities
    if params is None:
        params = ThetaParams.from_modulus(k)
    r12 = sheaf_r_elliptic((a1, a2), k, lam, mu1, params)
    r13 = sheaf_r_elliptic((a1, a3), k, lam, mu1 + mu2 + detune, params)
    r23 = sheaf_r_elliptic((a2, a3), k, lam, mu2, params)
    return _three_leg_residual(r12, r13, r23)

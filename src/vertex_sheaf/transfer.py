"""Row transfer matrices, partition functions, and commutation scans.

Two independent partition-function backends share one vertex dictionary
(``operators.SLOTS``, read through the Lax constructors): a trace
backend that multiplies 2x2 blocks of quantum operators along a row and
traces the auxiliary index, and an exhaustive enumeration backend that
sums the weight of every arrow configuration on a small torus.
Agreement between the two validates both; disagreement would expose a
convention error immediately.

Edge layout of the enumeration backend, fixed for reproducibility:
vertices row-major, each vertex (r, c) owning its left horizontal edge
and its bottom vertical edge, bit index 2*(r*cols + c) for the
horizontal edge and the same plus one for the vertical edge.  A vertex
weight is looked up as matrix[(2*left + bottom), (2*right + top)] with
up/right = index 0 conventions inherited from the operator module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .operators import (
    SIGMA_X,
    LaxOperator,
    lax_asym_even,
    lax_asym_odd,
    lax_even,
    lax_odd,
)
from .weights import (
    Parity,
    WeightsEight,
    WeightsSym,
    reparity,
    staggered_companion,
    to_eight,
)

__all__ = [
    "MAX_SITES",
    "MAX_ENUM_EDGES",
    "TransferMatrix",
    "LatticeSpec",
    "transfer_matrix",
    "transfer_family",
    "sigma_x_string",
    "staggered_transfer_pair",
    "partition_trace",
    "partition_enumerate",
    "WuKunzReport",
    "wu_kunz_check",
    "commutation_scan",
]

#: memory guard: 2^12 x 2^12 complex is the largest dense transfer matrix
MAX_SITES = 12
#: enumeration guard: 2 * rows * cols edges, at most 2^24 configurations
MAX_ENUM_EDGES = 24
#: chunk of configurations processed per vectorized enumeration pass
_ENUM_CHUNK = 1 << 20


@dataclass(frozen=True)
class TransferMatrix:
    """Row transfer matrix on a periodic chain."""

    matrix: np.ndarray
    sites: int

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        if m.shape != (2**self.sites,) * 2:
            raise ValueError("transfer matrix dimension must be 2^sites")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic rows x cols torus."""

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("lattice dimensions must be positive")


def _aux_blocks(m4: np.ndarray) -> list[list[np.ndarray]]:
    """2x2 grid of quantum-space blocks, indexed by the auxiliary legs."""
    return [[m4[2 * a : 2 * a + 2, 2 * ap : 2 * ap + 2] for ap in (0, 1)] for a in (0, 1)]


def _block_prefixes(matrices: list[np.ndarray]):
    """Auxiliary 2x2 blocks of the ordered block product of every prefix of a row."""
    acc = _aux_blocks(matrices[0])
    yield acc
    for m4 in matrices[1:]:
        blk = _aux_blocks(m4)
        acc = [
            [
                np.kron(acc[a][0], blk[0][c]) + np.kron(acc[a][1], blk[1][c])
                for c in (0, 1)
            ]
            for a in (0, 1)
        ]
        yield acc


def _trace_blocks(matrices: list[np.ndarray]) -> np.ndarray:
    """Ordered block product over a row, traced on the auxiliary index."""
    for acc in _block_prefixes(matrices):
        pass
    return acc[0][0] + acc[1][1]


def _check_sites(sites: int):
    if not 1 <= sites <= MAX_SITES:
        raise ValueError(f"chain length {sites} outside 1..{MAX_SITES}")


def transfer_matrix(lax: LaxOperator, sites: int) -> TransferMatrix:
    """Trace of the ordered product of one Lax operator along a row."""
    _check_sites(sites)
    return TransferMatrix(_trace_blocks([lax.matrix] * sites), sites)


def transfer_family(lax: LaxOperator, max_sites: int) -> list[TransferMatrix]:
    """Transfer matrices for every chain length 1..max_sites in one sweep.

    The block recursion yields each intermediate length for free, which
    keeps whole-family scans linear in the largest size.
    """
    _check_sites(max_sites)
    return [
        TransferMatrix(acc[0][0] + acc[1][1], sites)
        for sites, acc in enumerate(_block_prefixes([lax.matrix] * max_sites), 1)
    ]


def sigma_x_string(sites: int) -> np.ndarray:
    """Global spin-flip operator sx (x) sx (x) ... (x) sx."""
    _check_sites(sites)
    return linalg.kron_chain([SIGMA_X] * sites)


def _uniform_lax(w8: WeightsEight) -> LaxOperator:
    return lax_asym_odd(w8) if w8.parity is Parity.ODD else lax_asym_even(w8)


def _sublattice_lax(w8: WeightsEight) -> tuple[np.ndarray, np.ndarray]:
    """Sublattice X and Y vertex matrices: the weights, then their companion."""
    companion = reparity(staggered_companion(w8), w8.parity)
    return _uniform_lax(w8).matrix, _uniform_lax(companion).matrix


def staggered_transfer_pair(
    w8: WeightsEight, pairs: int
) -> tuple[TransferMatrix, TransferMatrix]:
    """The two row transfer matrices of the staggered chain of 2*pairs sites.

    T1 alternates plain/companion operators starting from the plain one,
    T2 starts from the companion; the sublattice-Y weights are the
    companion permutation of the input, as in the staggered equivalences.
    """
    if pairs < 1 or 2 * pairs > MAX_SITES:
        raise ValueError(f"staggered chain length {2 * pairs} outside 2..{MAX_SITES}")
    lx, ly = _sublattice_lax(w8)
    sites = 2 * pairs
    return (
        TransferMatrix(_trace_blocks([lx, ly] * pairs), sites),
        TransferMatrix(_trace_blocks([ly, lx] * pairs), sites),
    )


def partition_trace(
    w8: WeightsEight, lattice: LatticeSpec, staggered: bool = False
) -> complex:
    """Torus partition function via powers of the row transfer matrix.

    Uniform model: trace of T^rows.  Staggered model (rows and cols
    even): trace of (T1 T2)^(rows/2).
    """
    if staggered:
        if lattice.rows % 2 or lattice.cols % 2:
            raise ValueError("staggered tori need even rows and cols")
        t1, t2 = staggered_transfer_pair(w8, lattice.cols // 2)
        step = t1.matrix @ t2.matrix
        return complex(np.trace(np.linalg.matrix_power(step, lattice.rows // 2)))
    t = transfer_matrix(_uniform_lax(w8), lattice.cols)
    return complex(np.trace(np.linalg.matrix_power(t.matrix, lattice.rows)))


def _lut(m4: np.ndarray) -> np.ndarray:
    """Flatten a 4x4 vertex matrix to the 16-entry enumeration table."""
    return np.asarray(m4, dtype=complex).reshape(16).copy()


def partition_enumerate(
    w8: WeightsEight, lattice: LatticeSpec, staggered: bool = False
) -> complex:
    """Torus partition function by exhaustive sum over arrow configurations.

    Sums the product of vertex weights over all 2^(2 rows cols) edge
    states; configurations containing a vertex outside the model's
    family contribute exactly zero through the structural zeros of the
    vertex dictionary.  Independent of the trace backend.
    """
    rows, cols = lattice.rows, lattice.cols
    edges = 2 * rows * cols
    if edges > MAX_ENUM_EDGES:
        raise ValueError(f"enumeration limited to {MAX_ENUM_EDGES} edges, got {edges}")
    if staggered:
        if rows % 2 or cols % 2:
            raise ValueError("staggered tori need even rows and cols")
        lut_x, lut_y = (_lut(m4) for m4 in _sublattice_lax(w8))
    else:
        lut_x = lut_y = _lut(_uniform_lax(w8).matrix)

    # per-vertex bit positions of (left, bottom, right, top)
    sites = []
    for r in range(rows):
        for c in range(cols):
            left = 2 * (r * cols + c)
            bottom = left + 1
            right = 2 * (r * cols + (c + 1) % cols)
            top = 2 * (((r + 1) % rows) * cols + c) + 1
            lut = lut_x if (r + c) % 2 == 0 else lut_y
            sites.append((left, bottom, right, top, lut))

    total = 0.0 + 0.0j
    n_conf = 1 << edges
    for start in range(0, n_conf, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, n_conf)
        conf = np.arange(start, stop, dtype=np.int64)
        prod = np.ones(stop - start, dtype=complex)
        for left, bottom, right, top, lut in sites:
            code = (
                ((conf >> left) & 1) * 8
                + ((conf >> bottom) & 1) * 4
                + ((conf >> right) & 1) * 2
                + ((conf >> top) & 1)
            )
            prod *= lut[code]
        total += complex(prod.sum())
    return total


@dataclass(frozen=True)
class WuKunzReport:
    """Both sides of one staggered equivalence and their relative gap."""

    lhs: complex
    rhs: complex
    rel_diff: float
    rows: int
    cols: int
    parity: str
    backend: str

    def to_json_dict(self) -> dict:
        return {
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "rel_diff": self.rel_diff,
            "lattice": [self.rows, self.cols],
            "model": self.parity,
            "backend": self.backend,
        }


def wu_kunz_check(
    w8: WeightsEight, lattice: LatticeSpec, backend: str = "enumerate"
) -> WuKunzReport:
    """Uniform model of one parity against the staggered opposite-parity model.

    The left side is the uniform torus at the given weights; the right
    side is the staggered torus of the flipped parity with the same
    weights on sublattice X and their companion permutation on Y.  Both
    sides use the same backend ('enumerate' or 'trace').
    """
    if lattice.rows % 2 or lattice.cols % 2:
        raise ValueError("the staggered side needs an even-sized torus")
    if backend not in ("enumerate", "trace"):
        raise ValueError(f"unknown backend {backend!r}")
    compute = partition_enumerate if backend == "enumerate" else partition_trace
    lhs = compute(w8, lattice, staggered=False)
    opposite = reparity(w8, w8.parity.flipped)
    rhs = compute(opposite, lattice, staggered=True)
    scale = max(abs(lhs), abs(rhs))
    rel = abs(lhs - rhs) / scale if scale > 0.0 else 0.0
    return WuKunzReport(
        lhs, rhs, rel, lattice.rows, lattice.cols, w8.parity.value, backend
    )


_SYMMETRIC_KINDS = ("even", "odd")
_STAGGERED_KINDS = ("stag1", "stag2", "stagprod")


def _transfer_of_kind(point, kind: str, sites: int) -> np.ndarray:
    if kind in _SYMMETRIC_KINDS:
        if not isinstance(point, WeightsSym):
            raise ValueError("symmetric kinds take WeightsSym points")
        lax = lax_even(point) if kind == "even" else lax_odd(point)
        return transfer_matrix(lax, sites).matrix
    if kind in _STAGGERED_KINDS:
        if isinstance(point, WeightsSym):
            point = to_eight(point)
        if sites % 2:
            raise ValueError("staggered kinds need an even chain length")
        t1, t2 = staggered_transfer_pair(point, sites // 2)
        if kind == "stag1":
            return t1.matrix
        if kind == "stag2":
            return t2.matrix
        return t1.matrix @ t2.matrix
    raise ValueError(f"unknown transfer kind {kind!r}")


def commutation_scan(
    points: list, sites: int, kinds: tuple[str, str]
) -> np.ndarray:
    """Pairwise relative commutator norms between two transfer families.

    Entry (i, j) is the relative commutator of the kinds[0] transfer
    matrix at points[i] with the kinds[1] transfer matrix at points[j],
    all on the same chain.
    """
    if not points:
        raise ValueError("commutation scan needs at least one point")
    first = [_transfer_of_kind(p, kinds[0], sites) for p in points]
    second = (
        first
        if kinds[1] == kinds[0]
        else [_transfer_of_kind(p, kinds[1], sites) for p in points]
    )
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = linalg.rel_commutator_norm(first[i], second[j])
    return out

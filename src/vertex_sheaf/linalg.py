"""Dense linear algebra kernel shared by every other module.

Matrices keep the dtype of their data: the package's operators are
float64, and complex input stays complex128.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "as_matrix",
    "max_abs",
    "real_abs_max",
    "kron_chain",
    "rel_commutator_norm",
    "rel_gap",
    "null_space",
    "two_site_operator",
    "real_part",
]

#: imaginary residue allowed when a complex value is reported as real
REAL_TOL = 1e-10


def as_matrix(entries) -> np.ndarray:
    """Coerce to a square float64 or complex128 matrix, rejecting non-finite entries."""
    m = np.asarray(entries)
    m = m.astype(np.result_type(m, float), copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    finite = np.isfinite(m).all() if m.dtype.kind == "c" else math.isfinite(max_abs(m))
    if not finite:
        raise ValueError("matrix contains non-finite entries")
    return m


def real_abs_max(a: np.ndarray, axis=None) -> np.ndarray:
    """max |a| along ``axis`` for non-empty real ``a``, without an |a| copy.

    The largest of max a and -min a: nan and +-inf propagate as they do
    through ``np.abs``, and adding 0.0 turns an all-zero -0.0 into 0.0.
    """
    return np.maximum(a.max(axis=axis), -a.min(axis=axis)) + 0.0


def max_abs(a: np.ndarray) -> float:
    """Max-absolute-entry norm, the residual norm used throughout."""
    a = np.asarray(a)
    if not a.size:
        return 0.0
    return float(real_abs_max(a) if a.dtype.kind == "f" else np.max(np.abs(a)))


def kron_chain(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    mats = list(mats)
    if not mats:
        raise ValueError("empty Kronecker chain")
    out = np.asarray(mats[0])
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


@functools.cache
def _parity_sectors(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices of even and of odd bit parity (the sigma^z-parity
    sectors of a chain), in order; any ``dim``, cached per dimension."""
    bits = np.arange(dim)
    parity = np.zeros_like(bits)
    while bits.any():
        parity ^= bits & 1
        bits >>= 1
    sectors = np.flatnonzero(parity == 0), np.flatnonzero(parity)
    for s in sectors:
        s.setflags(write=False)
    return sectors


def _sector_blocks(m: np.ndarray) -> dict:
    """The blocks m[x-sector rows, y-sector columns] that hold a nonzero
    entry, keyed (x, y).  Each block is gathered alone, and a zero one
    is released before the next is gathered."""
    sectors = _parity_sectors(len(m))
    blocks = {}
    for x, rs in enumerate(sectors):
        rows = m.take(rs, axis=0)
        for y, cs in enumerate(sectors):
            block = rows.take(cs, axis=1)
            if block.any():
                blocks[x, y] = block
            del block
        del rows
    return blocks


def _block_product(left: dict, right: dict, x: int, y: int):
    """Block (x, y) of the product of two blocked matrices; None when
    every term has a dropped (zero) factor."""
    out = None
    for z in (0, 1):
        if (x, z) in left and (z, y) in right:
            if out is None:
                out = left[x, z] @ right[z, y]
            else:
                out += left[x, z] @ right[z, y]
    return out


def _sector_max(a: dict, b: dict, x: int, y: int) -> float:
    """max_abs of block (x, y) of AB - BA from the blocks of A and B.

    The two products are summed alike, so an operand against itself
    gives exact zeros.
    """
    c, ba = _block_product(a, b, x, y), _block_product(b, a, x, y)
    if c is None:
        c = ba  # C = -BA: the sign does not move max_abs
    elif ba is not None:
        c -= ba
    del ba  # release before max_abs, which copies a complex C
    return 0.0 if c is None else max_abs(c)


def rel_commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """``max_abs(AB - BA)`` divided by the product of the operand norms.

    Exactly zero for an operand against itself; commuting operands leave
    rounding-level residue, as the two products sum in different orders.

    The commutator is formed block by block over the two sigma^z-parity
    sectors of the basis (even and odd bit count of the index).  Each
    operand's four sector blocks are gathered and the exactly zero ones
    dropped, with no tolerance; a block of
    C = AB - BA sums only the block products whose factors both survive.
    A row transfer matrix, and any product of rows, maps each sector to
    one sector, so two of its four blocks are zero: a pair of them costs
    four (d/2)-square products instead of two d-square ones, a quarter
    of the arithmetic, and the result differs from the dense one only by
    rounding.  A general dense pair keeps every block product.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square operands, got shape {a.shape}")
    scale = max_abs(a) * max_abs(b)
    if scale == 0.0:
        return 0.0
    a, b = _sector_blocks(a), _sector_blocks(b)
    return max(_sector_max(a, b, x, y) for x in (0, 1) for y in (0, 1)) / scale


def rel_gap(a: float, b: float) -> float:
    """|a - b| over the larger magnitude; 0 when both are 0."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def null_space(m: np.ndarray, rel_tol: float) -> list[np.ndarray]:
    """Orthonormal basis of the numerical kernel of a rectangular matrix.

    Returns the right-singular vectors whose singular values fall below
    ``rel_tol * sigma_max``.  A zero matrix has a full kernel.  SVD
    non-convergence surfaces as ``numpy.linalg.LinAlgError``.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("null_space expects a matrix")
    n = m.shape[1]
    # a tall matrix's reduced vh is already n x n; only a wide one needs the rest
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < n)
    if s.size == 0 or s[0] == 0.0:
        return [vh[i].conj() for i in range(n)]
    # vh rows past min(m, n) correspond to singular value zero
    sigma = np.zeros(n)
    sigma[: s.size] = s
    return [vh[i].conj() for i in range(n) if sigma[i] < rel_tol * s[0]]


def two_site_operator(op: np.ndarray, sites: int, p: int, q: int) -> np.ndarray:
    """Embed a 4x4 two-site operator on legs ``p`` and ``q`` of a chain.

    Legs are two-dimensional; ``op`` acts on the ordered pair (p, q) and
    identity elsewhere.  A stack ``(..., 4, 4)`` embeds member by member
    through the same contraction, the stack axes leading.  Used for the
    three-leg Yang-Baxter embeddings.  The identity legs are float64, so
    a float64 operator embeds as float64 and a complex one as complex128.
    """
    op = np.asarray(op)
    if op.shape[-2:] != (4, 4):
        raise ValueError(f"two_site_operator expects (..., 4, 4) operators, got {op.shape}")
    if p == q or not (0 <= p < sites and 0 <= q < sites):
        raise ValueError(f"invalid legs ({p}, {q}) for {sites} sites")
    # leg x is label x on the output side and sites + x on the input side
    stack = op.shape[:-2]
    operands = [op.reshape(*stack, 2, 2, 2, 2), [..., p, q, sites + p, sites + q]]
    for x in range(sites):
        if x not in (p, q):
            operands += [np.eye(2), [x, sites + x]]
    dim = 2**sites
    return np.einsum(*operands, [..., *range(2 * sites)]).reshape(*stack, dim, dim)


def real_part(z: complex) -> float:
    """Real part of a nominally real value.

    Raises if the imaginary residue exceeds ``REAL_TOL * max(1, |z|)``; the
    elliptic layer computes in complex arithmetic, so genuinely real
    outputs carry only rounding-level imaginary parts.
    """
    z = complex(z)
    if abs(z.imag) > REAL_TOL * max(1.0, abs(z)):
        raise ValueError(f"value {z} is not real within tolerance {REAL_TOL}")
    return z.real

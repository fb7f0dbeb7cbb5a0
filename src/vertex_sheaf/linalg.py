"""Dense complex linear algebra kernel shared by every other module.

All matrices are numpy arrays of complex128.  Operations are pure
functions over immutable inputs; nothing here keeps state, so everything
is safe to call from concurrent workers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "max_abs",
    "kron_chain",
    "commutator_norm",
    "rel_commutator_norm",
    "null_space",
    "two_site_operator",
    "real_part",
]

#: imaginary residue allowed when a complex value is reported as real
REAL_TOL = 1e-10


def as_matrix(entries) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def max_abs(a: np.ndarray) -> float:
    """Max-absolute-entry norm, the residual norm used throughout."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def kron_chain(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    mats = list(mats)
    if not mats:
        raise ValueError("empty Kronecker chain")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """``max_abs(AB - BA)``.  Exactly zero when the operands commute."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return max_abs(a @ b - b @ a)


def rel_commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Commutator norm divided by the product of the operand norms."""
    scale = max_abs(a) * max_abs(b)
    if scale == 0.0:
        return 0.0
    return commutator_norm(a, b) / scale


def null_space(m: np.ndarray, rel_tol: float) -> list[np.ndarray]:
    """Orthonormal basis of the numerical kernel of a rectangular matrix.

    Returns the right-singular vectors whose singular values fall below
    ``rel_tol * sigma_max``.  A zero matrix has a full kernel.  SVD
    non-convergence surfaces as ``numpy.linalg.LinAlgError``.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("null_space expects a matrix")
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    n = m.shape[1]
    if s.size == 0 or s[0] == 0.0:
        return [vh[i].conj() for i in range(n)]
    # vh rows past min(m, n) correspond to singular value zero
    sigma = np.zeros(n)
    sigma[: s.size] = s
    return [vh[i].conj() for i in range(n) if sigma[i] < rel_tol * s[0]]


def two_site_operator(op: np.ndarray, sites: int, p: int, q: int) -> np.ndarray:
    """Embed a 4x4 two-site operator on legs ``p`` and ``q`` of a chain.

    Legs are two-dimensional; ``op`` acts on the ordered pair (p, q) and
    identity elsewhere.  Used for the three-leg Yang-Baxter embeddings.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (4, 4):
        raise ValueError("two_site_operator expects a 4x4 operator")
    if p == q or not (0 <= p < sites and 0 <= q < sites):
        raise ValueError(f"invalid legs ({p}, {q}) for {sites} sites")
    full = op.reshape(2, 2, 2, 2)
    others = [x for x in range(sites) if x not in (p, q)]
    for _ in others:
        full = np.tensordot(full, np.eye(2, dtype=complex), axes=0)
    # axis layout: p_out, q_out, p_in, q_in, then (out, in) per identity leg
    pos_out = {p: 0, q: 1}
    pos_in = {p: 2, q: 3}
    for idx, leg in enumerate(others):
        pos_out[leg] = 4 + 2 * idx
        pos_in[leg] = 5 + 2 * idx
    perm = [pos_out[x] for x in range(sites)] + [pos_in[x] for x in range(sites)]
    dim = 2**sites
    return full.transpose(perm).reshape(dim, dim)


def real_part(z: complex, tol: float = REAL_TOL) -> float:
    """Real part of a nominally real value.

    Raises if the imaginary residue exceeds ``tol * max(1, |z|)``; complex
    arithmetic is used internally everywhere, so genuinely real outputs
    carry only rounding-level imaginary parts.
    """
    z = complex(z)
    if abs(z.imag) > tol * max(1.0, abs(z)):
        raise ValueError(f"value {z} is not real within tolerance {tol}")
    return z.real

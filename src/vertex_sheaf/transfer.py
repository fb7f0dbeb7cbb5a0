"""Row transfer matrices, partition functions, and commutation scans.

A torus is read through its cell, a tuple of 4x4 vertex matrices:
vertex (r, c) reads cell[(r + c) % len(cell)].  A uniform torus has one
matrix; a staggered torus has two, the weights on sublattice X and their
companion permutation on Y (the checkerboard model of Hsue, Lin and Wu,
Phys. Rev. B 12, 429 (1975)).

Every row transfer matrix comes from one kernel, ``_row_transfer``: two
half-row open products joined by two exact batched matrix products.

Two independent partition-function backends (``BACKENDS``) share one
vertex dictionary (``operators.SLOTS``, read through
``lax_asym``): a trace backend that contracts the Lax tensor of each
vertex matrix along the shorter side of the torus, traces the auxiliary
legs, and sums the trace of the row power over the momentum blocks of
the cyclic shift, building only the rows at the shift's orbit
representatives and only half of the momenta (the other half are their
complex conjugates); and an exhaustive enumeration backend that sums
the weight of every arrow configuration on a small torus, assigning
edges vertex by vertex and dropping every partial configuration whose
weight is already exactly zero.  The enumeration never forms a transfer
matrix.  Agreement between the two validates both; disagreement would
expose a convention error immediately.

Edge layout of the enumeration backend, fixed for reproducibility:
vertices row-major, each vertex (r, c) owning its left horizontal edge
and its bottom vertical edge, bit index 2*(r*cols + c) for the
horizontal edge and the same plus one for the vertical edge.  A vertex
weight is looked up as matrix[(2*left + bottom), (2*right + top)] with
up/right = index 0 conventions inherited from the operator module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .operators import SIGMA_X, lax_asym, lax_even, lax_odd
from .weights import WeightsEight, WeightsSym, reparity, staggered_companion, to_eight

__all__ = [
    "MAX_SITES",
    "MAX_ENUM_EDGES",
    "MAX_SCAN_BYTES",
    "TransferMatrix",
    "LatticeSpec",
    "transfer_matrix",
    "transfer_family",
    "sigma_x_string",
    "staggered_transfer_pair",
    "partition_trace",
    "partition_enumerate",
    "BACKENDS",
    "wu_kunz_check",
    "commutation_scan",
]

#: memory guard: the largest dense transfer matrix is 2^12 x 2^12, 128 MiB of float64,
#: and its build peaks at about twice that; the trace backend builds about
#: 2^12 / 12 representative rows of it, not the matrix
MAX_SITES = 12
#: enumeration guard: 2 * rows * cols edges, about 2^(edges/2 + 2) live
#: partial configurations (13 MiB at 32 edges)
MAX_ENUM_EDGES = 32
#: memory guard: dense matrices one commutation scan may hold at once (2 GiB)
MAX_SCAN_BYTES = 2**31


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


#: the open product of no sites, for the empty first half of a one-site row
_NO_SITES = np.eye(2).reshape(2, 1, 2, 1)


def _open_product(laxes: list[np.ndarray]) -> np.ndarray:
    """Open product acc[a, I, b, J] of Lax tensors along part of a row.

    a enters the first site and b leaves the last.  The product grows from
    the last site, each new site's quantum legs becoming the leading bits
    of I and J, so the long column tail stays the innermost axis.
    """
    if not laxes:
        return _NO_SITES
    acc = laxes[-1]
    for lax in laxes[-2::-1]:
        d = 2 * acc.shape[3]
        acc = np.einsum("aibj,bIcJ->aiIcjJ", lax, acc).reshape(2, -1, 2, d)
    return acc


def _row_transfer(matrices: list[np.ndarray], rows=None) -> np.ndarray:
    """Auxiliary trace of the ordered product of 4x4 vertex matrices along a row.

    Each matrix is read as the Lax tensor l[a, i, b, j] = m4[2a + i, 2b + j]
    (auxiliary legs a, b; quantum legs i, j) as given: float64 matrices give
    a float64 row, and one complex matrix makes it complex.  The first site
    is the most significant bit of the row and column index.

    The row meets in the middle: the open products L[a, I, b, J] of the
    first n // 2 sites and R[b, I', a, J'] of the rest, each 2^(n/2) wide,
    give T[(I, I'), (J, J')] = sum over a, b of L R, one batched matrix
    product over b for each a, the two added in numpy.  A vertex is nonzero
    for one parity of its four legs only (``operators.SLOTS``), so a, I and
    J fix b: each sum over b, like each inside the halves, has exactly one
    nonzero term whatever order the BLAS kernel sums in, and a row whose
    vertices mirror another's (odd against even) mirrors it bit for bit.
    The build peaks at about two results.

    ``rows`` (an index array in any order, repeats allowed) restricts the
    row index: only those rows are formed, each equal to the dense row.
    """
    laxes = [m4.reshape(2, 2, 2, 2) for m4 in matrices]
    half = len(laxes) // 2
    left, right = _open_product(laxes[:half]), _open_product(laxes[half:])
    # left[a, I, b, J] -> [a, I, J, b] and right[b, I', a, J'] -> [a, I', b, J']
    lt, rt = left.transpose(0, 1, 3, 2), right.transpose(2, 1, 0, 3)
    if rows is None:
        lt, rt = lt[:, :, None], rt[:, None]
    else:
        high, low = np.divmod(rows, rt.shape[1])
        lt, rt = lt[:, high], rt[:, low]
    out = lt[0] @ rt[0]
    out += lt[1] @ rt[1]
    return out.reshape(-1, left.shape[3] * right.shape[3])


def _check_sites(sites: int):
    if not 1 <= sites <= MAX_SITES:
        raise ValueError(f"chain length {sites} outside 1..{MAX_SITES}")


def transfer_matrix(lax: np.ndarray, sites: int) -> TransferMatrix:
    """Trace of the ordered product of one 4x4 Lax operator along a row."""
    return TransferMatrix(_cell_row((lax,), sites), sites)


def transfer_family(lax: np.ndarray, max_sites: int) -> list[TransferMatrix]:
    """Transfer matrices for every chain length 1..max_sites.

    Each length is its own row contraction; together they take about 4/3
    of the arithmetic of the largest one.
    """
    _check_sites(max_sites)
    return [transfer_matrix(lax, sites) for sites in range(1, max_sites + 1)]


def sigma_x_string(sites: int) -> np.ndarray:
    """Global spin-flip operator sx (x) sx (x) ... (x) sx, real like sx."""
    _check_sites(sites)
    return linalg.kron_chain([SIGMA_X] * sites)


def _cell(w8: WeightsEight, staggered: bool) -> tuple[np.ndarray, ...]:
    """The torus cell: the weights' vertex matrix, then for a staggered
    torus that of their companion permutation (same family) on Y."""
    points = (w8, staggered_companion(w8)) if staggered else (w8,)
    return tuple(lax_asym(p) for p in points)


def _cell_row(cell, sites: int, r: int = 0, rows=None) -> np.ndarray:
    """Row r of the torus, site c reading cell[(r + c) % len(cell)].

    The chain must close on the cell, so its length is a multiple of it.
    ``rows`` restricts the matrix rows as in ``_row_transfer``.
    """
    if sites % len(cell):
        raise ValueError("staggered kinds need an even chain length")
    _check_sites(sites)
    return _row_transfer([cell[(r + c) % len(cell)] for c in range(sites)], rows)


def staggered_transfer_pair(
    w8: WeightsEight, pairs: int
) -> tuple[TransferMatrix, TransferMatrix]:
    """Rows 0 and 1 (T1, T2) of the staggered torus on a chain of 2*pairs sites."""
    cell = _cell(w8, staggered=True)
    return tuple(TransferMatrix(_cell_row(cell, 2 * pairs, r), 2 * pairs) for r in (0, 1))


#: SWAP on the two legs of a vertex: m[_SWAP][:, _SWAP] is S m S
_SWAP = [0, 2, 1, 3]


@functools.cache
def _shift_orbits(sites: int, period: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the cyclic shift P by ``period`` sites on the 2^sites basis.

    Returns ``images`` (orbits x L, L = sites / period), whose row a holds
    P^t r_a for t = 0..L-1 starting from the representative r_a, the rows
    in increasing order of r_a, and ``weight`` (L x orbits), the entry
    [k, a] being sqrt(d_a / L) where the orbit carries momentum k
    (k d_a = 0 mod L) and exactly 0 where it does not; d_a is the orbit
    size, a divisor of L.  The representative is the orbit's smallest
    state.  Both are small next to a 2^sites matrix and read-only, since
    every caller shares them.
    """
    length = sites // period
    states = np.arange(2**sites)
    images = np.empty((2**sites, length), dtype=np.intp)
    images[:, 0] = states
    for t in range(1, length):
        prev = images[:, t - 1]
        images[:, t] = ((prev << period) | (prev >> (sites - period))) & (2**sites - 1)
    images = images[images.min(axis=1) == states]
    sizes = length // (images == images[:, :1]).sum(axis=1)
    k = np.arange(length)[:, None]
    weight = np.where(k * sizes % length == 0, np.sqrt(sizes / length), 0.0)
    images.flags.writeable = weight.flags.writeable = False
    return images, weight


def _shift_trace(factors, sites: int, period: int, power: int) -> float:
    """Tr((F1 F2 ...)^power) for real factors that commute with P^period.

    Each factor is given by its rows at the orbit representatives, in the
    order of ``_shift_orbits`` (``_row_transfer`` restricted to them): no
    other row is read, so no dense factor is ever formed.  ``factors`` may
    be a lazy iterable: each factor is released once its blocks are
    formed, before the next one is drawn.

    P is the cyclic shift of the chain, P^L = 1 with L = sites / period.
    With r_a the representative and d_a the size of orbit a, the states
    |a, k> = (sqrt(d_a) / L) sum_t exp(-2 pi i k t / L) P^t |r_a>
    are orthonormal; they exist only where k d_a = 0 mod L (otherwise
    the sum of phases cancels over each period of the orbit), and for
    each k = 0..L-1 they span the momentum-k eigenspace of P.  A factor
    F that commutes with P keeps k and has the block
    <a, k|F|b, k> = sqrt(d_a d_b) / L * sum_t exp(-2 pi i k t / L) F[r_a, P^t r_b],
    one FFT over t of the representative rows gathered at the orbit
    images.  The sum over t repeats with period d_a and with period d_b,
    so where either orbit does not carry k the entry is an exact
    cancellation that the FFT only reaches to rounding: the zero weight
    restores the exact 0, and the missing states become zero rows and
    columns that no power or trace sees.

    The trace is the sum over k of the block traces tr_k.  A real F has
    B_(L-k) = conj(B_k), the FFT of a real sequence at -k, and the
    weights at L - k equal those at k, so tr_(L-k) = conj(tr_k) for every
    power and product of real factors.  Hence
    Tr = tr_0 + 2 Re sum_(0<k<L/2) tr_k (+ tr_(L/2) when L is even),
    with tr_0 and tr_(L/2) real: only the L // 2 + 1 blocks of a real FFT
    are formed and multiplied, in one batched matrix power, and the
    result is exactly real.
    """
    images, weight = _shift_orbits(sites, period)
    length = images.shape[1]
    weight = weight[: length // 2 + 1]
    step = None
    for f in factors:
        gathered = f[:, images]
        del f  # a lazily built next factor then never meets this one
        blocks = np.fft.rfft(gathered, axis=2).transpose(2, 0, 1)
        del gathered
        blocks *= weight[:, :, None] * weight[:, None, :]
        step = blocks if step is None else step @ blocks
    traces = np.linalg.matrix_power(step, power).diagonal(axis1=1, axis2=2).sum(axis=1).real
    traces[1 : (length + 1) // 2] *= 2
    return float(traces.sum())


def partition_trace(
    w8: WeightsEight, lattice: LatticeSpec, staggered: bool = False
) -> float:
    """Torus partition function via powers of the row transfer matrix.

    The trace of (F_0 F_1 ... F_(p-1))^(rows / p), F_r the row r of the
    cell rule and p the cell's length.  The row runs along the shorter
    side: a torus with fewer rows than cols is transposed, which swaps
    left with bottom and right with top at every vertex (each vertex
    matrix conjugated by SWAP) and keeps the cell rule.  The trace is
    summed over the momentum blocks of the cyclic shift by p sites
    (``_shift_trace``), so no dense power is formed, and only the rows at
    the orbit representatives are built: about 2^cols / (cols / p) of
    the 2^cols rows.  The weights are real, so the row is float64, half
    the momentum spectrum carries the whole trace, and the result is a
    float.
    """
    rows, cols = lattice.rows, lattice.cols
    if staggered and (rows % 2 or cols % 2):
        raise ValueError("staggered tori need even rows and cols")
    cell = _cell(w8, staggered)
    if rows < cols:
        rows, cols = cols, rows
        cell = tuple(m[_SWAP][:, _SWAP] for m in cell)
    _check_sites(cols)
    period = len(cell)
    reps = _shift_orbits(cols, period)[0][:, 0]
    factors = (_cell_row(cell, cols, r, reps) for r in range(period))
    return _shift_trace(factors, cols, period, rows // period)


def partition_enumerate(
    w8: WeightsEight, lattice: LatticeSpec, staggered: bool = False
) -> float:
    """Torus partition function by exhaustive sum over arrow configurations.

    Sums the product of vertex weights, each read by the cell rule, over
    all 2^(2 rows cols) edge states, built up vertex by vertex in
    row-major order: each vertex first doubles the partial configurations
    once for every one of its four edges not yet assigned, then multiplies
    in its weight and keeps only the nonzero partial products.  Dropping a
    prefix is exact: the weights are finite, so every completion of a
    partial product that is exactly 0 is exactly 0 too, and the survivors
    are the plain sum's products formed in the same order.  The structural
    zeros of the vertex dictionary make each vertex of either family
    nonzero for one parity of its four edges only, so at most half of what
    a vertex doubles survives: the live set peaks at 2^(rows cols + 2)
    partial configurations (2^18 at 32 edges), not 2^(2 rows cols).  An
    odd model on an odd-by-odd torus keeps none and returns exactly 0.
    Independent of the trace backend: no transfer matrix is formed.
    """
    rows, cols = lattice.rows, lattice.cols
    edges = 2 * rows * cols
    if edges > MAX_ENUM_EDGES:
        raise ValueError(f"enumeration limited to {MAX_ENUM_EDGES} edges, got {edges}")
    if staggered and (rows % 2 or cols % 2):
        raise ValueError("staggered tori need even rows and cols")
    luts = [m4.reshape(16) for m4 in _cell(w8, staggered)]

    conf = np.zeros(1, dtype=np.int64)
    prod = np.ones(1)
    assigned = 0
    for v in range(rows * cols):
        r, c = divmod(v, cols)
        left, bottom = 2 * v, 2 * v + 1
        right = 2 * (r * cols + (c + 1) % cols)
        top = 2 * (((r + 1) % rows) * cols + c) + 1
        for bit in (left, bottom, right, top):
            if not assigned >> bit & 1:
                assigned |= 1 << bit
                conf = np.concatenate((conf, conf | (1 << bit)))
                prod = np.concatenate((prod, prod))
        code = (
            ((conf >> left) & 1) * 8
            + ((conf >> bottom) & 1) * 4
            + ((conf >> right) & 1) * 2
            + ((conf >> top) & 1)
        )
        prod *= luts[(r + c) % len(luts)][code]
        keep = np.flatnonzero(prod)
        conf, prod = conf[keep], prod[keep]
    return float(prod.sum())


#: the partition backends by name, in the order ``partition --backend both``
#: reports them.  Each entry names its module function, looked up when
#: called, so that a wrapper installed on the module attribute (a
#: profiler's span) sees every dispatched call.
BACKENDS = {"trace": "partition_trace", "enumerate": "partition_enumerate"}


def wu_kunz_check(
    w8: WeightsEight, lattice: LatticeSpec, backend: str = "enumerate"
) -> dict:
    """Uniform model of one parity against the staggered opposite-parity model.

    The left side is the uniform torus at the given weights; the right
    side is the staggered torus of the flipped parity with the same
    weights on sublattice X and their companion permutation on Y.  Both
    sides use the same backend, a key of ``BACKENDS``.  Returns the
    report: both sides, their relative gap, the lattice, the model and
    the backend.
    """
    if lattice.rows % 2 or lattice.cols % 2:
        raise ValueError("the staggered side needs an even-sized torus")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    compute = globals()[BACKENDS[backend]]
    lhs = compute(w8, lattice, staggered=False)
    rhs = compute(reparity(w8, w8.parity.flipped), lattice, staggered=True)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "rel_diff": linalg.rel_gap(lhs, rhs),
        "lattice": [lattice.rows, lattice.cols],
        "model": w8.parity.value,
        "backend": backend,
    }


_SYMMETRIC_KINDS = ("even", "odd")
#: the rows of the staggered cell each staggered kind multiplies, in order
_STAGGERED_ROWS = {"stag1": (0,), "stag2": (1,), "stagprod": (0, 1)}


def _transfer_of_kind(point, kind: str, sites: int) -> np.ndarray:
    if kind in _SYMMETRIC_KINDS:
        if not isinstance(point, WeightsSym):
            raise ValueError("symmetric kinds take WeightsSym points")
        lax = lax_even(point) if kind == "even" else lax_odd(point)
        return transfer_matrix(lax, sites).matrix
    if kind in _STAGGERED_ROWS:
        if isinstance(point, WeightsSym):
            point = to_eight(point)
        cell = _cell(point, staggered=True)
        rows = [
            TransferMatrix(_cell_row(cell, sites, r), sites).matrix
            for r in _STAGGERED_ROWS[kind]
        ]
        return functools.reduce(np.matmul, rows)
    raise ValueError(f"unknown transfer kind {kind!r}")


def _scan_bytes(points: list, sites: int, kinds: tuple[str, str]) -> int:
    """Bytes of dense matrices a commutation scan may hold, counted as if at once.

    The kept transfer matrices (one list, or two when the kinds differ),
    the last build's working set counted as three matrices (a row build
    peaks at about two), and for a kind that multiplies two rows
    (``stagprod``) one more: T1, held while T2 builds.
    Their product is the kept matrix, and the commutator products are
    formed only at the orbit-representative rows, a fraction of one
    matrix.  Every entry is a float64, 8 bytes.
    """
    kept = len(points) * (1 if kinds[1] == kinds[0] else 2)
    pair = 1 if any(len(_STAGGERED_ROWS.get(kind, ())) == 2 for kind in kinds) else 0
    return (kept + 3 + pair) * 8 * 4**sites


def commutation_scan(
    points: list, sites: int, kinds: tuple[str, str]
) -> np.ndarray:
    """Pairwise relative commutator norms between two transfer families.

    Entry (i, j) is the relative commutator of the kinds[0] transfer
    matrix at points[i] with the kinds[1] transfer matrix at points[j],
    all on the same chain.  Equal kinds give an exactly symmetric grid
    (|AB - BA| is |BA - AB|) with a zero diagonal: only i < j is computed,
    so they need at least two points, or the scan would check nothing.
    At a symmetric point (``WeightsSym``) the Y matrix is X with its vertical
    leg flipped, so T2 is T1 conjugated by the global spin flip, which
    commutes with a symmetric row: stag1 and stag2 are one matrix, and when
    every point is symmetric, stag2 is read as stag1 and those rules apply.

    Every transfer matrix of the scan commutes with the cyclic shift P^p
    of the chain, p = 1 when both kinds are symmetric and p = 2 when
    either is staggered (the cell repeats every two sites), and so does
    the commutator C = AB - BA: C[P^t r, P^t s] = C[r, s].  Each entry of
    C therefore appears in a row at an orbit representative of P^p, and
    the largest is read from those rows alone, at about 1/L of the
    products of the dense commutator (L = sites / p).  The dense
    matrices are still built: the scale is taken over them.
    """
    if not points:
        raise ValueError("commutation scan needs at least one point")
    if all(isinstance(p, WeightsSym) for p in points):
        kinds = tuple("stag1" if kind == "stag2" else kind for kind in kinds)
    if kinds[1] == kinds[0] and len(points) < 2:
        raise ValueError("a scan of equal kinds needs at least two points")
    nbytes = _scan_bytes(points, sites, kinds)
    if nbytes > MAX_SCAN_BYTES:
        raise ValueError(
            f"commutation scan would hold {nbytes // (8 * 4**sites)} dense "
            f"{sites}-site matrices, {nbytes} bytes, above the {MAX_SCAN_BYTES}-byte limit"
        )
    first = [_transfer_of_kind(p, kinds[0], sites) for p in points]
    second = (
        first
        if kinds[1] == kinds[0]
        else [_transfer_of_kind(p, kinds[1], sites) for p in points]
    )
    period = 2 if any(kind in _STAGGERED_ROWS for kind in kinds) else 1
    reps = _shift_orbits(sites, period)[0][:, 0]
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1 if second is first else 0, n):
            out[i, j] = linalg.rel_commutator_norm(first[i], second[j], reps)
    return out + out.T if second is first else out

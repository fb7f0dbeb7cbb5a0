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
the weight of every arrow configuration on a small torus the vertex
rule allows, read once per torus shape and vertex family as each
vertex's 4-bit code (``_allowed_codes``, cached), so that a call only
gathers, multiplies and sums the weights.  The enumeration never forms
a transfer matrix.  Agreement between the two validates both;
disagreement would expose a convention error immediately.

The trace and the commutation scans share one block product
(``_momentum_blocks``): momentum blocks split by sigma^z parity.  Each
operand is built only at the orbit representatives of the cyclic
shift, each row is read only at its own sector, and the operand becomes
its blocks A_(s,k), sector s of momentum k, the product of its rows'
blocks; no row array outlives its gather.  Every row the trace
multiplies keeps the sectors: a uniform odd row on an odd chain, the
one row that swaps them, is traced through T_O^2 = T_X T_Y
(``partition_trace``).  Symmetric weights are invariant under arrow
reversal, so the global spin flip S commutes with every symmetric row,
and T_od = S T_ev: [A, S B] = S [A, B] and max|S T| = max|T|, so a scan
reads every odd kind as even, and at an odd length, where every scan is
symmetric, sector 0 holds every entry: such a scan builds and multiplies
sector 0 alone.  The commutator's blocks are C = A B - B A on the
sectors present, and its largest entry is read from the representative
rows that an inverse DFT over k gives back (``commutation_scan``).
Neither path forms a 2^sites x 2^sites matrix.

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
from .operators import SIGMA_X, lax_asym, lax_even, vertex_matrix
from .weights import Parity, WeightsEight, WeightsSym, reparity, staggered_companion, to_eight

__all__ = [
    "MAX_SITES",
    "MAX_ENUM_EDGES",
    "MAX_SCAN_SITES",
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
#: enumeration guard: 2 * rows * cols edges; the cached table of allowed
#: configurations is 2 MiB at 32 edges, and its cold build peaks at about
#: 2^(edges/2 + 2) live partial configurations (11 MiB)
MAX_ENUM_EDGES = 32
#: chain guard of a commutation scan, which builds no dense matrix: at 14
#: sites an operand's representative rows are 148 MiB of float64
MAX_SCAN_SITES = 14
#: memory guard: representative rows and momentum blocks one commutation
#: scan may hold at once (2 GiB)
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
    """Open product acc[(z,) a, I, b, J] of Lax tensors along part of a row.

    a enters the first site and b leaves the last.  The product grows from
    the last site, each new site's quantum legs becoming the leading bits
    of I and J, so the long column tail stays the innermost axis.  Stacked
    tensors (a leading axis z) multiply member by member.
    """
    if not laxes:
        return _NO_SITES
    z = "z" * (laxes[-1].ndim - 4)
    acc = laxes[-1]
    for lax in laxes[-2::-1]:
        d = 2 * acc.shape[-1]
        acc = np.einsum(f"{z}aibj,{z}bIcJ->{z}aiIcjJ", lax, acc)
        acc = acc.reshape(*acc.shape[: len(z)], 2, -1, 2, d)
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

    Stacks of n vertex matrices (n, 4, 4) at every site give the stack of
    n rows in one pass, each formed by the same exact products as alone.
    """
    laxes = [m4.reshape(*m4.shape[:-2], 2, 2, 2, 2) for m4 in matrices]
    half = len(laxes) // 2
    left, right = _open_product(laxes[:half]), _open_product(laxes[half:])
    # left[(z,) a, I, b, J] -> [a, (z,) I, J, b] and
    # right[(z,) b, I', a, J'] -> [a, (z,) I', b, J']
    lt = left.transpose(0, 1, 3, 2) if left.ndim == 4 else left.transpose(1, 0, 2, 4, 3)
    rt = right.transpose(2, 1, 0, 3) if right.ndim == 4 else right.transpose(3, 0, 2, 1, 4)
    if rows is None:
        lt, rt = lt[..., :, None, :, :], rt[..., None, :, :, :]
    else:
        high, low = np.divmod(rows, rt.shape[-3])
        lt, rt = lt[..., high, :, :], rt[..., low, :, :]
    out = lt[0] @ rt[0]
    out += lt[1] @ rt[1]
    stack = out.shape[: -3 if rows is not None else -4]
    return out.reshape(*stack, -1, left.shape[-1] * right.shape[-1])


def _check_sites(sites: int, limit: int = MAX_SITES):
    if not 1 <= sites <= limit:
        raise ValueError(f"chain length {sites} outside 1..{limit}")


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
    ``rows`` restricts the matrix rows as in ``_row_transfer``; a
    restricted row may run to ``MAX_SCAN_SITES``, a dense one to
    ``MAX_SITES``.
    """
    if sites % len(cell):
        raise ValueError("staggered kinds need an even chain length")
    _check_sites(sites, MAX_SITES if rows is None else MAX_SCAN_SITES)
    return _row_transfer([cell[(r + c) % len(cell)] for c in range(sites)], rows)


def staggered_transfer_pair(
    w8: WeightsEight, pairs: int
) -> tuple[TransferMatrix, TransferMatrix]:
    """Rows 0 and 1 (T1, T2) of the staggered torus on a chain of 2*pairs sites."""
    cell = _cell(w8, staggered=True)
    return tuple(TransferMatrix(_cell_row(cell, 2 * pairs, r), 2 * pairs) for r in (0, 1))


#: a vertex matrix conjugated by the swap of its two legs, as one gather
#: of its 16 entries: m.take(_SWAP).reshape(4, 4) is m[[0, 2, 1, 3]][:, [0, 2, 1, 3]]
_SWAP = np.arange(16).reshape(4, 4)[[0, 2, 1, 3]][:, [0, 2, 1, 3]].ravel()
#: sigma^x on the quantum leg of a vertex: m[:, _FLIP] is m (I x sx) and
#: m[_FLIP] is (I x sx) m
_FLIP = [1, 0, 3, 2]


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


@functools.cache
def _sectors(sites: int, period: int) -> tuple:
    """The orbits of ``_shift_orbits`` in two sectors of M orbits each,
    split by sigma^z parity: (reps, images, weight, unweight), read-only
    and cached like the orbits.

    The shift keeps the number of up arrows, so an orbit has the parity
    of its states (``linalg._parity_sectors``).  Sector 0 holds the even
    orbits in order, sector 1 the odd ones, and the smaller sector is
    padded to M with phantom orbits of weight 0 at every k, zero rows and
    columns of every block.  At an odd site count the spin flip S maps
    the even orbits one to one onto the odd ones, so the sectors are equal
    in size, and S T S = T for every symmetric row T, the only rows a scan
    there builds: no scan there reads sector 1 (``commutation_scan``); the
    trace reads both.
    ``reps`` lists the first images, sector by sector; ``images`` is
    2 x M x L; ``weight`` the momentum weights of the real FFT's
    momenta, 2 x M x (L // 2 + 1); ``unweight`` sqrt(L / d_a),
    their inverse where nonzero, 0 for a phantom.
    """
    images, weight = _shift_orbits(sites, period)
    weight = weight[: images.shape[1] // 2 + 1].T
    odd = np.isin(images[:, 0], linalg._parity_sectors(2**sites)[1])
    parts = [(images[~odd], weight[~odd]), (images[odd], weight[odd])]
    size = max(len(im) for im, _ in parts)
    images = np.stack([np.pad(im, ((0, size - len(im)), (0, 0)), "edge") for im, _ in parts])
    weight = np.stack([np.pad(w, ((0, size - len(w)), (0, 0))) for _, w in parts])
    first = weight[..., 0]
    unweight = np.divide(1.0, first, out=np.zeros_like(first), where=first != 0)
    sectors = images[..., 0].reshape(-1), images, weight, unweight
    for a in sectors:
        a.flags.writeable = False
    return sectors


def _momentum_blocks(factors, sites: int, period: int) -> np.ndarray:
    """Sigma^z-sector momentum blocks B_(s,k), k = 0..L//2 (n x S x k x M x M),
    of the product F1 F2 ... of real operators that commute with P^period
    and keep the sectors, from their rows at the orbit representatives of
    the first S sectors (``_sectors``).

    Each array of rows drawn from ``factors`` (a lazy iterable) holds the
    rows (n x SM x 2^sites, or SM x 2^sites for one operator) of a stack
    of operators at the first SM representatives ``_sectors`` lists, in
    its order (``_row_transfer`` restricted to them).  S, the number of
    sectors, is read from the rows.  A row of sector s is read only at
    the images of that sector's orbits, the rest of it being exact zeros,
    so no other row is read and no dense F is ever formed.  Each array of
    rows is released once it is gathered, and its blocks once they are
    multiplied, so only the running product is held while the next array
    is drawn.  The blocks of each operator are those it would have alone.

    P is the cyclic shift of the chain, P^L = 1 with L = sites / period.
    With r_a the representative and d_a the size of orbit a, the states
    |a, k> = (sqrt(d_a) / L) sum_t exp(-2 pi i k t / L) P^t |r_a>
    are orthonormal; they exist only where k d_a = 0 mod L (otherwise
    the sum of phases cancels over each period of the orbit), and for
    each k = 0..L-1 they span the momentum-k eigenspace of P.  F keeps k
    and has the block
    <a, k|F|b, k> = sqrt(d_a d_b) / L * sum_t exp(-2 pi i k t / L) F[r_a, P^t r_b],
    one FFT over t of the representative rows gathered at the orbit
    images.  The sum over t repeats with period d_a and with period d_b,
    so where either orbit does not carry k the entry is an exact
    cancellation that the FFT only reaches to rounding: the zero weight
    restores the exact 0, and the missing states (and the phantom
    orbits) become zero rows and columns that no product, power or trace
    sees.  A real F has B_(L-k) = conj(B_k), the FFT of a real sequence
    at -k, and the weights at L - k equal those at k, so the L // 2 + 1
    blocks of a real FFT determine F, and those of a product are the
    products of its factors' blocks.  The weights w_a w_b of each sector
    are applied to the spectrum in its own (s, n, a, b, k) layout.
    """
    _, images, weight, _ = _sectors(sites, period)
    weight = (weight[:, :, None] * weight[:, None, :])[:, None]
    size, length = images.shape[1:]
    product = None
    for rows in factors:
        sectors = rows.shape[-2] // size
        rows = rows.reshape(-1, sectors, size, rows.shape[-1])
        # take, unlike indexing, lays the gather out in C order, and with
        # in-range indices "clip" writes each sector's piece in place
        gathered = np.empty((sectors, len(rows), size, size, length))
        for s in range(sectors):
            rows[:, s].take(images[s], axis=-1, out=gathered[s], mode="clip")
        del rows
        spectrum = np.fft.rfft(gathered, axis=-1)  # (s, n, a, b, k)
        del gathered
        spectrum *= weight[:sectors]
        blocks = spectrum.transpose(1, 0, 4, 2, 3)
        del spectrum
        product = blocks if product is None else product @ blocks
        del blocks
    return product


def partition_trace(
    w8: WeightsEight, lattice: LatticeSpec, staggered: bool = False
) -> float:
    """Torus partition function via powers of the row transfer matrix.

    The trace of (F_0 F_1 ... F_(p-1))^(rows / p), F_r the row r of the
    cell rule and p the cell's length.  The row runs along the shorter
    side: a torus with fewer rows than cols is transposed, which swaps
    left with bottom and right with top at every vertex (each vertex
    matrix conjugated by the leg swap, one gather of its entries) and
    keeps the cell rule.  The trace is summed over the sigma^z-sector
    momentum blocks of the cyclic shift by p sites, the product of the
    rows' blocks (``_momentum_blocks``, the scans' layout) raised to its
    power in one batched matrix power, so no dense power is formed, and
    only the rows at the orbit representatives of both sectors are built:
    about 2^cols / (cols / p) of the 2^cols rows.  The weights are real,
    so the rows are float64.  The trace is the sum over s and k of the
    block traces tr_(s,k), and for real rows B_(L-k) = conj(B_k), so
    tr_(s,L-k) = conj(tr_(s,k)) for every power and product.  Hence, in
    each sector, Tr = tr_0 + 2 Re sum_(0<k<L/2) tr_k (+ tr_(L/2) when L
    is even), with tr_0 and tr_(L/2) real: the L // 2 + 1 blocks of a
    real FFT carry the whole trace, and the result is exactly real.

    Every row keeps the sectors but one: a vertex of the odd family has
    an odd number of incoming arrows, so a uniform odd row T_O on an odd
    chain swaps them.  By Wu and Kunz's arrow reversal (J. Stat. Phys.
    116, 67 (2004)) it is an even-pattern row times the global spin flip
    S: the rows X = m (I x sx) and Y = (I x sx) m of its vertex matrix m
    give T_X = T_O S and T_Y = S T_O bit for bit, and both keep the
    sectors.  An odd power of T_O swaps them too and has trace exactly 0,
    returned before anything is built; an even one is traced as
    (T_X T_Y)^(rows / 2) = T_O^rows.
    """
    rows, cols = lattice.rows, lattice.cols
    if staggered and (rows % 2 or cols % 2):
        raise ValueError("staggered tori need even rows and cols")
    cell = _cell(w8, staggered)
    if rows < cols:
        rows, cols = cols, rows
        cell = tuple(m.take(_SWAP).reshape(4, 4) for m in cell)
    _check_sites(cols)
    period, power = len(cell), rows // len(cell)
    row_cells = [(cell, r) for r in range(period)]
    if w8.parity is Parity.ODD and cols % 2:
        if rows % 2:
            return 0.0
        (m,) = cell
        row_cells, power = [((m[:, _FLIP],), 0), ((m[_FLIP],), 0)], rows // 2
    reps = _sectors(cols, period)[0]
    step = _momentum_blocks((_cell_row(c, cols, r, reps) for c, r in row_cells), cols, period)
    traces = np.linalg.matrix_power(step, power).diagonal(axis1=-2, axis2=-1).sum(axis=-1).real
    traces[..., 1 : (cols // period + 1) // 2] *= 2
    return float(traces.sum())


@functools.cache
def _allowed_codes(rows: int, cols: int, family: str) -> np.ndarray:
    """Every edge configuration of the rows x cols torus that the vertex
    rule of ``family`` allows, as its vertex codes 2*(2*left + bottom) +
    2*right + top (vertices x configurations, uint8; read-only, cached
    like the orbits: it depends on the shape and family, not the weights).

    Edges are assigned vertex by vertex: each vertex doubles the partial
    configurations once for every one of its four edges not yet
    assigned, keeps those its family's 0/1 pattern (``operators.SLOTS``)
    allows, and records each survivor's code in 4 bits of one uint64 (at
    most 16 vertices).  The pattern allows one parity of a vertex's four
    edges, so the rows cols constraints fix all but rows cols + 1 edges.
    """
    allowed = vertex_matrix(family, np.ones(8)).reshape(16) != 0
    conf = np.zeros(1, dtype=np.int64)
    packed = np.zeros(1, dtype=np.uint64)
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
                packed = np.concatenate((packed, packed))
        code = (
            ((conf >> left) & 1) * 8
            + ((conf >> bottom) & 1) * 4
            + ((conf >> right) & 1) * 2
            + ((conf >> top) & 1)
        )
        keep = np.flatnonzero(allowed[code])
        conf = conf[keep]
        packed = packed[keep] | code[keep].astype(np.uint64) << np.uint64(4 * v)
    codes = np.empty((rows * cols, len(packed)), dtype=np.uint8)
    for v in range(rows * cols):
        codes[v] = packed >> np.uint64(4 * v) & np.uint64(15)
    codes.flags.writeable = False
    return codes


def partition_enumerate(
    w8: WeightsEight, lattice: LatticeSpec, staggered: bool = False
) -> float:
    """Torus partition function by exhaustive sum over arrow configurations.

    Sums the product of vertex weights, each read by the cell rule, over
    the configurations the vertex rule allows, the only ones of the
    2^(2 rows cols) edge states whose product can be nonzero: a table
    (``_allowed_codes``) built once per (rows, cols, family) and shared
    by both cells of a staggered torus, whose companion keeps the family.
    It holds 2^(rows cols + 1) configurations, 2 MiB of codes at 32
    edges, and none for an odd model on an odd-by-odd torus, which
    returns exactly 0.  A call gathers each vertex's weight from its cell
    matrix through the codes, multiplies in row-major vertex order, drops
    exact zeros and sums the rest.  That is bit for bit the sum that
    prunes by value while assigning the edges in the table's order: its
    survivors are the allowed configurations in the same order less
    those with a zero product, each product is formed in the same order,
    and a partial product that is exactly 0 stays 0 under finite weights.
    Independent of the trace backend: no transfer matrix is formed.
    """
    rows, cols = lattice.rows, lattice.cols
    edges = 2 * rows * cols
    if edges > MAX_ENUM_EDGES:
        raise ValueError(f"enumeration limited to {MAX_ENUM_EDGES} edges, got {edges}")
    if staggered and (rows % 2 or cols % 2):
        raise ValueError("staggered tori need even rows and cols")
    luts = [m4.reshape(16) for m4 in _cell(w8, staggered)]
    codes = _allowed_codes(rows, cols, w8.parity.value)
    prod = luts[0].take(codes[0])
    for v in range(1, rows * cols):
        r, c = divmod(v, cols)
        prod *= luts[(r + c) % len(luts)].take(codes[v])
    return float(prod[prod != 0].sum())


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


#: the rows of the staggered cell each staggered kind multiplies, in order
_STAGGERED_ROWS = {"stag1": (0,), "stag2": (1,), "stagprod": (0, 1)}
#: entries one batched step of a commutation scan may span: a short
#: chain's operands and pairs share each numpy call, a long chain's go
#: one at a time
_SCAN_BATCH = 2**16


def _batch(entries: int) -> int:
    """Items of ``entries`` entries each in one batched step, one at least."""
    return max(1, _SCAN_BATCH // entries)


def _scaled(rows: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """``rows`` of a stack of operators, their largest entries put in ``scales``."""
    # nan and inf propagate to the maximum
    scales[...] = linalg.real_abs_max(rows.reshape(len(rows), -1), axis=1)
    if not np.isfinite(scales).all():
        raise ValueError("transfer rows contain non-finite entries")
    return rows


def _transfer_of_kind(points: list, kind: str, sites: int, period: int):
    """The ``kind`` transfer operators at points (``even`` at symmetric
    points, or a staggered kind) as their sigma^z-sector momentum blocks
    for the shift by ``period`` sites (points x S x k x M x M,
    ``_momentum_blocks``) and their largest entries.

    Only the rows at the orbit representatives of the S sectors are
    built, S = 2 at an even length and 1 at an odd one, where every scan
    is symmetric (``commutation_scan``), a batch of operands in one
    stacked call, and each row is read only at its own sector: even and
    staggered rows keep the sectors.  With one sector the scale is the
    largest entry of sector 0's rows, which is the largest of all:
    symmetric weights are invariant under arrow reversal, so S T S = T
    for the global spin flip S, and the rows at the flipped
    representatives hold the same entries.  Each row's scale is recorded,
    and a non-finite row refused, as ``_momentum_blocks`` draws it, before
    it becomes a block.  A ``stagprod`` operator is the block product
    (T1)_s (T2)_s, and its largest entry is read from the representative
    rows that its blocks give back.
    """
    if kind == "even":
        if not all(isinstance(p, WeightsSym) for p in points):
            raise ValueError("symmetric kinds take WeightsSym points")
        cells, rows = [(lax_even(p),) for p in points], (0,)
    elif kind in _STAGGERED_ROWS:
        points = [to_eight(p) if isinstance(p, WeightsSym) else p for p in points]
        cells, rows = [_cell(p, staggered=True) for p in points], _STAGGERED_ROWS[kind]
    else:
        raise ValueError(f"unknown transfer kind {kind!r}")
    reps, images, weight, _ = _sectors(sites, period)
    sectors, size = 2 - sites % 2, images.shape[1]
    reps = reps[: sectors * size]
    blocks = np.empty((len(cells), sectors, weight.shape[2], size, size), dtype=complex)
    scales = np.empty(len(cells))
    step = _batch(len(reps) * 2**sites)
    for lo in range(0, len(cells), step):
        part = slice(lo, lo + step)
        # the batch's cell: a stack of vertex matrices on each sublattice
        cell = tuple(np.array(stack) for stack in zip(*cells[part]))
        drawn = (_scaled(_cell_row(cell, sites, r, reps), scales[part]) for r in rows)
        blocks[part] = product = _momentum_blocks(drawn, sites, period)
        if len(rows) > 1:  # the kept copy is made: product may be rescaled
            scales[part] = _largest_entries(product, sites, period)
        del product  # released before the next batch builds
    return blocks, scales


@functools.cache
def _inverse_dft(sites: int, period: int) -> np.ndarray:
    """The inverse real DFT over the momenta k = 0..L//2 as a table
    (L = sites / period).

    Row t of the L x (L // 2 + 1) table is (c_k / L) exp(2 pi i k t / L),
    c_k = 1 at k = 0 and k = L/2 and 2 between, the angle reduced mod L:
    the real part of its product with a half spectrum is the inverse real
    DFT.  Read-only, cached like the orbits.
    """
    length = sites // period
    k, t = np.arange(length // 2 + 1), np.arange(length)[:, None]
    count = np.where((k == 0) | (2 * k == length), 1.0, 2.0)
    table = count / length * np.exp(2j * np.pi * (k * t % length) / length)
    table.flags.writeable = False
    return table


def _largest_entries(blocks: np.ndarray, sites: int, period: int) -> np.ndarray:
    """max |M[r_a, P^t r_b]| over t, a and b for each of a stack of real
    operators M that commute with P^period, from their sector momentum
    blocks (... x S x k x M x M, any leading stack axes, S sectors), which
    it rescales in place.

    Block (s, k) holds w_a w_b times the DFT over t of M[r_a, P^t r_b],
    a and b orbits of sector s, which M keeps; that sequence repeats
    with the period of both orbits, so its DFT vanishes wherever either
    weight does, and so does the block, exactly: a zero weight zeroes its
    row and column of every block and of every product of blocks.
    Dividing by the nonzero weights and putting 0 elsewhere therefore
    divides every k by the same w_a w_b = sqrt(d_a d_b) / L, before the
    inverse real DFT over k gives the L entries back.  That DFT is one
    product with a cached table (``_inverse_dft``), for the few momenta
    of a chain cheaper than an inverse FFT for every (a, b).  The entries
    between the sectors are exact zeros and are never formed.
    """
    inverse, stack = _inverse_dft(sites, period), blocks.shape[:-4]
    unweight = _sectors(sites, period)[3][: blocks.shape[-4]]
    blocks *= (unweight[:, :, None] * unweight[:, None, :])[:, None]
    entries = (inverse @ blocks.reshape(*stack, *blocks.shape[-4:-2], -1)).real.reshape(*stack, -1)
    return linalg.real_abs_max(entries, axis=-1)


def _commutator_norms(a, a_scale, b, b_scale, sites: int, period: int) -> np.ndarray:
    """max|A B - B A| / (max|A| max|B|) for stacks of operands A and B that
    broadcast against each other (the pairs of a grid, or two stacks paired
    member by member), from their sector blocks and largest entries
    (``_transfer_of_kind``).

    Every operand keeps the sectors, so the commutator's blocks are
    C_s = A_s B_s - B_s A_s at each momentum, C = A B - B A on the
    sectors present.  With one sector (an odd length, every operand
    symmetric) the spin flip S maps sector 0 onto sector 1, and
    S C S = C since S commutes with every symmetric row, so sector 0
    holds every entry of C.  The two products are formed alike in either
    order and for any stack, so swapping the operands negates C exactly,
    an operand against itself gives exactly 0, and a norm is the one its
    pair gives alone.  A non-finite commutator or scale is refused: it
    never becomes a norm.  An all-zero operand gives 0.
    """
    c = a @ b
    c -= b @ a
    top, scale = _largest_entries(c, sites, period), a_scale * b_scale
    if not (np.isfinite(top).all() and np.isfinite(scale).all()):
        raise ValueError("commutator or its scale is non-finite")
    return np.divide(top, scale, out=np.zeros_like(top), where=scale != 0.0)


def _scan_bytes(points: list, sites: int, kinds: tuple[str, str]) -> int:
    """Bytes a commutation scan may hold, counted as if at once.

    With M orbits a sigma^z sector (``_sectors``), S sectors built (two
    at an even length, one at an odd one), L = sites / period and
    L // 2 + 1 momenta, an operand's representative rows R are
    SM x 2^sites float64 (8 bytes an entry), their gather G at the images
    of their own sectors' orbits S M^2 L float64, and its sector blocks
    B S M^2 (L // 2 + 1) complex128 (16 bytes an entry).  The count is
    the kept blocks, one B a point and kind as the scan reads them; one
    batch of operands at R + G + 2 B each, the rows, their gather, the
    spectrum and the weighted blocks, and one B more for ``stagprod``,
    T1's blocks held while T2 builds; and one batch of pairs (one tile of
    the grid) at 3 B each, C and its entries, complex before their real
    part is read.
    """
    period = 2 if any(kind in _STAGGERED_ROWS for kind in kinds) else 1
    size, length = _sectors(sites, period)[1].shape[1:]
    sectors = 2 - sites % 2
    row = 8 * sectors * size * 2**sites
    gather = 8 * sectors * size**2 * length
    block = 16 * sectors * size**2 * (length // 2 + 1)
    n, same = len(points), kinds[1] == kinds[0]
    product = any(len(_STAGGERED_ROWS.get(kind, ())) == 2 for kind in kinds)
    operands = min(n, _batch(row // 8))
    pairs = min(n - 1 if same else n * n, _batch(block // 16))
    kept = n * (1 if same else 2)
    return kept * block + operands * (row + gather + (2 + product) * block) + pairs * 3 * block


def commutation_scan(
    points: list, sites: int, kinds: tuple[str, str]
) -> np.ndarray:
    """Pairwise relative commutator norms between two transfer families.

    Entry (i, j) is max|AB - BA| / (max|A| max|B|) for the kinds[0]
    transfer operator A at points[i] and the kinds[1] operator B at
    points[j], all on the same chain.  Equal kinds give an exactly
    symmetric grid (|AB - BA| is |BA - AB|) with a zero diagonal: only
    i < j is computed, so they need at least two points, or the scan
    would check nothing.  Symmetric weights (``WeightsSym``) are
    invariant under arrow reversal, so the global spin flip S commutes
    with every symmetric row, S T S = T.  The odd row is T_od = S T_ev,
    so [A, S B] = S [A, B] and max|S T| = max|T|: every odd kind is
    read as even.  At a symmetric point the Y matrix is X with its
    vertical leg flipped, so T2 = S T1 S = T1: when every point is
    symmetric, stag2 is read as stag1.  The rules of equal kinds apply
    to the kinds as read.

    No 2^sites x 2^sites matrix is formed.  Every operand of the scan
    commutes with the cyclic shift P^p of the chain, p = 1 when both
    kinds are symmetric and p = 2 when either is staggered (the cell
    repeats every two sites).  Each operand is built only at the rows of
    the orbit representatives r_a of P^p and becomes its momentum blocks
    A_(s,k), k = 0..L//2 with L = sites / p (``_momentum_blocks``, shared
    with the trace), split by sigma^z parity (even or odd number of up
    arrows).  Every operand keeps the sectors, so each row is read only
    at its own sector's orbits.  Staggered kinds need an even site count,
    so at an odd one every scan is symmetric: S maps sector 0 onto
    sector 1 and commutes with every operand, and the scan builds and
    multiplies sector 0 alone; at an even count it keeps both.  A
    ``stagprod`` operand is the block product (T1)_s (T2)_s.
    The commutator C = AB - BA commutes with P^p too, and its blocks at each k are the
    products A B - B A of the sectors present (``_commutator_norms``).
    Its representative rows C[r_a, P^t r_b] come back from them: divide
    by the orbit weights where they are nonzero, put 0 elsewhere, and
    take the inverse real DFT over k (``_largest_entries``).  Since
    C[P^t x, P^t y] = C[x, y], every entry of C appears in a
    representative row, so the largest entry of those rows is the largest
    of C, the statistic of ``linalg.rel_commutator_norm``.  The same
    holds for each operand: a single row's scale is read from its
    representative rows as built, and a ``stagprod`` scale from the rows
    its blocks give back.  With about 2^sites / L orbits, M of them a
    sector, a pair costs 2 S (L // 2 + 1) complex products of M x M
    blocks for S sectors, about 1 / (2 L) (two sectors) of the real
    arithmetic of the two products (2^sites / L) x 2^sites x 2^sites of
    dense representative rows.
    Operands are built, and pairs multiplied, in stacked batches while
    they are small (``_SCAN_BATCH``; for unequal kinds whole rows of the
    grid at once), so that a short chain's scan makes few numpy calls.

    Chains up to ``MAX_SCAN_SITES`` sites are accepted; a staggered kind
    at an odd site count, and a scan whose rows and blocks would exceed
    ``MAX_SCAN_BYTES`` (``_scan_bytes``), are refused before anything is
    built.
    """
    if not points:
        raise ValueError("commutation scan needs at least one point")
    symmetric = all(isinstance(p, WeightsSym) for p in points)
    kinds = tuple(
        "even" if kind == "odd" else "stag1" if kind == "stag2" and symmetric else kind
        for kind in kinds
    )
    if kinds[1] == kinds[0] and len(points) < 2:
        raise ValueError("a scan of equal kinds needs at least two points")
    _check_sites(sites, MAX_SCAN_SITES)
    period = 2 if any(kind in _STAGGERED_ROWS for kind in kinds) else 1
    if sites % period:
        raise ValueError("staggered kinds need an even chain length")
    nbytes = _scan_bytes(points, sites, kinds)
    if nbytes > MAX_SCAN_BYTES:
        raise ValueError(
            f"commutation scan would hold {nbytes} bytes of {sites}-site "
            f"representative rows and momentum blocks, above the {MAX_SCAN_BYTES}-byte limit"
        )
    n, same = len(points), kinds[1] == kinds[0]
    a, a_scale = _transfer_of_kind(points, kinds[0], sites, period)
    b, b_scale = (a, a_scale) if same else _transfer_of_kind(points, kinds[1], sites, period)
    out = np.zeros((n, n))
    step = _batch(a[0].size)
    # tiles of the grid, one batched step each: for equal kinds one row's
    # j > i, otherwise whole rows while they fit
    tall = 1 if same else max(1, step // n)
    for lo in range(0, n - same, tall):
        i = slice(lo, lo + tall)
        for lo_j in range(lo + 1 if same else 0, n, step):
            j = slice(lo_j, lo_j + step)
            out[i, j] = _commutator_norms(
                a[i, None], a_scale[i, None], b[j], b_scale[j], sites, period
            )
    return out + out.T if same else out

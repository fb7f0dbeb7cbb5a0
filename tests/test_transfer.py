import itertools
import tracemalloc

import numpy as np
import pytest

from vertex_sheaf import linalg, transfer
from vertex_sheaf.elliptic import EllipticPoint, baxter_weights
from vertex_sheaf.operators import SLOTS, lax_asym, lax_even, lax_odd
from vertex_sheaf.transfer import (
    MAX_SCAN_BYTES,
    MAX_SCAN_SITES,
    MAX_SITES,
    LatticeSpec,
    _cell,
    _cell_row,
    _commutator_norms,
    _largest_entries,
    _momentum_blocks,
    _row_transfer,
    _scan_bytes,
    _sectors,
    _shift_orbits,
    _transfer_of_kind,
    commutation_scan,
    partition_enumerate,
    partition_trace,
    sigma_x_string,
    staggered_transfer_pair,
    transfer_family,
    transfer_matrix,
    wu_kunz_check,
)
from vertex_sheaf.weights import (
    Parity,
    WeightsEight,
    WeightsSym,
    reparity,
    sample_krinsky_pair,
    staggered_companion,
    to_eight,
)

K, LAM = 0.5, 0.7
EV, OD = Parity.EVEN, Parity.ODD

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
#: SWAP on the two legs of a vertex: m[SWAP][:, SWAP] is S m S
SWAP = [0, 2, 1, 3]
#: sigma^x on the quantum leg of a vertex: m[:, FLIP] is m (I x sx) and
#: m[FLIP] is (I x sx) m
FLIP = [1, 0, 3, 2]


def elliptic_weights(mu: float) -> WeightsSym:
    return baxter_weights(EllipticPoint(K, LAM, mu))


def random_sym(rng) -> WeightsSym:
    return WeightsSym(*rng.uniform(0.2, 1.5, size=4))


def random_eight(rng, parity) -> WeightsEight:
    return WeightsEight(tuple(rng.uniform(0.2, 1.4, size=8)), parity)


def dense_of_kind(point, kind: str, sites: int) -> np.ndarray:
    """The dense transfer matrix of a scan kind, from the public builders."""
    if kind in ("even", "odd"):
        return transfer_matrix((lax_even if kind == "even" else lax_odd)(point), sites).matrix
    if isinstance(point, WeightsSym):
        point = to_eight(point)
    t1, t2 = (t.matrix for t in staggered_transfer_pair(point, sites // 2))
    return {"stag1": t1, "stag2": t2, "stagprod": t1 @ t2}[kind]


def row_transfer_by_definition(mats: list[np.ndarray]) -> np.ndarray:
    """T[(i1..in),(j1..jn)] = sum over auxiliary strings a of
    prod_k m_k[2 a_k + i_k, 2 a_(k+1) + j_k], with a_(n+1) = a_1."""
    n = len(mats)
    t = np.zeros((2**n, 2**n), dtype=complex)
    for i in itertools.product((0, 1), repeat=n):
        for j in itertools.product((0, 1), repeat=n):
            for a in itertools.product((0, 1), repeat=n):
                term = 1.0 + 0.0j
                for k, m in enumerate(mats):
                    term *= m[2 * a[k] + i[k], 2 * a[(k + 1) % n] + j[k]]
                t[int("".join(map(str, i)), 2), int("".join(map(str, j)), 2)] += term
    return t


def enumerate_by_definition(w8: WeightsEight, lattice: LatticeSpec, staggered=False) -> complex:
    """Sum over all 2^(2 rows cols) edge states, one configuration at a time.

    Vertex (r, c) owns bit 2 (r cols + c), its left edge, and the next
    bit, its bottom edge; it weighs m[2 left + bottom, 2 right + top],
    with the companion weights on the odd sublattice of a staggered torus.
    """
    rows, cols = lattice.rows, lattice.cols
    mx = lax_asym(w8).tolist()
    my = lax_asym(staggered_companion(w8)).tolist() if staggered else mx
    vertices = []
    for r in range(rows):
        for c in range(cols):
            left = 2 * (r * cols + c)
            right = 2 * (r * cols + (c + 1) % cols)
            top = 2 * (((r + 1) % rows) * cols + c) + 1
            vertices.append((left, left + 1, right, top, mx if (r + c) % 2 == 0 else my))
    edges = 2 * rows * cols
    total = 0.0 + 0.0j
    for conf in range(2**edges):
        bit = [(conf >> k) & 1 for k in range(edges)]
        term = 1.0 + 0.0j
        for left, bottom, right, top, m in vertices:
            term *= m[2 * bit[left] + bit[bottom]][2 * bit[right] + bit[top]]
        total += term
    return total


def trace_by_full_spectrum(w8: WeightsEight, lattice: LatticeSpec, staggered=False) -> complex:
    """The momentum-block trace from dense rows and all L momenta.

    The dense row (or the two staggered rows) along the shorter side,
    every entry F[r_a, P^t r_b] gathered from it, the full complex FFT
    over t and the batched power of all L blocks, summed with no use of
    the conjugate symmetry of real factors.
    """
    rows, cols = lattice.rows, lattice.cols
    mats = _cell(w8, staggered)
    if rows < cols:
        rows, cols = cols, rows
        mats = tuple(m[SWAP][:, SWAP] for m in mats)
    if staggered:
        lx, ly = mats
        period, factors = 2, ([lx, ly] * (cols // 2), [ly, lx] * (cols // 2))
    else:
        period, factors = 1, ([mats[0]] * cols,)
    images, weight = _shift_orbits(cols, period)
    step = None
    for row in factors:
        f = _row_transfer(row)
        blocks = np.fft.fft(f[images[:, None, :1], images[None, :, :]], axis=2).transpose(2, 0, 1)
        blocks *= weight[:, :, None] * weight[:, None, :]
        step = blocks if step is None else step @ blocks
    return complex(np.linalg.matrix_power(step, rows // period).diagonal(axis1=1, axis2=2).sum())


def cyclic_shift(sites: int) -> np.ndarray:
    """Translation by one site on the 2^sites chain basis."""
    dim = 2**sites
    shift = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        bits = [(idx >> (sites - 1 - j)) & 1 for j in range(sites)]
        rolled = bits[-1:] + bits[:-1]
        new = sum(b << (sites - 1 - j) for j, b in enumerate(rolled))
        shift[new, idx] = 1.0
    return shift


class TestTransferMatrix:
    def test_even_single_site_is_scalar_identity(self, rng):
        ws = random_sym(rng)
        t = transfer_matrix(lax_even(ws), 1)
        assert linalg.max_abs(t.matrix - (ws.a + ws.b) * np.eye(2)) == 0.0

    def test_odd_single_site_is_scalar_spin_flip(self, rng):
        ws = random_sym(rng)
        t = transfer_matrix(lax_odd(ws), 1)
        assert linalg.max_abs(t.matrix - (ws.a + ws.b) * SX) == 0.0

    def test_spin_flip_string_relation_two_sites(self, rng):
        ws = random_sym(rng)
        t_ev = transfer_matrix(lax_even(ws), 2).matrix
        t_od = transfer_matrix(lax_odd(ws), 2).matrix
        assert linalg.max_abs(t_od - sigma_x_string(2) @ t_ev) < 1e-14

    @pytest.mark.parametrize("sites", [1, 2, 3, 4, 5, 6])
    def test_spin_flip_string_relation_off_manifold(self, sites, rng):
        # holds for arbitrary symmetric weights, integrable or not
        ws = random_sym(rng)
        t_ev = transfer_matrix(lax_even(ws), sites).matrix
        t_od = transfer_matrix(lax_odd(ws), sites).matrix
        dev = linalg.max_abs(t_od - sigma_x_string(sites) @ t_ev)
        assert dev < 1e-12 * max(1.0, linalg.max_abs(t_ev))

    def test_family_matches_individual_builds(self, rng):
        ws = random_sym(rng)
        family = transfer_family(lax_even(ws), 4)
        for sites, member in enumerate(family, start=1):
            direct = transfer_matrix(lax_even(ws), sites)
            assert member.sites == sites
            assert linalg.max_abs(member.matrix - direct.matrix) == 0.0

    def test_site_guard(self, rng):
        with pytest.raises(ValueError, match="chain length"):
            transfer_matrix(lax_even(random_sym(rng)), 13)

    @pytest.mark.parametrize("max_sites", [0, 13])
    def test_family_site_guard(self, max_sites, rng):
        with pytest.raises(ValueError, match="chain length"):
            transfer_family(lax_even(random_sym(rng)), max_sites)

    @pytest.mark.parametrize("parity", [EV, OD])
    def test_entries_match_the_sum_over_auxiliary_strings(self, parity, rng):
        # 1 site has an empty first half, 3 and 5 sites split unevenly
        w8 = random_eight(rng, parity)
        lx = lax_asym(w8)
        ly = lax_asym(staggered_companion(w8))
        t1, t2 = staggered_transfer_pair(w8, 2)
        cases = [(transfer_matrix(lx, n).matrix, [lx] * n) for n in (1, 2, 3, 5)]
        cases += [(t1.matrix, [lx, ly, lx, ly]), (t2.matrix, [ly, lx, ly, lx])]
        for built, mats in cases:
            ref = row_transfer_by_definition(mats)
            assert linalg.max_abs(built - ref) <= 1e-14 * linalg.max_abs(ref)

    def test_build_peak_memory_is_a_few_results(self, rng):
        lax = lax_odd(random_sym(rng))
        tracemalloc.start()
        try:
            t = transfer_matrix(lax, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * t.matrix.nbytes

    def test_build_peaks_at_two_and_a_half_results(self, rng):
        # the result and the second of its two batched products
        lax = lax_odd(random_sym(rng))
        tracemalloc.start()
        try:
            t = transfer_matrix(lax, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * t.matrix.nbytes


class TestRepresentativeRows:
    """Rows restricted to an index array are the dense rows at those
    indices, bit for bit."""

    @pytest.mark.parametrize("sites", range(1, 11))
    @pytest.mark.parametrize("parity", [EV, OD])
    def test_rows_equal_the_dense_rows(self, sites, parity, rng):
        lx, ly = _cell(random_eight(rng, parity), staggered=True)
        rows = [[lx] * sites]
        if sites % 2 == 0:
            rows += [[lx, ly] * (sites // 2), [ly, lx] * (sites // 2)]
        rows += [[m[SWAP][:, SWAP] for m in row] for row in rows]
        for period in (1, 2) if sites % 2 == 0 else (1,):
            reps = _shift_orbits(sites, period)[0][:, 0]
            for mats in rows:
                assert np.array_equal(_row_transfer(mats, reps), _row_transfer(mats)[reps])

    def test_mixed_real_complex_row(self, rng):
        real = lax_asym(random_eight(rng, OD))
        mats = [real, real * np.exp(0.7j), real, real]
        for period in (1, 2):
            reps = _shift_orbits(4, period)[0][:, 0]
            rows = _row_transfer(mats, reps)
            assert rows.dtype == np.complex128
            assert np.array_equal(rows, _row_transfer(mats)[reps])

    @pytest.mark.parametrize("sites", [1, 2, 5, 8])
    def test_unsorted_rows_with_a_repeat(self, sites, rng):
        mats = [lax_asym(random_eight(rng, EV)) for _ in range(sites)]
        pick = rng.permutation(2**sites)[: max(2, 2**sites // 3)]
        pick = np.append(pick, pick[0])
        assert np.array_equal(_row_transfer(mats, pick), _row_transfer(mats)[pick])

    @pytest.mark.parametrize("sites", range(1, 10))
    @pytest.mark.parametrize("family", [EV, OD])
    def test_rows_vanish_outside_the_target_sector(self, sites, family, rng):
        # the sigma^z split of the scans: a representative row at r is
        # exactly 0.0 outside sector parity(r) + f, f the number of its
        # odd-family vertices mod 2 (1 for an odd-family row at an odd
        # length only), and nonzero inside it, for uniform cells of either
        # family and both rows of a staggered cell
        parity = np.zeros(2**sites, dtype=int)
        parity[linalg._parity_sectors(2**sites)[1]] = 1
        w8 = random_eight(rng, family)
        cells = [(_cell(w8, staggered=False), 1, (0,))]
        if sites % 2 == 0:
            cells.append((_cell(w8, staggered=True), 2, (0, 1)))
        for cell, period, rows in cells:
            reps = _sectors(sites, period)[0]
            target = parity[reps] ^ int(family is OD and sites % 2)
            outside = parity[None, :] != target[:, None]
            for r in rows:
                row = _cell_row(cell, sites, r, reps)
                assert np.all(row[outside] == 0.0)
                assert np.all(np.abs(row).max(axis=1, where=~outside, initial=0.0) > 0)

    @pytest.mark.parametrize("sites,period", [(1, 1), (2, 1), (2, 2), (4, 2), (5, 1), (6, 1),
                                              (7, 1), (8, 2), (9, 1)])
    def test_sectors_split_the_orbits_by_parity(self, sites, period):
        # every orbit lands in the sector of its parity once, in order,
        # phantoms (weight 0 at every k, unweight 0) pad the smaller
        # sector, and at an odd length there are none: the spin flip maps
        # the even orbits one to one onto the odd ones, with equal weights
        images = _shift_orbits(sites, period)[0]
        reps, sector_images, sector_weight, unweight = _sectors(sites, period)
        parity = np.zeros(2**sites, dtype=int)
        parity[linalg._parity_sectors(2**sites)[1]] = 1
        real = sector_weight[..., 0] != 0
        assert np.array_equal(parity[sector_images[..., 0]], np.indices(real.shape)[0])
        assert np.array_equal(reps, sector_images[..., 0].reshape(-1))
        orbits = {frozenset(row) for row in images.tolist()}
        found = [frozenset(row) for row in sector_images[real].tolist()]
        assert len(found) == len(orbits) and set(found) == orbits
        assert not sector_weight[~real].any() and not unweight[~real].any()
        assert np.allclose(unweight[real] * sector_weight[..., 0][real], 1.0)
        for sector in (0, 1):
            firsts = sector_images[sector][real[sector], 0]
            assert np.all(np.diff(firsts) > 0)
        if sites % 2:
            assert real.all()
            odd = {frozenset(row): w for row, w in
                   zip(sector_images[1].tolist(), sector_weight[1].tolist())}
            flips = {frozenset(row): w for row, w in
                     zip((sector_images[0] ^ (2**sites - 1)).tolist(), sector_weight[0].tolist())}
            assert flips == odd


class TestSpinFlipSectors:
    """Weights invariant under arrow reversal give rows that commute with
    the spin flip S, which at an odd length maps sigma^z sector 0 onto
    sector 1: S T S = T row by row, and a symmetric scan keeps sector 0
    alone."""

    @staticmethod
    def flipped_rows(lax, sites):
        # the rows at the even representatives, and those at their spin
        # flips read at reversed columns: S T S at the same rows
        reps = _sectors(sites, 1)[1][0, :, 0]
        flips = reps ^ (2**sites - 1)
        return _cell_row((lax,), sites, 0, reps), _cell_row((lax,), sites, 0, flips)[:, ::-1]

    @pytest.mark.parametrize("sites", [1, 3, 5, 7, 9, 11])
    @pytest.mark.parametrize("kind", ["even", "odd"])
    def test_symmetric_rows_have_equal_sectors(self, sites, kind, rng):
        point = random_sym(rng)
        lax = (lax_even if kind == "even" else lax_odd)(point)
        row, flipped = self.flipped_rows(lax, sites)
        assert np.array_equal(flipped, row)
        # the scan reads odd as even, and its operand is sector 0 of the
        # blocks of those rows, an odd row (f = 1 at an odd length) read
        # through S, T_od S = S T_ev S = T_ev, bit for bit; its scale, read
        # from sector 0's rows, is the largest entry of all
        read = row[:, ::-1] if kind == "odd" and sites % 2 else row
        (blocks,) = _momentum_blocks([read], sites, 1)
        one, scale = _transfer_of_kind([point], "even", sites, 1)
        assert one.shape == (1, 1, *blocks.shape[2:])
        assert np.array_equal(one[0, 0], blocks[0, 0])
        assert scale[0] == np.abs(row).max()
        if sites <= 9:
            assert scale[0] == np.abs(transfer_matrix(lax, sites).matrix).max()

    @pytest.mark.parametrize("family", [EV, OD])
    def test_eight_unrelated_weights_have_unequal_sectors(self, family, rng):
        # the negative control: a row of random eight weights does not
        # commute with the spin flip, and S T S differs from T
        row, flipped = self.flipped_rows(lax_asym(random_eight(rng, family)), 5)
        assert np.abs(flipped - row).max() > 1e-3 * np.abs(row).max()

    @pytest.mark.parametrize("kind,sites,period,sectors", [
        ("even", 4, 1, 2), ("even", 6, 1, 2), ("even", 7, 1, 1),
        ("stagprod", 4, 2, 2), ("stag1", 6, 2, 2),
    ])
    def test_only_odd_symmetric_scans_drop_a_sector(self, kind, sites, period, sectors):
        points = [elliptic_weights(0.1 * (i + 1)) for i in range(2)]
        blocks, _ = _transfer_of_kind(points, kind, sites, period)
        assert blocks.shape[1] == sectors

    @pytest.mark.parametrize("sites", [13, 14])
    def test_odd_rows_are_read_through_the_spin_flip(self, sites, rng):
        # the identity a scan reads odd as even by, at the lengths beyond
        # MAX_SITES that a scan accepts: at sampled representatives the
        # odd rows are the even rows at their spin flips (T_od = S T_ev),
        # and those are the even rows reversed (S T_ev S = T_ev), bit for bit
        point = random_sym(rng)
        reps = rng.choice(_shift_orbits(sites, 1)[0][:, 0], size=64, replace=False)
        odd = _cell_row((lax_odd(point),), sites, 0, reps)
        even = (lax_even(point),)
        assert np.array_equal(odd, _cell_row(even, sites, 0, reps ^ (2**sites - 1)))
        assert np.array_equal(odd, _cell_row(even, sites, 0, reps)[:, ::-1])

    @pytest.mark.parametrize("sites", range(1, 12))
    def test_symmetric_manifolds_coincide(self, sites, rng):
        # the even and odd symmetric models share their commuting manifold,
        # read off the scan: T_od = S T_ev and S commutes with every
        # symmetric row, so [A, S B] = S [A, B] and every symmetric kind
        # pair gives the even,even grid, bit for bit, on the manifold and
        # off it
        on = [elliptic_weights(mu) for mu in (0.1, 0.25, 0.4)]
        off = [baxter_weights(EllipticPoint(K, lam, 0.3)) for lam in (LAM, 0.45)]
        for points in (on, off + [random_sym(rng)]):
            ref = commutation_scan(points, sites, ("even", "even"))
            for kinds in (("odd", "odd"), ("even", "odd"), ("odd", "even")):
                assert np.array_equal(commutation_scan(points, sites, kinds), ref)
        if sites >= 3:  # off the manifold the grid is not vacuous
            assert ref[0, 1] > 1e-3


class TestRealArithmetic:
    """Real weights build float64 rows; complex Lax entries build complex rows."""

    @pytest.mark.parametrize("parity", [EV, OD])
    def test_real_weights_give_float64_rows(self, parity, rng):
        w8 = random_eight(rng, parity)
        lx = lax_asym(w8)
        ly = lax_asym(staggered_companion(w8))
        t1, t2 = staggered_transfer_pair(w8, 2)
        family = transfer_family(lax_asym(w8), 4)
        built = [(t.matrix, [lx] * t.sites) for t in family]
        built += [(t1.matrix, [lx, ly, lx, ly]), (t2.matrix, [ly, lx, ly, lx])]
        built.append((transfer_matrix(lax_asym(w8), 4).matrix, [lx] * 4))
        for matrix, mats in built:
            assert matrix.dtype == np.float64
            ref = row_transfer_by_definition(mats)
            assert linalg.max_abs(matrix - ref) <= 1e-14 * linalg.max_abs(ref)

    @pytest.mark.parametrize("kind", ["even", "odd"])
    def test_complex_entries_give_complex_rows(self, kind, rng):
        w = rng.uniform(0.2, 1.4, size=8) * np.exp(1j * rng.uniform(0.1, 3.0, size=8))
        lax = np.zeros((4, 4), dtype=complex)
        for (i, j), x in zip(SLOTS[kind], w):
            lax[i, j] = x
        t = transfer_matrix(lax, 4).matrix
        assert t.dtype == np.complex128
        ref = row_transfer_by_definition([lax] * 4)
        assert linalg.max_abs(t - ref) <= 1e-14 * linalg.max_abs(ref)

    def test_one_complex_site_makes_the_row_complex(self, rng):
        real = lax_asym(random_eight(rng, OD))
        phased = real * np.exp(0.7j)
        mats = [real, phased, real, real]
        t = _row_transfer(mats)
        assert t.dtype == np.complex128
        ref = row_transfer_by_definition(mats)
        assert linalg.max_abs(t - ref) <= 1e-14 * linalg.max_abs(ref)

    @pytest.mark.parametrize("sites", range(1, 13))
    def test_odd_transfer_is_the_even_one_reversed_exactly(self, sites, rng):
        # T_od = S T_ev entry for entry: the odd Lax tensor is the even one
        # with its row leg flipped, and the kernel forms the same products
        ws = random_sym(rng)
        t_ev = transfer_matrix(lax_even(ws), sites).matrix
        assert np.array_equal(transfer_matrix(lax_odd(ws), sites).matrix, t_ev[::-1])

    @pytest.mark.parametrize("sites", [1, 3, 6, 9])
    def test_spin_flip_string_reverses_rows_exactly(self, sites, rng):
        s = sigma_x_string(sites)
        assert s.dtype == np.float64
        t = transfer_matrix(lax_even(random_sym(rng)), sites).matrix
        assert np.array_equal(s @ t, t[::-1])


class TestSigmaXString:
    def test_single_site(self):
        assert linalg.max_abs(sigma_x_string(1) - SX) == 0.0

    @pytest.mark.parametrize("sites", [1, 2, 4])
    def test_involution(self, sites):
        s = sigma_x_string(sites)
        assert linalg.max_abs(s @ s - np.eye(2**sites)) == 0.0

    @pytest.mark.parametrize("sites", [2, 3, 4, 5])
    def test_commutes_with_both_transfer_kinds(self, sites, rng):
        ws = random_sym(rng)
        s = sigma_x_string(sites)
        for lax in (lax_even(ws), lax_odd(ws)):
            t = transfer_matrix(lax, sites).matrix
            assert linalg.max_abs(t @ s - s @ t) < 1e-12 * max(1.0, linalg.max_abs(t))


class TestStaggeredTransferPair:
    def test_equal_at_symmetric_weights(self, rng):
        # alternation starting on either sublattice gives the same matrix
        # at arrow-inversion symmetric weights, bit for bit: the Y matrix is
        # X with its vertical leg flipped, so T2 is T1 conjugated by the
        # global spin flip, and the row builds the same products
        w8 = to_eight(random_sym(rng))
        for parity in (OD, EV):
            for pairs in range(1, 7):
                t1, t2 = staggered_transfer_pair(reparity(w8, parity), pairs)
                assert np.array_equal(t1.matrix, t2.matrix)

    def test_pair_related_by_one_site_translation(self, rng):
        # generic weights: swapping the sublattice phase is a lattice shift
        w8 = random_eight(rng, OD)
        t1, t2 = staggered_transfer_pair(w8, 2)
        u = cyclic_shift(4)
        assert linalg.max_abs(t2.matrix - u @ t1.matrix @ u.conj().T) < 1e-13

    def test_trace_of_product_matches_enumeration(self, rng):
        w8 = random_eight(rng, OD)
        t1, t2 = staggered_transfer_pair(w8, 1)
        z_trace = complex(np.trace(t1.matrix @ t2.matrix))
        z_enum = partition_enumerate(w8, LatticeSpec(2, 2), staggered=True)
        assert abs(z_trace - z_enum) < 1e-12 * max(1.0, abs(z_enum))

    def test_krinsky_pair_products_commute(self):
        # chains 2 and 4 plus the chain-6 extension
        first, second = sample_krinsky_pair(3)
        for pairs in (1, 2, 3):
            t1a, t2a = staggered_transfer_pair(first, pairs)
            t1b, t2b = staggered_transfer_pair(second, pairs)
            prod_a = t1a.matrix @ t2a.matrix
            prod_b = t1b.matrix @ t2b.matrix
            assert linalg.rel_commutator_norm(prod_a, prod_b) < 1e-9

    def test_krinsky_pair_individual_factors_do_not_commute(self):
        first, second = sample_krinsky_pair(3)
        t1a, _ = staggered_transfer_pair(first, 2)
        _, t2b = staggered_transfer_pair(second, 2)
        assert linalg.rel_commutator_norm(t1a.matrix, t2b.matrix) > 1e-3

    def test_size_guard(self, rng):
        with pytest.raises(ValueError, match="chain"):
            staggered_transfer_pair(random_eight(rng, OD), 7)


def dense_commutator(a, b):
    """The dense reference: both full products, no sector blocks."""
    return linalg.max_abs(a @ b - b @ a) / (linalg.max_abs(a) * linalg.max_abs(b))


def assert_matches_dense(a, b):
    # 1e-14 absolute, relative once the norm exceeds 1 (it reaches ~50
    # for non-commuting 10-site rows, where 1e-14 is a few ulps)
    ref = dense_commutator(a, b)
    assert abs(linalg.rel_commutator_norm(a, b) - ref) <= 1e-14 * max(1.0, ref)


#: the sigma^z-parity blocks a row keeps: its sectors, or swapped
KEEP, SWAP_SECTORS = {(0, 0), (1, 1)}, {(0, 1), (1, 0)}


class TestSectorBlockedCommutator:
    """The full-operand commutator multiplies only the sector blocks a
    row keeps, and agrees with the dense products to rounding."""

    @pytest.mark.parametrize("sites", range(1, 11))
    def test_symmetric_rows(self, sites, rng):
        w1, w2 = random_sym(rng), random_sym(rng)
        ev1, ev2, od1, od2 = (
            transfer_matrix(lax(w), sites).matrix
            for lax, w in ((lax_even, w1), (lax_even, w2), (lax_odd, w1), (lax_odd, w2))
        )
        # an odd row flips every vertex's parity: it swaps the sectors at odd n
        assert set(linalg._sector_blocks(ev1)) == KEEP
        assert set(linalg._sector_blocks(od1)) == (SWAP_SECTORS if sites % 2 else KEEP)
        for a, b in ((ev1, ev2), (od1, od2), (ev1, od2), (od1, ev2)):
            assert_matches_dense(a, b)

    @pytest.mark.parametrize("pairs", range(1, 6))
    @pytest.mark.parametrize("parity", [OD, EV])
    def test_staggered_rows_and_products(self, pairs, parity, rng):
        t1a, t2a = staggered_transfer_pair(random_eight(rng, parity), pairs)
        t1b, t2b = staggered_transfer_pair(random_eight(rng, parity), pairs)
        prod_a, prod_b = t1a.matrix @ t2a.matrix, t1b.matrix @ t2b.matrix
        assert set(linalg._sector_blocks(prod_a)) == KEEP
        for a, b in ((t1a.matrix, t2b.matrix), (t1a.matrix, t1b.matrix), (prod_a, prod_b)):
            assert_matches_dense(a, b)

    def test_peak_below_dense_path(self):
        # 10 sites: the dense path holds d x d products, the blocked one
        # half-size blocks of the operands and (d/2)-square products
        first, second = sample_krinsky_pair(3)
        t1a, t2a = staggered_transfer_pair(first, 5)
        t1b, t2b = staggered_transfer_pair(second, 5)
        prod_a, prod_b = t1a.matrix @ t2a.matrix, t1b.matrix @ t2b.matrix
        peaks = []
        for norm in (dense_commutator, linalg.rel_commutator_norm):
            tracemalloc.start()
            norm(prod_a, prod_b)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        dense, blocked = peaks
        assert dense >= 2 * 8 * 4**10
        assert blocked < 0.8 * dense


class TestOddRowRule:
    """A uniform odd row T_O on an odd chain swaps the sigma^z sectors.
    The rows X and Y of m (I x sx) and (I x sx) m, m its vertex matrix,
    are T_O S and S T_O bit for bit (S the global spin flip) and keep the
    sectors: the trace reads an even power of T_O as (T_X T_Y)^(rows/2)."""

    @staticmethod
    def orientations(rng):
        # the odd vertex matrix as given and transposed (leg swap)
        m = lax_asym(random_eight(rng, OD))
        return m, m[SWAP][:, SWAP]

    @pytest.mark.parametrize("sites", range(1, 13))
    def test_flipped_legs_give_the_row_through_the_spin_flip(self, sites, rng):
        for m in self.orientations(rng):
            row = _cell_row((m,), sites)
            assert np.array_equal(_cell_row((m[:, FLIP],), sites), row[:, ::-1])
            assert np.array_equal(_cell_row((m[FLIP],), sites), row[::-1])

    @pytest.mark.parametrize("sites", [13, 14])
    def test_flipped_legs_at_sampled_representatives(self, sites, rng):
        # the same identity beyond MAX_SITES, at rows a scan may build:
        # T_X reads T_O's rows at reversed columns, T_Y reads its flipped rows
        reps = rng.choice(_shift_orbits(sites, 1)[0][:, 0], size=64, replace=False)
        for m in self.orientations(rng):
            row = _cell_row((m,), sites, 0, reps)
            assert np.array_equal(_cell_row((m[:, FLIP],), sites, 0, reps), row[:, ::-1])
            flipped = _cell_row((m,), sites, 0, reps ^ (2**sites - 1))
            assert np.array_equal(_cell_row((m[FLIP],), sites, 0, reps), flipped)

    @pytest.mark.parametrize("rows,cols", [(1, 2), (2, 1), (1, 4), (3, 4), (4, 3), (1, 8)])
    def test_even_powers_match_enumeration(self, rows, cols, rng):
        # the shorter side odd and the longer even: an even power of T_O
        lattice = LatticeSpec(rows, cols)
        for _ in range(5):
            w8 = random_eight(rng, OD)
            ze = partition_enumerate(w8, lattice)
            assert abs(partition_trace(w8, lattice) - ze) < 1e-12 * abs(ze)

    def test_odd_powers_build_nothing(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an odd power of T_O built a row")

        monkeypatch.setattr(transfer, "_row_transfer", refuse)
        assert partition_trace(random_eight(rng, OD), LatticeSpec(5, 11)) == 0.0
        assert partition_trace(random_eight(rng, OD), LatticeSpec(11, 5)) == 0.0


class TestPartitionFunctions:
    def test_odd_single_site_torus_vanishes(self, rng):
        ws = reparity(to_eight(random_sym(rng)), OD)
        assert partition_trace(ws, LatticeSpec(1, 1)) == 0.0
        assert partition_enumerate(ws, LatticeSpec(1, 1)) == 0.0

    def test_odd_three_by_three_vanishes(self, rng):
        w8 = random_eight(rng, OD)
        lattice = LatticeSpec(3, 3)
        assert partition_enumerate(w8, lattice) == 0.0
        t = transfer_matrix(lax_asym(w8), 3).matrix
        scale = linalg.max_abs(t) ** 3 * 8
        assert abs(partition_trace(w8, lattice)) < 1e-12 * scale

    @pytest.mark.parametrize("backend", [partition_trace, partition_enumerate])
    @pytest.mark.parametrize("parity", [EV, OD])
    def test_backends_return_a_python_float(self, backend, parity, rng):
        z = backend(random_eight(rng, parity), LatticeSpec(2, 4), staggered=True)
        assert type(z) is float

    def test_even_all_ones_counts_configurations(self):
        w8 = WeightsEight((1,) * 8, EV)
        z = partition_enumerate(w8, LatticeSpec(2, 2))
        assert z == 32.0
        assert partition_trace(w8, LatticeSpec(2, 2)) == pytest.approx(32.0, abs=1e-10)

    def test_six_vertex_specialization_backends_agree(self):
        w8 = WeightsEight((1, 1, 1, 1, 1, 1, 0, 0), EV)
        lattice = LatticeSpec(2, 2)
        zt = partition_trace(w8, lattice)
        ze = partition_enumerate(w8, lattice)
        assert abs(zt - ze) < 1e-12 * max(1.0, abs(ze))

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 4), (3, 3), (4, 2)])
    @pytest.mark.parametrize("parity", [EV, OD])
    def test_backend_agreement_battery(self, rows, cols, parity, rng):
        lattice = LatticeSpec(rows, cols)
        for _ in range(20):
            w8 = random_eight(rng, parity)
            zt = partition_trace(w8, lattice)
            ze = partition_enumerate(w8, lattice)
            scale = max(abs(zt), abs(ze), 1e-30)
            assert abs(zt - ze) / scale < 1e-11

    def test_odd_all_ones_backends_agree(self):
        w8 = WeightsEight((1,) * 8, OD)
        lattice = LatticeSpec(2, 2)
        zt = partition_trace(w8, lattice)
        ze = partition_enumerate(w8, lattice)
        assert ze == 32.0
        assert abs(zt - ze) < 1e-10

    def test_single_site_torus_even_model_does_not_vanish(self, rng):
        # the parity obstruction is specific to the odd family: the even
        # model on the 1x1 torus sums its four pass-through vertices
        w8 = random_eight(rng, EV)
        ze = partition_enumerate(w8, LatticeSpec(1, 1))
        zt = partition_trace(w8, LatticeSpec(1, 1))
        expected = w8.w[0] + w8.w[1] + w8.w[2] + w8.w[3]
        assert ze == pytest.approx(expected, rel=1e-14)
        assert zt == pytest.approx(expected, rel=1e-14)

    def test_staggered_backend_agreement(self, rng):
        for parity in (EV, OD):
            w8 = random_eight(rng, parity)
            lattice = LatticeSpec(2, 4)
            zt = partition_trace(w8, lattice, staggered=True)
            ze = partition_enumerate(w8, lattice, staggered=True)
            assert abs(zt - ze) < 1e-11 * max(abs(zt), 1.0)

    @pytest.mark.parametrize("staggered", [False, True])
    @pytest.mark.parametrize("parity", [EV, OD])
    def test_trace_matches_the_dense_power(self, parity, staggered, rng):
        # every torus with both sides <= 6 in both orientations, against the
        # dense power of the row transfer matrix built along the columns
        sides = (2, 4, 6) if staggered else range(1, 7)
        for rows, cols in itertools.product(sides, repeat=2):
            w8 = random_eight(rng, parity)
            z = partition_trace(w8, LatticeSpec(rows, cols), staggered=staggered)
            if staggered:
                t1, t2 = staggered_transfer_pair(w8, cols // 2)
                t, power = t1.matrix @ t2.matrix, rows // 2
            else:
                t, power = transfer_matrix(lax_asym(w8), cols).matrix, rows
            ref = complex(np.trace(np.linalg.matrix_power(t, power)))
            if parity is OD and rows % 2 and cols % 2:
                scale = linalg.max_abs(t) ** rows * 2**cols
                assert abs(z) < 1e-12 * scale, (rows, cols, z)
                continue
            assert abs(z - ref) <= 1e-12 * abs(ref), (rows, cols, z, ref)
            assert abs(z.imag) <= 1e-12 * abs(z), (rows, cols, z)

    @pytest.mark.parametrize("staggered", [False, True])
    @pytest.mark.parametrize("parity", [EV, OD])
    def test_trace_matches_the_full_spectrum_reference(self, parity, staggered, rng):
        # every torus with a chain of at most 10 sites, in all four parity
        # classes of (rows, cols) and in both orientations
        sides = range(2, 12, 2) if staggered else range(1, 12)
        for rows, cols in itertools.product(sides, repeat=2):
            if min(rows, cols) > 10:
                continue
            w8 = random_eight(rng, parity)
            lattice = LatticeSpec(rows, cols)
            z = partition_trace(w8, lattice, staggered=staggered)
            assert z.imag == 0.0, (rows, cols, z)
            if parity is OD and rows % 2 and cols % 2:
                assert z == 0.0, (rows, cols, z)
                continue
            ref = trace_by_full_spectrum(w8, lattice, staggered)
            assert abs(z - ref) <= 1e-13 * abs(ref), (rows, cols, z, ref)

    @pytest.mark.parametrize("rows,cols", [(1, 3), (3, 5), (5, 3), (3, 7)])
    def test_odd_by_odd_trace_is_exactly_zero(self, rows, cols, rng):
        # T_odd maps each sigma^z-string sector to the other on an odd chain,
        # a structure the momentum blocks and their odd powers keep exactly
        assert partition_trace(random_eight(rng, OD), LatticeSpec(rows, cols)) == 0.0

    @pytest.mark.parametrize("sites,period", [(1, 1), (4, 2), (6, 1), (6, 2), (7, 1)])
    def test_shift_orbits_cover_every_momentum_state(self, sites, period):
        images, weight = _shift_orbits(sites, period)
        length = sites // period
        assert images.shape[1] == length
        assert sorted(np.unique(images)) == list(range(2**sites))
        # the momentum states number 2^sites, one per basis state
        assert np.count_nonzero(weight) == 2**sites
        assert _shift_orbits(sites, period) is _shift_orbits(sites, period)
        assert not images.flags.writeable and not weight.flags.writeable
        # each representative is its orbit's smallest state, in increasing order
        assert np.array_equal(images[:, 0], images.min(axis=1))
        assert np.all(np.diff(images[:, 0]) > 0)

    @pytest.mark.parametrize("parity", [EV, OD])
    def test_pruned_enumeration_matches_the_plain_sum(self, parity, rng):
        # every torus with at most 12 edges, at generic weights, six-vertex
        # weights and six-vertex weights with one more zero slot
        shapes = [(r, c) for r in range(1, 7) for c in range(1, 7) if r * c <= 6]
        for zeros in ((), (6, 7), (4, 6, 7)):
            w = rng.uniform(0.2, 1.4, size=8)
            w[list(zeros)] = 0.0
            w8 = WeightsEight(tuple(w), parity)
            for rows, cols in shapes:
                lattice = LatticeSpec(rows, cols)
                ref = enumerate_by_definition(w8, lattice)
                z = partition_enumerate(w8, lattice)
                assert abs(z - ref) <= 1e-14 * abs(ref), (zeros, rows, cols, z, ref)
        # the staggered cell on the square and on both oblong tori
        for rows, cols in ((2, 2), (2, 4), (4, 2)):
            w8 = random_eight(rng, parity)
            lattice = LatticeSpec(rows, cols)
            ref = enumerate_by_definition(w8, lattice, staggered=True)
            z = partition_enumerate(w8, lattice, staggered=True)
            assert abs(z - ref) <= 1e-14 * abs(ref), (rows, cols, z, ref)

    @pytest.mark.parametrize("rows,cols", [(3, 5), (5, 3)])
    def test_odd_by_odd_enumeration_is_exactly_zero(self, rows, cols, rng):
        assert partition_enumerate(random_eight(rng, OD), LatticeSpec(rows, cols)) == 0.0

    @pytest.mark.parametrize(
        "rows,cols,staggered",
        [(1, 12, False), (12, 1, False), (2, 6, False), (6, 2, False), (3, 4, False),
         (4, 3, False), (2, 8, False), (8, 2, False), (4, 4, False),
         (2, 6, True), (6, 2, True), (2, 8, True), (8, 2, True), (4, 4, True)],
    )
    @pytest.mark.parametrize("parity", [EV, OD])
    def test_enumeration_matches_trace_at_full_reach(self, rows, cols, staggered, parity, rng):
        w8 = random_eight(rng, parity)
        lattice = LatticeSpec(rows, cols)
        zt = partition_trace(w8, lattice, staggered=staggered)
        ze = partition_enumerate(w8, lattice, staggered=staggered)
        assert abs(zt - ze) < 1e-11 * abs(ze)

    def test_enumeration_peak_memory_at_the_guard(self, rng):
        tracemalloc.start()
        try:
            partition_enumerate(random_eight(rng, EV), LatticeSpec(4, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    def test_staggered_trace_holds_one_factor_at_a_time(self, rng):
        w8 = random_eight(rng, OD)
        tracemalloc.start()
        try:
            partition_trace(w8, LatticeSpec(10, 10), staggered=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 16 * 4**10

    def test_uniform_trace_builds_no_dense_row(self, rng):
        # the dense 12-site row alone is 128 MiB; the representative rows
        # of a 20 x 12 torus and their momentum blocks stay well below it
        tracemalloc.start()
        try:
            partition_trace(random_eight(rng, EV), LatticeSpec(20, 12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 96 * 2**20

    def test_uniform_trace_multiplies_sector_blocks(self, rng):
        # the sigma^z-sector blocks of a 20 x 12 torus are half as wide as
        # one block over every orbit; together with the rows they built
        # 52.9 MiB unsplit and 27.7 MiB split
        tracemalloc.start()
        try:
            partition_trace(random_eight(rng, EV), LatticeSpec(20, 12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20

    def test_staggered_trace_multiplies_sector_blocks(self, rng):
        # a 12 x 12 staggered torus: 149.5 MiB unsplit, 77.4 MiB split
        tracemalloc.start()
        try:
            partition_trace(random_eight(rng, OD), LatticeSpec(12, 12), staggered=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * 2**20

    def test_enumeration_guard(self, rng):
        with pytest.raises(ValueError, match="enumeration"):
            partition_enumerate(random_eight(rng, EV), LatticeSpec(4, 5))

    def test_staggered_parity_guard(self, rng):
        with pytest.raises(ValueError, match="even rows"):
            partition_trace(random_eight(rng, OD), LatticeSpec(3, 4), staggered=True)


class TestWuKunz:
    def test_symmetric_point_enumeration(self):
        w8 = reparity(to_eight(WeightsSym(1, 2, 3, 4)), OD)
        rep = wu_kunz_check(w8, LatticeSpec(2, 2))
        assert rep["rel_diff"] < 1e-12

    @pytest.mark.parametrize("parity", [OD, EV])
    def test_asymmetric_enumeration_both_directions(self, parity, rng):
        w8 = random_eight(rng, parity)
        rep = wu_kunz_check(w8, LatticeSpec(2, 2))
        assert rep["rel_diff"] < 1e-12
        assert rep["model"] == parity.value

    @pytest.mark.parametrize("parity", [OD, EV])
    def test_enumeration_four_by_four(self, parity, rng):
        rep = wu_kunz_check(random_eight(rng, parity), LatticeSpec(4, 4))
        assert rep["backend"] == "enumerate"
        assert rep["rel_diff"] < 1e-12

    @pytest.mark.parametrize("parity", [OD, EV])
    def test_trace_backend_four_by_four(self, parity, rng):
        w8 = random_eight(rng, parity)
        rep = wu_kunz_check(w8, LatticeSpec(4, 4), backend="trace")
        assert rep["rel_diff"] < 1e-10

    @pytest.mark.parametrize("shape", [(4, 12), (12, 4)])
    @pytest.mark.parametrize("parity", [OD, EV])
    def test_trace_backend_twelve_columns(self, parity, shape, rng):
        w8 = random_eight(rng, parity)
        rep = wu_kunz_check(w8, LatticeSpec(*shape), backend="trace")
        assert rep["rel_diff"] < 1e-11

    @pytest.mark.parametrize("parity", [OD, EV])
    def test_trace_backend_twelve_by_twelve(self, parity, rng):
        # both sides at the largest chain the trace accepts, the staggered
        # side on period-2 sector blocks
        rep = wu_kunz_check(random_eight(rng, parity), LatticeSpec(12, 12), backend="trace")
        assert rep["rel_diff"] < 1e-10

    def test_report_serialization(self, rng):
        rep = wu_kunz_check(random_eight(rng, OD), LatticeSpec(2, 2))
        assert list(rep) == ["lhs", "rhs", "rel_diff", "lattice", "model", "backend"]
        # plain floats: the CLI builds its [re, im] wire pairs
        assert type(rep["lhs"]) is float and type(rep["rhs"]) is float

    def test_odd_sized_torus_rejected(self, rng):
        with pytest.raises(ValueError, match="even-sized"):
            wu_kunz_check(random_eight(rng, OD), LatticeSpec(3, 3))


class TestCommutationScan:
    def test_manifold_points_commute(self):
        points = [elliptic_weights(mu) for mu in (0.1, 0.3, 0.5)]
        norms = commutation_scan(points, 4, ("even", "even"))
        assert norms.max() < 1e-10

    def test_mixed_kinds_commute_on_manifold(self):
        points = [elliptic_weights(mu) for mu in (0.1, 0.3, 0.5)]
        norms = commutation_scan(points, 4, ("even", "odd"))
        assert norms.max() < 1e-10

    def test_different_curve_parameter_breaks_commutation(self):
        a = baxter_weights(EllipticPoint(K, LAM, 0.3))
        b = baxter_weights(EllipticPoint(K, 0.45, 0.3))
        norms = commutation_scan([a, b], 4, ("even", "even"))
        assert norms[0, 1] > 1e-3

    def test_staggered_product_kind(self):
        first, second = sample_krinsky_pair(5)
        norms = commutation_scan([first, second], 4, ("stagprod", "stagprod"))
        assert norms.max() < 1e-9
        cross = commutation_scan([first, second], 4, ("stag1", "stag2"))
        assert cross[0, 1] > 1e-3

    @pytest.mark.parametrize("kinds,family", [
        (("even", "odd"), "elliptic"), (("stagprod", "stagprod"), "elliptic"),
        (("stag1", "stag1"), "elliptic"), (("stag1", "stag2"), "elliptic"),
        (("stag1", "stag2"), "krinsky"),
        # at an odd length a symmetric scan counts and holds one sector
        (("even", "odd"), "elliptic-11"), (("odd", "odd"), "elliptic-11"),
    ])
    def test_byte_count_bounds_the_peak(self, kinds, family):
        family, _, sites = family.partition("-")
        sites = int(sites or 10)
        if family == "elliptic":
            points = [elliptic_weights(mu) for mu in (0.1, 0.3, 0.5)]
        else:  # distinct eight-weight points: stag2 is its own row
            points = list(sample_krinsky_pair(5))
        tracemalloc.start()
        try:
            commutation_scan(points, sites, kinds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _scan_bytes(points, sites, kinds) >= peak

    def test_single_row_kinds_count_no_product(self):
        # stag1 and stag2 are one row each: no T1 blocks held while T2
        # builds.  At 12 sites the shift by two has 356 even orbits and 344
        # odd ones, a sector of M = 356 each, L = 6 and 4 momenta: rows
        # R = 712 x 4096 float64, their gather G = 2 x 356^2 x 6 float64,
        # sector blocks B = 2 x 4 x 356^2 complex128; two kept block sets,
        # one operand's R + G + 2 B and one pair's 3 B
        point = [elliptic_weights(0.1)]
        row, gather, block = 8 * 712 * 4096, 8 * 2 * 356**2 * 6, 16 * 2 * 4 * 356**2
        assert _scan_bytes(point, 12, ("stag1", "stag2")) == row + gather + 7 * block
        assert _scan_bytes(point, 12, ("stag1", "stag2")) <= MAX_SCAN_BYTES
        assert _scan_bytes(point, 12, ("stagprod", "stag1")) == row + gather + 8 * block

    def test_two_point_twelve_site_scan_fits(self):
        # the shift by one at 12 sites: 180 even and 172 odd orbits, a
        # sector of M = 180 each, L = 12 and 7 momenta.  even,odd is read
        # as even,even: one block set a point, float64 rows for one operand
        # at a time, and no dense matrix, so 288 points fit under the limit
        # and 289 do not (counted, not run)
        points = [elliptic_weights(0.001 * (i + 1)) for i in range(289)]
        row, gather, block = 8 * 360 * 4096, 8 * 2 * 180**2 * 12, 16 * 2 * 7 * 180**2
        assert _scan_bytes(points[:2], 12, ("even", "even")) == row + gather + 7 * block
        assert _scan_bytes(points[:288], 12, ("even", "even")) == row + gather + 293 * block
        assert _scan_bytes(points[:288], 12, ("even", "even")) <= MAX_SCAN_BYTES
        assert _scan_bytes(points, 12, ("even", "even")) > MAX_SCAN_BYTES

    def test_thirteen_site_symmetric_scan_counts_one_sector(self):
        # the shift by one at 13 sites: 316 even orbits, the one sector a
        # symmetric scan keeps at an odd length (M = 316), L = 13 and 7
        # momenta: rows R = 316 x 8192 float64, their gather
        # G = 316^2 x 13 float64, blocks B = 7 x 316^2 complex128, half the
        # two-sector count.  even,odd is read as even,even, one kept block
        # set a point, so 184 points fit and 185 are refused before
        # anything is built (88 and 89 with both sectors)
        points = [elliptic_weights(0.001 * (i + 1)) for i in range(185)]
        row, gather, block = 8 * 316 * 2**13, 8 * 316**2 * 13, 16 * 7 * 316**2
        assert _scan_bytes(points[:2], 13, ("even", "even")) == row + gather + 7 * block
        assert _scan_bytes(points[:184], 13, ("even", "even")) == row + gather + 189 * block
        assert _scan_bytes(points[:184], 13, ("even", "even")) <= MAX_SCAN_BYTES
        assert _scan_bytes(points, 13, ("even", "even")) > MAX_SCAN_BYTES
        with pytest.raises(ValueError, match="above the 2147483648-byte limit"):
            commutation_scan(points, 13, ("even", "odd"))

    def test_two_point_twelve_site_peak_is_below_one_dense_matrix(self):
        # no 2^12 x 2^12 array is formed: the whole scan peaks below one
        # dense float64 12-site matrix
        points = [elliptic_weights(mu) for mu in (0.2, 0.4)]
        tracemalloc.start()
        try:
            norms = commutation_scan(points, 12, ("even", "odd"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 4**12
        assert norms.max() < 1e-13

    def test_complex_weights_rejected(self):
        # weights are real: a complex point is refused where it is made,
        # before a staggered kind could expand it to eight weights
        with pytest.raises(ValueError, match="real"):
            points = [WeightsSym(1, 2j, 3, 4), WeightsSym(1, 2, 3j, 4)]
            commutation_scan(points, 4, ("stag1", "stag1"))

    @pytest.mark.parametrize(
        "kinds,rows", [(("stag1", "stag1"), 2), (("stag1", "stag2"), 2),
                       (("stag2", "stag2"), 2), (("stagprod", "stagprod"), 4)],
    )
    def test_staggered_kinds_build_only_their_own_rows(self, kinds, rows, monkeypatch):
        # stag1 and stag2 are one row of the cell each, stagprod both; two
        # symmetric points, at which stag2 is read as stag1: one list of rows
        # (the two points of a row are built in one stacked call)
        built = []
        row_transfer = transfer._row_transfer

        def counting(matrices, rows=None):
            built.extend([len(matrices)] * len(matrices[0]))
            return row_transfer(matrices, rows)

        monkeypatch.setattr(transfer, "_row_transfer", counting)
        points = [elliptic_weights(mu) for mu in (0.1, 0.3)]
        commutation_scan(points, 4, kinds)
        assert built == [4] * rows

    @pytest.mark.parametrize("kind,sites", [
        pytest.param("even", 6, id="even"), pytest.param("odd", 6, id="odd"),
        pytest.param("stagprod", 6, id="stagprod"),
        # one sigma^z sector at an odd length
        pytest.param("even", 7, id="even-7"), pytest.param("odd", 7, id="odd-7"),
    ])
    def test_equal_kinds_match_the_full_grid(self, kind, sites):
        # the full n x n grid of the same block statistic, as before the
        # scan mirrored the upper triangle: an exact mirror, a zero diagonal
        # (the scan reads odd as even)
        points = [elliptic_weights(mu) for mu in (0.1, 0.25, 0.4)]
        period = 2 if kind == "stagprod" else 1
        blocks, scales = _transfer_of_kind(points, "even" if kind == "odd" else kind, sites, period)
        i, j = np.indices((3, 3)).reshape(2, -1)
        full = _commutator_norms(blocks[i], scales[i], blocks[j], scales[j], sites, period)
        full = full.reshape(3, 3)
        assert np.array_equal(commutation_scan(points, sites, (kind, kind)), full)
        assert np.array_equal(full, full.T) and not full.diagonal().any()

    @pytest.mark.parametrize(
        "kinds,sites",
        [(("even", "odd"), n) for n in range(4, 11)]
        + [(("odd", "odd"), n) for n in range(4, 11)]
        + [(("even", "even"), n) for n in (4, 7, 10)]
        + [(kinds, n) for kinds in (("stag1", "stag1"), ("stagprod", "stagprod"),
                                    ("stag1", "stagprod"))
           for n in (4, 6, 8, 10)]
        # the one-sector scans: every symmetric kind pair at 3, 5, 7 and 9
        # sites, with the cases above
        + [pytest.param(kinds, n, id=f"{','.join(kinds)}-{n}")
           for kinds, lengths in ((("even", "even"), (3, 5, 9)), (("odd", "odd"), (3,)),
                                  (("even", "odd"), (3,)), (("odd", "even"), (3, 5, 7, 9)))
           for n in lengths],
    )
    def test_representative_rows_match_the_dense_commutator(self, kinds, sites, rng):
        # two routes to one statistic: the scan multiplies momentum blocks,
        # the reference forms all of AB - BA from the dense matrices
        def dense(points):
            first = [dense_of_kind(p, kinds[0], sites) for p in points]
            second = [dense_of_kind(p, kinds[1], sites) for p in points]
            return np.array([[linalg.rel_commutator_norm(a, b) for b in second]
                             for a in first])

        on = [elliptic_weights(mu) for mu in (0.1, 0.4)]
        scan = commutation_scan(on, sites, kinds)
        assert scan.max() < 1e-13 and dense(on).max() < 1e-13
        # two curves, or for the staggered kinds asymmetric points, whose rows
        # commute with the shift by two sites only: about half of their pairs
        # have the largest entry in a row that the orbits of the shift by one
        # site would miss, so the small chains take fifteen pairs.  A point
        # against itself commutes, except T1 against T1 T2.
        # At an odd length the symmetric kinds also take random symmetric
        # pairs, on no elliptic curve.
        if kinds[0] in ("even", "odd"):
            offs = [[baxter_weights(EllipticPoint(K, lam, 0.3)) for lam in (LAM, 0.45)]]
            if sites % 2:
                offs.append([random_sym(rng) for _ in range(2)])
        else:
            offs = [[random_eight(rng, OD) for _ in range(6 if sites <= 6 else 2)]]
        for off in offs:
            scan, ref = commutation_scan(off, sites, kinds), dense(off)
            across = ~np.eye(len(off), dtype=bool) if kinds != ("stag1", "stagprod") else ref > -1
            assert np.all(ref[across] > 1e-3)
            assert np.all(np.abs(scan - ref)[across] <= 1e-12 * ref[across])
            assert scan[~across].max(initial=0.0) < 1e-13
            assert ref[~across].max(initial=0.0) < 1e-13

    def test_thirteen_site_scan(self):
        # beyond MAX_SITES: an on-manifold even, odd pair stays at rounding
        # residue, and two curves do not commute
        on = [elliptic_weights(mu) for mu in (0.2, 0.4)]
        assert commutation_scan(on, 13, ("even", "odd")).max() < 1e-13
        off = [baxter_weights(EllipticPoint(K, lam, 0.3)) for lam in (LAM, 0.45)]
        assert commutation_scan(off, 13, ("even", "even"))[0, 1] > 1e-3

    @pytest.mark.parametrize("kinds,sites", [(("even", "stag1"), 5), (("stagprod", "odd"), 7)])
    def test_staggered_kinds_at_an_odd_length_build_nothing(self, kinds, sites, monkeypatch):
        # refused with the other guards, before any row is built
        built = []
        cell_row = transfer._cell_row

        def spy(cell, sites, *args):
            built.append(sites)
            return cell_row(cell, sites, *args)

        monkeypatch.setattr(transfer, "_cell_row", spy)
        points = [elliptic_weights(mu) for mu in (0.1, 0.3)]
        with pytest.raises(ValueError, match="staggered kinds need an even chain length"):
            commutation_scan(points, sites, kinds)
        assert built == []

    def test_scan_chain_bound(self):
        # scans reach 14 sites; dense transfer matrices stay at 12
        assert (MAX_SITES, MAX_SCAN_SITES) == (12, 14)
        points = [elliptic_weights(mu) for mu in (0.1, 0.3)]
        with pytest.raises(ValueError, match="chain length 15 outside 1..14"):
            commutation_scan(points, 15, ("even", "even"))
        with pytest.raises(ValueError, match="chain length 13 outside 1..12"):
            transfer_matrix(lax_even(points[0]), 13)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_rows_are_refused(self):
        # 1e200^4 overflows: the row is refused before it becomes a norm
        points = [WeightsSym(1e200, 1, 1, 1), WeightsSym(1e200, 2, 1, 1)]
        with pytest.raises(ValueError, match="non-finite"):
            commutation_scan(points, 4, ("even", "odd"))
        # finite rows whose products overflow are refused too
        points = [WeightsSym(1e60, 1, 1, 1), WeightsSym(1e60, 2, 1, 1)]
        with pytest.raises(ValueError, match="non-finite"):
            commutation_scan(points, 4, ("even", "odd"))

    def test_scales_are_largest_absolute_entries(self):
        # a negative row's scale is its most negative entry, negated, and
        # an all-zero row's is +0.0
        points = [WeightsSym(-1.0, -0.5, -2.0, -0.3), WeightsSym(0, 0, 0, 0)]
        _, scales = _transfer_of_kind(points, "even", 5, 1)
        dense = transfer_matrix(lax_even(points[0]), 5).matrix
        assert dense.min() < 0.0 and scales[0] == np.abs(dense).max()
        assert np.copysign(1.0, scales[1]) == 1.0 and scales[1] == 0.0

    def test_all_zero_operand_gives_zero(self):
        points = [WeightsSym(0, 0, 0, 0), elliptic_weights(0.2)]
        norms = commutation_scan(points, 4, ("even", "odd"))
        assert norms[0].tolist() == [0.0, 0.0] and norms[:, 0].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("sites,period", [(5, 1), (6, 1), (6, 2)])
    def test_all_zero_blocks_have_positive_zero_entries(self, sites, period):
        # an all-zero commutator's largest entry is +0.0, never -0.0
        images = _sectors(sites, period)[1]
        sectors = 2 - sites % 2
        size, length = images.shape[1:]
        for zero in (0.0, -0.0):
            blocks = np.full((3, sectors, length // 2 + 1, size, size), zero, dtype=complex)
            top = _largest_entries(blocks, sites, period)
            assert top.tolist() == [0.0] * 3
            assert np.all(np.copysign(1.0, top) == 1.0)

    def test_kind_validation(self, rng):
        with pytest.raises(ValueError, match="unknown transfer kind"):
            commutation_scan([random_sym(rng)], 2, ("even", "sideways"))

    def test_symmetric_kind_needs_sym_weights(self, rng):
        points = [random_eight(rng, EV), random_eight(rng, EV)]
        with pytest.raises(ValueError, match="WeightsSym"):
            commutation_scan(points, 2, ("even", "even"))

    @pytest.mark.parametrize("kind", ["even", "stag1", "stagprod"])
    def test_equal_kinds_need_two_points(self, kind):
        # the one entry of a one-point equal-kind grid is the unchecked diagonal
        with pytest.raises(ValueError, match="at least two points"):
            commutation_scan([elliptic_weights(0.1)], 4, (kind, kind))
        # odd is read as even: one point of two symmetric kinds is S [T, T] = 0
        for kinds in (("even", "odd"), ("odd", "even"), ("odd", "odd")):
            with pytest.raises(ValueError, match="at least two points"):
                commutation_scan([elliptic_weights(0.1)], 4, kinds)

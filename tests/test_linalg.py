import itertools
import math

import numpy as np
import pytest

from vertex_sheaf import linalg

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


class TestKron:
    def test_identity_case(self):
        np.testing.assert_array_equal(linalg.kron_chain([I2, I2]), np.eye(4))

    def test_sigma_x_with_identity_placement(self):
        # the first factor is the leading tensor slot
        m = linalg.kron_chain([SX, I2])
        expected_ones = {(0, 2), (1, 3), (2, 0), (3, 1)}
        for i in range(4):
            for j in range(4):
                assert m[i, j] == (1.0 if (i, j) in expected_ones else 0.0)

    def test_chain(self):
        m = linalg.kron_chain([SX, SX, SX])
        assert m.shape == (8, 8)
        np.testing.assert_array_equal(m @ m, np.eye(8))


class TestAsMatrix:
    def test_real_input_stays_float64(self, rng):
        m = linalg.as_matrix(rng.normal(size=(4, 4)))
        assert m.dtype == np.float64
        assert linalg.as_matrix([[1, 0], [0, 1]]).dtype == np.float64

    def test_complex_input_stays_complex128(self, rng):
        m = linalg.as_matrix(rng.normal(size=(4, 4)) + 0j)
        assert m.dtype == np.complex128

    def test_float64_input_is_not_copied(self, rng):
        m = rng.normal(size=(4, 4))
        assert linalg.as_matrix(m) is m

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(3, dtype=type(bad))
        m[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linalg.as_matrix(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.as_matrix(np.zeros((2, 3)))

    def test_empty_matrix_is_accepted(self):
        assert linalg.as_matrix(np.zeros((0, 0))).shape == (0, 0)

    def test_huge_complex_entries_are_finite(self):
        # |1e308 + 1e308j| overflows, but the entries are finite
        m = np.full((2, 2), complex(1e308, 1e308))
        assert linalg.as_matrix(m) is m


class TestMaxAbs:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_equals_the_largest_absolute_entry_bit_for_bit(self, dtype, rng):
        a = rng.normal(size=(7, 9)).astype(dtype)
        a[3, 4] = -5.0  # a negative entry is the largest
        assert linalg.max_abs(a) == np.abs(a).max() == 5.0
        assert linalg.max_abs(-a) == np.abs(a).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_propagate(self, bad):
        a = np.zeros((3, 3))
        a[2, 1] = bad
        rows = linalg.real_abs_max(a, axis=1)
        if np.isnan(bad):
            assert np.isnan(linalg.max_abs(a)) and np.isnan(rows[2])
        else:
            assert linalg.max_abs(a) == rows[2] == np.inf
        assert rows[:2].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_gives_positive_zero(self, zero):
        assert math.copysign(1.0, linalg.max_abs(np.full((2, 3), zero))) == 1.0
        rows = linalg.real_abs_max(np.full((2, 3), zero), axis=1)
        assert np.copysign(1.0, rows).tolist() == [1.0, 1.0]

    def test_empty_gives_zero(self):
        assert linalg.max_abs(np.zeros((0, 4))) == 0.0
        assert linalg.max_abs(np.zeros(0, dtype=complex)) == 0.0

    def test_integer_input_uses_abs(self):
        assert linalg.max_abs(np.array([[1, -3], [2, 0]])) == 3.0


class TestCommutatorNorm:
    @pytest.mark.parametrize("dim", [4, 8, 16])
    def test_self_commutation_exact_zero(self, dim, rng):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert linalg.rel_commutator_norm(a, a) == 0.0

    def test_pauli_pair(self):
        assert linalg.rel_commutator_norm(SX, SZ) == pytest.approx(2.0, abs=1e-15)

    def test_diagonal_matrices_commute(self, rng):
        # mathematically zero; BLAS walks the two products differently,
        # so allow rounding-level residue
        d1 = np.diag(rng.normal(size=5) + 1j * rng.normal(size=5))
        d2 = np.diag(rng.normal(size=5) + 1j * rng.normal(size=5))
        assert linalg.rel_commutator_norm(d1, d2) < 1e-15

    def test_mixed_real_and_complex_operands(self, rng):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        expected = linalg.rel_commutator_norm(a.astype(complex), b)
        assert linalg.rel_commutator_norm(a, b) == expected
        assert linalg.rel_commutator_norm(b, a) == expected
        assert expected > 0.0

    def test_real_operands_stay_real(self):
        assert linalg.kron_chain([SX.real, SZ.real]).dtype == np.float64
        assert linalg.rel_commutator_norm(SX.real, SZ.real) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            linalg.rel_commutator_norm(np.eye(2), np.eye(3))

    def test_relative_norm_scale_invariance(self, rng):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        r1 = linalg.rel_commutator_norm(a, b)
        r2 = linalg.rel_commutator_norm(100.0 * a, 1e-3 * b)
        assert r1 == pytest.approx(r2, rel=1e-12)


def dense_commutator(a, b):
    """The dense reference: both full products, no sector blocks."""
    scale = linalg.max_abs(a) * linalg.max_abs(b)
    return linalg.max_abs(a @ b - b @ a) / scale if scale else 0.0


def assert_matches_dense(a, b):
    # 1e-14 absolute, relative once the norm exceeds 1
    ref = dense_commutator(a, b)
    assert abs(linalg.rel_commutator_norm(a, b) - ref) <= 1e-14 * max(1.0, ref)


def random_matrix(rng, dim, complex_):
    m = rng.normal(size=(dim, dim))
    return m + 1j * rng.normal(size=(dim, dim)) if complex_ else m


class TestSectorBlockedCommutator:
    def test_parity_sectors(self):
        even, odd = linalg._parity_sectors(8)
        assert even.tolist() == [0, 3, 5, 6] and odd.tolist() == [1, 2, 4, 7]
        assert [s.tolist() for s in linalg._parity_sectors(1)] == [[0], []]
        # any dimension, not only powers of two
        assert [s.tolist() for s in linalg._parity_sectors(5)] == [[0, 3], [1, 2, 4]]

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_random_matrices_match_dense(self, dim, complex_, rng):
        for _ in range(5):
            a, b = random_matrix(rng, dim, complex_), random_matrix(rng, dim, complex_)
            assert_matches_dense(a, b)

    @pytest.mark.parametrize("block", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_one_zero_block(self, block, rng):
        a, b = random_matrix(rng, 8, False), random_matrix(rng, 8, True)
        sectors = linalg._parity_sectors(8)
        a[np.ix_(sectors[block[0]], sectors[block[1]])] = 0.0
        assert set(linalg._sector_blocks(a)) == {(0, 0), (0, 1), (1, 0), (1, 1)} - {block}
        for x, y in ((a, b), (b, a)):
            assert_matches_dense(x, y)

    def test_zero_matrix(self, rng):
        a = random_matrix(rng, 8, True)
        assert linalg.rel_commutator_norm(np.zeros((8, 8)), a) == 0.0
        assert linalg.rel_commutator_norm(a, np.zeros((8, 8))) == 0.0

    def test_no_surviving_term_is_exact_zero(self, rng):
        # A lives on the even sector only, B on the odd one: no block
        # product survives and C is exactly zero, as the dense path finds
        even, odd = linalg._parity_sectors(8)
        a, b = np.zeros((8, 8)), np.zeros((8, 8))
        a[np.ix_(even, even)] = rng.normal(size=(4, 4))
        b[np.ix_(odd, odd)] = rng.normal(size=(4, 4))
        assert linalg.rel_commutator_norm(a, b) == dense_commutator(a, b) == 0.0

    def test_zero_detection_has_no_tolerance(self):
        # one off-sector entry of 1e-300 (basis 0 is even, 1 odd) is the
        # whole commutator of two diagonal operands; dropping its block
        # would report 0
        a = np.diag([5.0, 6.0, 7.0, 8.0])
        a[0, 1] = 1e-300
        b = np.diag([1.0, 2.0, 3.0, 4.0])
        expected = dense_commutator(a, b)
        assert expected == 1e-300 / 32.0
        assert linalg.rel_commutator_norm(a, b) == expected
        assert linalg.rel_commutator_norm(b, a) == expected

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            linalg.rel_commutator_norm(np.zeros((2, 3)), np.zeros((2, 3)))


class TestRelGap:
    def test_both_zero_is_zero(self):
        assert linalg.rel_gap(0.0, 0j) == 0.0

    def test_one_side_zero_is_one(self):
        assert linalg.rel_gap(0.0, 3 - 4j) == 1.0
        assert linalg.rel_gap(-2.5, 0.0) == 1.0

    def test_symmetric(self, rng):
        for _ in range(10):
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert linalg.rel_gap(a, b) == linalg.rel_gap(b, a)
        assert linalg.rel_gap(2.0, 1.0) == linalg.rel_gap(1.0, 2.0) == 0.5


class TestTraceCyclicity:
    def test_random_triples(self, rng):
        for _ in range(10):
            a, b, c = (
                rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                for _ in range(3)
            )
            t1 = np.trace(a @ b @ c)
            t2 = np.trace(b @ c @ a)
            bound = 1e-12 * linalg.max_abs(a) * linalg.max_abs(b) * linalg.max_abs(c)
            assert abs(t1 - t2) < bound


class TestNullSpace:
    def test_zero_matrix_full_kernel(self):
        vecs = linalg.null_space(np.zeros((3, 3)), 1e-8)
        assert len(vecs) == 3
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        assert linalg.max_abs(gram - np.eye(3)) < 1e-12

    def test_tall_zero_matrix_full_kernel(self):
        # the reduced SVD of a tall matrix still yields all n directions
        vecs = linalg.null_space(np.zeros((6, 3)), 1e-8)
        assert len(vecs) == 3
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        assert linalg.max_abs(gram - np.eye(3)) < 1e-12

    def test_identity_trivial_kernel(self):
        assert linalg.null_space(np.eye(4), 1e-8) == []

    def test_rank_one_outer_product(self, rng):
        # rank-1 construction: kernel is the orthogonal complement of v
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        m = np.outer(u, v.conj())
        vecs = linalg.null_space(m, 1e-8)
        assert len(vecs) == 3
        for x in vecs:
            assert np.linalg.norm(m @ x) < 1e-12
            assert abs(np.vdot(v, x)) < 1e-12

    def test_rectangular_wide(self, rng):
        m = rng.normal(size=(2, 5))
        vecs = linalg.null_space(m, 1e-10)
        assert len(vecs) == 3
        for x in vecs:
            assert np.linalg.norm(m @ x) < 1e-12

    def test_residual_bound_property(self, rng):
        for _ in range(5):
            m = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
            m[:, 3] = m[:, 0] + m[:, 1]  # force a kernel direction
            rel_tol = 1e-10
            sigma_max = np.linalg.svd(m, compute_uv=False)[0]
            for x in linalg.null_space(m, rel_tol):
                assert np.linalg.norm(m @ x) <= 10 * rel_tol * sigma_max * np.linalg.norm(x)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_rel_tol_domain(self, bad):
        with pytest.raises(ValueError):
            linalg.null_space(np.eye(2), bad)


class TestTwoSiteOperator:
    def test_adjacent_legs_match_kron(self, rng):
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_allclose(
            linalg.two_site_operator(op, 3, 0, 1), np.kron(op, I2), atol=0
        )
        np.testing.assert_allclose(
            linalg.two_site_operator(op, 3, 1, 2), np.kron(I2, op), atol=0
        )

    def test_skipping_leg(self, rng):
        # acting on legs 0 and 2 must commute with anything on leg 1
        op = rng.normal(size=(4, 4))
        full = linalg.two_site_operator(op, 3, 0, 2)
        middle = linalg.kron_chain([I2, SX, I2])
        assert linalg.max_abs(full @ middle - middle @ full) < 1e-14

    def test_reversed_pair_is_the_swap_conjugate(self, rng):
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        np.testing.assert_array_equal(linalg.two_site_operator(op, 2, 1, 0), swap @ op @ swap)

    def test_every_ordered_pair_on_four_sites(self, rng):
        # entry by entry over basis indices, leg 0 the most significant bit
        sites = 4
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))

        def bit(n, leg):
            return n >> (sites - 1 - leg) & 1

        for p, q in itertools.permutations(range(sites), 2):
            expected = np.zeros((16, 16), dtype=complex)
            for row, col in itertools.product(range(16), repeat=2):
                if all(bit(row, x) == bit(col, x) for x in range(sites) if x not in (p, q)):
                    expected[row, col] = op[2 * bit(row, p) + bit(row, q),
                                            2 * bit(col, p) + bit(col, q)]
            np.testing.assert_array_equal(linalg.two_site_operator(op, sites, p, q), expected)

    def test_invalid_legs(self):
        with pytest.raises(ValueError):
            linalg.two_site_operator(np.eye(4), 3, 1, 1)

    @pytest.mark.parametrize("sites", [3, 4])
    def test_stack_equals_single_embeddings(self, rng, sites):
        ops = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        for p, q in itertools.permutations(range(sites), 2):
            single = np.stack([linalg.two_site_operator(op, sites, p, q) for op in ops])
            assert np.array_equal(linalg.two_site_operator(ops, sites, p, q), single)
            nested = linalg.two_site_operator(ops[:4].reshape(2, 2, 4, 4), sites, p, q)
            assert np.array_equal(nested.reshape(single[:4].shape), single[:4])

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_keeps_the_operand_dtype(self, rng, dtype):
        ops = rng.normal(size=(5, 4, 4)).astype(dtype)
        assert linalg.two_site_operator(ops, 3, 0, 2).dtype == dtype
        assert linalg.two_site_operator(ops[0], 4, 3, 1).dtype == dtype

    @pytest.mark.parametrize("shape", [(), (4,), (16,), (2, 2), (4, 2), (3, 4, 3), (2, 8, 8)])
    def test_shapes_other_than_stacked_four_by_four(self, shape):
        with pytest.raises(ValueError, match="4, 4"):
            linalg.two_site_operator(np.zeros(shape), 3, 0, 1)


class TestRealPart:
    def test_accepts_rounding_noise(self):
        assert linalg.real_part(1.5 + 1e-14j) == 1.5

    def test_rejects_genuinely_complex(self):
        with pytest.raises(ValueError, match="not real"):
            linalg.real_part(1.0 + 1e-3j)

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


class TestCommutatorNorm:
    def test_self_commutation_exact_zero(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert linalg.commutator_norm(a, a) == 0.0

    def test_pauli_pair(self):
        assert linalg.commutator_norm(SX, SZ) == pytest.approx(2.0, abs=1e-15)

    def test_diagonal_matrices_commute(self, rng):
        # mathematically zero; BLAS walks the two products differently,
        # so allow rounding-level residue
        d1 = np.diag(rng.normal(size=5) + 1j * rng.normal(size=5))
        d2 = np.diag(rng.normal(size=5) + 1j * rng.normal(size=5))
        assert linalg.commutator_norm(d1, d2) < 1e-15 * linalg.max_abs(d1) * linalg.max_abs(d2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            linalg.commutator_norm(np.eye(2), np.eye(3))

    def test_relative_norm_scale_invariance(self, rng):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        r1 = linalg.rel_commutator_norm(a, b)
        r2 = linalg.rel_commutator_norm(100.0 * a, 1e-3 * b)
        assert r1 == pytest.approx(r2, rel=1e-12)


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
        assert linalg.commutator_norm(full, middle) < 1e-14

    def test_invalid_legs(self):
        with pytest.raises(ValueError):
            linalg.two_site_operator(np.eye(4), 3, 1, 1)


class TestRealPart:
    def test_accepts_rounding_noise(self):
        assert linalg.real_part(1.5 + 1e-14j) == 1.5

    def test_rejects_genuinely_complex(self):
        with pytest.raises(ValueError, match="not real"):
            linalg.real_part(1.0 + 1e-3j)

import itertools

import numpy as np
import pytest

from vertex_sheaf import linalg
from vertex_sheaf.elliptic import EllipticPoint, ThetaParams, baxter_weights
from vertex_sheaf.operators import (
    EVEN_POSITIONS,
    ODD_POSITIONS,
    SIGMA_X,
    LaxOperator,
    even_pattern,
    functional_residuals,
    lax_asym_even,
    lax_asym_odd,
    lax_even,
    lax_odd,
    matches_pattern,
    normalize_gauge,
    odd_pattern,
    r_sheaf,
    sheaf_r_elliptic,
    sheaf_yang_baxter_residual,
    solve_intertwiner,
    yang_baxter_residual,
)
from vertex_sheaf.transfer import _sublattice_lax
from vertex_sheaf.weights import (
    Parity,
    WeightsEight,
    WeightsSym,
    ev_od_swap,
    staggered_companion,
    to_eight,
)

K, LAM = 0.5, 0.7
PARAMS = ThetaParams.from_modulus(K)
EV, OD = Parity.EVEN, Parity.ODD


def elliptic_weights(mu: float) -> WeightsSym:
    return baxter_weights(EllipticPoint(K, LAM, mu), PARAMS)


def random_sym(rng, parity=EV) -> WeightsSym:
    return WeightsSym(*rng.uniform(0.2, 1.5, size=4), parity=parity)


class TestLaxEven:
    def test_single_weight_selection(self):
        m = lax_even(WeightsSym(1, 0, 0, 0)).matrix
        assert m[0, 0] == 1 and m[3, 3] == 1
        assert linalg.max_abs(m - np.diag([1, 0, 0, 1])) == 0.0

    def test_entry_placement(self):
        m = lax_even(WeightsSym(1, 2, 3, 4)).matrix
        assert m[1, 2] == 3
        assert m[0, 3] == 4
        assert m[0, 0] == 1 and m[1, 1] == 2

    def test_spin_flip_symmetry(self, rng):
        m = lax_even(random_sym(rng)).matrix
        flip = np.kron(SIGMA_X, SIGMA_X)
        assert linalg.max_abs(flip @ m @ flip - m) == 0.0

    def test_structural_zeros_exact(self, rng):
        m = lax_even(random_sym(rng)).matrix
        assert matches_pattern(m, "even", tol=0.0)


class TestLaxOdd:
    def test_local_transformation_identity(self, rng):
        # L_od = (sx (x) sx) L_ev (sx (x) I), weight independent
        for _ in range(5):
            ws = random_sym(rng)
            lhs = lax_odd(ws).matrix
            rhs = (
                np.kron(SIGMA_X, SIGMA_X)
                @ lax_even(ws).matrix
                @ np.kron(SIGMA_X, np.eye(2))
            )
            assert linalg.max_abs(lhs - rhs) == 0.0

    def test_single_weight_placement(self):
        m = lax_odd(WeightsSym(1, 0, 0, 0)).matrix
        assert m[0, 1] == 1 and m[3, 2] == 1
        assert np.count_nonzero(m) == 2

    def test_spin_flip_symmetry(self, rng):
        m = lax_odd(random_sym(rng)).matrix
        flip = np.kron(SIGMA_X, SIGMA_X)
        assert linalg.max_abs(flip @ m @ flip - m) == 0.0

    def test_structural_zeros_exact(self, rng):
        assert matches_pattern(lax_odd(random_sym(rng)).matrix, "odd", tol=0.0)


class TestLaxAsymOdd:
    def test_symmetric_specialization(self, rng):
        ws = random_sym(rng, parity=OD)
        asym = lax_asym_odd(to_eight(ws)).matrix
        assert linalg.max_abs(asym - lax_odd(ws).matrix) == 0.0

    def test_entry_placements(self):
        w8 = WeightsEight((1, 2, 3, 4, 5, 6, 7, 8), OD)
        _, companion = _sublattice_lax(w8)
        assert lax_asym_odd(w8).matrix[2, 0] == 5
        assert companion[2, 0] == 8

    def test_companion_is_plain_at_permuted_weights(self):
        w8 = WeightsEight((1, 2, 3, 4, 5, 6, 7, 8), OD)
        permuted = staggered_companion(staggered_companion(w8))  # identity, parity kept
        assert permuted.w == w8.w
        companion_weights = staggered_companion(w8)
        # reading the permuted vector back as odd weights
        reread = WeightsEight(companion_weights.w, OD)
        plain, companion = _sublattice_lax(w8)
        assert linalg.max_abs(plain - lax_asym_odd(w8).matrix) == 0.0
        assert linalg.max_abs(companion - lax_asym_odd(reread).matrix) == 0.0

    def test_parity_guard(self):
        with pytest.raises(ValueError, match="odd"):
            lax_asym_odd(WeightsEight((1,) * 8, EV))


class TestLaxAsymEven:
    def test_symmetric_specialization(self, rng):
        ws = random_sym(rng)
        assert linalg.max_abs(
            lax_asym_even(to_eight(ws)).matrix - lax_even(ws).matrix
        ) == 0.0

    def test_vertical_flip_relation_to_odd(self):
        # the even dictionary is the odd one with the top leg flipped
        vals = (1, 2, 3, 4, 5, 6, 7, 8)
        even_m = lax_asym_even(WeightsEight(vals, EV)).matrix
        odd_m = lax_asym_odd(WeightsEight(vals, OD)).matrix
        flip_top = np.kron(np.eye(2), SIGMA_X)
        assert linalg.max_abs(even_m - odd_m @ flip_top) == 0.0

    def test_parity_guard(self):
        with pytest.raises(ValueError, match="even"):
            lax_asym_even(WeightsEight((1,) * 8, OD))


W8 = (1, 2, 3, 4, 5, 6, 7, 8)


@pytest.mark.parametrize("build,literal", [
    (lambda: lax_asym_odd(WeightsEight(W8, OD)).matrix,
     [[0, 1, 7, 0], [3, 0, 0, 6], [5, 0, 0, 4], [0, 8, 2, 0]]),
    (lambda: lax_asym_even(WeightsEight(W8, EV)).matrix,
     [[1, 0, 0, 7], [0, 3, 6, 0], [0, 5, 4, 0], [8, 0, 0, 2]]),
    # sublattice Y of the odd staggered row: the companion weights
    (lambda: _sublattice_lax(WeightsEight(W8, OD))[1],
     [[0, 3, 6, 0], [1, 0, 0, 7], [8, 0, 0, 2], [0, 5, 4, 0]]),
], ids=["asym-odd", "asym-even", "odd-sublattice-y"])
def test_vertex_dictionary_against_hand_written_matrices(build, literal):
    # an independent route to the slot table shared by every constructor
    m = build()
    assert m.dtype == complex
    assert np.array_equal(m, np.array(literal, dtype=complex))


class TestRSheaf:
    def test_odd_odd_is_even_pattern_of_swapped_weights(self, rng):
        ws = random_sym(rng)
        assert linalg.max_abs(
            r_sheaf((OD, OD), ws) - lax_even(ev_od_swap(ws)).matrix
        ) == 0.0

    def test_odd_even_is_the_odd_lax_matrix(self, rng):
        ws = random_sym(rng)
        assert linalg.max_abs(r_sheaf((OD, EV), ws) - lax_odd(ws).matrix) == 0.0

    def test_even_odd_entry(self):
        ws = WeightsSym(1, 2, 3, 4)
        m = r_sheaf((EV, OD), ws)
        assert m[0, 1] == 3  # c sits where a would for the plain odd pattern

    def test_label_swap_equals_weight_swap(self, rng):
        ws = random_sym(rng)
        for pair in [(EV, EV), (OD, EV)]:
            flipped = (pair[0].flipped, pair[1].flipped)
            assert linalg.max_abs(
                r_sheaf(flipped, ws) - r_sheaf(pair, ev_od_swap(ws))
            ) == 0.0

    @pytest.mark.parametrize("pair,kind", [
        ((EV, EV), "even"), ((OD, OD), "even"), ((OD, EV), "odd"), ((EV, OD), "odd"),
    ])
    def test_patterns(self, pair, kind, rng):
        assert matches_pattern(r_sheaf(pair, random_sym(rng)), kind, tol=0.0)


class TestSheafFamilyRegularity:
    def test_value_at_zero_is_permutation_like(self):
        m = sheaf_r_elliptic((OD, OD), K, LAM, 0.0, PARAMS)
        norm = normalize_gauge(m)
        perm = np.zeros((4, 4), dtype=complex)
        perm[0, 0] = perm[3, 3] = perm[1, 2] = perm[2, 1] = 1.0
        assert linalg.max_abs(norm - perm) < 1e-13

    def test_family_argument_offset(self):
        # the family at mu is the pattern filled with weights at mu - lam
        mu = 0.25
        direct = r_sheaf((OD, OD), elliptic_weights(mu - LAM))
        assert linalg.max_abs(direct - sheaf_r_elliptic((OD, OD), K, LAM, mu, PARAMS)) == 0.0


class TestYangBaxterResidual:
    def test_on_manifold_intertwiner(self):
        mu_p, mu_pp = 0.55, 0.25
        r12 = sheaf_r_elliptic((OD, OD), K, LAM, mu_p - mu_pp, PARAMS)
        res = yang_baxter_residual(
            r12, lax_odd(elliptic_weights(mu_p)), lax_odd(elliptic_weights(mu_pp))
        )
        assert res < 1e-10

    def test_identity_intertwiner_fails_even_at_equal_points(self, rng):
        # the two Lax embeddings share the quantum leg and do not commute,
        # so R = I is not an intertwiner even for identical points
        ws = random_sym(rng, parity=OD)
        res = yang_baxter_residual(np.eye(4, dtype=complex), lax_odd(ws), lax_odd(ws))
        assert res > 1e-3

    def test_coincident_points_have_the_permutation_intertwiner(self):
        ws = elliptic_weights(0.4)
        r0 = sheaf_r_elliptic((OD, OD), K, LAM, 0.0, PARAMS)
        assert yang_baxter_residual(r0, lax_odd(ws), lax_odd(ws)) < 1e-12

    def test_off_manifold_negative_control(self, rng):
        ws_p = random_sym(rng, parity=OD)
        ws_pp = random_sym(rng, parity=OD)
        r12 = r_sheaf((OD, OD), ws_p)
        assert yang_baxter_residual(r12, lax_odd(ws_p), lax_odd(ws_pp)) > 1e-3


class TestFunctionalRelations:
    def test_permutation_direction_vanishes_identically(self, rng):
        # r proportional to (1, 0, 1, 0) kills every relation at equal
        # weight points: each line becomes an explicit antisymmetry
        ws = random_sym(rng, parity=OD)
        res = functional_residuals((1.0, 0.0, 1.0, 0.0), ws, ws)
        assert linalg.max_abs(res) == 0.0

    def test_same_point_weights_are_not_a_solution(self):
        # filling r with (c, d, a, b) of the same point does not solve
        # the relations; the correct filling uses the spectral difference
        ws = elliptic_weights(0.25)
        bad = (ws.c, ws.d, ws.a, ws.b)
        res = np.abs(functional_residuals(bad, ws, ws))
        assert res.max() > 1e-3

    def test_elliptic_difference_filling_solves_all_six(self):
        mu_p, mu_pp = 0.55, 0.25
        shifted = elliptic_weights(mu_p - mu_pp - LAM)
        r = (shifted.c, shifted.d, shifted.a, shifted.b)
        res = np.abs(
            functional_residuals(r, elliptic_weights(mu_p), elliptic_weights(mu_pp))
        )
        assert res.max() < 1e-10

    def test_zero_vector_gives_zero_residuals(self, rng):
        res = functional_residuals(
            (0.0, 0.0, 0.0, 0.0), random_sym(rng), random_sym(rng)
        )
        assert linalg.max_abs(res) == 0.0

    def test_homogeneity_in_r(self, rng):
        ws1, ws2 = random_sym(rng), random_sym(rng)
        r = tuple(rng.uniform(-1, 1, size=4))
        res1 = functional_residuals(r, ws1, ws2)
        res3 = functional_residuals(tuple(3.0 * x for x in r), ws1, ws2)
        assert linalg.max_abs(res3 - 3.0 * res1) < 1e-13


class TestSolveIntertwiner:
    def test_elliptic_pair_kernel(self):
        mu_p, mu_pp = 0.55, 0.25
        dim, candidates = solve_intertwiner(
            lax_odd(elliptic_weights(mu_p)), lax_odd(elliptic_weights(mu_pp))
        )
        assert dim == 1
        found = candidates[0]
        # sparsity of the discovered kernel
        assert matches_pattern(found, "even", tol=1e-8)
        assert abs(found[0, 0] - found[3, 3]) < 1e-8
        assert abs(found[1, 1] - found[2, 2]) < 1e-8
        assert abs(found[1, 2] - found[2, 1]) < 1e-8
        assert abs(found[0, 3] - found[3, 0]) < 1e-8
        # entrywise match with the family prediction at the difference
        predicted = normalize_gauge(
            sheaf_r_elliptic((OD, OD), K, LAM, mu_p - mu_pp, PARAMS)
        )
        assert linalg.max_abs(found - predicted) < 1e-8

    def test_coincident_points(self):
        lax = lax_odd(elliptic_weights(0.3))
        dim, candidates = solve_intertwiner(lax, lax)
        assert dim >= 1
        predicted = normalize_gauge(sheaf_r_elliptic((OD, OD), K, LAM, 0.0, PARAMS))
        gaps = [linalg.max_abs(c - predicted) for c in candidates]
        assert min(gaps) < 1e-8

    def test_off_manifold_pair_has_no_kernel(self, rng):
        ws_p = random_sym(rng, parity=OD)
        ws_pp = random_sym(rng, parity=OD)
        dim, _ = solve_intertwiner(lax_odd(ws_p), lax_odd(ws_pp))
        assert dim == 0

    def test_kernel_satisfies_functional_relations(self):
        mu_p, mu_pp = 0.5, 0.2
        ws_p, ws_pp = elliptic_weights(mu_p), elliptic_weights(mu_pp)
        dim, candidates = solve_intertwiner(lax_odd(ws_p), lax_odd(ws_pp))
        assert dim == 1
        r = candidates[0]
        res = np.abs(
            functional_residuals(
                (r[0, 0], r[1, 1], r[1, 2], r[0, 3]), ws_p, ws_pp
            )
        )
        assert res.max() < 1e-10


class TestSheafYangBaxter:
    def test_headline_parity_triple(self):
        res = sheaf_yang_baxter_residual((OD, OD, EV), 0.2, 0.3, K, LAM, PARAMS)
        assert res < 1e-10

    def test_all_eight_triples(self):
        # the family claim: every parity labelling satisfies the relation
        for tri in itertools.product((EV, OD), repeat=3):
            res = sheaf_yang_baxter_residual(tri, 0.2, 0.3, K, LAM, PARAMS)
            assert res < 1e-10, f"triple {tri} residual {res}"

    def test_degenerate_first_argument(self):
        res = sheaf_yang_baxter_residual((OD, OD, EV), 0.0, 0.3, K, LAM, PARAMS)
        assert res < 1e-10

    def test_detuned_middle_argument_is_a_negative_control(self):
        res = sheaf_yang_baxter_residual(
            (OD, OD, EV), 0.2, 0.3, K, LAM, PARAMS, detune=0.1
        )
        assert res > 1e-3

    def test_random_spectral_draws(self, rng):
        for _ in range(5):
            mu1, mu2 = rng.uniform(0.05, 0.3, size=2)
            res = sheaf_yang_baxter_residual((OD, OD, EV), mu1, mu2, K, LAM, PARAMS)
            assert res < 1e-10


class TestLaxOperatorValidation:
    def test_pattern_violation_rejected(self):
        bad = np.ones((4, 4), dtype=complex)
        with pytest.raises(ValueError, match="pattern"):
            LaxOperator(bad, (EV, EV))

    def test_position_sets_partition_the_grid(self):
        assert len(EVEN_POSITIONS) == 8
        assert len(ODD_POSITIONS) == 8
        assert not (EVEN_POSITIONS & ODD_POSITIONS)

    def test_pattern_builders_agree_with_position_sets(self):
        ev = even_pattern(1, 2, 3, 4)
        od = odd_pattern(1, 2, 3, 4)
        assert {tuple(ix) for ix in np.argwhere(ev != 0)} == EVEN_POSITIONS
        assert {tuple(ix) for ix in np.argwhere(od != 0)} == ODD_POSITIONS

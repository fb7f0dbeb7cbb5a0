import itertools
import warnings

import numpy as np
import pytest

from vertex_sheaf import linalg
from vertex_sheaf.elliptic import EllipticPoint, baxter_weights
from vertex_sheaf.operators import (
    SIGMA_X,
    SLOTS,
    _three_leg_residual,
    functional_residuals,
    lax_asym,
    lax_even,
    lax_odd,
    matches_pattern,
    normalize_gauge,
    r_sheaf,
    sheaf_r_elliptic,
    sheaf_weight_points,
    sheaf_yang_baxter_residual,
    solve_intertwiner,
    vertex_matrix,
    yang_baxter_residual,
)
from vertex_sheaf.transfer import _cell
from vertex_sheaf.weights import (
    Parity,
    WeightsEight,
    WeightsSym,
    ev_od_swap,
    reparity,
    staggered_companion,
    to_eight,
)

K, LAM = 0.5, 0.7
EV, OD = Parity.EVEN, Parity.ODD


def elliptic_weights(mu: float) -> WeightsSym:
    return baxter_weights(EllipticPoint(K, LAM, mu))


def random_sym(rng) -> WeightsSym:
    return WeightsSym(*rng.uniform(0.2, 1.5, size=4))


def column_by_column_system(lax_p: np.ndarray, lax_pp: np.ndarray) -> np.ndarray:
    """The 64x16 intertwiner system built one basis matrix R = E_rq at a time."""
    l13 = linalg.two_site_operator(lax_p, 3, 0, 2)
    l23 = linalg.two_site_operator(lax_pp, 3, 1, 2)
    a = l13 @ l23
    b = l23 @ l13
    system = np.zeros((64, 16))
    for idx in range(16):
        basis = np.zeros((4, 4))
        basis[idx // 4, idx % 4] = 1.0
        basis12 = linalg.two_site_operator(basis, 3, 0, 1)
        system[:, idx] = (basis12 @ a - b @ basis12).reshape(64)
    return system


class TestLaxEven:
    def test_single_weight_selection(self):
        m = lax_even(WeightsSym(1, 0, 0, 0))
        assert m[0, 0] == 1 and m[3, 3] == 1
        assert linalg.max_abs(m - np.diag([1, 0, 0, 1])) == 0.0

    def test_entry_placement(self):
        m = lax_even(WeightsSym(1, 2, 3, 4))
        assert m[1, 2] == 3
        assert m[0, 3] == 4
        assert m[0, 0] == 1 and m[1, 1] == 2

    def test_spin_flip_symmetry(self, rng):
        m = lax_even(random_sym(rng))
        flip = np.kron(SIGMA_X, SIGMA_X)
        assert linalg.max_abs(flip @ m @ flip - m) == 0.0

    def test_structural_zeros_exact(self, rng):
        m = lax_even(random_sym(rng))
        assert matches_pattern(m, "even", tol=0.0)


class TestLaxOdd:
    def test_local_transformation_identity(self, rng):
        # L_od = (sx (x) sx) L_ev (sx (x) I), weight independent
        for _ in range(5):
            ws = random_sym(rng)
            lhs = lax_odd(ws)
            rhs = (
                np.kron(SIGMA_X, SIGMA_X)
                @ lax_even(ws)
                @ np.kron(SIGMA_X, np.eye(2))
            )
            assert linalg.max_abs(lhs - rhs) == 0.0

    def test_single_weight_placement(self):
        m = lax_odd(WeightsSym(1, 0, 0, 0))
        assert m[0, 1] == 1 and m[3, 2] == 1
        assert np.count_nonzero(m) == 2

    def test_spin_flip_symmetry(self, rng):
        m = lax_odd(random_sym(rng))
        flip = np.kron(SIGMA_X, SIGMA_X)
        assert linalg.max_abs(flip @ m @ flip - m) == 0.0

    def test_structural_zeros_exact(self, rng):
        assert matches_pattern(lax_odd(random_sym(rng)), "odd", tol=0.0)


class TestLaxAsym:
    @pytest.mark.parametrize("parity", [EV, OD])
    def test_symmetric_specialization(self, parity, rng):
        # either family reduces to its symmetric operator at symmetric weights
        ws = random_sym(rng)
        asym = lax_asym(reparity(to_eight(ws), parity))
        sym = lax_even(ws) if parity is EV else lax_odd(ws)
        assert linalg.max_abs(asym - sym) == 0.0

    def test_entry_placements(self):
        w8 = WeightsEight((1, 2, 3, 4, 5, 6, 7, 8), OD)
        _, companion = _cell(w8, staggered=True)
        assert lax_asym(w8)[2, 0] == 5
        assert companion[2, 0] == 8

    def test_companion_is_plain_at_permuted_weights(self):
        w8 = WeightsEight((1, 2, 3, 4, 5, 6, 7, 8), OD)
        permuted = staggered_companion(staggered_companion(w8))  # identity, parity kept
        assert permuted.w == w8.w
        companion_weights = staggered_companion(w8)
        # reading the permuted vector back as odd weights
        reread = WeightsEight(companion_weights.w, OD)
        plain, companion = _cell(w8, staggered=True)
        assert linalg.max_abs(plain - lax_asym(w8)) == 0.0
        assert linalg.max_abs(companion - lax_asym(reread)) == 0.0

    @pytest.mark.parametrize("parity", [EV, OD])
    def test_symmetric_companion_is_the_vertical_flip(self, parity, rng):
        # at symmetric weights the sublattice-Y matrix is X with its
        # vertical leg flipped, (I (x) sx) X (I (x) sx), exactly
        flip = [1, 0, 3, 2]
        for _ in range(20):
            x, y = _cell(reparity(to_eight(random_sym(rng)), parity), staggered=True)
            assert np.array_equal(y, x[flip][:, flip])

    def test_vertical_flip_relation_to_odd(self):
        # the even dictionary is the odd one with the top leg flipped
        vals = (1, 2, 3, 4, 5, 6, 7, 8)
        even_m = lax_asym(WeightsEight(vals, EV))
        odd_m = lax_asym(WeightsEight(vals, OD))
        flip_top = np.kron(np.eye(2), SIGMA_X)
        assert linalg.max_abs(even_m - odd_m @ flip_top) == 0.0


W8 = (1, 2, 3, 4, 5, 6, 7, 8)


@pytest.mark.parametrize("build,literal", [
    (lambda: lax_asym(WeightsEight(W8, OD)),
     [[0, 1, 7, 0], [3, 0, 0, 6], [5, 0, 0, 4], [0, 8, 2, 0]]),
    (lambda: lax_asym(WeightsEight(W8, EV)),
     [[1, 0, 0, 7], [0, 3, 6, 0], [0, 5, 4, 0], [8, 0, 0, 2]]),
    # sublattice Y of the odd staggered row: the companion weights
    (lambda: _cell(WeightsEight(W8, OD), staggered=True)[1],
     [[0, 3, 6, 0], [1, 0, 0, 7], [8, 0, 0, 2], [0, 5, 4, 0]]),
], ids=["asym-odd", "asym-even", "odd-sublattice-y"])
def test_vertex_dictionary_against_hand_written_matrices(build, literal):
    # an independent route to the slot table shared by every constructor
    m = build()
    assert m.dtype == np.float64
    assert np.array_equal(m, np.array(literal, dtype=float))


class TestRSheaf:
    def test_odd_odd_is_even_pattern_of_swapped_weights(self, rng):
        ws = random_sym(rng)
        assert linalg.max_abs(
            r_sheaf((OD, OD), ws) - lax_even(ev_od_swap(ws))
        ) == 0.0

    def test_odd_even_is_the_odd_lax_matrix(self, rng):
        ws = random_sym(rng)
        assert linalg.max_abs(r_sheaf((OD, EV), ws) - lax_odd(ws)) == 0.0

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
        m = sheaf_r_elliptic((OD, OD), K, LAM, 0.0)
        norm = normalize_gauge(m)
        perm = np.zeros((4, 4), dtype=complex)
        perm[0, 0] = perm[3, 3] = perm[1, 2] = perm[2, 1] = 1.0
        assert linalg.max_abs(norm - perm) < 1e-13

    def test_family_argument_offset(self):
        # the family at mu is the pattern filled with weights at mu - lam
        mu = 0.25
        direct = r_sheaf((OD, OD), elliptic_weights(mu - LAM))
        assert linalg.max_abs(direct - sheaf_r_elliptic((OD, OD), K, LAM, mu)) == 0.0


class TestYangBaxterResidual:
    def test_on_manifold_intertwiner(self):
        mu_p, mu_pp = 0.55, 0.25
        r12 = sheaf_r_elliptic((OD, OD), K, LAM, mu_p - mu_pp)
        res = yang_baxter_residual(
            r12, lax_odd(elliptic_weights(mu_p)), lax_odd(elliptic_weights(mu_pp))
        )
        assert res < 1e-10

    def test_identity_intertwiner_fails_even_at_equal_points(self, rng):
        # the two Lax embeddings share the quantum leg and do not commute,
        # so R = I is not an intertwiner even for identical points
        ws = random_sym(rng)
        res = yang_baxter_residual(np.eye(4, dtype=complex), lax_odd(ws), lax_odd(ws))
        assert res > 1e-3

    def test_coincident_points_have_the_permutation_intertwiner(self):
        ws = elliptic_weights(0.4)
        r0 = sheaf_r_elliptic((OD, OD), K, LAM, 0.0)
        assert yang_baxter_residual(r0, lax_odd(ws), lax_odd(ws)) < 1e-12

    def test_off_manifold_negative_control(self, rng):
        ws_p = random_sym(rng)
        ws_pp = random_sym(rng)
        r12 = r_sheaf((OD, OD), ws_p)
        assert yang_baxter_residual(r12, lax_odd(ws_p), lax_odd(ws_pp)) > 1e-3


class TestFunctionalRelations:
    def test_permutation_direction_vanishes_identically(self, rng):
        # r proportional to (1, 0, 1, 0) kills every relation at equal
        # weight points: each line becomes an explicit antisymmetry
        ws = random_sym(rng)
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
            sheaf_r_elliptic((OD, OD), K, LAM, mu_p - mu_pp)
        )
        assert linalg.max_abs(found - predicted) < 1e-8

    @pytest.mark.parametrize("lax", [lax_odd, lax_even])
    def test_real_lax_operators_give_float64_candidates(self, lax):
        dim, candidates = solve_intertwiner(
            lax(elliptic_weights(0.55)), lax(elliptic_weights(0.25))
        )
        assert dim == 1
        assert candidates[0].dtype == np.float64

    def test_normalize_gauge_keeps_float64(self, rng):
        m = normalize_gauge(-rng.uniform(0.1, 1.0, size=(4, 4)))
        assert m.dtype == np.float64
        assert m.max() == 1.0

    def test_coincident_points(self):
        lax = lax_odd(elliptic_weights(0.3))
        dim, candidates = solve_intertwiner(lax, lax)
        assert dim >= 1
        predicted = normalize_gauge(sheaf_r_elliptic((OD, OD), K, LAM, 0.0))
        gaps = [linalg.max_abs(c - predicted) for c in candidates]
        assert min(gaps) < 1e-8

    def test_off_manifold_pair_has_no_kernel(self, rng):
        ws_p = random_sym(rng)
        ws_pp = random_sym(rng)
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


    @pytest.mark.parametrize("lax", [lax_odd, lax_even])
    def test_same_kernel_as_the_column_by_column_system(self, rng, lax):
        elliptic = [(elliptic_weights(mu_p), elliptic_weights(mu_pp))
                    for mu_p, mu_pp in rng.uniform(-0.6, 0.6, size=(4, 2))]
        positive = [(random_sym(rng), random_sym(rng)) for _ in range(4)]
        signed = [tuple(WeightsSym(*rng.uniform(-2.0, 2.0, size=4)) for _ in range(2))
                  for _ in range(4)]
        for n, (ws_p, ws_pp) in enumerate(elliptic + positive + signed):
            lax_p, lax_pp = lax(ws_p), lax(ws_pp)
            kernel = linalg.null_space(column_by_column_system(lax_p, lax_pp), 1e-8)
            dim, candidates = solve_intertwiner(lax_p, lax_pp)
            assert dim == len(kernel)
            if n < len(elliptic):
                assert dim >= 1
            for found, vec in zip(candidates, kernel):
                assert np.array_equal(found, normalize_gauge(vec.reshape(4, 4)))


def family_points(mu1, mu2, detune=0.0):
    return sheaf_weight_points(mu1, mu2, K, LAM, detune=detune)


class TestSheafYangBaxter:
    def test_headline_parity_triple(self):
        res = sheaf_yang_baxter_residual([(OD, OD, EV)], family_points(0.2, 0.3))[0]
        assert res < 1e-10

    def test_all_eight_triples(self):
        # the family claim: every parity labelling satisfies the relation
        for tri in itertools.product((EV, OD), repeat=3):
            res = sheaf_yang_baxter_residual([tri], family_points(0.2, 0.3))[0]
            assert res < 1e-10, f"triple {tri} residual {res}"

    def test_degenerate_first_argument(self):
        res = sheaf_yang_baxter_residual([(OD, OD, EV)], family_points(0.0, 0.3))[0]
        assert res < 1e-10

    def test_detuned_middle_argument_is_a_negative_control(self):
        points = family_points(0.2, 0.3, detune=0.1)
        res = sheaf_yang_baxter_residual([(OD, OD, EV)], points)[0]
        assert res > 1e-3

    def test_random_spectral_draws(self, rng):
        for _ in range(5):
            mu1, mu2 = rng.uniform(0.05, 0.3, size=2)
            res = sheaf_yang_baxter_residual([(OD, OD, EV)], family_points(mu1, mu2))[0]
            assert res < 1e-10

    def test_stack_equals_single_residuals(self):
        # every triple of one stacked call, bit for bit against the
        # scalar residual of that labelling's three members
        rng = np.random.default_rng(1702)
        triples = list(itertools.product((EV, OD), repeat=3))
        for draw in range(20):
            k, lam = rng.uniform(0.3, 0.7), rng.uniform(0.5, 0.9)
            mu1, mu2 = rng.uniform(0.05, 0.3, size=2)
            mu1 = 0.0 if draw % 5 == 0 else mu1
            detune = 0.1 if draw % 2 else 0.0
            points = sheaf_weight_points(mu1, mu2, k, lam, detune=detune)
            stacked = sheaf_yang_baxter_residual(triples, points)
            single = [
                yang_baxter_residual(*(r_sheaf(pair, ws) for pair, ws in zip(
                    ((a1, a2), (a1, a3), (a2, a3)), points)))
                for a1, a2, a3 in triples
            ]
            assert np.array_equal(stacked, single)

    def test_zero_member_is_exactly_zero_without_warning(self, rng):
        x = rng.normal(size=(3, 3, 4, 4))
        x[1, 1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = _three_leg_residual(*x)
        assert res[1] == 0.0
        assert res[0] > 1e-3 and res[2] > 1e-3
        assert yang_baxter_residual(x[0, 0], x[1, 1], x[2, 0]) == 0.0

    def test_points_fill_the_elliptic_family_members(self):
        # the members at mu1, mu1 + mu2 + detune and mu2, bit for bit
        w12, w13, w23 = family_points(0.2, 0.3, detune=0.05)
        for pair in itertools.product((EV, OD), repeat=2):
            for ws, mu in ((w12, 0.2), (w13, 0.2 + 0.3 + 0.05), (w23, 0.3)):
                expected = sheaf_r_elliptic(pair, K, LAM, mu)
                assert np.array_equal(r_sheaf(pair, ws), expected)


class TestVertexPatterns:
    def test_position_sets_partition_the_grid(self):
        even, odd = frozenset(SLOTS["even"]), frozenset(SLOTS["odd"])
        assert len(even) == 8
        assert len(odd) == 8
        assert not (even & odd)

    def test_pattern_builders_agree_with_position_sets(self):
        ev = vertex_matrix("even", range(1, 9))
        od = vertex_matrix("odd", range(1, 9))
        assert {tuple(ix) for ix in np.argwhere(ev != 0)} == frozenset(SLOTS["even"])
        assert {tuple(ix) for ix in np.argwhere(od != 0)} == frozenset(SLOTS["odd"])

    def test_off_pattern_magnitude_at_tol_matches(self):
        m = vertex_matrix("even", range(1, 9))
        m[0, 1] = -1e-8
        assert matches_pattern(m, "even", tol=1e-8)
        m[0, 1] = -np.nextafter(1e-8, 1.0)
        assert not matches_pattern(m, "even", tol=1e-8)

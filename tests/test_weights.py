import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vertex_sheaf.weights import (
    Parity,
    UndefinedInvariantError,
    WeightsEight,
    WeightsSym,
    baxter_invariants,
    ev_od_swap,
    free_fermion_residual,
    krinsky_invariants,
    manifold_report,
    sample_krinsky_pair,
    staggered_companion,
    to_eight,
    weights_to_json,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
nonzero = st.floats(min_value=0.1, max_value=5.0)


class TestToEight:
    def test_expansion(self):
        w8 = to_eight(WeightsSym(1, 2, 3, 4))
        assert w8.w == (1, 1, 2, 2, 3, 3, 4, 4)

    def test_even_family(self):
        assert to_eight(WeightsSym(1, 2, 3, 4)).parity is Parity.EVEN


class TestWeightsEightValidation:
    def test_length(self):
        with pytest.raises(ValueError, match="8"):
            WeightsEight((1, 2, 3), Parity.EVEN)

    def test_finiteness(self):
        with pytest.raises(ValueError, match="finite"):
            WeightsEight((1, 2, 3, 4, 5, 6, 7, float("inf")), Parity.EVEN)

    @pytest.mark.parametrize("bad", [2j, np.complex128(2.0)])
    def test_complex_rejected(self, bad):
        with pytest.raises(ValueError, match="real"):
            WeightsEight((1, bad, 3, 4, 5, 6, 7, 8), Parity.EVEN)


class TestWeightsSymValidation:
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), complex(1.0, float("nan")), 2j, np.complex128(2.0)]
    )
    def test_finiteness(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightsSym(1.0, bad, 3.0, 4.0)


class TestBaxterInvariants:
    def test_fully_symmetric_point(self):
        assert baxter_invariants(WeightsSym(1, 1, 1, 1)) == (0.0, 0.0)

    def test_direct_arithmetic(self):
        gamma, delta = baxter_invariants(WeightsSym(2, 1, 1, 1))
        assert gamma == pytest.approx(1.0 / 3.0)
        assert delta == pytest.approx(0.5)

    def test_vanishing_denominator(self):
        with pytest.raises(UndefinedInvariantError):
            baxter_invariants(WeightsSym(1.0, 1.0, -1.0, 1.0))

    @given(a=nonzero, b=nonzero, c=nonzero, d=nonzero)
    def test_exchange_invariance(self, a, b, c, d):
        # simultaneous a<->b, c<->d leaves both ratios fixed
        base = baxter_invariants(WeightsSym(a, b, c, d))
        swapped = baxter_invariants(WeightsSym(b, a, d, c))
        assert swapped[0] == pytest.approx(base[0], rel=1e-13, abs=1e-13)
        assert swapped[1] == pytest.approx(base[1], rel=1e-13, abs=1e-13)

    @given(a=nonzero, b=nonzero, c=nonzero, d=nonzero,
           t=st.floats(min_value=0.01, max_value=100.0))
    def test_rescaling_invariance(self, a, b, c, d, t):
        base = baxter_invariants(WeightsSym(a, b, c, d))
        scaled = baxter_invariants(WeightsSym(t * a, t * b, t * c, t * d))
        assert scaled[0] == pytest.approx(base[0], rel=1e-12, abs=1e-12)
        assert scaled[1] == pytest.approx(base[1], rel=1e-12, abs=1e-12)


class TestFreeFermionResidual:
    def test_all_ones(self):
        assert free_fermion_residual(WeightsEight((1,) * 8, Parity.EVEN)) == 0.0

    def test_direct_arithmetic(self):
        w8 = WeightsEight((1, 2, 3, 6, 2, 5, 1, 2), Parity.EVEN)
        assert free_fermion_residual(w8) == 8.0

    @given(st.lists(finite, min_size=8, max_size=8))
    def test_companion_preserves_residual(self, vals):
        w8 = WeightsEight(tuple(vals), Parity.ODD)
        assert free_fermion_residual(staggered_companion(w8)) == pytest.approx(
            free_fermion_residual(w8), rel=1e-13, abs=1e-13
        )


class TestKrinskyInvariants:
    def test_all_ones(self):
        assert krinsky_invariants(WeightsEight((1,) * 8, Parity.EVEN)) == (1.0, 2.0, 0.0)

    def test_vanishing_denominator(self):
        with pytest.raises(UndefinedInvariantError):
            krinsky_invariants(WeightsEight((1, 1, 1, 1, 0, 1, 1, 1), Parity.EVEN))

    @given(vals=st.lists(nonzero, min_size=8, max_size=8),
           t=st.floats(min_value=0.1, max_value=10.0))
    def test_degree_zero_under_rescaling(self, vals, t):
        w8 = WeightsEight(tuple(vals), Parity.EVEN)
        scaled = WeightsEight(tuple(t * x for x in vals), Parity.EVEN)
        base = np.array(krinsky_invariants(w8))
        got = np.array(krinsky_invariants(scaled))
        np.testing.assert_allclose(got, base, rtol=1e-12, atol=1e-12)


class TestStaggeredCompanion:
    def test_permutation(self):
        w8 = WeightsEight((1, 2, 3, 4, 5, 6, 7, 8), Parity.ODD)
        assert staggered_companion(w8).w == (3, 4, 1, 2, 8, 7, 6, 5)

    def test_symmetric_input_matches_symmetric_swap(self):
        # (a,a,b,b,c,c,d,d) -> (b,b,a,a,d,d,c,c)
        w8 = to_eight(WeightsSym(1, 2, 3, 4))
        assert staggered_companion(w8).w == (2, 2, 1, 1, 4, 4, 3, 3)

    def test_involution_on_the_vector(self):
        w8 = WeightsEight((1, 2, 3, 4, 5, 6, 7, 8), Parity.ODD)
        twice = staggered_companion(staggered_companion(w8))
        assert twice.w == w8.w
        assert twice.parity is w8.parity

    def test_parity_kept(self):
        w8 = WeightsEight((1,) * 8, Parity.ODD)
        assert staggered_companion(w8).parity is Parity.ODD


class TestEvOdSwap:
    def test_replacement_rule(self):
        assert ev_od_swap(WeightsSym(1, 2, 3, 4)).as_tuple() == (3, 4, 1, 2)

    def test_involution(self):
        ws = WeightsSym(1.5, 0.4, 2.2, 0.9)
        assert ev_od_swap(ev_od_swap(ws)) == ws

    @given(a=nonzero, b=nonzero, c=nonzero, d=nonzero)
    def test_invariants_change_sign(self, a, b, c, d):
        ws = WeightsSym(a, b, c, d)
        gamma, delta = baxter_invariants(ws)
        gamma_s, delta_s = baxter_invariants(ev_od_swap(ws))
        assert gamma_s == pytest.approx(-gamma, rel=1e-13, abs=1e-13)
        assert delta_s == pytest.approx(-delta, rel=1e-13, abs=1e-13)


class TestKrinskySampler:
    @pytest.mark.parametrize("start", [1, 2, 3])
    def test_postconditions(self, start):
        # the three cases sweep seeds 1..500 between them, each checked
        # from the returned weights alone
        for seed in range(start, 501, 3):
            first, second = sample_krinsky_pair(seed)
            assert abs(free_fermion_residual(first)) < 1e-10
            assert abs(free_fermion_residual(second)) < 1e-10
            inv1 = np.array(krinsky_invariants(first))
            inv2 = np.array(krinsky_invariants(second))
            np.testing.assert_allclose(inv1, inv2, atol=1e-9, err_msg=f"seed {seed}")
            assert np.max(np.abs(first.as_array() - second.as_array())) > 1e-3
            assert first.parity is Parity.ODD and second.parity is Parity.ODD

    def test_deterministic_for_fixed_seed(self):
        assert sample_krinsky_pair(11) == sample_krinsky_pair(11)

    def test_different_seeds_differ(self):
        a1, _ = sample_krinsky_pair(1)
        b1, _ = sample_krinsky_pair(2)
        assert a1.w != b1.w


def test_json_round_trip():
    w8 = WeightsEight((1, 2, 3, 4, 5, 6, 7, 8), Parity.ODD)
    obj = weights_to_json(w8)
    assert obj == {"w": [1, 2, 3, 4, 5, 6, 7, 8], "parity": "odd"}
    assert WeightsEight(tuple(obj["w"]), Parity(obj["parity"])) == w8


class TestManifoldReport:
    def test_symmetric_point(self):
        rep = manifold_report(WeightsSym(2, 1, 1, 1))
        assert rep["gamma"] == pytest.approx(1.0 / 3.0)
        assert rep["delta"] == pytest.approx(0.5)
        assert rep["ff_residual"] == pytest.approx(2 * 2 + 1 - 1 - 1)
        assert rep["krinsky"] is not None

    def test_undefined_fields_are_none(self):
        # c = 0 makes w5*w7 vanish
        rep = manifold_report(WeightsSym(1, 1, 0, 1))
        assert rep["krinsky"] is None
        assert rep["gamma"] == pytest.approx(1.0)
        # ab + cd = 0 leaves the quadric invariants undefined
        rep2 = manifold_report(WeightsSym(1, -1, 1, 1))
        assert rep2["gamma"] is None and rep2["delta"] is None
        assert rep2["ff_residual"] == 1 * 1 + (-1) * (-1) - 1 * 1 - 1 * 1
        assert rep2["krinsky"] is not None

    def test_json_shape(self):
        obj = manifold_report(WeightsSym(1, 1, 1, 1))
        assert list(obj) == ["gamma", "delta", "ff_residual", "krinsky"]
        assert isinstance(obj["krinsky"], list)

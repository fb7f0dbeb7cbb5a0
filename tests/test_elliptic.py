import math

import numpy as np
import pytest
from scipy.integrate import quad

from vertex_sheaf import elliptic
from vertex_sheaf.elliptic import (
    EllipticPoint,
    GuardError,
    ThetaParams,
    baxter_weights,
    complete_elliptic_k,
    complete_elliptic_k_comp,
    theta_h,
    theta_t,
)
from vertex_sheaf.weights import baxter_invariants

K_HALF = complete_elliptic_k(0.5)
PARAMS_HALF = ThetaParams.from_modulus(0.5)


def quadrature_K(k: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral."""
    import warnings

    with warnings.catch_warnings():
        # the requested tolerance sits at the roundoff floor by design
        warnings.simplefilter("ignore")
        val, _ = quad(
            lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
            0.0,
            math.pi / 2,
            epsabs=1e-14,
            epsrel=1e-14,
        )
    return val


def landen_sn(u: float, k: float) -> float:
    """Independent oracle: sn by the descending Landen transformation."""
    moduli = [k]
    while moduli[-1] > 1e-16:
        kk = moduli[-1]
        moduli.append(kk * kk / (1.0 + math.sqrt(1.0 - kk * kk)) ** 2)
    scale = 1.0
    for kk in moduli[1:]:
        scale *= 1.0 + kk
    s = math.sin(u / scale)
    for kk in reversed(moduli[1:]):
        s = (1.0 + kk) * s / (1.0 + kk * s * s)
    return s


class TestCompleteEllipticK:
    def test_k_zero_is_half_pi(self):
        assert complete_elliptic_k(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    @pytest.mark.parametrize("bad", [1.0, 1.5, -0.1])
    def test_domain_rejected(self, bad):
        with pytest.raises(ValueError):
            complete_elliptic_k(bad)

    def test_against_quadrature_at_half(self):
        assert abs(complete_elliptic_k(0.5) - quadrature_K(0.5)) < 1e-12

    @pytest.mark.parametrize("k", [0.1, 0.3, 0.7, 0.9, 0.99])
    def test_against_quadrature_grid(self, k):
        assert abs(complete_elliptic_k(k) - quadrature_K(k)) < 1e-12

    def test_complement_small_modulus_asymptote(self):
        # K'(k) -> ln(4/k) as k -> 0, with O(k^2) corrections
        k = 1e-8
        assert complete_elliptic_k_comp(k) == pytest.approx(math.log(4.0 / k), abs=1e-12)

    def test_legendre_relation_between_periods(self):
        # E-free consistency: K(k) * agm identity against the complement
        k = 0.5
        kp = math.sqrt(1 - k * k)
        assert complete_elliptic_k_comp(k) == pytest.approx(
            complete_elliptic_k(kp), rel=1e-15
        )


class TestThetaParams:
    def test_nome_definition(self):
        p = PARAMS_HALF
        assert p.q == pytest.approx(math.exp(-math.pi * p.Kprime / p.K), rel=1e-15)
        assert 0.0 <= p.q < 1.0

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_modulus_domain(self, bad):
        with pytest.raises(ValueError):
            ThetaParams.from_modulus(bad)


class TestThetaFunctions:
    def test_h_vanishes_at_origin(self):
        assert theta_h(0.0, PARAMS_HALF) == 0.0

    @pytest.mark.parametrize("u", [0.37, 0.9, 0.2 + 0.5j, 1.1j, -0.6 + 0.3j])
    def test_parity(self, u):
        p = PARAMS_HALF
        assert abs(theta_h(-u, p) + theta_h(u, p)) < 1e-14 * max(1.0, abs(theta_h(u, p)))
        assert abs(theta_t(-u, p) - theta_t(u, p)) < 1e-14 * abs(theta_t(u, p))

    @pytest.mark.parametrize("u", [0.1, 0.83, 1.4, 2.9])
    def test_quasi_periodicity(self, u):
        p = PARAMS_HALF
        h0, h2 = theta_h(u, p), theta_h(u + 2 * p.K, p)
        t0, t2 = theta_t(u, p), theta_t(u + 2 * p.K, p)
        assert abs(h2 + h0) < 1e-12 * abs(h0)
        assert abs(t2 - t0) < 1e-12 * abs(t0)

    def test_sn_identity_at_quarter_period(self):
        # H(K) / (sqrt(k) Theta(K)) = sn(K) = 1
        p = PARAMS_HALF
        ratio = theta_h(p.K, p) / (math.sqrt(0.5) * theta_t(p.K, p))
        assert abs(ratio - 1.0) < 1e-10

    @pytest.mark.parametrize("frac", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("k", [0.3, 0.5, 0.8])
    def test_sn_ratio_against_landen_oracle(self, frac, k):
        p = ThetaParams.from_modulus(k)
        u = frac * p.K
        ratio = (theta_h(u, p) / (math.sqrt(k) * theta_t(u, p))).real
        assert ratio == pytest.approx(landen_sn(u, k), abs=1e-12)

    def test_cross_check_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        p = PARAMS_HALF
        for u in (0.4, 0.3 + 0.9j, 1.7j):
            z = mp.pi * mp.mpc(u) / (2 * p.K)
            ref_h = complex(mp.jtheta(1, z, p.q))
            ref_t = complex(mp.jtheta(4, z, p.q))
            assert abs(theta_h(u, p) - ref_h) < 1e-13 * max(1.0, abs(ref_h))
            assert abs(theta_t(u, p) - ref_t) < 1e-13 * abs(ref_t)

    def test_convergence_guard(self):
        p = PARAMS_HALF
        with pytest.raises(GuardError):
            theta_h(1j * p.Kprime, p)
        with pytest.raises(GuardError):
            theta_t(0.3 + 1j * 0.96 * p.Kprime, p)


class TestEllipticPoint:
    def test_validate_accepts_defaults(self):
        EllipticPoint(0.5, 0.7, 0.3).validate()

    @pytest.mark.parametrize(
        "point",
        [
            EllipticPoint(0.0, 0.7, 0.3),
            EllipticPoint(1.0, 0.7, 0.3),
            EllipticPoint(0.5, -0.7, 0.3),
            EllipticPoint(0.5, 2.5, 0.3),   # lam beyond the strip at k=0.5
            EllipticPoint(0.5, 0.7, 4.5),   # (lam+mu)/2 beyond the strip
        ],
    )
    def test_validate_rejects(self, point):
        with pytest.raises(GuardError):
            point.validate()


class TestBaxterWeights:
    def test_degenerate_spectral_point(self):
        # mu = lam kills the H factor shared by a and d
        ws = baxter_weights(EllipticPoint(0.5, 0.7, 0.7))
        assert ws.a == 0.0
        assert ws.d == 0.0
        assert ws.b != 0.0 and ws.c != 0.0

    def test_spectral_reflection_swaps_a_b(self):
        w_plus = baxter_weights(EllipticPoint(0.5, 0.7, 0.3))
        w_minus = baxter_weights(EllipticPoint(0.5, 0.7, -0.3))
        assert w_minus.a == pytest.approx(w_plus.b, rel=1e-14)
        assert w_minus.b == pytest.approx(w_plus.a, rel=1e-14)
        assert w_minus.c == pytest.approx(w_plus.c, rel=1e-14)
        assert w_minus.d == pytest.approx(w_plus.d, rel=1e-14)

    def test_invariants_match_across_spectral_points(self):
        g1, d1 = baxter_invariants(baxter_weights(EllipticPoint(0.5, 0.7, 0.3)))
        g2, d2 = baxter_invariants(baxter_weights(EllipticPoint(0.5, 0.7, 0.11)))
        g3, d3 = baxter_invariants(baxter_weights(EllipticPoint(0.5, 0.7, 0.5)))
        assert g1 == pytest.approx(g2, abs=1e-10)
        assert d1 == pytest.approx(d2, abs=1e-10)
        assert g1 == pytest.approx(g3, abs=1e-10)
        assert d1 == pytest.approx(d3, abs=1e-10)

    def test_invariant_sweep_constancy(self):
        gs, ds = [], []
        for mu in np.linspace(0.05, 0.65, 20):
            ws = baxter_weights(EllipticPoint(0.5, 0.7, float(mu)))
            g, d = baxter_invariants(ws)
            gs.append(g)
            ds.append(d)
        assert np.std(gs) / abs(np.mean(gs)) < 1e-10
        assert np.std(ds) / abs(np.mean(ds)) < 1e-10

    def test_small_modulus_degeneration(self):
        # d carries two extra H factors, each O(q^(1/4))
        ws = baxter_weights(EllipticPoint(1e-8, 0.7, 0.3))
        assert abs(ws.d) / abs(ws.a) < 1e-3

    def test_guard_propagates(self):
        with pytest.raises(GuardError):
            baxter_weights(EllipticPoint(0.5, 0.7, 4.2))

    def test_params_are_cached_per_modulus(self):
        assert ThetaParams.from_modulus(0.5) is ThetaParams.from_modulus(0.5)
        assert ThetaParams.from_modulus(0.3) is not ThetaParams.from_modulus(0.5)
        # each point reads its own modulus, whatever was evaluated before it
        baxter_weights(EllipticPoint(0.3, 0.7, 0.2))
        assert baxter_weights(EllipticPoint(0.5, 0.7, 0.2)).a == 0.15184501432783612

    def test_curve_factors_are_bit_identical(self):
        # the uncached formula, every factor evaluated at each point
        k, lam = 0.45, 0.62
        params = ThetaParams.from_modulus(k)
        for mu in (-0.3, 0.0, 0.17, 0.4):
            um, up, ul = 0.5j * (lam - mu), 0.5j * (lam + mu), 1j * lam
            th_l, h_l = theta_t(ul, params), theta_h(ul, params)
            expected = (
                (-1j * th_l * theta_h(um, params) * theta_t(up, params)).real,
                (-1j * th_l * theta_t(um, params) * theta_h(up, params)).real,
                (-1j * h_l * theta_t(um, params) * theta_t(up, params)).real,
                (1j * h_l * theta_h(um, params) * theta_h(up, params)).real,
            )
            assert baxter_weights(EllipticPoint(k, lam, mu)).as_tuple() == expected

    def test_ybe_evaluates_the_curve_factors_once(self, monkeypatch):
        from vertex_sheaf.operators import sheaf_weight_points

        calls = []
        for name in ("theta_h", "theta_t"):
            def spy(*args, _fn=getattr(elliptic, name)):
                calls.append(args)
                return _fn(*args)

            monkeypatch.setattr(elliptic, name, spy)
        elliptic._curve_thetas.cache_clear()
        # three spectral points at one (k, lam): 2 shared + 3 x 4 products
        sheaf_weight_points(0.21, 0.33, 0.55, 0.71)
        assert len(calls) == 14
        sheaf_weight_points(0.12, 0.25, 0.55, 0.71)
        assert len(calls) == 26


def test_series_cap_is_an_error():
    # a synthetic params object with q ~ 1 forces the cap
    p = ThetaParams(K=1.0, Kprime=1e-5, q=math.exp(-math.pi * 1e-5))
    with pytest.raises(GuardError, match="converge"):
        theta_t(0.5, p)


def test_h_series_matches_leading_term_at_tiny_nome():
    # at q -> 0 the product collapses to its prefactor
    p = ThetaParams.from_modulus(1e-8)
    u = 0.4
    lead = 2 * p.q**0.25 * math.sin(math.pi * u / (2 * p.K))
    assert complex(theta_h(u, p)).real == pytest.approx(lead, rel=1e-12)

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the summary
lines.  Tolerances and runtime budgets are pinned here and nowhere else.
"""

import itertools
import math
import time

import numpy as np
import pytest

from vertex_sheaf import linalg
from vertex_sheaf.elliptic import (
    EllipticPoint,
    ThetaParams,
    baxter_weights,
    theta_h,
    theta_t,
)
from vertex_sheaf.operators import (
    functional_residuals,
    lax_asym,
    lax_even,
    lax_odd,
    matches_pattern,
    normalize_gauge,
    sheaf_r_elliptic,
    sheaf_weight_points,
    sheaf_yang_baxter_residual,
    solve_intertwiner,
)
from vertex_sheaf.transfer import (
    LatticeSpec,
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
    baxter_invariants,
    free_fermion_residual,
    krinsky_invariants,
    reparity,
    sample_krinsky_pair,
    to_eight,
)

K, LAM = 0.5, 0.7
PARAMS = ThetaParams.from_modulus(K)
EV, OD = Parity.EVEN, Parity.ODD


def _dense_rel_commutator(a: np.ndarray, b: np.ndarray) -> float:
    """max|AB - BA| / (max|A| max|B|) from plain dense products."""
    return float(np.abs(a @ b - b @ a).max() / (np.abs(a).max() * np.abs(b).max()))


#: two routes to the relative commutator: the sigma^z-sector blocks of
#: ``linalg.rel_commutator_norm`` and the plain dense products; a check
#: holds only if it holds by both
COMMUTATOR_ROUTES = (linalg.rel_commutator_norm, _dense_rel_commutator)


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {verdict} ({detail}, t={elapsed:.2f}s)")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_spin_flip_string_identity():
    # 100 random symmetric draws, chains 1..8, relative deviation < 1e-12
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    budget, tol = 10.0, 1e-12
    strings = {n: sigma_x_string(n) for n in range(1, 9)}
    worst = 0.0
    for _ in range(100):
        ws = WeightsSym(*rng.uniform(0.2, 1.5, size=4))
        fam_ev = transfer_family(lax_even(ws), 8)
        fam_od = transfer_family(lax_odd(ws), 8)
        for t_ev, t_od in zip(fam_ev, fam_od):
            dev = linalg.max_abs(t_od.matrix - strings[t_ev.sites] @ t_ev.matrix)
            worst = max(worst, dev / max(1.0, linalg.max_abs(t_ev.matrix)))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "spin-flip string identity",
        worst < tol and elapsed < budget,
        f"worst rel dev {worst:.2e} over 100 draws x N=1..8",
        elapsed,
    )


def test_criterion_2_manifold_commutation():
    # five spectral points at (k, lam) = (0.5, 0.7), chain of 6 sites
    t0 = time.perf_counter()
    budget, tol, control_floor = 30.0, 1e-10, 1e-3
    mus = (0.1, 0.2, 0.3, 0.4, 0.5)
    sites = 6
    mats = []
    for mu in mus:
        ws = baxter_weights(EllipticPoint(K, LAM, mu))
        mats.append(transfer_matrix(lax_even(ws), sites).matrix)
        mats.append(transfer_matrix(lax_odd(ws), sites).matrix)
    worst = max(
        route(a, b)
        for route in COMMUTATOR_ROUTES
        for a, b in itertools.combinations(mats, 2)
    )
    ws_control = baxter_weights(EllipticPoint(K, 0.45, 0.3))
    control_mat = transfer_matrix(lax_even(ws_control), sites).matrix
    control = min(route(mats[0], control_mat) for route in COMMUTATOR_ROUTES)
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "manifold commutation",
        worst < tol and control > control_floor and elapsed < budget,
        f"worst pairwise {worst:.2e} (even/odd/mixed), control {control:.2e}, "
        "sector and dense routes",
        elapsed,
    )


def test_criterion_3_sheaf_yang_baxter():
    # headline parity triple at 10 random spectral draws + full sweep recorded
    t0 = time.perf_counter()
    budget, tol = 5.0, 1e-10
    rng = np.random.default_rng(103)
    worst_headline = 0.0
    for _ in range(10):
        mu1, mu2 = rng.uniform(0.05, 0.3, size=2)
        points = sheaf_weight_points(mu1, mu2, K, LAM)
        res = sheaf_yang_baxter_residual([(OD, OD, EV)], points)[0]
        worst_headline = max(worst_headline, res)
    sweep = {
        "".join(p.value[0] for p in tri): sheaf_yang_baxter_residual(
            [tri], sheaf_weight_points(0.2, 0.3, K, LAM)
        )[0]
        for tri in itertools.product((EV, OD), repeat=3)
    }
    elapsed = time.perf_counter() - t0
    sweep_txt = ", ".join(f"{k}={v:.1e}" for k, v in sweep.items())
    _report(
        3,
        "sheaf Yang-Baxter",
        worst_headline < tol and elapsed < budget,
        f"headline worst {worst_headline:.2e}; sweep {sweep_txt}",
        elapsed,
    )


def test_criterion_4_intertwiner_discovery():
    # 10 on-manifold pairs: kernel dim 1, right pattern, matches the family
    # at the spectral difference; 10 off-manifold pairs: empty kernel
    t0 = time.perf_counter()
    budget, match_tol, res_tol = 10.0, 1e-8, 1e-10
    rng = np.random.default_rng(104)
    ok = True
    worst_gap, worst_res = 0.0, 0.0
    for _ in range(10):
        mu_p, mu_pp = rng.uniform(0.05, 0.65, size=2)
        ws_p = baxter_weights(EllipticPoint(K, LAM, mu_p))
        ws_pp = baxter_weights(EllipticPoint(K, LAM, mu_pp))
        dim, candidates = solve_intertwiner(lax_odd(ws_p), lax_odd(ws_pp))
        if dim != 1:
            ok = False
            continue
        found = candidates[0]
        ok = ok and matches_pattern(found, "even", tol=match_tol)
        predicted = normalize_gauge(
            sheaf_r_elliptic((OD, OD), K, LAM, mu_p - mu_pp)
        )
        worst_gap = max(worst_gap, linalg.max_abs(found - predicted))
        res = np.abs(
            functional_residuals(
                (found[0, 0], found[1, 1], found[1, 2], found[0, 3]), ws_p, ws_pp
            )
        ).max()
        worst_res = max(worst_res, res)
    zero_dims = []
    for _ in range(10):
        ws_p = WeightsSym(*rng.uniform(0.2, 1.5, size=4))
        ws_pp = WeightsSym(*rng.uniform(0.2, 1.5, size=4))
        dim, _ = solve_intertwiner(lax_odd(ws_p), lax_odd(ws_pp))
        zero_dims.append(dim)
    ok = ok and worst_gap < match_tol and worst_res < res_tol
    ok = ok and all(d == 0 for d in zero_dims)
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "intertwiner discovery",
        ok and elapsed < budget,
        f"10 on-manifold: dim 1, gap {worst_gap:.2e}, six-relation "
        f"max {worst_res:.2e}; off-manifold dims {set(zero_dims)}",
        elapsed,
    )


def test_criterion_5_staggered_equivalences():
    # enumeration on 2x2 (asymmetric + symmetric forms) and 4x4, trace on 4x4
    t0 = time.perf_counter()
    budget, enum_tol, trace_tol = 60.0, 1e-12, 1e-10
    rng = np.random.default_rng(105)
    lattice2 = LatticeSpec(2, 2)
    lattice4 = LatticeSpec(4, 4)
    worst_enum = 0.0
    for parity in (OD, EV):
        for _ in range(20):
            w8 = WeightsEight(tuple(rng.uniform(0.2, 1.4, size=8)), parity)
            worst_enum = max(worst_enum, wu_kunz_check(w8, lattice2)["rel_diff"])
        for _ in range(20):
            w8 = reparity(to_eight(WeightsSym(*rng.uniform(0.2, 1.5, size=4))), parity)
            worst_enum = max(worst_enum, wu_kunz_check(w8, lattice2)["rel_diff"])
    worst_trace = 0.0
    for parity in (OD, EV):
        for _ in range(5):
            w8 = WeightsEight(tuple(rng.uniform(0.2, 1.4, size=8)), parity)
            worst_trace = max(
                worst_trace, wu_kunz_check(w8, lattice4, backend="trace")["rel_diff"]
            )
    worst_enum4 = 0.0
    for parity in (OD, EV):
        for _ in range(20):
            w8 = WeightsEight(tuple(rng.uniform(0.2, 1.4, size=8)), parity)
            worst_enum4 = max(worst_enum4, wu_kunz_check(w8, lattice4)["rel_diff"])
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "staggered equivalences",
        max(worst_enum, worst_enum4) < enum_tol and worst_trace < trace_tol
        and elapsed < budget,
        f"enumeration 2x2 worst {worst_enum:.2e} (80 draws), "
        f"4x4 worst {worst_enum4:.2e} (40 draws), trace 4x4 worst {worst_trace:.2e}",
        elapsed,
    )


def test_criterion_6_odd_torus_vanishing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    ok = True
    details = []
    for rows in (1, 3):
        w8 = WeightsEight(tuple(rng.uniform(0.2, 1.4, size=8)), OD)
        z = partition_enumerate(w8, LatticeSpec(rows, rows))
        ok = ok and z == 0.0
        details.append(f"enum {rows}x{rows} exact {z == 0.0}")
    for rows in (3, 5):
        w8 = WeightsEight(tuple(rng.uniform(0.2, 1.4, size=8)), OD)
        z = partition_trace(w8, LatticeSpec(rows, rows))
        t = transfer_matrix(lax_asym(w8), rows).matrix
        scale = linalg.max_abs(t) ** rows * 2**rows
        ok = ok and abs(z) < 1e-12 * scale
        details.append(f"trace {rows}x{rows} |Z|/scale {abs(z) / scale:.1e}")
    elapsed = time.perf_counter() - t0
    _report(6, "odd-by-odd torus vanishing", ok, "; ".join(details), elapsed)


def test_criterion_7_staggered_odd_integrability():
    # five seeded manifold pairs: products commute at chains 2 and 4,
    # reported at 6; individual factors do not commute
    t0 = time.perf_counter()
    budget, tol, floor, sample_tol = 30.0, 1e-9, 1e-3, 1e-9
    seeds = (1, 2, 3, 4, 5)
    ok = True
    worst_prod, worst_cross, worst_sample, report6 = 0.0, np.inf, 0.0, 0.0
    for seed in seeds:
        first, second = sample_krinsky_pair(seed)
        for w8 in (first, second):
            worst_sample = max(worst_sample, abs(free_fermion_residual(w8)))
        gap = np.max(
            np.abs(
                np.array(krinsky_invariants(first))
                - np.array(krinsky_invariants(second))
            )
        )
        worst_sample = max(worst_sample, float(gap))
        for pairs in (1, 2, 3):
            t1a, t2a = staggered_transfer_pair(first, pairs)
            t1b, t2b = staggered_transfer_pair(second, pairs)
            prod_a, prod_b = t1a.matrix @ t2a.matrix, t1b.matrix @ t2b.matrix
            prod_comm = max(route(prod_a, prod_b) for route in COMMUTATOR_ROUTES)
            if pairs == 3:
                report6 = max(report6, prod_comm)
            else:
                worst_prod = max(worst_prod, prod_comm)
            if pairs == 2:
                worst_cross = min(
                    worst_cross,
                    *(route(t1a.matrix, t2b.matrix) for route in COMMUTATOR_ROUTES),
                )
    ok = worst_prod < tol and worst_cross > floor and worst_sample < sample_tol
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "staggered odd integrability",
        ok and elapsed < budget,
        f"product commutators {worst_prod:.2e} (chains 2,4; chain 6 reported "
        f"{report6:.2e}), individual floor {worst_cross:.2e}, "
        f"sampler residuals {worst_sample:.2e}; sector and dense routes",
        elapsed,
    )


def test_criterion_8_elliptic_layer():
    t0 = time.perf_counter()
    ok = True
    details = []

    # theta parity and quasi-periodicity, relative 1e-12
    worst = 0.0
    for u in (0.23, 0.81, 1.7, 0.4 + 0.6j):
        h, t = theta_h(u, PARAMS), theta_t(u, PARAMS)
        worst = max(worst, abs(theta_h(-u, PARAMS) + h) / abs(h))
        worst = max(worst, abs(theta_t(-u, PARAMS) - t) / abs(t))
        worst = max(worst, abs(theta_h(u + 2 * PARAMS.K, PARAMS) + h) / abs(h))
        worst = max(worst, abs(theta_t(u + 2 * PARAMS.K, PARAMS) - t) / abs(t))
    ok = ok and worst < 1e-12
    details.append(f"theta identities {worst:.1e}")

    # sn(K) = 1 through the theta ratio
    sn_err = abs(theta_h(PARAMS.K, PARAMS) / (math.sqrt(K) * theta_t(PARAMS.K, PARAMS)) - 1.0)
    ok = ok and sn_err < 1e-10
    details.append(f"sn(K)=1 err {sn_err:.1e}")

    # invariant constancy across a 20-point spectral sweep
    gs, ds = [], []
    for mu in np.linspace(0.05, 0.65, 20):
        g, d = baxter_invariants(
            baxter_weights(EllipticPoint(K, LAM, float(mu)))
        )
        gs.append(g)
        ds.append(d)
    sd = max(np.std(gs) / abs(np.mean(gs)), np.std(ds) / abs(np.mean(ds)))
    ok = ok and sd < 1e-10
    details.append(f"invariant sweep rel sd {sd:.1e}")

    # small-modulus degeneration
    ws = baxter_weights(EllipticPoint(1e-8, 0.7, 0.3))
    ratio = abs(ws.d) / abs(ws.a)
    ok = ok and ratio < 1e-3
    details.append(f"|d/a| at k=1e-8: {ratio:.1e}")

    elapsed = time.perf_counter() - t0
    _report(8, "elliptic layer", ok, "; ".join(details), elapsed)

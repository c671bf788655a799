"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import math
import time

import numpy as np

from cqclab.capacity3 import (
    GAP_TOL,
    LN2,
    concavity_margin,
    i_tilde_curve,
    validate_i_concavity,
)
from cqclab.coding import build_codebook_2user, ensemble_error_rate, run_transmission
from cqclab.dist import entropy, h_tilde, h_tilde_grid, solve_tilt
from cqclab.fcfs import empirical_channel_law, stability_probe
from cqclab.dist import binomial_pmf

GAMMA_GRID = np.arange(0.01, 1.0, 0.01)
K_RANGE = range(1, 9)


def _criterion(num: int, desc: str, ok: bool, detail: str = ""):
    tail = f" [{detail}]" if detail else ""
    print(f"[ACCEPTANCE {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc}{tail}"


def test_criterion_1_two_user_capacity(cap2_timed):
    res, seconds = cap2_timed
    ok = (
        abs(res.capacity_bits_per_slot - 0.8114) <= 5e-4
        and abs(res.alpha - 0.177) <= 0.01
        and abs(res.gamma1 - 0.43) <= 0.01
        and abs(res.gamma2 - 0.407) <= 0.01
        and seconds < 5.0
    )
    _criterion(
        1,
        "two-user capacity 0.8114 +- 5e-4 with maximizer near (0.177, 0.43, 0.407)",
        ok,
        f"C={res.capacity_bits_per_slot:.6f} ({res.alpha:.3f}, {res.gamma1:.3f}, "
        f"{res.gamma2:.3f}) in {seconds:.2f}s",
    )


def test_criterion_2_dual_formula_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for k in K_RANGE:
        for g in GAMMA_GRID:
            via_rate = h_tilde(float(g), k).bits_per_slot
            via_tilt = entropy(solve_tilt(k, k * float(g)).pmf) / k
            worst = max(worst, abs(via_rate - via_tilt))
    seconds = time.perf_counter() - t0
    ok = worst < 1e-9 and seconds < 1.0
    _criterion(
        2,
        "rate-function and tilted-entropy evaluations agree to 1e-9 on the grid",
        ok,
        f"worst dev {worst:.2e} in {seconds:.2f}s",
    )


def test_criterion_3_symmetry_and_concavity_sweeps():
    rng = np.random.default_rng(20240)
    n = 10_000

    ks = rng.integers(1, 9, size=n)
    gs = rng.uniform(0.0, 1.0, size=n)
    sym_dev = 0.0
    for k in K_RANGE:
        sel = ks == k
        a = h_tilde_grid(gs[sel], k)
        b = h_tilde_grid(1.0 - gs[sel], k)
        if sel.any():
            sym_dev = max(sym_dev, float(np.abs(a - b).max()))

    k1 = rng.integers(1, 9, size=n)
    k3 = rng.integers(1, 9, size=n)
    klo, khi = np.minimum(k1, k3), np.maximum(k1, k3)
    k2 = rng.integers(klo, khi + 1)
    alpha = np.where(
        k1 == k3,
        rng.uniform(size=n),
        (1.0 / k2 - 1.0 / k3) / (1.0 / k1 - 1.0 / k3 + (k1 == k3)),
    )
    g1 = rng.uniform(size=n)
    g3 = rng.uniform(size=n)
    g2 = alpha * g1 + (1 - alpha) * g3
    h1 = np.empty(n)
    h2 = np.empty(n)
    h3 = np.empty(n)
    for k in K_RANGE:
        for arr, kk, gg in ((h1, k1, g1), (h2, k2, g2), (h3, k3, g3)):
            sel = kk == k
            if sel.any():
                arr[sel] = h_tilde_grid(gg[sel], k)
    conc_margin = float((h2 - (alpha * h1 + (1 - alpha) * h3)).min())

    ok = sym_dev <= 1e-9 and conc_margin >= -1e-9
    _criterion(
        3,
        "mirror symmetry and pair concavity hold on 10,000 random instances each",
        ok,
        f"symmetry dev {sym_dev:.2e}, concavity margin {conc_margin:.2e}",
    )


def test_criterion_4_noiseless_reduction(cap3_rp0, cap2):
    worst = 0.0
    for k in K_RANGE:
        ref = h_tilde_grid(GAMMA_GRID, k)
        noisy = i_tilde_curve(GAMMA_GRID, k, 0.0)
        worst = max(worst, float(np.abs(ref - noisy).max()))
    cap_dev = abs(cap3_rp0.capacity_bits_per_slot - cap2.capacity_bits_per_slot)
    ok = worst < 1e-6 and cap_dev < 1e-3
    _criterion(
        4,
        "zero-noise ceiling matches the noiseless one; capacities agree",
        ok,
        f"grid dev {worst:.2e}, capacity dev {cap_dev:.2e}",
    )


def test_criterion_5_short_windows_optimal_at_low_noise(cap3_rp005, cap3_rp01):
    ok = cap3_rp005.tau_star == 1 and cap3_rp01.tau_star == 1
    _criterion(
        5,
        "optimal probe spacing is 1 at background rates 0.05 and 0.1",
        ok,
        f"tau*(0.05)={cap3_rp005.tau_star}, tau*(0.1)={cap3_rp01.tau_star}",
    )


def test_criterion_6_mixed_window_concavity_sweep():
    # The mixed-window inequality is a theorem only at r_p = 0; there the
    # sweep must come back clean. For r_p > 0 it has genuine counterexamples
    # (exact enumeration: k=2, gamma1=0.1, gamma3=0, r_p=0.05 gives -0.0140),
    # so the noisy sweep must report them, each certified: the true margin
    # exceeds the computed one by at most 2 * gap / ln 2 bits, well inside
    # the tolerance, and the worst point reproduces from a cold solve.
    noisy = validate_i_concavity(tau_max=8, samples=500, seed=0, r_p_step=0.05)
    clean = validate_i_concavity(tau_max=8, samples=500, seed=0, r_p_step=2.0)
    cold = concavity_margin(*noisy.worst_location)
    ok = (
        clean.worst_margin >= -1e-6
        and clean.violations == 0
        and noisy.violations > 0
        and not noisy.passed
        and noisy.max_gap_nats <= GAP_TOL
        and 2.0 * noisy.max_gap_nats / LN2 < noisy.tolerance
        and abs(cold - noisy.worst_margin) <= 1e-9
    )
    k, g1, g3, rp = noisy.worst_location
    _criterion(
        6,
        "mixed-window concavity holds at r_p = 0; violations at r_p > 0 are "
        "reported and certified",
        ok,
        f"r_p=0: worst margin {clean.worst_margin:.6f}, {clean.violations}/"
        f"{clean.samples} violations; r_p>0: worst margin "
        f"{noisy.worst_margin:.6f} at k={k}, gamma1={g1:.4f}, gamma3={g3:.4f}, "
        f"r_p={rp:.2f}, {noisy.violations}/{noisy.samples} violations, "
        f"max gap {noisy.max_gap_nats:.1e} nats, cold re-solve dev "
        f"{abs(cold - noisy.worst_margin):.1e}",
    )


def test_criterion_7_noiseless_transmission_error_free():
    t0 = time.perf_counter()
    total_errors = 0
    for n in (30, 60):
        for M in (16, 256):
            cb = build_codebook_2user(n, M, seed=n + M)
            rep = run_transmission(cb, trials=1000, seed=n * 1000 + M)
            total_errors += rep.errors
    seconds = time.perf_counter() - t0
    ok = total_errors == 0 and seconds < 10.0
    _criterion(
        7,
        "4,000 coded messages decode error-free through the primed queue",
        ok,
        f"{total_errors} errors in {seconds:.2f}s",
    )


def test_criterion_8_empirical_channel_law():
    law = empirical_channel_law(2, 0.3, 10**5, seed=8)
    tv = 0.5 * float(np.abs(law.probs - binomial_pmf(2, 0.3).probs).sum())  # total variation
    ok = tv < 0.01
    _criterion(
        8,
        "empirical probe-noise law within TV 0.01 of Bin(2, 0.3) at 1e5 intervals",
        ok,
        f"TV {tv:.4f}",
    )


def test_criterion_9_stability_probe():
    t0 = time.perf_counter()
    sub = stability_probe((0.475, 0.475), 10**6, seed=9)
    sup = stability_probe((0.525, 0.525), 10**6, seed=9)
    seconds = time.perf_counter() - t0
    ok = (
        sub.mean_queue_second_half < 1e3
        and sub.max_queue < 10**5
        and sub.slots_above_threshold > 0
        and sub.drift_above_threshold < 0
        and sup.final_queue >= 0.8 * (0.05 * 10**6)
        and seconds < 30.0
    )
    _criterion(
        9,
        "subcritical drift negative above threshold; supercritical queue grows",
        ok,
        f"mean(q) {sub.mean_queue_second_half:.1f}, drift "
        f"{sub.drift_above_threshold:.3f}, final(1.05) {sup.final_queue} "
        f"in {seconds:.1f}s",
    )


def test_criterion_10_error_rate_trend(cap3_rp01):
    rate = 0.8 * cap3_rp01.capacity_bits_per_slot
    rates = []
    for n in (60, 120, 240):
        M = 2 ** math.floor(rate * n)
        rep = ensemble_error_rate(n, M, 0.1, trials=2000, seed=10, capacity=cap3_rp01)
        rates.append(rep.empirical_error_rate)
    ok = all(b <= a for a, b in zip(rates, rates[1:]))
    _criterion(
        10,
        "ensemble error rate nonincreasing in n at 80% of capacity",
        ok,
        "err(60/120/240) = " + "/".join(f"{r:.5f}" for r in rates),
    )

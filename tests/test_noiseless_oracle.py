"""Solver-free exact values of the noiseless (r_p = 0) capacity.

At r_p = 0, window k's pricing function is g_k(s) = (log2 Z_k(t) - s) / k,
with t = 2^-s and Z_k(t) = sum_{x <= k} t^x; its maximizing law is
(1, t, ..., t^k) / Z_k. Windows 1 and 2 touch one supporting line where
g_1 = g_2, that is t (1 + t)^2 = 1 + t + t^2, so t^3 + t^2 = 1 and
t = 1 / rho, with rho the real root of rho^3 = rho + 1 (the plastic number).
Then C = s + g_1(s) = log2(1 + t) = 2 log2 rho = 0.81137046275164909...

The operating point follows: gamma1 = t / (1 + t) = rho^-3, window 2's law
is (1, t, t^2) / Z_2, and the budget alpha (gamma1 + 1)
+ (1 - alpha)(gamma2 + 1/2) = 1 fixes alpha. Window 2 alone at r_p = 0 is
the uniform law on {0, 1, 2}: log2(3) / 2 bits per slot.

Every adjacent pair (tau, tau + 1) at budget 1 has the exact value
min over s of s + max(g_tau(s), g_tau+1(s)), the Lagrangian dual of its
program: a one-dimensional convex minimisation (each log2 Z_k(2^-s) is a
log-sum-exp in s). For tau >= 2 window tau alone wins, at gamma = 1 - 1/tau.

This module finds rho by Newton's method and each pair's value by
golden-section search, both in `decimal`, and shares no code with the
solvers. The two-user coding scheme, built from the certified witness, is
checked against the same closed forms. At r_p = 0 a slice maximizer is a
tilted law, so one more check holds the slice solve to the tilt solver,
window by window, at rounding level.
"""

import decimal
from decimal import Decimal

import numpy as np
import pytest

from cqclab import capacity3, coding
from cqclab.capacity2 import solve_capacity_2user
from cqclab.capacity3 import solve_capacity_3user
from cqclab.dist import h_tilde_grid

DIGITS = 50
TOL = 1e-15  # the largest deviation measured over every checked value is 8.8e-16


def _exact():
    """rho, C = 2 log2 rho and the operating point, to DIGITS digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS + 10
        rho = Decimal("1.3")
        while True:
            step = (rho**3 - rho - 1) / (3 * rho**2 - 1)
            rho -= step
            if abs(step) < Decimal(10) ** -(DIGITS + 5):
                break
        t = 1 / rho
        z2 = 1 + t + t * t
        gamma1 = t / (1 + t)
        gamma2 = (t + 2 * t * t) / (2 * z2)
        half = Decimal(1) / 2
        alpha = (half - gamma2) / (gamma1 + half - gamma2)
        return {
            "rho": rho,
            "capacity": 2 * rho.ln() / Decimal(2).ln(),
            "gamma1": gamma1,
            "gamma2": gamma2,
            "alpha": alpha,
            "law1": (1 - gamma1, gamma1),
            "law2": (1 / z2, t / z2, t * t / z2),
            "window2": Decimal(3).ln() / Decimal(2).ln() / 2,
        }


EXACT = _exact()


def _pair_value(tau):
    """min over s of s + max(g_tau(s), g_tau+1(s)), g_k(s) = (log2 Z_k(2^-s) - s) / k:
    the exact value of the pair (tau, tau + 1) at r_p = 0, by golden-section
    search on [-20, 20] down to a bracket of 10^-(DIGITS - 10)."""
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS + 10
        ln2 = Decimal(2).ln()

        def g(k, s):
            t = (-s * ln2).exp()
            return (sum(t**x for x in range(k + 1)).ln() / ln2 - s) / k

        def phi(s):
            return s + max(g(tau, s), g(tau + 1, s))

        lo, hi = Decimal(-20), Decimal(20)
        r = (Decimal(5).sqrt() - 1) / 2
        a, b = hi - r * (hi - lo), lo + r * (hi - lo)
        fa, fb = phi(a), phi(b)
        while hi - lo > Decimal(10) ** -(DIGITS - 10):
            if fa <= fb:
                hi, b, fb = b, a, fa
                a = hi - r * (hi - lo)
                fa = phi(a)
            else:
                lo, a, fa = a, b, fb
                b = lo + r * (hi - lo)
                fb = phi(b)
        return min(fa, fb)


PAIRS = {tau: _pair_value(tau) for tau in range(1, 8)}


def test_rho_is_the_plastic_number():
    rho = EXACT["rho"]
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS + 10
        assert abs(rho**3 - rho - 1) < Decimal(10) ** -DIGITS
        assert abs(EXACT["gamma1"] - 1 / rho**3) < Decimal(10) ** -DIGITS
    assert str(EXACT["capacity"]).startswith("0.8113704627516490916")
    # the pair search meets both closed forms
    assert abs(PAIRS[1] - EXACT["capacity"]) < Decimal(10) ** -(DIGITS - 15)
    assert abs(PAIRS[2] - EXACT["window2"]) < Decimal(10) ** -(DIGITS - 15)


@pytest.fixture(scope="module", params=["capacity2", "capacity3"])
def result(request):
    return solve_capacity_2user() if request.param == "capacity2" else solve_capacity_3user(0.0)


def test_certified_value_brackets_two_log2_rho(result):
    value, gap = Decimal(result.capacity_bits_per_slot), Decimal(result.gap_bits)
    assert value <= EXACT["capacity"] <= value + gap


def test_operating_point_is_algebraic(result):
    for name in ("gamma1", "gamma2", "alpha"):
        assert abs(getattr(result, name) - float(EXACT[name])) <= TOL, name


def test_witness_laws_are_the_tilted_laws():
    res = solve_capacity_3user(0.0)
    assert [(k, share) for k, share, _ in res.witness] == [
        (1, res.alpha), (2, 1.0 - res.alpha)
    ]
    for (_, _, law), exact in zip(res.witness, (EXACT["law1"], EXACT["law2"])):
        assert max(abs(p - float(q)) for p, q in zip(law, exact)) <= TOL


def test_two_user_scheme_is_the_closed_form(monkeypatch):
    # the codebook's window mix (before its rounding to whole windows) and
    # its symbol laws, not the rounded 0.177, (0.57, 0.43), (0.43, 0.325, 0.245)
    mixes, admissible_alpha_slots = [], coding.admissible_alpha_slots

    def split(n, alpha, tau_star):
        mixes.append(alpha)
        return admissible_alpha_slots(n, alpha, tau_star)

    monkeypatch.setattr(coding, "admissible_alpha_slots", split)
    cb = coding.build_codebook_2user(60, 4, delta=0.0, seed=0)
    assert len(mixes) == 1 and abs(mixes[0] - float(EXACT["alpha"])) <= TOL
    (k1, _, law1), (k2, _, law2) = cb.template.windows
    assert (k1, k2) == (1, 2)
    for law, exact in ((law1, EXACT["law1"]), (law2, EXACT["law2"])):
        assert max(abs(p - float(q)) for p, q in zip(law.probs, exact)) <= TOL


def test_window_two_alone_is_uniform():
    assert abs(solve_capacity_3user(0.0).per_tau[2] - float(EXACT["window2"])) <= TOL


@pytest.mark.parametrize("tau", sorted(PAIRS))
def test_every_adjacent_pair_brackets_its_exact_value(tau):
    [(value, alpha, gamma1, _, gap, _)] = capacity3._pair_programs(tau, [0.0])
    assert Decimal(value) - Decimal("1e-15") <= PAIRS[tau] <= Decimal(value) + Decimal(gap)
    if tau >= 2:  # window tau alone, its mean pinned by the budget
        assert alpha == 1.0 and gamma1 == 1.0 - 1.0 / tau


@pytest.mark.parametrize("k", [2, 3, 5, 8, 12, 16])
def test_noiseless_slices_meet_the_tilt_solver(k):
    # the slice solve's max H(p) at mean k * gamma is k * h_tilde, which the
    # tilt solver reaches in closed form, so the two meet at rounding level
    gammas = np.linspace(0.01, 0.99, 99)
    bits = capacity3._slices(k, 0.0, gammas)[0]
    assert np.abs(bits - k * h_tilde_grid(gammas, k)).max() <= 5e-14

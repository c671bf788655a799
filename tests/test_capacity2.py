import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqclab import capacity2, capacity3
from cqclab.capacity2 import (
    BoxViolationError,
    constraint_value,
    eliminate_gamma2,
    objective_2user,
    solve_capacity_2user,
    solve_on_alpha_slice,
)
from cqclab.capacity3 import UncertifiedSolveError
from cqclab.dist import h_tilde


def _g(k: int, s: float) -> float:
    """Noiseless dual intercept g_k(s) = [log2 sum_{x=0..k} 2^(-s x) - s] / k, in bits."""
    return (math.log2(sum(2.0 ** (-s * x) for x in range(k + 1))) - s) / k


def _dual_reference(alpha: float | None) -> float:
    """min_s s + max(g_1, g_2), or s + alpha g_1 + (1 - alpha) g_2 with the mix
    frozen, by golden-section search: the dual is convex in s."""

    def dual(s):
        g1, g2 = _g(1, s), _g(2, s)
        return s + (max(g1, g2) if alpha is None else alpha * g1 + (1.0 - alpha) * g2)

    lo, hi = -32.0, 32.0
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if dual(a) <= dual(b):
            hi = b
        else:
            lo = a
    return dual(0.5 * (lo + hi))


def _touching(s: float):
    """Noiseless touching points of slope s (bits per unit of budget): the
    gamma and ceiling of window 1 and of window 2, in closed form."""
    g1 = 1.0 / (1.0 + 2.0**s)
    w = [2.0 ** (-s * x) for x in range(3)]
    p = [v / sum(w) for v in w]
    h1 = -(g1 * math.log2(g1) + (1.0 - g1) * math.log2(1.0 - g1))
    return g1, (p[1] + 2.0 * p[2]) / 2.0, h1, -sum(v * math.log2(v) for v in p) / 2.0


def _argmax_reference(alpha: float | None):
    """(alpha, gamma1, gamma2) of the optimum by bisection on the slope s:
    with the mix free both windows touch one line (equal intercepts), with
    it frozen the touching points meet the budget."""

    def side(s):
        g1, g2, h1, h2 = _touching(s)
        if alpha is None:
            return (h1 - s * (g1 + 1.0)) - (h2 - s * (g2 + 0.5))
        return alpha * (g1 + 1.0) + (1.0 - alpha) * (g2 + 0.5) - 1.0

    lo, hi = -8.0, 8.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if side(mid) * side(lo) > 0 else (lo, mid)
    g1, g2, _, _ = _touching(0.5 * (lo + hi))
    a = alpha if alpha is not None else (1.0 - (g2 + 0.5)) / ((g1 + 1.0) - (g2 + 0.5))
    return a, g1, g2


def _certified_slice(alpha: float):
    """The frozen slice at alpha, with its certificate, budget and boxes checked."""
    res = solve_on_alpha_slice(alpha)
    assert res.alpha == alpha
    assert 0.0 <= res.gap_bits <= capacity3.PAIR_GAP_TOL
    assert res.constraint_residual <= 1e-12
    assert 0.0 <= res.gamma1 <= 0.5 and 0.0 <= res.gamma2 <= 0.5
    return res


class TestObjective:
    def test_reported_operating_point(self):
        assert objective_2user(0.177, 0.43, 0.407) == pytest.approx(0.8114, abs=5e-4)

    def test_all_short_windows_zero_rate(self):
        assert objective_2user(1.0, 0.0, 0.3) == 0.0

    def test_all_long_windows_uniform(self):
        assert objective_2user(0.0, 0.1, 0.5) == pytest.approx(
            math.log2(3) / 2, abs=1e-12
        )

    @pytest.mark.parametrize(
        "args",
        [(-0.1, 0.3, 0.3), (1.5, 0.3, 0.3), (0.5, 0.6, 0.3), (0.5, 0.3, 0.7)],
    )
    def test_box_violations(self, args):
        with pytest.raises(BoxViolationError):
            objective_2user(*args)


class TestSolve:
    def test_capacity_and_maximizer(self, cap2):
        assert cap2.capacity_bits_per_slot == pytest.approx(0.8114, abs=5e-4)
        assert cap2.alpha == pytest.approx(0.177, abs=0.01)
        assert cap2.gamma1 == pytest.approx(0.43, abs=0.01)
        assert cap2.gamma2 == pytest.approx(0.407, abs=0.01)

    def test_constraint_and_boxes(self, cap2):
        assert cap2.constraint_residual < 1e-9
        assert 0 <= cap2.alpha <= 1
        assert 0 <= cap2.gamma1 <= 0.5
        assert 0 <= cap2.gamma2 <= 0.5

    def test_dominates_feasible_samples(self, cap2):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = float(rng.uniform(0, 0.99))
            g1 = float(rng.uniform(0, 0.5))
            g2 = eliminate_gamma2(a, g1)
            if not 0 <= g2 <= 0.5:
                continue
            assert objective_2user(a, g1, g2) <= cap2.capacity_bits_per_slot + 1e-9

    def test_alpha_zero_slice(self):
        res = solve_on_alpha_slice(0.0)
        assert res.capacity_bits_per_slot == pytest.approx(
            math.log2(3) / 2, abs=1e-9
        )
        assert res.gamma2 == pytest.approx(0.5, abs=1e-9)

    def test_alpha_one_slice_forces_zero(self):
        res = solve_on_alpha_slice(1.0)
        assert res.capacity_bits_per_slot == 0.0
        assert res.gamma1 == 0.0

    def test_zero_rate_slice(self):
        # gamma1 = gamma2 = 0 is feasible only at alpha = 1 and carries nothing
        assert constraint_value(1.0, 0.0, 0.0) == pytest.approx(1.0)
        assert objective_2user(1.0, 0.0, 0.0) == 0.0


class TestDualReference:
    """The solvers against the closed-form noiseless dual, which shares no
    code with the engine."""

    def test_capacity(self, cap2):
        assert abs(cap2.capacity_bits_per_slot - _dual_reference(None)) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 0.9, 0.999, 0.9999, 0.99995, 0.99999,
                                       1 - 3e-7, 1 - 1e-7, 2.3713737056616552e-11])
    def test_alpha_slice(self, alpha):
        res = _certified_slice(alpha)
        assert abs(res.capacity_bits_per_slot - _dual_reference(alpha)) <= 1e-10
        assert res.constraint_residual <= 1e-15

    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_every_frozen_mix_certifies(self, alpha):
        res = _certified_slice(alpha)
        if alpha <= 1 - 1e-8:  # the optimal slope lies inside the reference's [-32, 32]
            assert abs(res.capacity_bits_per_slot - _dual_reference(alpha)) <= 1e-10


    @pytest.mark.parametrize("alpha", [None, 0.3])
    def test_argmax(self, cap2, alpha):
        # the maximizer itself, not only the value, to 1e-12
        res = cap2 if alpha is None else solve_on_alpha_slice(alpha)
        want = _argmax_reference(alpha)
        assert (res.alpha, res.gamma1, res.gamma2) == pytest.approx(want, abs=1e-12)


class TestCertificate:
    def test_gap_and_three_user_agreement(self, cap2, cap3_rp0):
        assert -1e-15 <= cap2.gap_bits <= 1e-9
        assert abs(cap2.capacity_bits_per_slot - cap3_rp0.capacity_bits_per_slot) <= 1e-15
        assert cap2.alpha == pytest.approx(cap3_rp0.alpha, abs=1e-12)

    def test_reported_capacity_is_the_objective(self, cap2):
        assert cap2.capacity_bits_per_slot == objective_2user(cap2.alpha, cap2.gamma1, cap2.gamma2)

    @pytest.mark.parametrize("alpha", [None, 0.5])
    def test_large_gap_raises(self, monkeypatch, alpha):
        # no solve reaches a gap of 1e-30: the pair program of the free solve
        # refuses at GAP_TOL, and both solves at their own PAIR_GAP_TOL check
        tols = ((capacity3, "GAP_TOL"),) if alpha is None else ()
        for module, tol in (*tols, (capacity2, "PAIR_GAP_TOL")):
            with monkeypatch.context() as m:
                m.setattr(module, tol, 1e-30)
                with pytest.raises(UncertifiedSolveError):
                    solve_capacity_2user() if alpha is None else solve_on_alpha_slice(alpha)

    @pytest.mark.parametrize("alpha", [1e-12, 1e-9, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
    def test_extreme_weights(self, alpha):
        _certified_slice(alpha)


class TestConcavityAlongConstraint:
    def test_scheme_mixtures_dominate(self):
        # mixing two feasible schemes in measure space stays feasible and
        # cannot lose objective (mixture concavity of the ceiling)
        rng = np.random.default_rng(11)
        for _ in range(300):
            pts = []
            while len(pts) < 2:
                a = float(rng.uniform(0, 0.98))
                g1 = float(rng.uniform(0, 0.5))
                g2 = eliminate_gamma2(a, g1)
                if 0 <= g2 <= 0.5:
                    pts.append((a, g1, g2))
            (a1, g11, g21), (a2, g12, g22) = pts
            am = 0.5 * (a1 + a2)
            g1m = (0.5 * a1 * g11 + 0.5 * a2 * g12) / am if am else 0.0
            g2m = (0.5 * (1 - a1) * g21 + 0.5 * (1 - a2) * g22) / (1 - am)
            assert constraint_value(am, g1m, g2m) == pytest.approx(1.0, abs=1e-12)
            mixed = objective_2user(am, g1m, g2m)
            mean = 0.5 * objective_2user(a1, g11, g21) + 0.5 * objective_2user(
                a2, g12, g22
            )
            assert mixed >= mean - 1e-9


def test_window_value_baselines(cap2):
    # the optimum beats both pure-window baselines
    pure_short = h_tilde(0.0, 1).bits_per_slot  # budget forces gamma1 = 0
    pure_long = h_tilde(0.5, 2).bits_per_slot
    assert cap2.capacity_bits_per_slot >= max(pure_short, pure_long)

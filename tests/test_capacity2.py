import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cqclab
from cqclab import capacity2, capacity3
from cqclab.capacity2 import solve_capacity_2user, solve_on_alpha_slice
from cqclab.capacity3 import UncertifiedSolveError, solve_capacity_3user
from cqclab.dist import h_tilde


def _objective(alpha: float, gamma1: float, gamma2: float) -> tuple[float, float]:
    """The two-user objective alpha h_tilde(gamma1, 1) + (1 - alpha) h_tilde(gamma2, 2)
    and the budget alpha (gamma1 + 1) + (1 - alpha)(gamma2 + 1/2), which it does not enforce."""
    return (alpha * h_tilde(gamma1, 1).bits_per_slot + (1.0 - alpha) * h_tilde(gamma2, 2).bits_per_slot,
            alpha * (gamma1 + 1.0) + (1.0 - alpha) * (gamma2 + 0.5))


def _gamma2(alpha: float, gamma1: float) -> float:
    """gamma2 forced by the budget; requires alpha < 1."""
    return (1.0 - alpha * (gamma1 + 1.0)) / (1.0 - alpha) - 0.5


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
        assert _objective(0.177, 0.43, 0.407)[0] == pytest.approx(0.8114, abs=5e-4)

    def test_all_short_windows_zero_rate(self):
        assert _objective(1.0, 0.0, 0.3)[0] == 0.0

    def test_all_long_windows_uniform(self):
        assert _objective(0.0, 0.1, 0.5)[0] == pytest.approx(
            math.log2(3) / 2, abs=1e-12
        )


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
            g2 = _gamma2(a, g1)
            if not 0 <= g2 <= 0.5:
                continue
            assert _objective(a, g1, g2)[0] <= cap2.capacity_bits_per_slot + 1e-9

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
        value, budget = _objective(1.0, 0.0, 0.0)
        assert budget == pytest.approx(1.0)
        assert value == 0.0

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, math.nan])
    def test_alpha_outside_box_raises(self, alpha):
        with pytest.raises(ValueError, match="outside"):
            solve_on_alpha_slice(alpha)

    def test_free_solve_is_the_three_user_pair(self, cap2):
        assert cap2 == solve_capacity_3user(0.0, tau_max=2)
        assert (cap2.r_p, cap2.tau_star, list(cap2.per_tau)) == (0.0, 1, [1])

    @pytest.mark.parametrize("alpha", [0.0, 1e-12, 0.3, 1 - 1e-9, 1.0])
    def test_slice_is_a_three_user_result(self, alpha):
        res = solve_on_alpha_slice(alpha)
        assert (res.r_p, res.tau_star, res.witness) == (0.0, 1, ())
        assert res.per_tau == {1: res.capacity_bits_per_slot}
        assert res.per_tau_gap == {1: res.gap_bits}
        assert res.windows == tuple((k, w) for k, w in ((1, alpha), (2, 1.0 - alpha)) if w > 0.0)


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
        # the frozen slice reports the objective by h_tilde bit for bit; the
        # free solve reports its program value, which the objective at its
        # point cannot exceed beyond the certified gap
        for alpha in (cap2.alpha, 0.3):
            res = solve_on_alpha_slice(alpha)
            assert res.capacity_bits_per_slot == _objective(alpha, res.gamma1, res.gamma2)[0]
        value, _ = _objective(cap2.alpha, cap2.gamma1, cap2.gamma2)
        assert value <= cap2.capacity_bits_per_slot + cap2.gap_bits

    @pytest.mark.parametrize("alpha", [None, 0.5])
    def test_large_gap_raises(self, monkeypatch, alpha):
        # no solve reaches a gap of 1e-30: the free solve's pair program
        # refuses at GAP_TOL and its pair at PAIR_GAP_TOL, both in capacity3,
        # and the frozen slice at its own PAIR_GAP_TOL check
        if alpha is None:
            tols = ((capacity3, "GAP_TOL"), (capacity3, "PAIR_GAP_TOL"))
        else:
            tols = ((capacity2, "PAIR_GAP_TOL"),)
        for module, tol in tols:
            with monkeypatch.context() as m:
                m.setattr(module, tol, 1e-30)
                with pytest.raises(UncertifiedSolveError):
                    solve_capacity_2user() if alpha is None else solve_on_alpha_slice(alpha)

    @pytest.mark.parametrize("alpha", [1e-12, 1e-9, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
    def test_extreme_weights(self, alpha):
        _certified_slice(alpha)

    def test_alpha_sweep_certifies(self):
        # 1,000 frozen mixes: 500 uniform, and 250 log-spaced from 1e-15 to
        # 1e-1 off each end of [0, 1]
        tail = np.logspace(-15, -1, 250)
        for alpha in np.concatenate([np.linspace(0.0, 1.0, 502)[1:-1], tail, 1.0 - tail]):
            _certified_slice(float(alpha))


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
                g2 = _gamma2(a, g1)
                if 0 <= g2 <= 0.5:
                    pts.append((a, g1, g2))
            (a1, g11, g21), (a2, g12, g22) = pts
            am = 0.5 * (a1 + a2)
            g1m = (0.5 * a1 * g11 + 0.5 * a2 * g12) / am if am else 0.0
            g2m = (0.5 * (1 - a1) * g21 + 0.5 * (1 - a2) * g22) / (1 - am)
            mixed, budget = _objective(am, g1m, g2m)
            assert budget == pytest.approx(1.0, abs=1e-12)
            mean = 0.5 * _objective(a1, g11, g21)[0] + 0.5 * _objective(a2, g12, g22)[0]
            assert mixed >= mean - 1e-9


def test_window_value_baselines(cap2):
    # the optimum beats both pure-window baselines
    pure_short = h_tilde(0.0, 1).bits_per_slot  # budget forces gamma1 = 0
    pure_long = h_tilde(0.5, 2).bits_per_slot
    assert cap2.capacity_bits_per_slot >= max(pure_short, pure_long)


class TestTwoSolvers:
    """The closed-form frozen slice against the barrier-solved free pair,
    which share no code."""

    @given(st.floats(0.0, 1.0))
    def test_no_frozen_mix_beats_the_free_solve(self, cap2, alpha):
        res = solve_on_alpha_slice(alpha)
        assert res.capacity_bits_per_slot <= cap2.capacity_bits_per_slot + cap2.gap_bits

    def test_slice_at_the_free_mix_reproduces_it(self, cap2):
        res = solve_on_alpha_slice(cap2.alpha)
        diff = abs(res.capacity_bits_per_slot - cap2.capacity_bits_per_slot)
        assert diff <= res.gap_bits + cap2.gap_bits
        assert (res.gamma1, res.gamma2) == pytest.approx((cap2.gamma1, cap2.gamma2), abs=1e-12)


def test_public_names_resolve_once():
    assert len(set(cqclab.__all__)) == len(cqclab.__all__)
    for name in cqclab.__all__:
        assert getattr(cqclab, name) is not None, name

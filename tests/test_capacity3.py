from collections import Counter

import numpy as np
import pytest
from scipy.optimize import brentq

from cqclab import capacity3
from cqclab.capacity3 import (
    GAP_TOL,
    InfeasibleError,
    UncertifiedSolveError,
    binomial_entropy_gap,
    channel_matrix,
    concavity_margin,
    degradation_violations,
    h_check,
    i_tilde,
    i_tilde_curve,
    output_mean_check,
    solve_capacity_3user,
    validate_i_concavity,
)
from cqclab.dist import Pmf, binomial_pmf, entropy, h_tilde


class TestChannelMatrix:
    def test_alphabet_size(self):
        cm = channel_matrix(2, 0.37)
        assert cm.rows.shape == (3, 5)

    def test_noiseless_rows_are_point_masses(self):
        cm = channel_matrix(3, 0.0)
        for x in range(4):
            assert cm.rows[x, x] == 1.0
            assert cm.rows[x].sum() == 1.0

    def test_shifted_binomial_row(self):
        cm = channel_matrix(2, 0.3)
        assert np.allclose(cm.rows[1], [0.0, 0.49, 0.42, 0.09, 0.0], atol=1e-12)

    def test_rows_normalized(self):
        cm = channel_matrix(5, 0.61)
        assert np.allclose(cm.rows.sum(axis=1), 1.0, atol=1e-12)


class TestOutputMean:
    def test_silent_input_no_noise(self):
        assert output_mean_check(Pmf.point_mass(2, 0), 2, 0.0) == pytest.approx(0.0)

    def test_uniform_input(self):
        assert output_mean_check(Pmf.uniform(2), 2, 0.3) == pytest.approx(
            1.6, abs=1e-12
        )

    def test_mean_shift_identity(self):
        rng = np.random.default_rng(3)
        for tau in (1, 3, 6):
            for rp in (0.0, 0.2, 0.77):
                w = rng.dirichlet(np.ones(tau + 1))
                p = Pmf(w)
                assert output_mean_check(p, tau, rp) == pytest.approx(
                    p.mean() + tau * rp, abs=1e-12
                )

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            output_mean_check(Pmf.uniform(3), 2, 0.1)


class TestHCheck:
    def test_pinned_binary_input(self):
        bits, p = h_check(0.5, 1, 0.5)
        assert bits == pytest.approx(1.5, abs=1e-12)
        assert np.allclose(p.probs, [0.5, 0.5])

    def test_noiseless_reduces_to_ceiling(self):
        for k in (1, 2, 4, 7):
            for g in (0.08, 0.5, 0.77):
                bits, _ = h_check(g, k, 0.0)
                assert bits == pytest.approx(
                    k * h_tilde(g, k).bits_per_slot, abs=1e-9
                )

    def test_against_brute_force_segment(self):
        # mean-1 inputs on {0,1,2} form the segment (t, 1-2t, t)
        noise = binomial_pmf(2, 0.2).probs
        best = -np.inf
        for t in np.arange(0.0, 0.5 + 1e-12, 1e-4):
            py = np.convolve([t, 1 - 2 * t, t], noise)
            best = max(best, entropy(Pmf(py)))
        bits, _ = h_check(0.5, 2, 0.2)
        assert abs(bits - best) < 1e-6
        assert bits >= best - 1e-9

    def test_dominates_uniform_feasible_point(self):
        noise = binomial_pmf(2, 0.2).probs
        ref = entropy(Pmf(np.convolve(np.full(3, 1 / 3), noise)))
        bits, _ = h_check(0.5, 2, 0.2)
        assert bits >= ref - 1e-9

    def test_infeasible_gamma(self):
        with pytest.raises(ValueError):
            h_check(1.2, 3, 0.1)

    def test_maximizer_feasible(self):
        for g, k, rp in ((0.23, 5, 0.31), (0.9, 3, 0.05)):
            _, p = h_check(g, k, rp)
            assert p.mean() == pytest.approx(k * g, abs=1e-8)
            assert p.probs.min() >= 0

    @pytest.mark.parametrize("g, k, rp", [(1e-12, 4, 0.3), (1e-9, 4, 0.3), (1e-8, 8, 0.7)])
    def test_tiny_mean_stays_on_the_slice(self, g, k, rp):
        # from the tilted start the barrier path drifts off the constraint
        # plane here (sum well above 1, negative LP gap); that point must
        # not pass as certified, and the guard's other starts find the optimum
        bits, p = h_check(g, k, rp)
        assert p.mean() == pytest.approx(k * g, abs=1e-10)
        q = np.zeros(k + 1)
        q[0], q[1] = 1 - k * g, k * g  # a feasible point: its entropy is a lower bound
        lower = entropy(Pmf(np.convolve(q, binomial_pmf(k, rp).probs)))
        assert lower - 1e-9 <= bits <= lower + 1e-6


class TestITilde:
    def test_binary_symmetric_point(self):
        val = i_tilde(0.5, 1, 0.5)
        assert val.bits_per_slot == pytest.approx(0.5, abs=1e-9)

    def test_noiseless_equals_ceiling(self):
        for k in (1, 3, 8):
            for g in (0.1, 0.43, 0.5, 0.92):
                assert i_tilde(g, k, 0.0).bits_per_slot == pytest.approx(
                    h_tilde(g, k).bits_per_slot, abs=1e-6
                )

    def test_degenerate_input_carries_nothing(self):
        for k in (1, 4):
            for rp in (0.1, 0.5):
                assert i_tilde(0.0, k, rp).bits_per_slot == pytest.approx(
                    0.0, abs=1e-9
                )

    def test_noise_cannot_help(self):
        for k in (1, 2, 5):
            for g in (0.2, 0.5, 0.8):
                for rp in (0.05, 0.3):
                    assert (
                        i_tilde(g, k, rp).bits_per_slot
                        <= h_tilde(g, k).bits_per_slot + 1e-9
                    )

    def test_monotone_degradation_at_symmetric_rate(self):
        for k in (1, 2, 3):
            vals = [
                i_tilde(0.5, k, rp).bits_per_slot
                for rp in np.arange(0.0, 0.51, 0.05)
            ]
            assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))

    def test_degradation_violations_are_reported(self):
        # the ceiling is not globally monotone in the noise rate: with the
        # input pinned at k = 1, gamma = 0.25 it rises again past
        # r_p ~ 0.4 (exact arithmetic, no optimizer involved); the detector
        # must surface that
        found = degradation_violations([0.25], [1])
        assert found, "known non-monotone point was not reported"
        k, g, r_lo, r_hi, inc = found[-1]
        assert (k, g) == (1, 0.25)
        assert inc > 1e-4
        assert not degradation_violations([0.5], [1, 2, 3])

    def test_decomposition_matches_joint_mutual_information(self):
        # independent route: I(X;Y) from the joint law directly, against the
        # output-entropy-minus-noise-entropy decomposition
        for g, k, rp in ((0.3, 2, 0.2), (0.62, 4, 0.35), (0.11, 3, 0.05)):
            val = i_tilde(g, k, rp)
            px = val.maximizing_input.probs
            rows = channel_matrix(k, rp).rows
            joint = px[:, None] * rows
            py = joint.sum(axis=0)
            mask = joint > 0
            mi = float(
                (joint[mask] * np.log2(joint[mask] / (px[:, None] * py)[mask])).sum()
            )
            assert val.bits_per_slot == pytest.approx(mi / k, abs=1e-9)

    @pytest.mark.parametrize("k, rp", [(1, 0.2), (3, 0.2), (5, 0.1), (8, 0.3)])
    def test_curve_matches_scalar_solves(self, k, rp):
        gs = np.linspace(0.0, 1.0, 21)
        curve = i_tilde_curve(gs, k, rp)
        for g, v in zip(gs, curve):
            assert v == pytest.approx(
                i_tilde(float(g), k, rp).bits_per_slot, abs=1e-9
            )

    def test_curve_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            i_tilde_curve([0.5, 0.2], 2, 0.1)

    @pytest.mark.parametrize(
        "gammas", [[0.5, 1.2, 3.0], [-0.5, 0.5], [0.2, np.nan], [0.2, np.inf]]
    )
    def test_curve_rejects_gamma_outside_unit_interval(self, gammas):
        with pytest.raises(ValueError):
            i_tilde_curve(gammas, 2, 0.1)

    def test_uncertified_solve_raises(self, monkeypatch):
        # no barrier iterate reaches a gap of 1e-30 nats, so every start of
        # the guard fails and the solve must refuse rather than return
        monkeypatch.setattr(capacity3, "GAP_TOL", 1e-30)
        with pytest.raises(UncertifiedSolveError):
            h_check(0.3, 3, 0.2)
        with pytest.raises(UncertifiedSolveError):
            i_tilde_curve(np.linspace(0.0, 1.0, 11), 3, 0.2)

    def test_first_argument_concavity(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            k = int(rng.integers(1, 6))
            rp = float(rng.choice([0.05, 0.2, 0.4]))
            g1, g3 = rng.uniform(size=2)
            a = float(rng.uniform())
            g2 = a * g1 + (1 - a) * g3
            lhs = (
                a * i_tilde(float(g1), k, rp).bits_per_slot
                + (1 - a) * i_tilde(float(g3), k, rp).bits_per_slot
            )
            assert lhs <= i_tilde(g2, k, rp).bits_per_slot + 1e-9


class TestBatchedSolver:
    def test_lp_gaps_match_vertex_enumeration(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(40, 6))
        p = rng.dirichlet(np.ones(6), size=40)
        m = np.concatenate([p[:-2] @ np.arange(6.0), [0.0, 3.0]])
        got = capacity3._lp_gaps(g, p, m)
        for row in range(40):
            best = -np.inf
            for i in range(6):
                for j in range(i, 6):
                    if i <= m[row] <= j:
                        v = g[row, i] if j == i else (
                            ((j - m[row]) * g[row, i] + (m[row] - i) * g[row, j]) / (j - i)
                        )
                        best = max(best, v)
            assert got[row] == pytest.approx(best - g[row] @ p[row], abs=1e-12)

    def test_tilt_matches_scalar_root(self):
        rng = np.random.default_rng(12)
        logw = np.log(rng.dirichlet(np.ones(5), size=30))
        m = rng.uniform(0.01, 3.99, size=30)
        got = capacity3._tilt_logw_to_mean(logw, m)
        idx = np.arange(5.0)

        def pm(row, s):
            w = np.exp(logw[row] + s * idx - (logw[row] + s * idx).max())
            return w / w.sum()

        for row in range(30):
            s = brentq(lambda s: pm(row, s) @ idx - m[row], -200.0, 200.0, xtol=1e-14)
            assert np.allclose(got[row], pm(row, s), atol=1e-12)
            assert got[row] @ idx == pytest.approx(m[row], abs=1e-12)

    def test_batch_rows_match_single_solves(self):
        sv = capacity3._SliceEntropySolver(4, 0.15)
        gs = np.array([0.0, 0.07, 0.5, 0.93, 1.0])
        bits, p, gaps = sv.solve(gs)
        assert (gaps <= GAP_TOL).all()
        for g, b, row in zip(gs, bits, p):
            b1, p1, _ = sv.solve([g])
            assert b == pytest.approx(b1[0], abs=1e-12)
            assert np.allclose(row, p1[0], atol=1e-9)
            assert row @ np.arange(5.0) == pytest.approx(4 * g, abs=1e-9)

    def test_guard_starts_reach_the_same_optimum(self):
        # the fallback starts (tilted, uniform-feasible and endpoint
        # mixtures) must certify the point the first start finds
        sv = capacity3._SliceEntropySolver(5, 0.3)
        gs = np.array([0.02, 0.3, 0.5, 0.71, 0.98])
        bits, p, _ = sv.solve(gs)
        q, gaps = sv._guard(gs, retry_base=True)
        assert (gaps <= GAP_TOL).all()
        assert np.allclose(sv.values_nats(q) / capacity3.LN2, bits, atol=1e-12)
        assert np.allclose(q, p, atol=1e-9)

    def test_singular_kkt_falls_back_to_least_squares(self, monkeypatch):
        sv = capacity3._SliceEntropySolver(3, 0.2)
        gs = np.array([0.1, 0.5, 0.8])
        ref, _, _ = sv.solve(gs)

        def singular(*args):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        bits, _, gaps = sv.solve(gs)
        assert np.allclose(bits, ref, atol=1e-12)
        assert (gaps <= GAP_TOL).all()


class TestCapacity3:
    def test_noiseless_matches_two_user(self, cap3_rp0, cap2):
        assert cap3_rp0.capacity_bits_per_slot == pytest.approx(
            cap2.capacity_bits_per_slot, abs=1e-3
        )
        assert cap3_rp0.tau_star == 1

    def test_small_background_prefers_shortest_windows(self, cap3_rp005, cap3_rp01):
        assert cap3_rp005.tau_star == 1
        assert cap3_rp01.tau_star == 1

    def test_constraint_residual(self, cap3_rp01):
        assert cap3_rp01.constraint_residual < 1e-8
        assert 0 <= cap3_rp01.alpha <= 1
        assert 0 <= cap3_rp01.gamma1 <= 1
        assert 0 <= cap3_rp01.gamma2 <= 1

    def test_per_tau_audit_recorded(self, cap3_rp01):
        assert 1 in cap3_rp01.per_tau
        assert cap3_rp01.per_tau[cap3_rp01.tau_star] == pytest.approx(
            cap3_rp01.capacity_bits_per_slot
        )

    def test_capacity_decreases_with_noise(self, cap3_rp0, cap3_rp005, cap3_rp01):
        c0 = cap3_rp0.capacity_bits_per_slot
        c5 = cap3_rp005.capacity_bits_per_slot
        c10 = cap3_rp01.capacity_bits_per_slot
        assert c0 > c5 > c10 > 0

    def test_near_boundary_feasible(self):
        res = solve_capacity_3user(0.49, tau_max=2)
        assert res.capacity_bits_per_slot >= 0.0

    def test_heavy_background_skips_infeasible_windows(self):
        # at r_p = 0.55 the budget 0.45 rules out tau = 1 entirely
        res = solve_capacity_3user(0.55, tau_max=4)
        assert res.tau_star >= 2
        assert 1 not in res.per_tau
        assert res.capacity_bits_per_slot >= 0.0
        assert res.constraint_residual < 1e-8

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleError):
            solve_capacity_3user(0.6, tau_max=2)

    def test_each_table_built_once(self, monkeypatch):
        built = Counter()
        real = capacity3.i_tilde_curve

        def counting(gammas, k, r_p):
            built[k] += 1
            return real(gammas, k, r_p)

        monkeypatch.setattr(capacity3, "i_tilde_curve", counting)
        res = solve_capacity_3user(0.3, tau_max=8)
        assert res.tau_star == 2
        assert built == {1: 1, 2: 1, 3: 1, 4: 1}

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            solve_capacity_3user(-0.1)
        with pytest.raises(ValueError):
            solve_capacity_3user(0.2, tau_max=1)


class TestMixedWindowConcavity:
    def test_pure_binomial_margin_is_zero(self):
        # gamma1 = gamma3 = 0 pins every term to a pure binomial entropy
        for k in (2, 4):
            for rp in (0.1, 0.35):
                assert concavity_margin(k, 0.0, 0.0, rp) == pytest.approx(
                    0.0, abs=1e-9
                )

    def test_reference_point(self):
        assert concavity_margin(2, 0.5, 0.5, 0.25) >= -1e-6

    def test_noiseless_reduces_to_ceiling_concavity(self):
        for k in (2, 3):
            g1, g3 = 0.3, 0.8
            alpha = (k - 1) / (2 * k)
            g2 = alpha * g1 + (1 - alpha) * g3
            margin = concavity_margin(k, g1, g3, 0.0)
            direct = (
                2 * k * h_tilde(g2, k).bits_per_slot
                - (k - 1) * h_tilde(g1, k - 1).bits_per_slot
                - (k + 1) * h_tilde(g3, k + 1).bits_per_slot
            )
            assert margin == pytest.approx(direct, abs=1e-7)
            assert margin >= -1e-9

    def test_sweep_reports_genuine_violations(self):
        # the mixed-window inequality fails for r_p > 0: exact enumeration at
        # (k=2, gamma1=0.1, gamma3=0, r_p=0.05) gives margin -0.0140155, i.e.
        # mixing windows of lengths 1 and 3 strictly beats the length-2
        # point. The sweep must report, not mask, such violations.
        assert concavity_margin(2, 0.1, 0.0, 0.05) == pytest.approx(
            -0.0140155, abs=1e-4
        )
        report = validate_i_concavity(tau_max=4, samples=40, seed=2)
        assert report.samples == 2 * 40
        assert report.worst_margin < -1e-6
        assert report.violations > 0
        assert not report.passed
        assert report.max_gap_nats <= GAP_TOL

    def test_sweep_clean_when_noiseless(self):
        report = validate_i_concavity(tau_max=4, samples=30, seed=3, r_p_step=2.0)
        # r_p grid collapses to {0}: the noiseless inequality is provably true
        assert report.worst_margin >= -1e-9
        assert report.passed
        assert report.max_gap_nats <= GAP_TOL

    def test_binomial_entropy_gap_matches_direct(self):
        for k in (2, 5):
            for rp in (0.2, 0.5):
                direct = (
                    entropy(binomial_pmf(k - 1, rp))
                    + entropy(binomial_pmf(k + 1, rp))
                    - 2 * entropy(binomial_pmf(k, rp))
                )
                assert binomial_entropy_gap(k, rp) == pytest.approx(direct)

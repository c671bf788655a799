import math
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import brentq

from cqclab import capacity3
from cqclab.capacity3 import (
    GAP_TOL,
    CapacityResult3,
    ChannelMatrix,
    ITildeValue,
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
from cqclab.dist import Pmf, _tilt_to_mean, binomial_pmf, entropy, h_tilde

# means down to 1e-12 from either end, plus two extreme means of
# test_noiseless_equals_ceiling
EDGE_GAMMAS = np.concatenate([10.0 ** -np.arange(1.0, 13.0), 1 - 10.0 ** -np.arange(1.0, 13.0),
                              [4.8286e-8, 1 - 4.14e-8]])

# name: (run, its Newton steps, its row-steps: the rows summed over those
# steps) for the validate sweep, the two solves of `cqclab capacity2` and
# `cqclab capacity3 --rp-grid 0,0.1,0.3`, and one pair-program path; a step
# of a slice solve is one primal-dual iteration that some row outlives
NEWTON_STEPS = {
    "validate_i_concavity(8, 50, seed=5)": (lambda: validate_i_concavity(8, 50, seed=5),
                                            109, 10871),
    "capacity2 and capacity3 solves": (lambda: (
        solve_capacity_3user(0.0, 2), capacity3.solve_capacity_grid([0.0, 0.1, 0.3], 8)),
        169, 326),
    "_program_path(3, [0, 0.1, 0.3])": (lambda: capacity3._program_path(
        3, np.array([0.0, 0.1, 0.3])), 43, 100),
}


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

    def test_rejects_a_wrong_shape_and_unnormalized_rows(self):
        rows = channel_matrix(2, 0.3).rows
        with pytest.raises(ValueError, match=r"rows must be \(3, 5\)"):
            ChannelMatrix(tau=2, r_p=0.3, rows=rows[:, :4])
        with pytest.raises(ValueError, match="sum to 1"):
            ChannelMatrix(tau=2, r_p=0.3, rows=rows * (1 + 1e-9))

    def test_rejects_nan_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ChannelMatrix(tau=2, r_p=0.3, rows=np.full((3, 5), np.nan))

    def test_record_holds_the_matrix_and_the_noise_entropy(self):
        # one record per (k, r_p), k >= 0: channel_matrix's rows and the
        # entropy of the same pmf, -0.0 for the empty window as entropy() has it
        for k, rp in ((0, 0.3), (0, 0.0), (1, 0.0), (4, 0.37)):
            cm, bits = capacity3._channel(k, rp)
            assert cm.rows.shape == (k + 1, 2 * k + 1) and not cm.rows.flags.writeable
            want = entropy(binomial_pmf(k, rp))
            assert bits == want and math.copysign(1.0, bits) == math.copysign(1.0, want)
        assert math.copysign(1.0, capacity3._channel(0, 0.3)[1]) == -1.0
        assert channel_matrix(4, 0.37) is capacity3._channel(4, 0.37)[0]


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

    @pytest.mark.parametrize("k", [2.5, 0.5, float("nan"), float("inf"), "2"])
    def test_window_that_is_not_a_whole_number(self, k):
        for call in (lambda: h_check(0.5, k, 0.1), lambda: i_tilde(0.5, k, 0.1),
                     lambda: i_tilde_curve([0.5], k, 0.1),
                     lambda: degradation_violations([0.5], [3, k])):
            with pytest.raises(ValueError, match="whole number"):
                call()

    @pytest.mark.parametrize("k", [3.0, np.int64(3)])
    def test_whole_window_of_another_type_is_its_int(self, k):
        (bits, p), (ref_bits, ref_p) = h_check(0.3, k, 0.1), h_check(0.3, 3, 0.1)
        assert bits == ref_bits and (p.probs == ref_p.probs).all()
        it = i_tilde(0.3, k, 0.1)
        assert type(it.k) is int and it.bits_per_slot == i_tilde(0.3, 3, 0.1).bits_per_slot
        assert (i_tilde_curve([0.3], k, 0.1) == i_tilde_curve([0.3], 3, 0.1)).all()

    def test_maximizer_feasible(self):
        for g, k, rp in ((0.23, 5, 0.31), (0.9, 3, 0.05)):
            _, p = h_check(g, k, rp)
            assert p.mean() == pytest.approx(k * g, abs=1e-8)
            assert p.probs.min() >= 0

    @pytest.mark.parametrize("g, k, rp", [(1e-12, 4, 0.3), (1e-9, 4, 0.3), (1e-8, 8, 0.7)])
    def test_tiny_mean_stays_on_the_slice(self, g, k, rp):
        # started from the tilted pmf (entries down to 1e-57) the barrier path
        # can drift off the constraint plane here (sum well above 1, negative
        # LP gap); such a point must not pass as certified
        bits, p = h_check(g, k, rp)
        assert p.mean() == pytest.approx(k * g, abs=1e-10)
        q = np.zeros(k + 1)
        q[0], q[1] = 1 - k * g, k * g  # a feasible point: its entropy is a lower bound
        lower = entropy(Pmf(np.convolve(q, binomial_pmf(k, rp).probs)))
        assert lower - 1e-9 <= bits <= lower + 1e-6

    def test_subnormal_step_entry_warns_nothing(self):
        # a subnormal mean puts every entry but the first on the 1e-150
        # floor, where z / q and the fraction-to-boundary ratios must not
        # overflow; the start at the floor is certified, and its bits are
        # the ones the barrier path gave while it still warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bits, p = h_check(5e-324, 8, 5e-324)
            tiny, q = h_check(1e-191, 8, 0.3)
        assert bits.hex() == "0x1.97c6184fdf18ap-487"
        assert [x.hex() for x in p.probs.tolist()] == ["0x1.0000000000000p+0"] + 8 * [
            "0x1.a2fe76a3f9475p-499"
        ]
        assert tiny == pytest.approx(entropy(binomial_pmf(8, 0.3)), abs=1e-12)
        assert q.probs[0] == 1.0 and (q.probs[1:] <= 1e-149).all()


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
        # extreme means at long windows, where the ceiling itself is ~1e-6
        for g, k in ((4.8286e-8, 11), (1 - 4.14e-8, 12)):
            assert i_tilde(g, k, 0.0).bits_per_slot == pytest.approx(
                h_tilde(g, k).bits_per_slot, abs=1e-9
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

    def test_value_rejects_negative_bits_and_a_missed_mean(self):
        law = Pmf.uniform(2)  # mean 1 = k * 0.5
        ITildeValue(gamma=0.5, k=2, r_p=0.1, bits_per_slot=-1e-12, maximizing_input=law)
        with pytest.raises(ValueError, match="cannot be negative"):
            ITildeValue(gamma=0.5, k=2, r_p=0.1, bits_per_slot=-1e-9, maximizing_input=law)
        with pytest.raises(ValueError, match="mean constraint"):
            ITildeValue(gamma=0.4, k=2, r_p=0.1, bits_per_slot=0.5, maximizing_input=law)

    def test_value_rejects_nan_bits_and_a_nan_mean(self):
        law = Pmf.uniform(2)
        with pytest.raises(ValueError, match="cannot be negative"):
            ITildeValue(gamma=0.5, k=2, r_p=0.1, bits_per_slot=np.nan, maximizing_input=law)
        with pytest.raises(ValueError, match="mean constraint"):
            ITildeValue(gamma=np.nan, k=2, r_p=0.1, bits_per_slot=0.5, maximizing_input=law)

    def test_degradation_violations_on_an_empty_grid(self):
        assert degradation_violations([], [1, 2]) == []
        assert degradation_violations([0.3], [1, 2], []) == []

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

    def test_degradation_tolerance_must_be_finite_and_nonnegative(self):
        # a NaN tolerance reported none of the 22 increases the default finds
        rps = np.linspace(0.0, 0.99, 12)
        assert len(degradation_violations([0.3, 0.6], [2, 3], rps)) == 22
        for tolerance in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
                degradation_violations([0.3, 0.6], [2, 3], rps, tolerance=tolerance)

    def test_degradation_gammas_must_be_finite_and_in_the_unit_interval(self):
        # a NaN row used to read as an all-zero law, and gammas outside
        # [0, 1] as the nearest endpoint, so the sweep returned []
        for gamma in (float("nan"), float("inf"), -0.5, 1.5):
            with pytest.raises(ValueError, match=r"gammas must be finite and lie in \[0, 1\]"):
                degradation_violations([0.3, gamma], [2], [0.0, 0.3, 0.6])

    def test_degradation_violations_match_pointwise_solves(self):
        gammas, ks, rps = [0.1, 0.25, 0.6], [1, 2, 3], np.arange(0.0, 0.96, 0.05)
        expected = []
        for k in ks:
            for g in gammas:
                vals = [i_tilde(g, k, float(rp)).bits_per_slot for rp in rps]
                for j in range(rps.size - 1):
                    if vals[j + 1] > vals[j] + 1e-6:
                        expected.append((k, g, float(rps[j]), float(rps[j + 1]),
                                         vals[j + 1] - vals[j]))
        found = degradation_violations(gammas, ks, rps)
        assert expected, "the grid should reach the non-monotone region"
        assert [f[:4] for f in found] == [e[:4] for e in expected]
        assert [f[4] for f in found] == pytest.approx([e[4] for e in expected], abs=1e-12)

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

    @pytest.mark.parametrize("k, rp", [(2, 0.1), (5, 0.3)])
    def test_curve_on_a_permuted_grid_is_the_permuted_curve(self, k, rp):
        # every point is solved cold and on its own, so the order is free
        gs = np.linspace(0.0, 1.0, 21)
        order = np.random.default_rng(k).permutation(gs.size)
        curve = i_tilde_curve(gs, k, rp)
        assert i_tilde_curve(gs[order], k, rp).tobytes() == curve[order].tobytes()
        assert i_tilde_curve([0.5, 0.2], k, rp).tobytes() == curve[[10, 4]].tobytes()

    @pytest.mark.parametrize(
        "gammas", [[0.5, 1.2, 3.0], [-0.5, 0.5], [0.2, np.nan], [0.2, np.inf]]
    )
    def test_curve_rejects_gamma_outside_unit_interval(self, gammas):
        with pytest.raises(ValueError):
            i_tilde_curve(gammas, 2, 0.1)

    def test_uncertified_solve_raises(self, monkeypatch):
        # no barrier iterate reaches a gap of 1e-30 nats, so the solve must
        # refuse rather than return
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
        got = capacity3._lp_gaps(g, p, m, np.arange(6.0))
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
        m = rng.uniform(0.01, 3.99, size=30)
        _, (got,) = _tilt_to_mean((4,), m)
        idx = np.arange(5.0)

        def pm(s):
            w = np.exp(s * idx - (s * idx).max())
            return w / w.sum()

        for row in range(30):
            s = brentq(lambda s: pm(s) @ idx - m[row], -200.0, 200.0, xtol=1e-14)
            assert np.allclose(got[row], pm(s), atol=1e-12)
            assert got[row] @ idx == pytest.approx(m[row], abs=1e-12)

    def test_batch_rows_match_single_solves(self):
        # a row of a batch has the bits of its point solved alone
        gs = np.array([0.0, 0.07, 0.5, 0.93, 1.0])
        batch = capacity3._slices(4, 0.15, gs)
        assert (batch[1] <= GAP_TOL).all()
        for i, g in enumerate(gs):
            for got, want in zip(batch, capacity3._slices(4, 0.15, [g])):
                assert (got[i] == want[0]).all(), g
            assert batch[3][i] @ np.arange(5.0) == pytest.approx(4 * g, abs=1e-9)

    def test_path_does_not_depend_on_its_start(self):
        # from the tilted pmf, far from the slice's centre, the primal-dual
        # loop reaches the optimum that the central start certifies
        gs = np.array([0.02, 0.3, 0.5, 0.71, 0.98])
        bits, gaps, _, p = capacity3._slices(5, 0.3, gs)
        assert (gaps <= GAP_TOL).all()
        m = 5 * gs
        _, (tilted,) = _tilt_to_mean((5,), m)
        model = capacity3._SliceObjective()
        data = (np.repeat([channel_matrix(5, 0.3).rows], gs.size, axis=0),)  # one channel per row
        A, b = np.stack([np.ones(6), np.arange(6.0)]), np.stack([np.ones(gs.size), m], axis=1)
        q, _, path_gaps = capacity3._primal_dual(tilted, A, b, data, model)
        assert (path_gaps <= GAP_TOL).all()
        assert np.allclose(model.parts(q, data)[0] / capacity3.LN2, bits, atol=1e-12)
        assert np.allclose(q, p, atol=1e-9)

    def test_every_slice_row_certifies(self):
        for k in (2, 4, 8, 11, 12, 16):
            for rp in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
                _, gaps, _, p = capacity3._slices(k, rp, EDGE_GAMMAS)
                assert (gaps <= GAP_TOL).all(), (k, rp)
                assert np.allclose(p @ np.arange(k + 1.0), k * EDGE_GAMMAS, atol=1e-10)

    def test_every_slice_row_certifies_at_rounding_level(self):
        # the primal-dual loop ends a row once its LP gap is 1e-13 nats, on
        # the sweep above and on 300 random rows per window length
        for k in (2, 4, 8, 11, 12, 16):
            for rp in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
                assert capacity3._slices(k, rp, EDGE_GAMMAS)[1].max() <= 1e-12, (k, rp)
        rng = np.random.default_rng(39)
        for k in range(2, 17):
            gaps = capacity3._slices(k, rng.uniform(size=300), rng.uniform(size=300))[1]
            assert gaps.max() <= 1e-12, k

    def test_every_pair_program_certifies(self):
        # every rate with an interior budget, up to windows of 64; the value
        # beats both windows alone
        for tau in (1, 4, 7, 11, 23, 63):
            rps = np.array([rp for rp in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9) if 1 - rp > 1 / (tau + 1)])
            q, f, gaps = capacity3._program_path(tau, rps)
            assert (gaps <= GAP_TOL).all(), (tau, rps, gaps)
            assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12) and (q > 0).all()
            for rp, val in zip(rps, f / capacity3.LN2):
                pure = [i_tilde(1 - rp - 1 / k, k, rp).bits_per_slot
                        for k in (tau, tau + 1) if 1 - rp >= 1 / k]
                assert val >= max(pure) - 1e-12, (tau, rp)

    def test_singular_kkt_leaves_its_rows_uncertified(self, monkeypatch):
        # a singular KKT system moves no row of its step; rows left at their
        # starts are uncertified, and the callers name the first one
        def singular(*args):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(UncertifiedSolveError, match=r"gamma=0\.1, k=3, r_p=0\.2 "):
            capacity3._slices(3, 0.2, [0.1, 0.5, 0.8])
        with pytest.raises(UncertifiedSolveError, match=r"window pair \(2, 3\) at r_p=0\.1"):
            capacity3._pair_programs(2, [0.1, 0.3])


    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_rates_in_one_batch_match_per_rate_solves(self, k):
        rng = np.random.default_rng(k)
        gs = np.concatenate([rng.uniform(size=40), [0.0, 1.0, 1e-12, 1 - 1e-12] * 2])
        rps = rng.choice([0.0, 0.05, 0.3, 0.8, 0.95], size=gs.size)
        # bits, gaps, noise and maximizers equal their one-rate solves bitwise
        batch = capacity3._slices(k, rps, gs)
        assert (batch[1] <= GAP_TOL).all()
        for rp in np.unique(rps):
            sel = rps == rp
            for got, want in zip(batch, capacity3._slices(k, rp, gs[sel])):
                assert (got[sel] == want).all(), rp

    @pytest.mark.parametrize("k", [2, 5])
    def test_rows_of_many_rates_do_not_depend_on_the_chunk_size(self, monkeypatch, k):
        rng = np.random.default_rng(k)
        gs = np.concatenate([rng.uniform(size=3 * k + 7), [0.0, 1.0, 1e-12]])
        rps = rng.choice([0.0, 0.1, 0.3, 0.7], size=gs.size)
        ref = capacity3._slices(k, rps, gs)
        for rows in (0, 1, k + 2):  # rows per chunk; 0: a window wider than the chunk takes 1
            monkeypatch.setattr(capacity3, "_CHUNK_KKT", rows * (k + 3) ** 2)
            for got, want in zip(capacity3._slices(k, rps, gs)[:3], ref):
                assert (got == want).all(), rows

    def test_every_slice_path_takes_per_row_channels(self, monkeypatch):
        # one rate or several, each row carries its whole (k + 1) x (2k + 1)
        # channel, so the arithmetic of a row does not depend on which rates
        # share its call
        shapes, real = [], capacity3._primal_dual

        def spy(q, A, b, data, model):
            shapes.append(tuple(d.shape for d in data))
            return real(q, A, b, data, model)

        monkeypatch.setattr(capacity3, "_primal_dual", spy)
        capacity3._slices(4, 0.0, [0.2, 0.5, 0.7])
        capacity3._slices(4, np.array([0.0, 0.0]), [0.2, 0.5])
        capacity3._slices(4, np.array([0.0, 0.2, 0.3]), [0.2, 0.5, 1.0])
        capacity3._slices(2, 0.3, [0.4])
        assert shapes == [((3, 5, 9),), ((2, 5, 9),), ((2, 5, 9),), ((1, 3, 5),)]

    @pytest.mark.parametrize("objective", ["pair", "slice"])
    def test_line_search_parts_serve_the_next_step(self, monkeypatch, objective):
        # every Newton step of the pair path but the first of each stage
        # reads the parts its line search evaluated, and the final
        # certificate reads one gradient. The slice loop has no line search:
        # each of its 14 steps evaluates the parts of its iterate once for
        # one gradient, the 13 steps that some row outlives read them again
        # for the Hessians of those rows, and the value pass makes a 15th
        # parts call. Either way they are bitwise the parts of the iterate
        path, steps, _ = NEWTON_STEPS["_program_path(3, [0, 0.1, 0.3])"]
        stages = len(capacity3._PROGRAM_MU_STAGES)
        cls, run, expected = {
            "pair": (capacity3._PairObjective, path,
                     {"hessian": steps, "gradient": 1, "fresh": stages + 1,
                      "line search": steps - stages}),
            "slice": (capacity3._SliceObjective,
                      lambda: capacity3._slices(4, [0.0, 0.2, 0.5], [0.3, 0.5, 0.9]),
                      {"parts": 15, "gradient": 14, "hessian": 13}),
        }[objective]
        ref = run()
        calls, real_parts, real_newton = Counter(), cls.parts, cls.newton
        latest = [None]  # the iterate of the latest parts call

        def parts(self, q, data):
            calls["parts"] += 1
            latest[0] = q
            return real_parts(self, q, data)

        def newton(self, q, data, parts, H=None):
            for got, want in zip(parts, real_parts(self, q, data)):
                assert (got == want).all()
            calls["gradient" if H is None else "hessian"] += 1
            # parts evaluated at this very iterate were not the line search's
            calls["line search" if latest[0] is not q else "fresh"] += 1
            return real_newton(self, q, data, parts, H)

        monkeypatch.setattr(cls, "parts", parts)
        monkeypatch.setattr(cls, "newton", newton)
        for got, want in zip(run(), ref):
            assert (np.asarray(got) == np.asarray(want)).all()
        assert {key: calls[key] for key in expected} == expected

    def test_validate_builds_each_quantity_once(self, monkeypatch):
        # one binomial per (k, r_p); every Hessian that a slice step writes
        # is read by that step's KKT solve; parts once per step of each
        # primal-dual path plus one value pass per window length
        made, counts, pending = Counter(), Counter(), []
        real_pmf, real_solve = capacity3.binomial_pmf, np.linalg.solve
        real_parts, real_newton = capacity3._SliceObjective.parts, capacity3._SliceObjective.newton
        real_slices, real_path = capacity3._slices, capacity3._primal_dual

        def pmf(k, p):
            made[k, p] += 1
            return real_pmf(k, p)

        def parts(self, q, data):
            counts["parts"] += 1
            return real_parts(self, q, data)

        def newton(self, q, data, parts, H=None):
            if H is not None:
                assert not pending  # the previous Hessian was solved
                pending.append(H)
            return real_newton(self, q, data, parts, H)

        def solve(a, b):
            H = pending.pop()
            assert np.shares_memory(a, H) and H.shape[0] == a.shape[0]
            counts["solves"] += 1
            return real_solve(a, b)

        def count(name, real):
            def spy(*args):
                counts[name] += 1
                return real(*args)
            return spy

        for obj, name, f in ((capacity3, "binomial_pmf", pmf), (np.linalg, "solve", solve),
                             (capacity3._SliceObjective, "parts", parts),
                             (capacity3._SliceObjective, "newton", newton),
                             (capacity3, "_slices", count("value passes", real_slices)),
                             (capacity3, "_primal_dual", count("paths", real_path))):
            monkeypatch.setattr(obj, name, f)
        capacity3._channel.cache_clear()
        try:
            validate_i_concavity(8, 50, seed=5)
        finally:  # drop the records built under the counter
            capacity3._channel.cache_clear()
        assert len(made) == 159 and set(made.values()) == {1}
        assert not pending and counts["solves"] == NEWTON_STEPS[
            "validate_i_concavity(8, 50, seed=5)"][1]
        assert counts["parts"] == counts["solves"] + counts["paths"] + counts["value passes"] == 124

    def test_a_path_leaves_with_the_certificate_of_its_last_iterate(self, monkeypatch):
        # rows that certify, rows stopped by a singular KKT system and rows
        # of a finished path each carry the value and LP gap of the point
        # they return, bitwise
        gs = np.array([0.02, 0.3, 0.5, 0.71, 0.98])
        model, A = capacity3._SliceObjective(), np.stack([np.ones(6), np.arange(6.0)])
        data = (np.repeat([channel_matrix(5, 0.3).rows], gs.size, axis=0),)
        b = np.stack([np.ones(gs.size), 5 * gs], axis=1)
        q0 = np.full((gs.size, 6), 1 / 6) * 2 * np.minimum(gs, 1 - gs)[:, None]
        q0[np.arange(gs.size), np.where(gs <= 0.5, 0, 5)] += 1 - q0.sum(axis=1)
        runs = [capacity3._primal_dual(q0, A, b, data, model)]
        real, solves = np.linalg.solve, []

        def singular_at_six(a, rhs):
            solves.append(a.shape[0])
            if len(solves) == 6:
                raise np.linalg.LinAlgError("singular matrix")
            return real(a, rhs)

        monkeypatch.setattr(np.linalg, "solve", singular_at_six)
        runs.append(capacity3._primal_dual(q0, A, b, data, model))
        assert len(solves) == 6
        for q, value, gap in runs:
            parts = model.parts(q, data)
            want = capacity3._lp_gaps(model.newton(q, data, parts), q, b[:, 1], A[1])
            assert (value == parts[0]).all() and (gap == want).all()
        assert (runs[0][2] <= 1e-13).all() and (runs[1][2] > 1e-13).any()

    @pytest.mark.parametrize("name", sorted(NEWTON_STEPS))
    def test_newton_steps_are_pinned(self, monkeypatch, name):
        # a Newton step is a newton call that writes a Hessian; a change that
        # adds steps fails here, and must re-pin the counts and say what moved
        counts, objectives = [0, 0], (capacity3._SliceObjective, capacity3._PairObjective)

        def counted(real):
            def newton(self, q, data, parts, H=None):
                if H is not None:
                    counts[0] += 1
                    counts[1] += q.shape[0]
                return real(self, q, data, parts, H)
            return newton

        for cls in objectives:
            monkeypatch.setattr(cls, "newton", counted(cls.newton))
        run, *want = NEWTON_STEPS[name]
        run()
        assert counts == want

    def test_a_floored_entry_invalidates_the_line_search_parts(self):
        # a gradient of -1e150 on entry 0 takes it from the 1e-150 floor to
        # about 1e-152 at every step while the other entries still move, so
        # each accepted point is floored and its line-search parts are stale:
        # every Newton step must read parts evaluated at its own iterate
        calls = []  # "b": parts below the floor, "p": other parts, "n": Newton

        class Floored:  # c q - |q - z|^2 / 2 per row, data (c, z)
            def parts(self, q, data):
                calls.append("b" if 0 < q.min() < 1e-150 else "p")
                c, z = data
                return (c * q).sum(axis=1) - ((q - z) ** 2).sum(axis=1) / 2, q - z, q.copy()

            def newton(self, q, data, parts, H=None):
                calls.append("n")
                assert (parts[2] == q).all()  # the parts of this iterate
                if H is not None:
                    H[:] = -np.eye(q.shape[1])
                return data[0] - parts[1]

        class Fresh(Floored):  # reuse disabled: each step overwrites its parts
            def newton(self, q, data, parts, H=None):
                for x, y in zip(parts, Floored.parts(self, q, data)):
                    x[...] = y
                return super().newton(q, data, parts, H)

        A = np.stack([np.ones(4), np.arange(4.0)])
        data = (np.array([[-1e150, 0.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 0.2, 0.8]]))
        out = capacity3._newton_path(np.array([[0.0, 0.3, 0.4, 0.3]]), A,
                                     np.array([[1.0, 2.0]]), data, Floored(), (1e-2, 1e-4))
        # floored candidates, fresh parts at the floored point, a Newton step
        assert "".join(calls).count("bpn") > 10
        ref = capacity3._newton_path(np.array([[0.0, 0.3, 0.4, 0.3]]), A,
                                     np.array([[1.0, 2.0]]), data, Fresh(), (1e-2, 1e-4))
        for got, want in zip(out, ref):
            assert (got == want).all()

    @pytest.mark.parametrize("k", [2, 8])
    def test_a_501_point_curve_is_one_barrier_path(self, monkeypatch, k):
        # the chunk bounds the KKT matrices, (k + 3)^2 entries a row, so the
        # interior points are one primal-dual path
        paths, real = [], capacity3._primal_dual

        def spy(q, *args):
            paths.append(q.shape[0])
            return real(q, *args)

        monkeypatch.setattr(capacity3, "_primal_dual", spy)
        i_tilde_curve(np.linspace(0.0, 1.0, 501), k, 0.3)
        assert paths == [499]  # the interior points

    def test_empty_batch_returns_empty_rows(self):
        bits, gaps, noise, p = capacity3._slices(3, np.array([]), [])
        assert bits.shape == gaps.shape == noise.shape == (0,) and p.shape == (0, 4)

    def test_uncertified_row_of_a_rate_batch_names_its_point(self, monkeypatch):
        monkeypatch.setattr(capacity3, "GAP_TOL", 1e-30)
        with pytest.raises(UncertifiedSolveError, match=r"gamma=0\.4, k=3, r_p=0\.2 "):
            capacity3._slices(3, np.array([0.2, 0.7]), np.array([0.4, 0.6]))

    def test_mixed_rates_match_one_rate_programs(self):
        # a row's arithmetic does not depend on the rates that share its path
        rps = np.random.default_rng(44).permutation(np.repeat([0.0, 0.1, 0.3, 0.45], 3))
        for tau in (1, 2, 4):
            q, f, gaps = capacity3._program_path(tau, rps)
            for rp in np.unique(rps):
                sel = rps == rp
                ref = capacity3._program_path(tau, np.array([rp]))
                for got, want in zip((q[sel], f[sel], gaps[sel]), ref):
                    assert (got == want).all(), (tau, rp)

    @pytest.mark.parametrize("tau, r_p", [(1, 0.0), (2, 0.3), (6, 0.7)])
    def test_program_laws_match_slice_solves(self, tau, r_p):
        # at a mixed optimum each window's law is the slice maximizer at its
        # own mean, and the value is the share-weighted sum of the ceilings
        q, f, _ = capacity3._program_path(tau, np.array([r_p]))
        parts = [(tau, q[0, : tau + 1]), (tau + 1, q[0, tau + 1 :])]
        total = 0.0
        for k, qk in parts:
            share, law = qk.sum(), qk / qk.sum()
            assert 0.01 < share < 0.99
            val = i_tilde(float(law @ np.arange(k + 1.0)) / k, k, r_p)
            assert np.abs(val.maximizing_input.probs - law).max() <= 1e-7, k
            total += share * val.bits_per_slot
        assert f[0] / capacity3.LN2 == pytest.approx(total, abs=1e-12)

    @pytest.mark.parametrize("tol", ["GAP_TOL", "PAIR_GAP_TOL"])
    def test_uncertified_pair_names_its_rate(self, monkeypatch, tol):
        # no program gets a gap down to 1e-30; the vertex pair (1, 2) at
        # r_p = 0.5 is exact and passes
        monkeypatch.setattr(capacity3, tol, 1e-30)
        with pytest.raises(UncertifiedSolveError, match=r"window pair \(1, 2\) at r_p=0\.3"):
            capacity3.solve_capacity_grid([0.5, 0.3], tau_max=3)
        with pytest.raises(UncertifiedSolveError, match=r"window pair \(1, 2\) at r_p=0\.2"):
            solve_capacity_3user(0.2, tau_max=3)

    def test_uncertified_free_mean_raises(self, monkeypatch):
        # with no row certified, the capacity solve must refuse
        monkeypatch.setattr(capacity3, "GAP_TOL", 1e-30)
        with pytest.raises(UncertifiedSolveError):
            solve_capacity_3user(0.2, tau_max=3)

    def test_uncertified_free_row_of_a_grid_names_its_point(self, monkeypatch):
        real = capacity3._program_path

        def failing(tau, r_ps):  # pair (1, 2) at r_p = 0.3 never certifies
            q, f, gaps = real(tau, r_ps)
            return q, f, np.where((tau == 1) & (r_ps == 0.3), np.inf, gaps)

        monkeypatch.setattr(capacity3, "_program_path", failing)
        with pytest.raises(UncertifiedSolveError,
                           match=r"window pair \(1, 2\) at r_p=0\.3: program LP gap inf"):
            capacity3.solve_capacity_grid([0.0, 0.3], tau_max=3)

    def test_rows_off_their_constraints_are_uncertified(self, monkeypatch):
        monkeypatch.setattr(capacity3, "FEAS_TOL", -1.0)
        _, _, gaps = capacity3._program_path(2, np.array([0.1, 0.3]))
        assert np.isinf(gaps).all()
        with pytest.raises(UncertifiedSolveError, match=r"\(2, 3\) at r_p=0\.1"):
            capacity3._pair_programs(2, [0.1, 0.3])


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

    @pytest.mark.parametrize(
        "field, value, message",
        [("capacity_bits_per_slot", -1e-9, "capacity outside"),
         ("capacity_bits_per_slot", 1.0 + 1e-9, "capacity outside"),
         ("constraint_residual", 2e-9, "constraint residual"),
         ("tau_star", 0, "tau_star")],
    )
    def test_result_rejects_values_out_of_range(self, field, value, message):
        args = dict(r_p=0.1, capacity_bits_per_slot=0.5, alpha=0.5, gamma1=0.5, gamma2=0.5,
                    tau_star=1, constraint_residual=1e-9)
        CapacityResult3(**args)
        with pytest.raises(ValueError, match=message):
            CapacityResult3(**{**args, field: value})

    def test_result_rejects_a_nan_residual(self):
        with pytest.raises(ValueError, match="constraint residual"):
            CapacityResult3(r_p=0.1, capacity_bits_per_slot=0.5, alpha=0.5, gamma1=0.5,
                            gamma2=0.5, tau_star=1, constraint_residual=np.nan)

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

    def test_each_solver_built_once(self, monkeypatch):
        # each (k, r_p) channel record, its rows and its noise entropy, is
        # built once per solve from one binomial, whether it serves a
        # program path or the slice of a window alone
        built = Counter()
        real = capacity3.binomial_pmf

        def counting(k, p):
            built[k, p] += 1
            return real(k, p)

        monkeypatch.setattr(capacity3, "binomial_pmf", counting)
        capacity3._channel.cache_clear()
        try:
            res = solve_capacity_3user(0.3, tau_max=8)
            records = capacity3._channel.cache_info().misses
        finally:  # drop the records built under the counter
            capacity3._channel.cache_clear()
        assert res.tau_star == 2
        assert built == {(1, 0.3): 1, (2, 0.3): 1, (3, 0.3): 1, (4, 0.3): 1}
        assert records == len(built)

    def test_exact_result_at_rp01(self, cap3_rp01):
        # window 2 alone is optimal for both pairs (1, 2) and (2, 3); the
        # two pure candidates are the same i_tilde call, so the tie is exact
        # and goes to tau = 1
        pure = i_tilde(1.0 - 0.1 - 1.0 / 2, 2, 0.1).bits_per_slot
        assert cap3_rp01.tau_star == 1
        assert (cap3_rp01.alpha, cap3_rp01.gamma1, cap3_rp01.gamma2) == (0.0, 0.0, 0.4)
        assert cap3_rp01.capacity_bits_per_slot == pure
        assert cap3_rp01.per_tau[1] == cap3_rp01.per_tau[2] == pure
        assert cap3_rp01.windows == ((2, 1.0),)
        assert cap3_rp01.constraint_residual == 0.0

    def test_certified_at_rp04(self):
        # the first zoom round asks windows 5 to 8 for multipliers far above s*
        res = solve_capacity_3user(0.4, tau_max=8)
        assert res.tau_star == 2
        assert res.windows == ((3, 1.0),)
        assert res.capacity_bits_per_slot == i_tilde((1.0 - 0.4) - 1.0 / 3, 3, 0.4).bits_per_slot
        assert res.capacity_bits_per_slot == pytest.approx(0.244297972331, abs=1e-11)
        assert 0.0 <= res.gap_bits <= capacity3.PAIR_GAP_TOL

    def test_grid_results_equal_one_rate_solves(self, cap3_rp0, cap3_rp005, cap3_rp01):
        # a rate's result does not depend on which rates share its batches
        rates = [round(0.05 * i, 2) for i in range(17)]
        solo = {0.0: cap3_rp0, 0.05: cap3_rp005, 0.1: cap3_rp01}
        for r_p, res in zip(rates, capacity3.solve_capacity_grid(rates, 8)):
            assert res == (solo.get(r_p) or solve_capacity_3user(r_p, 8)), r_p

    def test_grid_solves_each_pure_window_once(self, monkeypatch):
        # one program path per tau, then one slice path per tau and window
        # length for the windows alone, each point once
        paths = []

        def spy(real):
            def path(*args):
                paths.append(args[0].shape)
                return real(*args)
            return path

        for name in ("_newton_path", "_primal_dual"):
            monkeypatch.setattr(capacity3, name, spy(getattr(capacity3, name)))
        capacity3.solve_capacity_grid([round(0.05 * i, 2) for i in range(17)], 8)
        assert len(paths) <= 20

    def test_pure_pairs_carry_i_tilde_laws_and_floats(self, monkeypatch):
        # every pure pair of the 17-rate grid reports i_tilde's value and
        # maximizing law bitwise, and every value and gap is a Python float
        pairs, real = [], capacity3._pair_programs

        def spy(tau, r_ps, pure=None):
            out = real(tau, r_ps, pure)
            pairs.extend((tau, rp, pair) for rp, pair in zip(r_ps, out))
            return out

        monkeypatch.setattr(capacity3, "_pair_programs", spy)
        results = capacity3.solve_capacity_grid([round(0.05 * i, 2) for i in range(17)], 8)
        checked = 0
        for tau, rp, (val, a, g1, g2, gap, witness) in pairs:
            assert type(val) is float and type(gap) is float, (tau, rp)
            if a not in (0.0, 1.0) or 1.0 - rp <= 1.0 / (tau + 1) + 1e-12:
                continue  # a mix, or a budget of one point, value 0, solved by no path
            k, gamma, law = (tau, g1, witness[0][2]) if a else (tau + 1, g2, witness[1][2])
            it = i_tilde(gamma, k, rp)
            assert val == it.bits_per_slot, (tau, rp)
            assert law == tuple(it.maximizing_input.probs.tolist()), (tau, rp)
            checked += 1
        assert checked >= 20
        for res in results:
            assert type(res.gap_bits) is float and type(res.capacity_bits_per_slot) is float
            assert all(type(v) is float for v in [*res.per_tau.values(), *res.per_tau_gap.values()])

    def test_grid_rejects_bad_args(self):
        with pytest.raises(ValueError):
            capacity3.solve_capacity_grid([0.1, 1.0])
        with pytest.raises(InfeasibleError):
            capacity3.solve_capacity_grid([0.1, 0.6], tau_max=2)

    def test_windows_and_gap_of_a_mix(self, cap3_rp0):
        (k1, w1), (k2, w2) = cap3_rp0.windows
        assert (k1, k2) == (1, 2)
        assert w1 == cap3_rp0.alpha and w1 + w2 == pytest.approx(1.0, abs=1e-15)
        assert 0.1 < w1 < 0.2
        assert 0.0 <= cap3_rp0.gap_bits <= capacity3.PAIR_GAP_TOL
        assert cap3_rp0.gap_bits == cap3_rp0.per_tau_gap[cap3_rp0.tau_star]
        assert set(cap3_rp0.per_tau_gap) == set(cap3_rp0.per_tau)

    def test_no_nelder_mead(self, monkeypatch):
        import scipy.optimize

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.optimize.minimize called")

        monkeypatch.setattr(scipy.optimize, "minimize", refuse)
        res = solve_capacity_3user(0.2, tau_max=8)
        assert res.tau_star == 2

    def test_pair_gap_enforced(self, monkeypatch):
        monkeypatch.setattr(capacity3, "PAIR_GAP_TOL", -1.0)
        with pytest.raises(UncertifiedSolveError):
            solve_capacity_3user(0.0, tau_max=2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            solve_capacity_3user(-0.1)
        with pytest.raises(ValueError):
            solve_capacity_3user(0.2, tau_max=1)


class TestDualAgainstPrimal:
    """Every pair optimum beats a dense feasible grid, and the grid stays
    below the optimum plus its certified gap."""

    @staticmethod
    def _grid_best(tau, r_p):
        gammas = np.linspace(0.0, 1.0, 501)
        t1, t2 = i_tilde_curve(gammas, tau, r_p), i_tilde_curve(gammas, tau + 1, r_p)
        A, G1 = np.meshgrid(np.linspace(0.0, 1.0, 1001)[:-1], gammas, indexing="ij")
        G2 = (1.0 - r_p - A * (G1 + 1.0 / tau)) / (1.0 - A) - 1.0 / (tau + 1)
        ok = (G2 >= 0.0) & (G2 <= 1.0)
        # linear interpolation of the concave ceiling is a lower bound, so
        # every grid value is achieved by some feasible point
        vals = A * np.interp(G1, gammas, t1) + (1.0 - A) * np.interp(G2, gammas, t2)
        return np.where(ok, vals, -np.inf).max()

    @pytest.mark.parametrize("r_p", [0.0, 0.05, 0.1, 0.3, 0.5])
    def test_pairs_bound_the_grid(self, r_p, cap3_rp0, cap3_rp005, cap3_rp01):
        known = {0.0: cap3_rp0, 0.05: cap3_rp005, 0.1: cap3_rp01}
        res = known.get(r_p) or solve_capacity_3user(r_p, tau_max=8)
        assert res.gap_bits <= capacity3.PAIR_GAP_TOL
        for tau, val in res.per_tau.items():
            gap = res.per_tau_gap[tau]
            assert 0.0 <= gap <= capacity3.PAIR_GAP_TOL
            best = self._grid_best(tau, r_p)
            assert val >= best - 1e-12
            assert best <= val + gap


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

    def test_sweep_of_no_samples_is_clean(self):
        report = validate_i_concavity(tau_max=4, samples=0)
        assert (report.samples, report.violations, report.worst_margin) == (0, 0, np.inf)
        assert report.passed

    def test_sweep_clean_when_noiseless(self):
        report = validate_i_concavity(tau_max=4, samples=30, seed=3, r_p_step=2.0)
        # r_p grid collapses to {0}: the noiseless inequality is provably true
        assert report.worst_margin >= -1e-9
        assert report.passed
        assert report.max_gap_nats <= GAP_TOL

    @pytest.mark.parametrize("step", [0.0, -0.05, float("nan"), float("inf")])
    def test_sweep_rejects_a_bad_rate_step(self, step):
        with pytest.raises(ValueError, match="r_p_step"):
            validate_i_concavity(tau_max=4, samples=5, r_p_step=step)

    def test_sweep_rejects_a_tolerance_that_masks_or_invents_violations(self):
        # the default finds 3 certified violations here; a NaN tolerance
        # reported none and a negative one counted 386
        assert validate_i_concavity(4, 200, seed=0).violations == 3
        for tolerance in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
                validate_i_concavity(4, 200, seed=0, tolerance=tolerance)

    def test_sweep_matches_pointwise_margins(self):
        # the sweep solves each window length once across all rates; the
        # same draws through concavity_margin solve point by point, to the
        # same bits
        for seed in range(6):
            rng = np.random.default_rng(seed)
            margins, where = [], []
            for k in (2, 3, 4):
                g1s, g3s = rng.uniform(size=15), rng.uniform(size=15)
                rps = rng.choice(np.arange(0.0, 1.0, 0.05), size=15)
                for g1, g3, rp in zip(g1s, g3s, rps):
                    margins.append(concavity_margin(k, float(g1), float(g3), float(rp)))
                    where.append((k, float(g1), float(g3), float(rp)))
            report = validate_i_concavity(tau_max=5, samples=15, seed=seed)
            assert report.samples == len(margins)
            assert report.violations == sum(m < -1e-6 for m in margins), seed
            assert report.worst_margin == min(margins), seed
            assert report.worst_location == where[int(np.argmin(margins))], seed

    def test_binomial_entropy_gap_matches_direct(self):
        # bitwise, down to k = 1, whose window k - 1 = 0 has no channel
        for k in range(1, 10):
            for rp in (0.0, 0.05, 0.2, 0.5, 0.95):
                direct = (
                    entropy(binomial_pmf(k - 1, rp))
                    + entropy(binomial_pmf(k + 1, rp))
                    - 2 * entropy(binomial_pmf(k, rp))
                )
                assert binomial_entropy_gap(k, rp) == direct, (k, rp)

    def test_each_noise_entropy_is_computed_once(self, monkeypatch):
        # the noise gaps of neighbouring windows and the slice channels
        # share one H(Bin(k, r_p)) per (k, r_p)
        made = Counter()
        real = capacity3.binomial_pmf

        def counting(k, p):
            made[k, p] += 1
            return real(k, p)

        monkeypatch.setattr(capacity3, "binomial_pmf", counting)
        capacity3._channel.cache_clear()
        try:
            for k in (2, 3, 4):
                binomial_entropy_gap(k, 0.35)
            noise = capacity3._slices(3, 0.35, [0.5])[2]
        finally:  # drop the records built under the counter
            capacity3._channel.cache_clear()
        assert noise[0] == entropy(real(3, 0.35))
        # one pmf per (k, r_p), k = 1..5: the channel of k = 3 shares its record
        assert made == {(1, 0.35): 1, (2, 0.35): 1, (3, 0.35): 1, (4, 0.35): 1, (5, 0.35): 1}

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqclab import dist
from cqclab.dist import (
    AbsoluteContinuityError,
    HTildeValue,
    Pmf,
    SupportMismatchError,
    TiltEndpointError,
    TiltSolution,
    _tilt_to_mean,
    binomial_pmf,
    entropy,
    h_tilde,
    h_tilde_grid,
    kl_divergence,
    rate_function,
    solve_tilt,
    solve_tilt_grid,
    tilted_pmf,
)

LOG2E = math.log2(math.e)

# frozen oracle: -sum p*log2(p) for (0.57, 0.43), evaluated at 40 digits
H_057_043 = 0.9858150371789198
# frozen oracle: ln(0.43 / 0.57)
LAM_MEAN_043 = -0.2818511521409877


class TestPmf:
    def test_valid_construction(self):
        p = Pmf(np.array([0.25, 0.25, 0.5]))
        assert p.k == 2
        assert p.mean() == pytest.approx(1.25)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("probs", [[math.nan, 1.0], [math.nan], [0.5, math.nan, 0.5]])
    def test_rejects_nan(self, probs):
        # NaN fails every comparison, so a `p < 0` test and the sum test let it through
        with pytest.raises(ValueError, match="nonnegative"):
            Pmf(np.array(probs))

    @pytest.mark.parametrize("probs", [[[0.5, 0.5]], 1.0, []])
    def test_rejects_input_that_is_not_a_nonempty_vector(self, probs):
        with pytest.raises(ValueError, match="nonempty 1-D"):
            Pmf(np.array(probs))

    def test_immutable(self):
        p = Pmf(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.7


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(Pmf.uniform(1)) == 1.0

    def test_point_mass(self):
        assert entropy(Pmf.point_mass(5, 0)) == 0.0

    def test_frozen_value(self):
        assert entropy(Pmf(np.array([0.57, 0.43]))) == pytest.approx(
            H_057_043, abs=1e-9
        )


class TestKlDivergence:
    def test_identity(self):
        p = Pmf(np.array([0.2, 0.3, 0.5]))
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_vs_uniform(self):
        for k in (1, 3, 7):
            d = kl_divergence(Pmf.point_mass(k, 0), Pmf.uniform(k))
            assert d == pytest.approx(math.log2(k + 1), abs=1e-12)

    def test_entropy_kl_identity(self):
        # H(p) = log2(k+1) - D(p || uniform), checked against the direct sum
        p = Pmf(np.array([0.57, 0.43]))
        d = kl_divergence(p, Pmf.uniform(1))
        assert d == pytest.approx(1.0 - H_057_043, abs=1e-9)
        direct = sum(
            pi * math.log2(pi / 0.5) for pi in (0.57, 0.43)
        )
        assert d == pytest.approx(direct, abs=1e-12)

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatchError):
            kl_divergence(Pmf.uniform(1), Pmf.uniform(2))

    def test_absolute_continuity(self):
        with pytest.raises(AbsoluteContinuityError):
            kl_divergence(Pmf.uniform(1), Pmf.point_mass(1, 0))


class TestTiltedPmf:
    def test_zero_tilt_is_uniform(self):
        p = tilted_pmf(3, 0.0)
        assert np.allclose(p.probs, 0.25, atol=1e-15)

    def test_closed_form_k1(self):
        p = tilted_pmf(1, math.log(43 / 57))
        assert np.allclose(p.probs, [0.57, 0.43], atol=1e-12)

    def test_extreme_tilt(self):
        # true mass is 1 - ~2e-22, which rounds to 1.0 in float64
        p = tilted_pmf(4, 50.0)
        assert p.probs[4] >= 1 - 1e-20

    def test_extreme_negative_tilt_stable(self):
        p = tilted_pmf(6, -800.0)
        assert p.probs[0] == pytest.approx(1.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            tilted_pmf(0, 1.0)
        with pytest.raises(ValueError):
            tilted_pmf(2, float("inf"))


class TestSolveTilt:
    def test_symmetric_mean_gives_zero(self):
        sol = solve_tilt(5, 2.5)
        assert abs(sol.lam) < 1e-9

    def test_closed_form_k1(self):
        sol = solve_tilt(1, 0.43)
        assert sol.lam == pytest.approx(LAM_MEAN_043, abs=1e-9)

    def test_residual_bound(self):
        sol = solve_tilt(2, 0.86)
        assert abs(sol.pmf.mean() - 0.86) < 1e-10

    def test_solution_rejects_a_residual_above_its_tolerance(self):
        args = dict(lam=0.0, pmf=Pmf.uniform(2), target_mean=1.0)
        TiltSolution(**args, residual=1e-10)
        with pytest.raises(ValueError, match="residual"):
            TiltSolution(**args, residual=2e-10)

    def test_solution_rejects_a_nan_residual(self):
        with pytest.raises(ValueError, match="residual"):
            TiltSolution(lam=0.0, pmf=Pmf.uniform(2), target_mean=1.0, residual=float("nan"))

    def test_solution_follows_closed_form(self):
        sol = solve_tilt(4, 1.37)
        w = np.exp(np.arange(5) * sol.lam)
        assert np.abs(sol.pmf.probs - w / w.sum()).max() < 1e-12

    @pytest.mark.parametrize("mean", [0.0, 2.0])
    def test_endpoints_rejected(self, mean):
        with pytest.raises(TiltEndpointError):
            solve_tilt(2, mean)

    def test_out_of_range_rejected(self):
        with pytest.raises(TiltEndpointError):
            solve_tilt(2, 2.5)

    def test_tilt_monotone_in_lambda(self):
        for k in (1, 3, 6):
            means = [tilted_pmf(k, lam).mean() for lam in np.linspace(-8, 8, 41)]
            assert all(b > a for a, b in zip(means, means[1:]))

    def test_extreme_interior_mean(self):
        sol = solve_tilt(3, 1e-6)
        assert abs(sol.pmf.mean() - 1e-6) < 1e-10


TAIL_MEANS = [1e-30, 1e-100, 1e-300]


class TestTiltTails:
    """The tilt solver reaches roots far out on the exponential tail, where
    the mean is e^lam (1 + O(e^lam)), so the root is ln(m) to rounding."""

    @pytest.mark.parametrize("m", TAIL_MEANS)
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_reaches_tail_root(self, k, m):
        s, (p,) = _tilt_to_mean((k,), np.array([m]))
        assert s[0] == pytest.approx(math.log(m), rel=1e-14)
        assert p[0] @ np.arange(k + 1.0) == pytest.approx(m, rel=1e-12)
        sol = solve_tilt(k, m)
        assert sol.lam == s[0]
        assert sol.pmf.mean() == pytest.approx(m, rel=1e-12)

    def test_tail_rows_in_one_batch(self):
        m = np.array([0.5, *TAIL_MEANS, 1.5])
        s, (p,) = _tilt_to_mean((2,), m)
        assert s[1:4] == pytest.approx(np.log(TAIL_MEANS), rel=1e-14)
        assert p @ np.arange(3.0) == pytest.approx(m, rel=1e-12)

    @pytest.mark.parametrize("m", TAIL_MEANS)
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_mirror_is_the_endpoint(self, k, m):
        # k - m rounds to k in double precision, so the mirrored target is
        # the degenerate endpoint: it is rejected, never solved to a wrong tilt
        assert k - m == k
        with pytest.raises(TiltEndpointError):
            solve_tilt(k, k - m)
        with pytest.raises(TiltEndpointError):
            _tilt_to_mean((k,), np.array([k - m]))

    @pytest.mark.parametrize("d", [1e-3, 1e-8, 1e-15])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_mirror_of_representable_tails(self, k, d):
        up = k - d
        d = k - up  # exact: the distance the upper target really has
        s_lo, (p_lo,) = _tilt_to_mean((k,), np.array([d]))
        s_up, (p_up,) = _tilt_to_mean((k,), np.array([up]))
        assert s_up[0] == pytest.approx(-s_lo[0], rel=1e-12)
        assert np.allclose(p_up[0], p_lo[0][::-1], rtol=1e-10, atol=0.0)


class TestRateFunction:
    def test_vanishes_at_midpoint(self):
        for k in (1, 2, 5, 8):
            assert rate_function(k, k / 2) == pytest.approx(0.0, abs=1e-10)

    def test_endpoint_values(self):
        for k in (1, 4):
            assert rate_function(k, 0.0) == pytest.approx(math.log(k + 1))
            assert rate_function(k, float(k)) == pytest.approx(math.log(k + 1))

    def test_rate_entropy_identity(self):
        # log2(3) - rate * log2(e) must equal twice the per-slot ceiling
        v = rate_function(2, 0.86)
        assert math.log2(3) - v * LOG2E == pytest.approx(
            2 * h_tilde(0.43, 2).bits_per_slot, abs=1e-9
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            rate_function(2, -0.1)
        with pytest.raises(ValueError):
            rate_function(2, 2.1)

    def test_nonnegative(self):
        for k in (1, 4):
            for x in np.linspace(0.01, k - 0.01, 17):
                assert rate_function(k, float(x)) >= -1e-12


class TestHTilde:
    def test_uniform_binary(self):
        assert h_tilde(0.5, 1).bits_per_slot == pytest.approx(1.0, abs=1e-12)

    def test_uniform_ternary(self):
        assert h_tilde(0.5, 2).bits_per_slot == pytest.approx(
            math.log2(3) / 2, abs=1e-12
        )

    def test_binary_entropy_point(self):
        assert h_tilde(0.43, 1).bits_per_slot == pytest.approx(H_057_043, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_degenerate_endpoints(self, k):
        assert h_tilde(0.0, k).bits_per_slot == 0.0
        assert h_tilde(1.0, k).bits_per_slot == 0.0

    def test_value_type_invariant(self):
        with pytest.raises(ValueError):
            HTildeValue(gamma=0.5, k=2, bits_per_slot=1.0)  # above log2(3)/2

    def test_dual_formula_samples(self):
        for k in (1, 3, 6):
            for g in (0.07, 0.43, 0.65, 0.99):
                direct = entropy(solve_tilt(k, k * g).pmf) / k
                assert h_tilde(g, k).bits_per_slot == pytest.approx(direct, abs=1e-9)

    def test_symmetry_samples(self):
        for k in (1, 4, 8):
            for g in (0.05, 0.2, 0.44):
                assert h_tilde(g, k).bits_per_slot == pytest.approx(
                    h_tilde(1 - g, k).bits_per_slot, abs=1e-10
                )

    def test_grid_matches_closed_forms(self):
        # k = 1 is the binary entropy; for k = 2 the tilt u = exp(lam) solves
        # (2 - m) u^2 + (1 - m) u - m = 0 at mean m = 2 gamma, and the ceiling
        # is (log2(1 + u + u^2) - m log2(u)) / 2
        gs = np.concatenate([[1e-9, 1e-4], np.arange(0.01, 1.0, 0.01), [1 - 1e-4, 1 - 1e-9]])
        binary = -(gs * np.log2(gs) + (1.0 - gs) * np.log2(1.0 - gs))
        assert np.abs(h_tilde_grid(gs, 1) - binary).max() <= 1e-12
        m = 2.0 * gs
        root = np.sqrt((1.0 - m) ** 2 + 4.0 * (2.0 - m) * m)
        # each branch of the quadratic formula where it has no cancellation
        u = np.where(m < 1.0, 2.0 * m / ((1.0 - m) + root), (m - 1.0 + root) / (2.0 * (2.0 - m)))
        ternary = (np.log2(1.0 + u + u * u) - m * np.log2(u)) / 2.0
        assert np.abs(h_tilde_grid(gs, 2) - ternary).max() <= 1e-12

    def test_grid_matches_scalar(self):
        gs = np.arange(0.0, 1.0001, 0.03)
        for k in (1, 2, 3, 7):
            grid = h_tilde_grid(gs, k)
            for g, v in zip(gs, grid):
                assert v == pytest.approx(
                    h_tilde(float(g), k).bits_per_slot, abs=1e-12
                )


EDGE_GAMMAS = st.sampled_from([1e-12, 1 - 1e-12, 0.5])
INTERIOR_GAMMAS = st.one_of(EDGE_GAMMAS, st.floats(1e-12, 1 - 1e-12))


class TestBatchedRows:
    """A batched row freezes at its own stopping test, so every batch
    returns, bitwise, the values of its one-row solves."""

    @given(k=st.integers(1, 40), gammas=st.lists(INTERIOR_GAMMAS, min_size=1, max_size=16))
    def test_tilt_rows_equal_scalar_solves(self, k, gammas):
        lam, p = solve_tilt_grid(k, k * np.array(gammas))
        for j, g in enumerate(gammas):
            sol = solve_tilt(k, k * g)
            assert lam[j] == sol.lam
            assert np.array_equal(p[j], sol.pmf.probs)

    @given(
        k=st.integers(1, 40),
        gammas=st.lists(st.one_of(INTERIOR_GAMMAS, st.sampled_from([0.0, 1.0])),
                        min_size=1, max_size=16),
    )
    def test_h_tilde_rows_equal_scalar_values(self, k, gammas):
        grid = h_tilde_grid(np.array(gammas), k)
        assert [float(v) for v in grid] == [h_tilde(g, k).bits_per_slot for g in gammas]

    def test_h_tilde_grid_holds_the_range_bound(self, monkeypatch):
        # a negative rate would put the ceiling above log2(k+1)/k
        monkeypatch.setattr(dist, "_rate_grid", lambda k, x: np.full(x.shape, -1.0))
        with pytest.raises(ValueError, match="outside"):
            h_tilde_grid(np.array([0.3, 0.6]), 3)

    @pytest.mark.parametrize("gammas", [[-0.1, 0.5], [0.5, 1.5], [float("nan")]])
    def test_h_tilde_grid_rejects_gammas_outside_unit_interval(self, gammas):
        with pytest.raises(ValueError):
            h_tilde_grid(np.array(gammas), 2)

    def test_tilt_grid_holds_the_mean_residual_bound(self, monkeypatch):
        lam, p = solve_tilt_grid(4, [0.2, 2.0, 3.9])
        assert np.abs(p @ np.arange(5.0) - [0.2, 2.0, 3.9]).max() <= 1e-10
        monkeypatch.setattr(dist, "_MEAN_TOL", -1.0)  # no residual can meet it
        with pytest.raises(ValueError, match="residual"):
            solve_tilt_grid(4, [0.2, 2.0, 3.9])

    def test_tilt_grid_rejects_endpoints(self):
        with pytest.raises(TiltEndpointError):
            solve_tilt_grid(3, [1.0, 3.0])


# SHA-256 over solve_tilt_grid's tilts and laws and h_tilde_grid's values at
# k = 1..8 on PINNED_GAMMAS, recorded from the one-window solver before it
# took weighted windows. It holds for one numpy build on one CPU; where exp
# or log round differently, re-record it from a solver known to be unchanged.
PINNED_DIGEST = "f4fc87306a5086bbc2b88ee84c854678657a9391c5319d3839149d22dcedb0c0"
PINNED_GAMMAS = np.concatenate([[1e-300, 1e-200, 1e-100, 1e-30, 1e-15, 1e-8],
                                np.linspace(1e-3, 1.0 - 1e-3, 101), [1.0 - 1e-8, 1.0 - 1e-15]])


class TestWeightedWindows:
    """Windows at one tilt meet one weighted mean; one window of weight 1 is
    the plain tilt to a mean, bit for bit."""

    def test_one_window_outputs_are_pinned(self):
        digest = hashlib.sha256()
        for k in range(1, 9):
            lam, p = solve_tilt_grid(k, k * PINNED_GAMMAS)
            for arr in (lam, p, h_tilde_grid(PINNED_GAMMAS, k)):
                digest.update(arr.tobytes())
        assert digest.hexdigest() == PINNED_DIGEST

    @pytest.mark.parametrize("ks", [(1, 2), (2, 5), (1, 3, 8)])
    def test_meets_the_weighted_mean(self, ks):
        from scipy.optimize import brentq

        rng = np.random.default_rng(len(ks))
        a = rng.uniform(0.01, 1.0, size=(40, len(ks)))
        top = a @ np.array(ks, dtype=float)
        m = top * np.concatenate([rng.uniform(0.001, 0.999, 38), [1e-200, 1.0 - 1e-12]])
        s, laws = _tilt_to_mean(ks, m, a)
        means = [p @ np.arange(k + 1.0) for k, p in zip(ks, laws)]
        assert sum(a[:, w] * mw for w, mw in enumerate(means)) == pytest.approx(m, rel=1e-10)
        for r in range(m.size):
            # every window carries the law of the row's one tilt
            for k, p in zip(ks, laws):
                assert np.allclose(p[r], tilted_pmf(k, s[r]).probs, rtol=1e-12, atol=0.0)
            if r < 38:  # the root by a bracketing solver that shares no code
                def residual(t, r=r):
                    return sum(a[r, w] * tilted_pmf(k, t).mean() for w, k in enumerate(ks)) - m[r]

                root = brentq(residual, -200.0, 200.0, xtol=1e-14)
                assert s[r] == pytest.approx(root, abs=1e-9)

    def test_batch_rows_are_one_row_solves(self):
        tail = np.logspace(-15, -1, 8)
        alpha = np.concatenate([tail, np.linspace(0.05, 0.95, 7), 1.0 - tail])
        half = (1.0 - alpha) / 2.0  # the two-user frozen slice's budget at each alpha
        a = np.stack([alpha, half], axis=1)
        s, laws = _tilt_to_mean((1, 2), half, a)
        for r in range(alpha.size):
            s_r, laws_r = _tilt_to_mean((1, 2), half[r : r + 1], a[r : r + 1])
            assert s_r[0] == s[r]
            assert all(np.array_equal(p_r[0], p[r]) for p_r, p in zip(laws_r, laws))

    def test_target_outside_the_weighted_range_raises(self):
        # 0.5 m_1 + 0.5 m_2 ranges over (0, 1.5)
        for m in (0.0, 1.5):
            with pytest.raises(TiltEndpointError):
                _tilt_to_mean((1, 2), [m], (0.5, 0.5))


class TestBinomialPmf:
    def test_fair_coin(self):
        assert np.allclose(binomial_pmf(1, 0.5).probs, [0.5, 0.5])

    def test_degenerate(self):
        assert binomial_pmf(3, 0.0).probs[0] == 1.0
        assert binomial_pmf(3, 1.0).probs[3] == 1.0

    def test_degenerate_rates_are_the_point_masses_bitwise(self):
        # every entry, the zeros too, is the exact point mass at 0 or at k
        for k in range(65):
            for p, at in ((0.0, 0), (1.0, k)):
                expected = np.zeros(k + 1)
                expected[at] = 1.0
                assert binomial_pmf(k, p).probs.tobytes() == expected.tobytes()

    def test_direct_formula(self):
        assert np.allclose(
            binomial_pmf(2, 0.3).probs, [0.49, 0.42, 0.09], atol=1e-12
        )

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_rejects_a_rate_outside_the_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            binomial_pmf(3, p)

    @pytest.mark.parametrize("p", [0.0, 1e-9, 0.5, 1.0])
    def test_coefficients_beyond_the_float_range_name_k(self, p):
        # C(1029, 514) is the last central coefficient below 2^1024
        assert binomial_pmf(1029, p).k == 1029
        with pytest.raises(ValueError, match="k=1030"):
            binomial_pmf(1030, p)


class TestKlProjection:
    """The tilted pmf KL-projects the uniform onto the mean constraint."""

    def test_tilted_minimizes_kl(self):
        rng = np.random.default_rng(1234)
        for k, gamma in ((2, 0.3), (4, 0.62), (7, 0.11)):
            target = k * gamma
            bound = rate_function(k, target) * LOG2E
            uniform = Pmf.uniform(k)
            tilted = solve_tilt(k, target).pmf
            assert kl_divergence(tilted, uniform) == pytest.approx(bound, abs=1e-9)
            for _ in range(1000):
                w = rng.dirichlet(np.ones(k + 1))
                p = _project_mean(w, target)
                assert kl_divergence(p, uniform) >= bound - 1e-6

    def test_two_point_feasible_points_dominate(self):
        k, target = 5, 1.7
        bound = rate_function(k, target) * LOG2E
        for i in range(2):
            for j in range(2, k + 1):
                if i <= target <= j:
                    w = (j - target) / (j - i)
                    probs = np.zeros(k + 1)
                    probs[i], probs[j] = w, 1 - w
                    assert kl_divergence(Pmf(probs), Pmf.uniform(k)) >= bound - 1e-9


def _project_mean(weights: np.ndarray, target: float) -> Pmf:
    """Tilt arbitrary positive weights onto the mean constraint (exactly
    feasible random points for the KL-projection sweep)."""
    from scipy.optimize import brentq

    i = np.arange(weights.size, dtype=float)
    logw = np.log(np.maximum(weights, 1e-300))

    def mean_at(s):
        z = logw + s * i
        z -= z.max()
        w = np.exp(z)
        return float(i @ w / w.sum())

    s = brentq(lambda s: mean_at(s) - target, -200, 200, xtol=1e-13)
    z = logw + s * i
    z -= z.max()
    w = np.exp(z)
    return Pmf(w / w.sum())

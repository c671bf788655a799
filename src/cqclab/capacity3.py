"""Three-user math: shifted-binomial channel law, noisy information ceiling,
and the background-rate-dependent capacity.

With a Bernoulli(r_p) background user sharing the queue, the count a probe
window of length k reveals is the encoder's count plus independent
Bin(k, r_p) noise. The per-slot information ceiling i_tilde(gamma, k, r_p)
is (max H(Y) - H(Bin(k, r_p))) / k over mean-constrained inputs. The capacity
solver mixes two adjacent window lengths under the heavy-traffic budget; that
is a restriction of the optimization, not a property of it: for r_p > 0 the
mixed-window concavity inequality has certified counterexamples (see
`validate_i_concavity`), so non-adjacent mixes can do better.

The inner maximization (max output entropy over a simplex slice) is smooth
and strictly concave, solved by a log-barrier Newton path with an LP duality
gap certificate below GAP_TOL = 1e-9 nats. One solver serves a single point
and a whole stack of mean constraints alike: every row advances in the same
batched KKT solve, so an i_tilde table or a sweep group takes about as many
numpy calls as its slowest point. A point that cannot be certified raises
UncertifiedSolveError instead of being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .dist import Pmf, binomial_pmf, entropy

LN2 = math.log(2.0)

GAP_TOL = 1e-9  # nats; certified suboptimality of the inner maximization
FEAS_TOL = 1e-10  # largest sum / mean residual of a certified inner maximizer
_MU_STAGES = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 5e-13)

TABLE_STEP = 2e-3  # gamma resolution of the interpolation tables
GRID_STEP = 1e-3  # (alpha, gamma1) scan resolution, as in the two-user solver


class InfeasibleError(ValueError):
    """No (alpha, gamma1, gamma2, tau) satisfies the rate budget."""


class UncertifiedSolveError(RuntimeError):
    """An inner max-entropy solve kept an LP gap above GAP_TOL, or a point
    off its constraint slice, from every start of the three-start guard."""


@dataclass(frozen=True)
class ChannelMatrix:
    """Conditional law of the observed count Y given the encoder count X.

    Row x is Bin(tau, r_p) shifted by x, so the output alphabet is
    {0, ..., 2*tau}.
    """

    tau: int
    r_p: float
    rows: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=float)
        if r.shape != (self.tau + 1, 2 * self.tau + 1):
            raise ValueError(f"rows must be ({self.tau + 1}, {2 * self.tau + 1})")
        if np.any(np.abs(r.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("every channel row must sum to 1")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "rows", r)


@dataclass(frozen=True)
class ITildeValue:
    gamma: float
    k: int
    r_p: float
    bits_per_slot: float
    maximizing_input: Pmf

    def __post_init__(self):
        if self.bits_per_slot < -1e-12:
            raise ValueError("information ceiling cannot be negative")
        if abs(self.maximizing_input.mean() - self.k * self.gamma) > 1e-8:
            raise ValueError("maximizing input violates its mean constraint")


@dataclass(frozen=True)
class CapacityResult3:
    r_p: float
    capacity_bits_per_slot: float
    alpha: float
    gamma1: float
    gamma2: float
    tau_star: int
    constraint_residual: float
    per_tau: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.constraint_residual > 1e-8:
            raise ValueError(
                f"constraint residual {self.constraint_residual:.3e} exceeds 1e-8"
            )
        if self.tau_star < 1:
            raise ValueError("tau_star must be >= 1")


def channel_matrix(tau: int, r_p: float) -> ChannelMatrix:
    """Build the shifted-binomial channel for a window of length tau."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    noise = binomial_pmf(tau, r_p).probs
    rows = np.zeros((tau + 1, 2 * tau + 1))
    for x in range(tau + 1):
        rows[x, x : x + tau + 1] = noise
    return ChannelMatrix(tau=tau, r_p=r_p, rows=rows)


def output_mean_check(input_pmf: Pmf, tau: int, r_p: float) -> float:
    """Mean of the output law input * Bin(tau, r_p).

    By linearity this must equal mean(input) + tau * r_p; the identity is
    asserted in the test suite rather than here.
    """
    if input_pmf.k != tau:
        raise ValueError(f"input must live on {{0..{tau}}}")
    py = np.convolve(input_pmf.probs, binomial_pmf(tau, r_p).probs)
    return float(np.arange(py.size) @ py)


def _lp_gaps(g: np.ndarray, p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Linearized suboptimality bound max over the slice of <g, q - p>, per row.

    The vertices of {q >= 0, sum q = 1, mean q = m} are two-point mixtures
    on (i, j) with i <= m <= j, so each row's LP maximum is explicit.
    """
    idx = np.arange(p.shape[1], dtype=float)
    I, J = idx[:, None], idx[None, :]
    mm = m[:, None, None]
    gi, gj = g[:, :, None], g[:, None, :]
    span = np.where(J > I, J - I, 1.0)
    vals = np.where(J > I, ((J - mm) * gi + (mm - I) * gj) / span, gi)
    vals = np.where((I <= mm) & (J >= mm), vals, -np.inf)
    return vals.max(axis=(1, 2)) - (g * p).sum(axis=1)


def _tilt_logw_to_mean(logw: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Exponentially tilt each row of log-weights so its normalized pmf has
    mean m[row].

    The mean is increasing in the tilt s, with derivative the variance, so
    each row takes Newton steps from s = 0 and bisects instead whenever a
    step leaves the bracket its signs have established, within |s| <= 1e5.
    A row whose root lies beyond that gets the pmf at the limit.
    """
    i = np.arange(logw.shape[1], dtype=float)
    lo = np.full(m.size, -1e5)
    hi = np.full(m.size, 1e5)
    s = np.zeros(m.size)
    for _ in range(200):
        z = logw + s[:, None] * i
        w = np.exp(z - z.max(axis=1, keepdims=True))
        p = w / w.sum(axis=1, keepdims=True)
        mean = p @ i
        f = mean - m
        lo = np.where(f < 0, s, lo)
        hi = np.where(f > 0, s, hi)
        var = ((i - mean[:, None]) ** 2 * p).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = s - f / var
        s_new = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
        if (np.abs(s_new - s) <= 1e-13 + 8.9e-16 * np.abs(s)).all():
            break
        s = s_new
    return p


def _entropy_rows(py: np.ndarray) -> np.ndarray:
    """Entropy in nats of each row, skipping entries at or below 1e-300."""
    return -(py * np.log(np.where(py > 1e-300, py, 1.0))).sum(axis=1)


class _SliceEntropySolver:
    """max H(B p) over {p >= 0, sum p = 1, mean p = m} for one (k, r_p),
    for a whole stack of mean constraints at once.

    Log-barrier Newton path following: the objective is strictly concave
    (the shifted-binomial rows are linearly independent), the barrier keeps
    iterates strictly positive, and each stage's equality-constrained Newton
    system carries a residual-correction term so slightly infeasible warm
    starts are pulled back onto the constraint plane. Every row advances in
    the same batched KKT solve but keeps its own step length, line search
    and stopping test; a single point is the one-row case. Each final
    iterate is certified by its LP gap and its distance from the slice; an
    uncertified row is re-solved from the other default starts, and one
    still uncertified raises UncertifiedSolveError.
    """

    def __init__(self, k: int, r_p: float):
        self.k = k
        self.r_p = r_p
        full = channel_matrix(k, r_p).rows
        self.col_mask = full.sum(axis=0) > 0
        self.B = np.ascontiguousarray(full[:, self.col_mask])
        self.Bt = np.ascontiguousarray(self.B.T)
        self.x = np.arange(k + 1.0)
        self.noise_entropy_bits = entropy(binomial_pmf(k, r_p))

    def values_nats(self, p: np.ndarray) -> np.ndarray:
        return _entropy_rows(np.maximum(p, 0.0) @ self.B)

    def grads_nats(self, p: np.ndarray) -> np.ndarray:
        py = np.maximum(np.maximum(p, 0.0) @ self.B, 1e-300)
        return -((np.log(py) + 1.0) @ self.Bt)

    def _barrier_path(self, p: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Run every mu stage of the barrier path on each row of p.

        A row leaves a stage after 60 Newton steps, on a step below 1e-14,
        when its line search fails, or once it moves less than 1e-13.
        """
        rows, n = p.shape
        B, Bt, x = self.B, self.Bt, self.x
        kkt = np.zeros((rows, n + 2, n + 2))
        kkt[:, :n, n] = kkt[:, n, :n] = 1.0
        kkt[:, :n, n + 1] = kkt[:, n + 1, :n] = x
        rhs = np.empty((rows, n + 2, 1))
        for mu in _MU_STAGES:
            p = np.maximum(p, 1e-150)  # barrier needs strict positivity (and p**2 > 0)
            live, q, mm = np.arange(rows), p, m  # rows still moving, their iterates and means
            for _ in range(60):
                K, r = kkt[: live.size], rhs[: live.size]
                py = np.maximum(q @ B, 1e-300)
                logpy = np.log(py)
                np.matmul(B / -py[:, None, :], Bt, out=K[:, :n, :n])
                K.reshape(live.size, -1)[:, : n * (n + 3) : n + 3] -= mu / q**2  # diagonal
                r[:, :n, 0] = (logpy + 1.0) @ Bt - mu / q
                r[:, n, 0] = 1.0 - q.sum(axis=1)
                r[:, n + 1, 0] = mm - q @ x
                try:
                    sol = np.linalg.solve(K, r)
                except np.linalg.LinAlgError:  # a singular row: least squares, row by row
                    sol = np.stack([np.linalg.lstsq(a, b, rcond=None)[0]
                                    for a, b in zip(K, r)])
                dp = sol[:, :n, 0]
                step = np.abs(dp).max(axis=1)
                ratio = np.divide(q, -dp, out=np.full_like(q, np.inf), where=dp < 0)
                t = np.minimum(1.0, 0.99 * ratio.min(axis=1))

                base = _entropy_rows(py) + mu * np.log(q).sum(axis=1)
                todo = step >= 1e-14
                accepted = np.zeros(live.size, dtype=bool)
                for _ in range(50):
                    cand = q + t[:, None] * dp
                    pos = cand > 0
                    barrier = np.log(np.where(pos, cand, 1.0)).sum(axis=1)
                    merit = self.values_nats(cand) + mu * barrier
                    ok = todo & pos.all(axis=1) & (merit >= base - 1e-12)
                    accepted |= ok
                    todo &= ~ok
                    if not todo.any():
                        break
                    t[todo] *= 0.5
                q = np.where(accepted[:, None], np.maximum(cand, 1e-150), q)
                keep = accepted & (step * t >= 1e-13)
                if not keep.all():
                    p[live] = q
                    live, q, mm = live[keep], q[keep], mm[keep]
                    if live.size == 0:
                        break
            p[live] = q
        return p

    def _certify(self, starts: np.ndarray, m: np.ndarray):
        p = self._barrier_path(starts, m)
        gap = _lp_gaps(self.grads_nats(p), p, m)
        # the LP bound certifies only a point on the constraint slice
        residual = np.maximum(np.abs(p.sum(axis=1) - 1.0), np.abs(p @ self.x - m))
        gap[residual > FEAS_TOL] = np.inf
        return p, self.values_nats(p), gap

    def solve(self, gammas, init: np.ndarray | None = None):
        """Solve every mean constraint k * gammas[row] in one batch.

        `init` optionally holds one warm-start pmf per row. Returns (max
        entropy in bits, maximizing pmfs, certified gaps in nats), one row
        per gamma. Interior rows start from `init` (re-tilted onto their
        mean) or the tilted pmf; rows left uncertified (gap above GAP_TOL or
        off the slice, reported as an infinite gap) are re-solved from the
        remaining default starts (uniform-feasible and endpoint mixtures,
        plus the tilted pmf after a warm start) and keep the best certified
        result.
        """
        k = self.k
        gammas = np.asarray(gammas, dtype=float)
        p = np.zeros((gammas.size, k + 1))
        gaps = np.zeros(gammas.size)
        if k == 1:
            p[:, 0], p[:, 1] = 1.0 - gammas, gammas
            inner = np.empty(0, dtype=int)
        else:
            p[gammas <= 0.0, 0] = 1.0
            p[gammas >= 1.0, k] = 1.0
            inner = np.flatnonzero((gammas > 0.0) & (gammas < 1.0))
        if inner.size:
            g = gammas[inner]
            m = k * g
            if init is None:
                logw = np.zeros((g.size, k + 1))
            else:
                logw = np.log(np.maximum(np.asarray(init, dtype=float)[inner], 1e-300))
            q, _, gap = self._certify(_tilt_logw_to_mean(logw, m), m)
            bad = np.flatnonzero(gap > GAP_TOL)
            if bad.size:
                q[bad], gap[bad] = self._guard(g[bad], retry_base=init is not None)
            p[inner], gaps[inner] = q, gap
        return self.values_nats(p) / LN2, p, gaps

    def _guard(self, g: np.ndarray, retry_base: bool):
        """Re-solve uncertified rows from the other default starts, batched."""
        k = self.k
        base = _tilt_logw_to_mean(np.zeros((g.size, k + 1)), k * g)
        w = 2 * np.minimum(g, 1 - g)  # uniform share; the rest sits on the near endpoint
        unif_mix = w[:, None] * np.full(k + 1, 1.0 / (k + 1))
        unif_mix[np.arange(g.size), np.where(g <= 0.5, 0, k)] += 1 - w
        endpoint = np.zeros_like(base)
        endpoint[:, 0], endpoint[:, k] = 1 - g, g
        starts = [0.99 * unif_mix + 0.01 * base, 0.99 * endpoint + 0.01 * base]
        if retry_base:
            starts.insert(0, base)
        m = np.tile(k * g, len(starts))
        logw = np.log(np.maximum(np.concatenate(starts), 1e-300))
        p, val, gap = self._certify(_tilt_logw_to_mean(logw, m), m)
        shape = (len(starts), g.size)
        p, val, gap = p.reshape(*shape, k + 1), val.reshape(shape), gap.reshape(shape)
        val = np.where(gap <= GAP_TOL, val, -np.inf)
        best = val.argmax(axis=0)
        cols = np.arange(g.size)
        uncertified = np.isinf(val[best, cols])
        if uncertified.any():
            j = int(np.flatnonzero(uncertified)[0])
            raise UncertifiedSolveError(
                f"inner solve at gamma={g[j]}, k={k}, r_p={self.r_p} has LP gap "
                f"{gap[:, j].min():.3e} nats > GAP_TOL={GAP_TOL:.0e} from every start"
            )
        return p[best, cols], gap[best, cols]


_solver_cache: dict[tuple[int, float], _SliceEntropySolver] = {}


def _solver(k: int, r_p: float) -> _SliceEntropySolver:
    key = (k, float(r_p))
    if key not in _solver_cache:
        if len(_solver_cache) > 256:
            _solver_cache.clear()
        _solver_cache[key] = _SliceEntropySolver(k, r_p)
    return _solver_cache[key]


def h_check(gamma: float, k: int, r_p: float) -> tuple[float, Pmf]:
    """Maximum output entropy (bits) over inputs on {0..k} with mean k*gamma.

    The output is the input convolved with Bin(k, r_p). Solved via the
    barrier Newton path with a three-start guard (tilted, uniform-feasible
    mixture, endpoint mixture); the returned point carries an LP gap below
    GAP_TOL (1e-9 nats), or UncertifiedSolveError is raised.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"infeasible mean: gamma={gamma} outside [0, 1]")
    bits, p, _gap = _solver(k, r_p).solve([gamma])
    return float(bits[0]), Pmf(p[0])


def i_tilde(gamma: float, k: int, r_p: float) -> ITildeValue:
    """Per-slot information ceiling through the shifted-binomial channel."""
    bits, p = h_check(gamma, k, r_p)
    noise_bits = _solver(k, r_p).noise_entropy_bits
    return ITildeValue(
        gamma=gamma,
        k=k,
        r_p=r_p,
        bits_per_slot=max((bits - noise_bits) / k, 0.0),
        maximizing_input=p,
    )


def i_tilde_curve(gammas, k: int, r_p: float) -> np.ndarray:
    """i_tilde values (bits per slot) over a nondecreasing gamma grid in [0, 1].

    All points are solved cold in one batched barrier-Newton call, each
    certified like a single `i_tilde` solve (UncertifiedSolveError
    otherwise), so the curve agrees with pointwise solves.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1 or (np.diff(gammas) < 0).any():
        raise ValueError("gammas must be a nondecreasing 1-D grid")
    if not (np.isfinite(gammas) & (gammas >= 0.0) & (gammas <= 1.0)).all():
        raise ValueError("gammas must be finite and lie in [0, 1]")
    sv = _solver(k, r_p)
    bits, _, _ = sv.solve(gammas)
    return np.maximum((bits - sv.noise_entropy_bits) / k, 0.0)


def _i_tilde_fast(gamma: float, k: int, r_p: float, warm: dict) -> float:
    sv = _solver(k, r_p)
    bits, p, _ = sv.solve([gamma], init=warm.get(k))
    warm[k] = p
    return max((float(bits[0]) - sv.noise_entropy_bits) / k, 0.0)


def solve_capacity_3user(r_p: float, tau_max: int = 8) -> CapacityResult3:
    """Capacity of the channel when a Bernoulli(r_p) background user is present.

    For tau = 1, 2, ... the solver maximizes
    alpha * i_tilde(gamma1, tau) + (1 - alpha) * i_tilde(gamma2, tau + 1)
    subject to alpha*(gamma1 + 1/tau) + (1 - alpha)*(gamma2 + 1/(tau+1))
    = 1 - r_p, stopping at the first tau whose optimum decreases. Mixing
    only adjacent lengths (tau, tau + 1), and stopping early, is a
    restriction. It is backed at r_p = 0, where the mixed-window concavity
    inequality is a theorem, but that inequality has certified
    counterexamples for r_p > 0, so there the returned value can fall short
    of the best mix over all window lengths up to tau_max. Each
    per-tau problem eliminates gamma2, scans (alpha, gamma1) on a 1e-3 grid
    against interpolated i_tilde tables (each window length's table is
    built once per call and shared by the two tau steps that use it), then
    refines on the exact objective. All per-tau optima are kept for audit.
    """
    if not 0.0 <= r_p < 1.0:
        raise ValueError("r_p must lie in [0, 1)")
    if tau_max < 2:
        raise ValueError("tau_max must be >= 2")
    budget = 1.0 - r_p
    feasible_taus = [t for t in range(1, tau_max) if budget >= 1.0 / (t + 1) - 1e-12]
    if not feasible_taus:
        raise InfeasibleError(
            f"rate budget {budget} cannot be met with tau <= {tau_max - 1}"
        )

    gammas = np.arange(0.0, 1.0 + TABLE_STEP / 2, TABLE_STEP)
    alphas = np.arange(0.0, 1.0, GRID_STEP)
    tables: dict[int, np.ndarray] = {}  # window length -> i_tilde table, built once
    per_tau: dict[int, float] = {}
    best = None
    prev_val = -np.inf
    for tau in feasible_taus:
        for k in (tau, tau + 1):
            if k not in tables:
                tables[k] = i_tilde_curve(gammas, k, r_p)
        table1, table2 = tables[tau], tables[tau + 1]
        inv1, inv2 = 1.0 / tau, 1.0 / (tau + 1)

        A, G1 = np.meshgrid(alphas, gammas, indexing="ij")
        G2 = (budget - A * (G1 + inv1)) / (1.0 - A) - inv2
        ok = (G2 >= -1e-12) & (G2 <= 1.0 + 1e-12)
        obj = np.where(
            ok,
            A * np.interp(G1, gammas, table1)
            + (1.0 - A) * np.interp(np.clip(G2, 0.0, 1.0), gammas, table2),
            -np.inf,
        )
        ia, ig = np.unravel_index(int(np.argmax(obj)), obj.shape)

        warm: dict[int, np.ndarray] = {}

        def exact_neg(xv, _tau=tau, _inv1=inv1, _inv2=inv2, _warm=warm):
            a, g1 = float(xv[0]), float(xv[1])
            if not (0.0 <= a < 1.0 and 0.0 <= g1 <= 1.0):
                return np.inf
            g2 = (budget - a * (g1 + _inv1)) / (1.0 - a) - _inv2
            if not -1e-9 <= g2 <= 1.0 + 1e-9:
                return np.inf
            g2 = min(max(g2, 0.0), 1.0)
            return -(
                a * _i_tilde_fast(g1, _tau, r_p, _warm)
                + (1.0 - a) * _i_tilde_fast(g2, _tau + 1, r_p, _warm)
            )

        res = minimize(
            exact_neg,
            np.array([alphas[ia], gammas[ig]]),
            method="Nelder-Mead",
            options=dict(xatol=1e-7, fatol=1e-10, maxiter=400),
        )
        val, a_opt, g1_opt = -float(res.fun), float(res.x[0]), float(res.x[1])
        g2_opt = min(max((budget - a_opt * (g1_opt + inv1)) / (1.0 - a_opt) - inv2, 0.0), 1.0)

        # alpha = 1 pins gamma1 through the budget; gamma2 is then irrelevant
        g1_end = budget - inv1
        if 0.0 <= g1_end <= 1.0:
            end_val = i_tilde(g1_end, tau, r_p).bits_per_slot
            if end_val > val:
                val, a_opt, g1_opt, g2_opt = end_val, 1.0, g1_end, 0.0

        per_tau[tau] = val
        if best is None or val > best[0]:
            best = (val, a_opt, g1_opt, g2_opt, tau)
        if val < prev_val:
            break
        prev_val = val

    val, a_opt, g1_opt, g2_opt, tau = best
    lhs = a_opt * (g1_opt + 1.0 / tau) + (1.0 - a_opt) * (g2_opt + 1.0 / (tau + 1))
    residual = abs(lhs - budget) if a_opt < 1.0 else abs(g1_opt + 1.0 / tau - budget)
    return CapacityResult3(
        r_p=r_p,
        capacity_bits_per_slot=val,
        alpha=a_opt,
        gamma1=g1_opt,
        gamma2=g2_opt,
        tau_star=tau,
        constraint_residual=residual,
        per_tau=per_tau,
    )


def degradation_violations(
    gammas,
    ks,
    rp_grid=None,
    tolerance: float = 1e-6,
) -> list[tuple[int, float, float, float, float]]:
    """Report points where the information ceiling rises with the noise rate.

    Returns (k, gamma, r_p_low, r_p_high, increase) for every adjacent pair
    on the noise grid where i_tilde increases by more than `tolerance`.
    Such points exist: the noise is an additive count, so r_p -> 1 is again
    deterministic and the ceiling is not globally monotone.
    """
    if rp_grid is None:
        rp_grid = np.arange(0.0, 0.51, 0.05)
    out = []
    for k in ks:
        for g in gammas:
            vals = [i_tilde(float(g), int(k), float(rp)).bits_per_slot for rp in rp_grid]
            for (r1, v1), (r2, v2) in zip(zip(rp_grid, vals), zip(rp_grid[1:], vals[1:])):
                if v2 > v1 + tolerance:
                    out.append((int(k), float(g), float(r1), float(r2), v2 - v1))
    return out


@dataclass(frozen=True)
class ConcavityReport:
    """Outcome of the numerical mixed-window concavity sweep.

    A violation is a margin below -tolerance. The inequality is a theorem
    only at r_p = 0, so a clean report is expected there; for r_p > 0
    violations are genuine. `max_gap_nats` is the largest LP duality gap of
    the inner H_check solves: while 2 * max_gap_nats / ln 2 (bits) stays
    below tolerance, every reported violation is certified, since the true
    margin exceeds the computed one by at most that much.
    """

    samples: int
    tau_max: int
    worst_margin: float
    worst_location: tuple[int, float, float, float]  # (k, gamma1, gamma3, r_p)
    violations: int
    tolerance: float
    max_gap_nats: float = 0.0

    @property
    def passed(self) -> bool:
        return self.violations == 0


def binomial_entropy_gap(k: int, r_p: float) -> float:
    """H(Bin(k-1)) + H(Bin(k+1)) - 2 H(Bin(k)) in bits, the noise correction
    in the mixed-window concavity inequality."""
    return (
        entropy(binomial_pmf(k - 1, r_p))
        + entropy(binomial_pmf(k + 1, r_p))
        - 2.0 * entropy(binomial_pmf(k, r_p))
    )


def concavity_margin(k: int, gamma1: float, gamma3: float, r_p: float) -> float:
    """Margin of the adjacent-window concavity inequality at one sample point.

    With alpha = (k-1)/(2k) the mixture of windows k-1 and k+1 lands on
    window k; the inequality states
    2*H_check(gamma2, k) - H_check(gamma1, k-1) - H_check(gamma3, k+1)
    + binomial_entropy_gap(k, r_p) >= 0 for gamma2 the matching mixture.
    That is a theorem only at r_p = 0, where it reduces to concavity of the
    noiseless ceiling. For r_p > 0 it has certified counterexamples, e.g.
    (k=2, gamma1=0.1, gamma3=0, r_p=0.05) gives -0.0140155 bits, confirmed
    by brute-force enumeration over the input slice.
    """
    alpha = (k - 1) / (2.0 * k)
    gamma2 = alpha * gamma1 + (1.0 - alpha) * gamma3
    h2, _ = h_check(gamma2, k, r_p)
    h1, _ = h_check(gamma1, k - 1, r_p)
    h3, _ = h_check(gamma3, k + 1, r_p)
    return 2.0 * h2 - h1 - h3 + binomial_entropy_gap(k, r_p)


def validate_i_concavity(
    tau_max: int = 8,
    samples: int = 500,
    seed: int = 0,
    tolerance: float = 1e-6,
    r_p_step: float = 0.05,
) -> ConcavityReport:
    """Numerically sweep the adjacent-window concavity inequality.

    Draws `samples` random (gamma1, gamma3, r_p-from-grid) triples for every
    window length 2 <= k <= tau_max - 1 and reports the worst margin. A
    margin below -tolerance counts as a violation (reported, not raised).
    The inequality is a theorem only at r_p = 0 (r_p_step > 1 restricts the
    grid to {0}); for r_p > 0 the sweep finds certified violations. The
    report carries the largest inner-solve duality gap as `max_gap_nats`,
    which certifies them.
    """
    if tau_max < 3:
        raise ValueError("tau_max must be >= 3")
    rng = np.random.default_rng(seed)
    rp_grid = np.arange(0.0, 1.0, r_p_step)
    worst = (np.inf, (0, 0.0, 0.0, 0.0))
    violations = 0
    total = 0
    max_gap = 0.0
    for k in range(2, tau_max):
        g1s = rng.uniform(0.0, 1.0, size=samples)
        g3s = rng.uniform(0.0, 1.0, size=samples)
        rps = rng.choice(rp_grid, size=samples)
        alpha = (k - 1) / (2.0 * k)
        g2s = alpha * g1s + (1 - alpha) * g3s
        margins = np.empty(samples)
        for rp in np.unique(rps):
            sel = rps == rp
            b2, _, gap2 = _solver(k, rp).solve(g2s[sel])
            b1, _, gap1 = _solver(k - 1, rp).solve(g1s[sel])
            b3, _, gap3 = _solver(k + 1, rp).solve(g3s[sel])
            max_gap = max(max_gap, gap1.max(), gap2.max(), gap3.max())
            margins[sel] = 2 * b2 - b1 - b3 + binomial_entropy_gap(k, float(rp))
        total += samples
        violations += int((margins < -tolerance).sum())
        if samples:
            # ties go to the first sample in (r_p, gamma2) order
            order = np.lexsort((g2s, rps))
            i = int(order[np.argmin(margins[order])])
            if margins[i] < worst[0]:
                worst = (float(margins[i]), (k, float(g1s[i]), float(g3s[i]), float(rps[i])))
    return ConcavityReport(
        samples=total,
        tau_max=tau_max,
        worst_margin=worst[0],
        worst_location=worst[1],
        violations=violations,
        tolerance=tolerance,
        max_gap_nats=float(max_gap),
    )

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
and strictly concave, solved by a primal-dual interior-point iteration
(`_primal_dual`) that ends each row at an LP duality gap of rounding level,
about 1e-13 nats, and certifies it below GAP_TOL = 1e-9 nats. One call
(`_slices`) solves a whole batch of rows at one window length k: every row
advances in the same batched KKT solve and leaves once its own gap is at
rounding level, so an i_tilde table takes about as many numpy calls as its
slowest point. Rows may differ in their noise rate r_p, so a sweep over
many rates (`validate_i_concavity`, `degradation_violations`) is one solve
per window length. Every row carries its own channel and its products go
row by row, so a point has the same bits solved alone, in a one-rate batch
or among other rates. Each (k, r_p) has one cached channel record
(`_channel`), built from one binomial pmf: the channel rows and the noise
entropy H(Bin(k, r_p)), so the concavity sweep's noise gaps reuse the
records of its slice solves. Each loop certifies its own rows: it returns
each row's LP gap, infinite for a row off its constraint plane, so its
callers only name an uncertified point (k, gamma and r_p for a slice) and
raise UncertifiedSolveError.

The best mix of windows k in {tau, tau + 1} at budget c = 1 - r_p is one
concave program: with q_k = alpha_k * p_k, the share-weighted entropy
alpha_k * H(B_k p_k) is the perspective of a concave function (Boyd &
Vandenberghe 2004, sec. 3.2.6), so the pair maximizes a concave function
of q >= 0 under two linear equalities, by one log-barrier Newton path
(ibid., ch. 11) certified by its LP gap. The pair program runs that
barrier path (`_newton_path`) through fixed mu stages; the slice solve runs
the primal-dual loop. Both loops share one objective contract and one KKT
layout (`_kkt`): `parts` returns an objective's per-row arrays, the value
first, and `newton` turns them into the gradient and writes the Hessian;
the barrier path keeps the parts of its line search for the next step, and
the primal-dual loop writes Hessians only for the rows that stay.
`solve_capacity_grid` runs the tau loops of many rates in one sweep over
ascending tau, each tau one program path for the pairs of every rate still
in its loop, then one slice path per window length for the pairs whose
optimum is one window alone, each such point solved once in the sweep;
`solve_capacity_3user` is its one-rate case. Both two-user solves in
`capacity2` return its r_p = 0 result; the free one is
`solve_capacity_3user(0.0, tau_max=2)`, the pair (1, 2). Every result, the
frozen two-user slice's too, is built by `_result`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dist import Pmf, _count, binomial_pmf, entropy

LN2 = math.log(2.0)

GAP_TOL = 1e-9  # nats; certified suboptimality of the inner maximization
FEAS_TOL = 1e-10  # largest sum / mean residual of a certified inner maximizer
_PROGRAM_MU_STAGES = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16)
_CHUNK_KKT = 1 << 16  # rows x (k + 3)^2 KKT entries per path of a slice solve (0.5 MB)

PAIR_GAP_TOL = 1e-9  # bits; largest duality gap of a certified window pair
PURE_SHARE = 1e-9  # a window share at or below this reads as 0 (see _pair_programs)


class InfeasibleError(ValueError):
    """No (alpha, gamma1, gamma2, tau) satisfies the rate budget."""


class UncertifiedSolveError(RuntimeError):
    """An inner solve or a pair program ended uncertified (LP gap above
    GAP_TOL, or off its constraints), or a window pair's gap exceeds
    PAIR_GAP_TOL."""


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
        if not (np.abs(r.sum(axis=1) - 1.0) <= 1e-12).all():
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
        if not self.bits_per_slot >= -1e-12:
            raise ValueError("information ceiling cannot be negative")
        if not abs(self.maximizing_input.mean() - self.k * self.gamma) <= 1e-8:
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
    per_tau_gap: dict[int, float] = field(default_factory=dict)  # bits, upper bound minus value
    gap_bits: float = 0.0  # the certified gap of the winning pair
    windows: tuple[tuple[int, float], ...] = ()  # (window length, share) with share > 0
    witness: tuple[tuple[int, float, tuple[float, ...]], ...] = ()  # (k, share, input law) per window

    def __post_init__(self):
        if not 0.0 <= self.capacity_bits_per_slot <= 1.0 + 1e-12:
            raise ValueError("capacity outside [0, 1]")
        if not self.constraint_residual <= 1e-9:
            raise ValueError(
                f"constraint residual {self.constraint_residual:.3e} exceeds 1e-9"
            )
        if self.tau_star < 1:
            raise ValueError("tau_star must be >= 1")


@functools.lru_cache(maxsize=1024)
def _channel(k: int, r_p: float) -> tuple[ChannelMatrix, float]:
    """The channel record of (k, r_p), k >= 0, built once from one
    binomial_pmf: the shifted-binomial ChannelMatrix and the noise entropy
    H(Bin(k, r_p)) in bits."""
    noise = binomial_pmf(k, r_p)
    rows = np.zeros((k + 1, 2 * k + 1))
    for x in range(k + 1):
        rows[x, x : x + k + 1] = noise.probs
    return ChannelMatrix(tau=k, r_p=r_p, rows=rows), entropy(noise)


def channel_matrix(tau: int, r_p: float) -> ChannelMatrix:
    """The shifted-binomial channel for a window of length tau."""
    return _channel(_count("tau", tau, 1), r_p)[0]


def output_mean_check(input_pmf: Pmf, tau: int, r_p: float) -> float:
    """Mean of the output law input * Bin(tau, r_p).

    By linearity this must equal mean(input) + tau * r_p; the identity is
    asserted in the test suite rather than here.
    """
    tau = _count("tau", tau, 0)
    if input_pmf.k != tau:
        raise ValueError(f"input must live on {{0..{tau}}}")
    py = np.convolve(input_pmf.probs, binomial_pmf(tau, r_p).probs)
    return float(np.arange(py.size) @ py)


def _lp_gaps(g: np.ndarray, p: np.ndarray, m: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Linearized suboptimality bound max over the polytope of <g, q - p>, per row.

    Entry i sits at pos[i]: its mean in a slice solve (its index), its
    budget cost in a pair program. The vertices of
    {q >= 0, sum q = 1, <pos, q> = m} are two-point mixtures on (i, j) with
    pos[i] < m < pos[j], and the points i with pos[i] = m, so each row's LP
    maximum is explicit.
    """
    i, j = np.nonzero(pos[:, None] < pos[None, :])  # the pairs with pos[i] < pos[j]
    lo, hi, mm = pos[i], pos[j], m[:, None]
    mix = ((hi - mm) * g[:, i] + (mm - lo) * g[:, j]) / (hi - lo)
    vals = np.where((lo <= mm) & (hi >= mm), mix, -np.inf).max(axis=1)
    return np.maximum(vals, np.where(pos == mm, g, -np.inf).max(axis=1)) - (g * p).sum(axis=1)


def _entropy_rows(py: np.ndarray) -> np.ndarray:
    """Entropy in nats of each row, skipping entries at or below 1e-300."""
    return -(py * np.log(np.where(py > 1e-300, py, 1.0))).sum(axis=1)


def _times(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v[r] @ M[r] for every row r, M stacking one matrix per row."""
    return np.matmul(v[:, None, :], M)[:, 0]


def _lhs(q: np.ndarray, A: np.ndarray) -> np.ndarray:
    """A q of every row q, each entry a sum over the row, so that no row
    depends on the others."""
    return (q[:, None, :] * A).sum(axis=2)


def _kkt(rows: int, n: int, A: np.ndarray):
    """Preallocated KKT systems of `rows` Newton steps on n entries under the
    constraints A, whose blocks A are set once: returns the matrices, their
    right-hand sides and the views every step writes, the Hessian block, its
    diagonal and the two right-hand sides."""
    size = n + A.shape[0]
    kkt = np.zeros((rows, size, size))
    kkt[:, :n, n:], kkt[:, n:, :n] = A.T, A
    rhs = np.empty((rows, size, 1))
    diag = kkt.reshape(rows, -1)[:, : n * (size + 1) : size + 1]
    return kkt, rhs, kkt[:, :n, :n], diag, rhs[:, :n, 0], rhs[:, n:, 0]


def _to_boundary(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """The fraction-to-boundary step min(1, 0.99 * min x / -dx over dx < 0)
    of every row, which keeps x + t dx > 0."""
    with np.errstate(over="ignore"):  # a subnormal step entry: the ratio is inf
        ratio = np.divide(x, -dx, out=np.full_like(x, np.inf), where=dx < 0)
    return np.minimum(1.0, 0.99 * ratio.min(axis=1))


def _newton_path(q, A, b, data, model, stages):
    """Log-barrier Newton path (Boyd & Vandenberghe 2004, ch. 11) on every
    row of q, the pair program's solver: maximize the concave objective
    f(q) + mu * sum(log q) over {A q = b[row]} for each mu in `stages`.
    The pair program keeps it because `_primal_dual` stalls where a
    window's share goes to 0 (an LP gap of 0.34 nats for the pair (5, 6) at
    r_p = 0): the vanishing window's normalized law leaves the central path.

    `data` holds per-row arrays of the objective; a row leaves the loop
    with its data. The objective has two methods. model.parts(q, data)
    returns per-row arrays, the value f first; a row's parts depend on that
    row alone. model.newton(q, data, parts, H=None) returns the gradient
    from the parts at q and, given H, a view of the preallocated KKT
    matrices (`_kkt`), writes the Hessian there. In the path the line
    search evaluates parts at each candidate and reads the value as
    parts[0], and those of the accepted point serve
    the next Newton step, unless the 1e-150 floor moved an entry, when the
    step evaluates them afresh (as it does at the start of each stage). The
    barrier value of the accepted point likewise serves as the next line
    search's base. Each stage's equality-constrained Newton system carries
    the residual b - A q, which pulls rounding drift back onto the
    constraint plane. Every row advances in the same batched KKT solve but
    keeps its own fraction-to-boundary step, line search (50 halvings) and
    stopping test. A row leaves a stage after 60 Newton steps, on a step
    below 1e-14, when its line search fails, or once its accepted move is
    below the stage's mu (at least 1e-13): the next stage moves the centre
    by about mu, so centering need not be exact before the last stage
    (Boyd & Vandenberghe 2004, sec. 11.3). In the last stage the bound is
    1e-13, and a row that moves less keeps going while its Newton decrement
    -dq' H dq is at least 1e-18: its entries near 1e-12, which set the LP
    gap, may still be moving. A singular KKT system gives every row of its
    step a NaN step: none moves, and all leave the stage.

    Returns the final iterates, their objective values and their LP gaps
    (`_lp_gaps`, A's rows being the ones and the positions), a gap infinite
    for a row off its constraint plane by more than FEAS_TOL, since the LP
    bound certifies only a feasible point.
    """
    rows, n = q.shape
    kkt, rhs, hess, diag, grad_rhs, feas_rhs = _kkt(rows, n, A)
    for mu in stages:
        last = mu == stages[-1]
        settled = 1e-13 if last else max(mu, 1e-13)  # a row's move below this ends its stage
        q = np.maximum(q, 1e-150)  # barrier needs strict positivity (and q**2 > 0)
        live, ql, bl, dl = np.arange(rows), q, b, data  # the rows still moving
        parts = None  # the objective's parts at ql, when the line search left them
        for _ in range(60):
            m = live.size
            if parts is None:
                parts = model.parts(ql, dl)
                base = parts[0] + mu * np.log(ql).sum(axis=1)  # the barrier objective at ql
            g = model.newton(ql, dl, parts, hess[:m])
            diag[:m] -= mu / ql**2
            grad_rhs[:m] = -g - mu / ql
            feas_rhs[:m] = bl - _lhs(ql, A)
            try:
                dq = np.linalg.solve(kkt[:m], rhs[:m])[:, :n, 0]
            except np.linalg.LinAlgError:
                dq = np.full_like(ql, np.nan)
            step = np.abs(dq).max(axis=1)
            moving = last and np.einsum("ri,rij,rj->r", dq, hess[:m], dq) <= -1e-18
            t = _to_boundary(ql, dq)
            todo = step >= 1e-14
            accepted = np.zeros(m, dtype=bool)
            for _ in range(50):
                cand = ql + t[:, None] * dq
                inside = (cand > 0).all(axis=1)
                cq = cand if inside.all() else np.where(inside[:, None], cand, 1.0)
                parts = model.parts(cq, dl)
                value = parts[0] + mu * np.log(cq).sum(axis=1)
                ok = todo & inside & (value >= base - 1e-12)
                accepted |= ok
                todo &= ~ok
                if not todo.any():
                    break
                t[todo] *= 0.5
            ql = np.where(accepted[:, None], np.maximum(cand, 1e-150), ql)
            keep = accepted & ((step * t >= settled) | moving)
            if not (cand[keep] >= 1e-150).all():  # a floored entry moved a kept row off cq
                parts = None
            base = value  # the kept rows' barrier objective, at the accepted cq
            if not keep.all():
                q[live] = ql
                live, ql, bl, base = live[keep], ql[keep], bl[keep], base[keep]
                dl = tuple(d[keep] for d in dl)
                parts = parts and tuple(x[keep] for x in parts)
                if live.size == 0:
                    break
        q[live] = ql
    parts = model.parts(q, data)
    gap = _lp_gaps(model.newton(q, data, parts), q, b[:, 1], A[1])
    gap[~(np.abs(_lhs(q, A) - b).max(axis=1) <= FEAS_TOL)] = np.inf
    return q, parts[0], gap


def _primal_dual(q, A, b, data, model):
    """Primal-dual interior-point iteration (Wright 1997, *Primal-Dual
    Interior-Point Methods*) on every row of q, the slice solver: maximize
    the concave objective f(q) over {q >= 0, A q = b[row]}.

    Each row carries bound multipliers z > 0 and takes Newton steps on
    grad f - A'nu + z = 0, A q = b, q * z = sigma * mu, with sigma = 0.1 and
    mu = q'z / n its own complementarity. Eliminating the step on z leaves
    `_newton_path`'s KKT system (`_kkt`) with z / q in place of mu / q**2 and
    sigma * mu / q in place of mu / q, and its multiplier block solves for
    the new nu itself, so nu needs no state. The step on q and the step on
    z each take their own fraction-to-boundary limit (`_to_boundary`), and q
    keeps the barrier path's 1e-150 floor. The rows start on the central
    path at mu = 1e-2, z = mu / q. The objective contract is
    `_newton_path`'s, and a row leaves with its data.

    Each step evaluates the parts and the gradient of its live rows once and
    certifies every row by its LP gap (`_lp_gaps`, infinite off the
    constraint plane by more than FEAS_TOL, since the LP bound certifies
    only a feasible point). A row whose gap is at most 1e-13 nats, rounding
    level, leaves with the value and gap of that step; only the rows that
    stay get a Hessian and a Newton step. A row still live after 100 steps,
    or at a singular KKT system, which stops every row of its step where it
    stands, leaves with the certificate of its last iterate.

    Returns the final iterates, their objective values and their LP gaps.
    """
    rows, n = q.shape
    kkt, rhs, hess, diag, grad_rhs, feas_rhs = _kkt(rows, n, A)
    q = np.maximum(q, 1e-150)
    value, gap = np.empty(rows), np.empty(rows)
    live, ql, zl, bl, dl = np.arange(rows), q, 1e-2 / q, b, data  # the rows still moving
    for left in range(100, -1, -1):  # the steps left after this certificate
        parts = model.parts(ql, dl)
        g = model.newton(ql, dl, parts)
        res = bl - _lhs(ql, A)
        gl = _lp_gaps(g, ql, bl[:, 1], A[1])
        gl[~(np.abs(res).max(axis=1) <= FEAS_TOL)] = np.inf
        done = (gl <= 1e-13) | (left == 0)
        if done.any():
            out = live[done]
            q[out], value[out], gap[out] = ql[done], parts[0][done], gl[done]
            if done.all():
                break
            keep = ~done
            live, ql, zl, bl, res, gl = (x[keep] for x in (live, ql, zl, bl, res, gl))
            dl, parts = (tuple(x[keep] for x in y) for y in (dl, parts))
        m = live.size
        g = model.newton(ql, dl, parts, hess[:m])
        smu = 0.1 * (ql * zl).sum(axis=1, keepdims=True) / n  # sigma * mu
        diag[:m] -= zl / ql
        grad_rhs[:m] = -g - smu / ql
        feas_rhs[:m] = res
        try:
            dq = np.linalg.solve(kkt[:m], rhs[:m])[:, :n, 0]
        except np.linalg.LinAlgError:
            q[live], value[live], gap[live] = ql, parts[0], gl
            break
        dz = smu / ql - zl - zl / ql * dq
        ql = np.maximum(ql + _to_boundary(ql, dq)[:, None] * dq, 1e-150)
        zl = zl + _to_boundary(zl, dz)[:, None] * dz
    return q, value, gap


class _SliceObjective:
    """H(B p) in nats, the objective of a slice solve. A row's data are its
    channel B, so its products go row by row. The loop certifies every
    iterate it evaluates, so the parts carry the gradient."""

    def parts(self, q, data):  # objective, outputs B p floored at 1e-300, gradient
        B = data[0]
        py = _times(q, B)
        fy = np.maximum(py, 1e-300)
        return _entropy_rows(py), fy, -_times(np.log(fy) + 1.0, B.transpose(0, 2, 1))

    def newton(self, q, data, parts, H=None):
        if H is not None:
            np.matmul(data[0] / -parts[1][:, None, :], data[0].transpose(0, 2, 1), out=H)
        return parts[2]


def _slices(k: int, r_p, gammas):
    """max H(B p) over the slice {p >= 0, sum p = 1, mean p = k * gamma} for
    every gamma in one batch, at window k and noise rate r_p (one value, or
    one per row), B the shifted-binomial channel of the row.

    Each interior row starts from the centre of its slice: a share
    2 * min(gamma, 1 - gamma) on the uniform pmf and the rest on the near
    endpoint, which meets the mean exactly. It then runs `_primal_dual` (the
    objective is strictly concave: the shifted-binomial rows are linearly
    independent), which ends each row once its LP gap is at most 1e-13 nats
    and certifies it by that gap and its distance from the slice. Rows at
    gamma 0 or 1, and every row at k = 1, have a one-point slice. An
    interior row left uncertified (gap above GAP_TOL, or off the slice)
    raises UncertifiedSolveError naming its k, gamma and r_p.

    Every row takes its own (k + 1) x (2k + 1) channel and its products go
    row by row, whether the call has one rate or many, so a row's arithmetic
    does not depend on the other rows of its call (short of a singular KKT
    matrix, which stops every row of its Newton step): a
    point has the same value solved alone, in a one-rate batch or among
    other rates. The rows run in chunks of _CHUNK_KKT // (k + 3)^2, which
    bounds the KKT matrices of a path (a 501-point curve at k <= 8 is one
    path).

    Returns (max output entropy in bits, certified gaps in nats, noise
    entropy H(Bin(k, r_p)) in bits, the maximizing pmfs), one row per gamma.
    """
    gammas = np.asarray(gammas, dtype=float)
    n = gammas.size
    rates, chan = np.unique(np.broadcast_to(r_p, n), return_inverse=True)
    records = [_channel(k, float(rp)) for rp in rates]
    stack = np.array([cm.rows for cm, _ in records])
    A = np.stack([np.ones(k + 1), np.arange(k + 1.0)])
    model, size = _SliceObjective(), max(_CHUNK_KKT // (k + 3) ** 2, 1)
    bits, gaps, p = np.empty(n), np.zeros(n), np.zeros((n, k + 1))
    for c in (slice(i, i + size) for i in range(0, n, size)):
        g, pc, data = gammas[c], p[c], (stack[chan[c]],)
        if k == 1:  # a window of length 1 has a one-point slice
            pc[:, 0], pc[:, 1] = 1.0 - g, g
            inner = np.zeros(0, dtype=int)
        else:
            pc[g <= 0.0, 0], pc[g >= 1.0, k] = 1.0, 1.0
            inner = np.flatnonzero((g > 0.0) & (g < 1.0))
        if inner.size:
            gi, di = g[inner], tuple(d[inner] for d in data)
            w = 2 * np.minimum(gi, 1 - gi)  # uniform share; the rest on the near endpoint
            q = np.repeat((w / (k + 1))[:, None], k + 1, axis=1)
            q[np.arange(gi.size), np.where(gi <= 0.5, 0, k)] += 1 - w
            b = np.stack([np.ones(gi.size), k * gi], axis=1)
            q, _, gap = _primal_dual(q, A, b, di, model)
            bad = np.flatnonzero(~(gap <= GAP_TOL))
            if bad.size:
                j = bad[0]
                raise UncertifiedSolveError(
                    f"inner solve at gamma={gi[j]}, k={k}, r_p={rates[chan[c][inner[j]]]} has "
                    f"LP gap {gap[j]:.3e} nats > GAP_TOL={GAP_TOL:.0e}"
                )
            pc[inner], gaps[c][inner] = q, gap
        bits[c] = model.parts(pc, data)[0] / LN2
    return bits, gaps, np.array([h for _, h in records])[chan], p


def h_check(gamma: float, k: int, r_p: float) -> tuple[float, Pmf]:
    """Maximum output entropy (bits) over inputs on {0..k} with mean k*gamma.

    The output is the input convolved with Bin(k, r_p). Solved by the
    primal-dual interior-point loop from the centre of the slice; the
    returned point carries an LP gap of about 1e-13 nats, always below
    GAP_TOL (1e-9 nats), or UncertifiedSolveError is raised. A k that is
    not a whole number >= 1 raises ValueError.
    """
    k = _count("k", k, 1)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"infeasible mean: gamma={gamma} outside [0, 1]")
    bits, _, _, p = _slices(k, r_p, [gamma])
    return float(bits[0]), Pmf(p[0])


def i_tilde(gamma: float, k: int, r_p: float) -> ITildeValue:
    """Per-slot information ceiling through the shifted-binomial channel."""
    k = _count("k", k, 1)
    bits, p = h_check(gamma, k, r_p)
    return ITildeValue(
        gamma=gamma,
        k=k,
        r_p=r_p,
        bits_per_slot=max((bits - _channel(k, r_p)[1]) / k, 0.0),
        maximizing_input=p,
    )


def i_tilde_curve(gammas, k: int, r_p: float) -> np.ndarray:
    """i_tilde values (bits per slot) over a 1-D gamma grid in [0, 1], in any order.

    All points are solved cold by one batched `_slices` call, each
    certified like a single `i_tilde` solve (UncertifiedSolveError
    otherwise), and each value equals its pointwise `i_tilde` bitwise. A k
    that is not a whole number >= 1 raises ValueError.
    """
    k = _count("k", k, 1)
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1:
        raise ValueError("gammas must be a 1-D grid")
    if not (np.isfinite(gammas) & (gammas >= 0.0) & (gammas <= 1.0)).all():
        raise ValueError("gammas must be finite and lie in [0, 1]")
    bits, _, noise, _ = _slices(k, r_p, gammas)
    return np.maximum((bits - noise) / k, 0.0)


class _PairObjective:
    """sum_w [a_w * H(B_w q_w / a_w) - a_w * H_w] / k_w in nats per slot, the
    objective of the pair program (tau, tau + 1), a_w = sum q_w. A row's
    data are its block channel B and its noise term H_w / k_w per entry.
    Window w's Hessian block is [-B_w' diag(1 / B_w q_w) B_w + 1 1' / a_w] / k_w."""

    def __init__(self, tau: int):
        self.tau, self.win = tau, np.arange(2 * tau + 3) > tau  # the entries of window tau + 1
        self.k = np.where(self.win, tau + 1.0, tau)
        self.ky = np.where(np.arange(4 * tau + 4) > 2 * tau, tau + 1.0, tau)  # window of each output
        self.at = (self.ky > tau).astype(int), self.win.astype(int)  # share index of each output and entry
        self.same = self.win[:, None] == self.win[None, :]

    def parts(self, q, data):  # objective, outputs, shares and log(output / share)
        B, hn = data
        v = np.maximum(_times(q, B), 1e-300)
        a = np.array([q[:, : self.tau + 1].sum(axis=1), q[:, self.tau + 1 :].sum(axis=1)]).T
        lv = np.log(v / a[:, self.at[0]])
        return -(v * lv / self.ky).sum(axis=1) - (q * hn).sum(axis=1), v, a, lv

    def newton(self, q, data, parts, H=None):
        (_, v, a, lv), (B, hn) = parts, data
        Bt = B.transpose(0, 2, 1)
        if H is not None:
            np.matmul(B / -(v * self.ky)[:, None, :], Bt, out=H)
            H += self.same / (a[:, self.at[1]] * self.k)[:, :, None]
        return -_times(lv / self.ky, Bt) - hn


def _program_path(tau: int, r_ps: np.ndarray):
    """Barrier path of the pair program (tau, tau + 1), one row per rate.

    Row r maximizes the `_PairObjective` over q = [q_tau; q_tau+1] >= 0,
    with the noise entropies at r_ps[r], subject to sum q = 1 and the budget
    sum_w sum_x q_wx * (x + 1) / k_w = 1 - r_ps[r]. Products go row by row,
    so no row depends on the others. The start mixes the uniform point with
    the cheapest or dearest one to meet the budget; `_newton_path` does the
    rest and returns (q, value, LP gap) in nats per slot, the gap infinite
    off the constraints. A vertex of the feasible set is a two-point
    mixture, so the LP gap is explicit.
    """
    model = _PairObjective(tau)
    rows, n, m1, win, k = r_ps.size, 2 * tau + 3, 2 * tau + 1, model.win, model.k
    cost = (np.where(win, np.arange(n) - tau - 1.0, np.arange(n)) + 1.0) / k
    B, hn = np.zeros((rows, n, 4 * tau + 4)), np.empty((rows, n))
    for r, rp in enumerate(r_ps):
        (c1, h1), (c2, h2) = _channel(tau, rp), _channel(tau + 1, rp)
        B[r, : tau + 1, :m1], B[r, tau + 1 :, m1:] = c1.rows, c2.rows
        hn[r] = np.where(win, h2, h1) * LN2 / k
    c = 1.0 - r_ps
    A, b = np.stack([np.ones(n), cost]), np.stack([np.ones(rows), c], axis=1)

    uni, lo, hi = np.full(n, 1.0 / n), np.eye(n)[tau + 1], np.eye(n)[tau]
    u, l, h = cost @ uni, cost @ lo, cost @ hi
    w = np.where(c <= u, (c - l) / (u - l), (h - c) / (h - u))[:, None]
    q = w * uni + (1.0 - w) * np.where((c <= u)[:, None], lo, hi)
    return _newton_path(q, A, b, (B, hn), model, _PROGRAM_MU_STAGES)


def _pair_programs(tau: int, r_ps, pure=None) -> list[tuple]:
    """Best mix of windows tau and tau + 1 at budget c = 1 - r_p for every
    rate in r_ps, by one `_program_path`.

    Returns (value, alpha, gamma1, gamma2, gap, witness) per rate, value and
    certified gap in bits per slot, the witness ((k, share, input law) per
    window; a window without share keeps the program's normalized law). A
    share at or below PURE_SHARE is the barrier's resolution of 0, and
    dropping it loses about its square: the other window is then reported
    alone, as `i_tilde` at the gamma the budget pins, so alpha is exactly 0
    or 1 and equal pure windows of two pairs tie exactly. The windows alone
    are solved after the program path, one `_slices` call per window length
    over the points not yet in `pure`, a dict keyed by (k, r_p, gamma) that
    a caller may share across taus, so a point is solved once. A slice row
    has the bits of its point solved alone, so each value and law is
    `i_tilde`'s.
    A budget c <= 1/(tau + 1) leaves one point, of value 0, and needs no
    barrier. An LP gap above GAP_TOL nats raises UncertifiedSolveError
    naming the pair and its rate.
    """
    out, todo, alone = [None] * len(r_ps), [], []  # alone: the pairs of one window
    pure = {} if pure is None else pure

    def result(val, a, gm1, gm2, gap, p1, p2):
        laws = tuple(np.asarray(p1).tolist()), tuple(np.asarray(p2).tolist())
        return val, a, gm1, gm2, gap, ((tau, a, laws[0]), (tau + 1, 1.0 - a, laws[1]))

    for i, rp in enumerate(r_ps):
        if 1.0 - rp <= 1.0 / (tau + 1) + 1e-12:
            out[i] = result(0.0, 0.0, 0.0, 0.0, 0.0, np.full(tau + 1, 1.0 / (tau + 1)),
                            np.eye(tau + 2)[0])
        else:
            todo.append(i)
    if not todo:
        return out
    q, f, gaps = _program_path(tau, np.array([r_ps[i] for i in todo], dtype=float))
    for i, qi, fi, gi in zip(todo, q, f, gaps):
        rp, c = r_ps[i], 1.0 - r_ps[i]
        if not gi <= GAP_TOL:
            raise UncertifiedSolveError(f"window pair ({tau}, {tau + 1}) at r_p={rp}: program "
                                        f"LP gap {gi:.3e} nats > GAP_TOL={GAP_TOL:.0e}")
        shares = float(qi[: tau + 1].sum()), float(qi[tau + 1 :].sum())
        p1, p2 = qi[: tau + 1] / shares[0], qi[tau + 1 :] / shares[1]
        gm1 = float(p1 @ np.arange(tau + 1.0)) / tau
        gm2 = float(p2 @ np.arange(tau + 2.0)) / (tau + 1)
        val, gap = float(fi) / LN2, float(gi) / LN2
        if min(shares) <= PURE_SHARE:
            a = float(shares[0] > PURE_SHARE)  # 1: window tau alone
            key = tau + 1 - int(a), rp, max(c - 1.0 / (tau + 1 - a), 0.0)  # (k, r_p, gamma)
            pure.setdefault(key, None)  # None: not solved yet
            alone.append((i, a, key, val, gap, p1, p2))
            continue
        # the budget fixes the mix of the two windows' gammas
        u1, u2 = gm1 + 1.0 / tau, gm2 + 1.0 / (tau + 1)
        out[i] = result(val, (c - u2) / (u1 - u2), gm1, gm2, gap, p1, p2)
    for k in sorted({key[0] for key, v in pure.items() if v is None}):
        new = [key for key, v in pure.items() if v is None and key[0] == k]
        bits, _, noise, laws = _slices(k, [rp for _, rp, _ in new], [gw for *_, gw in new])
        for key, b, h, law in zip(new, bits, noise, laws):
            pure[key] = max((float(b) - float(h)) / k, 0.0), law
    for i, a, (k, rp, gw), val, gap, p1, p2 in alone:
        it, law = pure[k, rp, gw]
        p1, p2 = (law, p2) if a else (p1, law)
        # the bound val + gap over the pure value, |val - pure| covering
        # the rounding of two sums that can cross
        gap += abs(val - it)
        out[i] = result(it, a, *((gw, 0.0) if a else (0.0, gw)), gap, p1, p2)
    return out


def _result(r_p, tau, pair, per_tau, per_tau_gap) -> CapacityResult3:
    """The result of the pair (tau, tau + 1) at r_p from its `_pair_programs`
    tuple, with the windows of positive share and the residual of the budget
    alpha (gamma1 + 1/tau) + (1 - alpha)(gamma2 + 1/(tau + 1)) = 1 - r_p."""
    val, a, g1, g2, gap, witness = pair
    lhs = a * (g1 + 1.0 / tau) + (1.0 - a) * (g2 + 1.0 / (tau + 1))
    return CapacityResult3(
        r_p=r_p, capacity_bits_per_slot=val, alpha=a, gamma1=g1, gamma2=g2, tau_star=tau,
        constraint_residual=abs(lhs - (1.0 - r_p)), per_tau=per_tau, per_tau_gap=per_tau_gap,
        gap_bits=gap, windows=tuple((k, w) for k, w in ((tau, a), (tau + 1, 1.0 - a)) if w > 0.0),
        witness=witness,
    )


def solve_capacity_grid(rps, tau_max: int = 8) -> list[CapacityResult3]:
    """Capacity of the channel at every background rate r_p in `rps`, one
    result per rate, each equal to `solve_capacity_3user(r_p, tau_max)`.

    Each rate keeps its own feasible taus, its own stop at the first tau
    whose optimum decreases and its own tie rules. One sweep runs over
    ascending tau: each tau solves, in one `_pair_programs` call, the pair of
    every rate still in its loop for which that tau is feasible, and a
    rate's result does not depend on the others. The windows alone that the
    sweep reports are solved once per (k, r_p, gamma), one `_slices` call
    per tau and window length, in a dict that lives for this call only.
    """
    if not all(0.0 <= r_p < 1.0 for r_p in rps):
        raise ValueError("r_p must lie in [0, 1)")
    tau_max = _count("tau_max", tau_max, 2)
    taus = [[t for t in range(1, tau_max) if 1.0 - r_p >= 1.0 / (t + 1) - 1e-12] for r_p in rps]
    for r_p, feasible in zip(rps, taus):
        if not feasible:
            raise InfeasibleError(
                f"rate budget {1.0 - r_p} cannot be met with tau <= {tau_max - 1}"
            )

    per_tau, per_tau_gap, pure = [{} for _ in rps], [{} for _ in rps], {}
    best = [None] * len(rps)  # per rate: (tau, the _pair_programs tuple of its best pair)
    live = list(range(len(rps)))  # the rates still in their tau loops
    for tau in range(1, tau_max):
        group = [i for i in live if tau in taus[i]]
        for i, pair in zip(group, _pair_programs(tau, [rps[i] for i in group], pure)):
            val, gap = pair[0], pair[4]
            if not gap <= PAIR_GAP_TOL:
                raise UncertifiedSolveError(
                    f"window pair ({tau}, {tau + 1}) at r_p={rps[i]} has gap "
                    f"{gap:.3e} bits > PAIR_GAP_TOL={PAIR_GAP_TOL:.0e}"
                )
            if val < per_tau[i].get(tau - 1, -np.inf):
                live.remove(i)
            per_tau[i][tau], per_tau_gap[i][tau] = val, gap
            if best[i] is None or val > best[i][1][0]:
                best[i] = tau, pair

    return [_result(r_p, tau, pair, pt, pg)
            for r_p, pt, pg, (tau, pair) in zip(rps, per_tau, per_tau_gap, best)]


def solve_capacity_3user(r_p: float, tau_max: int = 8) -> CapacityResult3:
    """Capacity of the channel when a Bernoulli(r_p) background user is present.

    For tau = 1, 2, ... the solver maximizes
    alpha * i_tilde(gamma1, tau) + (1 - alpha) * i_tilde(gamma2, tau + 1)
    subject to alpha*(gamma1 + 1/tau) + (1 - alpha)*(gamma2 + 1/(tau+1))
    = 1 - r_p, stopping at the first tau whose optimum decreases (a tie
    keeps the earlier tau). Mixing only adjacent lengths (tau, tau + 1),
    and stopping early, is a restriction. It is backed at r_p = 0, where
    the mixed-window concavity inequality is a theorem, but that inequality
    has certified counterexamples for r_p > 0, so there the returned value
    can fall short of the best mix over all window lengths up to tau_max.

    Each pair is one concave program over the share-weighted input laws of
    its two windows, solved by a log-barrier Newton path and certified by
    its LP gap (see `_pair_programs`). This is the one-rate case of
    `solve_capacity_grid`. Every per-tau optimum is kept for audit with its
    certified gap, and a gap above PAIR_GAP_TOL bits raises
    UncertifiedSolveError. `windows` lists the window lengths of the
    optimal mix with their shares, and `witness` the shares and input laws
    of both windows of the winning pair, which bound the capacity without
    the solver.
    """
    return solve_capacity_grid([r_p], tau_max)[0]


def degradation_violations(
    gammas,
    ks,
    rp_grid=None,
    tolerance: float = 1e-6,
) -> list[tuple[int, float, float, float, float]]:
    """Report points where the information ceiling rises with the noise rate.

    Returns (k, gamma, r_p_low, r_p_high, increase) for every adjacent pair
    on the noise grid where i_tilde increases by more than `tolerance`.
    Each window length is one slice solve over every gamma at every rate.
    Such points exist: the noise is an additive count, so r_p -> 1 is again
    deterministic and the ceiling is not globally monotone. A window length
    that is not a whole number >= 1, a gamma that is not finite and in
    [0, 1], or a tolerance that is not finite and >= 0, raises ValueError.
    """
    ks = [_count("k", k, 1) for k in ks]
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    if rp_grid is None:
        rp_grid = np.arange(0.0, 0.51, 0.05)
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
    if not (np.isfinite(gammas) & (gammas >= 0.0) & (gammas <= 1.0)).all():
        raise ValueError("gammas must be finite and lie in [0, 1]")
    rps = np.asarray(rp_grid, dtype=float).reshape(-1)
    out = []
    if gammas.size == 0 or rps.size == 0:
        return out
    for k in ks:
        # one batch per window length: every gamma at every rate
        bits, _, noise, _ = _slices(k, np.tile(rps, gammas.size), np.repeat(gammas, rps.size))
        vals = np.maximum((bits - noise) / k, 0.0).reshape(gammas.size, rps.size)
        for g, row in zip(gammas, vals):
            for j in np.flatnonzero(row[1:] > row[:-1] + tolerance):
                out.append((k, float(g), float(rps[j]), float(rps[j + 1]),
                            float(row[j + 1] - row[j])))
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
    return _channel(k - 1, r_p)[1] + _channel(k + 1, r_p)[1] - 2.0 * _channel(k, r_p)[1]


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

    All triples are drawn first, k by k as in a sequential sweep. Window
    length j then serves as window k - 1, k or k + 1 of the draws at
    k = j + 1, j and j - 1, so each j = 1..tau_max is solved once, across
    all noise rates, and the H_check values are scattered back to their
    margins. Each value equals the one-point solve of its point bitwise, so
    the worst margin is the least `concavity_margin` of the draws. A
    `tau_max` that is not a whole number >= 3, a `samples` that is not a
    whole number >= 0, a `tolerance` that is not finite and >= 0, or an
    `r_p_step` that is not positive and finite, raises ValueError.
    """
    tau_max, samples = _count("tau_max", tau_max, 3), _count("samples", samples, 0)
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    if not (math.isfinite(r_p_step) and r_p_step > 0.0):
        raise ValueError(f"r_p_step must be positive and finite, got {r_p_step}")
    ks = range(2, tau_max)
    if samples == 0:
        return ConcavityReport(samples=0, tau_max=tau_max, worst_margin=np.inf,
                               worst_location=(0, 0.0, 0.0, 0.0), violations=0,
                               tolerance=tolerance)
    rng = np.random.default_rng(seed)
    rp_grid = np.arange(0.0, 1.0, r_p_step)
    draws = {}  # k -> (gamma1, gamma2, gamma3, r_p) samples, drawn k by k
    for k in ks:
        g1s = rng.uniform(0.0, 1.0, size=samples)
        g3s = rng.uniform(0.0, 1.0, size=samples)
        rps = rng.choice(rp_grid, size=samples)
        alpha = (k - 1) / (2.0 * k)
        draws[k] = (g1s, alpha * g1s + (1 - alpha) * g3s, g3s, rps)
    # window j is window k - 1, k or k + 1 (gamma1, gamma2 or gamma3, position
    # 0, 1 or 2) of the draws at k = j + 1, j or j - 1: one solve per window
    # across all rates
    h = {}  # (k, position) -> H_check values of the draws at k
    max_gap = 0.0
    for j in range(1, tau_max + 1):
        parts = [(k, pos) for pos, k in enumerate((j + 1, j, j - 1)) if k in draws]
        b, gaps, _, _ = _slices(
            j,
            np.concatenate([draws[k][3] for k, _ in parts]),
            np.concatenate([draws[k][pos] for k, pos in parts]),
        )
        max_gap = max(max_gap, float(gaps.max()))
        h.update(zip(parts, np.split(b, len(parts))))
    worst = (np.inf, (0, 0.0, 0.0, 0.0))
    violations = 0
    for k in ks:
        g1s, g2s, g3s, rps = draws[k]
        rates, at = np.unique(rps, return_inverse=True)
        noise_gap = np.array([binomial_entropy_gap(k, float(rp)) for rp in rates])[at]
        margins = 2 * h[k, 1] - h[k, 0] - h[k, 2] + noise_gap
        violations += int((margins < -tolerance).sum())
        # ties go to the first sample in (r_p, gamma2) order
        order = np.lexsort((g2s, rps))
        i = int(order[np.argmin(margins[order])])
        if margins[i] < worst[0]:
            worst = (float(margins[i]), (k, float(g1s[i]), float(g3s[i]), float(rps[i])))
    return ConcavityReport(
        samples=samples * len(ks),
        tau_max=tau_max,
        worst_margin=worst[0],
        worst_location=worst[1],
        violations=violations,
        tolerance=tolerance,
        max_gap_nats=max_gap,
    )

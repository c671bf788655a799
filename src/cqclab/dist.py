"""Finite-support probability distributions and constrained-entropy machinery.

Everything here lives on integer supports {0, 1, ..., k}: probability mass
functions, exponentially tilted families (the entropy maximizers under a mean
constraint), the log-moment generating function of the uniform distribution
and its Legendre-Fenchel rate function, and the per-slot entropy ceiling
h_tilde built from them.

One batched tilt solver, `_tilt_to_mean`, finds every tilt of the package.
It tilts a weighted set of windows to one weighted mean: solve_tilt,
rate_function and h_tilde are its one-row cases on one window of weight 1,
solve_tilt_grid and h_tilde_grid its batched cases, and the two-user frozen
slice of `capacity2` its case of windows 1 and 2. Batched rows are
independent: each row freezes at its own stopping test and shares no
arithmetic with the others, so a batch returns, bitwise, the values of its
one-row solves.

Entropies and divergences are in bits; rate_function returns nats (its
consumers convert via log2(e)).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

LOG2E = math.log2(math.e)

_SUM_TOL = 1e-12
_MEAN_TOL = 1e-10
_GRID_ROWS = 1024  # rows per batched tilt solve of h_tilde_grid; bounds its memory


def _count(name: str, value, low: int) -> int:
    """`value` as an int; ValueError naming `name` unless it is a whole number >= `low`."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number, got {name}={value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    return int(value)


class SupportMismatchError(ValueError):
    """Two pmfs that must share a support {0..k} do not."""


class AbsoluteContinuityError(ValueError):
    """KL divergence requested where q(i) = 0 but p(i) > 0."""


class TiltEndpointError(ValueError):
    """Tilt solve requested at a degenerate mean (0 or k)."""


class TiltConvergenceError(RuntimeError):
    """A tilt solve ended away from its target mean."""


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on {0, 1, ..., k}, k = len(probs) - 1."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("probs must be a nonempty 1-D vector")
        if not (p >= 0).all():
            raise ValueError("probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities must sum to 1 (got {p.sum()!r})")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @property
    def k(self) -> int:
        return self.probs.size - 1

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)

    @staticmethod
    def uniform(k: int) -> "Pmf":
        k = _count("k", k, 0)
        return Pmf(np.full(k + 1, 1.0 / (k + 1)))

    @staticmethod
    def point_mass(k: int, at: int) -> "Pmf":
        k, at = _count("k", k, 0), _count("at", at, 0)
        if at > k:
            raise ValueError(f"at must be <= k, got at={at}, k={k}")
        p = np.zeros(k + 1)
        p[at] = 1.0
        return Pmf(p)


@dataclass(frozen=True)
class TiltSolution:
    """Exponentially tilted pmf hitting a prescribed mean.

    lam is the tilt parameter on natural-log scale: probs[i] proportional
    to exp(i * lam).
    """

    lam: float
    pmf: Pmf
    target_mean: float
    residual: float = field(default=0.0)

    def __post_init__(self):
        if not self.residual <= _MEAN_TOL:
            raise ValueError(
                f"tilt solution residual {self.residual:.3e} exceeds {_MEAN_TOL:.0e}"
            )


@dataclass(frozen=True)
class HTildeValue:
    """Per-slot entropy ceiling for a count on {0..k} with mean k*gamma."""

    gamma: float
    k: int
    bits_per_slot: float

    def __post_init__(self):
        hi = math.log2(self.k + 1) / self.k
        if not (-1e-12 <= self.bits_per_slot <= hi + 1e-12):
            raise ValueError(
                f"bits_per_slot {self.bits_per_slot} outside [0, log2(k+1)/k]"
            )


def entropy(pmf: Pmf) -> float:
    """Shannon entropy in bits, with the 0*log(0) = 0 convention."""
    p = pmf.probs
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def kl_divergence(p: Pmf, q: Pmf) -> float:
    """KL divergence D(p||q) in bits. Requires matching supports and p << q."""
    if p.k != q.k:
        raise SupportMismatchError(f"supports differ: k={p.k} vs k={q.k}")
    pv, qv = p.probs, q.probs
    bad = (qv == 0) & (pv > 0)
    if np.any(bad):
        raise AbsoluteContinuityError(
            f"p has mass where q vanishes (indices {np.where(bad)[0].tolist()})"
        )
    nz = pv > 0
    return float((pv[nz] * np.log2(pv[nz] / qv[nz])).sum())


def tilted_pmf(k: int, lam: float) -> Pmf:
    """Pmf on {0..k} with entries proportional to exp(i * lam).

    Computed in the log domain (max-subtracted) so extreme tilts neither
    overflow nor underflow to an all-zero vector.
    """
    k = _count("k", k, 1)
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    z = np.arange(k + 1) * float(lam)
    z -= z.max()
    w = np.exp(z)
    return Pmf(w / w.sum())


def _tilt_to_mean(ks: tuple[int, ...], m, weights=1.0) -> tuple[np.ndarray, list[np.ndarray]]:
    """Tilt the uniform laws on the windows {0..k}, k in `ks`, at one common
    tilt s per target, so that row r meets sum_w a_w m_w(s) = m[r], where
    m_w(s) is the mean of window w's law, proportional to exp(s i) on
    {0..k_w}, and the positive weights a broadcast to (rows, windows).
    Return the tilts s and the laws, one (rows, k + 1) array per window.
    One window of weight 1 tilts its law to the mean m itself.

    Each row takes Newton steps from s = 0 on the log of its weighted mean's
    distance to the endpoint nearer its target: the weighted mean itself up
    to half of K = sum_w a_w k_w, K minus it above. On an exponential tail
    that log is linear in s, so a target such as 1e-300 takes a few steps
    rather than one per unit of s. A step that leaves the bracket the signs
    so far establish, within |s| <= 1e5, is replaced by bisection. A row
    freezes at the tilt it reaches on its first Newton step below 1e-9, or
    on any step at the rounding level of s; the laws are evaluated at the
    tilts reached. Rows share no arithmetic, so each row of a batch is
    bitwise the one-row solve of its target. A target outside (0, K) raises
    TiltEndpointError, and a row that ends more than a relative 1e-10 off
    its target raises TiltConvergenceError.
    """
    m = np.asarray(m, dtype=float)
    a = np.broadcast_to(np.asarray(weights, dtype=float), (m.size, len(ks))).T
    top = sum(a_w * k for a_w, k in zip(a, ks))  # K, the weighted mean as s grows without bound
    if not ((m > 0.0) & (m < top)).all():
        raise TiltEndpointError(f"target means must lie strictly inside (0, {top.max():g})")
    low = m <= 0.5 * top
    points = [np.arange(k + 1.0) for k in ks]
    # distance of each point to the near endpoint of its window
    dists = [np.where(low[:, None], i, k - i) for k, i in zip(ks, points)]
    log_target = np.log(np.where(low, m, top - m))
    sign = np.where(low, 1.0, -1.0)

    def tilted(s):
        """Laws, weighted distance, weighted variance (the distance's slope in
        s) and log-residual (increasing in s) at tilts s."""
        laws, dist, var = [], 0.0, 0.0
        for i, d, a_w in zip(points, dists, a):
            z = s[:, None] * i
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z, out=z)
            p /= p.sum(axis=1, keepdims=True)
            dist_w = (p * d).sum(axis=1)
            dist = dist + a_w * dist_w
            var = var + a_w * ((d - dist_w[:, None]) ** 2 * p).sum(axis=1)
            laws.append(p)
        return laws, dist, var, sign * (np.log(dist) - log_target)

    lo = np.full(m.size, -1e5)
    hi = np.full(m.size, 1e5)
    s = np.zeros(m.size)
    live = np.ones(m.size, dtype=bool)  # rows still stepping; each freezes at its own stopping test
    with np.errstate(divide="ignore", invalid="ignore"):  # a distance may underflow to 0
        for _ in range(100):
            _, dist, var, f = tilted(s)
            newton = s - f * dist / var  # f has slope var / dist
            lo = np.where(f < 0, s, lo)
            hi = np.where(f > 0, s, hi)
            in_bracket = (newton >= lo) & (newton <= hi)
            s_new = np.where(in_bracket, newton, 0.5 * (lo + hi))
            step = np.abs(s_new - s)
            # a Newton step leaves an error of the order of its square
            done = (in_bracket & (step <= 1e-9)) | (step <= 1e-13 + 8.9e-16 * np.abs(s))
            s = np.where(live, s_new, s)
            live &= ~done
            if not live.any():
                break
        laws, _, _, f = tilted(s)
    off = np.flatnonzero(~(np.abs(f) <= 1e-10))
    if off.size:
        j = int(off[0])
        raise TiltConvergenceError(
            f"tilt for target mean {m[j]!r} on windows {tuple(ks)} stopped at s={s[j]!r}, "
            f"relative residual {abs(f[j]):.3e}"
        )
    return s, laws


def _rate_at_tilts(k: int, lam: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rate function (nats) of the uniform law on {0..k} at interior means x,
    given the tilts lam that match them: lam * x - psi(lam), with psi the
    uniform log-MGF."""
    z = np.multiply.outer(lam, np.arange(k + 1.0))
    zmax = z.max(axis=1)
    psi = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1)) - math.log(k + 1)
    return lam * x - psi


def _rate_grid(k: int, x: np.ndarray) -> np.ndarray:
    """Rate function (nats) of the uniform law on {0..k} at interior means x,
    at the tilts that one batched tilt solve finds for them."""
    return _rate_at_tilts(k, _tilt_to_mean((k,), x)[0], x)


def solve_tilt_grid(k: int, target_means) -> tuple[np.ndarray, np.ndarray]:
    """Tilts and tilted pmfs on {0..k}, one row per target mean, in one
    batched tilt solve.

    Each row is bitwise the `solve_tilt` of its target and meets it to the
    same absolute mean residual, 1e-10 (ValueError otherwise). Degenerate
    means 0 and k are rejected (TiltEndpointError).
    """
    k = _count("k", k, 1)
    m = np.asarray(target_means, dtype=float).reshape(-1)
    lam, (p,) = _tilt_to_mean((k,), m)
    residual = np.abs(p @ np.arange(k + 1.0) - m)
    off = np.flatnonzero(~(residual <= _MEAN_TOL))
    if off.size:
        raise ValueError(
            f"tilt solution residual {residual[off[0]]:.3e} exceeds {_MEAN_TOL:.0e}"
        )
    return lam, p


def solve_tilt(k: int, target_mean: float) -> TiltSolution:
    """Find the tilt parameter whose pmf on {0..k} has the given mean.

    The mean map lam -> mean(tilted_pmf(k, lam)) is strictly increasing, so
    the root is unique; it is the one-row case of `solve_tilt_grid`,
    polished to a mean residual below 1e-10. Degenerate means 0 and k are
    rejected: the corresponding pmfs are point masses with infinite tilt.
    """
    lam, p = solve_tilt_grid(k, [float(target_mean)])
    pmf = Pmf(p[0])
    return TiltSolution(
        lam=float(lam[0]),
        pmf=pmf,
        target_mean=float(target_mean),
        residual=abs(pmf.mean() - target_mean),
    )


def rate_function(k: int, x: float) -> float:
    """Legendre-Fenchel transform of the uniform log-MGF, in nats.

    sup over lam of lam*x - psi(lam), evaluated at the maximizing tilt for
    interior x; the endpoints 0 and k take the limit value ln(k+1).
    """
    k = _count("k", k, 1)
    if not 0.0 <= x <= k:
        raise ValueError(f"x={x} outside [0, {k}]")
    if x == 0.0 or x == float(k):
        return math.log(k + 1)
    return float(_rate_grid(k, np.array([float(x)]))[0])


def h_tilde(gamma: float, k: int) -> HTildeValue:
    """Largest per-slot entropy of a count on {0..k} with mean k*gamma.

    The one-point case of `h_tilde_grid`, through the rate-function identity
    (log2(k+1) - rate_function(k, k*gamma) * log2(e)) / k; the direct route
    (entropy of the mean-matched tilted pmf over k) must agree to 1e-9 and is
    reconciled against this one in the test suite.
    """
    k = _count("k", k, 1)
    bits = float(h_tilde_grid(np.array([float(gamma)]), k)[0])
    return HTildeValue(gamma=gamma, k=k, bits_per_slot=bits)


def binomial_pmf(k: int, p: float) -> Pmf:
    """Binomial(k, p) mass function; exact point masses at p = 0 and 1, as 0.0**0 == 1.0.
    From k = 1030 on, C(k, k // 2) exceeds the float range and a ValueError
    names k."""
    k = _count("k", k, 0)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    try:
        probs = np.array(
            [math.comb(k, i) * p**i * (1.0 - p) ** (k - i) for i in range(k + 1)]
        )
    except OverflowError:
        raise ValueError(f"k={k}: the binomial coefficients exceed the float range") from None
    return Pmf(probs / probs.sum())


def h_tilde_grid(gammas: np.ndarray, k: int) -> np.ndarray:
    """Vectorized h_tilde values (bits per slot) over an array of gammas.

    Batched tilt solves for the interior gammas, _GRID_ROWS at a time, then
    the rate-function formula of the scalar h_tilde; gamma = 0 and 1 give 0.
    Each value is bitwise the scalar `h_tilde`, and every one is held to
    `HTildeValue`'s range [0, log2(k+1)/k] (ValueError otherwise).
    """
    k = _count("k", k, 1)
    gammas = np.asarray(gammas, dtype=float)
    if not ((gammas >= 0.0) & (gammas <= 1.0)).all():
        raise ValueError("gammas must lie in [0, 1]")
    out = np.zeros(gammas.shape)
    interior = (gammas > 0.0) & (gammas < 1.0)
    if interior.any():
        x = k * gammas[interior]
        rate = np.concatenate([_rate_grid(k, x[i : i + _GRID_ROWS])
                               for i in range(0, x.size, _GRID_ROWS)])
        out[interior] = np.maximum((math.log2(k + 1) - rate * LOG2E) / k, 0.0)
    hi = math.log2(k + 1) / k
    off = np.flatnonzero(~((out >= -1e-12) & (out <= hi + 1e-12)))
    if off.size:
        raise ValueError(f"bits_per_slot {out.flat[off[0]]} outside [0, log2(k+1)/k]")
    return out

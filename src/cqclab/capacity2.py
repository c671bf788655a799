"""Two-user capacity of the covert queueing channel on a shared FCFS slot server.

The operating point mixes probe inter-arrival windows of length 1 (weight
alpha) and length 2 (weight 1 - alpha), subject to the heavy-traffic budget
alpha*(gamma1 + 1) + (1 - alpha)*(gamma2 + 1/2) = 1. The objective is the
matching mixture of per-slot entropy ceilings h_tilde.

This is the three-user problem at r_p = 0 restricted to the window pair
(1, 2), so the same engine solves it: one concave program over both
windows' share-weighted input laws (`capacity3._pair_programs`), the share
of window 1 free or frozen at alpha. The capacity is the objective above
by h_tilde at the returned point, which meets the budget; `gap_bits` is the
program's certified bound minus it, at most PAIR_GAP_TOL or
UncertifiedSolveError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .capacity3 import PAIR_GAP_TOL, UncertifiedSolveError, _pair_programs
from .dist import h_tilde

# gamma boxes for the two-window mixture: both rates live in [0, 1/2]
_G_HI = 0.5


class BoxViolationError(ValueError):
    """A parameter fell outside its admissible box."""


@dataclass(frozen=True)
class CapacityResult2:
    capacity_bits_per_slot: float
    alpha: float
    gamma1: float
    gamma2: float
    constraint_residual: float
    gap_bits: float = 0.0  # certified: the dual bound minus capacity_bits_per_slot

    def __post_init__(self):
        if not 0.0 <= self.capacity_bits_per_slot <= 1.0 + 1e-12:
            raise ValueError("capacity outside [0, 1]")
        if self.constraint_residual > 1e-9:
            raise ValueError(
                f"constraint residual {self.constraint_residual:.3e} exceeds 1e-9"
            )


def constraint_value(alpha: float, gamma1: float, gamma2: float) -> float:
    return alpha * (gamma1 + 1.0) + (1.0 - alpha) * (gamma2 + 0.5)


def objective_2user(alpha: float, gamma1: float, gamma2: float) -> float:
    """Mixture objective alpha*h_tilde(gamma1, 1) + (1-alpha)*h_tilde(gamma2, 2).

    Pure box-checked evaluation; the budget constraint is NOT enforced here.
    """
    if not 0.0 <= alpha <= 1.0:
        raise BoxViolationError(f"alpha={alpha} outside [0, 1]")
    if not 0.0 <= gamma1 <= _G_HI:
        raise BoxViolationError(f"gamma1={gamma1} outside [0, {_G_HI}]")
    if not 0.0 <= gamma2 <= _G_HI:
        raise BoxViolationError(f"gamma2={gamma2} outside [0, {_G_HI}]")
    return (
        alpha * h_tilde(gamma1, 1).bits_per_slot
        + (1.0 - alpha) * h_tilde(gamma2, 2).bits_per_slot
    )


def eliminate_gamma2(alpha: float, gamma1: float) -> float:
    """gamma2 forced by the budget constraint; requires alpha < 1."""
    return (1.0 - alpha * (gamma1 + 1.0)) / (1.0 - alpha) - 0.5


def _solve(alpha: float | None) -> CapacityResult2:
    """The window pair (1, 2) at r_p = 0 by its program, with the mix free
    (alpha None) or frozen at 0 < alpha < 1."""
    [(value, alpha, gamma1, gamma2, gap, _)] = _pair_programs(1, [0.0], alpha)
    if gamma1 > _G_HI:
        # alpha near 0: window 1's law carries a share of only alpha, so its
        # gamma1 is 1/2 only to about 1e-9, and past 1/2 it only spends budget
        gamma1 = _G_HI
        gamma2 = eliminate_gamma2(alpha, gamma1)
    capacity = objective_2user(alpha, gamma1, gamma2)
    gap_bits = value + gap - capacity
    if not gap_bits <= PAIR_GAP_TOL:
        raise UncertifiedSolveError(
            f"two-user solve at alpha={alpha} has duality gap {gap_bits:.3e} bits "
            f"> PAIR_GAP_TOL={PAIR_GAP_TOL:.0e}"
        )
    return CapacityResult2(
        capacity_bits_per_slot=capacity,
        alpha=alpha,
        gamma1=gamma1,
        gamma2=gamma2,
        constraint_residual=abs(constraint_value(alpha, gamma1, gamma2) - 1.0),
        gap_bits=gap_bits,
    )


def solve_capacity_2user() -> CapacityResult2:
    """Maximize the two-user objective on the budget surface, certified by
    the dual of the window pair (1, 2)."""
    return _solve(None)


def solve_on_alpha_slice(alpha: float) -> CapacityResult2:
    """Best feasible point with the window mix frozen at `alpha`."""
    if not 0.0 <= alpha <= 1.0:
        raise BoxViolationError(f"alpha={alpha} outside [0, 1]")
    if alpha == 1.0:  # the budget pins gamma1 = 0: a zero-rate point
        return CapacityResult2(0.0, 1.0, 0.0, 0.0, 0.0)
    if alpha == 0.0:  # the budget pins gamma2 = 1/2, the uniform law on {0, 1, 2}
        return CapacityResult2(h_tilde(0.5, 2).bits_per_slot, 0.0, 0.0, 0.5, 0.0)
    return _solve(alpha)

"""Two-user capacity of the covert queueing channel on a shared FCFS slot server.

Probe windows of length 1 (share alpha) and 2 (share 1 - alpha) under the
heavy-traffic budget alpha*(gamma1 + 1) + (1 - alpha)*(gamma2 + 1/2) = 1,
valued by the matching mixture of per-slot entropy ceilings h_tilde: the
three-user problem at r_p = 0 on the window pair (1, 2). Both solves return
its `CapacityResult3` with tau_star = 1, built by the one constructor
`capacity3._result`, certified to PAIR_GAP_TOL or UncertifiedSolveError.
"""

from __future__ import annotations

import math

from .capacity3 import (LN2, PAIR_GAP_TOL, CapacityResult3, UncertifiedSolveError, _result,
                        solve_capacity_3user)
from .dist import _tilt_to_mean, h_tilde


def solve_capacity_2user() -> CapacityResult3:
    """Maximize the two-user objective on the budget surface, certified by
    the dual of the window pair (1, 2)."""
    return solve_capacity_3user(0.0, tau_max=2)


def solve_on_alpha_slice(alpha: float) -> CapacityResult3:
    """Best feasible point with the window mix frozen at `alpha`, with no barrier.

    At budget multiplier s both windows take their max-entropy laws, weights
    e^(lam x), at one tilt lam = -s ln 2, where the budget reads
    alpha m_1 + (1 - alpha) m_2 / 2 = (1 - alpha) / 2 in the windows' means
    m_k: one `_tilt_to_mean` solve, with lam <= 0 as lam = 0 exceeds the
    budget. The lighter window keeps its gamma, the budget fixes the other's,
    and the capacity is the objective at that point. The dual bounds it by
    U = s (1 - alpha) / 2 + alpha L_1 + (1 - alpha) L_2 / 2, L_k = log2
    sum_{x <= k} e^(lam x); `gap_bits` is U minus the capacity plus a
    rounding allowance. There is no witness: the free pair's laws would not
    bound the slice. An alpha outside [0, 1] raises ValueError.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha} outside [0, 1]")
    if alpha == 1.0:  # the budget pins gamma1 = 0: a zero-rate point
        alpha, gamma1, gamma2, capacity, gap_bits = 1.0, 0.0, 0.0, 0.0, 0.0
    elif alpha == 0.0:  # the budget pins gamma2 = 1/2, the uniform law on {0, 1, 2}
        alpha, gamma1, gamma2, gap_bits = 0.0, 0.0, 0.5, 0.0
        capacity = h_tilde(0.5, 2).bits_per_slot
    else:
        half = (1.0 - alpha) / 2.0
        tilt, (p1, p2) = _tilt_to_mean((1, 2), [half], (alpha, half))
        lam, gamma1, gamma2 = float(tilt[0]), float(p1[0, 1]), float(p2[0] @ (0.0, 0.5, 1.0))
        if alpha <= 0.5:
            gamma2 = (1.0 - alpha * (gamma1 + 1.0)) / (1.0 - alpha) - 0.5
        else:
            gamma1 = (1.0 - (1.0 - alpha) * (gamma2 + 0.5)) / alpha - 1.0
        capacity = (alpha * h_tilde(gamma1, 1).bits_per_slot
                    + (1.0 - alpha) * h_tilde(gamma2, 2).bits_per_slot)
        budget = alpha * (gamma1 + 1.0) + (1.0 - alpha) * (gamma2 + 0.5)
        s, e1, e2 = -lam / LN2, math.exp(lam), math.exp(2.0 * lam)
        upper = (s * (1.0 - alpha) / 2.0 + alpha * math.log1p(e1) / LN2
                 + (1.0 - alpha) * math.log1p(e1 + e2) / LN2 / 2.0)
        # Weak duality: U >= objective - s (budget - 1). A sum whose terms round at most
        # n times errs by gamma_n = n u / (1 - n u) times their magnitudes (Higham 2002,
        # ch. 3); no term of U or the objective is negative, and budget - 1 has budget + 1.
        # n = 8 bounds all three: (1 - alpha) L_2 / 2 rounds in exp, e^lam + e^(2 lam),
        # log1p (passing on at most its argument's relative error), 1 - alpha, the product,
        # LN2, the division and the sum U; the objective's terms round at most 3 times,
        # the budget's 5.
        gamma_n = 8 * 2.0**-53 / (1.0 - 8 * 2.0**-53)
        slack = gamma_n * (upper + capacity + s * (budget + 1.0)) + s * abs(budget - 1.0)
        gap_bits = upper - capacity + slack
        if not gap_bits <= PAIR_GAP_TOL:
            raise UncertifiedSolveError(
                f"two-user solve at alpha={alpha} has duality gap {gap_bits:.3e} bits "
                f"> PAIR_GAP_TOL={PAIR_GAP_TOL:.0e}"
            )
    return _result(0.0, 1, (capacity, alpha, gamma1, gamma2, gap_bits, ()),
                   {1: capacity}, {1: gap_bits})

"""Solver-free check of every capacity's witness.

A `CapacityResult3` carries, per window of its winning pair, (k, share,
input law). This module rebuilds the shifted-binomial channel from
`math.comb` alone and shares no code with the solver.

- Lower bound: the witness is a feasible scheme, so its share-weighted
  [H(B_k p_k) - H(Bin(k, r_p))] / k is achieved.
- Upper bound: by Gibbs' inequality H(B p) <= -sum_y (B p)_y log q(y) for
  any law q (the bound behind Blahut 1972). With q_k = B_k p_k, the capacity
  of the pair is at most the largest value of the linear function
  d_kx = [-sum_y B_k(y|x) log2 q_k(y) - H(Bin(k, r_p))] / k over the
  vertices of {q >= 0, sum q = 1, sum q_kx (x + 1) / k = 1 - r_p}: the
  points and two-point mixtures that meet the budget.
"""

import math

import pytest

from cqclab.capacity3 import PAIR_GAP_TOL, solve_capacity_grid

RATES = [round(0.05 * i, 2) for i in range(17)]
ROUNDING = 1e-14  # bits; two float evaluations of one sum can differ this much


def _rows(k, r_p):
    """P(Y = y | X = x) of a window of length k: x plus Bin(k, r_p) noise."""
    noise = [math.comb(k, d) * r_p**d * (1 - r_p) ** (k - d) for d in range(k + 1)]
    return [[noise[y - x] if 0 <= y - x <= k else 0.0 for y in range(2 * k + 1)]
            for x in range(k + 1)]


def _entropy(law):
    return -sum(p * math.log2(p) for p in law if p > 0)


def _bounds(res):
    c = 1.0 - res.r_p
    lower, budget, points = 0.0, 0.0, []  # points: (cost, d) per input of each window
    for k, share, law in res.witness:
        rows = _rows(k, res.r_p)
        out = [sum(p * row[y] for p, row in zip(law, rows)) for y in range(2 * k + 1)]
        noise = _entropy(rows[0])
        lower += share * (_entropy(out) - noise) / k
        budget += share * sum(p * (x + 1) / k for x, p in enumerate(law))
        for x, row in enumerate(rows):
            d = -sum(b * math.log2(out[y]) for y, b in enumerate(row) if b > 0)
            points.append(((x + 1) / k, (d - noise) / k))
    upper = -math.inf
    for ci, di in points:
        for cj, dj in points:
            if ci == c:
                upper = max(upper, di)
            elif ci < c < cj:
                upper = max(upper, ((cj - c) * di + (c - ci) * dj) / (cj - ci))
    return lower, upper, abs(budget - c)


@pytest.fixture(scope="module")
def grid():
    return solve_capacity_grid(RATES, 8)


@pytest.mark.parametrize("i", range(len(RATES)))
def test_witness_bounds_the_capacity(grid, i):
    res = grid[i]
    lower, upper, residual = _bounds(res)
    value = res.capacity_bits_per_slot
    assert [k for k, _, _ in res.witness] == [res.tau_star, res.tau_star + 1]
    assert residual <= 1e-12
    assert lower - ROUNDING <= value <= upper + ROUNDING, (lower, value, upper)
    assert upper - lower <= PAIR_GAP_TOL

"""Regression table of the adjacent-pair capacity over 17 background rates.

`PARENT` holds `solve_capacity_grid(RATES, 8)` as the one-multiplier dual
zoom computed it, before the pair program replaced it: per rate, tau_star,
the windows with their shares, every per-tau optimum in bits per slot, and
the taus whose optimum is one window alone (value by `i_tilde`). The
program must keep tau_star and the window lengths, agree on every value to
1e-12 bits, and reproduce every pure-window value bitwise. Budgets on a
vertex, c = 1/(tau + 1), are exactly 0.

`REPINNED` holds the pure-window values whose bits differ from `PARENT`'s:
the bitwise pin of such an entry is its value there, and its 1e-12
agreement is still with `PARENT`. Entries moved by at most 3.4e-16 bits
when every slice solve (one rate or many) came to take per-row channels,
and by at most 3.4e-16 bits again when every barrier stage but the last
came to end a row once its move falls below the stage's mu; five of those
moves, at (r_p, tau) = (0.2, 1), (0.2, 3), (0.5, 4), (0.6, 2) and
(0.65, 4), landed back on `PARENT`'s bits. When the slice solve moved from
the barrier path to the primal-dual iteration, which ends each row at an LP
gap of rounding level, 36 pure entries moved by at most 4.7e-13 bits, all
up by the barrier path's bias but (0.1, 3) and (0.2, 1), down by 1.1e-16
and 2.2e-16; (0.15, 1) landed back on `PARENT`'s bits, and the mixed
entries kept theirs.
"""

import numpy as np
import pytest

from cqclab import capacity3
from cqclab.capacity3 import solve_capacity_grid

RATES = [round(0.05 * i, 2) for i in range(17)]
VERTEX = {(0.5, 1), (0.75, 3), (0.8, 4)}  # (r_p, tau) with 1 - r_p = 1/(tau + 1)

# r_p: (tau_star, windows, per_tau, pure taus)
PARENT = {
    0.0: (1, ((1, 0.17700882267642387), (2, 0.8229911773235761)),
        {1: 0.811370462751649, 2: 0.792481250360578}, {2}),
    0.05: (1, ((1, 0.0689214231304612), (2, 0.9310785768695388)),
        {1: 0.629991978601479, 2: 0.6274544207271135}, {2}),
    0.1: (1, ((2, 1.0),),
        {1: 0.5232901063591544, 2: 0.5232901063591544, 3: 0.4361449382370739}, {1, 2, 3}),
    0.15: (2, ((2, 0.9876134230089223), (3, 0.012386576991077702)),
        {1: 0.44332564389176476, 2: 0.4433370817142712, 3: 0.386778839586732}, {1, 3}),
    0.2: (2, ((2, 0.8114415206032622), (3, 0.18855847939673775)),
        {1: 0.38110914160441633, 2: 0.3835950358646892, 3: 0.3483106611447353}, {1, 3}),
    0.25: (2, ((2, 0.6340747649370857), (3, 0.3659252350629143)),
        {1: 0.3295817380611621, 2: 0.3393771412458052, 3: 0.3176313255901024}, {1, 3}),
    0.3: (2, ((2, 0.41833198593932874), (3, 0.5816680140606713)),
        {1: 0.277403900285184, 2: 0.30209918833490246, 3: 0.29234458318288864}, {1, 3}),
    0.35: (2, ((2, 0.19452954693446556), (3, 0.8054704530655344)),
        {1: 0.22478193652082168, 2: 0.2707848188807172, 3: 0.2687521674125915}, {1, 3}),
    0.4: (2, ((3, 1.0),),
        {1: 0.16952426825441735, 2: 0.2442979723314025, 3: 0.2442979723314025, 4:
         0.22547521295285067}, {1, 2, 3, 4}),
    0.45: (3, ((3, 0.7824466359458458), (4, 0.21755336405415415)),
        {1: 0.10412385079451913, 2: 0.21838193933291272, 3: 0.21930138146572745, 4:
         0.20975894151917973}, {1, 2, 4}),
    0.5: (3, ((3, 0.43515463789258874), (4, 0.5648453621074112)),
        {1: 0.0, 2: 0.18958987298028904, 3: 0.1962089762407052, 4: 0.1930095580623381}, {2, 4}),
    0.55: (3, ((3, 0.07298149799721793), (4, 0.9270185020027821)),
        {2: 0.15451352657663064, 3: 0.17443033150446016, 4: 0.17435196743108328}, {2}),
    0.6: (4, ((4, 0.31663099513873844), (5, 0.6833690048612615)),
        {2: 0.10828979882413226, 3: 0.15166789416563387, 4: 0.15500627995782978, 5:
         0.15435928609356564}, {2, 3, 5}),
    0.65: (5, ((5, 0.6768780590494949), (6, 0.32312194095050506)),
        {2: 0.03982812358967062, 3: 0.1219194001898517, 4: 0.1358256861694594, 5:
         0.13624460202986377, 6: 0.13460516859935256}, {2, 3, 4, 6}),
    0.7: (6, ((6, 0.734742971050159), (7, 0.26525702894984104)),
        {3: 0.07964144670711631, 4: 0.11082303350856818, 5: 0.11708932548406155, 6:
         0.11727138595998367, 7: 0.11596484064635686}, {3, 4, 5, 7}),
    0.75: (7, ((7, 0.5027570187685692), (8, 0.49724298123143085)),
        {3: 0.0, 4: 0.07342070890717753, 5: 0.09231432073783134, 6: 0.09733368965505214, 7:
         0.09778668133009627}, {4, 5, 6}),
    0.8: (7, ((8, 1.0),),
        {4: 4.4408920985006264e-17, 5: 0.05267720714040033, 6: 0.06948081273803172, 7:
         0.0760376172283797}, {5, 6, 7}),
}

# (r_p, tau): the pure per-tau value where its bits differ from PARENT's
REPINNED = {
    (0.1, 3): 0.4361449382370736,
    (0.15, 3): 0.38677883958673215,
    (0.2, 1): 0.3811091416044161,
    (0.25, 1): 0.3295817380615147,
    (0.3, 1): 0.27740390028553685,
    (0.3, 3): 0.29234458318312,
    (0.35, 1): 0.22478193652117318,
    (0.35, 3): 0.2687521674128106,
    (0.4, 1): 0.16952426825476796,
    (0.4, 2): 0.24429797233187692,
    (0.4, 3): 0.24429797233187692,
    (0.4, 4): 0.22547521295319783,
    (0.45, 1): 0.10412385079487052,
    (0.45, 2): 0.21838193933338168,
    (0.45, 4): 0.20975894151953778,
    (0.5, 2): 0.1895898729807605,
    (0.5, 4): 0.1930095580625133,
    (0.55, 2): 0.15451352657710124,
    (0.6, 2): 0.10828979882434837,
    (0.6, 3): 0.1516678941659778,
    (0.6, 5): 0.15435928609399358,
    (0.65, 2): 0.03982812358990192,
    (0.65, 3): 0.12191940019002256,
    (0.65, 4): 0.13582568616987264,
    (0.65, 6): 0.1346051685997094,
    (0.7, 3): 0.07964144670728218,
    (0.7, 4): 0.11082303350899467,
    (0.7, 5): 0.11708932548440898,
    (0.7, 7): 0.11596484064676524,
    (0.75, 4): 0.07342070890745127,
    (0.75, 5): 0.09231432073818817,
    (0.75, 6): 0.09733368965535931,
    (0.8, 5): 0.052677207140519634,
    (0.8, 6): 0.0694808127382329,
    (0.8, 7): 0.07603761722873381,
}


@pytest.fixture(scope="module")
def grid():
    return dict(zip(RATES, solve_capacity_grid(RATES, 8)))


@pytest.mark.parametrize("r_p", RATES)
def test_grid_matches_the_recorded_table(grid, r_p):
    tau_star, windows, per_tau, pure = PARENT[r_p]
    res = grid[r_p]
    assert res.tau_star == tau_star
    assert [k for k, _ in res.windows] == [k for k, _ in windows]
    assert [w for _, w in res.windows] == pytest.approx([w for _, w in windows], abs=1e-9)
    assert list(res.per_tau) == list(per_tau)
    for tau, val in per_tau.items():
        assert abs(res.per_tau[tau] - val) <= 1e-12, tau
        if tau in pure:
            assert res.per_tau[tau] == REPINNED.get((r_p, tau), val), tau
        if (r_p, tau) in VERTEX:
            assert res.per_tau[tau] == 0.0, tau


@pytest.mark.parametrize("tau, r_p", [(1, 0.5), (4, 0.8)])
def test_vertex_budget_needs_no_barrier(monkeypatch, tau, r_p):
    # the budget admits only window tau + 1 at gamma = 0
    def refuse(*args, **kwargs):
        raise AssertionError("interior-point path on a vertex budget")

    monkeypatch.setattr(capacity3, "_newton_path", refuse)
    monkeypatch.setattr(capacity3, "_primal_dual", refuse)
    [(value, alpha, gamma1, gamma2, gap, witness)] = capacity3._pair_programs(tau, [r_p])
    assert (value, alpha, gamma1, gamma2, gap) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert witness[1] == (tau + 1, 1.0, tuple(np.eye(tau + 2)[0]))

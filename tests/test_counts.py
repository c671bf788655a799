"""One whole-number rule at the API boundary.

Every count argument of the public API (window lengths, block lengths,
codebook sizes, trial counts, horizons, backlogs) goes through
`dist._count`: a value that is not a whole number raises ValueError naming
the argument, and a whole float is taken as its int.
"""

import functools
import inspect

import numpy as np
import pytest

import cqclab
from cqclab import (
    ArrivalSchedule,
    Pmf,
    binomial_pmf,
    build_codebook_2user,
    build_codebook_3user,
    channel_matrix,
    empirical_channel_law,
    ensemble_error_rate,
    h_check,
    h_tilde,
    i_tilde,
    i_tilde_curve,
    output_mean_check,
    rate_function,
    run_transmission,
    simulate,
    solve_capacity_3user,
    solve_capacity_grid,
    solve_tilt,
    stability_probe,
    tilted_pmf,
    validate_i_concavity,
)
from cqclab.capacity3 import degradation_violations
from cqclab.coding import admissible_alpha_slots
from cqclab.dist import h_tilde_grid, solve_tilt_grid
from cqclab.fcfs import DECODER, ENCODER


@functools.cache
def _book():
    """A small two-user codebook; its longest window is 2."""
    return build_codebook_2user(12, 4)


# (function, count argument) -> call with that argument set to v
COUNTS = {
    ("tilted_pmf", "k"): lambda v: tilted_pmf(v, 0.3),
    ("solve_tilt_grid", "k"): lambda v: solve_tilt_grid(v, [1.0]),
    ("solve_tilt", "k"): lambda v: solve_tilt(v, 1.0),
    ("rate_function", "k"): lambda v: rate_function(v, 1.0),
    ("h_tilde_grid", "k"): lambda v: h_tilde_grid([0.3], v),
    ("h_tilde", "k"): lambda v: h_tilde(0.3, v),
    ("binomial_pmf", "k"): lambda v: binomial_pmf(v, 0.3),
    ("channel_matrix", "tau"): lambda v: channel_matrix(v, 0.1),
    ("output_mean_check", "tau"): lambda v: output_mean_check(Pmf.uniform(3), v, 0.1),
    ("h_check", "k"): lambda v: h_check(0.3, v, 0.1),
    ("i_tilde", "k"): lambda v: i_tilde(0.3, v, 0.1),
    ("i_tilde_curve", "k"): lambda v: i_tilde_curve([0.3], v, 0.1),
    ("degradation_violations", "k"): lambda v: degradation_violations([0.3], [v]),
    ("solve_capacity_grid", "tau_max"): lambda v: solve_capacity_grid([0.1], v),
    ("solve_capacity_3user", "tau_max"): lambda v: solve_capacity_3user(0.1, v),
    ("validate_i_concavity", "tau_max"): lambda v: validate_i_concavity(v, 2),
    ("validate_i_concavity", "samples"): lambda v: validate_i_concavity(3, v),
    ("admissible_alpha_slots", "n"): lambda v: admissible_alpha_slots(v, 0.3, 1),
    ("admissible_alpha_slots", "tau_star"): lambda v: admissible_alpha_slots(12, 0.3, v),
    ("build_codebook_2user", "n"): lambda v: build_codebook_2user(v, 2),
    ("build_codebook_2user", "M"): lambda v: build_codebook_2user(12, v),
    ("build_codebook_3user", "n"): lambda v: build_codebook_3user(v, 2, 0.1, tau_max=3),
    ("build_codebook_3user", "M"): lambda v: build_codebook_3user(12, v, 0.1, tau_max=3),
    ("build_codebook_3user", "tau_max"): lambda v: build_codebook_3user(12, 2, 0.1, tau_max=v),
    ("ensemble_error_rate", "n"): lambda v: ensemble_error_rate(v, 2, 0.1, 2, 0, tau_max=3),
    ("ensemble_error_rate", "trials"): lambda v: ensemble_error_rate(12, 2, 0.1, v, 0, tau_max=3),
    ("ensemble_error_rate", "tau_max"): lambda v: ensemble_error_rate(12, 2, 0.1, 2, 0, tau_max=v),
    ("run_transmission", "trials"): lambda v: run_transmission(_book(), trials=v),
    ("run_transmission", "initial_backlog"):
        lambda v: run_transmission(_book(), trials=2, initial_backlog=v),
    ("simulate", "initial_backlog"): lambda v: simulate(
        ArrivalSchedule(DECODER, [1, 0]), ArrivalSchedule(ENCODER, [0, 1]), initial_backlog=v),
    ("stability_probe", "horizon"): lambda v: stability_probe((0.3,), v, 0),
    ("stability_probe", "initial_backlog"):
        lambda v: stability_probe((0.3,), 10, 0, initial_backlog=v),
    ("empirical_channel_law", "tau"): lambda v: empirical_channel_law(v, 0.1, 4, 0),
    ("empirical_channel_law", "intervals"): lambda v: empirical_channel_law(2, 0.1, v, 0),
    ("Pmf.uniform", "k"): lambda v: Pmf.uniform(v),
    ("Pmf.point_mass", "k"): lambda v: Pmf.point_mass(v, 1),
    ("Pmf.point_mass", "at"): lambda v: Pmf.point_mass(3, v),
    ("ArrivalSchedule.bernoulli", "n"):
        lambda v: ArrivalSchedule.bernoulli(ENCODER, 0.3, v, np.random.default_rng(0)),
}

# ensemble_error_rate's M is any finite float >= 1: the ensemble never
# builds the codebook, so M may be astronomically large
EXEMPT = {("ensemble_error_rate", "M")}

COUNT_NAMES = {"k", "tau", "tau_max", "n", "M", "trials", "horizon", "intervals", "samples",
               "initial_backlog"}

_IDS = [f"{f}-{a}" for f, a in COUNTS]


@pytest.mark.parametrize("bad", [2.5, "3"])
@pytest.mark.parametrize("key", list(COUNTS), ids=_IDS)
def test_a_count_that_is_not_a_whole_number_is_refused(key, bad):
    with pytest.raises(ValueError, match=f"{key[1]} must be a whole number"):
        COUNTS[key](bad)


@pytest.mark.parametrize("key", list(COUNTS), ids=_IDS)
def test_a_whole_float_count_is_accepted(key):
    COUNTS[key](3.0)


def test_whole_float_window_gives_the_int_results():
    assert h_tilde(0.5, 2.0).k == 2 and type(h_tilde(0.5, 2.0).k) is int
    assert h_tilde(0.3, 3.0) == h_tilde(0.3, 3)
    assert rate_function(3.0, 1.0) == rate_function(3, 1.0)
    assert (binomial_pmf(3.0, 0.3).probs == binomial_pmf(3, 0.3).probs).all()
    assert (channel_matrix(3.0, 0.1).rows == channel_matrix(3, 0.1).rows).all()
    assert channel_matrix(np.int64(3), 0.1).tau == 3


@pytest.mark.parametrize("at", [-1, 4, 7])
def test_a_point_mass_outside_its_support_is_refused(at):
    # at = -1 used to put the mass on k, and at > k raised IndexError
    with pytest.raises(ValueError, match="at must be"):
        Pmf.point_mass(3, at)


def _public_callables():
    """Every function in cqclab.__all__, and every static and class method
    of its classes, by name ("Pmf.uniform" for a method)."""
    for name in cqclab.__all__:
        obj = getattr(cqclab, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    yield f"{name}.{attr}", getattr(obj, attr)


def test_every_public_count_argument_is_in_the_table():
    # a new public function or constructor with a count argument must join
    # COUNTS (or be exempted with its reason), so it cannot skip the
    # whole-number rule
    missing = []
    for name, fn in _public_callables():
        for arg in inspect.signature(fn).parameters:
            if arg in COUNT_NAMES and (name, arg) not in COUNTS and (name, arg) not in EXEMPT:
                missing.append((name, arg))
    assert missing == []


def test_the_walk_reaches_the_static_constructors():
    names = {name for name, _ in _public_callables()}
    assert {"Pmf.uniform", "Pmf.point_mass", "ArrivalSchedule.bernoulli",
            "ProbeTemplate.for_codebook", "solve_tilt"} <= names

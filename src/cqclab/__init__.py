"""Covert queueing channel laboratory.

Capacity solvers for two- and three-user covert channels over a shared
slotted FCFS scheduler, a deterministic slot-level queue simulator, and the
coding schemes that realize the channel end to end.
"""

__version__ = "0.1.0"

from .capacity2 import CapacityResult2, objective_2user, solve_capacity_2user
from .capacity3 import (
    CapacityResult3,
    ChannelMatrix,
    ITildeValue,
    UncertifiedSolveError,
    channel_matrix,
    h_check,
    i_tilde,
    i_tilde_curve,
    output_mean_check,
    solve_capacity_3user,
    validate_i_concavity,
)
from .coding import (
    Codebook,
    ProbeTemplate,
    TransmissionReport,
    build_codebook_2user,
    build_codebook_3user,
    decode_2user,
    decode_3user,
    ensemble_error_rate,
    probe_stream,
    run_transmission,
)
from .dist import (
    HTildeValue,
    Pmf,
    TiltSolution,
    binomial_pmf,
    entropy,
    h_tilde,
    kl_divergence,
    rate_function,
    solve_tilt,
    tilted_pmf,
)
from .fcfs import (
    ArrivalSchedule,
    DriftReport,
    ProbeObservation,
    SchedulerTrace,
    empirical_channel_law,
    observe,
    simulate,
    stability_probe,
)

__all__ = [
    "ArrivalSchedule",
    "CapacityResult2",
    "CapacityResult3",
    "ChannelMatrix",
    "Codebook",
    "DriftReport",
    "HTildeValue",
    "ITildeValue",
    "Pmf",
    "ProbeObservation",
    "ProbeTemplate",
    "SchedulerTrace",
    "TiltSolution",
    "TransmissionReport",
    "UncertifiedSolveError",
    "binomial_pmf",
    "build_codebook_2user",
    "build_codebook_3user",
    "channel_matrix",
    "decode_2user",
    "decode_3user",
    "empirical_channel_law",
    "ensemble_error_rate",
    "entropy",
    "h_check",
    "h_tilde",
    "i_tilde",
    "i_tilde_curve",
    "kl_divergence",
    "objective_2user",
    "observe",
    "output_mean_check",
    "probe_stream",
    "rate_function",
    "run_transmission",
    "simulate",
    "solve_capacity_2user",
    "solve_capacity_3user",
    "solve_tilt",
    "stability_probe",
    "tilted_pmf",
    "validate_i_concavity",
]

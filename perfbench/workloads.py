"""The benchmark's workloads: inputs made from the seed, set-up, the timed
round of operations, the traced run's layer probes, and the output checks.

Every operation returns a dict of outputs that is compared with the
reference outputs recorded from the unmodified package (`reference.json`). The
seed selects one of REFERENCE_POOL recorded inputs, so every run can be
checked exactly.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_POOL = 16  # a run uses input seed `seed % REFERENCE_POOL`

CODED_RP = 0.1  # background rate of the three-user coded workload
TIE_RATES = (0.1,)  # alpha = 0 ties between window pairs: tau_star is not checked
STABILITY_RATES = ((0.475, 0.475), (0.525, 0.525))
LAW_TAU, LAW_RP = 2, 0.3

SIZES = {
    "full": dict(
        rp_grid=(0.0, 0.1, 0.3), capacity_tau_max=8, validate_tau_max=8, samples=50,
        coded_tau_max=8, n=60, M=256, tx_chunks=4, tx_trials=500,
        blocks=(60, 120, 240), ensemble_trials=100, horizon=10**6, law_intervals=10**6,
        curve_points=501, h_check_triples=30, crosscheck_n=16, crosscheck_trials=200,
    ),
    "smoke": dict(
        rp_grid=(0.0,), capacity_tau_max=2, validate_tau_max=3, samples=2,
        coded_tau_max=2, n=60, M=256, tx_chunks=1, tx_trials=20,
        blocks=(60, 120, 240), ensemble_trials=2, horizon=20_000, law_intervals=10_000,
        curve_points=51, h_check_triples=2, crosscheck_n=16, crosscheck_trials=20,
    ),
}


@dataclass
class Op:
    """One operation: `run()` returns its outputs; outputs are checked against
    the reference with relative tolerance `tol`, or not at all when None."""

    name: str
    run: Callable[[], dict]
    tol: float | None = 0.0


def no_span(name, new_trace=False):
    return contextlib.nullcontext()


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(2**31, size=count)]


def _cli(cq, argv: list[str], out: Path) -> tuple[int, list[dict]]:
    """Run `cqclab <argv> --out <out>` in-process; return exit code and CSV rows."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cq.cli.main(["--out", str(out), *argv])
    if not out.exists():
        return code, []
    lines = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",") if lines else []
    return code, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# --- capacity_sweep -----------------------------------------------------------


def capacity_setup(cq, sizes, seed, tmp, span):
    order = np.random.default_rng(seed).permutation(len(sizes["rp_grid"]))
    return {"rp_grid": [sizes["rp_grid"][i] for i in order]}


def capacity_ops(cq, state, sizes, seed, tmp, span, traced):
    def capacity2():
        code, rows = _cli(cq, ["--seed", str(seed), "capacity2"], tmp / "capacity2.csv")
        return {"exit": code, "capacity": float(rows[0]["capacity"])}

    def capacity3():
        grid = ",".join(repr(r) for r in state["rp_grid"])
        argv = ["--seed", str(seed), "capacity3", "--rp-grid", grid,
                "--tau-max", str(sizes["capacity_tau_max"])]
        code, rows = _cli(cq, argv, tmp / "capacity3.csv")
        out: dict = {"exit": code}
        for row in rows:
            rp = float(row["r_p"])
            entry = {"capacity": float(row["capacity"])}
            if rp not in TIE_RATES:
                entry["tau_star"] = int(row["tau_star"])
            out[f"r_p={rp:g}"] = entry
        return out

    # capacities may move in the last digits when the solver changes
    return [Op("cli_capacity2", capacity2, 1e-6), Op("cli_capacity3", capacity3, 1e-6)]


def capacity_probes(cq, state, sizes, seed, tmp, span):
    gammas = np.linspace(0.0, 1.0, sizes["curve_points"])
    return [
        Op(f"i_tilde_curve_k{k}", lambda k=k: {"sum": float(cq.i_tilde_curve(gammas, k, CODED_RP).sum())}, None)
        for k in (2, 5)
    ]


# --- validate_sweep -----------------------------------------------------------


def validate_setup(cq, sizes, seed, tmp, span):
    return {}


def validate_ops(cq, state, sizes, seed, tmp, span, traced):
    def validate():
        argv = ["--seed", str(seed), "validate", "--tau-max", str(sizes["validate_tau_max"]),
                "--samples", str(sizes["samples"])]
        code, rows = _cli(cq, argv, tmp / "validate.csv")
        checks = {r["check"]: (float(r["worst_margin"]), float(r["tolerance"])) for r in rows}
        dual, dual_tol = checks["dual_formula"]
        sym, sym_tol = checks["symmetry"]
        return {
            "exit": code,  # 1 at full size: the mixed-window sweep finds counterexamples
            "dual_formula_ok": dual <= dual_tol,
            "symmetry_ok": sym <= sym_tol,
            "h_tilde_concavity": checks["h_tilde_concavity"][0],
            "mixed_window_concavity": checks["mixed_window_concavity"][0],
        }

    # the worst margins may move by 1e-6 when the inner solver changes
    return [Op("cli_validate", validate, 1e-6)]


def validate_probes(cq, state, sizes, seed, tmp, span):
    """Cold h_check point queries, drawn the way validate_i_concavity draws them."""
    rng = np.random.default_rng(seed)
    rp_grid = np.arange(0.0, 1.0, 0.05)
    points = []
    for _ in range(sizes["h_check_triples"]):
        k = int(rng.integers(2, sizes["validate_tau_max"]))
        g1, g3 = rng.uniform(size=2)
        rp = float(rng.choice(rp_grid))
        a = (k - 1) / (2.0 * k)
        points += [(a * g1 + (1 - a) * g3, k, rp), (g1, k - 1, rp), (g3, k + 1, rp)]
    return [Op("h_check_points", lambda: {"sum": sum(cq.h_check(float(g), k, rp)[0] for g, k, rp in points)}, None)]


# --- coded_channel ------------------------------------------------------------


def coded_setup(cq, sizes, seed, tmp, span):
    book_seed = _seeds(seed, 1)[0]
    with span("bench.capacity", new_trace=True):
        cap = cq.solve_capacity_3user(CODED_RP, tau_max=sizes["coded_tau_max"])
    with span("bench.codebooks", new_trace=True):
        cb2 = cq.build_codebook_2user(sizes["n"], sizes["M"], seed=book_seed)
        cb3 = cq.build_codebook_3user(sizes["n"], sizes["M"], CODED_RP, capacity=cap, seed=book_seed)
    C = cap.capacity_bits_per_slot
    blocks = {n: 2.0 ** math.floor(0.8 * C * n) for n in sizes["blocks"]}
    return {"cap": cap, "cb2": cb2, "cb3": cb3, "blocks": blocks}


def traced_transmission(cq, span, codebook, background_rate, trials, seed) -> int:
    """`run_transmission` spelled out call by call, one trace per message.

    Draws the same random numbers in the same order as `run_transmission`,
    so it reproduces its error count on the same seed.
    """
    fcfs = cq.fcfs
    probe = cq.probe_stream(cq.ProbeTemplate.for_codebook(codebook))
    decoder = cq.ArrivalSchedule(fcfs.DECODER, np.append(probe.slots, np.int8(1)))
    backlog = codebook.n + codebook.tau_star + 1
    rng = np.random.default_rng(seed)
    errors = 0
    for _ in range(trials):
        with span("bench.message", new_trace=True):
            msg = int(rng.integers(codebook.M))
            encoder = cq.ArrivalSchedule(fcfs.ENCODER, np.append(codebook.codewords[msg], np.int8(0)))
            background = None
            if background_rate is not None:
                background = cq.ArrivalSchedule.bernoulli(
                    fcfs.BACKGROUND, background_rate, codebook.n + 1, rng
                )
            trace = cq.simulate(decoder, encoder, background, initial_backlog=backlog)
            obs = cq.observe(trace)
            if background_rate is None:
                decoded = cq.decode_2user(obs, codebook)
            else:
                decoded = cq.decode_3user(obs, codebook, background_rate)
            errors += decoded != msg
    return errors


def coded_ops(cq, state, sizes, seed, tmp, span, traced):
    chunks, trials = sizes["tx_chunks"], sizes["tx_trials"]
    seeds = _seeds(seed + 1, 2 * chunks + len(sizes["blocks"]) + len(STABILITY_RATES) + 1)

    def transmit(codebook, rate, tx_seed):
        def run():
            if traced:
                errors = traced_transmission(cq, span, codebook, rate, trials, tx_seed)
            else:
                errors = cq.run_transmission(
                    codebook, background_rate=rate, trials=trials, seed=tx_seed
                ).errors
            if rate is None and errors:
                raise AssertionError(f"{errors} errors on the noiseless two-user channel")
            return {"errors": int(errors), "messages": trials}

        return run

    def ensemble(n, ens_seed):
        def run():
            rep = cq.ensemble_error_rate(
                n, state["blocks"][n], CODED_RP, trials=sizes["ensemble_trials"],
                seed=ens_seed, capacity=state["cap"],
            )
            return {"error_rate": float(rep.empirical_error_rate)}

        return run

    def stability(rates, st_seed):
        def run():
            rep = cq.stability_probe(rates, sizes["horizon"], seed=st_seed)
            return {
                "final_queue": int(rep.final_queue),
                "max_queue": int(rep.max_queue),
                "mean_queue_second_half": float(rep.mean_queue_second_half),
            }

        return run

    def channel_law(law_seed):
        def run():
            pmf = cq.empirical_channel_law(LAW_TAU, LAW_RP, sizes["law_intervals"], seed=law_seed)
            tv = 0.5 * float(np.abs(pmf.probs - cq.binomial_pmf(LAW_TAU, LAW_RP).probs).sum())
            if tv > 4.0 / math.sqrt(sizes["law_intervals"]):
                raise AssertionError(f"empirical law is {tv:.4f} from Bin({LAW_TAU}, {LAW_RP})")
            return {"pmf": [float(p) for p in pmf.probs]}

        return run

    it = iter(seeds)
    ops = [Op(f"tx2_{j}", transmit(state["cb2"], None, next(it))) for j in range(chunks)]
    ops += [Op(f"tx3_{j}", transmit(state["cb3"], CODED_RP, next(it))) for j in range(chunks)]
    # float sums may change order when the coding layer changes
    ops += [Op(f"ensemble_n{n}", ensemble(n, next(it)), 1e-9) for n in sizes["blocks"]]
    ops += [Op(f"stability_{r[0]}", stability(r, next(it)), 1e-9) for r in STABILITY_RATES]
    ops.append(Op("channel_law", channel_law(next(it)), 1e-12))
    return ops


def coded_probes(cq, state, sizes, seed, tmp, span):
    """Cross-check of the spelled-out transmission loop against
    `run_transmission` at a rate above capacity, where errors are common."""
    n, trials = sizes["crosscheck_n"], sizes["crosscheck_trials"]
    book_seed, tx_seed = _seeds(seed + 2, 2)

    def crosscheck():
        cb = cq.build_codebook_3user(n, sizes["M"], CODED_RP, capacity=state["cap"], seed=book_seed)
        direct = cq.run_transmission(cb, background_rate=CODED_RP, trials=trials, seed=tx_seed).errors
        spelled = traced_transmission(cq, span, cb, CODED_RP, trials, tx_seed)
        if spelled != direct:
            raise AssertionError(f"traced loop made {spelled} errors, run_transmission {direct}")
        return {"errors": int(direct)}

    return [Op("crosscheck", crosscheck, None)]


# --- registry -----------------------------------------------------------------


def _sum_parts(ops, prefix, key=None):
    chosen = [o for o in ops if o["name"].startswith(prefix)]
    seconds = sum(o["seconds"] for o in chosen)
    if key is None:
        return seconds
    return sum(o["outputs"][key] for o in chosen if o["outputs"]) / seconds if seconds else 0.0


# per-workload breakdown of the round, reported with the per-layer metrics:
# (name, unit, better)
PARTS = (
    ("capacity_sweep_s", "s", "lower"),
    ("validate_s", "s", "lower"),
    ("tx2_msgs_per_s", "1/s", "higher"),
    ("tx3_msgs_per_s", "1/s", "higher"),
    ("ensemble_s", "s", "lower"),
    ("long_trace_s", "s", "lower"),
)


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable
    ops: Callable
    probes: Callable
    parts: Callable[[list, float], dict]
    round_s: float  # round time of the unmodified package on 2 cores; sets the round count
    seeded: bool = True  # False: outputs do not depend on the seed


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "capacity_sweep",
            "CLI capacity2 then capacity3 at r_p 0, 0.1, 0.3: dense warm-started capacity3 table "
            "sweeps do the work; fcfs and coding are bypassed",
            capacity_setup, capacity_ops, capacity_probes,
            lambda ops, work_s: {"capacity_sweep_s": work_s},
            round_s=22.0,
            seeded=False,
        ),
        Workload(
            "validate_sweep",
            "CLI validate: capacity3 as scattered point queries over 20 r_p and k=1..8, plus scalar "
            "dist h_tilde and solve_tilt sweeps; exit 1 is the correct outcome",
            validate_setup, validate_ops, validate_probes,
            lambda ops, work_s: {"validate_s": work_s},
            round_s=7.5,
        ),
        Workload(
            "coded_channel",
            "library transmissions, ensemble trials and 10^6-slot traces: fcfs and coding do the "
            "work; capacity3 only in set-up, cli bypassed",
            coded_setup, coded_ops, coded_probes,
            lambda ops, work_s: {
                "tx2_msgs_per_s": _sum_parts(ops, "tx2_", "messages"),
                "tx3_msgs_per_s": _sum_parts(ops, "tx3_", "messages"),
                "ensemble_s": _sum_parts(ops, "ensemble_"),
                "long_trace_s": _sum_parts(ops, "stability_") + _sum_parts(ops, "channel_law"),
            },
            round_s=7.5,
        ),
    )
}


def reference_key(workload: Workload, seed: int) -> str:
    return str(seed % REFERENCE_POOL) if workload.seeded else "any"


def input_seed(workload: Workload, seed: int) -> int:
    """The seed the workload's inputs are made from."""
    return seed % REFERENCE_POOL if workload.seeded else seed


def compare(observed, expected, tol: float, path: str = "") -> list[str]:
    """Mismatches between outputs and reference; floats within relative `tol`."""
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or set(observed) != set(expected):
            return [f"{path}: keys {sorted(observed or {})} != {sorted(expected)}"]
        return [m for k in expected for m in compare(observed[k], expected[k], tol, f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            return [f"{path}: {observed!r} != {expected!r}"]
        return [m for i, (o, e) in enumerate(zip(observed, expected))
                for m in compare(o, e, tol, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(observed, (int, float)) \
            and not isinstance(observed, bool):
        if abs(observed - expected) <= tol * max(1.0, abs(expected)):
            return []
        return [f"{path}: {observed!r} != {expected!r} (tolerance {tol:g})"]
    if observed != expected or type(observed) is not type(expected):
        return [f"{path}: {observed!r} != {expected!r}"]
    return []

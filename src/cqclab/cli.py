"""Command-line front end: capacity solves, grid sweeps, simulations, and
property validation, all emitted as comment-headed CSV.

Every run echoes its effective configuration (command, parameters, seed)
into the output header; identical headers imply byte-identical bodies.
Every command, and the `simulate --trace` file, writes through one writer
that formats each cell with `_fmt`. Exit codes: 0 success, 1 validation
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .capacity2 import solve_capacity_2user, solve_on_alpha_slice
from .capacity3 import i_tilde_curve, solve_capacity_grid, validate_i_concavity
from .coding import (
    _backlog,
    _codebook_chunks,
    _schedules,
    build_codebook_3user,
    run_transmission,
)
from .dist import LOG2E, _rate_at_tilts, h_tilde_grid, solve_tilt_grid
from .fcfs import simulate, stability_probe, trace_to_csv_rows


def _fmt(x) -> str:
    """One CSV cell: floats to 12 significant digits, None (no value) as nan."""
    if x is None:
        return "nan"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write(path: str | None, comments: list[str], header: str, rows) -> None:
    """Write the comment lines, the CSV header and the rows, every cell
    formatted by `_fmt`, to `path` (stdout when None)."""
    lines = [f"# {c}" for c in comments] + [header] + [",".join(map(_fmt, r)) for r in rows]
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, header_cfg: dict, header: str, rows) -> None:
    comments = [
        f"tool=cqclab version={__version__}",
        f"command={args.command}",
        f"config={json.dumps(header_cfg, sort_keys=True)}",
        f"seed={args.seed}",
    ]
    _write(args.out, comments, header, rows)


def _parse(text: str, kind) -> list:
    """The comma-separated values of `text` as `kind`, blank items skipped."""
    return [kind(t) for t in text.split(",") if t.strip() != ""]


def _table(results, fields) -> tuple[str, list[tuple]]:
    """The CSV header and rows of `results`, one column per field name;
    the field capacity_bits_per_slot is headed `capacity`."""
    header = ",".join("capacity" if f == "capacity_bits_per_slot" else f for f in fields)
    return header, [tuple(getattr(r, f) for f in fields) for r in results]


def _gamma_grid(args) -> tuple[np.ndarray, list[int]]:
    """The gamma grid step, 2 * step, ... below 1 and the window lengths of
    `htilde` and `capacity3 --itilde`; a step outside (0, 1) or a window
    below 1 is a usage error."""
    ks = _parse(args.k_set, int)
    if not 0 < args.gamma_step < 1 or any(k < 1 for k in ks):
        raise ValueError("invalid gamma step or k set")
    return np.arange(args.gamma_step, 1.0, args.gamma_step), ks


def cmd_htilde(args) -> int:
    gammas, ks = _gamma_grid(args)
    rows = [(g, k, val) for k in ks for g, val in zip(gammas, h_tilde_grid(gammas, k))]
    _emit(args, {"gamma_step": args.gamma_step, "k_set": ks}, "gamma,k,h_tilde", rows)
    return 0


def cmd_capacity2(args) -> int:
    if args.alpha_fixed is not None:
        res = solve_on_alpha_slice(args.alpha_fixed)
    else:
        res = solve_capacity_2user()
    print(
        f"two-user capacity: {res.capacity_bits_per_slot:.4f} bits/slot "
        f"(alpha={res.alpha:.4f}, gamma1={res.gamma1:.4f}, gamma2={res.gamma2:.4f}; "
        f"certified gap {res.gap_bits:.1e} bits)"
    )
    fields = ("capacity_bits_per_slot", "alpha", "gamma1", "gamma2", "constraint_residual")
    _emit(args, {"alpha_fixed": args.alpha_fixed}, *_table([res], fields))
    return 0


def cmd_capacity3(args) -> int:
    rps = _parse(args.rp_grid, float)
    if any(not 0 <= r < 1 for r in rps):
        raise ValueError("background rates must lie in [0, 1)")
    if args.itilde:
        gammas, ks = _gamma_grid(args)
        rows = [
            (g, k, rp, val)
            for rp in rps
            for k in ks
            for g, val in zip(gammas, i_tilde_curve(gammas, k, rp))
        ]
        cfg = {"rp_grid": rps, "k_set": ks, "gamma_step": args.gamma_step, "itilde": True}
        _emit(args, cfg, "gamma,k,r_p,i_tilde", rows)
        return 0
    fields = ("r_p", "capacity_bits_per_slot", "alpha", "gamma1", "gamma2", "tau_star")
    results = solve_capacity_grid(rps, tau_max=args.tau_max)
    _emit(args, {"rp_grid": rps, "tau_max": args.tau_max}, *_table(results, fields))
    return 0


def cmd_simulate(args) -> int:
    if args.users == 3 and args.rp is None:
        print("three-user simulation needs --rp", file=sys.stderr)
        return 2
    if args.users == 2 and args.rp:
        print(f"usage error: two users have no background, so --rp must be 0, not {args.rp}",
              file=sys.stderr)
        return 2
    # two users are the three-user channel with a silent background
    background = args.rp or 0.0
    cb = build_codebook_3user(
        args.n, args.M, background, tau_max=args.tau_max, delta=args.delta, seed=args.seed
    )
    report = run_transmission(
        cb,
        background_rate=background,
        trials=args.trials,
        seed=args.seed,
        initial_backlog=args.backlog,
    )
    print(
        f"{args.trials} trials at rate {report.empirical_rate_bits_per_slot:.4f} "
        f"bits/slot: {report.errors} errors "
        f"(rate {report.empirical_error_rate:.4f})"
    )
    fields = ("messages_sent", "errors", "empirical_error_rate", "empirical_rate_bits_per_slot",
              "seed")
    keys = ("users", "n", "M", "trials", "rp", "tau_max", "delta", "backlog")
    _emit(args, {key: getattr(args, key) for key in keys}, *_table([report], fields))
    if args.trace:
        # the first message of the run above, on the same seed
        messages, issues = next(_codebook_chunks(cb, background, args.seed, trials=1))
        backlog = _backlog(cb.template, args.backlog)
        trace = simulate(*_schedules(issues[0]), initial_backlog=backlog)
        comments = [
            f"tool=cqclab version={__version__}",
            f"command=simulate-trace message={messages[0]} seed={args.seed}",
        ]
        header = "slot,arrivals_by_user,served_owner,queue_len"
        _write(args.trace, comments, header, trace_to_csv_rows(trace))
    return 0


def cmd_stability(args) -> int:
    rates = _parse(args.rates, float)
    report = stability_probe(rates, args.horizon, seed=args.seed)
    drift = "n/a" if report.drift_above_threshold is None else f"{report.drift_above_threshold:.4f}"
    thr = "n/a" if report.drift_threshold is None else f"{report.drift_threshold:.4f}"
    print(
        f"total rate {report.total_rate:.3f} over {report.horizon} slots: "
        f"final queue {report.final_queue}, max {report.max_queue}, "
        f"second-half mean {report.mean_queue_second_half:.2f}, "
        f"drift above threshold {thr}: {drift}"
    )
    fields = ("total_rate", "horizon", "final_queue", "max_queue", "mean_queue_second_half",
              "squared_increment_mean", "drift_threshold", "drift_above_threshold",
              "slots_above_threshold")
    _emit(args, {"rates": rates, "horizon": args.horizon}, *_table([report], fields))
    return 0


def _h_tilde_checks(rng, samples: int) -> tuple[float, float, float]:
    """Worst deviations of the dual formula and the mirror symmetry of
    h_tilde, and its worst concavity margin over seeded samples."""
    # the h_tilde concavity check's seeded samples, drawn one sample at a time
    draws = np.empty((max(samples * 4, 100), 7))
    for row in draws:
        k1 = int(rng.integers(1, 9))
        k3 = int(rng.integers(1, 9))
        klo, khi = min(k1, k3), max(k1, k3)
        k2 = int(rng.integers(klo, khi + 1))
        if k1 == k3:
            a = float(rng.uniform())
        else:
            a = (1.0 / k2 - 1.0 / k3) / (1.0 / k1 - 1.0 / k3)
        g1, g3 = rng.uniform(size=2)
        row[:] = k1, k2, k3, a, g1, a * g1 + (1 - a) * g3, g3
    ks, a, gs = draws[:, :3].astype(int), draws[:, 3], draws[:, 4:]

    # one h_tilde_grid call and one batched tilt solve per window length
    dual_g = np.arange(0.01, 1.0, 0.01)
    sym_g = np.arange(0.01, 0.5, 0.01)
    h = np.empty(gs.shape)  # h_tilde at the drawn (gamma1, gamma2, gamma3)
    worst_dual = worst_sym = 0.0
    for k in range(1, 9):
        at_k = ks == k
        vals = h_tilde_grid(np.concatenate([sym_g, 1 - sym_g, gs[at_k]]), k)
        sym, mirror, h[at_k] = np.split(vals, [sym_g.size, 2 * sym_g.size])
        # dual-formula equivalence of the entropy ceiling: the rate function
        # and the entropy of the tilted law, both at the tilts of one solve
        x = k * dual_g
        lam, p = solve_tilt_grid(k, x)
        via_rate = (math.log2(k + 1) - _rate_at_tilts(k, lam, x) * LOG2E) / k
        via_tilt = -(p * np.log2(np.where(p > 0, p, 1.0))).sum(axis=1) / k
        worst_dual = max(worst_dual, float(np.abs(via_rate - via_tilt).max()))
        # mirror symmetry of the entropy ceiling
        worst_sym = max(worst_sym, float(np.abs(sym - mirror).max()))

    # concavity of the entropy ceiling in (gamma, 1/k)
    lhs = a * h[:, 0] + (1 - a) * h[:, 2]
    return worst_dual, worst_sym, float((h[:, 1] - lhs).min())


def cmd_validate(args) -> int:
    if args.samples < 0:
        raise ValueError("samples must be >= 0")
    rng = np.random.default_rng(args.seed)
    tol_dual = args.tolerance if args.tolerance is not None else 1e-9
    tol_sym = args.tolerance if args.tolerance is not None else 1e-10
    tol_conc = args.tolerance if args.tolerance is not None else 1e-9
    tol_mix = args.tolerance if args.tolerance is not None else 1e-6
    worst_dual, worst_sym, worst_conc = _h_tilde_checks(rng, args.samples)

    # mixed-window concavity of the noisy ceiling
    report = validate_i_concavity(
        tau_max=args.tau_max,
        samples=args.samples,
        seed=args.seed,
        tolerance=tol_mix,
    )

    rows = [
        ("dual_formula", worst_dual, tol_dual),
        ("symmetry", worst_sym, tol_sym),
        ("h_tilde_concavity", worst_conc, -tol_conc),
        ("mixed_window_concavity", report.worst_margin, -tol_mix),
    ]
    cfg = {"tau_max": args.tau_max, "samples": args.samples}
    _emit(args, cfg, "check,worst_margin,tolerance", rows)
    ok = (
        worst_dual <= tol_dual
        and worst_sym <= tol_sym
        and worst_conc >= -tol_conc
        and report.worst_margin >= -tol_mix
    )
    print(
        f"dual formula worst dev {worst_dual:.3e}; symmetry worst dev {worst_sym:.3e}; "
        f"ceiling concavity worst margin {worst_conc:.3e}; "
        f"mixed-window worst margin {report.worst_margin:.3e} "
        f"({report.samples} samples) -> {'ok' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="cqclab",
        description="covert queueing channel laboratory",
    )
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed (64-bit)")
    parser.add_argument("--out", type=str, default=None, help="CSV output path")
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument(
        "--tolerance", type=float, default=None, help="override the validate tolerances"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("htilde", help="entropy-ceiling sweep over gamma and k")
    p.add_argument("--gamma-step", type=float, default=0.01)
    p.add_argument("--k-set", type=str, default="1,2,3")
    p.set_defaults(func=cmd_htilde)

    p = sub.add_parser("capacity2", help="two-user capacity solve")
    p.add_argument("--alpha-fixed", type=float, default=None)
    p.set_defaults(func=cmd_capacity2)

    p = sub.add_parser("capacity3", help="three-user capacity over background rates")
    p.add_argument("--rp-grid", type=str, default="0,0.05,0.1")
    p.add_argument("--tau-max", type=int, default=8)
    p.add_argument("--itilde", action="store_true", help="emit i_tilde sweep instead")
    p.add_argument("--k-set", type=str, default="1,2,3")
    p.add_argument("--gamma-step", type=float, default=0.01)
    p.set_defaults(func=cmd_capacity3)

    p = sub.add_parser("simulate", help="end-to-end coded transmission")
    p.add_argument("--users", type=int, choices=(2, 3), default=2,
                   help="2: the three-user channel at --rp 0, the only rate it takes; 3: needs --rp")
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--M", type=int, default=16)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--rp", type=float, default=None)
    p.add_argument("--tau-max", type=int, default=8)
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--backlog", type=int, default=None)
    p.add_argument("--trace", type=str, default=None, help="per-slot trace CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stability", help="Bernoulli-traffic queue drift probe")
    p.add_argument("--rates", type=str, default="0.475,0.475")
    p.add_argument("--horizon", type=int, default=10**6)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("validate", help="property sweeps with worst margins")
    p.add_argument("--tau-max", type=int, default=8)
    p.add_argument("--samples", type=int, default=500)
    p.set_defaults(func=cmd_validate)
    return parser, sub.choices


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every call, built on the first one and never changed:
    a --config call puts its defaults on a parser of its own."""
    return build_parser()[0]


def _typed_config(actions: dict, cfg: dict) -> dict:
    """cfg with each option's value passed through the argparse type and
    choices of its action in `actions`, as the same value given as a flag
    would be; a flag option (one that takes no value, such as --itilde)
    takes only JSON true or false. A value that does not convert, or is not
    one of the choices, raises ValueError naming its key."""
    out = dict(cfg)
    for key, value in cfg.items():
        a = actions[key]
        if a.nargs == 0 and not isinstance(value, bool):
            raise ValueError(f"config key {key!r}: invalid value {value!r}")
        if a.type is not None and value is not None:
            try:
                out[key] = a.type(str(value))
            except ValueError:
                raise ValueError(f"config key {key!r}: invalid value {value!r}") from None
            if a.choices is not None and out[key] not in a.choices:
                raise ValueError(f"config key {key!r}: {value!r} is not one of {list(a.choices)}")
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _shared_parser().parse_args(argv)
    if args.config:
        parser, subparsers = build_parser()
        parsers = parser, subparsers[args.command]  # the two that parse this call
        with open(args.config) as fh:
            cfg = json.load(fh)
        actions = {a.dest: a for p in parsers for a in p._actions
                   if a.option_strings and a.dest not in ("help", "config")}
        bad = set(cfg) - set(actions)
        if bad:
            print(f"unknown config keys: {sorted(bad)}", file=sys.stderr)
            return 2
        try:
            cfg = _typed_config(actions, cfg)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for p in parsers:
            p.set_defaults(**cfg)
        args = parser.parse_args(argv)
    if args.tolerance is not None and args.command != "validate":
        print(f"usage error: --tolerance applies only to validate, not {args.command}",
              file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, LookupError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""SHA-256 digests of the package's outputs, one per group of outputs, so
that two checkouts can be compared group by group: which outputs a change
moves and which stay bitwise.

    python tools/output_digest.py [--json] [TREE ...]

Each TREE is a checkout of this repository (default: the one holding this
script). For each tree a fresh Python process imports `cqclab` from
TREE/src, computes one fixed set of outputs and hashes it group by group;
the script prints one line per group and a total, one column per tree. It
exits 1 when any group differs between the trees, and names those groups
on stderr. Every float is hashed by its exact repr and every array by its
dtype, shape and bytes, so equal digests mean bitwise-equal outputs. The
golden CLI cases are the argv lists of tests/golden_cli.json in the
checkout holding this script, so every tree runs the same commands. One
tree takes a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
GROUPS = ("fcfs", "coding", "ensemble", "dist", "pairs", "slices", "cli")
RATES = [round(0.05 * i, 2) for i in range(17)]


def _feed(h, x) -> None:
    """Feed one output into the hash: dataclasses field by field, arrays by
    dtype, shape and bytes, floats by their round-trip repr."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        h.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            h.update(f.name.encode())
            _feed(h, getattr(x, f.name))
    elif isinstance(x, np.ndarray):
        h.update(f"{x.dtype.str}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (list, tuple)):
        h.update(f"{type(x).__name__}{len(x)}".encode())
        for v in x:
            _feed(h, v)
    elif isinstance(x, dict):
        h.update(f"dict{len(x)}".encode())
        for k, v in x.items():
            _feed(h, k)
            _feed(h, v)
    elif isinstance(x, np.generic):
        _feed(h, x.item())
    else:
        h.update(f"{type(x).__name__}:{x!r};".encode())


def _outcome(f, *args, **kwargs):
    """f's result, or the type and message of the error it raises."""
    try:
        return f(*args, **kwargs)
    except Exception as e:  # an error is an output too
        return ("raises", type(e).__name__, str(e))


def _fcfs(cq):
    fcfs = cq.fcfs
    rng = np.random.default_rng(7)
    out = []
    for n, rp in ((40, None), (200, 0.1), (10**6, 0.3)):  # the last is a long trace
        dec = cq.ArrivalSchedule(fcfs.DECODER, np.append((rng.random(n) < 0.5).astype(np.int8), 1))
        enc = cq.ArrivalSchedule(fcfs.ENCODER, np.append((rng.random(n) < 0.4).astype(np.int8), 0))
        bg = None if rp is None else cq.ArrivalSchedule.bernoulli(fcfs.BACKGROUND, rp, n + 1, rng)
        trace = cq.simulate(dec, enc, bg, initial_backlog=n // 2)
        out += [trace, cq.observe(trace)]
    for rates in ((0.475, 0.475), (0.525, 0.525), (0.3,), (0.0,), (0.3, 0.3, 0.3), (0.49, 0.5),
                  (0.4999, 0.5), (0.2, 0.1), (0.33, 0.33, 0.33)):
        for horizon in (1, 7, 1000, 16384, 16385, 50001, 300000):
            for backlog in (0, 3, 50, 10**6, 10**15):
                out.append(cq.stability_probe(rates, horizon, seed=9, initial_backlog=backlog))
    out += [cq.empirical_channel_law(2, 0.3, 10**5, seed=4),
            cq.empirical_channel_law(3, 0.1, 10**5, seed=5, encoder_rate=0.3)]
    return out


def _coding(cq):
    out = []
    cb2 = cq.build_codebook_2user(60, 256, seed=11)
    out += [cb2, cq.coding.dump_codebook(cb2)]
    out.append(cq.run_transmission(cb2, trials=300, seed=12))
    for rp in (0.1, 0.3):
        cb3 = cq.build_codebook_3user(60, 256, rp, seed=13)
        out += [cb3, cq.coding.dump_codebook(cb3)]
        out.append(cq.run_transmission(cb3, background_rate=rp, trials=300, seed=14))
    cb = cq.build_codebook_3user(16, 256, 0.1, seed=15)
    out.append(cq.run_transmission(cb, background_rate=0.1, trials=200, seed=16))
    out.append(_outcome(cq.run_transmission, cb2, trials=5, seed=1, initial_backlog=1))
    return out


def _ensemble(cq):
    cap = cq.solve_capacity_3user(0.1, 8)
    c = cap.capacity_bits_per_slot
    return [cq.ensemble_error_rate(n, 2.0 ** int(0.8 * c * n), 0.1, trials=100, seed=n,
                                   capacity=cap) for n in (60, 120, 240)]


def _dist(cq):
    dist = cq.dist
    out = []
    for k in (1, 2, 5, 8, 16):
        means = np.linspace(0.0, k, 41)
        out += [dist.solve_tilt_grid(k, means[1:-1])]
        out += [[_outcome(cq.solve_tilt, k, float(m)) for m in means]]
        out += [[_outcome(cq.rate_function, k, float(x)) for x in means]]
        gammas = np.linspace(0.0, 1.0, 101)
        out += [dist.h_tilde_grid(gammas, k), [cq.h_tilde(float(g), k) for g in gammas]]
        out += [cq.tilted_pmf(k, lam) for lam in (-3.0, -0.5, 0.0, 0.7, 4.0)]
    ps = (0.0, 1e-9, 0.01, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-9, 1.0)
    for k in [*range(65), 500, 1029, 1030]:
        out += [_outcome(cq.binomial_pmf, k, p) for p in ps]
    return out


def _pairs(cq):
    out = [cq.solve_capacity_grid([r for r in RATES if 1 - r >= 1 / t - 1e-12], t)
           for t in (2, 3, 8, 16)]
    out += [cq.solve_capacity_3user(rp, 8) for rp in (0.0, 0.05, 0.1, 0.3, 0.5, 0.7)]
    out += [cq.solve_capacity_2user(), _outcome(cq.solve_capacity_3user, 0.9, 8)]
    slice_ = cq.capacity2.solve_on_alpha_slice
    out += [_outcome(slice_, a) for a in [*np.linspace(0.0, 1.0, 41), 0, 1, np.float64(1.0), -0.1]]
    out += [cq.capacity3._program_path(tau, np.array(RATES[: 2 * tau + 2])) for tau in (1, 3, 6)]
    return out


def _slices(cq):
    c3 = cq.capacity3
    gammas = np.linspace(0.0, 1.0, 101)
    out = [cq.i_tilde_curve(gammas, k, rp) for k, rp in ((2, 0.1), (3, 0.3), (5, 0.1), (8, 0.5))]
    rng = np.random.default_rng(3)
    points = zip(rng.uniform(size=40), rng.integers(1, 12, 40), rng.uniform(size=40))
    out += [cq.h_check(float(g), int(k), float(rp)) for g, k, rp in points]
    out += [cq.i_tilde(g, 4, 0.2) for g in (0.0, 1e-12, 0.3, 1 - 1e-12, 1.0)]
    out += [cq.validate_i_concavity(8, 200, seed=3), cq.validate_i_concavity(5, 100, seed=1,
                                                                          r_p_step=2.0)]
    out.append(c3.degradation_violations(np.linspace(0.05, 0.95, 10), [2, 3, 5]))
    out.append(c3.concavity_margin(2, 0.1, 0.0, 0.05))
    for k in (2, 5, 12):
        out.append(c3._slices(k, rng.uniform(size=50), rng.uniform(size=50)))
    return out


def _cli(cq):
    out = []
    golden = json.loads(os.environ["DIGEST_GOLDEN"])
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(golden):
            csv, trace = Path(tmp, f"{name}.csv"), Path(tmp, f"{name}.trace")
            argv = [str(trace) if a == "TRACE" else a for a in golden[name]["argv"]]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                code = cq.cli.main(["--out", str(csv), *argv])
            out.append((name, code, sink.getvalue(),
                        *(p.read_text() if p.exists() else None for p in (csv, trace))))
    return out


def _inner() -> None:
    """Compute and hash every group in this process; print them as JSON."""
    import cqclab as cq
    import cqclab.cli  # noqa: F401  (the one submodule the package does not import)

    digests = {}
    for name in GROUPS:
        h = hashlib.sha256()
        _feed(h, globals()[f"_{name}"](cq))
        digests[name] = h.hexdigest()
    digests["total"] = hashlib.sha256("".join(digests[g] for g in GROUPS).encode()).hexdigest()
    print(json.dumps(digests))


def digest(tree: Path) -> dict[str, str]:
    """The group digests of the checkout `tree`, computed in a fresh process."""
    golden = json.loads((HERE / "tests" / "golden_cli.json").read_text())
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "DIGEST_GOLDEN": json.dumps({k: {"argv": v["argv"]} for k, v in golden.items()})}
    done = subprocess.run([sys.executable, __file__, "--inner"], env=env, cwd=tree,
                          capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"digest of {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[HERE])
    parser.add_argument("--json", action="store_true", help="print {tree: {group: sha256}}")
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.inner:
        return _inner()
    got = {str(t): digest(t.resolve()) for t in args.trees}
    differ = [g for g in GROUPS if len({d[g] for d in got.values()}) > 1]
    if args.json:
        print(json.dumps(got, indent=2))
    else:
        cols = list(got)
        print("group     " + "  ".join(f"{c[-16:]:>16}" for c in cols))
        for g in (*GROUPS, "total"):
            shas = [got[c][g] for c in cols]
            same = "" if len(set(shas)) == 1 else "  differs"
            print(f"{g:<10}" + "  ".join(f"{s[:16]:>16}" for s in shas) + same)
    if differ:
        sys.exit(f"groups that differ: {', '.join(differ)}")


if __name__ == "__main__":
    main()

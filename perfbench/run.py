"""cqclab benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --record [--workload NAME]

Runs from the root of a source checkout and imports the package from
`src/`. Every pass of a workload runs in a fresh interpreter
(`worker.py`) with BLAS and OpenMP pinned to one thread, so module caches
start cold as they do for a CLI user.

--trace 0 runs round(S / round_s) timed rounds (at least one; `round_s`
is the workload's round time on the unmodified package; one round with
--smoke), each in its own pass,
plus set-up-only passes until set-up has been timed MIN_SETUPS times, and
reports medians over the passes: `work_s` sums, over the operations of
a round, each operation's median time across the rounds. --trace 1 runs one
untraced and one traced round and reports the per-layer metrics, the
untraced breakdown of the round, and the tracing overhead. --record writes
the reference outputs every later run is checked against.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A summary and the environment go to standard error and, with every
worker record, to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SETUPS = 3
BUDGET_S = 170.0  # a run ends well within 180 s

# (name, unit, better, bound): bound is the share of the parent commit's
# median a later change may lose before it counts as a regression
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("work_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
PER_LAYER = (
    *tracing.metric_specs(),
    ("trace.overhead_s", "s", "lower"),
    *workloads.PARTS,
)

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cfg: dict, deadline: float) -> dict:
    """Run one worker pass and return its record."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise WorkerError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the time budget: {cfg}") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}: {cfg}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, cfg, deadline) -> tuple[dict, list]:
    """Untraced: a fixed number of timed rounds, plus set-up-only passes."""
    round_s = workloads.WORKLOADS[args.workload].round_s
    n_rounds = 1 if args.smoke else max(1, round(args.seconds / round_s))
    records = [
        spawn({**cfg, "round": i < n_rounds, "trace": False}, deadline)
        for i in range(max(n_rounds, MIN_SETUPS))
    ]
    rounds = [r for r in records if "work_s" in r]
    # every round runs the same operations in the same order; the median of
    # each operation across rounds discounts a burst of load on the machine
    op_times = zip(*([op["seconds"] for op in r["ops"]] for r in rounds))
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "work_s": sum(statistics.median(times) for times in op_times),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return metrics, records


def measure_traced(cfg, deadline) -> tuple[dict, list]:
    """One untraced and one traced round: per-layer metrics and overhead."""
    plain = spawn({**cfg, "round": True, "trace": False}, deadline)
    traced = spawn({**cfg, "round": True, "trace": True}, deadline)
    metrics = dict(traced["layer"])
    metrics["trace.overhead_s"] = traced["work_s"] - plain["work_s"]
    for name, _, _ in workloads.PARTS:
        metrics[name] = plain["parts"].get(name, 0.0)
    return metrics, [plain, traced]


def record_references(args) -> int:
    """Record each workload's outputs on every reference input, both sizes."""
    path = HERE / "reference.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        wl = workloads.WORKLOADS[name]
        for mode in ("full", "smoke"):
            seeds = range(workloads.REFERENCE_POOL) if wl.seeded else [0]
            for seed in seeds:
                cfg = {"workload": name, "seed": seed, "mode": mode, "round": True,
                       "trace": False, "record": True, "out": str(OUT)}
                rec = spawn(cfg, time.monotonic() + 600.0)
                failed = [op for op in rec["ops"] if op["error"]]
                if failed:
                    print(f"{name} {mode} seed {seed}: {failed}", file=sys.stderr)
                    return 1
                key = workloads.reference_key(wl, seed)
                refs.setdefault(name, {}).setdefault(mode, {})[key] = {
                    op["name"]: op["outputs"] for op in rec["ops"]
                }
                print(f"recorded {name} {mode} {key}", file=sys.stderr)
                path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one round")
    parser.add_argument("--record", action="store_true", help="record reference outputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cqclab" / "__init__.py").is_file():
        print(f"no cqclab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.record:
        return record_references(args)
    if args.workload is None:
        parser.error("--workload is required")

    deadline = time.monotonic() + BUDGET_S
    cfg = {"workload": args.workload, "seed": args.seed, "mode": "smoke" if args.smoke else "full",
           "record": False, "out": str(OUT)}
    try:
        if args.trace:
            values, records = measure_traced(cfg, deadline)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            values, records = measure(args, cfg, deadline)
            units = {name: unit for name, unit, _, _ in END_TO_END}
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for r in records for op in r["ops"]]
    failures = [f"{op['name']}: {op['error']}" for op in ops if op["error"]]
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    rounds = [r for r in records if "parts" in r and "layer" not in r]
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "env": records[0]["env"],
        "passes": len(records),
        "rounds": len(rounds),
        "fail_frac": len(failures) / max(len(ops), 1),
        "failures": failures,
        "parts": {k: statistics.median(r["parts"][k] for r in rounds) for k in rounds[0]["parts"]},
        "tail_levels": records[-1].get("tail_levels", {}),
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"summary": summary, "result": result, "records": records}, indent=1) + "\n"
    )
    print(json.dumps({k: summary[k] for k in ("workload", "env", "rounds", "fail_frac", "parts")}),
          file=sys.stderr)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

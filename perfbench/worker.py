"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json config>'

The config names the workload, seed, size mode ("full" or "smoke"), whether
to run the timed round, whether to trace, and the output directory. The
pass sets up (importing the package counts as set-up), optionally runs the
round, and when traced also runs the layer probes and writes its spans.
The last line of standard output is one JSON record; run.py reads it.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


def run_op(op: workloads.Op, span) -> dict:
    t0 = time.perf_counter()
    outputs, error = None, None
    try:
        with span(f"bench.{op.name}", new_trace=True):
            outputs = op.run()
    except Exception as exc:  # one failed operation must not stop the run
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    return {"name": op.name, "seconds": time.perf_counter() - t0, "outputs": outputs,
            "tol": op.tol, "error": error}


def check(results: list[dict], reference: dict | None) -> None:
    """Mark each result whose outputs differ from the recorded reference."""
    for r in results:
        if r["error"] or r["tol"] is None:
            continue
        expected = (reference or {}).get(r["name"])
        if expected is None:
            r["error"] = "no reference output recorded for this input"
            continue
        mismatches = workloads.compare(r["outputs"], expected, r["tol"])
        if mismatches:
            r["error"] = "output mismatch: " + "; ".join(mismatches[:3])


def main(cfg: dict) -> dict:
    import numpy
    import scipy

    import cqclab
    import cqclab.cli  # noqa: F401  (the CLI workloads call cqclab.cli.main)

    wl = workloads.WORKLOADS[cfg["workload"]]
    sizes = workloads.SIZES[cfg["mode"]]
    seed = workloads.input_seed(wl, cfg["seed"])
    tracer = tracing.Tracer() if cfg["trace"] else None
    if tracer:
        tracing.install(tracer, cqclab)
    span = tracer.span if tracer else workloads.no_span
    out = Path(cfg["out"])
    tmp = out / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    record = {
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "seed": cfg["seed"],
            "input_seed": seed,
        },
        "ops": [],
    }
    try:
        with span("bench.setup"):
            state = wl.setup(cqclab, sizes, seed, tmp, span)
        record["setup_s"] = time.perf_counter() - START
        if cfg["round"]:
            ops = wl.ops(cqclab, state, sizes, seed, tmp, span, bool(tracer))
            t0 = time.perf_counter()
            with span("bench.round"):
                results = [run_op(op, span) for op in ops]
            record["work_s"] = time.perf_counter() - t0
            record["parts"] = wl.parts(results, record["work_s"])
            if tracer:
                with span("bench.probe"):
                    results += [run_op(op, span) for op in wl.probes(cqclab, state, sizes, seed, tmp, span)]
            if not cfg["record"]:
                refs = json.loads((HERE / "reference.json").read_text())
                key = workloads.reference_key(wl, cfg["seed"])
                check(results, refs.get(cfg["workload"], {}).get(cfg["mode"], {}).get(key))
            record["ops"] = [{k: r[k] for k in ("name", "seconds", "outputs", "error")} for r in results]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        record["layer"], record["tail_levels"] = tracing.layer_metrics(tracer.spans)
        path = out / f"spans-{cfg['workload']}-seed{cfg['seed']}.jsonl"
        with path.open("w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "trace", "name", "start_ns",
                                              "end_ns", "attrs"), s))) + "\n")
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

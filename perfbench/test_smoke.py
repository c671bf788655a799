"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every run emits every metric BENCHMARK.json names, with its
unit, that BENCHMARK.json matches the benchmark's own metric registry
(names, units, directions, bounds), that each workload exercises the
layers it is meant to and bypasses the others, and that the benchmark
refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# per-layer sample counts a traced smoke run must make (> 0) or not (== 0)
EXERCISED = {
    "capacity_sweep": {
        "cli.main_s.capacity2.n", "cli.main_s.capacity3.n", "capacity2.solve_capacity_2user_s.n",
        "capacity3.solve_capacity_3user_s.rp0_0.n", "dist.h_tilde_grid_ms.n",
        "capacity3.i_tilde_curve_s.k2.n", "capacity3.i_tilde_curve_s.k5.n",
    },
    "validate_sweep": {
        "cli.main_s.validate.n", "capacity3.validate_i_concavity_s.n", "dist.h_tilde_us.n",
        "dist.solve_tilt_us.n", "capacity3.h_check_ms.n",
    },
    "coded_channel": {
        "coding.decode_2user_us.n", "coding.decode_3user_us.n", "capacity3.channel_matrix_us.n",
        "dist.binomial_pmf_us.n", "fcfs.arrival_schedule_us.short.n", "fcfs.simulate_us.short.n",
        "fcfs.observe_us.short.n", "fcfs.simulate_ms_per_mslot.long.n",
        "fcfs.observe_ms_per_mslot.long.n", "fcfs.stability_probe_s.n",
        "fcfs.empirical_channel_law_s.n", "coding.ensemble_trial_ms.n60.n",
        "coding.ensemble_trial_ms.n120.n", "coding.ensemble_trial_ms.n240.n",
        "coding.build_codebook_2user_ms.n", "coding.build_codebook_3user_ms.n",
        "capacity3.solve_capacity_3user_s.rp0_1.n",
    },
}
BYPASSED = {
    "capacity_sweep": {"fcfs.calls", "coding.calls"},
    "validate_sweep": {"fcfs.calls", "coding.calls"},
    "coded_channel": {"cli.calls", "capacity2.calls"},
}


def bench_doc() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_matches_registry():
    doc = bench_doc()
    assert [tuple(m.values()) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert m["better"] in ("lower", "higher")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    named = bench_doc()["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in named}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert all(values[name] > 0 for name in EXERCISED[workload])
        assert all(values[name] == 0 for name in BYPASSED[workload])
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_to_run_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("--workload", "coded_channel", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

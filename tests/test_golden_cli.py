"""Byte-level golden outputs of every CLI command.

`golden_cli.json` holds, per case, the argv (TRACE stands for the trace
path), the exit code, stdout, the CSV file and the trace file of a small
run, recorded from the package before its CSV writers were merged into one.
Any moved byte fails the case. One stdout text was re-recorded since: the
certified gap of `capacity2` reads 1.6e-16 bits (4.8e-16 before) once
every barrier stage but the last ends a row at its own mu. Three CSV
bodies were re-recorded in their last digits when the slice solve moved
from the barrier path to the primal-dual iteration, which removed the
barrier's bias: `capacity3_itilde` (k = 3, gamma = 0.1, r_p = 0.2:
0.148468737717 -> 0.148468737718), `validate` (-0.00607672249281 ->
-0.00607672249353) and `validate_tolerance` (-0.00573284394425 ->
-0.00573284394378); every other CSV body is as first recorded.
"""

import json
from pathlib import Path

import pytest

from cqclab.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_are_byte_identical(case, tmp_path, capsys):
    want = GOLDEN[case]
    out, trace = tmp_path / "out.csv", tmp_path / "trace.csv"
    argv = [str(trace) if a == "TRACE" else a for a in want["argv"]]
    code = main(["--out", str(out), *argv])
    assert code == want["exit"]
    assert capsys.readouterr().out == want["stdout"]
    assert out.read_text() == want["csv"]
    assert (trace.read_text() if trace.exists() else None) == want["trace"]


def test_without_out_the_csv_goes_to_stdout(tmp_path, monkeypatch, capsys):
    want = GOLDEN["capacity2"]
    monkeypatch.chdir(tmp_path)
    assert main(want["argv"]) == want["exit"]
    assert capsys.readouterr().out == want["stdout"] + want["csv"]
    assert not list(tmp_path.iterdir())

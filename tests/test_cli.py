import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cqclab
from cqclab import capacity3, cli
from cqclab.cli import main
from cqclab.coding import build_codebook_3user, probe_stream
from cqclab.fcfs import (
    BACKGROUND,
    DECODER,
    ENCODER,
    ArrivalSchedule,
    simulate,
    trace_to_csv_rows,
)


def _run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main(["--out", str(out), *argv])
    body = out.read_text() if out.exists() else ""
    return code, body


def _rows(body):
    return [ln for ln in body.splitlines() if ln and not ln.startswith("#")]


class TestHtilde:
    def test_default_grid_row_count(self, tmp_path):
        code, body = _run(tmp_path, "htilde")
        rows = _rows(body)
        assert code == 0
        assert rows[0] == "gamma,k,h_tilde"
        assert len(rows) - 1 == 3 * 99

    def test_known_rows(self, tmp_path):
        _, body = _run(tmp_path, "htilde", "--gamma-step", "0.25", "--k-set", "1,2")
        rows = _rows(body)[1:]
        table = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[2]) for r in rows}
        assert table[("0.5", "1")] == pytest.approx(1.0, abs=1e-12)
        assert table[("0.5", "2")] == pytest.approx(math.log2(3) / 2, abs=1e-9)

    def test_bad_grid_exits_2(self, tmp_path):
        code, _ = _run(tmp_path, "htilde", "--gamma-step", "2.0")
        assert code == 2


@pytest.mark.parametrize("command", [["htilde"], ["capacity3", "--itilde"]])
@pytest.mark.parametrize("grid", [["--gamma-step", s] for s in ("0", "-0.1", "1.5", "nan")]
                         + [["--k-set", "0,1"]])
def test_bad_gamma_grid_is_a_usage_error(tmp_path, capsys, command, grid):
    code, body = _run(tmp_path, *command, *grid)
    assert code == 2
    assert body == ""
    assert capsys.readouterr().err == "error: invalid gamma step or k set\n"


class TestCapacity2:
    def test_reports_known_capacity(self, tmp_path, capsys):
        code, body = _run(tmp_path, "capacity2")
        assert code == 0
        row = _rows(body)[1].split(",")
        assert float(row[0]) == pytest.approx(0.8114, abs=5e-4)
        assert "0.8114" in capsys.readouterr().out

    def test_alpha_fixed_slice(self, tmp_path):
        code, body = _run(tmp_path, "capacity2", "--alpha-fixed", "0")
        assert code == 0
        assert float(_rows(body)[1].split(",")[0]) == pytest.approx(
            math.log2(3) / 2, abs=1e-9
        )

    def test_alpha_fixed_near_one(self, tmp_path):
        # a frozen mix near 1 exits 0 with a certified point
        code, body = _run(tmp_path, "capacity2", "--alpha-fixed", "0.9999")
        assert code == 0
        assert float(_rows(body)[1].split(",")[1]) == 0.9999

    @pytest.mark.parametrize("alpha", ["1.5", "nan"])
    def test_alpha_outside_box_is_a_usage_error(self, tmp_path, capsys, alpha):
        code, body = _run(tmp_path, "capacity2", "--alpha-fixed", alpha)
        assert code == 2
        assert body == ""
        assert "outside [0, 1]" in capsys.readouterr().err

    def test_header_has_no_tolerance(self, tmp_path):
        _, body = _run(tmp_path, "capacity2")
        assert any('"alpha_fixed": null' in ln for ln in body.splitlines())
        assert "tolerance" not in body

    def test_tolerance_is_a_usage_error(self, tmp_path, capsys):
        code, body = _run(tmp_path, "--tolerance", "1e-6", "capacity2")
        assert code == 2
        assert body == ""
        assert "--tolerance applies only to validate" in capsys.readouterr().err


class TestCapacity3:
    def test_noiseless_row_matches_two_user(self, tmp_path, cap2):
        code, body = _run(tmp_path, "--seed", "1", "capacity3", "--rp-grid", "0")
        assert code == 0
        row = _rows(body)[1].split(",")
        assert float(row[1]) == pytest.approx(cap2.capacity_bits_per_slot, abs=1e-3)
        assert int(row[5]) == 1

    def test_itilde_mode_matches_htilde_at_zero_noise(self, tmp_path):
        _, body = _run(
            tmp_path,
            "capacity3",
            "--itilde",
            "--rp-grid",
            "0",
            "--k-set",
            "1,2",
            "--gamma-step",
            "0.2",
        )
        _, href = _run(tmp_path, "htilde", "--gamma-step", "0.2", "--k-set", "1,2")
        ivals = [float(r.split(",")[3]) for r in _rows(body)[1:]]
        hvals = [float(r.split(",")[2]) for r in _rows(href)[1:]]
        assert ivals == pytest.approx(hvals, abs=1e-6)

    def test_low_noise_rows_use_shortest_windows(self, tmp_path):
        code, body = _run(tmp_path, "capacity3", "--rp-grid", "0.1")
        assert code == 0
        row = _rows(body)[1].split(",")
        assert int(row[5]) == 1

    def test_bad_rate_exits_2(self, tmp_path):
        code, _ = _run(tmp_path, "capacity3", "--rp-grid", "1.5")
        assert code == 2

    def test_window_beyond_the_float_binomial_exits_2(self, tmp_path, capsys):
        # it used to die with an OverflowError traceback and exit 1
        code, _ = _run(tmp_path, "capacity3", "--itilde", "--k-set", "1030",
                       "--rp-grid", "0.1", "--gamma-step", "0.5")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: k=1030: the binomial coefficients exceed the float range\n"
        )

    @pytest.mark.parametrize("extra", [[], ["--itilde"]])
    def test_rate_of_one_is_a_usage_error(self, tmp_path, capsys, monkeypatch, extra):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the rates were checked")

        monkeypatch.setattr(cli, "solve_capacity_grid", no_solve)
        monkeypatch.setattr(cli, "i_tilde_curve", no_solve)
        code, body = _run(tmp_path, "capacity3", "--rp-grid", "0,1", *extra)
        assert code == 2
        assert body == ""
        assert capsys.readouterr().err == "error: background rates must lie in [0, 1)\n"

    def test_one_program_path_per_lockstep_step(self, tmp_path, monkeypatch):
        # one sweep over ascending tau: each tau solves the pair of every
        # rate still in its loop in one program path
        paths = []
        real = capacity3._program_path

        def path(tau, r_ps):
            paths.append((tau, r_ps.size))
            return real(tau, r_ps)

        monkeypatch.setattr(capacity3, "_program_path", path)
        code, _ = _run(tmp_path, "capacity3", "--rp-grid", "0,0.1,0.3", "--tau-max", "8")
        assert code == 0
        # the pairs (1, 2) and (2, 3) of all three rates, then (3, 4) of the
        # two rates whose optimum did not yet decrease
        assert paths == [(1, 3), (2, 3), (3, 2)]

    def test_one_slice_path_per_tau_and_pure_window(self, tmp_path, monkeypatch):
        # the windows alone of each tau are solved after its program path,
        # one slice call per window length, each (k, gamma, r_p) once in
        # the sweep
        calls = []
        real = capacity3._slices

        def slices(k, r_p, gammas):
            calls.append((k, list(r_p), list(gammas)))
            return real(k, r_p, gammas)

        monkeypatch.setattr(capacity3, "_slices", slices)
        code, _ = _run(tmp_path, "capacity3", "--rp-grid", "0,0.1,0.3", "--tau-max", "8")
        assert code == 0
        # window 2 at r_p 0.1 and 0.3 (tau 1), window 2 at r_p 0 (tau 2),
        # window 3 at r_p 0.1 and 0.3 (tau 3)
        assert [(k, len(g)) for k, _, g in calls] == [(2, 2), (2, 1), (3, 2)]
        points = [(k, g, rp) for k, rps, gs in calls for rp, g in zip(rps, gs)]
        assert len(set(points)) == len(points)
        assert (2, pytest.approx(0.4), 0.1) in points


class TestSimulate:
    def test_noiseless_run_is_clean(self, tmp_path):
        code, body = _run(
            tmp_path, "simulate", "--n", "30", "--M", "16", "--trials", "100"
        )
        assert code == 0
        row = _rows(body)[1].split(",")
        assert int(row[1]) == 0

    def test_seeded_reruns_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        ta = tmp_path / "ta.csv"
        tb = tmp_path / "tb.csv"
        argv = ["--seed", "9", "simulate", "--n", "30", "--M", "8", "--trials", "40"]
        assert main(["--out", str(a), *argv, "--trace", str(ta)]) == 0
        assert main(["--out", str(b), *argv, "--trace", str(tb)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert ta.read_bytes() == tb.read_bytes()

    def test_trace_has_slot_rows(self, tmp_path):
        trace = tmp_path / "trace.csv"
        main(
            ["--out", str(tmp_path / "o.csv"), "simulate", "--n", "30", "--M", "4",
             "--trials", "5", "--trace", str(trace)]
        )
        lines = [ln for ln in trace.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "slot,arrivals_by_user,served_owner,queue_len"
        assert len(lines) >= 31

    @pytest.mark.parametrize("backlog", [None, 40])
    def test_trace_is_the_first_message_of_the_run(self, tmp_path, cap3_rp01, backlog):
        trace = tmp_path / "trace.csv"
        argv = ["--seed", "4", "--out", str(tmp_path / "o.csv"), "simulate", "--users", "3",
                "--rp", "0.1", "--n", "30", "--M", "16", "--trials", "40", "--trace", str(trace)]
        assert main(argv + ([] if backlog is None else ["--backlog", str(backlog)])) == 0
        # the first message and its background, drawn and queued on their own
        cb = build_codebook_3user(30, 16, 0.1, capacity=cap3_rp01, seed=4)
        rng = np.random.default_rng(4)
        msg = int(rng.integers(cb.M))
        decoder = ArrivalSchedule(DECODER, np.append(probe_stream(cb.template).slots, np.int8(1)))
        encoder = ArrivalSchedule(ENCODER, np.append(cb.codewords[msg], np.int8(0)))
        background = ArrivalSchedule.bernoulli(BACKGROUND, 0.1, 31, rng)
        tr = simulate(decoder, encoder, background, initial_backlog=backlog or 30 + cb.tau_star + 1)
        lines = trace.read_text().splitlines()
        assert lines[1] == f"# command=simulate-trace message={msg} seed=4"
        rows = trace_to_csv_rows(tr)
        assert lines[3:] == [",".join(map(str, row)) for row in rows]

    def test_three_user_needs_rate(self, tmp_path):
        code, _ = _run(tmp_path, "simulate", "--users", "3", "--n", "30")
        assert code == 2

    @pytest.mark.parametrize("rp", ["0.1", "1e-9", "-0.2"])
    def test_two_user_rate_other_than_zero_is_a_usage_error(self, tmp_path, capsys, rp):
        code, body = _run(tmp_path, "simulate", "--users", "2", "--rp", rp, "--n", "30")
        assert code == 2 and body == ""
        assert "--rp must be 0" in capsys.readouterr().err

    def test_two_users_are_three_users_at_rate_zero(self, tmp_path):
        # the rounded two-user constants drew another first codeword here
        common = ["--seed", "41", "simulate", "--n", "60", "--M", "64", "--trials", "40"]
        outputs = []
        for users in (["--users", "2"], ["--users", "2", "--rp", "0"], ["--users", "3", "--rp", "0"]):
            out, trace = tmp_path / "o.csv", tmp_path / "t.csv"
            assert main(["--out", str(out), *common, *users, "--trace", str(trace)]) == 0
            outputs.append((_rows(out.read_text()), trace.read_text()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_window_bound_is_in_the_header(self, tmp_path):
        # the window bound can change the codebook and so the errors (33
        # against 17 at --M 64 --trials 300), so the header must name it
        heads = []
        for tau_max in ("2", "8"):
            _, body = _run(tmp_path, "--seed", "3", "simulate", "--users", "3", "--rp", "0.3",
                           "--n", "30", "--M", "8", "--trials", "5", "--tau-max", tau_max)
            heads.append([ln for ln in body.splitlines() if ln.startswith("# config=")])
        assert heads[0] != heads[1]
        assert '"tau_max": 2' in heads[0][0] and '"tau_max": 8' in heads[1][0]

    def test_three_user_end_to_end(self, tmp_path):
        code, body = _run(
            tmp_path, "simulate", "--users", "3", "--rp", "0.1", "--n", "30",
            "--M", "2", "--trials", "50",
        )
        assert code == 0
        row = _rows(body)[1].split(",")
        assert float(row[2]) < 0.2  # error rate of a 2-word codebook


class TestStability:
    def test_subcritical_report(self, tmp_path):
        code, body = _run(
            tmp_path, "stability", "--rates", "0.475,0.475", "--horizon", "100000"
        )
        assert code == 0
        row = _rows(body)[1].split(",")
        assert float(row[0]) == pytest.approx(0.95)
        assert float(row[7]) < 0  # drift above threshold

    def test_known_row_across_blocks(self, tmp_path):
        # recorded from the whole-horizon implementation; five blocks
        code, body = _run(
            tmp_path, "--seed", "9", "stability", "--rates", "0.475,0.475", "--horizon", "300000"
        )
        assert code == 0
        assert _rows(body)[1] == "0.95,300000,2,36,4.46572,0.45248,4.5248,-0.443984393662,113031"

    def test_zero_rate(self, tmp_path):
        code, body = _run(tmp_path, "stability", "--rates", "0", "--horizon", "1000")
        assert code == 0
        assert int(_rows(body)[1].split(",")[3]) == 0


class TestValidate:
    def test_reports_genuine_mixed_window_violation(self, tmp_path, capsys):
        # the noiseless suites hold, the noisy mixed-window inequality does
        # not; the command must surface that as a failure exit
        code, body = _run(
            tmp_path, "--seed", "2", "validate", "--tau-max", "4", "--samples", "60"
        )
        assert code == 1
        table = {r.split(",")[0]: float(r.split(",")[1]) for r in _rows(body)[1:]}
        assert table["dual_formula"] <= 1e-9
        assert table["symmetry"] <= 1e-10
        assert table["h_tilde_concavity"] >= -1e-9
        assert table["mixed_window_concavity"] < -1e-6
        assert "FAIL" in capsys.readouterr().out

    # bodies of `validate --tau-max 8 --samples 50`, recorded from the
    # sequential sweep (one h_tilde / solve_tilt call per point, one slice
    # solve per (k, r_p) group); the batched sweep must reproduce them. The
    # mixed-window margins were re-recorded (-0.014351648551 and
    # -0.016492363267 before) when the slice solve moved from the barrier
    # path, biased by up to 7.5e-12 nats, to the primal-dual iteration
    GOLDEN = {
        0: [
            "check,worst_margin,tolerance",
            "dual_formula,8.74300631892e-16,1e-09",
            "symmetry,1.11022302463e-15,1e-10",
            "h_tilde_concavity,0,-1e-09",
            "mixed_window_concavity,-0.0143516485503,-1e-06",
        ],
        3: [
            "check,worst_margin,tolerance",
            "dual_formula,8.74300631892e-16,1e-09",
            "symmetry,1.11022302463e-15,1e-10",
            "h_tilde_concavity,0,-1e-09",
            "mixed_window_concavity,-0.0164923632677,-1e-06",
        ],
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_body_matches_the_sequential_sweep(self, tmp_path, seed):
        code, body = _run(
            tmp_path, "--seed", str(seed), "validate", "--tau-max", "8", "--samples", "50"
        )
        assert code == 1
        assert _rows(body) == self.GOLDEN[seed]

    def test_absurd_tolerance_fails(self, tmp_path):
        code, _ = _run(
            tmp_path, "--tolerance", "1e-300", "validate", "--tau-max", "3",
            "--samples", "10",
        )
        assert code == 1

    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
    def test_tolerance_that_masks_or_invents_violations_is_a_usage_error(
        self, tmp_path, capsys, tolerance
    ):
        code, body = _run(tmp_path, "--tolerance", tolerance, "validate", "--tau-max", "3",
                          "--samples", "10")
        assert code == 2
        assert body == ""
        assert capsys.readouterr().err.startswith("error: tolerance must be finite and >= 0")

    def test_negative_samples_is_a_usage_error(self, tmp_path, capsys):
        code, body = _run(tmp_path, "validate", "--tau-max", "3", "--samples", "-1")
        assert code == 2
        assert body == ""
        assert capsys.readouterr().err == "error: samples must be >= 0\n"

    def test_negative_samples_are_rejected_before_any_check(self, tmp_path, capsys, monkeypatch):
        def no_checks(*args, **kwargs):
            raise AssertionError("h_tilde checks ran before the usage check")

        monkeypatch.setattr(cli, "_h_tilde_checks", no_checks)
        code, body = _run(tmp_path, "validate", "--tau-max", "3", "--samples", "-1")
        assert code == 2
        assert body == ""
        assert capsys.readouterr().err == "error: samples must be >= 0\n"

    def test_small_sweep_fits_budget(self, tmp_path):
        import time

        t0 = time.perf_counter()
        _run(tmp_path, "validate", "--tau-max", "3", "--samples", "100")
        assert time.perf_counter() - t0 < 10.0


class TestConfig:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma_step": 0.5, "k_set": "1"}))
        _, body = _run(tmp_path, "--config", str(cfg), "htilde")
        assert len(_rows(body)) - 1 == 1  # only gamma = 0.5
        _, body = _run(
            tmp_path, "--config", str(cfg), "htilde", "--gamma-step", "0.25"
        )
        assert len(_rows(body)) - 1 == 3

    def test_config_defaults_stay_off_later_calls(self, tmp_path, monkeypatch):
        # calls without --config share one parser; a --config call builds its own
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._shared_parser.cache_clear()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma_step": 0.5, "k_set": "1", "seed": 7}))
        _, body = _run(tmp_path, "--config", str(cfg), "htilde")
        assert "# seed=7" in body.splitlines()
        _, body = _run(tmp_path, "htilde")
        _run(tmp_path, "capacity2")
        assert len(builds) == 2
        head = body.splitlines()[:4]
        assert head[2:] == ['# config={"gamma_step": 0.01, "k_set": [1, 2, 3]}', "# seed=0"]

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_flag": 1}))
        code, _ = _run(tmp_path, "--config", str(cfg), "htilde")
        assert code == 2

    @pytest.mark.parametrize("key, value", [
        ("func", "x"), ("command", "validate"), ("config", "other.json"),
    ])
    def test_parsed_names_that_are_not_options_are_unknown_keys(self, tmp_path, capsys, key,
                                                                value):
        # the subcommand and its handler are set by the parser, and the config
        # file by the command line, not by a config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, body = _run(tmp_path, "--config", str(cfg), "htilde")
        assert code == 2 and body == ""
        assert capsys.readouterr().err == f"unknown config keys: ['{key}']\n"

    @pytest.mark.parametrize("command, key, value", [
        ("capacity3", "tau_max", 2.5), ("validate", "samples", 2.5),
        ("htilde", "gamma_step", "fine"), ("htilde", "seed", True), ("simulate", "users", 4),
    ])
    def test_config_value_of_the_wrong_type_exits_2(self, tmp_path, capsys, command, key, value):
        # a config value goes through its option's type, as a flag's would
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, body = _run(tmp_path, "--config", str(cfg), command)
        assert code == 2 and body == ""
        assert capsys.readouterr().err.startswith(f"error: config key '{key}'")

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_a_config_flag_is_not_set_by_other_values(self, tmp_path, capsys, value):
        # a flag option takes no argparse type: only JSON true or false reads as one
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"itilde": value}))
        code, body = _run(tmp_path, "--config", str(cfg), "capacity3")
        assert code == 2 and body == ""
        assert capsys.readouterr().err == f"error: config key 'itilde': invalid value {value!r}\n"

    @pytest.mark.parametrize("value", [False, True])
    def test_a_config_flag_takes_true_or_false(self, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"itilde": value, "rp_grid": "0", "tau_max": 2,
                                   "k_set": "1", "gamma_step": 0.5}))
        code, body = _run(tmp_path, "--config", str(cfg), "capacity3")
        assert code == 0
        head = next(ln for ln in body.splitlines() if ln.startswith("# config="))
        assert ('"itilde": true' in head) == value
        assert _rows(body)[0] == ("gamma,k,r_p,i_tilde" if value
                                  else "r_p,capacity,alpha,gamma1,gamma2,tau_star")


def test_header_contains_effective_config(tmp_path):
    _, body = _run(tmp_path, "--seed", "5", "htilde", "--gamma-step", "0.5")
    head = [ln for ln in body.splitlines() if ln.startswith("#")]
    assert any("tool=cqclab" in ln for ln in head)
    assert any('"gamma_step": 0.5' in ln for ln in head)
    assert any("seed=5" in ln for ln in head)


def test_runs_without_scipy():
    # scipy is a test dependency only: with it unimportable the package,
    # its CLI and the solvers all still work
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "import numpy as np",
        "import cqclab, cqclab.cli",
        "from cqclab.capacity2 import solve_capacity_2user, solve_on_alpha_slice",
        "from cqclab.dist import h_tilde_grid, solve_tilt",
        "assert abs(solve_capacity_2user().capacity_bits_per_slot - 0.8113704627516) < 1e-12",
        "assert solve_on_alpha_slice(0.5).gap_bits <= 1e-9",
        "assert abs(solve_tilt(2, 0.86).pmf.mean() - 0.86) < 1e-12",
        "assert h_tilde_grid(np.array([0.5]), 2)[0] > 0.79",
    ])
    src = str(Path(cqclab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr

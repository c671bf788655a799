import dataclasses
import functools
import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqclab
from cqclab import coding
from cqclab.coding import (
    Codebook,
    CollisionExhaustionError,
    DecodeMatchError,
    ProbeTemplate,
    TransmissionReport,
    UnbufferedIntervalError,
    admissible_alpha_slots,
    build_codebook_2user,
    build_codebook_3user,
    decode_2user,
    decode_3user,
    dump_codebook,
    ensemble_error_rate,
    load_codebook,
    probe_stream,
    run_transmission,
    _CHUNK,
    _decode_rows,
)
from cqclab.capacity3 import (
    i_tilde,
    solve_capacity_3user,
    solve_capacity_grid,
    validate_i_concavity,
)
from cqclab.dist import Pmf
from cqclab.fcfs import (
    BACKGROUND,
    DECODER,
    ENCODER,
    ArrivalSchedule,
    ProbeObservations,
    observe,
    simulate,
)


def _pair(tau, short, long):
    """`short` windows of tau slots, then `long` windows of tau + 1 slots,
    with uniform symbol laws."""
    return ProbeTemplate(((tau, short, Pmf.uniform(tau)), (tau + 1, long, Pmf.uniform(tau + 1))))


def _handmade_codebook(rows, short=0):
    """Codewords over `short` one-slot windows, then two-slot windows."""
    cw = np.asarray(rows, dtype=np.int8)
    return Codebook(template=_pair(1, short, (cw.shape[1] - short) // 2), codewords=cw, seed=0)


def _obs(pairs, buffered=True):
    tau = [t for t, _ in pairs]
    return ProbeObservations(
        tau=tau,
        y=[y for _, y in pairs],
        buffered=[buffered] * len(pairs),
        arrival_slot=np.cumsum([0] + tau[:-1]),
    )


class TestSegmentSplit:
    def test_nearest_admissible(self):
        # 0.17 * 30 = 5.1, but the remainder must split into 2-slot windows
        assert admissible_alpha_slots(30, 0.17, 1) == 6

    def test_exact_target(self):
        assert admissible_alpha_slots(40, 0.2, 1) == 8

    def test_tie_prefers_smaller(self):
        # target 3 sits exactly between the admissible 2 and 4
        assert admissible_alpha_slots(10, 0.3, 1) == 2

    def test_zero_alpha(self):
        assert admissible_alpha_slots(60, 0.0, 1) == 0

    def test_no_admissible_split(self):
        with pytest.raises(ValueError):
            admissible_alpha_slots(5, 0.5, 3)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            admissible_alpha_slots(12, alpha, 2)

    def test_nan_delta_is_refused(self, cap3_rp01):
        # alpha - nan is NaN; the split used to pick 0 and build a scheme
        # with no window of tau_star slots
        with pytest.raises(ValueError, match="alpha must be finite"):
            build_codebook_3user(30, 4, 0.1, delta=float("nan"), capacity=cap3_rp01)


class TestSymbolMap:
    @staticmethod
    def _image(count, width):
        # one window of `width` slots carrying `count`
        return ProbeTemplate(((width, 1, Pmf.uniform(width)),)).image(np.array([count]))

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_injective_count_map(self, width):
        images = [self._image(c, width).tolist() for c in range(width + 1)]
        assert len({tuple(im) for im in images}) == width + 1
        for c, im in enumerate(images):
            assert sum(im) == c

    def test_second_segment_pairs(self):
        assert self._image(0, 2).tolist() == [0, 0]
        assert self._image(1, 2).tolist() == [1, 0]
        assert self._image(2, 2).tolist() == [1, 1]

    def test_window_counts_of_row(self):
        cb = _handmade_codebook([[1, 1, 0, 0], [1, 0, 1, 1]], short=2)
        assert cb.window_counts_of(cb.codewords[0]).tolist() == [1, 1, 0]
        assert cb.window_counts_of(cb.codewords[1]).tolist() == [1, 0, 2]

    @pytest.mark.parametrize("length", [29, 31, 32])
    def test_window_counts_of_rejects_wrong_length(self, length):
        cb = build_codebook_2user(30, 4, seed=1)
        with pytest.raises(ValueError):
            cb.window_counts_of(np.zeros(length, dtype=np.int8))


class TestCodebook2User:
    def test_structure(self):
        cb = build_codebook_2user(30, 16, delta=0.007, seed=3)
        assert [(k, count) for k, count, _ in cb.template.windows] == [(1, 6), (2, 12)]
        assert cb.M == 16
        assert cb.codewords.shape == (16, 30)
        assert len(cb.window_lengths()) == 6 + 12

    def test_single_message(self):
        cb = build_codebook_2user(30, 1, seed=0)
        assert cb.M == 1 and cb.rate_bits_per_slot == 0.0

    def test_collision_exhaustion(self):
        with pytest.raises(CollisionExhaustionError):
            build_codebook_2user(2, 10, seed=0)

    def test_symbol_frequencies(self):
        cb = build_codebook_2user(30, 10**5, seed=17)
        ones = cb.template.windows[0][1]  # the one-slot windows come first
        seg2 = cb.codewords[:, ones:].reshape(10**5, -1, 2).sum(axis=2)
        freq = np.bincount(seg2.ravel(), minlength=3) / seg2.size
        assert np.abs(freq - [0.43, 0.325, 0.245]).max() < 0.01
        assert abs(cb.codewords[:, :ones].mean() - 0.43) < 0.01

    def test_design_rate_stays_inside_budget(self, cap3_rp0):
        for n in (30, 60, 120):
            cb = build_codebook_2user(n, 4, seed=1)
            probe_rate = (len(cb.window_lengths()) + 1) / n
            enc_rate = sum(count * law.mean() for _, count, law in cb.template.windows) / n
            (k, count, _), _ = cb.template.windows
            slack = abs(k * count - cap3_rp0.alpha * n) / n
            assert enc_rate + probe_rate <= 1 + 1 / n + slack + 1e-9

    @pytest.mark.parametrize(
        "n, M, seed", [(20, 8, 4), (60, 256, 7), (30, 16, 3), (45, 64, 9), (120, 1024, 1)]
    )
    def test_is_the_three_user_build_at_rate_zero(self, cap3_rp0, n, M, seed):
        # (120, 1024, 1) drew other codewords from the rounded constants
        # 0.177, (0.57, 0.43) and (0.43, 0.325, 0.245)
        two, three = build_codebook_2user(n, M, seed=seed), build_codebook_3user(n, M, 0.0, seed=seed)
        assert two.seed == three.seed and np.array_equal(two.codewords, three.codewords)
        for (k, count, law), (k3, count3, law3), (kw, _, exact) in zip(
            two.template.windows, three.template.windows, cap3_rp0.witness
        ):
            assert (k, count) == (k3, count3) and k == kw
            assert law.probs.tolist() == law3.probs.tolist() == list(exact)

    def test_rejects_duplicate_rows(self):
        with pytest.raises(ValueError):
            _handmade_codebook([[0, 0], [0, 0]])

    def test_rejects_non_symbol_windows(self):
        with pytest.raises(ValueError):
            _handmade_codebook([[0, 1]])  # "01" is not ones-then-zeros

    @pytest.mark.parametrize("codewords", [np.zeros(4), np.zeros((2, 3))])
    def test_rejects_codewords_not_of_shape_m_by_n(self, codewords):
        with pytest.raises(ValueError, match=r"\(M, n\)"):
            Codebook(template=_pair(1, 0, 2), codewords=codewords, seed=0)


class TestCodebook3User:
    def test_zero_noise_recovers_two_user_recipe(self, cap3_rp0):
        cb = build_codebook_3user(30, 8, 0.0, capacity=cap3_rp0, seed=5)
        assert cb.tau_star == 1
        (k1, short, p1), (k2, long, p2) = cb.template.windows
        assert (k1, short, k2, long) == (1, 6, 2, 12)  # same admissible split as the two-user build
        assert np.abs(p1.probs - [0.57, 0.43]).max() < 0.01
        assert np.abs(p2.probs - [0.43, 0.325, 0.245]).max() < 0.01

    def test_rejects_capacity_solved_at_another_rate(self, cap3_rp01):
        with pytest.raises(ValueError):
            build_codebook_3user(60, 4, 0.5, capacity=cap3_rp01)
        with pytest.raises(ValueError):
            ensemble_error_rate(60, 4, 0.5, trials=1, seed=0, capacity=cap3_rp01)

    def test_symbol_blocks_match_window_widths(self, cap3_rp01):
        cb = build_codebook_3user(60, 4, 0.1, capacity=cap3_rp01, seed=2)
        widths = cb.window_lengths()
        assert set(widths) <= {cb.tau_star, cb.tau_star + 1}
        assert sum(widths) == cb.n

    def test_longer_windows_round_trip(self):
        # a fabricated operating point with 2- and 3-slot windows exercises
        # the wider symbol maps and mixed probe spacings end to end
        from cqclab.capacity3 import CapacityResult3

        rp, alpha, g1 = 0.2, 0.3, 0.4
        g2 = (1 - rp - alpha * (g1 + 0.5)) / (1 - alpha) - 1 / 3
        point = CapacityResult3(
            r_p=rp,
            capacity_bits_per_slot=0.0,
            alpha=alpha,
            gamma1=g1,
            gamma2=g2,
            tau_star=2,
            constraint_residual=0.0,
            witness=tuple(
                (k, share, tuple(i_tilde(g, k, rp).maximizing_input.probs.tolist()))
                for k, share, g in ((2, alpha, g1), (3, 1 - alpha, g2))
            ),
        )
        cb = build_codebook_3user(30, 2, rp, capacity=point, seed=9)
        assert cb.tau_star == 2
        assert set(cb.window_lengths()) == {2, 3}
        rep = run_transmission(cb, background_rate=rp, trials=200, seed=4)
        assert rep.empirical_error_rate < 0.5  # far better than chance


class TestProbeStream:
    def test_all_ones_then_alternating(self):
        ps = probe_stream(_pair(1, 2, 2))
        assert ps.slots.tolist() == [1, 1, 1, 0, 1, 0]

    def test_pure_alternating(self):
        ps = probe_stream(_pair(1, 0, 4))
        assert ps.slots.tolist() == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_longer_windows(self):
        ps = probe_stream(_pair(2, 3, 2))
        assert np.nonzero(ps.slots)[0].tolist() == [0, 2, 4, 6, 9]

    def test_scheme_with_more_lengths(self):
        template = ProbeTemplate(
            ((1, 1, Pmf.uniform(1)), (3, 0, Pmf.uniform(3)), (4, 2, Pmf.uniform(4)))
        )
        assert template.n == 9
        assert template.widths.tolist() == [1, 4, 4]
        assert np.nonzero(probe_stream(template).slots)[0].tolist() == [0, 1, 5]

    @pytest.mark.parametrize(
        "windows",
        [
            pytest.param(((2, 1, Pmf.uniform(2)), (2, 1, Pmf.uniform(2))), id="repeated length"),
            pytest.param(((3, 1, Pmf.uniform(3)), (2, 1, Pmf.uniform(2))), id="descending lengths"),
            pytest.param(((0, 1, Pmf.uniform(0)),), id="zero length"),
            pytest.param(((2, 1, Pmf.uniform(3)),), id="law on too many symbols"),
            pytest.param(((2, 1, Pmf.uniform(1)),), id="law on too few symbols"),
            pytest.param(((1, -1, Pmf.uniform(1)), (2, 2, Pmf.uniform(2))), id="negative count"),
            pytest.param(((1, 0, Pmf.uniform(1)), (2, 0, Pmf.uniform(2))), id="no windows"),
            pytest.param((), id="no lengths"),
        ],
    )
    def test_rejects_bad_scheme(self, windows):
        with pytest.raises(ValueError):
            ProbeTemplate(windows)


class TestDecode2User:
    def test_round_trip_every_message(self):
        cb = build_codebook_2user(30, 16, seed=3)
        probe = np.append(probe_stream(ProbeTemplate.for_codebook(cb)).slots, np.int8(1))
        for m in range(cb.M):
            enc = ArrivalSchedule(ENCODER, np.append(cb.codewords[m], np.int8(0)))
            tr = simulate(ArrivalSchedule(DECODER, probe), enc, initial_backlog=32)
            assert decode_2user(observe(tr), cb) == m

    def test_all_zero_counts(self):
        cb = _handmade_codebook([[0, 0], [1, 0]])
        assert decode_2user(_obs([(2, 0)]), cb) == 0
        cb2 = _handmade_codebook([[1, 0], [1, 1]])
        with pytest.raises(DecodeMatchError):
            decode_2user(_obs([(2, 0)]), cb2)

    def test_unbuffered_rejected(self):
        cb = _handmade_codebook([[0, 0], [1, 0]])
        with pytest.raises(UnbufferedIntervalError):
            decode_2user(_obs([(2, 0)], buffered=False), cb)

    def test_window_count_mismatch(self):
        cb = _handmade_codebook([[0, 0], [1, 0]])
        with pytest.raises(DecodeMatchError):
            decode_2user(_obs([(2, 0), (2, 1)]), cb)


class TestDecode3User:
    def test_zero_observation_prefers_silent_codeword(self):
        # counts 0 vs tau: seeing y=0 has likelihood (1-rp)^tau vs 0
        cb = _handmade_codebook([[1, 1], [0, 0]])
        assert decode_3user(_obs([(2, 0)]), cb, 0.3) == 1

    def test_matches_exact_decoder_without_noise(self):
        cb = build_codebook_2user(30, 32, seed=4)
        probe = np.append(probe_stream(ProbeTemplate.for_codebook(cb)).slots, np.int8(1))
        rng = np.random.default_rng(0)
        for _ in range(1000):
            m = int(rng.integers(cb.M))
            enc = ArrivalSchedule(ENCODER, np.append(cb.codewords[m], np.int8(0)))
            tr = simulate(ArrivalSchedule(DECODER, probe), enc, initial_backlog=32)
            obs = observe(tr)
            assert decode_3user(obs, cb, 0.0) == decode_2user(obs, cb) == m

    def test_tie_breaks_to_lowest_index(self):
        # at rp = 0.5, y = 2 is equally likely under counts 0 and 2
        cb = _handmade_codebook([[0, 0], [1, 1]])
        assert decode_3user(_obs([(2, 2)]), cb, 0.5) == 0

    def test_matches_brute_force_likelihood(self):
        # independent scoring: plain python loops over the factorized channel
        from cqclab.dist import binomial_pmf

        cb = build_codebook_2user(12, 8, seed=6)
        widths = cb.window_lengths()
        rng = np.random.default_rng(42)
        for rp in (0.1, 0.37):
            noise = {w: binomial_pmf(w, rp).probs for w in set(widths)}
            for _ in range(50):
                xs = [int(rng.integers(0, w + 1)) for w in widths]
                ys = [x + int(rng.integers(0, w + 1)) for x, w in zip(xs, widths)]
                obs = _obs(list(zip(widths, ys)))
                best, best_score = None, -np.inf
                for msg in range(cb.M):
                    counts = cb.window_counts_of(cb.codewords[msg])
                    score = 0.0
                    for c, y, w in zip(counts, ys, widths):
                        d = y - c
                        p = noise[w][d] if 0 <= d <= w else 0.0
                        score += np.log(p) if p > 0 else -1e30
                    if score > best_score:
                        best, best_score = msg, score
                assert decode_3user(obs, cb, rp) == best


class TestRunTransmission:
    def test_noiseless_is_error_free(self):
        cb = build_codebook_2user(30, 16, seed=3)
        rep = run_transmission(cb, trials=300, seed=5)
        assert rep.errors == 0
        assert rep.empirical_rate_bits_per_slot == pytest.approx(4 / 30)

    def test_single_message_trivial(self):
        cb = build_codebook_2user(30, 1, seed=0)
        rep = run_transmission(cb, trials=10, seed=1)
        assert rep.errors == 0 and rep.empirical_rate_bits_per_slot == 0.0

    def test_report_rejects_a_rate_above_one_bit_per_slot(self):
        args = dict(messages_sent=1, errors=0, empirical_error_rate=0.0, seed=0)
        TransmissionReport(**args, empirical_rate_bits_per_slot=1.0 + 1e-13)
        with pytest.raises(ValueError, match="1 bit per slot"):
            TransmissionReport(**args, empirical_rate_bits_per_slot=1.0 + 1e-9)

    def test_report_rejects_a_nan_rate(self):
        with pytest.raises(ValueError, match="1 bit per slot"):
            TransmissionReport(messages_sent=1, errors=0, empirical_error_rate=0.0, seed=0,
                               empirical_rate_bits_per_slot=float("nan"))

    def test_minimum_backlog_enforced(self):
        cb = build_codebook_2user(30, 4, seed=2)
        with pytest.raises(ValueError):
            run_transmission(cb, trials=1, seed=0, initial_backlog=1)

    def test_unbuffered_interval_raises(self):
        # all-silent codeword: the queue drains one packet per long window,
        # so the minimum legal backlog must eventually run dry
        cb = _handmade_codebook([np.zeros(12, dtype=np.int8)])
        with pytest.raises(UnbufferedIntervalError):
            run_transmission(cb, trials=1, seed=0, initial_backlog=2)

    def test_three_user_small_codebook(self, cap3_rp01):
        cb = build_codebook_3user(60, 2, 0.1, capacity=cap3_rp01, seed=1)
        rep = run_transmission(cb, background_rate=0.1, trials=2000, seed=2)
        assert rep.empirical_error_rate < 0.05


def _spelled_out_errors(codebook, background_rate, trials, seed):
    """`run_transmission` one message at a time: draw the message and its
    background, then simulate, observe and decode."""
    decoder = ArrivalSchedule(DECODER, np.append(probe_stream(codebook.template).slots, np.int8(1)))
    backlog = codebook.n + codebook.tau_star + 1
    rng = np.random.default_rng(seed)
    errors = 0
    for _ in range(trials):
        msg = int(rng.integers(codebook.M))
        encoder = ArrivalSchedule(ENCODER, np.append(codebook.codewords[msg], np.int8(0)))
        background = None
        if background_rate is not None:
            background = ArrivalSchedule.bernoulli(BACKGROUND, background_rate, codebook.n + 1, rng)
        obs = observe(simulate(decoder, encoder, background, initial_backlog=backlog))
        if background_rate is None:
            decoded = decode_2user(obs, codebook)
        else:
            decoded = decode_3user(obs, codebook, background_rate)
        errors += decoded != msg
    return errors


class TestBatchedTransmission:
    # codebooks built for r_p = 0.1, sent at 0.1 and at 0.3 (above capacity)
    @pytest.mark.parametrize(
        "n, book_seed, tx_seed, errors",
        [(16, 3, 4, (71, 187)), (16, 5, 9, (53, 193)), (30, 1, 2, (2, 24)), (20, 8, 8, (19, 115))],
    )
    def test_error_counts_match_spelled_out_loop(self, cap3_rp01, n, book_seed, tx_seed, errors):
        cb = build_codebook_3user(n, 256, 0.1, capacity=cap3_rp01, seed=book_seed)
        for rp, expected in zip((0.1, 0.3), errors):
            rep = run_transmission(cb, background_rate=rp, trials=300, seed=tx_seed)
            assert rep.errors == _spelled_out_errors(cb, rp, 300, tx_seed) == expected

    @pytest.mark.parametrize("trials", [1, _CHUNK - 1, _CHUNK + 1])
    def test_partial_chunks_match_spelled_out_loop(self, cap3_rp01, trials):
        cb = build_codebook_3user(16, 256, 0.1, capacity=cap3_rp01, seed=3)
        for seed in range(3):
            rep = run_transmission(cb, background_rate=0.3, trials=trials, seed=seed)
            assert rep.errors == _spelled_out_errors(cb, 0.3, trials, seed)

    @pytest.mark.parametrize("chunk", [1, _CHUNK - 1, _CHUNK + 1])
    def test_results_do_not_depend_on_the_chunk_size(self, cap3_rp01, monkeypatch, chunk):
        cb = build_codebook_3user(16, 256, 0.1, capacity=cap3_rp01, seed=5)

        def results():
            return (
                run_transmission(cb, background_rate=0.3, trials=2 * _CHUNK + 5, seed=9),
                ensemble_error_rate(30, 2.0**10, 0.1, trials=_CHUNK + 3, seed=2, capacity=cap3_rp01),
            )

        expected = results()
        monkeypatch.setattr(coding, "_CHUNK", chunk)
        assert results() == expected

    def test_no_background_is_rate_zero(self, monkeypatch):
        # both draw the background's n + 1 uniforms per message, so the same
        # messages are sent and decoded
        cb = build_codebook_2user(30, 16, seed=3)
        decoded = []

        def spy(y, codebook, r_p):
            decoded.append((y.tolist(), r_p))
            return _decode_rows(y, codebook, r_p)

        monkeypatch.setattr(coding, "_decode_rows", spy)
        reports = [run_transmission(cb, rate, trials=2 * _CHUNK + 3, seed=5) for rate in (None, 0.0)]
        assert reports[0] == reports[1]
        half = len(decoded) // 2
        assert decoded[:half] == decoded[half:]

    def test_unbuffered_interval_raises_past_the_first_chunk(self):
        cb = _handmade_codebook([np.zeros(12, dtype=np.int8)])
        with pytest.raises(UnbufferedIntervalError):
            run_transmission(cb, trials=2 * _CHUNK + 1, seed=0, initial_backlog=2)

    def test_codebook_counts_disagreeing_with_codewords_raise(self):
        cb = build_codebook_2user(30, 8, seed=1)
        # stored window counts that no transmitted codeword can produce
        object.__setattr__(cb, "window_counts", cb.window_counts + 3)
        with pytest.raises(DecodeMatchError):
            run_transmission(cb, trials=_CHUNK + 1, seed=0)
        cb = build_codebook_3user(30, 8, 0.1, seed=1)  # and through noise
        object.__setattr__(cb, "window_counts", cb.window_counts + 3)
        with pytest.raises(DecodeMatchError):
            run_transmission(cb, background_rate=0.1, trials=_CHUNK + 1, seed=0)

    def test_row_decoders_reject_any_bad_row(self):
        cb = _handmade_codebook([[1, 0, 0, 0], [1, 1, 1, 0]])
        with pytest.raises(DecodeMatchError):
            _decode_rows(np.array([[1, 0], [2, 2]]), cb, 0.0)  # row 1 matches no codeword
        with pytest.raises(DecodeMatchError):
            _decode_rows(np.array([[1, 0], [5, 0]]), cb, 0.3)  # 5 > 2 * width

    @pytest.mark.parametrize("rp", [0.1, 0.5])
    def test_row_decoders_match_one_row_decoders(self, rp):
        cb = build_codebook_3user(30, 64, rp, seed=2)
        widths = cb.template.widths
        rng = np.random.default_rng(6)
        y = rng.integers(0, 2 * widths + 1, size=(50, widths.size))
        rows2 = cb.window_counts[rng.integers(cb.M, size=50)]
        decoded3, decoded2 = _decode_rows(y, cb, rp), _decode_rows(rows2, cb, 0.0)
        for y3, y2, d3, d2 in zip(y, rows2, decoded3, decoded2):
            assert decode_3user(_obs(list(zip(widths, y3))), cb, rp) == d3
            assert decode_2user(_obs(list(zip(widths, y2))), cb) == d2

    def test_one_candidate_per_row_skips_the_exact_sums(self, monkeypatch):
        # noiseless rows of distinct codewords leave one candidate per row, the
        # row's argmax, so each window length's table is read once, not twice
        cb = build_codebook_2user(30, 64, seed=2)
        sent = np.random.default_rng(6).integers(cb.M, size=_CHUNK)
        table, widths = coding._log_channel_table, []
        monkeypatch.setattr(
            coding, "_log_channel_table", lambda w, rp: widths.append(w) or table(w, rp)
        )
        assert (_decode_rows(cb.window_counts[sent], cb, 0.0) == sent).all()
        assert widths == [w for w, _, _ in cb.template.windows]

    @pytest.mark.parametrize("gather", [1, 2000, 1 << 30])
    def test_decoding_does_not_depend_on_the_gather_size(self, monkeypatch, gather):
        # one message's terms per gather, a few messages', every message's;
        # the random rows score many codewords at -1e30, so ties are common
        cb = build_codebook_3user(30, 64, 0.3, seed=2)
        widths = cb.template.widths
        y = np.random.default_rng(8).integers(0, 2 * widths + 1, size=(50, widths.size))
        expected = _decode_rows(y, cb, 0.3)
        monkeypatch.setattr(coding, "_GATHER", gather)
        assert (_decode_rows(y, cb, 0.3) == expected).all()

    def test_decoding_does_not_depend_on_the_memory_layout(self, cap3_rp01):
        # the observed rows of a transmission whose likelihoods often tie,
        # C- and F-ordered: the order of each score's float sum, and so its
        # tie-breaks, must not follow the layout (8 of these 300 messages
        # decoded otherwise when the sums followed it)
        cb = build_codebook_3user(16, 256, 0.1, capacity=cap3_rp01, seed=3)
        chunks = coding._codebook_chunks(cb, 0.1, 4, 300)
        y = np.concatenate([y for _, y in coding._observed(chunks, cb.template, None)])
        expected = _decode_rows(np.ascontiguousarray(y), cb, 0.1)
        assert (_decode_rows(np.asfortranarray(y), cb, 0.1) == expected).all()

    def test_peak_memory_of_one_chunk_at_256_messages(self, cap3_rp01):
        # the (messages, M, windows) terms are gathered at most _GATHER at a
        # time (about 0.4 MB traced); one gather of the chunk peaked at 2.0 MB
        cb = build_codebook_3user(60, 256, 0.1, capacity=cap3_rp01, seed=4)
        run_transmission(cb, background_rate=0.1, trials=_CHUNK, seed=1)  # warm the caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_transmission(cb, background_rate=0.1, trials=_CHUNK, seed=1)
            assert (tracemalloc.get_traced_memory()[1] - base) / 2**20 <= 0.75
        finally:
            tracemalloc.stop()

    def test_transmissions_leave_numpy_ma_unloaded(self):
        # np.unique on integers imports numpy.ma, about 1.6 MB of peak RSS
        code = "\n".join([
            "import sys",
            "import cqclab as cq",
            "cap = cq.solve_capacity_3user(0.1)",
            "cb = cq.build_codebook_3user(30, 16, 0.1, capacity=cap, seed=1)",
            "cq.run_transmission(cb, background_rate=0.1, trials=40, seed=2)",
            "cq.ensemble_error_rate(30, 16, 0.1, trials=5, seed=1, capacity=cap)",
            "assert 'numpy.ma' not in sys.modules",
        ])
        src = str(Path(cqclab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr


# The decoders that `_decode_rows` replaced, kept verbatim, with the gather
# size they read, as bitwise references of its decisions.
_log_channel_table = coding._log_channel_table
_GATHER = 1 << 15  # float64 log-likelihood terms per decode gather (256 KB)


def _decode_rows_2user(y: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Exact-match decoding of a (messages, windows) block of counts: the
    first codeword whose window counts equal each row."""
    hits = (codebook.window_counts == y[:, None, :]).all(axis=2)
    if not hits.any(axis=1).all():
        raise DecodeMatchError("observed counts match no codeword")
    return hits.argmax(axis=1)


def _decode_rows_3user(y: np.ndarray, codebook: Codebook, r_p: float) -> np.ndarray:
    """Maximum-likelihood decoding of a (messages, windows) block of counts;
    see `decode_3user`."""
    y = np.ascontiguousarray(y)  # the gather below follows the layout of y
    counts = codebook.window_counts
    loglik = np.zeros((y.shape[0], codebook.M))
    stop = 0
    for width, count, _ in codebook.template.windows:
        # each length's windows are one contiguous run of columns: a slice,
        # where a boolean mask of `widths` took 2.7x as long per chunk
        start, stop = stop, stop + count
        if not count:
            continue
        yw = y[:, start:stop]
        if yw.min() < 0 or yw.max() > 2 * width:
            raise DecodeMatchError("observed count outside the channel alphabet")
        table = _log_channel_table(width, float(r_p))
        # a C-contiguous (messages, M, windows) gather keeps each score's
        # terms contiguous, which fixes the order of the sums (and so the
        # tie-breaks between -1e30 scores) whatever the number of messages
        # gathered at once; at most _GATHER terms are gathered at a time
        x = counts[None, :, start:stop]
        rows = max(_GATHER // x.size, 1)
        for i in range(0, y.shape[0], rows):
            loglik[i : i + rows] += table[x, yw[i : i + rows, None, :]].sum(axis=2)
    return loglik.argmax(axis=1)


def _reference_rows(y, codebook, r_p):
    """The reference decisions of each row, None where it raises."""
    if r_p:
        return _decode_rows_3user(y, codebook, r_p).tolist()
    out = []
    for row in y:
        try:
            out.append(int(_decode_rows_2user(row[None], codebook)[0]))
        except DecodeMatchError:
            out.append(None)
    return out


class TestOneDecoder:
    @pytest.mark.parametrize("n, M", [(30, 64), (400, 16)])
    @pytest.mark.parametrize("rp", [0.0, 0.1, 0.25, 0.3, 0.5])
    def test_decisions_equal_the_replaced_decoders(self, rp, n, M):
        # random rows score many codewords at -1e30, so ties are common;
        # the transmitted rows are sent at the codebook's rate and above it
        cb = build_codebook_3user(n, M, rp, seed=2)
        widths = cb.template.widths
        rng = np.random.default_rng(n)
        blocks = [rng.integers(0, 2 * widths + 1, size=(100, widths.size))]
        for rate in (rp, min(2 * rp, 0.9)):
            chunks = coding._codebook_chunks(cb, rate, 3, 100)
            observed = coding._observed(chunks, cb.template, None)
            blocks.append(np.concatenate([y for _, y in observed]))
        for y in blocks:
            expected = _reference_rows(y, cb, rp)
            if None not in expected:
                assert _decode_rows(y, cb, rp).tolist() == expected
            for row, want in zip(y, expected):
                if want is None:
                    with pytest.raises(DecodeMatchError):
                        _decode_rows(row[None], cb, rp)
                else:
                    assert _decode_rows(row[None], cb, rp)[0] == want
        if not rp:  # every sent row matches: the 3-user reference agrees
            sent = blocks[1]
            assert (_decode_rows_3user(sent, cb, 0.0) == _decode_rows(sent, cb, 0.0)).all()

    def test_noiseless_decoding_raises_on_a_row_no_codeword_matches(self):
        cb = _handmade_codebook([[0, 0], [1, 0]])
        assert decode_3user(_obs([(2, 1)]), cb, 0.0) == 1
        with pytest.raises(DecodeMatchError):
            decode_3user(_obs([(2, 2)]), cb, 0.0)  # 2 lies in the alphabet {0..4}
        cb = build_codebook_2user(30, 8, seed=1)
        object.__setattr__(cb, "window_counts", cb.window_counts + 3)
        with pytest.raises(DecodeMatchError):
            run_transmission(cb, background_rate=0.0, trials=_CHUNK + 1, seed=0)


@functools.lru_cache(maxsize=None)
def _bench_workloads():
    """perfbench/workloads.py, loaded by path; it imports only numpy and the
    standard library."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


class TestBenchmarkSurface:
    # the benchmark's traced run spells out a transmission through the
    # package's public surface: the template of a codebook, its probe
    # stream, n, tau_star, M and the codewords
    @pytest.mark.parametrize("users", [2, 3])
    def test_traced_transmission_matches_run_transmission(self, cap3_rp01, users):
        workloads = _bench_workloads()
        if users == 2:
            cb, rate = build_codebook_2user(60, 256, seed=4), None
        else:  # a short block, so that errors occur and their count pins the draws
            cb, rate = build_codebook_3user(20, 256, 0.1, capacity=cap3_rp01, seed=4), 0.1
        errors = workloads.traced_transmission(cqclab, workloads.no_span, cb, rate, 200, 7)
        assert errors == run_transmission(cb, background_rate=rate, trials=200, seed=7).errors
        assert (errors > 0) == (users == 3)


class TestEnsembleInternals:
    def test_prob_correct_against_direct_simulation(self):
        from cqclab.coding import _prob_correct

        rng = np.random.default_rng(77)
        for q_lt, q_eq, M in (
            (0.7, 0.1, 4),
            (0.2, 0.05, 8),
            (0.98, 0.0, 16),
            (0.5, 0.5, 3),
        ):
            trials = 40_000
            hits = 0
            for _ in range(trials):
                m = rng.integers(M)
                draws = rng.choice(3, size=M - 1, p=[q_lt, q_eq, 1 - q_lt - q_eq])
                before, after = draws[:m], draws[m:]
                if (before <= 0).all() and (after <= 1).all():
                    hits += 1
            direct = hits / trials
            assert _prob_correct(q_lt, q_eq, M) == pytest.approx(direct, abs=0.01)

    def test_prob_correct_boundaries(self):
        from cqclab.coding import _prob_correct

        assert _prob_correct(0.3, 0.1, 1) == 1.0
        assert _prob_correct(0.0, 0.0, 100) == 0.0
        assert _prob_correct(1.0, 0.0, 10**30) == 1.0

    def test_score_lattice_matches_enumeration(self):
        # every competitor is classified as beating, tying or losing to the
        # true codeword by exact arithmetic: the likelihood of a window with
        # d background packets is C(w, d) * odds^d times a constant of the
        # window, with the odds of the float r_p taken exactly
        for rp in (0.3, 0.5, 0.25):
            for widths in ([1, 2, 2], [2, 3, 3, 2], [3, 4, 1], [1, 1]):
                self._check_against_enumeration(rp, widths)

    @staticmethod
    def _check_against_enumeration(rp, widths):
        import itertools
        import math as m
        from fractions import Fraction

        from cqclab.coding import _competitor_probs, _lattice_tables, _move_classes

        laws = {
            1: np.array([0.6, 0.4]),
            2: np.array([0.5, 0.3, 0.2]),
            3: np.array([0.4, 0.0, 0.35, 0.25]),
            4: np.array([0.1, 0.2, 0.3, 0.25, 0.15]),
        }
        odds = Fraction(rp) / (1 - Fraction(rp))
        lattice = _lattice_tables(widths, rp)
        classes = _move_classes(lattice[0], laws)
        w_arr = np.array(widths)
        rng = np.random.default_rng(8)
        cross_d_ties = 0
        for _ in range(12):
            xs = np.array([rng.choice(w + 1, p=laws[w]) for w in widths])
            ys = xs + np.array([rng.binomial(w, rp) for w in widths])

            def likelihood(cand):  # None for an impossible window
                d = ys - np.array(cand)
                if ((d < 0) | (d > w_arr)).any():
                    return None
                return m.prod(m.comb(w, int(k)) for w, k in zip(widths, d)) * odds ** int(d.sum())

            true = likelihood(xs)
            gt = eq = 0.0
            for cand in itertools.product(*(range(w + 1) for w in widths)):
                prob = m.prod(laws[w][x] for w, x in zip(widths, cand))
                value = likelihood(cand)
                if prob == 0.0 or value is None:
                    continue
                if value > true:
                    gt += prob
                elif value == true:
                    eq += prob
                    cross_d_ties += sum(cand) != xs.sum()
            q_gt, q_eq = _competitor_probs(lattice, classes, w_arr, ys, xs)
            assert q_gt == pytest.approx(gt, abs=1e-12)
            assert q_eq == pytest.approx(eq, abs=1e-12)
        if rp == 0.5 or (rp == 0.25 and 3 in widths):
            assert cross_d_ties > 0  # equal scores with unequal background counts occurred

    def test_competitor_probs_reject_impossible_true_window(self):
        from cqclab.coding import _competitor_probs, _lattice_tables, _move_classes

        lattice = _lattice_tables([2, 2], 0.3)
        classes = _move_classes(lattice[0], {2: np.array([0.5, 0.3, 0.2])})
        with pytest.raises(ValueError):
            _competitor_probs(lattice, classes, np.array([2, 2]), np.array([1, 0]), np.array([2, 0]))

    @pytest.mark.parametrize("rp, folded", [(0.5, True), (0.25, True), (0.3, False), (0.1, False)])
    def test_commensurable_odds_fold_the_count_axis(self, rp, folded):
        from cqclab.coding import _lattice_tables

        tables, logs, beta = _lattice_tables([2, 3], rp)
        assert (beta is None) == folded
        assert tables[3].shape == (4, len(logs) + (0 if folded else 1))


def _reference_competitor_probs(lattice, laws, widths, ys, xs):
    """The window-by-window convolution over the whole tensor that
    `_competitor_probs` replaced, kept verbatim as its bitwise reference."""
    tables, logs, beta = lattice
    d = ys - xs
    if ((d < 0) | (d > widths)).any():
        raise ValueError("true codeword scored an impossible window")
    moves = []  # per window: lattice rows of the competitor symbols, in x order, and their laws
    for w, y in zip(widths.tolist(), ys.tolist()):
        x = np.arange(max(y - w, 0), min(y, w) + 1)
        x = x[laws[w][x] > 0]
        moves.append((tables[w][y - x], laws[w][x]))
    lows = [rows.min(axis=0) for rows, _ in moves]
    origin = np.sum(lows, axis=0)
    shape = np.sum([rows.max(axis=0) for rows, _ in moves], axis=0) - origin + 1
    strides = np.array([math.prod(shape[i + 1 :]) for i in range(shape.size)], dtype=int)
    tensor = np.zeros(math.prod(shape))
    tensor[0] = 1.0
    for (rows, probs), low in zip(moves, lows):
        new = np.zeros_like(tensor)
        for off, p in zip(((rows - low) @ strides).tolist(), probs):
            new[off:] += p * tensor[: tensor.size - off]
        tensor = new
    true = np.sum([tables[w][k] for w, k in zip(widths.tolist(), d.tolist())], axis=0)
    # the summation orders below are fixed: recorded ensemble outputs depend on them bitwise
    t_val = float(true[-1]) * beta if beta is not None else 0.0
    for c, log_p in zip(true.tolist(), logs):  # d * beta first, then the primes
        t_val += c * log_p
    weights = logs + ([beta] if beta is not None else [])  # cells: the primes in order, then d
    axes = np.ix_(*[(np.arange(s) + o) * c for o, s, c in zip(origin, shape, weights)])
    t_idx = int((true - origin) @ strides)
    beats = functools.reduce(np.add, axes, np.zeros(())).ravel() > t_val
    beats[t_idx] = False
    return float(tensor[beats].sum()), float(tensor[t_idx])


_capacity = functools.lru_cache(maxsize=None)(solve_capacity_3user)


@functools.lru_cache(maxsize=None)
def _scheme_moves(tau, rp):
    """The lattice, the symbol laws of the three-user scheme at r_p (the
    maximizing inputs at its gamma1 and gamma2) for windows of tau and
    tau + 1 slots, and one class dict shared by every caller."""
    cap = _capacity(rp)
    laws = {
        tau: i_tilde(cap.gamma1, tau, rp).maximizing_input.probs,
        tau + 1: i_tilde(cap.gamma2, tau + 1, rp).maximizing_input.probs,
    }
    lattice = coding._lattice_tables([tau, tau + 1], rp)
    return lattice, laws, coding._move_classes(lattice[0], laws)


def _feasible_symbols(laws, w, y):
    """The symbols of positive probability that can show count y in a width-w window."""
    return [x for x in range(max(y - w, 0), min(y, w) + 1) if laws[w][x] > 0]


class TestClassConvolution:
    # 0.25 and 0.5 fold the count axis into the primes
    RATES = (0.1, 0.3, 0.25, 0.5)

    @given(tau=st.integers(1, 4), rp=st.sampled_from(RATES), data=st.data())
    @settings(max_examples=150)
    def test_equals_the_window_by_window_convolution(self, tau, rp, data):
        lattice, laws, classes = _scheme_moves(tau, rp)
        keys = data.draw(st.lists(st.sampled_from(sorted(classes)), min_size=1, max_size=10))
        xs = [data.draw(st.sampled_from(_feasible_symbols(laws, w, y))) for w, y in keys]
        widths, ys = (np.array(col) for col in zip(*keys))
        xs = np.array(xs)
        expected = _reference_competitor_probs(lattice, laws, widths, ys, xs)
        assert coding._competitor_probs(lattice, classes, widths, ys, xs) == expected

    @pytest.mark.parametrize("rp", RATES)
    def test_one_class_dict_serves_trials_of_every_shape(self, rp):
        lattice, laws, classes = _scheme_moves(2, rp)
        assert {(3, 0), (3, 6)} <= classes.keys()
        rng = np.random.default_rng(11)
        layouts = [[2], [3], [3, 2], [2] * 3 + [3] * 9, [3, 2] * 8, [2] * 20]
        trials = []
        for layout in layouts:
            widths = np.array(layout)
            for _ in range(3):
                xs = np.array([rng.choice(w + 1, p=laws[w]) for w in layout])
                trials.append((widths, xs + rng.binomial(widths, rp), xs))
            # windows alternating between y = 0 and y = 2w where the laws allow: one move each
            ends = [[y for y in (0, 2 * w) if (w, y) in classes] for w in layout]
            ys = [e[i % len(e)] for i, e in enumerate(ends)]
            xs = [_feasible_symbols(laws, w, y)[0] for w, y in zip(layout, ys)]
            trials.append((widths, np.array(ys), np.array(xs)))
        for widths, ys, xs in trials + trials[::-1]:  # the dict is reused in both orders
            expected = _reference_competitor_probs(lattice, laws, widths, ys, xs)
            assert coding._competitor_probs(lattice, classes, widths, ys, xs) == expected


def _assert_same_codebook(cb2, cb):
    """Bitwise equal codewords, seed and scheme: lengths, counts and laws."""
    assert np.array_equal(cb2.codewords, cb.codewords)
    assert (cb2.n, cb2.M, cb2.tau_star, cb2.seed) == (cb.n, cb.M, cb.tau_star, cb.seed)
    assert len(cb2.template.windows) == len(cb.template.windows)
    for (k2, count2, law2), (k, count, law) in zip(cb2.template.windows, cb.template.windows):
        assert (k2, count2) == (k, count)
        assert law2.probs.tobytes() == law.probs.tobytes()


class TestCodebookText:
    def test_round_trip_bit_exact(self):
        cb = build_codebook_2user(30, 16, seed=3)
        cb2 = load_codebook(dump_codebook(cb))
        _assert_same_codebook(cb2, cb)

    def test_corrupt_body_rejected(self):
        cb = build_codebook_2user(30, 4, seed=3)
        text = dump_codebook(cb)
        with pytest.raises(ValueError):
            load_codebook(text.rsplit("\n", 2)[0] + "\n")

    def test_empty_text_rejected(self):
        for text in ("", "\n  \n"):
            with pytest.raises(ValueError):
                load_codebook(text)

    @pytest.mark.parametrize("field", ["M", "seed", "windows"])
    def test_header_missing_field_rejected(self, field):
        header, *rows = dump_codebook(build_codebook_2user(30, 4, seed=3)).splitlines()
        header = " ".join(i for i in header.split() if not i.startswith(field + "="))
        with pytest.raises(ValueError):
            load_codebook("\n".join([header, *rows]) + "\n")


class TestEnsembleEstimator:
    def test_agrees_with_explicit_small_codebooks(self, cap3_rp01):
        # the ensemble average must sit near the error rate of explicitly
        # sampled codebooks at desk scale; the codebooks err about 2.5% of
        # the time here, so an ensemble that returned 0 would fail
        n, M, rp = 24, 256, 0.1
        ens = ensemble_error_rate(n, M, rp, trials=1500, seed=3, capacity=cap3_rp01)
        explicit = []
        for seed in range(8):
            cb = build_codebook_3user(n, M, rp, capacity=cap3_rp01, seed=100 + seed)
            rep = run_transmission(cb, background_rate=rp, trials=250, seed=seed)
            explicit.append(rep.empirical_error_rate)
        assert float(np.mean(explicit)) > 0.015
        assert abs(ens.empirical_error_rate - float(np.mean(explicit))) < 0.01

    def test_single_message_never_errs(self, cap3_rp01):
        rep = ensemble_error_rate(60, 1, 0.1, trials=50, seed=0, capacity=cap3_rp01)
        assert rep.empirical_error_rate == 0.0

    @pytest.mark.parametrize(
        "M", [0, 0.5, -3, math.nan, math.inf, -math.inf, pytest.param(2**1100, id="2**1100")]
    )
    def test_rejects_codebook_sizes_below_one_or_not_finite(self, M, cap3_rp01):
        with pytest.raises(ValueError, match="M must be finite and >= 1"):
            ensemble_error_rate(60, M, 0.1, trials=5, seed=0, capacity=cap3_rp01)

    @pytest.mark.parametrize("M", [2**31, pytest.param(2**1023, id="2**1023")])
    def test_rejects_rates_above_one_bit_before_any_trial(self, M, cap3_rp01, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial was drawn before the rate check")

        monkeypatch.setattr(coding, "_message_chunks", no_trials)
        with pytest.raises(ValueError, match="exceeds 1 bit per slot"):
            ensemble_error_rate(30, M, 0.1, trials=5, seed=0, capacity=cap3_rp01)

    def test_huge_codebook_is_tractable(self, cap3_rp01):
        rep = ensemble_error_rate(60, 2**60, 0.1, trials=20, seed=1, capacity=cap3_rp01)
        assert 0.0 <= rep.empirical_error_rate <= 1.0
        assert rep.empirical_rate_bits_per_slot == pytest.approx(1.0)


@pytest.mark.parametrize("name, call", [
    ("M", lambda cap: build_codebook_2user(20, 16.5)),
    ("M", lambda cap: build_codebook_3user(30, 16.5, 0.1, capacity=cap)),
    ("n", lambda cap: build_codebook_2user(20.5, 16)),
    ("n", lambda cap: build_codebook_3user(20.5, 16, 0.1, capacity=cap)),
    ("trials", lambda cap: run_transmission(build_codebook_2user(20, 16), trials=2.5)),
    ("trials", lambda cap: ensemble_error_rate(30, 16, 0.1, trials=2.5, seed=0, capacity=cap)),
    ("n", lambda cap: ensemble_error_rate(30.5, 16, 0.1, trials=2, seed=0, capacity=cap)),
    ("tau_max", lambda cap: ensemble_error_rate(30, 16, 0.1, trials=2, seed=0, tau_max=3.5)),
    ("tau_max", lambda cap: solve_capacity_grid([0.1], tau_max=2.5)),
    ("samples", lambda cap: validate_i_concavity(samples=2.5)),
    ("tau_max", lambda cap: validate_i_concavity(tau_max=4.5)),
], ids=["build2-M", "build3-M", "build2-n", "build3-n", "transmission-trials", "ensemble-trials",
        "ensemble-n", "ensemble-tau_max", "grid-tau_max", "validate-samples", "validate-tau_max"])
def test_counts_must_be_whole_numbers(name, call, cap3_rp01):
    # a float count is refused at the API boundary, not truncated or failed deep inside
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        call(cap3_rp01)


@pytest.mark.parametrize("name, call", [
    ("M", lambda: build_codebook_2user(20, 16.5)),
    ("n", lambda: build_codebook_2user(20.5, 16)),
    ("M", lambda: build_codebook_3user(30, 16.5, 0.1)),
    ("M", lambda: build_codebook_3user(30, 0, 0.1)),
    ("n", lambda: build_codebook_3user(20.5, 16, 0.1)),
    ("n", lambda: ensemble_error_rate(30.5, 16, 0.1, trials=2, seed=0)),
], ids=["build2-M", "build2-n", "build3-M", "build3-M0", "build3-n", "ensemble-n"])
def test_counts_are_checked_before_the_capacity_solve(name, call, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the capacity was solved before the counts were checked")

    monkeypatch.setattr(coding, "solve_capacity_3user", no_solve)
    with pytest.raises(ValueError, match=f"{name} must be"):
        call()


def test_a_capacity_result_without_a_witness_is_refused(cap3_rp01):
    bare = dataclasses.replace(cap3_rp01, witness=())
    with pytest.raises(ValueError, match="no witness"):
        build_codebook_3user(30, 4, 0.1, capacity=bare)

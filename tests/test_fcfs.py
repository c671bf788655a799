import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqclab import fcfs
from cqclab.dist import binomial_pmf
from cqclab.fcfs import (
    BACKGROUND,
    DECODER,
    ENCODER,
    ArrivalSchedule,
    DriftReport,
    TooFewProbesError,
    _fifo,
    _probe_intervals,
    _queue,
    empirical_channel_law,
    observe,
    simulate,
    stability_probe,
    total_variation,
    trace_to_csv_rows,
)


def _sched(user, bits):
    return ArrivalSchedule(user, np.asarray(bits, dtype=np.int8))


def _random_streams(rng, n, rates=(0.4, 0.3, 0.2)):
    return (
        ArrivalSchedule.bernoulli(DECODER, rates[0], n, rng),
        ArrivalSchedule.bernoulli(ENCODER, rates[1], n, rng),
        ArrivalSchedule.bernoulli(BACKGROUND, rates[2], n, rng),
    )


class TestGenerators:
    def test_each_generator_continues_the_one_stream_at_its_offset(self):
        # advanced copies of one state: drawn side by side, the streams hold
        # the uniforms one generator draws one after another
        offsets = (0, 5, 12, 12)
        streams = fcfs._generators(3, offsets)
        one_call = np.random.default_rng(3).random(20)
        for rng, offset in zip(streams, offsets):
            assert (rng.random(8) == one_call[offset : offset + 8]).all()


class TestSchedule:
    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            _sched(DECODER, [0, 2, 0])

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_rejects_every_non_binary_entry(self, bad):
        with pytest.raises(ValueError):
            ArrivalSchedule(DECODER, np.array([0.0, 1.0, bad, 0.0]))

    @pytest.mark.parametrize("good", [[0.0, 1.0], [False, True], [0, 1]])
    def test_accepts_binary_entries_of_any_dtype(self, good):
        assert ArrivalSchedule(DECODER, np.array(good)).slots.tolist() == [0, 1]

    def test_rejects_unknown_user(self):
        with pytest.raises(ValueError):
            _sched("intruder", [0, 1])

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_bernoulli_equals_the_one_call_draws(self, block, monkeypatch):
        # drawn block by block, the schedule holds the draws of one
        # random(n) call and leaves the stream where that call leaves it
        monkeypatch.setattr(fcfs, "_BLOCK", block)
        for n in (0, 1, block, 3 * block + 2):
            rng, one_call = np.random.default_rng(n), np.random.default_rng(n)
            schedule = ArrivalSchedule.bernoulli(ENCODER, 0.3, n, rng)
            assert schedule.slots.tolist() == (one_call.random(n) < 0.3).tolist()
            assert rng.random() == one_call.random()


class TestSimulate:
    def test_single_packet_empty_system(self):
        tr = simulate(_sched(DECODER, [0, 0, 1, 0]), _sched(ENCODER, [0, 0, 0, 0]))
        a, d = tr.packets_of(DECODER)
        assert a.tolist() == [2] and d.tolist() == [3]
        assert tr.queue_at_arrival(2) == 0

    def test_buffered_interval_counts_two_packets(self):
        # one packet buffered; probe + encoder packet arrive together, a
        # second encoder packet lands next slot, next probe two slots later
        tr = simulate(
            _sched(DECODER, [1, 0, 1, 0]),
            _sched(ENCODER, [1, 1, 0, 0]),
            initial_backlog=1,
        )
        a, d = tr.packets_of(DECODER)
        assert d.tolist() == [2, 5]
        ob = observe(tr)
        assert (ob.tau.tolist(), ob.y.tolist(), ob.buffered.tolist()) == ([2], [2], [True])

    def test_probe_every_slot_sees_nothing(self):
        n = 25
        tr = simulate(
            _sched(DECODER, np.ones(n)), _sched(ENCODER, np.zeros(n)), initial_backlog=4
        )
        assert not observe(tr).y.any()
        assert set(tr.queue_len[:n].tolist()) == {4}

    def test_departure_after_arrival_and_one_service_per_slot(self):
        rng = np.random.default_rng(0)
        tr = simulate(*_random_streams(rng, 300), initial_backlog=2)
        assert (tr.departures > np.maximum(tr.arrivals, 0)).all()
        assert (np.diff(tr.departures) >= 1).all()

    def test_work_conservation(self):
        rng = np.random.default_rng(1)
        tr = simulate(*_random_streams(rng, 200), initial_backlog=0)
        # no idle slot while the queue is nonempty: a gap between consecutive
        # departures implies the queue was empty in between
        served_slots = set((tr.departures - 1).tolist())
        for t in range(tr.queue_len.size):
            if t not in served_slots:
                before = tr.queue_len[t - 1] if t else 0
                assert before == 0

    def test_conservation_per_user(self):
        rng = np.random.default_rng(2)
        streams = _random_streams(rng, 150)
        tr = simulate(*streams, initial_backlog=3)
        for s in streams:
            a, d = tr.packets_of(s.user)
            assert a.size == int(np.asarray(s.slots).sum())
            assert d.size == a.size
        assert tr.queue_len[-1] == 0  # drained at the end

    def test_footnote_identity_on_random_traces(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            tr = simulate(*_random_streams(rng, 120), initial_backlog=int(rng.integers(0, 5)))
            arr, dep = tr.packets_of(DECODER)
            for a, d in zip(arr, dep):
                assert d - a - 1 == tr.queue_at_arrival(int(a))

    def test_y_equals_window_recount_when_buffered(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = 60
            dec, enc, bg = _random_streams(rng, n, (0.5, 0.25, 0.2))
            tr = simulate(dec, enc, bg, initial_backlog=n)
            obs = observe(tr)
            others = np.asarray(enc.slots) + np.asarray(bg.slots)
            arr, _ = tr.packets_of(DECODER)
            assert obs.buffered.all()
            for y, start, stop in zip(obs.y, arr, arr[1:]):
                assert y == others[start:stop].sum()

    def test_determinism(self):
        s1 = _random_streams(np.random.default_rng(99), 500)
        s2 = _random_streams(np.random.default_rng(99), 500)
        t1 = simulate(*s1, initial_backlog=2)
        t2 = simulate(*s2, initial_backlog=2)
        assert np.array_equal(t1.departures, t2.departures)
        assert np.array_equal(t1.queue_len, t2.queue_len)

    def test_tie_order_does_not_change_counts(self):
        rng = np.random.default_rng(5)
        n = 80
        dec, enc, bg = _random_streams(rng, n, (0.5, 0.3, 0.2))
        t_a = simulate(dec, enc, bg, initial_backlog=n)
        t_b = simulate(
            dec, enc, bg, initial_backlog=n, priority=(DECODER, BACKGROUND, ENCODER)
        )
        assert np.array_equal(observe(t_a).y, observe(t_b).y)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            simulate(_sched(DECODER, [1, 0]), _sched(ENCODER, [0]))

    @pytest.mark.parametrize("backlog", [-1, 2.5, "2", None])
    def test_rejects_bad_backlog(self, backlog):
        with pytest.raises(ValueError, match="initial_backlog"):
            simulate(_sched(DECODER, [1, 0]), _sched(ENCODER, [0, 1]), initial_backlog=backlog)

    def test_whole_float_backlog_is_an_int(self):
        trace = simulate(_sched(DECODER, [1, 0]), _sched(ENCODER, [0, 1]), initial_backlog=2.0)
        assert trace.initial_backlog == 2 and type(trace.initial_backlog) is int

    def test_decoder_priority_must_lead(self):
        with pytest.raises(ValueError):
            simulate(
                _sched(DECODER, [1]),
                _sched(ENCODER, [0]),
                priority=(ENCODER, DECODER, BACKGROUND),
            )


@st.composite
def _issue_batches(draw):
    """(issues, backlog) for a few traces of one length: Bernoulli streams
    at drawn rates, with or without background, behind a backlog of 0, a
    small one (intervals run unbuffered) or one of the whole horizon."""
    traces = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    users = draw(st.sampled_from([2, 3]))
    rates = draw(st.lists(st.floats(0.0, 1.0), min_size=users, max_size=users))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    issues = (rng.random((traces, n, users)) < rates).astype(np.int8)
    backlog = draw(st.sampled_from([0, draw(st.integers(1, 3)), n]))
    return issues, backlog


def _streams_of(issues):
    """The schedules of one trace's (slot x user) issue matrix."""
    users = (DECODER, ENCODER, BACKGROUND)[: issues.shape[1]]
    return [ArrivalSchedule(u, issues[:, j]) for j, u in enumerate(users)]


class TestSegmentedKernel:
    @given(_issue_batches())
    def test_every_trace_matches_its_own_simulate(self, batch):
        issues, backlog = batch
        slot, col, dep = _fifo(issues, _queue(issues, backlog))
        sizes = issues.sum(axis=(1, 2))
        bounds = np.cumsum(sizes)
        for i, stop in enumerate(bounds):
            rows = slice(stop - sizes[i], stop)
            tr = simulate(*_streams_of(issues[i]), initial_backlog=backlog)
            assert np.array_equal(tr.owners[backlog:], col[rows] + 1)
            assert np.array_equal(tr.arrivals[backlog:], slot[rows])
            assert np.array_equal(tr.departures[backlog:], dep[rows])
            # the recursion D = max(D_prev, t) + 1 packet by packet, from the backlog
            last, expected = backlog, []
            for t in slot[rows].tolist():
                last = max(last, t) + 1
                expected.append(last)
            assert dep[rows].tolist() == expected

    @given(_issue_batches())
    def test_queue_follows_lindley_and_simulate(self, batch):
        issues, backlog = batch
        queue = _queue(issues, backlog)
        assert queue.shape == (issues.shape[0], issues.shape[1] + 1)
        for i, row in enumerate(issues):
            # Lindley's recursion slot by slot: Q_t = max(Q_{t-1} + a_t - 1, 0)
            q, expected = backlog, [backlog]
            for a in row.sum(axis=1).tolist():
                q = max(q + a - 1, 0)
                expected.append(q)
            assert queue[i].tolist() == expected
            tr = simulate(*_streams_of(row), initial_backlog=backlog)
            assert np.array_equal(tr.queue_len[: row.shape[0]], queue[i, 1:])

    @given(_issue_batches())
    def test_batched_observe_matches_observe(self, batch):
        issues, backlog = batch
        issues[:, :, 0] = 0
        issues[:, ::2, 0] = 1  # one probe stream shared by every trace
        if issues[0, :, 0].sum() < 2:
            return
        slots = issues.shape[1]
        tau, y, buffered = _probe_intervals(_queue(issues, backlog), np.arange(0, slots, 2))
        for i, row in enumerate(issues):
            obs = observe(simulate(*_streams_of(row), initial_backlog=backlog))
            assert np.array_equal(obs.tau, tau)
            assert np.array_equal(obs.y, y[i])
            assert np.array_equal(obs.buffered, buffered[i])


class TestObserve:
    def test_adjacent_probes_with_one_packet_between(self):
        tr = simulate(_sched(DECODER, [1, 1, 0]), _sched(ENCODER, [1, 0, 0]))
        ob = observe(tr)
        assert (ob.tau.tolist(), ob.y.tolist(), ob.buffered.tolist()) == ([1], [1], [True])

    def test_unbuffered_flag(self):
        # probes 3 apart with an empty queue: q(A) = 0 < tau - 1
        tr = simulate(_sched(DECODER, [1, 0, 0, 1]), _sched(ENCODER, [0, 0, 0, 0]))
        assert observe(tr).buffered.tolist() == [False]

    def test_requires_two_probes(self):
        tr = simulate(_sched(DECODER, [1, 0]), _sched(ENCODER, [0, 0]))
        with pytest.raises(TooFewProbesError):
            observe(tr)


def _reference_stability_probe(
    rates: tuple[float, ...] | list[float],
    horizon: int,
    seed: int,
    initial_backlog: int = 0,
) -> DriftReport:
    """`stability_probe` as it stood before the per-slot queue kernel: the
    queue series is read off a full per-packet `simulate` trace."""
    rates = tuple(float(r) for r in rates)
    if not 1 <= len(rates) <= 3:
        raise ValueError("stability probe supports 1 to 3 users")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    users = (DECODER, ENCODER, BACKGROUND)
    streams = {
        users[i]: ArrivalSchedule.bernoulli(users[i], r, horizon, rng)
        for i, r in enumerate(rates)
    }
    zeros = lambda u: ArrivalSchedule(u, np.zeros(horizon, dtype=np.int8))  # noqa: E731
    trace = simulate(
        streams.get(DECODER, zeros(DECODER)),
        streams.get(ENCODER, zeros(ENCODER)),
        streams.get(BACKGROUND),
        initial_backlog=initial_backlog,
    )
    q_end = trace.queue_len[:horizon].astype(float)
    q_start = np.concatenate([[float(initial_backlog)], q_end[:-1]])
    # the queue series is q(t+1) = q(t) + a(t) - s(t), so its steps are a - s
    k_hat = float(((q_end - q_start) ** 2).mean())

    total = sum(rates)
    threshold = k_hat / (2.0 * (1.0 - total)) if total < 1.0 else None
    drift = None
    above = 0
    if threshold is not None:
        sq_inc = q_end**2 - q_start**2
        mask = q_start >= threshold
        above = int(mask.sum())
        if above:
            drift = float(sq_inc[mask].mean())
    half = q_end[horizon // 2 :]
    return DriftReport(
        rates=rates,
        total_rate=total,
        horizon=horizon,
        seed=seed,
        final_queue=int(q_end[-1]),
        max_queue=int(q_end.max()),
        mean_queue_second_half=float(half.mean()),
        squared_increment_mean=k_hat,
        drift_threshold=threshold,
        drift_above_threshold=drift,
        slots_above_threshold=above,
    )


class TestStability:
    @pytest.mark.parametrize(
        "rates",
        [
            (0.45,), (0.3, 0.2), (0.2, 0.25, 0.3),  # subcritical
            (1.0,), (0.5, 0.5), (0.2, 0.3, 0.5),  # critical: total rate 1
            (0.6, 0.5), (0.4, 0.4, 0.3),  # supercritical
        ],
    )
    @pytest.mark.parametrize("initial_backlog", [0, 1, 50])
    def test_equals_the_per_packet_reference(self, rates, initial_backlog, monkeypatch):
        # one block of the whole horizon, then the default block and smaller
        # ones that split it (7 divides neither horizon), the tiniest over a
        # shorter horizon to bound the per-block cost
        for horizon, blocks in ((20_000, (20_000, fcfs._BLOCK, 64)), (2_000, (7, 1))):
            args = (rates, horizon, 11)
            expected = _reference_stability_probe(*args, initial_backlog=initial_backlog)
            for block in blocks:
                monkeypatch.setattr(fcfs, "_BLOCK", block)
                assert stability_probe(*args, initial_backlog=initial_backlog) == expected, block

    def test_subcritical_drift_negative(self):
        rep = stability_probe((0.475, 0.475), 10**5, seed=7)
        assert rep.mean_queue_second_half < 100
        assert rep.max_queue < 10**4
        assert rep.drift_threshold is not None
        assert rep.slots_above_threshold > 0
        assert rep.drift_above_threshold < 0

    def test_supercritical_growth(self):
        rep = stability_probe((0.525, 0.525), 10**5, seed=7)
        assert rep.final_queue >= 0.8 * 0.05 * 10**5
        assert rep.drift_threshold is None

    def test_no_traffic(self):
        rep = stability_probe((0.0,), 1000, seed=1)
        assert rep.max_queue == 0 and rep.final_queue == 0

    def test_three_user_split(self):
        rep = stability_probe((0.3, 0.3, 0.3), 10**4, seed=2)
        assert rep.total_rate == pytest.approx(0.9)
        assert rep.mean_queue_second_half < 50

    @pytest.mark.parametrize("rates", [(0.475, 0.475), (0.525, 0.525), (0.3, 0.3, 0.3), (0.0,)])
    def test_squared_increment_matches_arrivals_minus_service(self, rates):
        # independent reference: redraw the schedules and run the queue slot
        # by slot with one service per busy slot, K = E[(a - s)^2]
        horizon, seed = 10**5, 3
        rng = np.random.default_rng(seed)
        arrivals = sum((rng.random(horizon) < r).astype(int) for r in rates)
        q, inc = 0, np.empty(horizon)
        for t, a in enumerate(arrivals.tolist()):
            s = 1 if q + a > 0 else 0
            inc[t] = a - s
            q += a - s
        rep = stability_probe(rates, horizon, seed=seed)
        assert rep.squared_increment_mean == float((inc**2).mean())
        assert rep.final_queue == q

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            stability_probe((), 100, seed=0)
        with pytest.raises(ValueError):
            stability_probe((0.5,), 0, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            stability_probe((0.3,), 1.5, seed=0)
        with pytest.raises(ValueError, match="initial_backlog"):
            stability_probe((0.3,), 100, seed=0, initial_backlog=2.5)
        with pytest.raises(ValueError, match="initial_backlog"):
            stability_probe((0.3,), 100, seed=0, initial_backlog=-1)
        with pytest.raises(ValueError, match="rate"):
            stability_probe((0.3, 1.5), 100, seed=0)

    def test_known_report_across_blocks(self):
        # recorded from the whole-horizon implementation, here over many
        # blocks: each mean is bitwise its exact integer sum over its count
        k_hat = 135744 / 300_000
        assert stability_probe((0.475, 0.475), 300_000, seed=9) == DriftReport(
            rates=(0.475, 0.475),
            total_rate=0.95,
            horizon=300_000,
            seed=9,
            final_queue=2,
            max_queue=36,
            mean_queue_second_half=669858 / 150_000,
            squared_increment_mean=k_hat,
            drift_threshold=k_hat / (2.0 * (1.0 - 0.95)),
            drift_above_threshold=-50184 / 113031,
            slots_above_threshold=113031,
        )

    def test_peak_memory_at_a_million_slots(self):
        # one block (about 0.9 MB traced); the stored int8 streams peaked at
        # 4.8 MB and the whole-horizon float series at 24.8 MB
        assert _peak_mb(lambda: stability_probe((0.475, 0.475), 10**6, seed=9)) <= 2

    def test_peak_memory_does_not_grow_with_the_horizon(self):
        one, four = (
            _peak_mb(lambda: stability_probe((0.475, 0.475), h, seed=9)) for h in (10**6, 4 * 10**6)
        )
        assert four <= one + 0.5

    @pytest.mark.parametrize(
        "rates, initial_backlog",
        [((0.475, 0.475), 10**12), ((0.3, 0.3, 0.35), 60), ((0.5,), 0), ((0.475, 0.475), 10**17)],
    )
    def test_equals_a_slot_by_slot_count(self, rates, initial_backlog):
        # Python integers slot by slot, so the squares of a queue of 10^12
        # packets and the block sums over a queue of 10^17 stay exact; 60
        # packets start above the cap 2 / (1 - 0.95) and the queue then
        # drains through the binned values below it
        horizon, seed = 3_000, 4
        rng = np.random.default_rng(seed)
        arrivals = sum((rng.random(horizon) < r).astype(int) for r in rates).tolist()
        q, series = initial_backlog, []
        for a in arrivals:
            step = a - (1 if q + a > 0 else 0)
            series.append((q, step))
            q += step
        k_hat = sum(d * d for _, d in series) / horizon
        threshold = k_hat / (2.0 * (1.0 - sum(rates)))
        above = [(s, d) for s, d in series if s >= threshold]
        ends = [s + d for s, d in series]
        expected = DriftReport(
            rates=rates,
            total_rate=sum(rates),
            horizon=horizon,
            seed=seed,
            final_queue=q,
            max_queue=max(ends),
            mean_queue_second_half=sum(ends[horizon // 2 :]) / (horizon - horizon // 2),
            squared_increment_mean=k_hat,
            drift_threshold=threshold,
            drift_above_threshold=sum(d * (2 * s + d) for s, d in above) / len(above),
            slots_above_threshold=len(above),
        )
        assert stability_probe(rates, horizon, seed, initial_backlog=initial_backlog) == expected

    def test_peak_memory_behind_a_huge_backlog(self):
        # every slot sits above the threshold, so the drift is summed directly
        def call():
            return stability_probe((0.475, 0.475), 10**6, seed=9, initial_backlog=10**12)

        assert _peak_mb(call) <= 2


def _peak_mb(call) -> float:
    """Peak traced memory of one call above what was allocated before it, in MB."""
    np.random.PCG64(0)  # the first seeding imports modules; keep them out of the peak
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


class TestEmpiricalChannelLaw:
    def test_noiseless_is_point_mass(self):
        law = empirical_channel_law(3, 0.0, 10**4, seed=13)
        assert law.probs[0] == 1.0

    def test_matches_binomial(self):
        law = empirical_channel_law(2, 0.3, 2 * 10**4, seed=11)
        assert total_variation(law, binomial_pmf(2, 0.3)) < 0.02

    def test_mean_matches(self):
        law = empirical_channel_law(1, 0.5, 2 * 10**4, seed=12)
        assert law.mean() == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize(
        "tau, r_p, encoder_rate",
        [(1, 0.5, 0.5), (1, 0.0, 0.0), (2, 0.3, 0.5), (3, 1.0, 0.1), (8, 0.5, 1.0), (4, 0.0, 0.0)],
    )
    def test_equals_the_law_behind_a_horizon_of_backlog(self, tau, r_p, encoder_rate, monkeypatch):
        # the same draws queued behind n sentinel packets, spelled out; at
        # r_p = 0 and encoder_rate = 0 the queue drains between probes
        intervals, seed = 400, 5
        n = tau * intervals + 1
        rng = np.random.default_rng(seed)
        probe = np.zeros(n, dtype=np.int8)
        probe[::tau] = 1
        encoder = ArrivalSchedule.bernoulli(ENCODER, encoder_rate, n, rng)
        background = ArrivalSchedule.bernoulli(BACKGROUND, r_p, n, rng)
        trace = simulate(_sched(DECODER, probe), encoder, background, initial_backlog=n)
        obs = observe(trace)
        assert obs.buffered.all()
        x = encoder.slots[:-1].reshape(intervals, tau).sum(axis=1)
        counts = np.bincount(obs.y - x, minlength=tau + 1).astype(float)
        # each block is cut down to whole intervals, at least one (a block
        # of n slots holds all 400); the last block is partial at 64 for tau
        # 1 to 3 and at 7 for tau 1 and 2
        for block in (n, 64, 7, 1):
            monkeypatch.setattr(fcfs, "_BLOCK", block)
            law = empirical_channel_law(tau, r_p, intervals, seed, encoder_rate=encoder_rate)
            assert (law.probs == counts / counts.sum()).all(), block

    def test_known_law_across_blocks(self):
        # recorded from the whole-horizon implementation; many blocks
        law = empirical_channel_law(3, 0.4, 100_000, seed=8)
        assert [p.hex() for p in law.probs.tolist()] == [
            "0x1.bbf727136a401p-3",
            "0x1.ba95421c04428p-2",
            "0x1.266ba493c89f4p-2",
            "0x1.040e1719f7f8dp-4",
        ]

    @pytest.mark.parametrize(
        "args, name",
        [
            ((2.5, 0.3, 100), "tau"),
            ((0, 0.3, 100), "tau"),
            ((2, 0.3, 1.5), "intervals"),
            ((2, 0.3, 0), "intervals"),
            ((2, 1.5, 100), "rate"),
        ],
    )
    def test_rejects_bad_args(self, args, name):
        with pytest.raises(ValueError, match=name):
            empirical_channel_law(*args, seed=0)

    def test_peak_memory_at_a_million_intervals(self):
        # one block (about 0.9 MB traced); the stored int8 encoder stream
        # peaked at 5.4 MB and the whole-horizon tensors at 62.7 MB
        assert _peak_mb(lambda: empirical_channel_law(2, 0.3, 10**6, seed=8)) <= 2

    def test_peak_memory_does_not_grow_with_the_intervals(self):
        one, four = (
            _peak_mb(lambda: empirical_channel_law(2, 0.3, m, seed=8)) for m in (10**6, 4 * 10**6)
        )
        assert four <= one + 0.5


class TestTraceCsv:
    def test_rows_cover_drain_and_mark_idle(self):
        dec = _sched(DECODER, [1, 0, 0, 0])
        enc = _sched(ENCODER, [0, 0, 0, 1])
        tr = simulate(dec, enc)
        rows = trace_to_csv_rows(tr, dec, enc)
        assert rows[0] == (0, "d", "d", 0)
        assert [r[2] for r in rows].count("-") == 2  # slots 1 and 2 idle
        assert rows[-1][3] == 0

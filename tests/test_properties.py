"""Property tests: the scheduler and its observations against a naive
per-slot FIFO queue, the noiseless decode and text round trips on handmade
coding schemes, and one value per slice point wherever it is solved."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqclab import capacity3
from cqclab.capacity3 import h_check, i_tilde_curve
from cqclab.coding import (
    Codebook,
    ProbeTemplate,
    decode_2user,
    decode_3user,
    dump_codebook,
    load_codebook,
    probe_stream,
)
from cqclab.dist import Pmf
from cqclab.fcfs import (
    _OWNER_CODE,
    BACKGROUND,
    DECODER,
    ENCODER,
    SENTINEL,
    ArrivalSchedule,
    TooFewProbesError,
    observe,
    simulate,
)


def reference_queue(streams, backlog):
    """Slot by slot: arrivals join the tail in priority order, then the head
    is served and departs at the next slot boundary.

    Returns the (owner, arrival, departure) records in service order, the
    end-of-slot queue lengths, and the number of packets ahead of each
    decoder packet when it joined.
    """
    n = len(streams[0][1])
    queue = deque((SENTINEL, -1) for _ in range(backlog))
    served, queue_len, ahead = [], [], []
    t = 0
    while t < n or queue:
        for user, bits in streams if t < n else ():
            if bits[t]:
                if user == DECODER:
                    ahead.append(len(queue))
                queue.append((user, t))
        if queue:
            owner, arrival = queue.popleft()
            served.append((owner, arrival, t + 1))
        queue_len.append(len(queue))
        t += 1
    return served, queue_len, ahead


@st.composite
def schedules(draw):
    n = draw(st.integers(1, 40))
    users = [DECODER, ENCODER] + ([BACKGROUND] if draw(st.booleans()) else [])
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    streams = [(user, draw(bits)) for user in users]
    priority = (DECODER, *draw(st.permutations([ENCODER, BACKGROUND])))
    return streams, draw(st.integers(0, 8)), priority


@given(schedules())
def test_simulate_and_observe_match_reference_queue(case):
    streams, backlog, priority = case
    schedule = [ArrivalSchedule(user, np.array(bits, dtype=np.int8)) for user, bits in streams]
    trace = simulate(*schedule, initial_backlog=backlog, priority=priority)
    by_priority = sorted(streams, key=lambda s: priority.index(s[0]))
    served, queue_len, ahead = reference_queue(by_priority, backlog)

    assert trace.owners.tolist() == [_OWNER_CODE[owner] for owner, _, _ in served]
    assert trace.arrivals.tolist() == [arrival for _, arrival, _ in served]
    assert trace.departures.tolist() == [departure for _, _, departure in served]
    assert trace.queue_len.tolist() == queue_len

    probes = [(i, arrival) for i, (owner, arrival, _) in enumerate(served) if owner == DECODER]
    if len(probes) < 2:
        with pytest.raises(TooFewProbesError):
            observe(trace)
        return
    obs = observe(trace)
    pairs = list(zip(probes, probes[1:]))
    tau = [a1 - a0 for (_, a0), (_, a1) in pairs]
    buffered = [q >= t - 1 for q, t in zip(ahead, tau)]
    assert obs.tau.tolist() == tau
    assert obs.y.tolist() == [served[i1][2] - served[i0][2] - 1 for (i0, _), (i1, _) in pairs]
    assert obs.buffered.tolist() == buffered
    assert obs.arrival_slot.tolist() == [a for _, a in probes[:-1]]
    # a buffered interval's count is the number of packets served between its probes
    for y, b, ((i0, _), (i1, _)) in zip(obs.y, buffered, pairs):
        assert not b or y == i1 - i0 - 1
    for column in (obs.tau, obs.y, obs.buffered, obs.arrival_slot):
        assert not column.flags.writeable


@st.composite
def handmade_codebooks(draw):
    """Codebooks over schemes of 1 to 3 window lengths in 1..6, not
    necessarily adjacent, with 0 to 3 windows each (at least one in all) and
    arbitrary symbol laws."""
    ks = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True).map(sorted))
    counts = draw(
        st.lists(st.integers(0, 3), min_size=len(ks), max_size=len(ks)).filter(any)
    )
    weights = [draw(st.lists(st.floats(0.01, 1.0), min_size=k + 1, max_size=k + 1)) for k in ks]
    laws = [Pmf(np.array(w) / sum(w)) for w in weights]
    template = ProbeTemplate(tuple(zip(ks, counts, laws)))
    widths = template.widths.tolist()
    symbols = st.tuples(*(st.integers(0, w) for w in widths))
    messages = draw(st.lists(symbols, min_size=1, max_size=8, unique=True))
    rows = template.image(np.array(messages))
    return Codebook(template=template, codewords=np.array(rows), seed=draw(st.integers(0, 2**32)))


@given(handmade_codebooks())
def test_noiseless_round_trip_on_handmade_layouts(cb):
    decoder = ArrivalSchedule(
        DECODER, np.append(probe_stream(ProbeTemplate.for_codebook(cb)).slots, np.int8(1))
    )
    backlog = cb.n + cb.template.windows[-1][0]  # n plus the longest window length
    for msg in range(cb.M):
        encoder = ArrivalSchedule(ENCODER, np.append(cb.codewords[msg], np.int8(0)))
        obs = observe(simulate(decoder, encoder, initial_backlog=backlog))
        assert decode_2user(obs, cb) == msg
        assert decode_3user(obs, cb, 0.0) == msg


@given(handmade_codebooks())
def test_text_round_trip_on_handmade_layouts(cb):
    cb2 = load_codebook(dump_codebook(cb))
    assert cb2.codewords.tobytes() == cb.codewords.tobytes()
    assert (cb2.n, cb2.M, cb2.seed) == (cb.n, cb.M, cb.seed)
    assert [(k, count) for k, count, _ in cb2.template.windows] == [
        (k, count) for k, count, _ in cb.template.windows
    ]
    for (_, _, law2), (_, _, law) in zip(cb2.template.windows, cb.template.windows):
        assert law2.probs.tobytes() == law.probs.tobytes()


@given(st.integers(1, 8), st.floats(0.0, 1.0), st.floats(0.0, 0.95))
def test_slice_point_has_one_value_wherever_it_is_solved(k, gamma, r_p):
    # alone, as a row of a one-rate curve and as a row of a mixed-rate batch
    bits, law = h_check(gamma, k, r_p)
    noise = capacity3._channel(k, r_p)[1]
    grid = np.sort(np.append(np.linspace(0.0, 1.0, 7), gamma))
    curve = i_tilde_curve(grid, k, r_p)
    assert curve[np.searchsorted(grid, gamma)] == max((bits - noise) / k, 0.0)
    rps = np.array([0.3, r_p, 0.0, 0.7, r_p])
    batch_bits, _, batch_noise, batch_laws = capacity3._slices(k, rps, [0.5, gamma, 0.2, 0.9, 0.6])
    assert batch_bits[1] == bits and batch_noise[1] == noise
    assert (batch_laws[1] == law.probs).all()

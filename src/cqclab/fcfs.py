"""Slot-level simulation of a deterministic, work-conserving FCFS scheduler.

Time is slotted; every user issues at most one packet per slot; the server
completes at most one packet per slot. Slot semantics: arrivals at slot t
join the queue tail in within-slot priority order (decoder first), the
head-of-line packet is served during slot t, and a packet served during
slot t departs at t + 1. A packet arriving at t with q packets ahead of it
therefore departs at t + q + 1, which makes the probe's queue-length reading
D - A - 1 exact.

One per-slot queue kernel serves many independent traces at once. The queue
follows Lindley's recursion (Lindley 1952), Q_t = max(Q_{t-1} + a_t - 1, 0)
with a_t the packets issued at slot t and Q_{-1} the `initial_backlog`, and
the kernel evaluates it in closed form over the (trace x slot) counts: with
S_t = backlog + sum_{s <= t} (a_s - 1), Q_t = S_t - min(0, min_{s <= t} S_s),
one cumulative sum and one running minimum along the slot axis. Everything
else reads off that queue: a packet issued at t with r packets of higher
priority in its slot departs at t + Q_{t-1} + r + 1, so a probe (top
priority) departs at t + Q_{t-1} + 1. `simulate` is the one-trace case with
per-packet records, and keeps the backlog in its trace as sentinel packets
(owner code 0, arrival -1) at the head; the stability probe and the probe
observations of transmissions and of the channel-law estimate need only the
per-slot counts, so they build no per-packet trace; the observations read
each probe's departure off the queue at the slots where the probes were put
(`_probe_intervals`). The two long-trace calls, `stability_probe` and
`empirical_channel_law`, loop over one block stream (`_stream`) that runs
the kernel one block of `_BLOCK` slots at a time, each block starting from
the queue the one before it left, so their integer sums are exact and equal
the whole-horizon ones. They store no stream: each user draws its block from
a generator of its own, a copy of one PCG64(seed) state advanced to where
that user's draws begin in the one `default_rng(seed)` stream (PCG64 jumps
ahead in O(log n) steps; O'Neill 2014), so the draws are those of drawing
the streams one after another. Their memory is one block, about 0.5 MB,
whatever the horizon.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields

import numpy as np

from .dist import Pmf, _count

DECODER, ENCODER, BACKGROUND, SENTINEL = "decoder", "encoder", "background", "sentinel"
_OWNER_CODE = {SENTINEL: 0, DECODER: 1, ENCODER: 2, BACKGROUND: 3}
_OWNER_LETTER = np.array(["s", "d", "e", "b"], dtype=object)  # indexed by owner code


_BLOCK = 1 << 14  # slots per block of the long-trace stream, `_stream`


def _bernoulli(rate: float, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the 1-D int8 array `out` with i.i.d. Bernoulli(rate) 0/1 draws,
    those of `rng.random(out.size) < rate`, and return it."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    return np.less(rng.random(out.size), rate, out=out)


def _generators(seed, offsets) -> list[np.random.Generator]:
    """One generator per offset, each on the stream of `default_rng(seed)`
    from draw `offset` on: a copy of one PCG64(seed) state advanced `offset`
    64-bit outputs, one per uniform of `random`. Streams that one generator
    would draw one after another can so be drawn side by side, block by
    block, with the same values."""
    root = np.random.PCG64(seed)
    generators = []
    for offset in offsets:
        bits = copy.deepcopy(root)
        bits.advance(offset)
        generators.append(np.random.Generator(bits))
    return generators


class TooFewProbesError(ValueError):
    """A probe observation needs at least two decoder packets."""


class UnbufferedIntervalError(RuntimeError):
    """A probe interval ran with too little backlog; counts are unreliable."""


@dataclass(frozen=True)
class ArrivalSchedule:
    """Binary per-slot issue pattern for one user."""

    user: str
    slots: np.ndarray

    def __post_init__(self):
        if self.user not in (DECODER, ENCODER, BACKGROUND):
            raise ValueError(f"unknown user {self.user!r}")
        s = np.asarray(self.slots)
        if s.ndim != 1:
            raise ValueError("slots must be 1-D")
        if not ((s == 0) | (s == 1)).all():
            raise ValueError("at most one packet per user per slot (entries 0/1)")
        s = s.astype(np.int8)
        s.flags.writeable = False
        object.__setattr__(self, "slots", s)

    def __len__(self) -> int:
        return self.slots.size

    @staticmethod
    def bernoulli(user: str, rate: float, n: int, rng: np.random.Generator) -> "ArrivalSchedule":
        n = _count("n", n, 0)
        return ArrivalSchedule(user, _bernoulli(rate, rng, np.empty(n, dtype=np.int8)))


@dataclass(frozen=True)
class SchedulerTrace:
    """Per-packet (owner, arrival, departure) records in FIFO service order,
    plus the end-of-slot queue-length series."""

    owners: np.ndarray  # int codes per _OWNER_CODE
    arrivals: np.ndarray  # sentinels carry arrival -1 (pre-loaded)
    departures: np.ndarray
    queue_len: np.ndarray  # queue at end of each slot, indices 0..len-1
    horizon: int
    initial_backlog: int

    def packets_of(self, user: str) -> tuple[np.ndarray, np.ndarray]:
        """(arrival, departure) arrays of one user's packets in FIFO order."""
        mask = self.owners == _OWNER_CODE[user]
        return self.arrivals[mask], self.departures[mask]


@dataclass(frozen=True)
class ProbeObservations:
    """Columns over the intervals between consecutive probe packets: the
    spacing `tau`, the observed count `y`, the `buffered` flag and the
    `arrival_slot` of the interval's opening probe. The columns are
    read-only 1-D arrays of one length."""

    tau: np.ndarray
    y: np.ndarray
    buffered: np.ndarray
    arrival_slot: np.ndarray

    def __post_init__(self):
        columns = {f.name: np.asarray(getattr(self, f.name)).view() for f in fields(self)}
        if len({c.shape for c in columns.values()}) != 1 or columns["tau"].ndim != 1:
            raise ValueError("observation columns must be 1-D arrays of one length")
        for name, col in columns.items():
            col.flags.writeable = False
            object.__setattr__(self, name, col)


def _queue(issues: np.ndarray, initial_backlog: int) -> np.ndarray:
    """Queue lengths of independent traces at every slot boundary.

    `issues` is a (trace x slot x user) 0/1 int8 tensor; every trace starts
    with `initial_backlog` packets queued ahead of slot 0. Returns the
    int64 (trace x slot + 1) array whose column t is the queue just before
    slot t's arrivals, Q_{t-1} in Lindley's recursion (Lindley 1952): column
    0 is the backlog and column t + 1 the queue at the end of slot t. Closed
    form: S = backlog + running sum of (a_t - 1) and Q = S - min(0, running
    minimum of S), from int8 column adds, one cumulative sum and one running
    minimum along the slot axis.
    """
    steps = issues[:, :, 0] - np.int8(1)
    for j in range(1, issues.shape[2]):
        steps += issues[:, :, j]
    queue = np.empty((issues.shape[0], issues.shape[1] + 1), dtype=np.int64)
    queue[:, 0] = 0
    np.cumsum(steps, axis=1, out=queue[:, 1:])
    del steps
    queue += initial_backlog
    floor = np.minimum.accumulate(queue, axis=1)
    np.minimum(floor, 0, out=floor)
    queue -= floor
    return queue


def _fifo(issues: np.ndarray, queue: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-packet departures of independent traces, read off their queue.

    `issues` is a (trace x slot x user) 0/1 tensor with its user columns in
    priority order and `queue` its `_queue`. Returns the (slot, user column,
    departure) of every issued packet, trace by trace in FIFO order: the
    packet issued at t behind r others of its slot departs at
    t + Q_{t-1} + r + 1.
    """
    trace, slot, col = np.nonzero(issues)
    rank = np.cumsum(issues, axis=2, dtype=np.int8)[trace, slot, col]  # r + 1
    dep = queue[trace, slot]
    del trace
    dep += slot
    dep += rank
    return slot, col, dep


def _intervals(arr: np.ndarray, dep: np.ndarray):
    """(tau, y, buffered) of the intervals between consecutive probes, along
    the last axis of the probes' arrivals and departures."""
    tau = np.diff(arr, axis=-1)
    return tau, np.diff(dep, axis=-1) - 1, dep[..., :-1] - arr[..., :-1] - 1 >= tau - 1


def _probe_intervals(queue: np.ndarray, probes: np.ndarray):
    """(tau, y, buffered) of the intervals between probes issued at the
    sorted 1-D `probes` slots of every trace of a `_queue`: a probe issued
    at t departs at t + Q_{t-1} + 1. `tau` is one row shared by the traces,
    `y` and `buffered` have the queue's leading axes."""
    return _intervals(probes, queue[..., probes] + probes + 1)


def _stream(issues: np.ndarray, columns, slots: int, backlog: int):
    """Yield (block, queue row) for `slots` slots run through the queue
    kernel one block of the (1 x block x user) `issues` buffer at a time,
    each from the queue the one before it left, the first from `backlog`.
    The (column, rate, generator) `columns` of each block are drawn by
    `_bernoulli`; the other columns keep what the caller put there."""
    for start in range(0, slots, issues.shape[1]):
        block = issues[:, : slots - start]
        for j, rate, rng in columns:
            _bernoulli(rate, rng, block[0, :, j])
        queue = _queue(block, backlog)[0]
        backlog = queue[-1]
        yield block, queue


def simulate(
    decoder: ArrivalSchedule,
    encoder: ArrivalSchedule,
    background: ArrivalSchedule | None = None,
    initial_backlog: int = 0,
    priority: tuple[str, ...] = (DECODER, ENCODER, BACKGROUND),
) -> SchedulerTrace:
    """Run the FCFS scheduler over the given arrival streams: the one-trace
    case of the per-slot queue kernel, with per-packet records.

    Streams must share one length n; service continues past slot n until the
    queue drains so every packet has a departure. `initial_backlog` dummy
    packets owned by a sentinel user sit at the head of the queue at slot 0;
    they prime the queue and are never part of any probe count. Within-slot
    priority defaults to decoder > encoder > background; only the decoder's
    top priority is load-bearing, the rest is declared for determinism.
    Departures come from `_fifo`; `queue_len` is the kernel's queue at the
    end of slots 0..n-1 followed by the drain, one packet per slot after n.
    """
    initial_backlog = _count("initial_backlog", initial_backlog, 0)
    if set(priority) != {DECODER, ENCODER, BACKGROUND} or priority[0] != DECODER:
        raise ValueError("priority must order decoder first and cover all users")
    streams = [decoder, encoder] + ([background] if background is not None else [])
    n = len(decoder)
    if any(len(s) != n for s in streams):
        raise ValueError("all arrival streams must have the same length")

    columns = [s for user in priority for s in streams if s.user == user]
    issues = np.stack([s.slots for s in columns], axis=1)[None]
    queue = _queue(issues, initial_backlog)
    slot, col, dep = _fifo(issues, queue)
    del issues
    codes = np.array([_OWNER_CODE[s.user] for s in columns], dtype=np.int64)
    owners = np.concatenate([np.zeros(initial_backlog, dtype=np.int64), codes[col]])
    del col
    slots = np.concatenate([np.full(initial_backlog, -1, dtype=np.int64), slot])
    del slot
    # the sentinels are served first, one per slot from slot 0
    departures = np.concatenate([np.arange(1, initial_backlog + 1), dep])
    del dep
    queue_len = np.concatenate([queue[0, 1:], np.arange(queue[0, -1] - 1, -1, -1)])

    for a in (owners, slots, departures, queue_len):
        a.flags.writeable = False
    return SchedulerTrace(
        owners=owners,
        arrivals=slots,
        departures=departures,
        queue_len=queue_len,
        horizon=n,
        initial_backlog=initial_backlog,
    )


def observe(trace: SchedulerTrace) -> ProbeObservations:
    """Columnar observations of the intervals between consecutive probes.

    For interval i: tau = A_{i+1} - A_i, the observed count
    Y = D_{i+1} - D_i - 1, and the buffered flag records whether the queue
    reading D_i - A_i - 1 was at least tau - 1 (the condition under which Y
    is exactly the count of other users' packets in the interval).
    """
    arr, dep = trace.packets_of(DECODER)
    if arr.size < 2:
        raise TooFewProbesError("need at least two decoder packets to observe")
    tau, y, buffered = _intervals(arr, dep)
    return ProbeObservations(tau=tau, y=y, buffered=buffered, arrival_slot=arr[:-1])


@dataclass(frozen=True)
class DriftReport:
    """Queue-stability summary from a Bernoulli-traffic run."""

    rates: tuple[float, ...]
    total_rate: float
    horizon: int
    seed: int
    final_queue: int
    max_queue: int
    mean_queue_second_half: float
    squared_increment_mean: float  # empirical K = E[(a - s)^2]
    drift_threshold: float | None  # K / (2 (1 - total_rate)) when subcritical
    drift_above_threshold: float | None
    slots_above_threshold: int


def stability_probe(
    rates: tuple[float, ...] | list[float],
    horizon: int,
    seed: int,
    initial_backlog: int = 0,
) -> DriftReport:
    """Drive the scheduler with i.i.d. Bernoulli arrivals and report drift.

    Up to three per-user rates map onto the decoder/encoder/background roles
    (the roles are interchangeable for queue-length purposes). The service
    rate is fixed at one packet per slot, so subcritical means total rate
    below 1; in that regime the report includes the empirical quadratic
    drift E[q(t+1)^2 - q(t)^2 | q(t) >= threshold] at the threshold
    K / (2 (1 - total_rate)), which queue stability requires to be negative.
    The queue series comes off the per-slot queue kernel block by block
    (`_stream`, each user's block from its own `_generators` generator) and
    is not stored. Every mean is an exact integer sum divided once by its
    count, the queue's taken per block relative to the block's first value
    so that no backlog overflows int64. A step a - s lies in {-1, 0, 1, 2},
    so K <= 4 and the threshold is at most cap = 2 / (1 - total_rate): the
    one pass, before K is known, bins the slots below the cap per
    (q(t), step), over the queue values seen there. Summed over every slot,
    q(t+1)^2 - q(t)^2 telescopes to final_queue^2 - initial_backlog^2; the
    drift above the threshold is that total less the binned slots below it.
    The memory is one block plus those bins, whatever the horizon or backlog.
    """
    rates = tuple(float(r) for r in rates)
    if not 1 <= len(rates) <= 3:
        raise ValueError("stability probe supports 1 to 3 users")
    horizon = _count("horizon", horizon, 1)
    initial_backlog = _count("initial_backlog", initial_backlog, 0)
    generators = _generators(seed, [j * horizon for j in range(len(rates))])
    columns = [(j, r, rng) for j, (r, rng) in enumerate(zip(rates, generators))]
    total = sum(rates)
    cap = math.ceil(4.0 / (2.0 * (1.0 - total))) if total < 1.0 else 0
    bins, base = np.zeros((0, 4), dtype=np.int64), 0  # bins[q - base, step + 1]
    squares = max_queue = half_sum = 0
    issues = np.empty((1, min(_BLOCK, horizon), len(rates)), dtype=np.int8)
    for i, (_, queue) in enumerate(_stream(issues, columns, horizon, initial_backlog)):
        q0 = int(queue[0])  # the block's half sum runs relative to it
        # the queue series is q(t+1) = q(t) + a(t) - s(t), so its steps are a - s
        steps = np.diff(queue)
        squares += int(np.dot(steps, steps))
        max_queue = max(max_queue, int(queue[1:].max()))
        half = queue[1 + max(horizon // 2 - i * issues.shape[1], 0) :]
        half_sum += int((half - q0).sum()) + q0 * half.size
        low = queue[:-1] < cap
        q, d = (queue[:-1], steps) if low.all() else (queue[:-1][low], steps[low])
        if q.size:
            lo, hi = int(q.min()), int(q.max())
            if not bins.size:
                base = lo
            first, last = min(base, lo), max(base + len(bins), hi + 1)
            if (first, last) != (base, base + len(bins)):  # widen the bins to [first, last)
                bins = np.pad(bins, ((base - first, last - base - len(bins)), (0, 0)))
                base = first
            counts = np.bincount(4 * (q - lo) + d + 1, minlength=4 * (hi - lo + 1))
            bins[lo - base : hi - base + 1] += counts.reshape(-1, 4)
    k_hat = squares / horizon
    threshold = k_hat / (2.0 * (1.0 - total)) if total < 1.0 else None
    drift, above = None, 0
    if threshold is not None:
        counts = bins[: max(math.ceil(threshold) - base, 0)]  # the bins below the threshold
        # at offsets q - base, which keep the products within int64
        q, d = np.arange(len(counts))[:, None], np.arange(-1, 3)
        above = horizon - int(counts.sum())
        # q(t+1)^2 - q(t)^2 = d (2 q(t) + d), over every slot final^2 - backlog^2
        rise = int(queue[-1]) ** 2 - initial_backlog**2
        rise -= int((counts * d * (2 * q + d)).sum()) + 2 * base * int((counts * d).sum())
        if above:
            drift = rise / above
    return DriftReport(
        rates=rates,
        total_rate=total,
        horizon=horizon,
        seed=seed,
        final_queue=int(queue[-1]),
        max_queue=max_queue,
        mean_queue_second_half=half_sum / (horizon - horizon // 2),
        squared_increment_mean=k_hat,
        drift_threshold=threshold,
        drift_above_threshold=drift,
        slots_above_threshold=above,
    )


def empirical_channel_law(
    tau: int, r_p: float, intervals: int, seed: int, encoder_rate: float = 0.5
) -> Pmf:
    """Empirical law of Y - X at fixed probe spacing under Bernoulli noise.

    Probes are sent every tau slots (plus one closing probe); the encoder
    issues i.i.d. Bernoulli(encoder_rate) packets known to the harness, the
    background i.i.d. Bernoulli(r_p). The probes queue behind a backlog of
    n = tau * intervals + 1 packets, one per slot of the trace: at most t + 1
    slots of service have passed by the end of slot t, so the server never
    idles before the last slot and more than tau packets wait ahead of every
    opening probe, which pins every buffered flag. So Y - X isolates the
    background count per interval; its histogram estimates Bin(tau, r_p).
    The backlog is only an offset of the queue kernel's closed form, so its
    size costs nothing. The encoder and the background are drawn block by
    block, each from its own generator (`_generators`: the encoder's n draws
    come first in the `default_rng(seed)` stream, the background's after
    them), and each block of a whole number of intervals runs through the
    kernel from the queue the one before it left (`_stream`). The block's
    probe intervals are read off the queue at its probe slots, and its
    closing probe opens the next block, so every interval is read once. A
    rate outside [0, 1] raises ValueError. No stream is stored; the
    memory is one block whatever the number of intervals. The histogram is
    an exact int64 count.
    """
    tau = _count("tau", tau, 1)
    intervals = _count("intervals", intervals, 1)
    n = tau * intervals + 1
    columns = list(zip((1, 2), (encoder_rate, r_p), _generators(seed, (0, n))))
    size = tau * max(1, _BLOCK // tau)  # slots per block, a whole number of intervals
    issues = np.zeros((1, size, 3), dtype=np.int8)  # decoder, encoder, background
    issues[0, ::tau, 0] = 1
    counts = np.zeros(tau + 1, dtype=np.int64)
    for block, queue in _stream(issues, columns, n - 1, n):
        # the probe closing the block's last interval opens the next block;
        # it departs on the queue's last column
        _, y, buffered = _probe_intervals(queue, np.arange(0, block.shape[1] + 1, tau))
        if not buffered.all():
            raise UnbufferedIntervalError("an interval ran unbuffered; counts unreliable")
        diff = y - block[0, ::tau, 1]  # Y - X per interval, X by tau strided int64 subtractions
        for j in range(1, tau):
            diff -= block[0, j::tau, 1]
        if diff.min() < 0 or diff.max() > tau:
            raise AssertionError("buffered intervals must give Y - X within [0, tau]")
        counts += np.bincount(diff, minlength=tau + 1)
    counts = counts.astype(float)
    return Pmf(counts / counts.sum())


def trace_to_csv_rows(trace: SchedulerTrace) -> list[tuple[int, str, str, int]]:
    """Rows (slot, arrivals_by_user, served_owner, queue_len) for CSV export.

    Covers every slot from 0 through the drain of the queue; arrival codes
    are the user initials in priority order, read off the trace's service
    order, and '-' marks an idle server.
    """
    length = trace.queue_len.size
    served = np.full(length, "-", dtype=object)
    served[trace.departures - 1] = _OWNER_LETTER[trace.owners]  # one departure per slot
    arrivals = [""] * length
    for slot, owner in zip(trace.arrivals.tolist(), trace.owners.tolist()):
        if slot >= 0:  # FIFO order, so a slot's arrivals in priority order; no sentinels
            arrivals[slot] += _OWNER_LETTER[owner]
    return [(t, arrivals[t], str(served[t]), int(trace.queue_len[t])) for t in range(length)]

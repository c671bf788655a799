"""Achievability coding over the queueing channel: codebooks, probe streams,
encoding, decoding, and Monte-Carlo error measurement.

One scheme object, `ProbeTemplate`, describes a codeword of length n: for
each window length k, in ascending order, the number of windows of k slots
and the symbol law on {0..k} of their symbols. The builders' schemes mix
two adjacent lengths, tau_star and tau_star + 1. The template's per-window
`widths` and `starts` and its `draw` serve every window operation: the
codebook's count-image check and window counts, the codeword sampler, the
probe stream, the decoders and the ensemble encoder. Each window holds one
symbol: count i maps to i ones followed by zeros, so the per-window packet
count identifies the symbol exactly. The decoder's probe stream puts a
packet at every window start, and transmissions add a closing probe at slot
n; with a primed queue the observed per-interval counts equal the
encoder-plus-background counts, noiselessly in the two-user case and through
shifted-binomial noise in the three-user case. Decoders read the columns of
`cqclab.fcfs.observe`.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .capacity3 import CapacityResult3, _channel, i_tilde, solve_capacity_3user
from .dist import Pmf
from .fcfs import (
    BACKGROUND,
    DECODER,
    ENCODER,
    ArrivalSchedule,
    ProbeObservations,
    UnbufferedIntervalError,
    _bernoulli,
    _probe_intervals,
    _queue,
)

# two-user operating point: window mix and within-window symbol laws
ALPHA_2USER = 0.177
P1_2USER = (0.57, 0.43)
P2_2USER = (0.43, 0.325, 0.245)


class CollisionExhaustionError(RuntimeError):
    """Could not sample the requested number of distinct codewords."""


class DecodeMatchError(LookupError):
    """Observed counts match no codeword: codebook/trace inconsistency."""


def admissible_alpha_slots(n: int, alpha: float, tau_star: int) -> int:
    """Nearest first-segment length to alpha*n that splits both segments into
    whole windows: alpha_slots divisible by tau_star and the remainder by
    tau_star + 1. Ties prefer the smaller value."""
    if tau_star < 1:
        raise ValueError("tau_star must be >= 1")
    target = alpha * n
    candidates = [a for a in range(n + 1) if a % tau_star == 0 and (n - a) % (tau_star + 1) == 0]
    if not candidates:
        raise ValueError(
            f"no admissible segment split for n={n}, tau_star={tau_star}"
        )
    return min(candidates, key=lambda a: (abs(a - target), a))


@dataclass(frozen=True, eq=False)
class ProbeTemplate:
    """The coding scheme, and the shape of the decoder schedule that puts a
    packet at every window start.

    `windows` holds one (k, count, law) entry per window length k, in
    ascending k: `count` windows of k slots, each carrying a symbol drawn
    from the law on {0..k}. A length may have no windows; it still counts
    as a length of the scheme. Windows are laid out in that order, so
    `widths` (the window lengths in slot order) and `starts` (their first
    slots) are sorted; both are read-only, and n is their total length.
    """

    windows: tuple[tuple[int, int, Pmf], ...]
    n: int = field(init=False)
    widths: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        windows = tuple((k, count, law) for k, count, law in self.windows)
        ks = [k for k, _, _ in windows]
        if any(a >= b for a, b in zip([0] + ks, ks)):
            raise ValueError("window lengths must be >= 1 and strictly ascending")
        if any(count < 0 for _, count, _ in windows):
            raise ValueError("window counts must be >= 0")
        if any(law.k != k for k, _, law in windows):
            raise ValueError("the symbol law of k-slot windows must lie on {0..k}")
        widths = np.repeat(np.array(ks, dtype=np.int64), [count for _, count, _ in windows])
        if not widths.size:
            raise ValueError("the scheme has no windows")
        starts = np.cumsum(widths) - widths
        for arr in (widths, starts):
            arr.flags.writeable = False
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "n", int(widths.sum()))
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "starts", starts)

    @staticmethod
    def for_codebook(cb: "Codebook") -> "ProbeTemplate":
        return cb.template

    def image(self, counts: np.ndarray) -> np.ndarray:
        """Bits of window counts over the layout: each window's count in
        ones, then zeros. Leading axes of `counts` are kept."""
        offsets = np.arange(self.n) - np.repeat(self.starts, self.widths)
        return (offsets < np.repeat(counts, self.widths, axis=-1)).astype(np.int8)

    def draw(self, rng: np.random.Generator, lead: tuple[int, ...] = ()) -> np.ndarray:
        """Window counts drawn from the symbol laws, one length at a time in
        ascending order; `lead` prepends axes of independent draws."""
        counts = np.empty(lead + self.widths.shape, dtype=np.int64)
        stop = 0
        for k, count, law in self.windows:
            start, stop = stop, stop + count
            counts[..., start:stop] = rng.choice(k + 1, size=lead + (count,), p=law.probs)
        return counts


@dataclass(frozen=True, eq=False)
class Codebook:
    """Message-indexed binary packet streams of one coding scheme."""

    template: ProbeTemplate
    codewords: np.ndarray  # (M, n) of 0/1
    seed: int
    window_counts: np.ndarray = field(init=False, repr=False)  # (M, windows)

    def __post_init__(self):
        cw = np.asarray(self.codewords, dtype=np.int8)
        if cw.ndim != 2 or cw.shape[1] != self.n:
            raise ValueError("codewords must be (M, n)")
        if len({row.tobytes() for row in cw}) != cw.shape[0]:
            raise ValueError("codewords must be distinct")
        counts = np.add.reduceat(cw, self.template.starts, axis=1, dtype=np.int64)
        if not np.array_equal(self.template.image(counts), cw):
            raise ValueError("every window must be a count-image (ones then zeros)")
        for arr in (cw, counts):
            arr.flags.writeable = False
        object.__setattr__(self, "codewords", cw)
        object.__setattr__(self, "window_counts", counts)

    @property
    def n(self) -> int:
        return self.template.n

    @property
    def tau_star(self) -> int:
        """The shortest window length of the scheme."""
        return self.template.windows[0][0]

    @property
    def M(self) -> int:
        return self.codewords.shape[0]

    @property
    def rate_bits_per_slot(self) -> float:
        return math.log2(self.M) / self.n

    def window_lengths(self) -> list[int]:
        return self.template.widths.tolist()

    def window_counts_of(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits)
        if bits.shape != (self.n,):
            raise ValueError(f"expected {self.n} bits, got shape {bits.shape}")
        return np.add.reduceat(bits, self.template.starts, dtype=np.int64)


def symbol_image(count: int, width: int) -> np.ndarray:
    """Binary image of a window symbol: `count` ones then zeros."""
    if not 0 <= count <= width:
        raise ValueError("count must lie in [0, width]")
    return (np.arange(width) < count).astype(np.int8)


def _random_codebook(template: ProbeTemplate, M: int, seed: int) -> Codebook:
    """M distinct codewords with window counts drawn from the scheme's
    symbol laws; collisions are resampled."""
    rng = np.random.default_rng(seed)
    seen: set[bytes] = set()
    rows: list[np.ndarray] = []
    attempts = 0
    limit = 100 * M
    batch = max(M, 256)
    while len(rows) < M:
        if attempts >= limit:
            raise CollisionExhaustionError(
                f"could not draw {M} distinct codewords in {limit} attempts"
            )
        take = min(batch, limit - attempts)
        attempts += take
        for row in template.image(template.draw(rng, (take,))):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                rows.append(row)
                if len(rows) == M:
                    break
    return Codebook(template=template, codewords=np.stack(rows), seed=seed)


def _adjacent_scheme(n: int, alpha: float, tau: int, p1: Pmf, p2: Pmf) -> ProbeTemplate:
    """Windows of tau slots with law p1 through the first
    `admissible_alpha_slots(n, alpha, tau)` slots, then windows of tau + 1
    slots with law p2. Both lengths stay in the scheme, with or without
    windows."""
    a = admissible_alpha_slots(n, alpha, tau)
    return ProbeTemplate(((tau, a // tau, p1), (tau + 1, (n - a) // (tau + 1), p2)))


def build_codebook_2user(n: int, M: int, delta: float = 1e-3, seed: int = 0) -> Codebook:
    """Random codebook for the noiseless two-user scheme.

    The window mix targets alpha = 0.177 - delta; first-segment bits are
    i.i.d. with P(1) = 0.43 and second-segment ternary symbols follow
    (0.43, 0.325, 0.245), mapped to 00/10/11. Collisions are resampled.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    p1, p2 = Pmf(np.array(P1_2USER)), Pmf(np.array(P2_2USER))
    return _random_codebook(_adjacent_scheme(n, ALPHA_2USER - delta, 1, p1, p2), M, seed)


def _scheme_3user(
    n: int, r_p: float, tau_max: int, delta: float, capacity: CapacityResult3 | None
) -> ProbeTemplate:
    """The three-user scheme at r_p: windows of tau_star and tau_star + 1
    slots with their symbol laws.

    The capacity solve (or the given result, which must be solved at r_p)
    supplies tau_star, the window mix alpha, pulled back by delta onto an
    admissible split, and the maximizing inputs at gamma1 and gamma2.
    """
    cap = capacity if capacity is not None else solve_capacity_3user(r_p, tau_max)
    if cap.r_p != r_p:
        raise ValueError(f"capacity result was solved at r_p={cap.r_p}, not r_p={r_p}")
    tau = cap.tau_star
    p1 = i_tilde(cap.gamma1, tau, r_p).maximizing_input
    p2 = i_tilde(cap.gamma2, tau + 1, r_p).maximizing_input
    return _adjacent_scheme(n, max(cap.alpha - delta, 0.0), tau, p1, p2)


def build_codebook_3user(
    n: int,
    M: int,
    r_p: float,
    tau_max: int = 8,
    delta: float = 1e-3,
    seed: int = 0,
    capacity: CapacityResult3 | None = None,
) -> Codebook:
    """Random codebook for the noisy three-user scheme.

    The capacity solve for r_p supplies the optimal window mix
    (alpha, tau_star) and the two maximizing symbol laws; window symbols map
    to i ones followed by zeros. Pass a precomputed capacity result, solved
    at the same r_p, to skip the solve.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    return _random_codebook(_scheme_3user(n, r_p, tau_max, delta, capacity), M, seed)


def probe_stream(template: ProbeTemplate) -> ArrivalSchedule:
    """Deterministic probe schedule over slots 0..n-1.

    Packets sit at window starts, so each window length k of the scheme
    spaces its packets k slots apart (all ones for k = 1). The closing
    boundary at slot n falls outside the template; transmission runs append
    that probe explicitly.
    """
    slots = np.zeros(template.n, dtype=np.int8)
    slots[template.starts] = 1
    return ArrivalSchedule(DECODER, slots)


def _check_intervals(tau: np.ndarray, buffered: np.ndarray, template: ProbeTemplate):
    """Reject observed intervals, one row or a (messages, windows) block,
    that ran unbuffered or do not fall on the template's windows."""
    if not buffered.all():
        raise UnbufferedIntervalError("an interval ran unbuffered; counts unreliable")
    if tau.shape[-1] != template.widths.size or (tau != template.widths).any():
        raise DecodeMatchError(
            f"probe spacings do not match the codebook windows "
            f"({tau.shape[-1]} intervals, {template.widths.size} windows)"
        )


def _decode_rows_2user(y: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Exact-match decoding of a (messages, windows) block of counts: the
    first codeword whose window counts equal each row."""
    hits = (codebook.window_counts == y[:, None, :]).all(axis=2)
    if not hits.any(axis=1).all():
        raise DecodeMatchError("observed counts match no codeword")
    return hits.argmax(axis=1)


def decode_2user(observations: ProbeObservations, codebook: Codebook) -> int:
    """Exact-match decoding for the noiseless two-user channel.

    Window counts identify symbols uniquely, so the count sequence is looked
    up against the codebook; a miss means the trace and codebook disagree.
    """
    _check_intervals(observations.tau, observations.buffered, codebook.template)
    return int(_decode_rows_2user(observations.y[None], codebook)[0])


@functools.lru_cache(maxsize=64)
def _log_channel_table(width: int, r_p: float) -> np.ndarray:
    """Read-only log P(Y = y | X = x) of the width-slot channel, -1e30 where
    impossible; built once per (width, r_p) from the rows that
    `cqclab.capacity3` caches for the same channel."""
    rows, _ = _channel(width, r_p)
    table = np.where(rows > 0, np.log(np.maximum(rows, 1e-300)), -1e30)
    table.flags.writeable = False
    return table


_GATHER = 1 << 15  # float64 log-likelihood terms per decode gather (256 KB)


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


def decode_3user(observations: ProbeObservations, codebook: Codebook, r_p: float) -> int:
    """Maximum-likelihood decoding through the shifted-binomial channel.

    Scores every message by the float sum over windows of
    log P(Y = y | X = count) with X + Bin(tau, r_p) noise. Equal float scores
    go to the lowest message index, but an exact likelihood tie (the same
    window terms in other positions) can differ in the last bit of its
    sums and then goes to whichever sum rounds higher; integer-lattice
    scores would make ties exact (ROADMAP.md, "Exact maximum-likelihood
    decoding on the integer lattice").
    """
    _check_intervals(observations.tau, observations.buffered, codebook.template)
    return int(_decode_rows_3user(observations.y[None], codebook, r_p)[0])


_MAX_RATE = 1.0 + 1e-12  # bits per slot, with slack for the rounding of log2


@dataclass(frozen=True)
class TransmissionReport:
    messages_sent: int
    errors: int
    empirical_error_rate: float
    empirical_rate_bits_per_slot: float
    seed: int

    def __post_init__(self):
        if self.empirical_rate_bits_per_slot > _MAX_RATE:
            raise ValueError("empirical rate cannot exceed 1 bit per slot")


_CHUNK = 32  # messages queued, observed and decoded together


def _backlog(template: ProbeTemplate, initial_backlog: int | None) -> int:
    """The transmission backlog: by default n plus the longest window length
    of the scheme, which keeps every interval buffered; at least that
    length."""
    longest = template.windows[-1][0]
    backlog = initial_backlog if initial_backlog is not None else template.n + longest
    if backlog < longest:
        raise ValueError(f"initial_backlog must be >= {longest}")
    return backlog


def _message_chunks(template: ProbeTemplate, draw, background_rate, seed, trials):
    """Messages sent one after another on one random stream: each message
    draws `draw(rng) -> (message, bits)` and then, unless the rate is None,
    its Bernoulli background traffic over the n + 1 slots. Yields
    (messages, issues) per chunk of up to _CHUNK messages; `issues` is the
    (message x slot x user) tensor of the probe stream plus a closing probe
    at slot n, the bits and the background, in the users' priority order."""
    probes = np.append(probe_stream(template).slots, np.int8(1))
    users = 2 if background_rate is None else 3
    rng = np.random.default_rng(seed)
    for first in range(0, trials, _CHUNK):
        issues = np.zeros((min(_CHUNK, trials - first), probes.size, users), dtype=np.int8)
        issues[:, :, 0] = probes
        messages = []
        for row in issues:
            msg, bits = draw(rng)
            messages.append(msg)
            row[:-1, 1] = bits
            if background_rate is not None:
                _bernoulli(background_rate, rng, row[:, 2])
        yield messages, issues


def _schedules(issues: np.ndarray) -> list[ArrivalSchedule]:
    """The decoder, encoder and (if any) background schedules of one message
    of a `_message_chunks` issue tensor."""
    users = (DECODER, ENCODER, BACKGROUND)[: issues.shape[1]]
    return [ArrivalSchedule(user, issues[:, j]) for j, user in enumerate(users)]


def _codebook_chunks(codebook: Codebook, background_rate, seed, trials):
    """`_message_chunks` of uniformly drawn messages of the codebook."""

    def draw(rng):
        msg = int(rng.integers(codebook.M))
        return msg, codebook.codewords[msg]

    return _message_chunks(codebook.template, draw, background_rate, seed, trials)


def _observed(chunks, template: ProbeTemplate, initial_backlog: int | None):
    """Each chunk of `_message_chunks` queued behind the backlog in one pass
    of the FCFS kernel: yields (messages, y) with y the (messages, windows)
    block of observed counts. An unbuffered interval raises."""
    backlog = _backlog(template, initial_backlog)
    probes = np.append(template.starts, template.n)
    for messages, issues in chunks:
        tau, y, buffered = _probe_intervals(_queue(issues, backlog), probes)
        _check_intervals(tau, buffered, template)
        yield messages, y


def run_transmission(
    codebook: Codebook,
    background_rate: float | None = None,
    trials: int = 1000,
    seed: int = 0,
    initial_backlog: int | None = None,
) -> TransmissionReport:
    """End-to-end Monte Carlo: encode, queue, observe, decode, compare.

    Each trial draws a uniform message and then its optional Bernoulli
    background traffic, one message after another on one random stream.
    Chunks of messages then run together through one pass of the per-slot
    FCFS queue kernel, with the codebook's probe stream plus the closing
    boundary probe, and are decoded as one block from the probe
    observations: exact matching without background, maximum likelihood
    with it. Every result equals that of sending the messages one at a time
    through `simulate`, `observe` and `decode_2user` / `decode_3user`. The
    default backlog, n plus the longest window length (n + tau_star + 1 for
    the builders' schemes), keeps every interval buffered
    regardless of the codeword; an unbuffered interval raises instead of
    degrading silently.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    errors = 0
    chunks = _codebook_chunks(codebook, background_rate, seed, trials)
    for messages, y in _observed(chunks, codebook.template, initial_backlog):
        if background_rate is None:
            decoded = _decode_rows_2user(y, codebook)
        else:
            decoded = _decode_rows_3user(y, codebook, background_rate)
        errors += int((decoded != messages).sum())
    return TransmissionReport(
        messages_sent=trials,
        errors=errors,
        empirical_error_rate=errors / trials,
        empirical_rate_bits_per_slot=codebook.rate_bits_per_slot,
        seed=seed,
    )


# --- random-coding ensemble error measurement ------------------------------
#
# At rates near capacity the codebook sizes 2^(R n) are far beyond anything
# that can be materialized, but the ensemble-average error probability of
# ML decoding is still exactly computable per trial: only the true codeword
# and the channel are sampled, and the score distribution of one random
# competitor codeword factorizes over windows. A width-w window with d
# background packets scores log C(w, d) + d * beta (beta the log odds of
# r_p), a point of an integer lattice: the exponents of the primes up to
# the widest window, then d.


def _lattice_tables(widths: list[int], r_p: float):
    """Per window width w, an int table whose row d holds the prime exponents
    of C(w, d), then d; with the prime logs and beta. If the exact odds
    r_p / (1 - r_p) factor over the primes (r_p = 1/2 or 1/4, say), d is
    folded into the exponents and beta is None: equal scores share a cell."""
    primes = [p for p in range(2, max(widths) + 1) if all(p % q for q in range(2, p))]

    def exponents(num: int, den: int = 1) -> np.ndarray | None:  # of num / den; None: no factoring
        out = np.zeros(len(primes), dtype=int)
        for i, p in enumerate(primes):
            while num % p == 0:
                num, out[i] = num // p, out[i] + 1
            while den % p == 0:
                den, out[i] = den // p, out[i] - 1
        return out if num == den == 1 else None

    fold, beta = None, 0.0
    if 0 < r_p < 1:
        a, b = float(r_p).as_integer_ratio()  # r_p = a / b exactly
        fold = exponents(a, b - a)
        beta = math.log(r_p) - math.log1p(-r_p) if fold is None else None

    def table(w):
        d = np.arange(w + 1)
        exps = np.array([exponents(math.comb(w, k)) for k in range(w + 1)])
        return np.column_stack((exps, d)) if fold is None else exps + np.outer(d, fold)

    return {w: table(w) for w in set(widths)}, [math.log(p) for p in primes], beta


def _move_classes(tables, laws: dict[int, np.ndarray]) -> dict:
    """The competitor moves of a window, which depend only on its width w
    and observed count y: per (w, y), the lattice rows of the competitor
    symbols x that can show y, in x order, their probabilities under
    `laws`, and the rows' min and max. Counts no symbol of positive
    probability can show have no entry."""
    classes = {}
    for w, table in tables.items():
        for y in range(2 * w + 1):
            x = np.arange(max(y - w, 0), min(y, w) + 1)
            x = x[laws[w][x] > 0]
            if x.size:
                rows = table[y - x]
                classes[w, y] = (rows, laws[w][x].tolist(), rows.min(axis=0), rows.max(axis=0))
    return classes


def _competitor_probs(lattice, classes: dict, widths, ys, xs) -> tuple[float, float]:
    """(q_gt, q_eq): the probabilities that one competitor drawn from the
    `_move_classes` laws scores strictly above, or exactly at, the true
    window counts `xs` given the observed `ys`, by exact convolution on one
    flat mixed-radix tensor.

    The windows are convolved in order, each by one shifted add per move in
    x order, so every cell sums the same products in the same order as a
    window-by-window convolution over the whole tensor. The moves' offsets
    are nonnegative, so the mass stays in a prefix that grows by the
    window's largest offset; only that prefix is added, between two
    reused buffers. A window's first move lands on cells that are still
    0.0, and 0.0 + p * t is p * t exactly for these nonnegative products,
    so it is written rather than added."""
    tables, logs, beta = lattice
    d = ys - xs
    if ((d < 0) | (d > widths)).any():
        raise ValueError("true codeword scored an impossible window")
    keys = list(zip(widths.tolist(), ys.tolist()))
    counts = Counter(keys)
    origin = sum(n * classes[key][2] for key, n in counts.items())
    shape = sum(n * classes[key][3] for key, n in counts.items()) - origin + 1
    strides = np.array([math.prod(shape[i + 1 :]) for i in range(shape.size)], dtype=int)
    moves = {}  # per class: the first move, the later moves and the largest offset
    for key in counts:
        rows, probs, low, _ = classes[key]
        offs = ((rows - low) @ strides).tolist()
        moves[key] = (offs[0], probs[0], list(zip(offs[1:], probs[1:])), max(offs))
    size = math.prod(shape)
    tensor, new, scratch = np.zeros(size), np.zeros(size), np.empty(size)
    tensor[0] = 1.0
    hi = 1  # every cell from hi on is 0.0
    for key in keys:
        first, p_first, rest, top = moves[key]
        src, prod = tensor[:hi], scratch[:hi]
        if first:
            new[:first] = 0.0
        if top > first:
            new[first + hi : hi + top] = 0.0
        np.multiply(p_first, src, out=new[first : first + hi])
        for off, p in rest:
            np.multiply(p, src, out=prod)
            new[off : off + hi] += prod
        tensor, new, hi = new, tensor, hi + top
    true = sum(tables[w][d[widths == w]].sum(axis=0) for w in set(widths.tolist()))
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


def _prob_correct(q_lt: float, q_eq: float, M: float) -> float:
    """P(uniformly placed true message survives M-1 i.i.d. competitors)
    under argmax decoding with lowest-index tie-breaking."""
    if M <= 1:
        return 1.0
    q_lt = min(max(q_lt, 0.0), 1.0)
    q_eq = min(max(q_eq, 0.0), 1.0 - q_lt)
    v = q_lt + q_eq  # P(competitor does not strictly beat)
    if v == 0.0:
        return 0.0
    if q_eq <= 1e-18:
        out = math.exp((M - 1) * math.log(v))
    elif q_lt == 0.0:
        out = math.exp((M - 1) * math.log(q_eq)) / M
    else:
        # (v^M - q_lt^M) / (M * q_eq), evaluated stably in the log domain
        lv = M * math.log(v)
        lr = M * (math.log(q_lt) - math.log(v))  # log((q_lt/v)^M) <= 0
        out = math.exp(lv) * (-math.expm1(lr)) / (M * q_eq)
    return min(max(out, 0.0), 1.0)


def ensemble_error_rate(
    n: int,
    M: int | float,
    r_p: float,
    trials: int,
    seed: int,
    tau_max: int = 8,
    delta: float = 1e-3,
    capacity: CapacityResult3 | None = None,
) -> TransmissionReport:
    """Random-coding ensemble error rate of the three-user scheme.

    Every trial samples a true codeword from the scheme's symbol laws and
    its Bernoulli(r_p) background traffic, runs through the FCFS scheduler
    in chunks of trials, as `run_transmission` does, and computes the exact
    probability that ML decoding over a codebook of M - 1 further i.i.d.
    codewords fails, via the lattice distribution of a competitor's score.
    Monte Carlo averages over the true codeword and the channel only, so M
    may be astronomically large; it must be at least 1 and a finite float
    (ValueError otherwise, also for an int beyond the float range), and its
    rate log2(M) / n at most 1 bit per slot, checked before any trial.

    Competitors are i.i.d. with replacement, so a copy of the true codeword
    is a tie, while the builders draw distinct codewords: at n = 30, M = 16
    this gives 0.020 / 0.16 against 0.013 / 0.080 for explicit codebooks at
    r_p = 0.3 / 0.5, and a negligible gap at 0.1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    try:
        m_float = float(M)
    except OverflowError:  # an int beyond the float range
        m_float = math.inf
    if not 1 <= m_float < math.inf:
        raise ValueError(f"M must be finite and >= 1, got {M!r}")
    template = _scheme_3user(n, r_p, tau_max, delta, capacity)
    rate = math.log2(M) / n
    if rate > _MAX_RATE:
        raise ValueError(f"rate log2(M) / n = {rate} exceeds 1 bit per slot (n={n})")
    lattice = _lattice_tables(template.widths.tolist(), r_p)
    classes = _move_classes(lattice[0], {k: law.probs for k, _, law in template.windows})

    def draw(rng):
        xs = template.draw(rng)
        return xs, template.image(xs)

    err_prob_sum = 0.0
    chunks = _message_chunks(template, draw, r_p, seed, trials)
    for true_counts, y in _observed(chunks, template, None):
        for xs, ys in zip(true_counts, y):
            q_gt, q_eq = _competitor_probs(lattice, classes, template.widths, ys, xs)
            q_lt = max(1.0 - q_gt - q_eq, 0.0)
            err_prob_sum += 1.0 - _prob_correct(q_lt, q_eq, m_float)

    return TransmissionReport(
        messages_sent=trials,
        errors=round(err_prob_sum),
        empirical_error_rate=err_prob_sum / trials,
        empirical_rate_bits_per_slot=rate,
        seed=seed,
    )


# --- codebook text round-trip ----------------------------------------------

def dump_codebook(cb: Codebook) -> str:
    """Line-oriented text form: a header line then one bitstring per row.
    The header ends with one k:count:law token per window length."""
    windows = " ".join(
        f"{k}:{count}:{','.join(repr(float(v)) for v in law.probs)}"
        for k, count, law in cb.template.windows
    )
    header = f"M={cb.M} seed={cb.seed} windows={windows}"
    rows = ["".join(str(int(b)) for b in row) for row in cb.codewords]
    return "\n".join([header] + rows) + "\n"


def _window_entry(token: str) -> tuple[int, int, Pmf]:
    k, count, law = token.split(":")
    return int(k), int(count), Pmf(np.array([float(v) for v in law.split(",")]))


def load_codebook(text: str) -> Codebook:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("codebook text is empty")
    head, found, windows = lines[0].partition("windows=")
    fields = dict(item.split("=", 1) for item in head.split())
    missing = {"M", "seed"} - fields.keys() | (set() if found else {"windows"})
    if missing:
        raise ValueError(f"codebook header lacks {sorted(missing)}")
    template = ProbeTemplate(tuple(_window_entry(token) for token in windows.split()))
    M = int(fields["M"])
    cw = np.array(
        [[int(c) for c in line.strip()] for line in lines[1 : 1 + M]], dtype=np.int8
    )
    if cw.shape != (M, template.n):
        raise ValueError("codebook body does not match its header")
    return Codebook(template=template, codewords=cw, seed=int(fields["seed"]))

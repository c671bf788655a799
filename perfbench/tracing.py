"""Spans at the cqclab module boundaries, and the per-layer metrics derived
from them.

The benchmark does not edit the package. `install` replaces every public
function of every loaded `cqclab` module, and the `ArrivalSchedule`
constructor, with a wrapper that records one span per call. The wrapper is
bound in every `cqclab` namespace that held the original, so a call from
`cli` into `capacity3`, or from `coding` into `fcfs`, is seen at the
boundary. Spans stay in memory; the worker writes them out at the end.

A span is (id, parent, trace, name, start_ns, end_ns, attrs). The name is
`<module>.<function>`; spans the benchmark opens itself are named `bench.*`.
Spans opened with `new_trace=True` (one message, one CLI call, one solve)
start a trace id that their descendants share.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import math
import sys
import time
from typing import Callable, NamedTuple

LAYERS = ("dist", "capacity2", "capacity3", "fcfs", "coding", "cli")
SHORT_TRACE_SLOTS = 1000  # message traces are 61-241 slots, long traces 10^6
CLI_COMMANDS = ("htilde", "capacity2", "capacity3", "simulate", "stability", "validate")
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # a tail percentile needs this many samples above it


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, int]] = []  # (span id, trace id)
        self._ids = itertools.count()

    def _enter(self, new_trace: bool) -> tuple:
        sid = next(self._ids)
        parent, trace = self._stack[-1] if self._stack else (None, sid)
        if new_trace:
            trace = sid
        self._stack.append((sid, trace))
        return sid, parent, trace

    def _exit(self, token: tuple, name: str, start: int, attrs) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((*token, name, start, end, attrs))

    @contextlib.contextmanager
    def span(self, name: str, new_trace: bool = False):
        token = self._enter(new_trace)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(token, name, start, None)


def _subcommand(argv) -> str | None:
    return next((t for t in argv if t in CLI_COMMANDS), None)


# span attributes read from call arguments: {span: {attr: (parameter, reader)}}
ATTRS = {
    "dist.h_tilde_grid": {"k": ("k", int)},
    "capacity3.solve_capacity_3user": {"r_p": ("r_p", float)},
    "capacity3.i_tilde_curve": {"k": ("k", int), "r_p": ("r_p", float), "points": ("gammas", len)},
    "fcfs.ArrivalSchedule": {"slots": ("slots", len)},
    "fcfs.simulate": {"slots": ("decoder", len)},
    "fcfs.observe": {"slots": ("trace", lambda t: t.horizon)},
    "coding.ensemble_error_rate": {"n": ("n", int), "trials": ("trials", int)},
    "cli.main": {"cmd": ("argv", _subcommand)},
}


def _attr_reader(fn, spec: dict | None):
    """Build (args, kwargs) -> attrs for `fn`; attributes whose parameter the
    function no longer has, or whose reader fails, are left out."""
    if not spec:
        return None
    params = inspect.signature(fn).parameters
    names = list(params)
    fields = []
    for attr, (param, read) in spec.items():
        if param in params:
            fields.append((attr, param, names.index(param), params[param].default, read))

    def read_attrs(args, kwargs):
        out = {}
        for attr, param, idx, default, read in fields:
            value = args[idx] if idx < len(args) else kwargs.get(param, default)
            try:
                out[attr] = read(value)
            except (TypeError, ValueError, AttributeError):
                pass
        return out

    return read_attrs


def _traced(tracer: Tracer, name: str, fn, read_attrs):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = read_attrs(args, kwargs) if read_attrs else None
        token = tracer._enter(False)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer._exit(token, name, start, attrs)

    return wrapper


def install(tracer: Tracer, package) -> None:
    """Wrap the public functions of every loaded submodule of `package`."""
    prefix = package.__name__ + "."
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]
    namespaces = [package, *modules]
    for mod in modules:
        layer = mod.__name__[len(prefix):]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapper = _traced(tracer, name, fn, _attr_reader(fn, ATTRS.get(name)))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapper)
    schedule = getattr(getattr(package, "fcfs", None), "ArrivalSchedule", None)
    if schedule is not None:
        init = schedule.__init__
        reader = _attr_reader(init, ATTRS["fcfs.ArrivalSchedule"])
        schedule.__init__ = _traced(tracer, "fcfs.ArrivalSchedule", init, reader)


# --- per-layer metrics ------------------------------------------------------


class Timing(NamedTuple):
    """A per-call timing: p50 over the spans named `span` that pass `where`,
    in `unit`, optionally per trial or per million slots."""

    name: str
    unit: str
    span: str
    where: Callable[[dict], bool] | None = None
    per: str | None = None  # "trials" or "mslot"
    tail: bool = False  # also report a tail percentile (many samples per run)


def _short(a):
    return a.get("slots", math.inf) <= SHORT_TRACE_SLOTS


def _long(a):
    return a.get("slots", 0) > SHORT_TRACE_SLOTS


TIMINGS = (
    Timing("dist.h_tilde_us", "us", "dist.h_tilde", tail=True),
    Timing("dist.solve_tilt_us", "us", "dist.solve_tilt", tail=True),
    Timing("dist.h_tilde_grid_ms", "ms", "dist.h_tilde_grid", lambda a: a.get("k") == 2),
    Timing("dist.binomial_pmf_us", "us", "dist.binomial_pmf", tail=True),
    Timing("capacity2.solve_capacity_2user_s", "s", "capacity2.solve_capacity_2user"),
    *(
        Timing("capacity3.solve_capacity_3user_s.rp" + str(rp).replace(".", "_"), "s",
               "capacity3.solve_capacity_3user", lambda a, rp=rp: a.get("r_p") == rp)
        for rp in (0.0, 0.1, 0.3)
    ),
    *(
        Timing(f"capacity3.i_tilde_curve_s.k{k}", "s", "capacity3.i_tilde_curve",
               lambda a, k=k: a.get("k") == k and a.get("r_p") == 0.1)
        for k in (2, 5)
    ),
    Timing("capacity3.h_check_ms", "ms", "capacity3.h_check", tail=True),
    Timing("capacity3.validate_i_concavity_s", "s", "capacity3.validate_i_concavity"),
    Timing("capacity3.channel_matrix_us", "us", "capacity3.channel_matrix", tail=True),
    Timing("fcfs.arrival_schedule_us.short", "us", "fcfs.ArrivalSchedule", _short, tail=True),
    Timing("fcfs.simulate_us.short", "us", "fcfs.simulate", _short, tail=True),
    Timing("fcfs.observe_us.short", "us", "fcfs.observe", _short, tail=True),
    Timing("fcfs.simulate_ms_per_mslot.long", "ms/Mslot", "fcfs.simulate", _long, per="mslot"),
    Timing("fcfs.observe_ms_per_mslot.long", "ms/Mslot", "fcfs.observe", _long, per="mslot"),
    Timing("fcfs.stability_probe_s", "s", "fcfs.stability_probe"),
    Timing("fcfs.empirical_channel_law_s", "s", "fcfs.empirical_channel_law"),
    Timing("coding.decode_2user_us", "us", "coding.decode_2user", tail=True),
    Timing("coding.decode_3user_us", "us", "coding.decode_3user", tail=True),
    *(
        Timing(f"coding.ensemble_trial_ms.n{n}", "ms", "coding.ensemble_error_rate",
               lambda a, n=n: a.get("n") == n, per="trials")
        for n in (60, 120, 240)
    ),
    Timing("coding.build_codebook_2user_ms", "ms", "coding.build_codebook_2user"),
    Timing("coding.build_codebook_3user_ms", "ms", "coding.build_codebook_3user"),
    *(
        Timing(f"cli.main_s.{cmd}", "s", "cli.main", lambda a, cmd=cmd: a.get("cmd") == cmd)
        for cmd in ("capacity2", "capacity3", "validate")
    ),
)

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ms/Mslot": 1e3}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric `layer_metrics` emits."""
    specs = []
    for t in TIMINGS:
        specs.append((t.name, t.unit, "lower"))
        if t.tail:
            specs.append((t.name + ".tail", t.unit, "lower"))
        specs.append((t.name + ".n", "count", "higher"))
    for layer in LAYERS:
        specs.append((f"{layer}.calls", "count", "lower"))
        specs.append((f"{layer}.busy_s", "s", "lower"))
    specs.append(("trace.spans", "count", "lower"))
    return specs


def percentile(ordered: list[float], level: float) -> float:
    """Nearest-rank percentile of sorted samples; 0 when there are none."""
    if not ordered:
        return 0.0
    return ordered[max(math.ceil(len(ordered) * level / 100.0), 1) - 1]


def tail(ordered: list[float]) -> tuple[float, float]:
    """(level, value) of the highest percentile in TAIL_LEVELS with at least
    TAIL_BEYOND samples above it; (100, max) when there are too few."""
    n = len(ordered)
    for level in TAIL_LEVELS:
        if n - math.ceil(n * level / 100.0) >= TAIL_BEYOND:
            return level, percentile(ordered, level)
    return 100.0, percentile(ordered, 100.0)


def _phase_of(spans) -> Callable[[int], str | None]:
    """Map a span id to the name of its outermost ancestor (its phase)."""
    parent = {s[0]: s[1] for s in spans}
    name = {s[0]: s[3] for s in spans}

    def phase(sid: int) -> str | None:
        while parent.get(sid) is not None:
            sid = parent[sid]
        return name.get(sid)

    return phase


def layer_metrics(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metric values and the tail level used for each `.tail`.

    Timings pool every phase (set-up, round and probes). Module calls and
    busy time (self time: a span's duration less that of its child spans)
    count the timed round only.
    """
    by_name: dict[str, list[tuple]] = {}
    child_ns: dict[int, int] = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)
        if s[1] is not None:
            child_ns[s[1]] = child_ns.get(s[1], 0) + (s[5] - s[4])
    values: dict[str, float] = {}
    levels: dict[str, float] = {}
    for t in TIMINGS:
        samples = []
        for s in by_name.get(t.span, ()):
            attrs = s[6] or {}
            if t.where is not None and not t.where(attrs):
                continue
            seconds = (s[5] - s[4]) * 1e-9
            if t.per == "trials":
                seconds /= max(attrs.get("trials", 1), 1)
            elif t.per == "mslot":
                seconds /= attrs.get("slots", 1e6) / 1e6
            samples.append(seconds * _SCALE[t.unit])
        samples.sort()
        values[t.name] = percentile(samples, 50.0)
        if t.tail:
            levels[t.name + ".tail"], values[t.name + ".tail"] = tail(samples)
        values[t.name + ".n"] = len(samples)
    phase = _phase_of(spans)
    for layer in LAYERS:
        values[f"{layer}.calls"] = 0
        values[f"{layer}.busy_s"] = 0.0
    for s in spans:
        layer = s[3].split(".", 1)[0]
        if layer not in LAYERS or phase(s[0]) != "bench.round":
            continue
        values[f"{layer}.calls"] += 1
        values[f"{layer}.busy_s"] += (s[5] - s[4] - child_ns.get(s[0], 0)) * 1e-9
    values["trace.spans"] = len(spans)
    return values, levels

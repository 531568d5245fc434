"""The per-event estimator, kept as the oracle of the column estimator.

It replays each chunk of departures as the event stream the simulator used
to hand an observer one event at a time: with hour ticks on, each departure
at b schedules an expiry event at b + HOUR, and at equal times an expiry
comes first; expiries among themselves leave a heap in (time, patch, bus)
order.  The state it keeps is updated per event, H_j as a count, and a
query is a tree of closures evaluated once per sample, fed to an
accumulator one sample at a time, which keeps every sample and cuts its
batches from sums over all of them (full_recompute).  None of it shares
code with the column path except the parser, the verdict rule and the t
quantile: the oracle checks accumulation and evaluation, and its estimate
must equal the library's bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _time
from typing import Callable, NamedTuple

from headwaylab.properties import (HOUR, MIN_SAMPLES, Binary, Call, EstimateResult,
                                   EstimatorConfig, EvalError, IfThenElse, Num, PropertyError,
                                   Rval, SteadyStateQuery, Unary, UndefinedSample, _state_names,
                                   _t975, _verdict, parse_state_name)
from headwaylab.simulate import Departures, SimModel, Simulator

from full_recompute import AllSamples


class Event(NamedTuple):
    t: float
    kind: str  # "dep" or "expiry"
    bus: int  # 1-based; 0 for expiry events
    patch: int  # 1-based
    lap: int = 0


class EventReplay:
    """The per-event state of a departure stream: c_j, the last departure
    per patch and per (patch, bus), and with hour ticks H_j, kept as a count
    that a departure raises unless the bus's previous departure from j is
    still inside the hour, and that an expiry lowers only if it belongs to
    the bus's latest departure from j."""

    def __init__(self, n: int, beta: int, hour_ticks: bool):
        self.n, self.beta, self.hour_ticks = n, beta, hour_ticks
        self.t = 0.0
        self.dep_count = [0] * (n + 1)
        self.last_dep = [None] * (n + 1)
        self.last_dep_bus = [[None] * beta for _ in range(n + 1)]
        self.hour_count = [0.0] * (n + 1)
        self.expiries: list[tuple[float, int, int]] = []  # (b + HOUR, patch, bus index)

    def events(self, deps: Departures, end: float):
        """Yield the events of one chunk, each before its state change is
        applied: the departures and the expiries due at or before `end`."""
        for t, bus, patch, lap in zip(deps.t.tolist(), deps.bus.tolist(), deps.patch.tolist(),
                                      deps.lap.tolist()):
            yield from self._expire(t)
            yield Event(t, "dep", bus, patch, lap)
            self.t = t
            self.dep_count[patch] += 1
            self.last_dep[patch] = t
            bases, i = self.last_dep_bus[patch], bus - 1
            if self.hour_ticks:
                if bases[i] is None or bases[i] + HOUR <= t:
                    self.hour_count[patch] += 1.0
                heapq.heappush(self.expiries, (t + HOUR, patch, i))
            bases[i] = t
        yield from self._expire(end)

    def _expire(self, until: float):
        while self.expiries and self.expiries[0][0] <= until:
            x, j, i = self.expiries[0]
            yield Event(x, "expiry", 0, j)
            heapq.heappop(self.expiries)
            self.t = x
            if self.last_dep_bus[j][i] + HOUR == x:
                self.hour_count[j] -= 1.0

    def reader(self, name: str) -> Callable[[float], float]:
        """A function of the time t that reads the live state: y_j and
        z_i_j are infinite before the departure they measure from, and H_j
        is the count after the last processed event, whatever t."""
        kind, j, bus = parse_state_name(name, self.n, self.beta)
        if kind == "time":
            return lambda t: t
        if kind == "y":
            return lambda t: math.inf if self.last_dep[j] is None else t - self.last_dep[j]
        if kind == "z":
            bases = self.last_dep_bus[j]
            return lambda t: math.inf if bases[bus - 1] is None else t - bases[bus - 1]
        if kind == "H":
            if not self.hour_ticks:
                raise PropertyError(f"{name!r} is kept only with hour ticks on")
            return lambda t: self.hour_count[j]
        if kind == "c":
            return lambda t: float(self.dep_count[j])
        raise PropertyError(f"{name!r} is a constant")


def compile_scalar(expr, read: Callable[[str], Callable[[float], float]],
                   constants: dict[str, float] | None = None,
                   functions: dict[str, object] | None = None) -> Callable[[float], float]:
    """The expression as a tree of closures over the time t: strict, left
    operand first, only the taken branch of an if-then-else.  An infinite
    read raises UndefinedSample; a zero divisor raises EvalError."""
    constants = constants or {}
    functions = functions or {}

    def comp(e):
        if isinstance(e, Num) or (isinstance(e, Rval) and e.name in constants):
            c = e.value if isinstance(e, Num) else constants[e.name]
            return lambda t: c
        if isinstance(e, Rval):
            get, name = read(e.name), e.name

            def rval(t):
                v = get(t)
                if math.isinf(v):
                    raise UndefinedSample(name)
                return v
            return rval
        if isinstance(e, Call):
            return comp(functions[e.name])
        if isinstance(e, Unary):
            f = comp(e.operand)
            return lambda t: -f(t)
        if isinstance(e, IfThenElse):
            cond, then, other = comp(e.cond), comp(e.then), comp(e.other)
            return lambda t: then(t) if cond(t) != 0.0 else other(t)
        if not isinstance(e, Binary):
            raise EvalError(f"cannot evaluate node {e!r}")
        a, b = comp(e.left), comp(e.right)
        if e.op == "/":
            def div(t):
                x = a(t)
                y = b(t)
                if y == 0:
                    raise EvalError("division by zero")
                return x / y
            return div
        op = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y,
              "<": lambda x, y: 1.0 if x < y else 0.0, ">": lambda x, y: 1.0 if x > y else 0.0,
              "<=": lambda x, y: 1.0 if x <= y else 0.0,
              ">=": lambda x, y: 1.0 if x >= y else 0.0,
              "==": lambda x, y: 1.0 if x == y else 0.0}[e.op]
        return lambda t: op(a(t), b(t))

    return comp(expr)


class PerSampleAccumulator(AllSamples):
    """An accumulator fed one sample at a time, as the estimator fed it
    before samples came in chunks.  Its stride doubles each time `limit`
    spans would be stored, and it cuts its batches from sums over every
    sample it was fed, thinned at that stride."""

    def __init__(self, limit: int = 1 << 20):
        super().__init__()
        self.limit = limit
        self.stride = 1
        self.nonzero_f = False

    @property
    def n(self) -> int:
        return len(self.w)

    def add(self, w: float, f: float):
        if w <= 0.0:
            return
        self.w.append(w)
        self.f.append(f)
        self.nonzero_f = self.nonzero_f or f != 0.0
        if -(-self.n // self.stride) >= self.limit:  # the spans at this stride
            self.stride *= 2

    def batch_means(self, k: int):
        return None if self.n < k else self.cut(k, self.stride)


def estimate_per_event(model: SimModel, query: SteadyStateQuery, functions: dict[str, object],
                       cfg: EstimatorConfig | None = None, seed: int | None = None,
                       replication: int = 0) -> EstimateResult:
    """The estimator as it ran on one event at a time, with the stopping
    rule of estimate_steady_state."""
    cfg = cfg or EstimatorConfig()
    expr = functions[query.function]
    clock = query.clock
    n, beta = model.n, model.cfg.n_buses
    clock_kind, clock_patch, _ = parse_state_name(clock, n, beta)
    if clock_kind not in ("time", "c"):
        raise PropertyError(f"bad clock {clock!r}")
    states = [parse_state_name(name, n, beta) for name in _state_names(expr, functions)]
    patches = {j for _, j, _ in states if j} | ({clock_patch} if clock_patch else set())
    sim = Simulator(model, seed=seed, replication=replication)
    replay = EventReplay(n, beta, hour_ticks=any(kind == "H" for kind, _, _ in states))
    f = compile_scalar(expr, replay.reader, {"mu_tot": model.mu_tot}, functions)
    warmup = cfg.warmup_time if cfg.warmup_time is not None else 10.0 * model.r
    chunk = cfg.chunk_time if cfg.chunk_time is not None else 20.0 * model.r
    acc = PerSampleAccumulator()
    last = max(0.0, warmup)
    skipped = 0

    def observer(ev: Event):
        nonlocal last, skipped
        t = ev.t
        if t <= warmup:
            return
        if clock == "time":
            # the state x_{i-1} holds over (t_{i-1}, t_i]: weight t_i - t_{i-1}
            w = t - last
            if w > 0:
                try:
                    acc.add(w, f(last))
                except UndefinedSample:
                    skipped += 1
            last = t
        elif ev.patch == clock_patch and ev.kind == "dep":
            try:
                acc.add(1.0, f(t))
            except UndefinedSample:
                skipped += 1

    tcrit = _t975(cfg.batches - 1)
    deadline = _time.monotonic() + cfg.wall_budget
    truncated = False
    estimate, halfwidth, rel = None, math.inf, math.inf
    used_batches, total_clock = 0, 0.0
    cap = math.inf if cfg.max_sim_time is None else cfg.max_sim_time
    for chunks in itertools.count(1):
        end = min(chunks * chunk, cap)
        for ev in replay.events(sim.run(until_time=end), end):
            observer(ev)
        bm = acc.batch_means(cfg.batches)
        if bm is not None:
            means, total_clock = bm
            used_batches = len(means)
            dev = means - means[0]
            estimate = float(means[0] + dev.mean())
            halfwidth = tcrit * float(dev.std(ddof=1)) / math.sqrt(used_batches)
            rel = halfwidth / abs(estimate) if estimate != 0.0 else (
                0.0 if halfwidth == 0.0 else math.inf)
            if acc.nonzero_f and acc.n >= MIN_SAMPLES and rel <= cfg.rel_halfwidth_target:
                break
        if end >= cap:
            break
        if _time.monotonic() > deadline:
            truncated = True
            break
    event_observed = acc.nonzero_f and acc.n > 0
    return EstimateResult(estimate, halfwidth, rel, used_batches, total_clock, replay.t,
                          _verdict(estimate, halfwidth, query.threshold, event_observed),
                          event_observed, skipped, truncated, query,
                          patches.pop() if len(patches) == 1 else None)


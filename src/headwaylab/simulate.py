"""Discrete-event simulation of buses cycling through patches.

Each bus sojourns in its current patch for a phase-type time (Erlang or
hyper-Erlang) and then departs into the next patch, wrapping at the loop end.
Three control mechanisms can modify departures:

* implicit timetable: at the two terminus patches a bus leaves at its
  scheduled slot r*d_i + r*(i-1)/beta + c_j, where d_i counts completed
  loops and c_j is the cumulative-mean anchor of the patch.  The scheduled
  slot replaces the fitted terminus sojourn: the empirical dwell at a
  terminus is exactly the wait for the next scheduled departure, so drawing
  both would double-count it and make the schedule unkeepable; a late bus
  departs immediately on arrival.
* bus holding: no departure from patch j until the time since the previous
  departure from j reaches theta_h.
* speed modification: when a bus leads its follower (the nearest bus behind
  it) by more than a fraction theta_s of the route, its subsequently drawn
  phase rates are scaled by the slowdown factor (phase-level simulation).

The simulator is phased exactly when speed modification is on: it then
draws each exponential phase of a sojourn in turn, so a phase drawn after
the gap to the follower widens runs slowed.  Otherwise each patch sojourn is
one Gamma draw, the sum of its phases, equal in distribution.

All per-patch metrics are keyed on departures from the patch: c_j counts
departures from j, z_ij is the time since bus i last departed j, y_j the time
since the last departure from j by any bus, and H_j the number of buses that
departed j within the trailing hour.  A departure at b counts in H_j while
t < b + HOUR; with hour ticks on, an expiry event fires at b + HOUR, so H_j
changes only at events.

One next-event selection and one event step serve both ways of driving the
simulator: `advance()` processes and returns one event, and `run()` repeats
the step until a stop condition, handing each event to an observer before
the state update.  `run(until_time=T)` processes every event at or before T
and none after it, so it leaves the clock at the last event, at most T; the
phases and holds it settles past T draw what the next run would, so a run
cut into pieces gives the same events as one run.
"""

from __future__ import annotations

import heapq
import math
import re
import time as _time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .artifacts import write_lines
from .fitting import Distribution, ErlangParams, PatchModel

HOUR = 3600.0

# y_j, H_j, c_j (one index) and z_i_j (two)
_STATE_NAME = re.compile(r"([yzHc])_([0-9]+)(?:_([0-9]+))?")


class SimError(ValueError):
    pass


@dataclass
class SimConfig:
    n_buses: int
    timetable: bool = True
    route_duration: float | None = None  # r; defaults to the sum of patch means
    terminus_patches: tuple[int, int] | None = None  # 1-based patch indices
    holding_threshold: float | None = None  # theta_h seconds
    speedmod_threshold: float | None = None  # theta_s, fraction of the route
    slowdown: float = 0.9
    init: str = "uniform"  # or "terminus"
    seed: int = 0
    breakpoints: tuple[float, ...] | None = None  # patch spans; default equal

    def __post_init__(self):
        if self.n_buses < 1:
            raise SimError("need at least one bus")
        if self.holding_threshold is not None and self.holding_threshold < 0:
            raise SimError("holding threshold must be >= 0")
        if not (0 < self.slowdown <= 1):
            raise SimError("slowdown factor must be in (0, 1]")
        if self.speedmod_threshold is not None and not (0 < self.speedmod_threshold < 1):
            raise SimError("speed threshold must be in (0, 1)")
        if self.init not in ("uniform", "terminus"):
            raise SimError("init must be 'uniform' or 'terminus'")


@dataclass
class SimModel:
    dists: list[Distribution]
    means: list[float]
    cfg: SimConfig
    r: float
    mu_tot: float
    anchors: list[float]  # c_j, 1-based at index j-1
    offsets: list[float]  # per-bus slot offsets r*(i-1)/beta
    termini: tuple[int, ...]
    spans: list[tuple[float, float]]  # route-fraction span per patch
    phased: bool

    @property
    def n(self) -> int:
        return len(self.dists)


def build_model(pm: PatchModel, cfg: SimConfig) -> SimModel:
    """Freeze timetable constants and initial-placement geometry into a model."""
    n = pm.n
    if cfg.breakpoints is not None:
        bp = list(cfg.breakpoints)
        if len(bp) != n + 1 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise SimError("breakpoints must run from 0.0 to 1.0 with one span per patch")
        spans = list(zip(bp[:-1], bp[1:]))
    else:
        spans = [(j / n, (j + 1) / n) for j in range(n)]
    r = cfg.route_duration if cfg.route_duration is not None else pm.total()
    if r <= 0:
        raise SimError("route duration must be positive")
    beta = cfg.n_buses
    anchors = pm.cumulative_means()
    termini: tuple[int, ...] = ()
    if cfg.timetable:
        if cfg.terminus_patches is None:
            raise SimError("timetable requires terminus patch indices")
        termini = tuple(sorted(cfg.terminus_patches))
        if any(not (1 <= t <= n) for t in termini):
            raise SimError("terminus patch index out of range")
    offsets = [r * i / beta for i in range(beta)]
    return SimModel(list(pm.dists), list(pm.means), cfg, r, r / beta,
                    anchors, offsets, termini, spans, cfg.speedmod_threshold is not None)


@dataclass
class Event:
    t: float
    kind: str  # "dep" or "expiry"
    bus: int  # 1-based; 0 for expiry events
    patch: int  # 1-based
    lap: int = 0


class Simulator:
    """Single-threaded simulator instance; replications with distinct
    (seed, replication) pairs use independent generator streams."""

    def __init__(self, model: SimModel, seed: int | None = None, replication: int = 0,
                 hour_ticks: bool = False):
        self.model = model
        cfg = model.cfg
        self.rng = np.random.default_rng([seed if seed is not None else cfg.seed, replication])
        self.n = model.n
        self.beta = cfg.n_buses
        self.t = 0.0
        self.events_processed = 0
        self.hour_ticks = hour_ticks
        self.slow_draws = 0

        self.patch = [1] * self.beta
        self.lap = [0] * self.beta
        self.pending = [0.0] * self.beta
        self.phases_left = [0] * self.beta
        self.phase_rate = [0.0] * self.beta
        self.progress_base = [0.0] * self.beta  # completed fraction inside current patch
        self.progress_per_phase = [0.0] * self.beta
        # route fraction of each bus for the speed factor: _route_progress,
        # rewritten in phased runs wherever patch or progress_base changes
        self.pos = [0.0] * self.beta

        self.dep_count = [0] * (self.n + 1)  # c_j, index by patch
        self.last_dep = [None] * (self.n + 1)  # y_j base
        self.last_dep_bus = [[None] * self.beta for _ in range(self.n + 1)]  # z_ij base
        self._expiries: list[tuple[float, int, int]] = []  # (t+3600, patch, bus)

        self._init_buses()

    # -- initialisation ----------------------------------------------------

    def _lap_timeline(self) -> tuple[list[tuple[float, float]], float]:
        """Scheduled (entry, departure) per patch for one lap, bus-relative.

        With the timetable on, terminus departures sit at their anchors and the
        lap closes after exactly r; without it, patches follow their means."""
        m = self.model
        entries = []
        t = 0.0
        for j in range(1, self.n + 1):
            entry = t
            if m.cfg.timetable and j in m.termini:
                dep = m.anchors[j - 1] if j > 1 else 0.0
                dep = max(dep, entry)
            else:
                dep = entry + m.means[j - 1]
            entries.append((entry, dep))
            t = dep
        lap_len = m.r if m.cfg.timetable else t
        return entries, max(lap_len, t)

    def _uniform_place(self, i: int, timeline: list[tuple[float, float]],
                       lap_len: float) -> tuple[int, float, int]:
        """(patch, progress, slot lap) of bus i under uniform init: where a
        schedule-adherent bus departing patch 1 at -offsets[i] would be at t = 0."""
        phi = (lap_len - self.model.offsets[i]) % lap_len if lap_len > 0 else 0.0
        for j, (entry, dep) in enumerate(timeline, 1):
            if entry <= phi < dep:
                span = dep - entry
                prog = 0.0 if span <= 0 else (phi - entry) / span
                return j, prog, -1 if phi > 0 else 0
        return 1, 0.0, 0  # phi lands in the closing dwell of patch 1

    def _init_buses(self):
        if self.model.cfg.init == "terminus":
            places = [(1, 0.0, 0)] * self.beta
        else:
            timeline, lap_len = self._lap_timeline()
            places = [self._uniform_place(i, timeline, lap_len) for i in range(self.beta)]
        # place the whole fleet before the first draws: a bus's speed factor
        # reads the gap to the bus behind it
        for i, (j, prog, _) in enumerate(places):
            self.patch[i], self.progress_base[i] = j, prog
            self.pos[i] = self._route_progress(i)
        for i, (j, prog, slot_lap) in enumerate(places):
            self.lap[i] = 0 if j == 1 else slot_lap
            self._enter_patch(i, j, 0.0, progress=prog, init_slot_lap=slot_lap)

    # -- sojourn draws -------------------------------------------------------

    def _route_progress(self, i: int) -> float:
        lo, hi = self.model.spans[self.patch[i] - 1]
        return lo + (hi - lo) * min(self.progress_base[i], 1.0)

    def _speed_factor(self, i: int) -> float:
        if self.beta < 2:
            return 1.0
        pos = self.pos
        p = pos[i]
        gap = min([(p - q) % 1.0 for q in pos[:i] + pos[i + 1:]])
        if gap > self.model.cfg.speedmod_threshold:
            self.slow_draws += 1
            return self.model.cfg.slowdown
        return 1.0

    def _pick_branch(self, dist: Distribution) -> tuple[int, float]:
        if isinstance(dist, ErlangParams):
            return dist.k, dist.rate
        u = self.rng.random()
        acc = 0.0
        for k, r, a in zip(dist.shapes, dist.rates, dist.weights):
            acc += a
            if u <= acc:
                return k, r
        return dist.shapes[-1], dist.rates[-1]

    def _enter_patch(self, i: int, j: int, now: float,
                     progress: float = 0.0, init_slot_lap: int | None = None):
        m = self.model
        self.patch[i] = j
        self.progress_base[i] = progress
        if m.phased:
            self.pos[i] = self._route_progress(i)
        if m.cfg.timetable and j in m.termini:
            lap = init_slot_lap if init_slot_lap is not None else self.lap[i]
            slot = m.r * lap + m.offsets[i] + m.anchors[j - 1]
            self.pending[i] = max(now, slot)
            self.phases_left[i] = 0
            self.progress_per_phase[i] = 0.0
            return
        k, rate = self._pick_branch(m.dists[j - 1])
        k_left = max(1, k - int(progress * k))
        if m.phased:
            self.phases_left[i] = k_left
            self.phase_rate[i] = rate
            self.progress_per_phase[i] = 1.0 / k
            factor = self._speed_factor(i)
            self.pending[i] = now + self.rng.exponential(1.0 / (rate * factor))
        else:
            self.phases_left[i] = 1
            self.progress_per_phase[i] = 1.0 - progress
            self.pending[i] = now + float(self.rng.gamma(k_left, 1.0 / rate))

    # -- metrics view ---------------------------------------------------------

    def reader(self, name: str) -> Callable[[float], float]:
        """Resolve a state name once into a function of the time t that reads
        this simulator's live state: time, mu_tot, y_j, z_i_j, H_j or c_j,
        with j in 1..n and i in 1..beta.  y_j and z_i_j read infinity until
        the departure they measure from has happened.  An unknown or
        out-of-range name raises SimError here, not when it is read."""
        if name == "time":
            return lambda t: t
        if name == "mu_tot":
            mu_tot = self.model.mu_tot
            return lambda t: mu_tot
        m = _STATE_NAME.fullmatch(name)
        if m is None:
            raise SimError(f"unknown state quantity {name!r}")
        kind, first, second = m.groups()
        bus, j = (int(first), int(second)) if second else (1, int(first))
        if (kind == "z") != bool(second) or not (1 <= j <= self.n and 1 <= bus <= self.beta):
            raise SimError(f"unknown state quantity {name!r}")
        if kind == "y":
            last_dep = self.last_dep

            def y(t: float) -> float:
                base = last_dep[j]
                return math.inf if base is None else t - base
            return y
        if kind == "z":
            bases, i = self.last_dep_bus[j], bus - 1

            def z(t: float) -> float:
                base = bases[i]
                return math.inf if base is None else t - base
            return z
        if kind == "H":
            bases = self.last_dep_bus[j]

            def h(t: float) -> float:
                count = 0
                for b in bases:
                    if b is not None and t < b + HOUR:
                        count += 1
                return float(count)
            return h
        dep_count = self.dep_count
        return lambda t: float(dep_count[j])

    def rval(self, name: str, at: float | None = None) -> float:
        """The value of a state name at time `at` (default: now)."""
        return self.reader(name)(self.t if at is None else at)

    # -- event loop -------------------------------------------------------------

    def _next_event(self) -> Event:
        """The next event, not yet applied: settle the phase completions and
        holding gates that come before it, then return the earliest departure,
        or the earliest hour-window expiry when it is due no later.  Ties
        between buses go to the lowest index.  Settling draws no more than the
        event needs, so a second call returns the same event."""
        pending, expiries = self.pending, self._expiries
        theta_h = self.model.cfg.holding_threshold
        while True:
            t = min(pending)
            if expiries and expiries[0][0] <= t:
                t, j, _ = expiries[0]
                return Event(t, "expiry", 0, j)
            i = pending.index(t)
            if not math.isfinite(t):
                raise SimError("simulation stalled: no pending events")
            if self.phases_left[i] > 1:  # a phase completion is not an event: the clock stays
                self.phases_left[i] -= 1
                self.progress_base[i] += self.progress_per_phase[i]
                self.pos[i] = self._route_progress(i)
                factor = self._speed_factor(i)
                pending[i] = t + self.rng.exponential(1.0 / (self.phase_rate[i] * factor))
                continue
            j = self.patch[i]
            if theta_h is not None:
                base = self.last_dep[j]
                if base is not None and t < base + theta_h:
                    pending[i] = base + theta_h
                    continue
            return Event(t, "dep", i + 1, j, self.lap[i])

    def _step(self, ev: Event,
              observer: Callable[[float, Event, "Simulator"], None] | None) -> Event:
        """Apply the event _next_event returned.  The observer, if any, sees
        the state before the event's update."""
        if observer is not None:
            observer(self.t, ev, self)
        self.t = ev.t
        if ev.kind == "expiry":
            heapq.heappop(self._expiries)
        else:
            self._apply_departure(ev.bus - 1, ev.patch, ev.t)
        self.events_processed += 1
        return ev

    def advance(self) -> Event:
        """Process and return the next state-changing event."""
        return self._step(self._next_event(), None)

    def _apply_departure(self, bus: int, j: int, t: float):
        self.dep_count[j] += 1
        self.last_dep[j] = t
        self.last_dep_bus[j][bus] = t
        if self.hour_ticks:
            heapq.heappush(self._expiries, (t + HOUR, j, bus))
        nxt = j + 1 if j < self.n else 1
        if nxt == 1:
            self.lap[bus] += 1
        self._enter_patch(bus, nxt, t)

    def run(self, observer: Callable[[float, Event, "Simulator"], None] | None = None,
            until_time: float | None = None, wall_deadline: float | None = None) -> bool:
        """Drive events forward, invoking the observer with the pre-update state.

        With until_time T, every event at or before T is processed and none
        after it, so afterwards self.t <= T.  Returns False when stopped by
        the wall-clock deadline (truncated), else True.  The observer is
        called as observer(t_prev, event, sim) before the event's state
        change is applied (the simulator applies it right after), so rval()
        at event time reflects the state x_{i-1}."""
        stop = math.inf if until_time is None else until_time
        while True:
            ev = self._next_event()
            if ev.t > stop:
                return True
            if wall_deadline is not None and _time.monotonic() > wall_deadline:
                return False
            self._step(ev, observer)


def run_trajectory(model: SimModel, seed: int, stop: Callable[[Event, Simulator], bool],
                   max_events: int = 10_000_000) -> tuple[list[Event], bool]:
    """Chronological event stream until the stop predicate fires.  Returns
    (events, truncated) where truncated flags budget exhaustion."""
    sim = Simulator(model, seed=seed)
    events: list[Event] = []
    for _ in range(max_events):
        ev = sim.advance()
        events.append(ev)
        if stop(ev, sim):
            return events, False
    return events, True


def write_event_log(events: Iterable[Event], path: str) -> None:
    write_lines(path, [("t", "bus", "kind", "patch", "lap"),
                       *((f"{ev.t:.3f}", ev.bus, ev.kind, ev.patch, ev.lap) for ev in events)], "\t")

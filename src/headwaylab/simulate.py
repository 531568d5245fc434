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
  The fleet's route fractions, in [0, 1), are kept in an ascending ring; a
  bus that moves is taken out, and its follower is the largest fraction
  left at or below its new one, or the largest of all across the 1.0 -> 0.0
  wrap.  Float subtraction is monotone, so that one gap equals the minimum
  over the whole fleet bit for bit.  A bus alone has no follower and is
  never slowed.  A bus placed part-way into a patch can have one phase more
  than the patch has left; during it the bus stands at the patch's end, and
  the end of the last patch is 0.0, the same place as 1.0.

The simulator is phased exactly when speed modification is on: it then
draws each exponential phase of a sojourn in turn, so a phase drawn after
the gap to the follower widens runs slowed.  A phase completion is not a
departure: it moves the bus along its patch and in the ring, in place when
it passes no other bus, and draws its next phase.  Otherwise each patch
sojourn is one Gamma draw, the sum of its phases, equal in distribution.

Streams.  Every run draws each bus's values from a generator of its own,
default_rng([seed, replication, bus]) with bus = 1..beta, so the k-th draw
of a bus is the same whatever the other buses do and wherever a run is cut.
An aggregated run draws a bus's sojourns from its generator, and the branch
uniform of a hyper-Erlang patch with random(), just before the sojourn it
picks.  A phased run reads each bus's generator ahead, a block of _BLOCK
standard exponentials at a time: a phase of rate `rate` is the next value
times 1.0 / rate, bit for bit the scalar exponential(1.0 / rate), and the
branch pick at the entry into a hyper-Erlang patch takes the next value E
as the uniform u = 1 - exp(-E), computed as -expm1(-E).

The departures are the only events.  `run(until_time)` processes every
departure at or before until_time and none after it, and returns them as
numpy columns t, bus, patch and lap (`Departures`), in the order they
happened: by time, ties to the lowest bus, and a bus's own departures at
one time (a late bus leaves a terminus as it reaches it) in the order it
makes them.  `run(until_time, patches)` returns only the departures from
those patches, the same rows in the same order, and advances exactly as the
full run does: the same draws, pending, patch, lap, t and events_processed.
It takes one of two paths.

* Bus by bus, for an aggregated run of Erlang patches without holding: no
  rule then couples two buses (a timetable slot reads only the bus's own
  lap and offset), so each bus's departures follow from its own stream.
  A bus draws its coming departures in fixed blocks: a short head up to its
  next terminus entry, then _AHEAD_LAPS whole laps, their sojourns in one
  array `gamma` call, bit for bit the scalar calls in order.  The times
  follow with exactly the event loop's float operations, t += sojourn, or
  at a timetabled terminus t = max(t, slot), but a lap at a time: the laps
  are the rows of a matrix, and one cumulative sum per terminus, from its
  column up to the next terminus, speculates that every terminus departure
  is on its slot (an accumulation adds in sequence, so it equals the
  scalar sums).  Where a bus reaches a terminus after its slot, the scalar
  recursion redoes the times from there until the bus is back on a slot.
  A bus's departures from patch j are the stride-n slice of its times from
  its first departure from j, taken before the merge, and the buses are
  merged by (t, bus, departure number).  A bus reads its stream ahead, past
  until_time; the times it has drawn wait for the next run.
* The event loop, for every other run: one loop, with the simulator's
  lists bound once per simulator, takes the earliest pending item from a
  heap of (pending time, bus), ties to the lowest bus.  An item is a phase
  completion, a holding gate or a departure, and each rewrites its bus's
  pending time and heap entry.  A departure from a patch not asked for is
  processed but not recorded.  It consumes no draw past until_time (a
  phased run may have read past it, but the next run takes up those values
  where this one left off).

Neither path's read-ahead shows: a run cut into pieces gives the same
departures, and leaves the same pending, patch, lap, t and
events_processed, as one run, whatever the block sizes, and the bus-by-bus
path gives what the event loop gives on the same streams.  The patch entry,
with the timetable slot and the sojourn draw, is one function with the
generators bound once per simulator; construction places the buses through
it too, and draws their first phases through the event loop.

The simulator keeps only the state its own rules read, such as the last
departure from each patch for holding.  The per-patch quantities a query
reads (properties) are functions of the departure stream before a point in
time: c_j counts departures from j, z_i_j is the time since bus i last
departed j, y_j the time since the last departure from j by any bus, and H_j
the number of buses whose latest departure b from j lies within the trailing
hour, b + 3600 > t, so a bus that departs j twice within the hour counts
once.  No expiry is an event.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heapify, heapreplace
from typing import Callable, Iterable

import numpy as np

from .artifacts import write_lines
from .fitting import Distribution, ErlangParams, HyperErlangParams, PatchModel

# Phased runs read each bus's standard exponentials in blocks of _BLOCK
# values.  The block size changes no draw, only how far a bus reads its
# stream ahead.
_BLOCK = 256

# The bus-by-bus path draws each bus's departures in blocks of _AHEAD_LAPS
# whole laps (after a head up to the bus's next terminus entry), whatever
# the run's end: a run to a far end draws block after block, and a short
# run takes its departures from the block drawn before.  The block size
# changes no departure, only how far a bus reads its stream ahead.
_AHEAD_LAPS = 64


class SimError(ValueError):
    pass


def _branch(dist: HyperErlangParams, u: float) -> tuple[int, float]:
    """(k, rate) of the hyper-Erlang branch that the uniform u picks: the
    first whose cumulative weight reaches u, else the last."""
    acc = 0.0
    for k, r, a in zip(dist.shapes, dist.rates, dist.weights):
        acc += a
        if u <= acc:
            return k, r
    return dist.shapes[-1], dist.rates[-1]


def _ring_move(ring: list[float], old: float, new: float) -> float:
    """Move one bus from route fraction `old` to `new` in `ring`, the fleet's
    fractions in ascending order, and return the gap back to its follower:
    min((new - q) % 1.0) over the other buses' fractions q, or 0.0 for a bus
    alone.  The follower is the largest q <= new, else (index -1) the largest
    q of all, across the 1.0 -> 0.0 wrap."""
    del ring[bisect_left(ring, old)]
    k = bisect_right(ring, new)
    gap = (new - ring[k - 1]) % 1.0 if ring else 0.0
    ring.insert(k, new)
    return gap


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
        # a NaN r would drop every timetable slot and a NaN theta_h every
        # holding, each without a word
        if self.route_duration is not None and not (math.isfinite(self.route_duration)
                                                    and self.route_duration > 0):
            raise SimError(f"route duration must be finite and > 0, got {self.route_duration}")
        if self.holding_threshold is not None and not (math.isfinite(self.holding_threshold)
                                                       and self.holding_threshold >= 0):
            raise SimError(f"holding threshold must be finite and >= 0, got {self.holding_threshold}")
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
        if any(lo >= hi for lo, hi in zip(bp, bp[1:])):
            raise SimError(f"breakpoints must increase, got {tuple(bp)}")
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


@dataclass(frozen=True)
class Departures:
    """The departures of one run, in the order they happened: time t, bus
    (1-based), the patch departed (1-based) and the bus's lap counter."""

    t: np.ndarray  # float64
    bus: np.ndarray  # int64
    patch: np.ndarray  # int64
    lap: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.t)


class Simulator:
    """Single-threaded simulator instance.  Every run draws from one
    generator per bus (see Streams in the module docstring); replications
    with distinct (seed, replication) pairs are independent.  `run` takes
    the bus-by-bus path when `by_bus` is set (an aggregated run of Erlang
    patches without holding) and the event loop otherwise; both give the
    same departures on the same streams."""

    def __init__(self, model: SimModel, seed: int | None = None, replication: int = 0):
        self.model = model
        cfg = model.cfg
        self.n = model.n
        self.beta = cfg.n_buses
        seed = seed if seed is not None else cfg.seed
        # nothing outside the simulator may draw from these: the bus-by-bus
        # path and phased runs read them ahead.  Buses count from 1: a seed
        # sequence pads its entropy with zeros, so [seed, replication, 0]
        # would give the stream of [seed, replication]
        self.rngs = [np.random.default_rng([seed, replication, bus])
                     for bus in range(1, self.beta + 1)]
        self.by_bus = (not model.phased and cfg.holding_threshold is None
                       and all(isinstance(d, ErlangParams) for d in model.dists))
        self.t = 0.0
        self.events_processed = 0  # departures, over every run
        self.slow_draws = 0  # phases drawn slowed, over construction and every run

        self.patch = [1] * self.beta
        self.lap = [0] * self.beta
        self.pending = [0.0] * self.beta
        self.phases_left = [0] * self.beta
        self.progress_base = [0.0] * self.beta  # completed fraction inside current patch
        self.progress_per_phase = [0.0] * self.beta
        # a phase's duration per standard exponential, 1.0 / rate, and when
        # drawn slowed 1.0 / (rate * slowdown): set at each phased patch entry
        self.phase_scale = [0.0] * self.beta
        self.slowed_scale = [0.0] * self.beta
        # route fraction of each bus for the gap to its follower: _route_progress,
        # rewritten in phased runs wherever patch or progress_base changes;
        # ring holds the same fractions in ascending order
        self.pos = [0.0] * self.beta
        self.ring: list[float] = []

        self.last_dep = [None] * (self.n + 1)  # the holding base, by patch (event loop)

        self._enter, self._advance = self._event_loop()
        self._init_buses()
        # bus by bus: each bus's departure times from its pending one on,
        # drawn ahead of the runs that return them
        self.ahead = [np.array([t]) for t in self.pending] if self.by_bus else None
        self._draw_block = self._blocks() if self.by_bus else None

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
        self.ring[:] = sorted(self.pos)
        for i, (j, prog, slot_lap) in enumerate(places):
            self.lap[i] = 0 if j == 1 else slot_lap
            gap = self._enter(i, j, 0.0, prog, slot_lap)
            if gap is not None:  # the first phase, drawn as the event loop draws each
                self.slow_draws += self._advance([(0.0, i)], -math.inf, None, i, 0.0, gap)

    # -- sojourn draws -------------------------------------------------------

    def _route_progress(self, i: int) -> float:
        lo, hi = self.model.spans[self.patch[i] - 1]
        return (lo + (hi - lo) * min(self.progress_base[i], 1.0)) % 1.0

    def _event_loop(self) -> tuple[Callable[[int, int, float, float, int], float | None],
                                   Callable[..., int]]:
        """(enter, advance): the one patch entry and the one event loop,
        with the simulator's lists and generators bound once, not the
        simulator, so no reference cycle outlives the simulator's last use.

        enter(i, j, now, progress, slot_lap) puts bus i into patch j at
        `now`, `progress` of the way through it.  At a timetabled terminus
        the bus leaves at the later of now and its slot in lap `slot_lap`.
        Elsewhere an aggregated run draws the rest of the sojourn; a phased
        run sets the phases left and the bus's two phase time scales,
        1.0 / rate and 1.0 / (rate * slowdown), and returns the gap to the
        bus's follower, for advance to draw the first phase.  enter returns
        None when it has set the bus's pending time itself.

        advance(heap, until_time, record, i, t, gap) is the event loop.
        heap holds (pending[b], b) for every bus b, so its top is the
        earliest pending item, ties to the lowest bus.  The loop takes the
        top; once it lies past until_time, it returns the number of phases
        it drew slowed.  A phase completion moves the bus along its patch
        and in the ring, in place when it passes no other bus, and draws the
        next phase.  A holding gate moves the bus's pending time to it.  A
        departure is recorded, sets the holding base of its patch and enters
        the bus into the next patch.  Every item rewrites its bus's pending
        time and heap entry (heapreplace).  A phase is drawn slowed when the
        bus leads its follower by more than theta_s; its duration is the
        next value of the bus's block times one of the two scales.  With
        i >= 0 the loop first draws the phase of bus i, entered at t with
        `gap` ahead of its follower, whose entry is the heap's top: the
        construction draws each first phase with heap [(0.0, i)] and
        until_time -inf, which takes no item after it.

        The blocks of standard exponentials are held reversed, so a bus's
        next value is its list's last (see Streams); the branch uniform of a
        phased entry into a hyper-Erlang patch comes from the same block."""
        m, cfg = self.model, self.model.cfg
        n, last = self.n, self.beta - 1
        patch, lap, pending, last_dep = self.patch, self.lap, self.pending, self.last_dep
        phases_left, progress, per_phase = self.phases_left, self.progress_base, self.progress_per_phase
        scale, slowed = self.phase_scale, self.slowed_scale
        pos, ring = self.pos, self.ring
        span_lo = [lo for lo, _ in m.spans]
        span_w = [hi - lo for lo, hi in m.spans]
        termini, r, offsets, anchors, dists = m.termini, m.r, m.offsets, m.anchors, m.dists
        # (k, rate) of each Erlang patch; None where a branch is drawn first
        erlang = [(d.k, d.rate) if isinstance(d, ErlangParams) else None for d in dists]
        theta_h, theta_s, slowdown = cfg.holding_threshold, cfg.speedmod_threshold, cfg.slowdown
        phased = m.phased
        draws = [g.standard_exponential for g in self.rngs]
        blocks: list[list[float]] = [[] for _ in draws]
        gammas = [g.gamma for g in self.rngs]
        uniforms = [g.random for g in self.rngs]

        def refill(i: int) -> list[float]:
            blocks[i] = draws[i](_BLOCK)[::-1].tolist()
            return blocks[i]

        def enter(i: int, j: int, now: float, prog: float, slot_lap: int) -> float | None:
            patch[i] = j
            progress[i] = prog
            if phased:
                p = (span_lo[j - 1] + span_w[j - 1] * min(prog, 1.0)) % 1.0
                gap = _ring_move(ring, pos[i], p)
                pos[i] = p
            if j in termini:
                pending[i] = max(now, r * slot_lap + offsets[i] + anchors[j - 1])
                phases_left[i] = 0
                per_phase[i] = 0.0
                return None
            k, rate = erlang[j - 1] or _branch(
                dists[j - 1], -math.expm1(-(blocks[i] or refill(i)).pop()) if phased
                else uniforms[i]())
            k_left = max(1, k - int(prog * k + 4 * math.ulp(k))) if prog else k
            if phased:
                phases_left[i] = k_left
                per_phase[i] = 1.0 / k
                scale[i] = 1.0 / rate
                slowed[i] = 1.0 / (rate * slowdown)
                return gap
            phases_left[i] = 1
            per_phase[i] = 1.0 - prog
            pending[i] = now + gammas[i](k_left, 1.0 / rate)
            return None

        def advance(heap: list[tuple[float, int]], until_time: float,
                    record: Callable[[tuple], None] | None,
                    i: int = -1, t: float = 0.0, gap: float = 0.0) -> int:
            slow = 0
            while True:
                if i < 0:
                    t, i = heap[0]
                    if t > until_time:
                        return slow
                    left = phases_left[i]
                    if left > 1:  # a phase completion
                        phases_left[i] = left - 1
                        b = progress[i] + per_phase[i]
                        progress[i] = b
                        j = patch[i] - 1
                        p = span_lo[j] + span_w[j] * (b if b < 1.0 else 1.0)
                        # the entries before k lie below the bus's old fraction
                        # and the ones after it above p: it passes no other
                        # bus, and its follower is ring[k - 1], or with k = 0
                        # ring[-1] across the wrap (its own entry when alone)
                        k = bisect_left(ring, pos[i])
                        if (k == last or ring[k + 1] > p) and p < 1.0:
                            ring[k] = p
                            gap = (p - ring[k - 1]) % 1.0
                        else:  # a pass, or the end of the last patch: 0.0
                            p %= 1.0
                            gap = _ring_move(ring, pos[i], p)
                        pos[i] = p
                    else:
                        j = patch[i]
                        if theta_h is not None:
                            base = last_dep[j]
                            if base is not None and t < base + theta_h:
                                pending[i] = t = base + theta_h
                                heapreplace(heap, (t, i))
                                i = -1
                                continue
                        last_dep[j] = t
                        record((t, i, j, lap[i]))
                        if j == n:
                            j = 0
                            lap[i] += 1
                        gap = enter(i, j + 1, t, 0.0, lap[i])
                        if gap is None:
                            heapreplace(heap, (pending[i], i))
                            i = -1
                            continue
                if gap > theta_s:
                    slow += 1
                    t += (blocks[i] or refill(i)).pop() * slowed[i]
                else:
                    t += (blocks[i] or refill(i)).pop() * scale[i]
                pending[i] = t
                heapreplace(heap, (t, i))
                i = -1

        return enter, advance

    # -- event loop -------------------------------------------------------------

    def run(self, until_time: float, patches: Iterable[int] | None = None) -> Departures:
        """Process the departures at or before until_time, in time order
        (ties to the lowest bus index, a bus's own in the order it makes
        them), and return them, or with `patches` only those from the
        patches it names (1-based; empty returns none).  Either way the run
        advances the simulator alike: the same draws, pending, patch, lap,
        t and events_processed, since the filter only drops rows from the
        record.  Afterwards self.t <= until_time is the last departure
        processed, from any patch.  until_time must be finite: no run
        processes every departure there is.  A `by_bus` simulator takes the
        bus-by-bus path (_run_by_bus); every other one runs the event loop.

        The event loop (_event_loop) keeps a heap of (pending[i], i), built
        from pending at the start of each run, and takes the earliest item
        from it: a phase completion, a holding gate or a departure.  Once
        the earliest lies past until_time the run stops, so it consumes no
        draw past until_time; the phase values a phased run has read ahead
        wait in its blocks for the next run."""
        if not math.isfinite(until_time):
            raise SimError(f"a run must end at a finite time, got {until_time}")
        if patches is not None:
            patches = sorted(set(patches))
            if patches and not 1 <= patches[0] <= patches[-1] <= self.n:
                raise SimError(f"patches must lie in 1..{self.n}, got {patches}")
        if self.by_bus:
            return self._run_by_bus(until_time, patches)
        heap = [(t, i) for i, t in enumerate(self.pending)]
        heapify(heap)
        out: list[tuple[float, int, int, int]] = []
        if patches is None:
            record = out.append
        else:
            keep = [j in patches for j in range(self.n + 1)]

            def record(row: tuple[float, int, int, int]) -> None:
                if keep[row[2]]:
                    out.append(row)
        made = self._departures_made()
        slow = self._advance(heap, until_time, record)
        if not math.isfinite(heap[0][0]):
            raise SimError("simulation stalled: no pending events")
        self.slow_draws += slow
        if done := self._departures_made() - made:
            # the holding base of each patch is its last departure
            self.t = max(b for b in self.last_dep if b is not None)
            self.events_processed += done
        t, i, j, k = zip(*out) if out else ((), (), (), ())
        return Departures(np.array(t, dtype=float), np.array(i, dtype=np.int64) + 1,
                          np.array(j, dtype=np.int64), np.array(k, dtype=np.int64))

    def _departures_made(self) -> int:
        """The departures the fleet has made, up to a constant: each bus's
        departure number lap * n + patch - 1 steps by one at each of its
        departures."""
        return sum(self.lap) * self.n + sum(self.patch)

    # -- bus by bus ---------------------------------------------------------------

    def _blocks(self) -> Callable[[int, int, float], np.ndarray]:
        """The bus-by-bus path's block draw, with the per-model arrays built
        once and the layout of a block that starts in a given patch built
        on first use: draw(i, g, t) returns the times of bus i's departures g, g + 1,
        ..., through the end of its block, for a bus whose departure g - 1
        was at t.  Departure number g of a bus, counted over its laps, is
        from patch g % n + 1 in lap g // n.

        The block is a head, the departures up to the bus's next terminus
        entry, then _AHEAD_LAPS whole laps from that entry on, all of whose
        sojourns come from one gamma call.  Position k + 1 of the block's
        entry array holds the sojourn, or at a terminus the timetable slot
        r * lap + offset + anchor, of departure g + k; position 0 holds t.
        Without a timetable the times are one cumulative sum of it.  With
        one, the laps are the rows of a matrix and each segment, the columns
        from a terminus up to the next one, is one cumulative sum along the
        rows: the times if every terminus departure in it is on its slot.
        The head is walked (_walk), and from each terminus entry that the
        speculated times reach after its slot, the walk redoes the times
        until the bus is back on a slot, where the speculation holds again.
        Like the patch entry, it binds the generators, not the simulator."""
        m, n, laps = self.model, self.n, _AHEAD_LAPS
        r, offsets = m.r, m.offsets
        gammas = [g.gamma for g in self.rngs]
        terminus = np.array([j in m.termini for j in range(1, n + 1)])
        is_terminus = terminus.tolist()
        shape = np.array([d.k for d in m.dists])
        scale = np.array([1.0 / d.rate for d in m.dists])
        anchors = np.array(m.anchors)
        stops = np.flatnonzero(terminus)
        rounds = np.arange(laps)[:, None]
        plans: dict[int, tuple] = {}  # by the patch column of a block's first departure

        def plan(q: int) -> tuple:
            h = int(((stops - q) % n).min()) if len(stops) else 0
            cols = (q + h + np.arange(n)) % n  # one lap's patches, from the terminus entry on
            drawn = ~terminus[cols]
            tcols = np.flatnonzero(~drawn)
            sojourns = (q + np.arange(h + laps * n)) % n  # the patch of each entry of a block
            sojourns = sojourns[~terminus[sojourns]]
            plans[q] = (
                h, drawn, tcols, int(drawn.sum()),
                (q + h + tcols) // n + rounds, anchors[cols[tcols]],  # each slot's lap from g // n
                (h + 1 + n * rounds + tcols).ravel(),  # each slot's position
                list(zip(tcols.tolist(), [*tcols[1:].tolist(), n])),  # the segments
                shape[sojourns], scale[sojourns])
            return plans[q]

        def draw(i: int, g: int, t: float) -> np.ndarray:
            q = g % n
            h, drawn, tcols, per_lap, slot_laps, slot_anchors, at, segments, shapes, scales = (
                plans.get(q) or plan(q))
            s = gammas[i](shapes, scales)
            vals = np.empty(1 + h + laps * n)
            vals[0] = t
            vals[1:h + 1] = s[:h]
            grid = vals[h + 1:].reshape(laps, n)
            grid[:, drawn] = s[h:].reshape(laps, per_lap)
            if not len(tcols):
                return np.cumsum(vals)[1:]
            grid[:, tcols] = r * (g // n + slot_laps) + offsets[i] + slot_anchors
            # speculate: every terminus departure on its slot
            times = vals.copy()
            rows = times[h + 1:].reshape(laps, n)
            for a, b in segments:
                np.add.accumulate(rows[:, a:b], axis=1, out=rows[:, a:b])
            # walk the head, then redo the times from each late terminus entry
            redone = _walk(t, vals, is_terminus, g, 1)
            times[1:1 + len(redone)] = redone
            done = 1 + len(redone)  # the speculated times hold from here on
            for p in at[times[at - 1] > vals[at]].tolist():
                if p > done:
                    redone = _walk(times.item(p - 1), vals, is_terminus, g, p)
                    times[p:p + len(redone)] = redone
                    done = p + len(redone)
            return times[1:]
        return draw

    def _run_by_bus(self, until_time: float, patches: list[int] | None) -> Departures:
        """run's bus-by-bus path.  ahead[i] holds bus i's departure times
        from its pending one on.  While its last time is at or before
        until_time, the bus draws a block more (_blocks); a run to a far end
        collects its blocks and joins them once.  The times at or before
        until_time are the bus's departures in this run; the rest wait for
        the next run.  Of these, a bus's departures from patch j are the
        stride-n slice from its first departure number g with g % n = j - 1;
        for several patches a mask over the departure numbers picks them.
        Each bus's rows are taken in the order it makes them, the buses one
        after another, and a stable sort by t merges them: by (t, bus,
        departure number), so ties go to the lowest bus and a late bus's
        two departures at one time keep their order."""
        n, beta, termini = self.n, self.beta, self.model.termini
        pending, patch, lap, ahead = self.pending, self.patch, self.lap, self.ahead
        draw = self._draw_block
        keep = None  # by patch column, where one stride-n slice would not do
        if patches is not None and len(patches) != 1:
            keep = np.zeros(n, dtype=bool)
            keep[[j - 1 for j in patches]] = True
        parts, numbers, counts = [], [], [0] * beta
        done, last = 0, self.t
        for i, due in enumerate(ahead):
            g = lap[i] * n + patch[i] - 1  # the number of its pending departure, due[0]
            if (t := float(due[-1])) <= until_time:
                blocks, nxt = [due], g + len(due)
                while t <= until_time:
                    block = draw(i, nxt, t)
                    blocks.append(block)
                    nxt += len(block)
                    t = float(block[-1])
                due = np.concatenate(blocks)
            c = int(due.searchsorted(until_time, side="right"))
            ahead[i] = due[c:]
            if not c:
                continue
            done += c
            last = max(last, due.item(c - 1))
            if keep is not None:
                at = np.flatnonzero(keep[(g + np.arange(c)) % n])
                rows, nums = due[at], at + g
            else:  # every departure, or the stride-n slice of one patch
                k, step = (0, 1) if patches is None else ((patches[0] - 1 - g) % n, n)
                rows, nums = due[k:c:step], np.arange(g + k, g + c, step)
            parts.append(rows)
            numbers.append(nums)
            counts[i] = len(rows)
            lap[i], q = divmod(g + c, n)
            patch[i] = q + 1
            pending[i] = float(due[c])
            # the state the patch entry leaves
            at_terminus = q + 1 in termini
            self.progress_base[i] = 0.0
            self.phases_left[i] = 0 if at_terminus else 1
            self.progress_per_phase[i] = 0.0 if at_terminus else 1.0
        if not math.isfinite(min(pending)):
            raise SimError("simulation stalled: no pending events")
        if done:
            self.t = last
            self.events_processed += done
        if not parts:
            return Departures(np.empty(0), *(np.empty(0, dtype=np.int64) for _ in range(3)))
        t, g = np.concatenate(parts), np.concatenate(numbers)
        bus = np.repeat(np.arange(1, beta + 1), counts)
        order = np.argsort(t, kind="stable")
        t, bus, g = t[order], bus[order], g[order]
        return Departures(t, bus, g % n + 1, g // n)


def _walk(t: float, values: np.ndarray, terminus: list[bool], g: int, p: int) -> list[float]:
    """The scalar recursion of a bus's departure times over a block whose
    position k holds departure g + k - 1, from position p on, for a bus
    that reaches it at t: t += values[k], or where the departure is from a
    terminus (patch column (g + k - 1) % n) t = max(t, values[k]), its slot.
    Returns the times up to the first terminus the bus reaches at or before
    its slot, where it leaves on the slot, or to the block's end."""
    out = []
    n = len(terminus)
    for k in range(p, len(values)):
        v = values.item(k)
        if not terminus[(g + k - 1) % n]:
            t += v
        elif t <= v:
            break  # on its slot: max(t, v) is v
        out.append(t)  # a late bus leaves a terminus as it reaches it: max(t, v) is t
    return out


def write_event_log(deps: Departures, path: str) -> None:
    write_lines(path, [("t", "bus", "patch", "lap"),
                       *((f"{t:.3f}", bus, patch, lap) for t, bus, patch, lap
                         in zip(deps.t.tolist(), deps.bus.tolist(), deps.patch.tolist(),
                                deps.lap.tolist()))], "\t")

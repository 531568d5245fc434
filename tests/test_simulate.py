import dataclasses
import gc
import hashlib
import math
import weakref
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import as_departures, first_departures, rows
from headwaylab import simulate
from headwaylab.fitting import ErlangParams, HyperErlangParams, PatchModel
from headwaylab.properties import HOUR, PropertyError, _History, parse_state_name
from headwaylab.simulate import SimConfig, SimError, Simulator, _ring_move, build_model
from headwaylab.synthetic import airlink_model
from per_event import EventReplay


def events_until(model, seed: int, until_time: float) -> list[tuple]:
    """The departures Simulator.run processes up to until_time, as rows."""
    return rows(Simulator(model, seed=seed).run(until_time=until_time))


def recount_hours(table, points, n: int) -> list[list[float]]:
    """Reference H_j for j = 1..n at each point (at, upto): the number of
    distinct buses with a departure from j among the first `upto` rows of
    `table` whose expiry b + HOUR lies after `at`.  A ring per patch holds
    the departures still inside the hour; points must come with `at` and
    `upto` both non-decreasing."""
    rings = {j: [] for j in range(1, n + 1)}
    taken = 0
    out = []
    for at, upto in points:
        for t, bus, patch, _ in table[taken:upto]:
            rings[patch].append((t + HOUR, bus))
        taken = max(taken, upto)
        row = []
        for j, ring in rings.items():
            ring[:] = [(x, bus) for x, bus in ring if x > at]
            row.append(float(len({bus for _, bus in ring})))
        out.append(row)
    return out


def check_hour_counts(model, seed: int, ends) -> int:
    """Run `model` to each end in turn and read H_j of every patch from the
    columns at every point a clock samples: each boundary, in the state
    after it, and each departure, in the state before it.  Compare with
    recount_hours and return the number of points checked."""
    sim = Simulator(model, seed=seed)
    history = _History(model.n, model.cfg.n_buses, expiries=True)
    table, checked = [], 0
    for end in ends:
        deps = sim.run(until_time=end)
        chunk = history.next(deps, end)
        b = chunk.boundaries
        at = np.concatenate((b, deps.t))
        before = np.concatenate((np.searchsorted(deps.t, b, side="right"), np.arange(len(deps))))
        order = np.lexsort((before, at))
        at, before = at[order], before[order]
        read = chunk.reader(at, before)
        got = np.column_stack([read(f"H_{j}") for j in range(1, model.n + 1)])
        table += rows(deps)
        want = recount_hours(table, zip(at.tolist(), (before + len(table) - len(deps)).tolist()),
                             model.n)
        assert got.tolist() == want
        checked += len(at)
    return checked


class ReferenceStepper:
    """Reference for Simulator.run that shares none of its stepping code: it
    takes over a freshly built simulator's state and steps it one departure
    at a time.  It draws scalars from generators of its own, built from the
    same streams as the simulator's (which reads them ahead): one per bus,
    (seed, replication, bus).  A hyper-Erlang branch uniform is random() in
    aggregated runs and 1 - exp(-E) of the next standard_exponential() E in
    phased ones.  It replays the construction draws, each checked
    against the pending time it gave.  The next departure is selected with
    a key on (pending, bus), so ties go to the lowest bus index.  Every gap
    read recomputes each bus's route fraction from patch and progress_base
    and scans the fleet for the nearest bus behind.  `wraps` counts gap
    reads whose nearest bus behind sits across the 1.0 -> 0.0 wrap, ahead of
    the moving bus in route fraction."""

    def __init__(self, sim: Simulator, seed: int, replication: int = 0):
        self.sim = sim
        self.wraps = 0
        s, m = sim, sim.model
        self.rngs = [np.random.default_rng([seed, replication, bus])
                     for bus in range(1, s.beta + 1)]
        self.rate = [0.0] * s.beta  # the rate of each bus's phases (phased runs)
        slow_draws, s.slow_draws = s.slow_draws, 0
        for i, j in enumerate(s.patch):
            if j in m.termini:
                continue
            k, rate = self._branch(i, m.dists[j - 1])
            self.rate[i] = rate
            if m.phased:
                assert s.pending[i] == self.rngs[i].exponential(1.0 / self._rate(i, rate))
            else:
                prog = s.progress_base[i]
                k_left = max(1, k - int(prog * k + 4 * math.ulp(k))) if prog else k
                assert s.pending[i] == float(self.rngs[i].gamma(k_left, 1.0 / rate))
        assert s.slow_draws == slow_draws
        self.wraps = 0  # count the wraps of the run only

    def _branch(self, i: int, d) -> tuple[int, float]:
        if isinstance(d, ErlangParams):
            return d.k, d.rate
        g = self.rngs[i]
        u = -math.expm1(-g.standard_exponential()) if self.sim.model.phased else g.random()
        return next(((k, r) for k, r, c in zip(d.shapes, d.rates, accumulate(d.weights))
                     if u <= c), (d.shapes[-1], d.rates[-1]))

    def _position(self, b: int) -> float:
        s = self.sim
        lo, hi = s.model.spans[s.patch[b] - 1]
        return (lo + (hi - lo) * min(s.progress_base[b], 1.0)) % 1.0  # the route's end is 0.0

    def _rate(self, i: int, rate: float) -> float:
        s, cfg = self.sim, self.sim.model.cfg
        if s.beta < 2:
            return rate
        gap, behind = min(((self._position(i) - self._position(b)) % 1.0, b)
                          for b in range(s.beta) if b != i)
        self.wraps += self._position(i) < self._position(behind)
        if gap > cfg.speedmod_threshold:
            s.slow_draws += 1
            return rate * cfg.slowdown
        return rate

    def _enter(self, i: int, j: int, now: float):
        s, m = self.sim, self.sim.model
        s.patch[i], s.progress_base[i] = j, 0.0
        if j in m.termini:
            s.pending[i] = max(now, m.r * s.lap[i] + m.offsets[i] + m.anchors[j - 1])
            s.phases_left[i] = 0
            return
        k, rate = self._branch(i, m.dists[j - 1])
        if m.phased:
            s.phases_left[i], s.progress_per_phase[i], self.rate[i] = k, 1.0 / k, rate
            s.pending[i] = now + self.rngs[i].exponential(1.0 / self._rate(i, rate))
        else:
            s.phases_left[i] = 1
            s.pending[i] = now + float(self.rngs[i].gamma(k, 1.0 / rate))

    def advance(self, until: float = math.inf) -> tuple[float, int, int, int] | None:
        """The next departure as a (t, bus, patch, lap) row, or None, with
        nothing drawn, once the next pending item lies past `until`."""
        s, m = self.sim, self.sim.model
        while True:
            i = min(range(s.beta), key=lambda b: (s.pending[b], b))
            t = s.pending[i]
            if t > until:
                return None
            if s.phases_left[i] > 1:
                s.phases_left[i] -= 1
                s.progress_base[i] += s.progress_per_phase[i]
                s.pending[i] = t + self.rngs[i].exponential(1.0 / self._rate(i, self.rate[i]))
                continue
            j = s.patch[i]
            theta_h = m.cfg.holding_threshold
            if theta_h is not None and s.last_dep[j] is not None and t < s.last_dep[j] + theta_h:
                s.pending[i] = s.last_dep[j] + theta_h
                continue
            row = (t, i + 1, j, s.lap[i])
            s.t = s.last_dep[j] = t
            if j == m.n:
                s.lap[i] += 1
            self._enter(i, j % m.n + 1, t)
            return row


def two_patch_model(mu1=100.0, mu2=300.0, **overrides):
    pm = PatchModel([ErlangParams(1, 1 / mu1), ErlangParams(1, 1 / mu2)])
    kw = dict(n_buses=1, timetable=False, seed=3)
    kw.update(overrides)
    return build_model(pm, SimConfig(**kw))


def test_build_model_constants():
    m = airlink_model()
    assert m.mu_tot == pytest.approx(478.0909, abs=1e-3)
    assert m.anchors[0] == 0.0
    assert m.anchors[6] == pytest.approx(2741.0, abs=1.0)


def test_single_bus_uniform_init_at_start():
    m = two_patch_model()
    sim = Simulator(m)
    assert sim.patch[0] == 1
    assert sim.progress_base[0] == 0.0
    assert sim.lap[0] == 0


@pytest.mark.parametrize("speedmod", [0.3, None], ids=["phased", "aggregated"])
@pytest.mark.parametrize("dists, bus, patch, prog, left", [
    ([ErlangParams(3, 0.3)] * 2, 2, 2, 0.3333333333333332, 2),
    ([ErlangParams(6, 0.0482), ErlangParams(3, 0.0482)], 4, 1, 0.49999999999999994, 3),
], ids=["k3-bus2", "k6-bus4"])
def test_a_bus_placed_a_few_ulps_below_a_phase_end_has_done_that_phase(
        speedmod, dists, bus, patch, prog, left):
    # uniform placement divides, and lands a few ulps below a multiple of
    # 1/k: truncating prog * k kept one phase more than the patch has left
    m = build_model(PatchModel(dists), SimConfig(6, timetable=False, speedmod_threshold=speedmod))
    sim = Simulator(m, seed=1)
    assert (sim.patch[bus], sim.progress_base[bus]) == (patch, prog)
    if m.phased:
        assert sim.phases_left[bus] == left
    else:  # the rest of the sojourn is the bus's first draw
        rate = dists[patch - 1].rate
        assert sim.pending[bus] == np.random.default_rng([1, 0, bus + 1]).gamma(left, 1.0 / rate)


def test_seed_determinism_bitwise():
    events_a = events_until(airlink_model(), 99, 40_000)
    events_b = events_until(airlink_model(), 99, 40_000)
    assert [(t, bus, patch) for t, bus, patch, _ in events_a] == \
           [(t, bus, patch) for t, bus, patch, _ in events_b]
    events_c = events_until(airlink_model(), 100, 40_000)
    assert [(t, bus, patch) for t, bus, patch, _ in events_a] != \
           [(t, bus, patch) for t, bus, patch, _ in events_c]


def test_clock_monotone_and_tiebreak_by_bus():
    events = events_until(airlink_model(), 7, 100_000)
    for (ta, bus_a, _, _), (tb, bus_b, _, _) in zip(events, events[1:]):
        assert tb > ta or (tb == ta and bus_b > bus_a)


def test_bus_count_conserved():
    m = airlink_model()
    sim = Simulator(m, seed=5)
    for k in range(1, 251):
        sim.run(until_time=400.0 * k)
        assert len(sim.patch) == m.cfg.n_buses
        assert all(1 <= p <= m.n for p in sim.patch)
    assert sim.events_processed > 2000


def test_holding_gap_invariant_exact():
    theta = 240.0
    m = airlink_model(timetable=False, holding_threshold=theta)
    last = {}
    for t, _, patch, _ in first_departures(Simulator(m, seed=11), 20_000):
        if patch in last:
            assert t - last[patch] >= theta - 1e-9
        last[patch] = t


def test_timetable_no_early_terminus_departure():
    m = airlink_model()
    for t, bus, patch, lap in first_departures(Simulator(m, seed=13), 20_000):
        if patch in m.termini:
            slot = m.r * lap + m.offsets[bus - 1] + m.anchors[patch - 1]
            assert t >= slot - 1e-6


def test_near_deterministic_timetable_departures_on_slots():
    # zero-variance surrogate: very large shapes, same means
    airlink = airlink_model(seed=2)
    pm = PatchModel([ErlangParams(100_000, 100_000 / mean) for mean in airlink.means])
    m = build_model(pm, airlink.cfg)
    warm = []
    for t, bus, patch, lap in first_departures(Simulator(m, seed=2), 30_000):
        if t > 10 * m.r and patch in m.termini:
            slot = m.r * lap + m.offsets[bus - 1] + m.anchors[patch - 1]
            warm.append(abs(t - slot))
    assert warm and max(warm) < 1.0


def test_exponential_phase_mean(rng):
    pm = PatchModel([ErlangParams(1, 0.02), ErlangParams(1, 0.02)])
    m = build_model(pm, SimConfig(n_buses=1, timetable=False, seed=4, speedmod_threshold=0.5,
                                  slowdown=1.0))
    assert m.phased
    times = [t for t, _, _, _ in first_departures(Simulator(m, seed=4), 100_000,
                                                  step=1_000_000.0)]
    gaps = np.diff([0.0] + times)
    assert abs(np.mean(gaps) - 50.0) / 50.0 < 0.01


def test_alternating_renewal_time_fraction():
    mu1, mu2 = 120.0, 360.0
    m = two_patch_model(mu1, mu2)
    t_in_1 = 0.0
    t_prev = 0.0
    for t, _, patch, _ in first_departures(Simulator(m, seed=8), 40_000, step=1_000_000.0):
        if patch == 1:  # departure from patch 1 ends a patch-1 sojourn
            t_in_1 += t - t_prev
        t_prev = t
    frac = t_in_1 / t_prev
    expect = mu1 / (mu1 + mu2)
    assert abs(frac - expect) < 0.02


def test_rval_semantics():
    # read from the columns: after the first departure, at its time
    m = airlink_model()
    sim = Simulator(m, seed=21)
    deps = sim.run(until_time=1_000.0)
    chunk = _History(m.n, m.cfg.n_buses, expiries=True).next(deps, 1_000.0)
    t, bus, patch, _ = rows(deps)[0]
    read = chunk.reader(np.array([t]), np.array([1]))
    assert read("time").tolist() == [t]
    assert read(f"y_{patch}").tolist() == [0.0]  # just departed
    assert read(f"z_{bus}_{patch}").tolist() == [0.0]
    assert read(f"c_{patch}").tolist() == [1.0]
    assert read(f"H_{patch}").tolist() == [1.0]
    with pytest.raises(PropertyError):
        read("Q")
    # a patch no bus has departed yet reads infinity
    fresh = chunk.reader(np.array([0.0]), np.array([0]))
    assert math.isinf(fresh("y_3")[0]) and fresh("c_3").tolist() == [0.0]


@pytest.mark.parametrize("name", ["Q", "y_0", "y_11", "y_1_2", "y_-1", "y_ 1", "z_1",
                                  "z_0_1", "z_12_1", "z_1_11", "H_0", "c_11", "time_1"])
def test_reader_rejects_unknown_names_when_resolved(name):
    # every reader of state names resolves them here
    with pytest.raises(PropertyError, match="unknown state quantity"):
        parse_state_name(name, 10, 11)


def test_readers_resolved_before_any_event_follow_the_state():
    # one reader over a run's departures, read just after each of them,
    # against the per-event state
    m = airlink_model()
    deps = Simulator(m, seed=21).run(until_time=60_000.0)
    chunk = _History(m.n, m.cfg.n_buses, expiries=False).next(deps, 60_000.0)
    at = deps.t + 1.5
    read = chunk.reader(at, np.arange(1, len(deps) + 1))
    replay = EventReplay(m.n, m.cfg.n_buses, hour_ticks=False)
    y = {j: replay.reader(f"y_{j}") for j in range(1, 11)}
    c = {j: replay.reader(f"c_{j}") for j in range(1, 11)}
    z = replay.reader("z_4_7")
    seen = []
    for ev in replay.events(deps, 60_000.0):
        seen.append(ev)
        if len(seen) > 1:
            k, prev = len(seen) - 2, seen[-2]
            # at[k] - prev.t is 1.5 up to the rounding of at[k] = prev.t + 1.5
            assert read(f"y_{prev.patch}")[k] == y[prev.patch](at[k]) == at[k] - prev.t
            assert [read(f"c_{j}")[k] for j in c] == [c[j](0.0) for j in c]
            assert read("z_4_7")[k] == z(at[k])
    assert len(seen) == len(deps) > 1000
    assert math.isinf(read("z_4_7")[0]) and not math.isinf(read("z_4_7")[-1])


def test_h_counter_counts_recent_departures():
    m = airlink_model()
    assert check_hour_counts(m, 23, [HOUR, 2 * HOUR]) > 100
    deps = Simulator(m, seed=23).run(until_time=2 * HOUR)
    chunk = _History(m.n, m.cfg.n_buses, expiries=True).next(deps, 2 * HOUR)
    read = chunk.reader(np.array([2 * HOUR]), np.array([len(deps)]))
    for j in range(1, 11):
        assert 0 <= read(f"H_{j}")[0] <= 11
    # every bus departs each patch roughly every 5259 s > 3600 s, so H < beta
    assert read("H_1")[0] <= 9


def test_h_counter_when_buses_depart_twice_within_the_hour():
    # a 400 s loop: each bus departs each patch about nine times an hour, so
    # most departures in the window are superseded by the same bus's next one
    m = two_patch_model(n_buses=3)
    assert check_hour_counts(m, 31, [7_000.0 * k for k in range(1, 5)]) > 300


def test_h_counts_each_bus_once_when_an_expiry_falls_on_a_departure():
    # bus 1 departs patch 1 twice within the hour, at 100 and 200; the
    # expiry of the first falls on bus 2's departure at 3700, that of the
    # second on the departures of buses 2 and 3 at 3800
    deps = as_departures([(100.0, 1, 1), (200.0, 1, 1), (300.0, 2, 2), (3700.0, 2, 1),
                          (3800.0, 2, 1), (3800.0, 3, 1)])
    history = _History(2, 3, expiries=True)
    chunk = history.next(deps, 4_000.0)
    assert chunk.boundaries.tolist() == [100.0, 200.0, 300.0, 3700.0, 3800.0, 3900.0]
    assert (history.time, history.expiries.tolist()) == (3900.0, [7300.0, 7400.0, 7400.0])
    # the state each departure finds at its time: an expiry due then came first
    before = chunk.reader(deps.t, np.arange(6))("H_1").tolist()
    assert before == [0.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    # the state after each boundary
    after = chunk.reader(chunk.boundaries, np.searchsorted(deps.t, chunk.boundaries, "right"))
    assert after("H_1").tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    # the per-event count reads the same where a clock samples it
    replay = EventReplay(2, 3, hour_ticks=True)
    h = replay.reader("H_1")
    found, left, last = [], {}, None
    for ev in replay.events(deps, 4_000.0):
        if last is not None and ev.t > last:
            left[last] = h(last)
        if ev.kind == "dep":
            found.append(h(ev.t))
        last = ev.t
    left[last] = h(last)
    assert found == before
    assert list(left.values()) == after("H_1").tolist()


def test_debug_hour_recount_consistency():
    # chunks of uneven length, some shorter than a sojourn
    ends = [500.0, 510.0, 4_000.0, 4_100.0, 30_000.0, 60_000.0]
    assert check_hour_counts(airlink_model(), 29, ends) > 2_000


# speed modification with no slowdown: the phased simulator at the fitted rates
PHASED_ONLY = dict(speedmod_threshold=0.15, slowdown=1.0)


@pytest.mark.parametrize("overrides", [{}, PHASED_ONLY], ids=["aggregated", "phased"])
def test_every_due_hour_expiry_is_a_boundary(overrides):
    # a query reading H_j changes state at each departure and each expiry
    # b + HOUR at or before the chunk end, and at nothing else
    m = airlink_model(**overrides)
    assert m.phased == bool(overrides)
    sim = Simulator(m, seed=3)
    history = _History(m.n, m.cfg.n_buses, expiries=True)
    deps_so_far, prev = [], 0.0
    for end in (3_000.0, 9_000.0, 9_500.0, 40_000.0):
        deps = sim.run(until_time=end)
        deps_so_far += deps.t.tolist()
        due = [b + HOUR for b in deps_so_far if prev < b + HOUR <= end]
        assert history.next(deps, end).boundaries.tolist() == sorted(set(deps.t.tolist() + due))
        assert history.time == max(deps_so_far + [b + HOUR for b in deps_so_far
                                                  if b + HOUR <= end])
        prev = end


@pytest.mark.parametrize("overrides", [
    dict(timetable=False, holding_threshold=120.0, speedmod_threshold=0.15),
    dict(timetable=False, holding_threshold=120.0),
], ids=["phased-held", "aggregated-held"])
def test_run_processes_no_event_after_until_time(overrides):
    # a held bus, or a bus with phases left, can sit in pending before T
    # while its departure comes after T
    m = airlink_model(**overrides)
    sim = Simulator(m, seed=11)
    seen = []
    for k in range(1, 11):
        end = 2000.0 * k
        deps = sim.run(until_time=end)
        assert sim.t <= end
        assert len(deps) and all(end - 2000.0 < t <= end for t in deps.t.tolist())
        seen += rows(deps)
        assert sim.events_processed == len(seen)
    # stopping between chunks leaves the departures, and the draws, as one
    # run gives them
    whole = Simulator(m, seed=11)
    assert rows(whole.run(until_time=20_000.0)) == seen
    assert (whole.pending, whole.slow_draws) == (sim.pending, sim.slow_draws)


def test_empty_stop_immediately():
    # a run that ends before the first departure processes none
    sim = Simulator(airlink_model(), seed=3)
    deps = sim.run(until_time=-1.0)
    assert len(deps) == 0 and deps.t.dtype == float and deps.bus.dtype == np.int64
    assert sim.t == 0.0 and sim.events_processed == 0


def test_speed_modification_slows_leader():
    pm = PatchModel([ErlangParams(20, 20 / 200.0)] * 4)
    cfg = SimConfig(n_buses=2, timetable=False, speedmod_threshold=0.3,
                    slowdown=0.5, seed=6, init="terminus")
    m = build_model(pm, cfg)
    assert m.phased
    sim = Simulator(m, seed=6)
    slowed = first_departures(sim, 30_000, step=1_000_000.0)
    assert sim.slow_draws > 0
    # with slowdown the loop takes longer than the raw mean when gaps are wide
    base_cfg = SimConfig(n_buses=2, timetable=False, seed=6, init="terminus", **PHASED_ONLY)
    base = first_departures(Simulator(build_model(pm, base_cfg), seed=6), 30_000,
                            step=1_000_000.0)
    assert slowed[-1][0] > base[-1][0]  # the same departures take longer with slowed phases


@pytest.mark.parametrize("breakpoints", [None, (0.0, 0.02, 0.1, 0.15, 0.3, 0.31, 0.5, 0.52,
                                                0.7, 0.9, 1.0)])
def test_initial_speed_draws_see_the_placed_fleet(breakpoints):
    # every bus draws its first phase at construction (no timetabled
    # terminus), each against the whole fleet already in place
    m = airlink_model(timetable=False, holding_threshold=120.0, speedmod_threshold=0.15,
                      breakpoints=breakpoints)
    sim = Simulator(m, seed=5)
    pos = [lo + (hi - lo) * min(prog, 1.0) for (lo, hi), prog in
           zip((m.spans[j - 1] for j in sim.patch), sim.progress_base)]
    gaps = [min((p - q) % 1.0 for b, q in enumerate(pos) if b != i) for i, p in enumerate(pos)]
    assert sim.slow_draws == sum(g > 0.15 for g in gaps)


def test_lone_phased_bus_is_never_slowed():
    # a bus alone has no follower, so no gap can exceed theta_s
    pm = PatchModel([ErlangParams(5, 0.05), ErlangParams(5, 0.05)])
    m = build_model(pm, SimConfig(n_buses=1, timetable=False, seed=4, speedmod_threshold=0.1,
                                  slowdown=0.5))
    sim = Simulator(m, seed=4)
    first_departures(sim, 2000)
    assert sim.slow_draws == 0


BELOW_ONE = math.nextafter(1.0, 0.0)
FRACTION = st.sampled_from([0.0, 0.5, BELOW_ONE]) | st.floats(0.0, 1.0, exclude_max=True)


@settings(max_examples=400, deadline=None)
@given(st.lists(FRACTION, min_size=2, max_size=15), st.integers(0, 14), FRACTION,
       st.none() | st.integers(0, 14))
@example([BELOW_ONE, 0.3], 1, 0.0, None)  # follower one ulp below 1.0, across the wrap
@example([BELOW_ONE, 0.0], 1, BELOW_ONE, None)
@example([0.25, 0.25, 0.25], 0, 0.25, None)  # exact ties
@example([0.0, 0.0], 1, 0.0, 0)
def test_ring_gap_is_the_fleet_minimum(fleet, mover, new, tie):
    i = mover % len(fleet)
    if tie is not None:
        new = fleet[tie % len(fleet)]
    ring = sorted(fleet)
    gap = _ring_move(ring, fleet[i], new)
    assert gap == min((new - q) % 1.0 for b, q in enumerate(fleet) if b != i)
    fleet[i] = new
    assert ring == sorted(fleet)


def test_hyper_erlang_branch_draws():
    pm = PatchModel([HyperErlangParams((2, 40), (0.01, 0.4), (0.5, 0.5)),
                     ErlangParams(5, 0.05)])
    m = build_model(pm, SimConfig(n_buses=1, timetable=False, seed=9))
    durations = []
    prev = 0.0
    for t, _, patch, _ in first_departures(Simulator(m, seed=9), 4000):
        if patch == 1:
            durations.append(t - prev)
        prev = t
    mean = np.mean(durations)
    assert abs(mean - pm.dists[0].mean) / pm.dists[0].mean < 0.1


def test_timetable_requires_termini():
    pm = PatchModel([ErlangParams(1, 0.01)] * 4)
    with pytest.raises(SimError):
        build_model(pm, SimConfig(n_buses=2, timetable=True))


@pytest.mark.parametrize("breakpoints", [(0.0, 0.6, 0.4, 1.0), (0.0, 0.5, 0.5, 1.0),
                                         (0.0, 0.3, 0.6), (0.1, 0.3, 0.6, 1.0)],
                         ids=["decreasing", "repeated", "too-few", "not-from-0"])
def test_breakpoints_must_increase_from_0_to_1(breakpoints):
    # a decreasing pair would give a patch a backward span, (0.6, 0.4)
    pm = PatchModel([ErlangParams(1, 0.01)] * 3)
    with pytest.raises(SimError, match="breakpoints must"):
        build_model(pm, SimConfig(n_buses=2, timetable=False, breakpoints=breakpoints))


def test_event_log_roundtrip(tmp_path):
    from headwaylab.simulate import write_event_log
    deps = Simulator(airlink_model(), seed=3).run(until_time=20_000)
    path = tmp_path / "events.tsv"
    write_event_log(deps, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t\tbus\tpatch\tlap"
    assert [line.split("\t") for line in lines[1:]] == [
        [f"{t:.3f}", str(bus), str(patch), str(lap)] for t, bus, patch, lap in rows(deps)]


# (model, departures compared)
ORACLE_CASES = {
    "airlink-speedmod-holding": (
        lambda: airlink_model(holding_threshold=120.0, speedmod_threshold=0.15), 600),
    # every bus starts in patch 1 and is held there: equal pending times
    "terminus-init": (
        lambda: airlink_model(timetable=False, holding_threshold=120.0,
                              speedmod_threshold=0.15, init="terminus"), 600),
    "hyper-erlang-phased-speedmod": (
        lambda: build_model(
            PatchModel([HyperErlangParams((2, 12), (0.02, 0.1), (0.3, 0.7)),
                        ErlangParams(8, 0.05), HyperErlangParams((3, 9), (0.05, 0.04), (0.5, 0.5)),
                        ErlangParams(15, 0.1)]),
            SimConfig(n_buses=4, timetable=False, speedmod_threshold=0.3, slowdown=0.5, seed=2)),
        3000),
    "unequal-breakpoints": (
        lambda: airlink_model(timetable=False, speedmod_threshold=0.15,
                              breakpoints=(0.0, 0.02, 0.1, 0.15, 0.3, 0.31, 0.5, 0.52,
                                           0.7, 0.9, 1.0)), 600),
    "timetabled-phased": (lambda: airlink_model(**PHASED_ONLY), 600),
    "aggregated-timetable": (lambda: airlink_model(), 5000),
    # r below the 3,405 s of non-terminus means: buses reach the termini
    # after their slots, so most terminus departures take the arrival time
    "late-bus-timetable": (lambda: airlink_model(route_duration=3000.0), 5000),
    "one-bus": (lambda: airlink_model(n_buses=1), 2000),
    # the model of the benchmark's speed-modification check
    "strategy-speedmod": (
        lambda: airlink_model(timetable=False, route_duration=None, holding_threshold=120.0,
                              speedmod_threshold=0.15, slowdown=0.9, init="uniform"), 600),
}


def check_cuts(ref: ReferenceStepper, sim: Simulator, ends) -> list[tuple]:
    """Run `sim` to each of `ends` in turn, and step the reference to the
    same end: each run gives the reference's departures and leaves its
    pending, phases_left, progress_base and slow_draws.  Returns the
    departures."""
    got = []
    for end in ends:
        want = []
        while (row := ref.advance(until=end)) is not None:
            want.append(row)
        assert rows(sim.run(until_time=end)) == want
        assert (sim.pending, sim.phases_left, sim.progress_base, sim.slow_draws) == (
            ref.sim.pending, ref.sim.phases_left, ref.sim.progress_base, ref.sim.slow_draws)
        got += want
    return got


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_cached_positions_match_fleet_scan(case):
    make, n_events = ORACLE_CASES[case]
    m = make()
    ref = ReferenceStepper(Simulator(m, seed=17), seed=17)
    want = [ref.advance() for _ in range(n_events)]
    # with the departures at the time of the last one: a late bus leaves a
    # terminus as it reaches it
    while (row := ref.advance(until=want[-1][0])) is not None:
        want.append(row)
    # the run to the last reference departure stops right after it
    fast = Simulator(m, seed=17)
    assert rows(fast.run(until_time=want[-1][0])) == want
    assert fast.slow_draws == ref.sim.slow_draws
    assert fast.pending == ref.sim.pending
    # runs that end between departures complete the phases due by then and
    # consume no draw past them
    check_cuts(ref, fast, want[-1][0] + np.array([37.5, 80.0, 400.0, 1000.0]))
    if m.cfg.speedmod_threshold is not None:
        assert ref.sim.slow_draws > 0
        # with patch 1 untimetabled, a bus just past 0.0 draws while its
        # follower is still short of 1.0
        assert ref.wraps > 0 or m.cfg.timetable


def test_speed_modification_check_model_matches_the_reference_in_chunks_of_r():
    # the speed-modification check of the benchmark runs this model in
    # chunks of one r, from a 2 r warm-up on, to 8 r
    m = ORACLE_CASES["strategy-speedmod"][0]()
    ref = ReferenceStepper(Simulator(m, seed=5), seed=5)
    got = check_cuts(ref, Simulator(m, seed=5), [k * m.r for k in range(1, 9)])
    assert len(got) > 800 and ref.sim.slow_draws > 1000 and ref.wraps > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.sampled_from(["terminus", "uniform"]),
       st.lists(st.tuples(st.integers(1, 6), st.floats(0.005, 0.05)), min_size=2, max_size=4),
       st.floats(0.01, 0.6), st.sampled_from([0.5, 0.9, 1.0]),
       st.none() | st.sampled_from([0.0, 30.0, 120.0]), st.integers(0, 2**16))
@example(1, "uniform", [(3, 0.01), (2, 0.02)], 0.1, 0.5, None, 4)  # a lone bus
@example(5, "terminus", [(1, 0.01), (6, 0.05), (2, 0.005)], 0.15, 0.9, 120.0, 5)
@example(2, "terminus", [(4, 0.02), (4, 0.02)], 0.01, 0.5, 0.0, 9)
# bus 3 starts one ulp short of 0.2 into patch 2 with all 5 phases left, so
# its last phase starts at the end of patch 2, 1.0: the place of 0.0, where
# bus 1 is, and not 0.5 ahead of the buses at 0.5
@example(5, "uniform", [(5, 0.046875), (5, 0.046875)], 0.25, 0.5, None, 0)
def test_small_phased_fleets_match_the_reference(beta, init, shapes, theta_s, slowdown,
                                                 holding, seed):
    # the event loop moves a bus in the ring in place when it passes no
    # other bus, and through _ring_move when it does; the reference scans
    # the fleet at each draw.  Under terminus init the buses start tied at
    # 0.0, and holding gates tie their pending times.  Untimetabled, a bus
    # just past 0.0 reads its follower across the 1.0 -> 0.0 wrap
    pm = PatchModel([ErlangParams(k, rate) for k, rate in shapes])
    m = build_model(pm, SimConfig(n_buses=beta, timetable=False, init=init,
                                  holding_threshold=holding, speedmod_threshold=theta_s,
                                  slowdown=slowdown))
    # a lap at the slowed rates, and the longest wait at the holding gates
    lap = m.r / slowdown + m.n * beta * (holding or 0.0)
    ref = ReferenceStepper(Simulator(m, seed=seed), seed=seed)
    got = check_cuts(ref, Simulator(m, seed=seed), [k * lap for k in (0.5, 3.0, 3.25, 10.0)])
    assert len(got) > m.n * beta
    assert ref.wraps == 0 or beta > 1


def terminus_lateness(m, table) -> tuple[int, int]:
    """(late, on time): the terminus departures after their slot and at it."""
    slots = [(t, m.r * lap + m.offsets[bus - 1] + m.anchors[patch - 1])
             for t, bus, patch, lap in table if patch in m.termini]
    return sum(t > slot for t, slot in slots), sum(t == slot for t, slot in slots)


# the models a simulator runs bus by bus
BY_BUS_CASES = {
    **{case: ORACLE_CASES[case][0]
       for case in ("aggregated-timetable", "late-bus-timetable", "one-bus")},
    "untimetabled": lambda: airlink_model(timetable=False),
    "terminus-init": lambda: airlink_model(init="terminus"),
    "untimetabled-terminus-init": lambda: airlink_model(timetable=False, init="terminus"),
}


@pytest.mark.parametrize("seed", [5, 11, 21])
@pytest.mark.parametrize("case", BY_BUS_CASES)
def test_bus_by_bus_equals_the_event_loop(case, seed):
    # holding at 0 s never binds, since no departure comes before the last
    # one from its patch, but it puts the simulator on the event loop; both
    # draw from the same per-bus streams, so each cut of the bus-by-bus run
    # gives the departures and the state of the event loop cut elsewhere
    m = BY_BUS_CASES[case]()
    held = dataclasses.replace(m, cfg=dataclasses.replace(m.cfg, holding_threshold=0.0))
    loop, fast = Simulator(held, seed=seed), Simulator(m, seed=seed)
    assert fast.by_bus and not loop.by_bus
    end = 190 * m.r
    want = [row for cut in (2e5, end) for row in rows(loop.run(until_time=cut))]
    got = [row for cut in (1e5, 3e5, 3e5, end) for row in rows(fast.run(until_time=cut))]
    assert got == want
    assert len(got) > 1500 * m.cfg.n_buses
    for sim in (loop, fast):  # the state the patch entry leaves
        assert sim.progress_base == [0.0] * sim.beta
        assert sim.phases_left == [int(j not in m.termini) for j in sim.patch]
    assert (fast.pending, fast.patch, fast.lap, fast.t, fast.events_processed,
            fast.phases_left, fast.progress_per_phase) == (
        loop.pending, loop.patch, loop.lap, loop.t, loop.events_processed,
        loop.phases_left, loop.progress_per_phase)
    late, on_time = terminus_lateness(m, got)
    assert (late > 0, on_time > 0) == (case == "late-bus-timetable", m.cfg.timetable)


# the ORACLE_CASES models a simulator runs bus by bus
BY_BUS_ORACLES = [case for case, (make, _) in ORACLE_CASES.items() if Simulator(make()).by_bus]


def block_walks(monkeypatch) -> list[tuple[int, int]]:
    """Spy on the scalar recursion of the bus-by-bus path: for each walk,
    (the terminus entries it walked past, each reached late, and the
    terminus entries of the block before its start)."""
    walks = []
    walk = simulate._walk

    def spy(t, values, terminus, g, p):
        out = walk(t, values, terminus, g, p)
        stops = [k for k in range(1, len(values)) if terminus[(g + k - 1) % len(terminus)]]
        walks.append((sum(p <= k < p + len(out) for k in stops), sum(k < p for k in stops)))
        return out
    monkeypatch.setattr(simulate, "_walk", spy)
    return walks


@pytest.mark.parametrize("laps", [1, 2, 3, None], ids=["1", "2", "3", "default"])
@pytest.mark.parametrize("case", BY_BUS_ORACLES)
def test_block_size_changes_no_departure(monkeypatch, case, laps):
    # a bus draws whole laps a block at a time and speculates that it
    # leaves every terminus on its slot; wherever the blocks end and runs
    # are cut, and wherever the repair takes over, the departures and the
    # state are the event loop's
    m = ORACLE_CASES[case][0]()
    held = dataclasses.replace(m, cfg=dataclasses.replace(m.cfg, holding_threshold=0.0))
    loop = Simulator(held, seed=7)
    end = 250 * m.r
    want = rows(loop.run(until_time=end))
    walks = block_walks(monkeypatch)
    if laps is not None:
        monkeypatch.setattr(simulate, "_AHEAD_LAPS", laps)
    cut, whole = Simulator(m, seed=7), Simulator(m, seed=7)
    ends = [0.3 * m.r, 1.7 * m.r, 2.0 * m.r, 5.5 * m.r, 40 * m.r, 41 * m.r, end]
    assert [row for e in ends for row in rows(cut.run(until_time=e))] == want
    assert rows(whole.run(until_time=end)) == want
    assert min(loop.lap) > 200
    for sim in (cut, whole):
        assert (sim.pending, sim.patch, sim.lap, sim.t, sim.events_processed) == (
            loop.pending, loop.patch, loop.lap, loop.t, loop.events_processed)
    late_at_first = any(passed and not before for passed, before in walks)
    carried = any(passed >= 2 for passed, _ in walks)
    repaired = any(passed and before for passed, before in walks)
    if case == "late-bus-timetable":
        # late at a block's first terminus column (walked on from the
        # head), late at a later one (the repair of the speculated times),
        # and still late at the terminus after it
        assert late_at_first and repaired and carried
    else:
        assert not (late_at_first or repaired or carried)


# the models of the patch filter, one per path a run can take
FILTER_MODELS = {
    "by-bus": airlink_model(),
    # buses reach the termini after their slots: a late bus departs twice at one time
    "by-bus-late": airlink_model(route_duration=3000.0),
    "event-loop-holding": airlink_model(holding_threshold=120.0),
    "phased": airlink_model(timetable=False, holding_threshold=120.0, speedmod_threshold=0.15),
    "hyper-erlang": build_model(
        PatchModel([HyperErlangParams((2, 12), (0.02, 0.1), (0.3, 0.7)), ErlangParams(8, 0.05),
                    HyperErlangParams((3, 9), (0.05, 0.04), (0.5, 0.5)), ErlangParams(15, 0.1)]),
        SimConfig(n_buses=4, timetable=True, terminus_patches=(1, 3))),
}


def simulator_state(sim: Simulator) -> tuple:
    return (sim.pending, sim.patch, sim.lap, sim.t, sim.events_processed, sim.phases_left,
            sim.progress_base, sim.progress_per_phase, sim.slow_draws)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FILTER_MODELS)), st.data())
def test_a_run_for_some_patches_returns_the_full_runs_rows_for_them(case, data):
    # the rows of the full run from the patches asked for, in its order,
    # and the same simulator afterwards, wherever the runs are cut
    m = FILTER_MODELS[case]
    patches = data.draw(st.sets(st.integers(1, m.n)), label="patches")
    ends = data.draw(st.lists(st.floats(0.0, 12 * m.r), min_size=1, max_size=4), label="ends")
    full, some = Simulator(m, seed=3), Simulator(m, seed=3)
    for end in sorted(ends):
        want = rows(full.run(until_time=end))
        assert rows(some.run(until_time=end, patches=patches)) == [
            row for row in want if row[2] in patches]
        assert simulator_state(some) == simulator_state(full)


@pytest.mark.parametrize("case", sorted(FILTER_MODELS))
def test_a_run_for_no_patch_returns_no_row_and_advances_alike(case):
    m = FILTER_MODELS[case]
    full, none = Simulator(m, seed=3), Simulator(m, seed=3)
    for end in (0.5 * m.r, 3 * m.r):
        assert len(full.run(until_time=end)) > 0
        assert len(none.run(until_time=end, patches=())) == 0
        assert simulator_state(none) == simulator_state(full)


def test_a_late_bus_departs_twice_at_one_time_in_the_order_it_makes_them():
    # a bus that reaches terminus 7 after its slot departs patches 6 and 7
    # at one time; the run for both keeps the full run's order
    m = FILTER_MODELS["by-bus-late"]
    want = [row for row in rows(Simulator(m, seed=3).run(until_time=40 * m.r))
            if row[2] in (6, 7)]
    got = rows(Simulator(m, seed=3).run(until_time=40 * m.r, patches=[7, 6]))
    assert got == want
    assert any(a[:2] == b[:2] for a, b in zip(got, got[1:]))


@pytest.mark.parametrize("patches", [[0], [11], [1, 12]])
def test_a_run_for_a_patch_out_of_range_raises(patches):
    with pytest.raises(SimError, match="1..10"):
        Simulator(airlink_model(), seed=3).run(until_time=100.0, patches=patches)


@pytest.mark.parametrize("end", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("overrides", [{}, dict(timetable=False), dict(holding_threshold=0.0),
                                       dict(speedmod_threshold=0.15)],
                         ids=["by-bus", "by-bus-untimetabled", "event-loop", "phased"])
def test_a_run_to_a_non_finite_end_raises(overrides, end):
    # no run can process every departure: the check comes before the first
    # one, so nothing runs and nothing is drawn
    sim = Simulator(airlink_model(n_buses=2, **overrides), seed=3)
    pending = list(sim.pending)
    with pytest.raises(SimError, match="finite"):
        sim.run(until_time=end)
    assert (sim.events_processed, sim.pending) == (0, pending)


@pytest.mark.parametrize("holding", [None, 0.0], ids=["by-bus", "event-loop"])
def test_a_stalled_fleet_raises_at_a_finite_end(holding):
    # a rate so small that 1 / rate overflows: every sojourn in patch 1 is
    # infinite, so no bus ever departs
    pm = PatchModel([ErlangParams(2, 1e-310), ErlangParams(2, 0.1)])
    m = build_model(pm, SimConfig(n_buses=2, timetable=False, init="terminus",
                                  holding_threshold=holding))
    sim = Simulator(m, seed=1)
    assert sim.by_bus == (holding is None)
    with pytest.raises(SimError, match="stalled"):
        sim.run(until_time=1000.0)


@pytest.mark.parametrize("block", [1, 3, None], ids=["1", "3", "default"])
@pytest.mark.parametrize("case", ["airlink-speedmod-holding", "hyper-erlang-phased-speedmod"])
def test_block_schedule_changes_no_draw(monkeypatch, case, block):
    # the block size only sets how far phased runs read each bus's stream
    # ahead: at any size, a run cut into pieces, one cut right after a
    # departure into a hyper-Erlang patch has drawn its branch, consumes the
    # draws of one run at the default
    m = ORACLE_CASES[case][0]()
    whole = Simulator(m, seed=8)
    want = rows(whole.run(until_time=40_000.0))
    picks = [t for t, _, j, _ in want if not isinstance(m.dists[j % m.n], ErlangParams)]
    assert bool(picks) == (case == "hyper-erlang-phased-speedmod")
    ends = sorted([1234.5, 9000.0, 25_000.0, 40_000.0] + picks[len(picks) // 3:][:1])
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
    sim = Simulator(m, seed=8)
    got = [row for end in ends for row in rows(sim.run(until_time=end))]
    assert got == want
    assert (sim.slow_draws, sim.pending, sim.phases_left, sim.progress_base) == (
        whole.slow_draws, whole.pending, whole.phases_left, whole.progress_base)


# at seed 5: the time of the 20,000th departure, a digest of the departures'
# (t, bus, patch, lap) up to it, then slow_draws and pending right after
# it, recorded from ReferenceStepper, which scans the whole fleet at each
# phase completion; the ring and the event loop must draw the same
PHASED_PINS = {
    "airlink-holding-speedmod": (
        lambda: airlink_model(timetable=False, holding_threshold=120.0, speedmod_threshold=0.15,
                              slowdown=0.9), 984861.4370765794,
        "d5bb2e74932391f13e6e3b9ae1622d62a083eb163b3c6892dce773d801464b99", 217078,
        [984936.5109447523, 984875.8827716903, 984887.4879258842, 984875.5660411087,
         984866.8131724795, 984861.9204828076, 984862.8887158206, 984868.406970324,
         984864.2683869615, 984871.7017340533, 984863.2592487973]),
    "hyper-erlang-phased-speedmod": (
        ORACLE_CASES["hyper-erlang-phased-speedmod"][0], 927175.210535879,
        "fc51bf543e1c73d14315737c1e56e40ea7821e457eb9b2b017f5029ec5e942df", 60532,
        [927177.9863472068, 927198.0701357939, 927200.9546649486, 927202.2683559929]),
}


def digest(table) -> str:
    h = hashlib.sha256()
    for t, bus, patch, lap in table:
        h.update(f"{t.hex()} {bus} {patch} {lap}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", PHASED_PINS)
def test_phased_stream_matches_the_recorded_one(case):
    make, end, want, slow_draws, pending = PHASED_PINS[case]
    sim = Simulator(make(), seed=5)
    table = rows(sim.run(until_time=end))
    assert len(table) == 20_000
    assert (digest(table), sim.slow_draws, sim.pending) == (want, slow_draws, pending)


@pytest.mark.parametrize("dists", [
    [ErlangParams(8, 0.05), ErlangParams(15, 0.1), ErlangParams(5, 0.02)],
    [HyperErlangParams((2, 12), (0.02, 0.1), (0.3, 0.7)), ErlangParams(8, 0.05),
     HyperErlangParams((3, 9), (0.05, 0.04), (0.5, 0.5))],
], ids=["erlang", "hyper-erlang"])
def test_phased_runs_read_per_bus_streams(dists):
    # with no timetable, no holding and a slowdown of 1.0, no rule couples
    # two buses that start together, so bus 1 reads only its own stream and
    # departs alike in a fleet of 2 and of 3
    def bus_one(beta):
        m = build_model(PatchModel(dists), SimConfig(n_buses=beta, timetable=False, init="terminus",
                                                     speedmod_threshold=0.15, slowdown=1.0))
        assert m.phased
        return [row for row in rows(Simulator(m, seed=4).run(until_time=50_000.0)) if row[1] == 1]
    got = bus_one(2)
    assert len(got) > 100 and got == bus_one(3)


# at seed 5: the time of the 20,000th event, a digest of the events'
# (t, bus, patch, lap) up to it and pending right after it, recorded from
# the per-bus streams: the bus-by-bus path for the timetabled fleet (the
# event loop with theta_h = 0 gave the same) and the event loop for holding
# and hyper-Erlang.  With hour ticks on, the events take in the expiries
# (bus and lap 0), which the departures replay here; expiries never change a
# departure or a draw
AGGREGATED_PINS = {
    "airlink-timetable-hour-ticks": (
        lambda: airlink_model(), True, 479907.49224807,
        "c0a4f61b856a2e90f100a8659e5ef6ab4d1e82ff2c96119fdeaaf2082ef59fd1",
        [479988.5007075526, 479911.18169770495, 480105.6714425357, 480003.2727272727,
         480481.36363636365, 480013.9406312383, 480445.5787001509, 480317.83485180594,
         480256.41797017376, 480353.82751851185, 480831.9184276028]),
    "airlink-holding-hour-ticks": (
        lambda: airlink_model(timetable=False, holding_threshold=120.0), True, 490163.7686608646,
        "64c5c596585de838b26b0d84c7994524d87cb4c81e38a3a27b5024cc5840eaee",
        [490495.2701227989, 490361.04536831036, 490434.9483495057, 490499.4241062503,
         490326.8451283261, 490391.2579163122, 490356.4526588756, 490284.93452121073,
         490288.6907474939, 490275.5099413517, 490363.1032670549]),
    # hyper-Erlang patches draw their branch uniform before each sojourn,
    # from the same per-bus stream
    "hyper-erlang": (
        lambda: build_model(
            PatchModel([HyperErlangParams((2, 12), (0.02, 0.1), (0.3, 0.7)),
                        ErlangParams(8, 0.05), HyperErlangParams((3, 9), (0.05, 0.04), (0.5, 0.5)),
                        ErlangParams(15, 0.1)]),
            SimConfig(n_buses=4, timetable=False, seed=2)), False, 708962.405068454,
        "af62564fedad22792e1acd8ac25ca0f22d610b94bed1239af81101e1e8e36086",
        [709122.9102326786, 709102.6038561523, 708980.3714946136, 709018.1755082174]),
}


@pytest.mark.parametrize("case", AGGREGATED_PINS)
def test_aggregated_stream_matches_the_recorded_one(case):
    make, ticks, end, want, pending = AGGREGATED_PINS[case]
    m = make()
    assert not m.phased
    sim = Simulator(m, seed=5)
    assert sim.by_bus == (case == "airlink-timetable-hour-ticks")
    events = list(EventReplay(m.n, m.cfg.n_buses, ticks).events(sim.run(until_time=end), end))
    assert len(events) == 20_000
    assert (digest((ev.t, ev.bus, ev.patch, ev.lap) for ev in events), sim.pending) == (
        want, pending)


def _hyper_model(speedmod_threshold):
    pm = PatchModel([HyperErlangParams((2, 12), (0.02, 0.1), (0.3, 0.7)), ErlangParams(8, 0.05),
                     HyperErlangParams((3, 9), (0.05, 0.04), (0.5, 0.5)), ErlangParams(15, 0.1)])
    return build_model(pm, SimConfig(n_buses=4, timetable=False, seed=2,
                                     speedmod_threshold=speedmod_threshold))


@pytest.mark.parametrize("speedmod", [None, 0.15], ids=["aggregated", "phased"])
@pytest.mark.parametrize("make", [lambda s: airlink_model(timetable=False, speedmod_threshold=s),
                                  lambda s: airlink_model(speedmod_threshold=s),
                                  _hyper_model], ids=["erlang", "erlang-timetabled", "hyper-erlang"])
def test_simulator_is_freed_without_the_cyclic_collector(make, speedmod):
    # the patch entry and the event loop bind the simulator's lists and
    # generators, not the simulator, and the bus-by-bus path keeps its
    # drawn-ahead times in arrays, so dropping the last reference frees
    # the simulator at once
    sim = Simulator(make(speedmod), seed=3)
    assert len(sim.run(until_time=20_000.0)) > 0
    assert (sim.slow_draws > 0) == (speedmod is not None)
    assert sim.by_bus == (speedmod is None and make is not _hyper_model)
    gone = weakref.ref(sim)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del sim
        assert gone() is None
    finally:
        if was_enabled:
            gc.enable()

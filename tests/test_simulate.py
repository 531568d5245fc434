import hashlib
import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import AIRLINK_K, AIRLINK_LAM, advance, airlink_model, rval
from headwaylab.fitting import ErlangParams, HyperErlangParams, PatchModel
from headwaylab.simulate import (HOUR, Event, SimConfig, SimError, Simulator, _ring_move,
                                 build_model)


def events_until(model, seed: int, until_time: float) -> list[Event]:
    """The events Simulator.run processes up to until_time."""
    events = []
    Simulator(model, seed=seed).run(events.append, until_time=until_time)
    return events


class HourRecount:
    """Observer oracle for H_j of `sim`: a ring of (expiry time, bus) per
    patch, fed from departures.  Called before each event, it checks the
    state the previous event left, expiries included; check() covers the
    last one.  A bus that departs j twice within the hour counts once."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.rings = {j: [] for j in range(1, sim.n + 1)}

    def __call__(self, ev: Event):
        self.check()
        if ev.kind == "dep":
            self.rings[ev.patch].append((ev.t + HOUR, ev.bus))

    def check(self):
        sim = self.sim
        for j, ring in self.rings.items():
            ring[:] = [(x, b) for x, b in ring if x > sim.t]
            fast, slow = rval(sim, f"H_{j}"), len({b for _, b in ring})
            assert fast == slow, f"H_{j} mismatch at t={sim.t}: indicator={fast} ring={slow}"


class ReferenceStepper:
    """Reference for Simulator.run that shares none of its stepping code: it
    takes over a freshly built simulator's state and generator and steps
    them one event at a time.  The next event is selected with a key on
    (pending, bus), so ties go to the lowest bus index, and expiries come
    from a plain list.  Every gap read recomputes each bus's route fraction
    from patch and progress_base and scans the fleet for the nearest bus
    behind.  `wraps` counts gap reads whose nearest bus behind sits across
    the 1.0 -> 0.0 wrap, ahead of the moving bus in route fraction."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.expiries = []
        self.wraps = 0

    def _position(self, b: int) -> float:
        s = self.sim
        lo, hi = s.model.spans[s.patch[b] - 1]
        return lo + (hi - lo) * min(s.progress_base[b], 1.0)

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
        d = m.dists[j - 1]
        if isinstance(d, ErlangParams):
            k, rate = d.k, d.rate
        else:
            u = s.rng.random()
            k, rate = next(((k, r) for k, r, c in zip(d.shapes, d.rates, accumulate(d.weights))
                            if u <= c), (d.shapes[-1], d.rates[-1]))
        if m.phased:
            s.phases_left[i], s.phase_rate[i], s.progress_per_phase[i] = k, rate, 1.0 / k
            s.pending[i] = now + s.rng.exponential(1.0 / self._rate(i, rate))
        else:
            s.phases_left[i] = 1
            s.pending[i] = now + float(s.rng.gamma(k, 1.0 / rate))

    def advance(self) -> Event:
        s, m = self.sim, self.sim.model
        while True:
            i = min(range(s.beta), key=lambda b: (s.pending[b], b))
            t = s.pending[i]
            if self.expiries and min(self.expiries)[0] <= t:
                x = min(self.expiries)
                self.expiries.remove(x)
                s.t = x[0]
                return Event(x[0], "expiry", 0, x[1])
            if s.phases_left[i] > 1:
                s.phases_left[i] -= 1
                s.progress_base[i] += s.progress_per_phase[i]
                s.pending[i] = t + s.rng.exponential(1.0 / self._rate(i, s.phase_rate[i]))
                continue
            j = s.patch[i]
            theta_h = m.cfg.holding_threshold
            if theta_h is not None and s.last_dep[j] is not None and t < s.last_dep[j] + theta_h:
                s.pending[i] = s.last_dep[j] + theta_h
                continue
            ev = Event(t, "dep", i + 1, j, s.lap[i])
            s.t = s.last_dep[j] = t
            if s.hour_ticks:
                self.expiries.append((t + HOUR, j, i))
            if j == m.n:
                s.lap[i] += 1
            self._enter(i, j % m.n + 1, t)
            return ev


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


def test_seed_determinism_bitwise():
    events_a = events_until(airlink_model(), 99, 40_000)
    events_b = events_until(airlink_model(), 99, 40_000)
    assert [(e.t, e.bus, e.patch) for e in events_a] == \
           [(e.t, e.bus, e.patch) for e in events_b]
    events_c = events_until(airlink_model(), 100, 40_000)
    assert [(e.t, e.bus, e.patch) for e in events_a] != \
           [(e.t, e.bus, e.patch) for e in events_c]


def test_clock_monotone_and_tiebreak_by_bus():
    events = events_until(airlink_model(), 7, 100_000)
    for a, b in zip(events, events[1:]):
        assert b.t > a.t or (b.t == a.t and b.bus > a.bus)


def test_bus_count_conserved():
    m = airlink_model()
    sim = Simulator(m, seed=5)
    for _ in range(2000):
        advance(sim)
        assert len(sim.patch) == m.cfg.n_buses
        assert all(1 <= p <= m.n for p in sim.patch)


def test_holding_gap_invariant_exact():
    theta = 240.0
    m = airlink_model(timetable=False, holding_threshold=theta)
    sim = Simulator(m, seed=11)
    last = {}
    for _ in range(20_000):
        ev = advance(sim)
        if ev.patch in last:
            assert ev.t - last[ev.patch] >= theta - 1e-9
        last[ev.patch] = ev.t


def test_timetable_no_early_terminus_departure():
    m = airlink_model()
    sim = Simulator(m, seed=13)
    for _ in range(20_000):
        ev = advance(sim)
        if ev.patch in m.termini:
            slot = m.r * ev.lap + m.offsets[ev.bus - 1] + m.anchors[ev.patch - 1]
            assert ev.t >= slot - 1e-6


def test_near_deterministic_timetable_departures_on_slots():
    # zero-variance surrogate: very large shapes, same means
    pm = PatchModel([ErlangParams(100_000, 100_000 / (k / l))
                     for k, l in zip(AIRLINK_K, AIRLINK_LAM)])
    m = build_model(pm, SimConfig(n_buses=11, timetable=True, route_duration=5259.0,
                                  terminus_patches=(1, 7), seed=2))
    sim = Simulator(m, seed=2)
    warm = []
    for _ in range(30_000):
        ev = advance(sim)
        if ev.t > 10 * m.r and ev.patch in m.termini:
            slot = m.r * ev.lap + m.offsets[ev.bus - 1] + m.anchors[ev.patch - 1]
            warm.append(abs(ev.t - slot))
    assert warm and max(warm) < 1.0


def test_exponential_phase_mean(rng):
    pm = PatchModel([ErlangParams(1, 0.02), ErlangParams(1, 0.02)])
    m = build_model(pm, SimConfig(n_buses=1, timetable=False, seed=4, speedmod_threshold=0.5,
                                  slowdown=1.0))
    assert m.phased
    sim = Simulator(m, seed=4)
    prev = 0.0
    gaps = []
    for _ in range(100_000):
        ev = advance(sim)
        gaps.append(ev.t - prev)
        prev = ev.t
    assert abs(np.mean(gaps) - 50.0) / 50.0 < 0.01


def test_alternating_renewal_time_fraction():
    mu1, mu2 = 120.0, 360.0
    m = two_patch_model(mu1, mu2)
    sim = Simulator(m, seed=8)
    t_in_1 = 0.0
    t_prev = 0.0
    for _ in range(40_000):
        ev = advance(sim)
        if ev.patch == 1:  # departure from patch 1 ends a patch-1 sojourn
            t_in_1 += ev.t - t_prev
        t_prev = ev.t
    frac = t_in_1 / t_prev
    expect = mu1 / (mu1 + mu2)
    assert abs(frac - expect) < 0.02


def test_rval_semantics():
    m = airlink_model()
    sim = Simulator(m, seed=21)
    ev = advance(sim)
    assert rval(sim, "time") == ev.t
    assert rval(sim, "mu_tot") == pytest.approx(478.0909, abs=1e-3)
    assert rval(sim, f"y_{ev.patch}") == 0.0  # just departed
    assert rval(sim, f"z_{ev.bus}_{ev.patch}") == 0.0
    with pytest.raises(SimError):
        rval(sim, "Q")
    # a patch no bus has departed yet returns the undefined sentinel
    fresh = Simulator(m, seed=22)
    assert math.isinf(rval(fresh, "y_3"))


@pytest.mark.parametrize("name", ["Q", "y_0", "y_11", "y_1_2", "y_-1", "y_ 1", "z_1",
                                  "z_0_1", "z_12_1", "z_1_11", "H_0", "c_11", "time_1"])
def test_reader_rejects_unknown_names_when_resolved(name):
    sim = Simulator(airlink_model(), seed=21)
    with pytest.raises(SimError, match="unknown state quantity"):
        sim.reader(name)


def test_h_needs_hour_ticks_when_resolved():
    # H_j is a count kept from departures and expiries, so without hour
    # ticks there is nothing to read
    with pytest.raises(SimError, match="hour ticks"):
        Simulator(airlink_model(), seed=21).reader("H_3")
    sim = Simulator(airlink_model(), seed=21, hour_ticks=True)
    h = sim.reader("H_3")
    assert h(0.0) == 0.0
    while rval(sim, "c_3") == 0:
        advance(sim)
    assert h(sim.t) == h(sim.t + 10 * HOUR) == 1.0  # the count, whatever t


def test_readers_resolved_before_any_event_follow_the_state():
    sim = Simulator(airlink_model(), seed=21, hour_ticks=True)
    y = {j: sim.reader(f"y_{j}") for j in range(1, 11)}
    c = {j: sim.reader(f"c_{j}") for j in range(1, 11)}
    z = sim.reader("z_4_7")
    deps = {j: 0 for j in range(1, 11)}
    last_z = None
    for _ in range(3000):
        ev = advance(sim)
        if ev.kind != "dep":
            continue
        deps[ev.patch] += 1
        if (ev.bus, ev.patch) == (4, 7):
            last_z = ev.t
        assert y[ev.patch](ev.t + 1.5) == (ev.t + 1.5) - ev.t
        assert c[ev.patch](0.0) == float(deps[ev.patch])
        assert z(ev.t) == (math.inf if last_z is None else ev.t - last_z)
    assert last_z is not None


def test_h_counter_counts_recent_departures():
    m = airlink_model()
    sim = Simulator(m, seed=23, hour_ticks=True)
    oracle = HourRecount(sim)
    sim.run(oracle, until_time=2 * 3600)
    oracle.check()
    for j in range(1, 11):
        h = rval(sim, f"H_{j}")
        assert 0 <= h <= 11
    # every bus departs each patch roughly every 5259 s > 3600 s, so H < beta
    assert rval(sim, "H_1") <= 9


def test_h_counter_when_buses_depart_twice_within_the_hour():
    # a 400 s loop: each bus departs each patch about nine times an hour, so
    # most expiries belong to a departure the same bus has since superseded
    m = two_patch_model(n_buses=3)
    sim = Simulator(m, seed=31, hour_ticks=True)
    oracle = HourRecount(sim)
    sim.run(oracle, until_time=30_000.0)
    oracle.check()
    assert sim.events_processed > 300


def test_debug_hour_recount_consistency():
    m = airlink_model()
    sim = Simulator(m, seed=29, hour_ticks=True)
    oracle = HourRecount(sim)
    sim.run(oracle, until_time=120_000.0)
    assert sim.events_processed > 4_000
    oracle.check()


# speed modification with no slowdown: the phased simulator at the fitted rates
PHASED_ONLY = dict(speedmod_threshold=0.15, slowdown=1.0)


@pytest.mark.parametrize("overrides", [{}, PHASED_ONLY], ids=["aggregated", "phased"])
def test_every_hour_expiry_is_an_event(overrides):
    # phase completions inside a patch must not move the clock past an
    # expiry, or the expiry is dropped and H_j changes between events
    m = airlink_model(**overrides)
    assert m.phased == bool(overrides)
    sim = Simulator(m, seed=3, hour_ticks=True)
    deps, expiries = [], 0
    for _ in range(4_000):
        ev = advance(sim)
        if ev.kind == "dep":
            deps.append(ev.t)
        else:
            expiries += 1
    assert expiries == sum(1 for b in deps if b + HOUR <= sim.t)


@pytest.mark.parametrize("overrides", [
    dict(timetable=False, holding_threshold=120.0, speedmod_threshold=0.15),
    dict(timetable=False, holding_threshold=120.0),
], ids=["phased-held", "aggregated-held"])
def test_run_processes_no_event_after_until_time(overrides):
    # a held bus, or a bus with phases left, can sit in pending before T
    # while its departure comes after T
    m = airlink_model(**overrides)
    sim = Simulator(m, seed=11, hour_ticks=True)
    seen = []
    for k in range(1, 11):
        end = 2000.0 * k
        sim.run(seen.append, until_time=end)
        assert sim.t <= end
        assert seen and all(ev.t <= end for ev in seen)
        assert sim.events_processed == len(seen)
    # stopping between chunks leaves the event stream as one run gives it
    whole = Simulator(m, seed=11, hour_ticks=True)
    assert seen == [advance(whole) for _ in seen]
    assert {ev.kind for ev in seen} == {"dep", "expiry"}


def test_empty_stop_immediately():
    # a run that ends before the first event processes none
    sim = Simulator(airlink_model(), seed=3)
    seen = []
    sim.run(seen.append, until_time=-1.0)
    assert seen == [] and sim.t == 0.0 and sim.events_processed == 0


def test_speed_modification_slows_leader():
    pm = PatchModel([ErlangParams(20, 20 / 200.0)] * 4)
    cfg = SimConfig(n_buses=2, timetable=False, speedmod_threshold=0.3,
                    slowdown=0.5, seed=6, init="terminus")
    m = build_model(pm, cfg)
    assert m.phased
    sim = Simulator(m, seed=6)
    for _ in range(30_000):
        advance(sim)
    assert sim.slow_draws > 0
    # with slowdown the loop takes longer than the raw mean when gaps are wide
    base_cfg = SimConfig(n_buses=2, timetable=False, seed=6, init="terminus", **PHASED_ONLY)
    base = Simulator(build_model(pm, base_cfg), seed=6)
    for _ in range(30_000):
        advance(base)
    assert sim.t > base.t  # same event count takes longer with slowed phases


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
    for _ in range(2000):
        advance(sim)
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
    sim = Simulator(m, seed=9)
    durations = []
    prev = 0.0
    for _ in range(4000):
        ev = advance(sim)
        if ev.patch == 1:
            durations.append(ev.t - prev)
        prev = ev.t
    mean = np.mean(durations)
    assert abs(mean - pm.dists[0].mean) / pm.dists[0].mean < 0.1


def test_timetable_requires_termini():
    pm = PatchModel([ErlangParams(1, 0.01)] * 4)
    with pytest.raises(SimError):
        build_model(pm, SimConfig(n_buses=2, timetable=True))


def test_event_log_roundtrip(tmp_path):
    from headwaylab.simulate import write_event_log
    events = events_until(airlink_model(), 3, 20_000)
    path = tmp_path / "events.tsv"
    write_event_log(events, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t\tbus\tkind\tpatch\tlap"
    assert len(lines) == len(events) + 1


# (model, hour ticks, events compared)
ORACLE_CASES = {
    "airlink-speedmod-holding": (
        lambda: airlink_model(holding_threshold=120.0, speedmod_threshold=0.15), False, 600),
    # every bus starts in patch 1 and is held there: equal pending times
    "terminus-init": (
        lambda: airlink_model(timetable=False, holding_threshold=120.0,
                              speedmod_threshold=0.15, init="terminus"), False, 600),
    "hyper-erlang-phased-speedmod": (
        lambda: build_model(
            PatchModel([HyperErlangParams((2, 12), (0.02, 0.1), (0.3, 0.7)),
                        ErlangParams(8, 0.05), HyperErlangParams((3, 9), (0.05, 0.04), (0.5, 0.5)),
                        ErlangParams(15, 0.1)]),
            SimConfig(n_buses=4, timetable=False, speedmod_threshold=0.3, slowdown=0.5, seed=2)),
        False, 3000),
    "unequal-breakpoints": (
        lambda: airlink_model(timetable=False, speedmod_threshold=0.15,
                              breakpoints=(0.0, 0.02, 0.1, 0.15, 0.3, 0.31, 0.5, 0.52,
                                           0.7, 0.9, 1.0)), False, 600),
    "timetabled-phased-hour-ticks": (lambda: airlink_model(**PHASED_ONLY), True, 600),
    "aggregated-timetable": (lambda: airlink_model(), True, 5000),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_cached_positions_match_fleet_scan(case):
    make, ticks, n_events = ORACLE_CASES[case]
    m = make()
    fast = Simulator(m, seed=17, hour_ticks=ticks)
    ref = ReferenceStepper(Simulator(m, seed=17, hour_ticks=ticks))
    for _ in range(n_events):
        a, b = advance(fast), ref.advance()
        assert (a.t, a.kind, a.bus, a.patch, a.lap) == (b.t, b.kind, b.bus, b.patch, b.lap)
    assert fast.slow_draws == ref.sim.slow_draws
    assert fast.pending == ref.sim.pending
    if m.cfg.speedmod_threshold is not None:
        assert ref.sim.slow_draws > 0
        # with patch 1 untimetabled, a bus just past 0.0 draws while its
        # follower is still short of 1.0
        assert ref.wraps > 0 or m.cfg.timetable


# at seed 5: a digest of the first 20,000 events' (t, bus, patch, lap), then
# slow_draws and pending, recorded from the phased simulator that scanned the
# whole fleet at each phase completion; the ring and the settling loop must
# draw the same
PHASED_PINS = {
    "airlink-holding-speedmod": (
        lambda: airlink_model(timetable=False, holding_threshold=120.0, speedmod_threshold=0.15,
                              slowdown=0.9),
        "42ea50feaabdbe8d7123a9306892fc31023265ba476dd91cb26f5b837d784047", 213029,
        [984949.3825090125, 984884.5355616347, 984869.8783199112, 984865.6950381784,
         984870.7275105139, 984899.0157352838, 984906.0921148598, 984909.2317181445,
         984891.8221352546, 984876.4522499931, 984891.9739389473]),
    "hyper-erlang-phased-speedmod": (
        ORACLE_CASES["hyper-erlang-phased-speedmod"][0],
        "ef42907b3625de3d436ccfc0262f39dada47fc687ee2e96a1e84db145e2c46b5", 60470,
        [926143.5676253269, 926153.6776534611, 926133.8873314622, 926161.7200317034]),
}


@pytest.mark.parametrize("case", PHASED_PINS)
def test_phased_stream_matches_the_recorded_one(case):
    make, digest, slow_draws, pending = PHASED_PINS[case]
    sim = Simulator(make(), seed=5)
    h = hashlib.sha256()
    for _ in range(20_000):
        ev = advance(sim)
        h.update(f"{ev.t.hex()} {ev.bus} {ev.patch} {ev.lap}\n".encode())
    assert (h.hexdigest(), sim.slow_draws, sim.pending) == (digest, slow_draws, pending)


# at seed 5: a digest of the first 20,000 events' (t, bus, patch, lap), then
# pending, recorded from the aggregated simulator that stepped through
# _next_event and _apply_departure and scanned the fleet for H_j
AGGREGATED_PINS = {
    "airlink-timetable-hour-ticks": (
        lambda: airlink_model(), True,
        "ae946c779c9c59f76b5c7d4c25679a87b15c9dd172cba8cc4b0485c9f712b614",
        [480348.7407810994, 479970.01639662235, 480204.4084157531, 480003.2727272727,
         480481.36363636365, 480040.7853303869, 480051.08209600975, 480347.9634896044,
         480254.9125665325, 480353.82751851185, 479970.40929664165]),
    "airlink-holding-hour-ticks": (
        lambda: airlink_model(timetable=False, holding_threshold=120.0), True,
        "8b5043b05c22b3b977d3a2882323782038183d33270330e2321e54ac5ef928f5",
        [489225.06103644485, 489141.5976802493, 489294.71680806123, 489178.4429631148,
         489509.0414140926, 488959.55770678783, 489718.62501725054, 489253.17771559773,
         489267.61298580584, 489168.71768772753, 489272.7131876538]),
    # hyper-Erlang patches draw their branch before each sojourn
    "hyper-erlang": (
        lambda: build_model(
            PatchModel([HyperErlangParams((2, 12), (0.02, 0.1), (0.3, 0.7)),
                        ErlangParams(8, 0.05), HyperErlangParams((3, 9), (0.05, 0.04), (0.5, 0.5)),
                        ErlangParams(15, 0.1)]),
            SimConfig(n_buses=4, timetable=False, seed=2)), False,
        "da330b0aee655c08bf3c4b52df08d024a768a68e11e5a8710e01afa9f0088700",
        [708067.3192322637, 708000.7715404506, 708244.2044734394, 708100.7199764038]),
}


@pytest.mark.parametrize("case", AGGREGATED_PINS)
def test_aggregated_stream_matches_the_recorded_one(case):
    make, ticks, digest, pending = AGGREGATED_PINS[case]
    m = make()
    assert not m.phased
    sim = Simulator(m, seed=5, hour_ticks=ticks)
    h = hashlib.sha256()
    for _ in range(20_000):
        ev = advance(sim)
        h.update(f"{ev.t.hex()} {ev.bus} {ev.patch} {ev.lap}\n".encode())
    assert (h.hexdigest(), sim.pending) == (digest, pending)

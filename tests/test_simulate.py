import math

import numpy as np
import pytest

from conftest import AIRLINK_K, AIRLINK_LAM, airlink_model
from headwaylab.fitting import ErlangParams, HyperErlangParams, PatchModel
from headwaylab.simulate import (HOUR, Event, SimConfig, SimError, Simulator, build_model,
                                 run_trajectory)


class HourRecount:
    """Observer oracle for H_j: a ring of (expiry time, bus) per patch, fed
    from departures.  Called before each event, it checks the state the
    previous event left, expiries included; check() covers the last one.
    A bus that departs j twice within the hour counts once."""

    def __init__(self, n: int):
        self.rings = {j: [] for j in range(1, n + 1)}

    def __call__(self, t_prev: float, ev: Event, sim: Simulator):
        self.check(sim)
        if ev.kind == "dep":
            self.rings[ev.patch].append((ev.t + HOUR, ev.bus))

    def check(self, sim: Simulator):
        for j, ring in self.rings.items():
            ring[:] = [(x, b) for x, b in ring if x > sim.t]
            fast, slow = sim.rval(f"H_{j}"), len({b for _, b in ring})
            assert fast == slow, f"H_{j} mismatch at t={sim.t}: indicator={fast} ring={slow}"


class FleetScanSimulator(Simulator):
    """Reference for the cached route positions: every speed-factor draw
    recomputes each bus's position from patch and progress_base and scans the
    fleet for the nearest bus behind, and the next event is selected with a
    key on (pending, bus), so ties go to the lowest bus index.  `wraps` counts draws whose nearest bus behind sits
    across the 1.0 -> 0.0 wrap, ahead of the drawing bus in route fraction."""

    wraps = 0
    picks = 0  # events this class selected, so a renamed hook cannot go unused

    def _position(self, b: int) -> float:
        lo, hi = self.model.spans[self.patch[b] - 1]
        return lo + (hi - lo) * min(self.progress_base[b], 1.0)

    def _speed_factor(self, i: int) -> float:
        theta = self.model.cfg.speedmod_threshold
        if theta is None or self.beta < 2:
            return 1.0
        prog_i = self._position(i)
        gap = behind = None
        for b in range(self.beta):
            if b == i:
                continue
            g = (prog_i - self._position(b)) % 1.0
            if gap is None or g < gap:
                gap, behind = g, b
        self.wraps += prog_i < self._position(behind)
        if gap > theta:
            self.slow_draws += 1
            return self.model.cfg.slowdown
        return 1.0

    def _next_event(self) -> Event:
        self.picks += 1
        theta_h = self.model.cfg.holding_threshold
        while True:
            i = min(range(self.beta), key=lambda b: (self.pending[b], b))
            t = self.pending[i]
            if self._expiries and self._expiries[0][0] <= t:
                return Event(self._expiries[0][0], "expiry", 0, self._expiries[0][1])
            if self.phases_left[i] > 1:
                self.phases_left[i] -= 1
                self.progress_base[i] += self.progress_per_phase[i]
                factor = self._speed_factor(i)
                self.pending[i] = t + self.rng.exponential(1.0 / (self.phase_rate[i] * factor))
                continue
            if theta_h is not None:
                base = self.last_dep[self.patch[i]]
                if base is not None and t < base + theta_h:
                    self.pending[i] = base + theta_h
                    continue
            return Event(t, "dep", i + 1, self.patch[i], self.lap[i])


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
    events_a, _ = run_trajectory(airlink_model(), 99, lambda ev, s: ev.t >= 40_000)
    events_b, _ = run_trajectory(airlink_model(), 99, lambda ev, s: ev.t >= 40_000)
    assert [(e.t, e.bus, e.patch) for e in events_a] == \
           [(e.t, e.bus, e.patch) for e in events_b]
    events_c, _ = run_trajectory(airlink_model(), 100, lambda ev, s: ev.t >= 40_000)
    assert [(e.t, e.bus, e.patch) for e in events_a] != \
           [(e.t, e.bus, e.patch) for e in events_c]


def test_clock_monotone_and_tiebreak_by_bus():
    events, _ = run_trajectory(airlink_model(), 7, lambda ev, s: ev.t >= 100_000)
    for a, b in zip(events, events[1:]):
        assert b.t > a.t or (b.t == a.t and b.bus > a.bus)


def test_bus_count_conserved():
    m = airlink_model()
    sim = Simulator(m, seed=5)
    for _ in range(2000):
        sim.advance()
        assert len(sim.patch) == m.cfg.n_buses
        assert all(1 <= p <= m.n for p in sim.patch)


def test_holding_gap_invariant_exact():
    theta = 240.0
    m = airlink_model(timetable=False, holding_threshold=theta)
    sim = Simulator(m, seed=11)
    last = {}
    for _ in range(20_000):
        ev = sim.advance()
        if ev.patch in last:
            assert ev.t - last[ev.patch] >= theta - 1e-9
        last[ev.patch] = ev.t


def test_timetable_no_early_terminus_departure():
    m = airlink_model()
    sim = Simulator(m, seed=13)
    for _ in range(20_000):
        ev = sim.advance()
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
        ev = sim.advance()
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
        ev = sim.advance()
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
        ev = sim.advance()
        if ev.patch == 1:  # departure from patch 1 ends a patch-1 sojourn
            t_in_1 += ev.t - t_prev
        t_prev = ev.t
    frac = t_in_1 / t_prev
    expect = mu1 / (mu1 + mu2)
    assert abs(frac - expect) < 0.02


def test_rval_semantics():
    m = airlink_model()
    sim = Simulator(m, seed=21)
    ev = sim.advance()
    assert sim.rval("time") == ev.t
    assert sim.rval("mu_tot") == pytest.approx(478.0909, abs=1e-3)
    assert sim.rval(f"y_{ev.patch}") == 0.0  # just departed
    assert sim.rval(f"z_{ev.bus}_{ev.patch}") == 0.0
    with pytest.raises(SimError):
        sim.rval("Q")
    # a patch no bus has departed yet returns the undefined sentinel
    fresh = Simulator(m, seed=22)
    assert math.isinf(fresh.rval("y_3"))


@pytest.mark.parametrize("name", ["Q", "y_0", "y_11", "y_1_2", "y_-1", "y_ 1", "z_1",
                                  "z_0_1", "z_12_1", "z_1_11", "H_0", "c_11", "time_1"])
def test_reader_rejects_unknown_names_when_resolved(name):
    sim = Simulator(airlink_model(), seed=21)
    with pytest.raises(SimError, match="unknown state quantity"):
        sim.reader(name)


def test_readers_resolved_before_any_event_follow_the_state():
    sim = Simulator(airlink_model(), seed=21, hour_ticks=True)
    y = {j: sim.reader(f"y_{j}") for j in range(1, 11)}
    c = {j: sim.reader(f"c_{j}") for j in range(1, 11)}
    z = sim.reader("z_4_7")
    deps = {j: 0 for j in range(1, 11)}
    last_z = None
    for _ in range(3000):
        ev = sim.advance()
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
    oracle = HourRecount(m.n)
    sim.run(oracle, until_time=2 * 3600)
    oracle.check(sim)
    for j in range(1, 11):
        h = sim.rval(f"H_{j}")
        assert 0 <= h <= 11
    # every bus departs each patch roughly every 5259 s > 3600 s, so H < beta
    assert sim.rval("H_1") <= 9


def test_debug_hour_recount_consistency():
    m = airlink_model()
    sim = Simulator(m, seed=29, hour_ticks=True)
    oracle = HourRecount(m.n)
    sim.run(oracle, until_time=120_000.0)
    assert sim.events_processed > 4_000
    oracle.check(sim)


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
        ev = sim.advance()
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
        sim.run(lambda t_prev, ev, s: seen.append(ev), until_time=end)
        assert sim.t <= end
        assert seen and all(ev.t <= end for ev in seen)
        assert sim.events_processed == len(seen)
    # stopping between chunks leaves the event stream as one run gives it
    whole = Simulator(m, seed=11, hour_ticks=True)
    assert seen == [whole.advance() for _ in seen]
    assert {ev.kind for ev in seen} == {"dep", "expiry"}


def test_run_trajectory_budget_flag():
    events, truncated = run_trajectory(airlink_model(), 3,
                                       lambda ev, s: False, max_events=100)
    assert truncated and len(events) == 100


def test_empty_stop_immediately():
    events, truncated = run_trajectory(airlink_model(), 3, lambda ev, s: True)
    assert len(events) == 1 and not truncated


def test_speed_modification_slows_leader():
    pm = PatchModel([ErlangParams(20, 20 / 200.0)] * 4)
    cfg = SimConfig(n_buses=2, timetable=False, speedmod_threshold=0.3,
                    slowdown=0.5, seed=6, init="terminus")
    m = build_model(pm, cfg)
    assert m.phased
    sim = Simulator(m, seed=6)
    for _ in range(30_000):
        sim.advance()
    assert sim.slow_draws > 0
    # with slowdown the loop takes longer than the raw mean when gaps are wide
    base_cfg = SimConfig(n_buses=2, timetable=False, seed=6, init="terminus", **PHASED_ONLY)
    base = Simulator(build_model(pm, base_cfg), seed=6)
    for _ in range(30_000):
        base.advance()
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


def test_hyper_erlang_branch_draws():
    pm = PatchModel([HyperErlangParams((2, 40), (0.01, 0.4), (0.5, 0.5)),
                     ErlangParams(5, 0.05)])
    m = build_model(pm, SimConfig(n_buses=1, timetable=False, seed=9))
    sim = Simulator(m, seed=9)
    durations = []
    prev = 0.0
    for _ in range(4000):
        ev = sim.advance()
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
    events, _ = run_trajectory(airlink_model(), 3, lambda ev, s: ev.t >= 20_000)
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
    ref = FleetScanSimulator(m, seed=17, hour_ticks=ticks)
    for _ in range(n_events):
        a, b = fast.advance(), ref.advance()
        assert (a.t, a.kind, a.bus, a.patch, a.lap) == (b.t, b.kind, b.bus, b.patch, b.lap)
    assert ref.picks == n_events
    assert fast.slow_draws == ref.slow_draws
    assert fast.pending == ref.pending
    if m.cfg.speedmod_threshold is not None:
        assert ref.slow_draws > 0
        # with patch 1 untimetabled, a bus just past 0.0 draws while its
        # follower is still short of 1.0
        assert ref.wraps > 0 or m.cfg.timetable

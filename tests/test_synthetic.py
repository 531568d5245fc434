"""Traces sampled from simulator departures (`synthetic.traces_from_run`,
`synthetic.generate_traces`), and a round trip from a timetabled model to
traces and back to a fitted model through the map chain."""

import math

import numpy as np
import pytest

from headwaylab import fitting, graphs, patches, raster, route, synthetic
from headwaylab.fitting import PatchModel
from headwaylab.ingest import TraceSet
from headwaylab.simulate import SimConfig, Simulator, build_model

FIXTURE = synthetic.default_eight_patch_model()
BREAKPOINTS = tuple(FIXTURE.breakpoints)


def test_points_at_walks_the_path_out_and_back():
    # an L of 100 + 50 units: the loop is 300 units long
    r = synthetic.SyntheticRoute(np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 50.0]]))
    got = r.points_at([0.0, 0.25, 0.4, 0.5, 0.6, 0.75, 1.0])
    assert got.tolist() == [[0.0, 0.0], [75.0, 0.0], [100.0, 20.0], [100.0, 50.0],
                            [100.0, 20.0], [75.0, 0.0], [0.0, 0.0]]


def fixture_run(seed: int = 1, until: float = 20_000.0, **cfg):
    sm = build_model(PatchModel(FIXTURE.params), SimConfig(5, breakpoints=BREAKPOINTS, **cfg))
    return Simulator(sm, seed=seed).run(until)


@pytest.mark.parametrize("cfg", [dict(timetable=False),
                                 dict(timetable=False, holding_threshold=60.0, speedmod_threshold=0.15)],
                         ids=["untimetabled", "holding-speedmod"])
def test_a_sample_at_a_departure_sits_on_the_breakpoint(cfg):
    deps = fixture_run(**cfg)
    times = [deps.t[deps.bus == b] for b in range(1, 6)]
    got = synthetic.traces_from_run(deps, BREAKPOINTS, FIXTURE.route, times)
    bp = np.array(BREAKPOINTS)
    for b, txy in enumerate(got, start=1):
        patch = deps.patch[deps.bus == b]
        assert len(txy) == len(patch) > 20
        assert np.array_equal(txy[:, 0], times[b - 1])
        assert np.array_equal(txy[:, 1:], FIXTURE.route.points_at(bp[patch] % 1.0))


def test_samples_between_departures_move_at_constant_speed():
    deps = fixture_run(timetable=False)
    mine = deps.bus == 2
    t, patch = deps.t[mine], deps.patch[mine]
    k = int(np.flatnonzero(patch == 2)[0])  # bus 2 crosses patch 3 from t[k] to t[k + 1]
    quarter = t[k] + 0.25 * (t[k + 1] - t[k])
    got = synthetic.traces_from_run(deps, BREAKPOINTS, FIXTURE.route,
                                    [[], [quarter], [], [], []])
    assert [len(txy) for txy in got] == [0, 1, 0, 0, 0]
    lo, hi = BREAKPOINTS[2], BREAKPOINTS[3]
    want = FIXTURE.route.points_at([lo + 0.25 * (hi - lo)])
    np.testing.assert_allclose(got[1][:, 1:], want, rtol=1e-9)


@pytest.mark.parametrize("where", ["before", "after"])
def test_a_sample_outside_the_departures_raises(where):
    deps = fixture_run(timetable=False)
    t = deps.t[deps.bus == 3]
    outside = t[0] - 1.0 if where == "before" else t[-1] + 1.0
    times = [[], [], [float(t[len(t) // 2]), outside], [], []]
    with pytest.raises(ValueError, match="bus 3"):
        synthetic.traces_from_run(deps, BREAKPOINTS, FIXTURE.route, times)


def test_generate_traces_keeps_the_fixture_size():
    ts = synthetic.generate_traces(FIXTURE, n_buses=12, days=10, seed=5)
    assert len(ts) == 61_740
    assert ts.vehicles() == [f"bus{b:02d}" for b in range(1, 13)]
    for txy in ts.traces.values():
        assert (np.diff(txy[:, 0]) > 0).all()
        sod = txy[:, 0].astype(np.int64) % 86400
        assert ((10 * 3600 <= sod) & (sod < 15 * 3600)).all()


# --- round trip ---------------------------------------------------------------

TERMINI = (1, 5)  # fixture patches 1 and 5, the two turnaround dwells


def timetabled_traces(seed: int, n_buses: int = 12, days: int = 10,
                      interval: int = 35, span: int = 5 * 3600) -> TraceSet:
    """The fixture's model run timetabled with termini 1 and 5 and r the sum
    of the means, sampled like `generate_traces`: day d is replication d,
    after a lead of one lap."""
    sm = build_model(PatchModel(FIXTURE.params),
                     SimConfig(n_buses, terminus_patches=TERMINI, breakpoints=BREAKPOINTS))
    lead = math.ceil(sm.r)
    times = [np.arange(lead + (7 * b) % interval, lead + span, interval) for b in range(n_buses)]
    rows: list[list[np.ndarray]] = [[] for _ in range(n_buses)]
    for day in range(days):
        deps = Simulator(sm, seed=seed, replication=day).run(2 * lead + span)
        for b, txy in enumerate(synthetic.traces_from_run(deps, BREAKPOINTS, FIXTURE.route, times)):
            txy[:, 0] += day * 86400
            rows[b].append(txy)
    return TraceSet({f"bus{b + 1:02d}": np.concatenate(r) for b, r in enumerate(rows)})


def refit_on_true_breaks(ts: TraceSet, gamma: int = 40) -> list[tuple[int, float]]:
    """The map chain of the benchmark's `mapgen` workload, then the
    fixture's true breakpoints in the derived route's frame, crossing times
    and Erlang fits: (fixture patch, fitted mean) per derived patch.  The
    derived loop starts at whichever turnaround its first direction leaves
    from; starting at the far one rotates every fraction by one half."""
    heat = raster.rasterize_heatmap(ts, resolution=900, delta=0.0)
    blur = raster.gaussian_blur(heat, 1.0)
    eta = float(np.percentile(blur.intensity[blur.intensity > 0], 90)) / 40
    g = graphs.build_graph(raster.skeletonize(blur, tau=0.3, eta=eta), epsilon=2.0)
    rm = route.derive_route_model(g, ts, rejection_radius=3 * heat.cell_size)
    first = rm.directions[0][0]
    a, b, _ = g.edges[first.edge_id]
    start = g.nodes[a if first.forward else b]
    near, far = FIXTURE.route.vertices[0], FIXTURE.route.vertices[-1]
    shift = 0.5 if math.dist(start, far) < math.dist(start, near) else 0.0
    starts = [(bp + shift) % 1.0 for bp in BREAKPOINTS[:-1]]
    order = sorted(range(len(starts)), key=lambda i: starts[i])
    ps = patches.PatchStructure(gamma, [round(starts[i] * gamma) for i in order[1:]])
    obs = fitting.extract_crossing_times(ts, rm, ps)
    return [(i + 1, fitting.fit_erlang(obs[j]).mean) for j, i in enumerate(order, start=1)]


@pytest.mark.parametrize("seed", [5, 11, 3])
def test_timetabled_round_trip_recovers_the_model(seed):
    means = {j: p.mean for j, p in enumerate(FIXTURE.params, start=1)}
    r = sum(means.values())
    fitted = dict(refit_on_true_breaks(timetabled_traces(seed)))
    assert sorted(fitted) == sorted(means)
    assert sum(fitted.values()) == pytest.approx(r, rel=0.002)
    for j in set(means) - set(TERMINI):
        assert fitted[j] == pytest.approx(means[j], rel=0.08), j
    # c_j anchors a terminus at the means before it, so a bus on schedule
    # dwells at each terminus for the other one's mean: the round trip
    # swaps the two terminus means (650 s at patch 1, 560 s at patch 5)
    assert abs(fitted[1] - means[5]) < abs(fitted[1] - means[1])
    assert abs(fitted[5] - means[1]) < abs(fitted[5] - means[5])

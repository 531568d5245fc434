"""Golden pins for the map stages: heat map, skeleton, graph and route on a
small seeded fixture, the Erlang and hyper-Erlang fits of its crossing
times, and skeletons of seeded random rasters with their graphs.  The values
were recorded from the implementation these stages replaced, so any change of
output shows here, however the stages are written.  The segment crossings
of the fixture's heat map at delta = 0.2 were recorded later, from the
per-segment supercover walk, for a walk over all segments at once to match.  The fixture pins were
re-recorded once, when the fixture's traces came to be sampled from
`simulate.Simulator` departures, with the stage modules unchanged.  Graph
pins hash node coordinates as float values, so the pin does not depend on the
type that holds them; that re-recorded the fixture's nodes digest, with the
same values."""

import hashlib
import math

import numpy as np
import pytest

from headwaylab import fitting, graphs, patches, raster, route, synthetic
from headwaylab.ingest import TraceSet


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(repr(a.shape).encode() + np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def text_digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def graph_digests(g: graphs.RouteGraph) -> tuple[str, str]:
    """Digests of the edges and of the node coordinates, read as floats."""
    return (text_digest(sorted(g.edges.items())),
            text_digest([(n, float(x), float(y)) for n, (x, y) in sorted(g.nodes.items())]))


@pytest.fixture(scope="module")
def fixture_traces() -> TraceSet:
    return synthetic.generate_traces(synthetic.default_eight_patch_model(), n_buses=4, days=2, seed=7)


@pytest.fixture(scope="module")
def stages(fixture_traces):
    heat = raster.rasterize_heatmap(fixture_traces, resolution=300)
    blur = raster.gaussian_blur(heat, 1.0)
    positive = blur.intensity[blur.intensity > 0]
    skel = raster.skeletonize(blur, tau=0.3, eta=float(np.percentile(positive, 90)) / 40)
    g = graphs.build_graph(skel, epsilon=2.0)
    rm = route.derive_route_model(g, fixture_traces, rejection_radius=3 * heat.cell_size)
    return heat, skel, g, rm


def test_fixture_heat_map_pinned(stages):
    heat = stages[0]
    assert heat.intensity.shape == (91, 300)
    assert digest(heat.intensity) == "1f36157bda7efee5"


def test_fixture_heat_map_with_segments_pinned(fixture_traces, stages):
    # at delta = 0.2 each cell adds 0.2 per segment that crosses it; the
    # crossing counts are pinned as integers, so a segment walk that adds
    # in another order still matches
    heat = raster.rasterize_heatmap(fixture_traces, resolution=300, delta=0.2)
    assert heat.intensity.shape == (91, 300)
    crossed = (heat.intensity - stages[0].intensity) / 0.2
    counts = np.rint(crossed).astype(np.int64)
    assert np.abs(crossed - counts).max() < 1e-9
    assert (int(counts.sum()), int((counts > 0).sum())) == (40108, 729)
    assert digest(counts) == "ffccbefd7c0f5521"


def test_fixture_skeleton_pinned(stages):
    skel = stages[1]
    assert int(skel.mask.sum()) == 335
    assert digest(skel.mask) == "d60ea4ad2b17acfc"


def test_fixture_graph_pinned(stages):
    g = stages[2]
    assert len(g.edges) == 22
    assert graph_digests(g) == ("2e8eff0f0aa503d9", "6ab970a6325c3f08")


def test_fixture_route_pinned(stages):
    rm = stages[3]
    assert rm.termini == (0, 21)
    assert rm.direction_length(0) == 8137.390396640011
    assert rm.direction_length(1) == 8137.390396640011
    assert text_digest([[(de.edge_id, de.forward, de.start_offset) for de in seq]
                        for seq in rm.directions]) == "287f26ca11db00ba"


@pytest.fixture(scope="module")
def crossings(fixture_traces, stages):
    rm = stages[3]
    ps = patches.jenks_cluster_counts(patches.bin_counts(fixture_traces, rm, gamma=40), 8)
    assert ps.break_bins == [1, 6, 13, 20, 21, 22, 38]
    return fitting.extract_crossing_times(fixture_traces, rm, ps)


FIXTURE_ERLANGS = {
    1: (23, 0.17020447906523858), 2: (77, 0.1896551724137931), 3: (100, 0.28175279899162153),
    4: (65, 0.10568176824713275), 5: (25, 0.0677556401992382), 6: (49, 0.18954572505455267),
    7: (212, 0.2111664482306684), 8: (35, 0.06740227970644876),
}


def test_fixture_erlang_fits_pinned(crossings):
    assert {j: len(xs) for j, xs in crossings.items()} == {1: 38, 2: 37, 3: 38, 4: 37, 5: 37,
                                                          6: 39, 7: 38, 8: 37}
    fits = {j: fitting.fit_erlang(xs) for j, xs in crossings.items()}
    assert {j: (e.k, e.rate) for j, e in fits.items()} == FIXTURE_ERLANGS


# three patches; on this fixture each of them has one branch at K_CAP
FIXTURE_HYPER_ERLANGS = {
    2: ((10000, 85), (20.127320287270678, 0.21112124176559313), (0.035953791888135876, 0.9640462081118641)),
    4: ((78, 10000), (0.1286122706061404, 12.779540919242192), (0.9512571657166047, 0.04874283428339533)),
    7: ((293, 10000), (0.29599852936446963, 8.854163924408637), (0.8991160219139219, 0.10088397808607807)),
}


@pytest.mark.parametrize("patch", sorted(FIXTURE_HYPER_ERLANGS))
def test_fixture_hyper_erlang_fit_pinned(crossings, patch):
    shapes, rates, weights = FIXTURE_HYPER_ERLANGS[patch]
    h = fitting.fit_hyper_erlang(crossings[patch], 2)
    assert h.shapes == shapes
    assert h.rates == pytest.approx(rates, rel=1e-10, abs=0)
    assert h.weights == pytest.approx(weights, rel=1e-10, abs=0)


def reference_heatmap(ts, cell_size, origin, shape, delta):
    """Per-record heat map: each record's cell gains 1, then, for delta > 0,
    each cell strictly between two consecutive records of one vehicle gains
    delta, unless the pair spans more than 300 s or 5 km."""
    grid = np.zeros(shape)

    def cell(x, y):
        j = min(max(int((x - origin[0]) / cell_size), 0), shape[1] - 1)
        i = min(max(int((y - origin[1]) / cell_size), 0), shape[0] - 1)
        return i, j

    for vid in ts.vehicles():
        rows = ts.traces[vid].tolist()
        for _, x, y in rows:
            grid[cell(x, y)] += 1.0
        for (ta, xa, ya), (tb, xb, yb) in zip(rows, rows[1:]):
            if delta == 0 or tb - ta > 300 or math.hypot(xb - xa, yb - ya) > 5000:
                continue
            ends = {cell(xa, ya), cell(xb, yb)}
            for c in raster._supercover_cells(xa, ya, xb, yb, origin, cell_size,
                                              shape[1], shape[0]):
                if c not in ends:
                    grid[c] += delta
    return grid


@pytest.mark.parametrize("delta", [0.0, 0.2])
def test_fixture_heat_map_matches_per_record_reference(fixture_traces, delta):
    heat = raster.rasterize_heatmap(fixture_traces, resolution=300, delta=delta)
    want = reference_heatmap(fixture_traces, heat.cell_size, heat.origin, heat.intensity.shape, delta)
    if delta == 0:
        assert np.array_equal(heat.intensity, want)
    else:
        assert (want > 0).sum() > (heat.intensity == 1.0).sum()  # segments were drawn
        np.testing.assert_allclose(heat.intensity, want, rtol=1e-9, atol=0)


def random_raster(seed: int) -> tuple[raster.Raster, float, float]:
    """Speckle noise, square blobs and thick horizontal, vertical and diagonal
    strokes of random strength, with a threshold and an erosion step."""
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(24, 49, size=2))
    grid = rng.uniform(0.0, 2.0, size=(h, w))
    for _ in range(int(rng.integers(2, 6))):
        i, j = int(rng.integers(3, h - 3)), int(rng.integers(3, w - 3))
        grid[i - 2:i + 3, j - 2:j + 3] += rng.uniform(2.0, 9.0)
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(2, h - 2))
        grid[i - 1:i + 2, 2:w - 2] += rng.uniform(4.0, 15.0)
    j = int(rng.integers(2, w - 2))
    grid[2:h - 2, j - 1:j + 1] += rng.uniform(1.0, 12.0)
    for k in range(2, min(h, w) - 2):
        grid[k, k] += rng.uniform(0.0, 10.0)
    return raster.Raster(grid, 1.0, (0.0, 0.0)), 1.5, float(rng.uniform(0.3, 2.0))


RANDOM_SKELETONS = {
    0: "e12a04b70b9525e4", 1: "2b7d061a6aa5bf61", 2: "abd1203566d38f10", 3: "3dc697c7800fb0dd",
    4: "4939a07a38eeee14", 5: "10a3a519a7679b34", 6: "31241f109090bc10", 7: "ff28f17fd236a921",
    8: "38d4930258a385d8", 9: "5501c58afbfda27a", 10: "5c1afea61344367f", 11: "c6d0691fed39b173",
    12: "0591421d22054393", 13: "55f03b58938aeeb2", 14: "cdcc3aa9a05a5079", 15: "90796f5289d6c835",
    16: "57434cc31f2f989b", 17: "d1672c45c4cade26", 18: "25e91f29e87998a0", 19: "cd04f5bd52a260be",
}


@pytest.mark.parametrize("seed", sorted(RANDOM_SKELETONS))
def test_random_raster_skeleton_pinned(seed):
    r, tau, eta = random_raster(seed)
    assert digest(raster.skeletonize(r, tau, eta).mask) == RANDOM_SKELETONS[seed]


# (edges, nodes) digests of build_graph(skeleton, epsilon=2.0) on the
# skeletons above: crossings and spurs on every seed, and a pure cycle on
# seeds 3, 8 and 19
RANDOM_GRAPHS = {
    0: ("62bfe20ab5971380", "26b32e7b74f4ac14"),
    1: ("49b9b4cb05961c40", "ff438f7e69c15fe1"),
    2: ("4b1e9be975478000", "045763a61ca8dbdd"),
    3: ("d43aee77d1f70dff", "a58c778a334d44a3"),
    4: ("8a508a4c6f4ae53e", "f29746ca45385215"),
    5: ("d24ca9d6a90cae27", "396f56d497a428ba"),
    6: ("02b41ec78a0dc21d", "d0f72e4f412d8fbe"),
    7: ("47988e2eeefaf949", "7d999f5faceb3ed5"),
    8: ("f7ae9d8d64534426", "cbb7e6b5b6aadafc"),
    9: ("c4f1f163d1af50b7", "ab0d080ed6c893d9"),
    10: ("78a1ac02fd605402", "1d00b495b5c89bf1"),
    11: ("ce6d1e7b4586b993", "a51e7bdae9ee24c6"),
    12: ("69f46a80f82b7c31", "744602077865aaa3"),
    13: ("36885d9db772aa81", "cdfaaa20c8fabbed"),
    14: ("33abb03b3178b45e", "3955f806116709e6"),
    15: ("f397f2a0443d00f6", "cfe63234df23d037"),
    16: ("d8b2d4604c602184", "fbab28acade5378a"),
    17: ("caf45532b3c6a0e1", "bf02e2b40f8a73a8"),
    18: ("19f96660df34ea15", "6916c120cf094ab7"),
    19: ("a406ab640892307f", "6d0ca3ca396a5597"),
}


@pytest.mark.parametrize("seed", sorted(RANDOM_GRAPHS))
def test_random_raster_graph_pinned(seed):
    r, tau, eta = random_raster(seed)
    assert graph_digests(graphs.build_graph(raster.skeletonize(r, tau, eta), epsilon=2.0)) \
        == RANDOM_GRAPHS[seed]

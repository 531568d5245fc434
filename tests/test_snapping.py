"""Batched snapping against a brute-force reference.

The reference projects a point onto every edge of the graph, with the same
float arithmetic as `EdgeIndex.candidates`, and keeps the least distance,
the lowest edge id on a tie; a point with no edge within the rejection
radius is unmatched.  The production path (the cell lookup of
`EdgeIndex.candidates`) must pick the same edge with the same
along-distance and distance for every record within the radius.
"""

import math
import time
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headwaylab import graphs, patches, raster, route, synthetic
from headwaylab.graphs import RouteGraph
from headwaylab.ingest import GAP_SECONDS, TraceSet
from headwaylab.route import (DirectedEdge, EdgeIndex, RouteError, RouteModel,
                              UnmatchedMeasurement, best_candidate, route_completion)


# --- brute-force reference -------------------------------------------------

def ref_project_all(graph, points):
    """Every point projected onto every edge: the edge ids in ascending
    order, and along-distance and distance arrays of shape (N, edges)."""
    ids = sorted(graph.edges)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    a = np.array([graph.nodes[graph.edges[e][0]] for e in ids], dtype=np.float64).reshape(-1, 2)
    b = np.array([graph.nodes[graph.edges[e][1]] for e in ids], dtype=np.float64).reshape(-1, 2)
    ln = np.array([graph.edges[e][2] for e in ids], dtype=np.float64)
    x, y = pts[:, :1], pts[:, 1:]
    dx, dy = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = ((x - a[:, 0]) * dx + (y - a[:, 1]) * dy) / (ln * ln)
    t = np.clip(np.where(ln == 0, 0.0, t), 0.0, 1.0)
    return ids, t * ln, np.hypot(x - (a[:, 0] + dx * t), y - (a[:, 1] + dy * t))


def ref_snaps(graph, radius, points, restrict=None):
    """Per point, (edge_id, along, dist) of the nearest edge in restrict
    (every edge when None) within radius, the lowest id on a tie, or None."""
    ids, along, dist = ref_project_all(graph, points)
    out = []
    for a_row, d_row in zip(along.tolist(), dist.tolist()):
        best = None
        for eid, a, d in zip(ids, a_row, d_row):
            if d <= radius and (restrict is None or eid in restrict) and (best is None or d < best[2]):
                best = (eid, a, d)
        out.append(best)
    return out


def ref_snap(graph, radius, x, y, restrict=None):
    return ref_snaps(graph, radius, [(x, y)], restrict)[0]


def ref_completions(rm, points, d):
    """The route-completion fraction of each point in direction d, or None
    when no edge of the direction lies within the rejection radius."""
    seq = rm.directions[d]
    out = []
    for hit in ref_snaps(rm.graph, rm.rejection_radius, points, {e.edge_id for e in seq}):
        if hit is None:
            out.append(None)
            continue
        eid, along, _ = hit
        de = next(de for de in seq if de.edge_id == eid)
        within = along if de.forward else de.length - along
        out.append(min((de.start_offset + within) / rm.loop_length, math.nextafter(1.0, 0.0)))
    return out


def ref_completion(rm, x, y, last_terminus):
    return ref_completions(rm, [(x, y)], 0 if last_terminus == rm.termini[0] else 1)[0]


def ref_fractions(ts, rm):
    """compute_fractions with every snap made by ref_snap, point by point."""
    term_a, term_b = rm.termini
    far_nodes = patches._terminus_far_nodes(rm)
    out, unmatched = {}, 0

    def completion(x, y, term):
        nonlocal unmatched
        frac = ref_completion(rm, x, y, term)
        unmatched += frac is None
        return frac

    for vid in ts.vehicles():
        snaps = []
        for t, x, y in ts.traces[vid].tolist():
            hit = ref_snap(rm.graph, rm.rejection_radius, x, y)
            if hit is None:
                unmatched += 1
                continue
            snaps.append(((t, x, y), hit[0]))
        rows, last_term, i = [], None, 0
        while i < len(snaps):
            rec, eid = snaps[i]
            if eid in (term_a, term_b) and eid != last_term:
                j = i
                while j < len(snaps) and snaps[j][1] == eid:
                    j += 1
                run = [r for r, _ in snaps[i:j]]
                node = far_nodes[eid]
                dists = [math.hypot(x - node[0], y - node[1]) for _, x, y in run]
                split = dists.index(min(dists))
                if 0 < split < len(run) - 1 and \
                        dists[split + 1] - dists[split] > dists[split - 1] - dists[split]:
                    split -= 1
                for k, (t, x, y) in enumerate(run):
                    if k > split or last_term is not None:
                        frac = completion(x, y, eid if k > split else last_term)
                        if frac is not None:
                            rows.append((t, frac, x, y))
                last_term, i = eid, j
                continue
            if last_term is not None:
                t, x, y = rec
                frac = completion(x, y, last_term)
                if frac is not None:
                    rows.append((t, frac, x, y))
            i += 1
        if rows:
            out[vid] = rows
    return out, unmatched


def ref_snap_dwell(index, ts, rejection_radius):
    """route._snap_dwell as a per-record loop over ref_snap: the dwell summed
    per edge id in a dict, and each vehicle's edges within the radius,
    repeats kept."""
    dwell = defaultdict(float)
    streams = []
    for vid in ts.vehicles():
        recs = ts.traces[vid].tolist()
        hits = ref_snaps(index.graph, rejection_radius, [(x, y) for _, x, y in recs])
        kept = []
        for i, (rec, hit) in enumerate(zip(recs, hits)):
            if hit is None:
                continue
            if i + 1 < len(recs):
                dwell[hit[0]] += min(recs[i + 1][0] - rec[0], GAP_SECONDS)
            kept.append(hit[0])
        streams.append(kept)
    return np.array([dwell.get(e, 0.0) for e in sorted(index.graph.edges)]), streams


def ref_passages(streams, term_a, term_b):
    """route._passages over edge streams that may repeat an edge: a repeat
    adds nothing to the sequence."""
    passages = {(term_a, term_b): Counter(), (term_b, term_a): Counter()}
    for kept in streams:
        cur_from = None
        seq = []
        for eid in kept:
            if eid in (term_a, term_b):
                if cur_from is not None and eid != cur_from and seq:
                    passages[(cur_from, eid)][tuple(seq)] += 1
                cur_from = eid
                seq = []
            elif cur_from is not None:
                if not seq or seq[-1] != eid:
                    seq.append(eid)
    return passages


def fractions(ts, rm):
    """compute_fractions with each vehicle's rows as (t, fraction, x, y)
    tuples, the form ref_fractions returns."""
    rows, unmatched = patches.compute_fractions(ts, rm)
    for a in rows.values():
        assert a.dtype == np.float64 and a.ndim == 2 and a.shape[1] == 4
    return {vid: [tuple(r) for r in a.tolist()] for vid, a in rows.items()}, unmatched


# --- fixtures ----------------------------------------------------------------

@pytest.fixture(scope="module")
def small_map():
    """4 buses x 3 days of the 8-patch fixture, every 37th record pushed off
    the route, through heat map, skeleton, graph and route derivation."""
    ts = synthetic.generate_traces(synthetic.default_eight_patch_model(), n_buses=4, days=3, seed=3)
    ts = TraceSet({vid: [(t, x + 25.0 * (i % 3), y - 40.0) if i % 37 == 0 else (t, x, y)
                         for i, (t, x, y) in enumerate(txy.tolist())] for vid, txy in ts.traces.items()})
    heat = raster.rasterize_heatmap(ts, resolution=300, delta=0.0)
    blur = raster.gaussian_blur(heat, 1.0)
    eta = float(np.percentile(blur.intensity[blur.intensity > 0], 90)) / 40
    g = graphs.build_graph(raster.skeletonize(blur, tau=0.3, eta=eta), epsilon=2.0)
    rm = route.derive_route_model(g, ts, rejection_radius=3 * heat.cell_size)
    return ts, rm, EdgeIndex(g, rm.rejection_radius)


def two_way_path(radius=10.0):
    """Route along the x axis through node (50, 0), with a 30-unit spur up
    from that node that belongs to neither direction."""
    g = RouteGraph()
    g.nodes = {0: (0.0, 0.0), 1: (50.0, 0.0), 2: (100.0, 0.0), 3: (50.0, 30.0)}
    g.edges = {0: (0, 1, 50.0), 1: (1, 2, 50.0), 2: (1, 3, 30.0)}
    d1 = [DirectedEdge(0, True, 0.0, 50.0), DirectedEdge(1, True, 50.0, 50.0)]
    d2 = [DirectedEdge(1, False, 100.0, 50.0), DirectedEdge(0, False, 150.0, 50.0)]
    return RouteModel(g, (0, 1), (d1, d2), 200.0, radius)


# --- tests ---------------------------------------------------------------------

def test_batched_completion_matches_reference_per_record(small_map):
    ts, rm, index = small_map
    points = [(x, y) for vid in ts.vehicles() for _, x, y in ts.traces[vid].tolist()]
    cands = index.candidates(points)
    for d in (0, 1):
        frac, matched = route.CompletionTable(rm, d).fractions(*cands)
        ref = ref_completions(rm, points, d)
        assert [f if ok else None for f, ok in zip(frac.tolist(), matched.tolist())] == ref


def test_compute_fractions_matches_reference(small_map):
    ts, rm, _ = small_map
    got, unmatched = fractions(ts, rm)
    want, want_unmatched = ref_fractions(ts, rm)
    assert unmatched == want_unmatched > 0
    assert got == want


def ref_directions(edge, xy, termini, far_nodes):
    """patches._directions as a loop over the terminus runs."""
    dirs, last_term, inbound, i = [-1] * len(edge), None, -1, 0
    while i < len(edge):
        eid = int(edge[i])
        if eid in termini and eid != last_term:
            j = i
            while j < len(edge) and edge[j] == eid:
                j += 1
            node = far_nodes[eid]
            dists = [math.hypot(x - node[0], y - node[1]) for x, y in xy[i:j].tolist()]
            split = dists.index(min(dists))
            if 0 < split < len(dists) - 1 and \
                    dists[split + 1] - dists[split] > dists[split - 1] - dists[split]:
                split -= 1
            outbound = 0 if eid == termini[0] else 1
            dirs[i:j] = [inbound] * (split + 1) + [outbound] * (j - i - split - 1)
            last_term, inbound, i = eid, outbound, j
        else:
            dirs[i] = inbound
            i += 1
    return dirs


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1, 2, 7, 9]), st.integers(-3, 3), st.integers(-3, 3)),
                max_size=60), st.sampled_from([1.0, 0.37]))
def test_directions_match_the_per_run_loop(records, scale):
    # grid points tie often in distance to the turnaround node: the first
    # closest record of a run sets the split
    edge = np.array([e for e, _, _ in records], dtype=np.int64)
    xy = np.array([(x, y) for _, x, y in records], dtype=np.float64).reshape(-1, 2) * scale
    far_nodes = {7: (0.0, 0.0), 9: (2.0 * scale, 1.0)}
    assert patches._directions(edge, xy, (7, 9), far_nodes).tolist() == \
        ref_directions(edge, xy, (7, 9), far_nodes)


def test_derive_route_model_snaps_like_reference(small_map, monkeypatch):
    ts, rm, index = small_map
    picks = []

    def recording(*cands):
        picks.append(best_candidate(*cands))
        return picks[-1]

    monkeypatch.setattr(route, "best_candidate", recording)
    again = route.derive_route_model(rm.graph, ts, rm.rejection_radius)
    assert (again.termini, again.directions) == (rm.termini, rm.directions)
    assert len(picks) == len(ts.vehicles())  # one batch per vehicle trace
    rejected = 0
    for vid, (pos, along, dist) in zip(ts.vehicles(), picks):
        ref = ref_snaps(rm.graph, rm.rejection_radius, [(x, y) for _, x, y in ts.traces[vid].tolist()])
        within = dist <= rm.rejection_radius
        assert within.tolist() == [h is not None for h in ref]
        edge = index.ids[pos[within]]
        assert list(zip(edge.tolist(), along[within].tolist(), dist[within].tolist())) == \
            [h for h in ref if h is not None]
        rejected += np.count_nonzero(~within)
    assert rejected > 0  # the pushed records


@st.composite
def snap_cases(draw):
    """A random graph (shared nodes, coincident nodes, zero-length and
    parallel edges, ids negative and far apart), shifted by up to 3.5e7,
    two random direction sequences, a radius, and points: anywhere, on the
    edges, exactly the radius or just over it from a node, and far away."""
    shift = draw(st.sampled_from([0.0, 1e6, -3.5e7]))
    half = st.integers(-12, 12).map(lambda v: v / 2)
    nodes = draw(st.lists(st.tuples(half, half), min_size=1, max_size=6))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(nodes) - 1), st.integers(0, len(nodes) - 1)),
                          min_size=1, max_size=8))
    ids = draw(st.lists(st.integers(-10**12, 10**12), min_size=len(pairs), max_size=len(pairs),
                        unique=True))
    g = RouteGraph()
    g.nodes = {n: (x + shift, y + shift) for n, (x, y) in enumerate(nodes)}
    g.edges = {eid: (a, b, math.dist(nodes[a], nodes[b])) for eid, (a, b) in zip(ids, pairs)}
    radius = draw(st.sampled_from([0.25, 0.5, 1.0, 2.5, 6.0]))

    points = draw(st.lists(st.tuples(st.floats(-16, 16), st.floats(-16, 16)), max_size=12))
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=4)):
        u = draw(st.floats(0, 1))
        points.append((nodes[a][0] + u * (nodes[b][0] - nodes[a][0]),
                       nodes[a][1] + u * (nodes[b][1] - nodes[a][1])))
    for n in draw(st.lists(st.integers(0, len(nodes) - 1), max_size=6)):
        r = radius * draw(st.sampled_from([1.0, 1.0 + 1e-9]))
        dx, dy = draw(st.sampled_from([(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)]))
        points.append((nodes[n][0] + dx, nodes[n][1] + dy))
    points += [(1e3, 1e3), (-40.0, 0.0)]
    points = [(x + shift, y + shift) for x, y in points]

    directions, offset = [], 0.0
    for _ in range(2):
        seq = []
        for eid in draw(st.lists(st.sampled_from(ids), max_size=5)):
            seq.append(DirectedEdge(eid, draw(st.booleans()), offset, g.edges[eid][2]))
            offset += g.edges[eid][2]
        directions.append(seq)
    rm = RouteModel(g, (ids[0], ids[-1]), tuple(directions), offset + 1.0, radius)
    return rm, points


@settings(max_examples=300, deadline=None)
@given(snap_cases())
def test_candidates_pick_the_nearest_edge_within_the_radius(case):
    rm, points = case
    g, radius = rm.graph, rm.rejection_radius
    index = EdgeIndex(g, radius)
    cands = index.candidates(points)
    pos, _, dist = cands
    # a padding slot maps to no edge: its distance is inf
    edge = np.append(index.ids, 0)[pos]
    # every edge within the radius is a candidate, at the reference's distance
    ids, _, all_dist = ref_project_all(g, points)
    for i, row in enumerate(all_dist.tolist()):
        near = {(eid, d) for eid, d in zip(ids, row) if d <= radius}
        listed = {(e, d) for e, d in zip(edge[i].tolist(), dist[i].tolist()) if d <= radius}
        assert near == listed
    pos, along, dist = best_candidate(*cands)
    edge = np.append(index.ids, 0)[pos]
    ref = ref_snaps(g, radius, points)
    assert [(e, a, d) if d <= radius else None
            for e, a, d in zip(edge.tolist(), along.tolist(), dist.tolist())] == ref
    for d in (0, 1):
        frac, matched = route.CompletionTable(rm, d).fractions(*cands)
        assert [f if ok else None for f, ok in zip(frac.tolist(), matched.tolist())] == \
            ref_completions(rm, points, d)


def test_equidistant_edges_snap_to_the_lowest_id():
    # (10, 3) lies 3 units from the node both edges share; edge 5 runs
    # parallel to edge 0 between the same nodes
    g = RouteGraph()
    g.nodes = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (20.0, 0.0)}
    for right, left in ((0, 1), (1, 0)):
        g.edges = {left: (0, 1, 10.0), right: (1, 2, 10.0)}
        assert ref_snap(g, 5.0, 10.0, 3.0) == (0, 10.0 if left == 0 else 0.0, 3.0)  # a true tie
        assert EdgeIndex(g, 5.0).snap(10.0, 3.0) == ref_snap(g, 5.0, 10.0, 3.0)
    g.edges = {5: (1, 0, 10.0), 7: (1, 2, 10.0), 6: (0, 1, 10.0)}
    assert EdgeIndex(g, 5.0).snap(4.0, -2.0) == (5, 6.0, 2.0) == ref_snap(g, 5.0, 4.0, -2.0)
    assert EdgeIndex(g, 5.0).snap(4.0, -2.0, restrict={6, 7}) == (6, 4.0, 2.0)


def test_restricted_snap_finds_the_direction_edge_behind_a_spur():
    # (50, 8) lies on the spur and 8 units from the direction edges, inside
    # the 10-unit radius: restricted to a direction, it snaps to edge 0, the
    # lower id of the two edges that tie at the node they share
    rm = two_way_path(radius=10.0)
    index = EdgeIndex(rm.graph, rm.rejection_radius)
    assert index.snap(50.0, 8.0) == (2, 8.0, 0.0)
    assert index.snap(50.0, 8.0, restrict={0, 1}) == (0, 50.0, 8.0) == \
        ref_snap(rm.graph, rm.rejection_radius, 50.0, 8.0, restrict={0, 1})
    assert route_completion(rm, (50.0, 8.0), rm.termini[0]) == 0.25
    assert route_completion(rm, (50.0, 8.0), rm.termini[1]) == 0.75
    ts = TraceSet({"v": [(0, 5.0, 0.0), (10, 30.0, 0.0), (20, 50.0, 8.0), (30, 70.0, 0.0)]})
    rows, unmatched = fractions(ts, rm)
    assert (rows, unmatched) == ref_fractions(ts, rm)
    assert unmatched == 0 and rows["v"][1] == (20, 0.25, 50.0, 8.0)


def test_vehicles_without_snapped_records_add_only_unmatched():
    # "far" never comes within the radius, "none" has no records and "one"
    # has a single record on a terminus edge, before any direction is known
    rm = two_way_path(radius=10.0)
    index = EdgeIndex(rm.graph, rm.rejection_radius)
    ts = TraceSet({"far": [(0, 500.0, 500.0), (10, 510.0, 500.0)],
                   "none": [],
                   "one": [(3, 5.0, 0.0)],
                   "v": [(t, x, 0.0) for t, x in enumerate([5.0, 30.0, 70.0, 95.0, 60.0, 20.0, 3.0])]})
    rows, unmatched = fractions(ts, rm)
    assert (rows, unmatched) == ref_fractions(ts, rm)
    assert list(rows) == ["v"] and unmatched == 2 and type(unmatched) is int
    assert sum(patches.bin_counts(ts, rm, 4).counts) == len(rows["v"])
    dwell, streams = route._snap_dwell(index, ts, rm.rejection_radius)
    want_dwell, want_streams = ref_snap_dwell(index, ts, rm.rejection_radius)
    assert dwell.tolist() == want_dwell.tolist()
    assert [s.tolist() for s in streams[:3]] == [[], [], [0]]


def test_points_in_no_stored_cell_and_padding_slots_are_inf():
    # cells near (1, 0) list edges 0 and 1, the cells of edge 2 list it alone
    g = RouteGraph()
    g.nodes = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0), 3: (10.0, 0.0), 4: (11.0, 0.0)}
    g.edges = {0: (0, 1, 1.0), 1: (1, 2, 1.0), 2: (3, 4, 1.0)}
    index = EdgeIndex(g, 1.0)
    pos, along, dist = index.candidates([(1.0, 0.5), (10.5, 0.0), (40.0, 0.0), (math.nan, 0.0)])
    assert pos.shape == along.shape == dist.shape == (4, index._rows.shape[1])
    assert pos.shape[1] >= 2
    assert dist[0].tolist()[:2] == [0.5, 0.5] and pos[0].tolist()[:2] == [0, 1]
    assert np.isfinite(dist[1]).tolist() == [True] + [False] * (pos.shape[1] - 1)
    assert np.isinf(dist[2:]).all()
    assert (pos[np.isinf(dist)] == len(index.ids)).all()  # the padding position
    assert index.snap(10.5, 0.5) == (2, 0.5, 0.5)
    assert index.snap(40.0, 0.0) is None


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_a_radius_that_is_not_finite_and_positive_is_a_route_error(radius):
    rm = two_way_path()
    ts = TraceSet({"v": [(0, 5.0, 0.0), (10, 95.0, 0.0)]})
    with pytest.raises(RouteError, match="rejection radius must be finite and > 0"):
        EdgeIndex(rm.graph, radius)
    with pytest.raises(RouteError, match="rejection radius must be finite and > 0"):
        route.derive_route_model(rm.graph, ts, radius)


def test_a_tiny_radius_builds_a_bounded_index_quickly():
    # the cell side stays at least the graph's extent over _GRID_CELLS, so
    # the cell count does not grow as the radius shrinks
    rm = replace(two_way_path(), rejection_radius=1e-12)
    start = time.perf_counter()
    index = EdgeIndex(rm.graph, rm.rejection_radius)
    assert time.perf_counter() - start < 2.0
    assert len(index._keys) < 16 * route._GRID_CELLS
    assert index.snap(25.0, 1e-12) == (0, 25.0, 1e-12)
    assert route_completion(rm, (75.0, 0.0), rm.termini[0]) == 0.375
    with pytest.raises(UnmatchedMeasurement):
        route_completion(rm, (75.0, 1e-11), rm.termini[0])
    # far from the origin the cells stay wider than the coordinates' float spacing
    far = replace(rm, graph=RouteGraph({n: (x + 1e9, y - 1e9) for n, (x, y) in rm.graph.nodes.items()},
                                       rm.graph.edges))
    start = time.perf_counter()
    index = EdgeIndex(far.graph, far.rejection_radius)
    assert time.perf_counter() - start < 2.0
    assert len(index._keys) < 16 * route._GRID_CELLS
    assert route_completion(far, (1e9 + 75.0, -1e9), far.termini[0]) == 0.375


def relabelled(rm, new_id):
    """The same route model with every edge id e replaced by new_id[e]."""
    g = RouteGraph()
    g.nodes = dict(rm.graph.nodes)
    g.edges = {new_id[e]: v for e, v in rm.graph.edges.items()}
    dirs = tuple([replace(de, edge_id=new_id[de.edge_id]) for de in seq] for seq in rm.directions)
    return RouteModel(g, tuple(new_id[e] for e in rm.termini), dirs, rm.loop_length, rm.rejection_radius)


def test_negative_and_sparse_edge_ids_snap_like_dense_ones():
    rm = two_way_path(radius=10.0)
    odd = relabelled(rm, {0: -7, 1: 10**12, 2: -1})
    ts = TraceSet({"v": [(t, x, y) for t, (x, y) in
                         enumerate([(5, 1), (30, -2), (50, 8), (50, 25), (70, 0), (95, 1), (60, 2), (20, 0)])]})
    want = fractions(ts, rm)
    index = EdgeIndex(odd.graph, odd.rejection_radius)
    assert fractions(ts, odd) == want == ref_fractions(ts, odd)
    assert want[0]["v"] and want[1] > 0
    assert index.snap(50.0, 25.0) == (-1, 25.0, 0.0)
    assert index.snap(80.0, 3.0) == ref_snap(odd.graph, 10.0, 80.0, 3.0)
    assert index.snap(80.0, 3.0)[0] == 10**12
    assert route_completion(odd, (80.0, 3.0), odd.termini[0]) == \
        route_completion(rm, (80.0, 3.0), rm.termini[0])


def test_chunked_batches_give_the_same_picks(small_map, monkeypatch):
    ts, rm, _ = small_map
    whole = fractions(ts, rm)
    sizes = []
    real = EdgeIndex.candidates

    def recording(self, points):
        sizes.append(len(points))
        return real(self, points)

    monkeypatch.setattr(EdgeIndex, "batch", 100)
    monkeypatch.setattr(EdgeIndex, "candidates", recording)
    assert fractions(ts, rm) == whole
    again = route.derive_route_model(rm.graph, ts, rm.rejection_radius)
    assert (again.termini, again.directions) == (rm.termini, rm.directions)
    assert max(sizes) == 100 and sum(sizes) == 2 * len(ts)


@pytest.mark.parametrize("ids", ["dense", "sparse"])
def test_route_derivation_matches_per_record_reference(small_map, monkeypatch, ids):
    ts, rm, _ = small_map
    if ids == "sparse":  # negative, far apart, and out of order against the dense ids
        rm = relabelled(rm, {e: (-1) ** e * (e * 10**9 + 7) for e in rm.graph.edges})
    index = route.EdgeIndex(rm.graph, rm.rejection_radius)
    dwell, streams = route._snap_dwell(index, ts, rm.rejection_radius)
    want_dwell, want_streams = ref_snap_dwell(index, ts, rm.rejection_radius)
    assert dwell.tolist() == want_dwell.tolist()
    assert sum(map(len, streams)) < sum(map(len, want_streams))  # repeats were dropped
    assert route._passages(streams, *rm.termini) == ref_passages(want_streams, *rm.termini)
    got = route.derive_route_model(rm.graph, ts, rm.rejection_radius)
    monkeypatch.setattr(route, "_snap_dwell", ref_snap_dwell)
    monkeypatch.setattr(route, "_passages", ref_passages)
    want = route.derive_route_model(rm.graph, ts, rm.rejection_radius)
    assert (got.termini, got.directions) == (want.termini, want.directions)
    assert set(got.termini) == set(rm.termini)

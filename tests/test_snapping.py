"""Batched snapping against a scalar per-point reference.

The reference below is the per-point projection loop: one KD-tree query per
point, the owners of its k nearest samples in nearest-sample order, each
projected with plain float arithmetic, and the first strictly smaller
distance kept.  The production path (`EdgeIndex.candidates`) must pick the
same edge with the same along-distance for every record.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from headwaylab import graphs, patches, raster, route, synthetic
from headwaylab.graphs import RouteGraph
from headwaylab.ingest import AvlRecord, TraceSet
from headwaylab.route import (DirectedEdge, EdgeIndex, RouteModel, UnmatchedMeasurement,
                              best_candidate, route_completion)


# --- scalar reference ------------------------------------------------------

def ref_project(graph, eid, x, y):
    a, b, ln = graph.edges[eid]
    pa, pb = graph.nodes[a], graph.nodes[b]
    dx, dy = pb[0] - pa[0], pb[1] - pa[1]
    t = 0.0 if ln == 0 else ((x - pa[0]) * dx + (y - pa[1]) * dy) / (ln * ln)
    t = min(1.0, max(0.0, t))
    px, py = pa[0] + dx * t, pa[1] + dy * t
    return t * ln, math.hypot(x - px, y - py)


def ref_snap(index, x, y, k=6, restrict=None):
    _, idx = index.tree.query((x, y), k=k)
    best = None
    for eid in dict.fromkeys(index.owners[np.atleast_1d(idx)]):
        if restrict is not None and eid not in restrict:
            continue
        along, dist = ref_project(index.graph, int(eid), x, y)
        if best is None or dist < best[2]:
            best = (int(eid), along, dist)
    return best


def ref_completion(rm, index, x, y, last_terminus):
    seq = rm.directions[0 if last_terminus == rm.termini[0] else 1]
    hit = ref_snap(index, x, y, restrict={e.edge_id for e in seq})
    if hit is None or hit[2] > rm.rejection_radius:
        return None
    eid, along, _ = hit
    de = next(de for de in seq if de.edge_id == eid)
    within = along if de.forward else de.length - along
    return min((de.start_offset + within) / rm.loop_length, math.nextafter(1.0, 0.0))


def ref_fractions(ts, rm, index):
    """compute_fractions with every snap made by ref_snap, point by point."""
    term_a, term_b = rm.termini
    far_nodes = patches._terminus_far_nodes(rm)
    out, unmatched = {}, 0

    def completion(rec, term):
        nonlocal unmatched
        frac = ref_completion(rm, index, rec.x, rec.y, term)
        unmatched += frac is None
        return frac

    for vid in ts.vehicles():
        snaps = []
        for rec in ts.traces[vid]:
            hit = ref_snap(index, rec.x, rec.y)
            if hit is None or hit[2] > rm.rejection_radius:
                unmatched += 1
                continue
            snaps.append((rec, hit[0]))
        rows, last_term, i = [], None, 0
        while i < len(snaps):
            rec, eid = snaps[i]
            if eid in (term_a, term_b) and eid != last_term:
                j = i
                while j < len(snaps) and snaps[j][1] == eid:
                    j += 1
                run = [r for r, _ in snaps[i:j]]
                node = far_nodes[eid]
                dists = [math.hypot(r.x - node[0], r.y - node[1]) for r in run]
                split = dists.index(min(dists))
                if 0 < split < len(run) - 1 and \
                        dists[split + 1] - dists[split] > dists[split - 1] - dists[split]:
                    split -= 1
                for k, r in enumerate(run):
                    if k > split or last_term is not None:
                        frac = completion(r, eid if k > split else last_term)
                        if frac is not None:
                            rows.append((r.t, frac, r.x, r.y))
                last_term, i = eid, j
                continue
            if last_term is not None:
                frac = completion(rec, last_term)
                if frac is not None:
                    rows.append((rec.t, frac, rec.x, rec.y))
            i += 1
        if rows:
            out[vid] = rows
    return out, unmatched


# --- fixtures ----------------------------------------------------------------

@pytest.fixture(scope="module")
def small_map():
    """4 buses x 3 days of the 8-patch fixture, every 37th record pushed off
    the route, through heat map, skeleton, graph and route derivation."""
    ts = synthetic.generate_traces(synthetic.default_eight_patch_model(), n_buses=4, days=3, seed=3)
    ts = TraceSet({vid: [replace(r, x=r.x + 25.0 * (i % 3), y=r.y - 40.0) if i % 37 == 0 else r
                         for i, r in enumerate(recs)] for vid, recs in ts.traces.items()})
    heat = raster.rasterize_heatmap(ts, resolution=300, delta=0.0)
    blur = raster.gaussian_blur(heat, 1.0)
    eta = float(np.percentile(blur.intensity[blur.intensity > 0], 90)) / 40
    g = graphs.build_graph(raster.skeletonize(blur, tau=0.3, eta=eta), epsilon=2.0)
    rm = route.derive_route_model(g, ts, rejection_radius=3 * heat.cell_size)
    return ts, rm, EdgeIndex(g, sample_step=rm.rejection_radius / 2)


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
    recs = list(ts.all_records())
    cands = index.candidates([(r.x, r.y) for r in recs])
    for d, term in enumerate(rm.termini):
        frac, matched = route.CompletionTable(rm, d).fractions(*cands)
        ref = [ref_completion(rm, index, r.x, r.y, term) for r in recs]
        assert [f if ok else None for f, ok in zip(frac.tolist(), matched.tolist())] == ref


def test_compute_fractions_matches_reference(small_map):
    ts, rm, index = small_map
    got, unmatched = patches.compute_fractions(ts, rm, index)
    want, want_unmatched = ref_fractions(ts, rm, index)
    assert unmatched == want_unmatched > 0
    assert got == want
    assert all(type(f) is float for rows in got.values() for _, f, _, _ in rows)


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
    for vid, (edge, along, dist) in zip(ts.vehicles(), picks):
        ref = [ref_snap(index, r.x, r.y) for r in ts.traces[vid]]
        assert edge.tolist() == [h[0] for h in ref]
        assert along.tolist() == [h[1] for h in ref]
        far = [d > rm.rejection_radius for d in dist.tolist()]
        assert far == [h[2] > rm.rejection_radius for h in ref]
        rejected += sum(far)
    assert rejected > 0  # the pushed records


def test_equidistant_shared_node_takes_first_candidate_in_kd_order():
    g = RouteGraph()
    g.nodes = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (20.0, 0.0)}
    g.edges = {0: (0, 1, 10.0), 1: (1, 2, 10.0)}
    index = EdgeIndex(g, sample_step=5.0)
    assert ref_project(g, 0, 10.0, 3.0)[1] == ref_project(g, 1, 10.0, 3.0)[1] == 3.0  # a true tie
    _, idx = index.tree.query((10.0, 3.0), k=6)
    first = int(index.owners[idx[0]])
    hit = index.snap(10.0, 3.0)
    assert hit == ref_snap(index, 10.0, 3.0)
    assert hit[0] == first and hit[2] == 3.0
    assert hit[1] == (10.0 if first == 0 else 0.0)


def test_restricted_snap_without_direction_candidate_stays_unmatched():
    # the direction edge lies 8 units away, inside the 10-unit radius, but
    # the 6 nearest samples all sit on the spur
    rm = two_way_path(radius=10.0)
    index = EdgeIndex(rm.graph, sample_step=1.0)
    assert index.snap(50.0, 8.0)[0] == 2
    assert index.snap(50.0, 8.0, restrict={0, 1}) is None
    assert ref_snap(index, 50.0, 8.0, restrict={0, 1}) is None
    with pytest.raises(UnmatchedMeasurement):
        route_completion(rm, (50.0, 8.0), rm.termini[0], index)
    ts = TraceSet({"v": [AvlRecord("v", 5.0, 0.0, 0), AvlRecord("v", 30.0, 0.0, 10),
                         AvlRecord("v", 50.0, 8.0, 20), AvlRecord("v", 70.0, 0.0, 30)]})
    rows, unmatched = patches.compute_fractions(ts, rm, index)
    assert (rows, unmatched) == ref_fractions(ts, rm, index)
    assert unmatched == 1 and [t for t, *_ in rows["v"]] == [10, 30]


def test_index_with_fewer_samples_than_k():
    g = RouteGraph()
    g.nodes = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}
    g.edges = {0: (0, 1, 1.0), 1: (1, 2, 1.0)}
    index = EdgeIndex(g, sample_step=1.0)
    assert index.owners.size == 4
    edge, along, dist = index.snap(0.5, 0.1)
    assert (edge, along) == (0, 0.5) and dist == pytest.approx(0.1)
    assert index.candidates([(0.5, 0.1), (1.5, -0.1)])[0].shape == (2, 4)


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
    ts = TraceSet({"v": [AvlRecord("v", x, y, t) for t, (x, y) in
                         enumerate([(5, 1), (30, -2), (50, 8), (50, 25), (70, 0), (95, 1), (60, 2), (20, 0)])]})
    want = patches.compute_fractions(ts, rm, EdgeIndex(rm.graph, sample_step=1.0))
    index = EdgeIndex(odd.graph, sample_step=1.0)
    assert patches.compute_fractions(ts, odd, index) == want == ref_fractions(ts, odd, index)
    assert want[0]["v"] and want[1] > 0
    assert index.snap(50.0, 25.0) == (-1, 25.0, 0.0)
    assert index.snap(80.0, 3.0) == ref_snap(index, 80.0, 3.0) and index.snap(80.0, 3.0)[0] == 10**12
    assert route_completion(odd, (80.0, 3.0), odd.termini[0], index) == \
        route_completion(rm, (80.0, 3.0), rm.termini[0])


def test_chunked_batches_give_the_same_picks(small_map, monkeypatch):
    ts, rm, index = small_map
    whole = patches.compute_fractions(ts, rm, index)
    sizes = []
    real = EdgeIndex.candidates

    def recording(self, points, k=6):
        sizes.append(len(points))
        return real(self, points, k)

    monkeypatch.setattr(EdgeIndex, "batch", 100)
    monkeypatch.setattr(EdgeIndex, "candidates", recording)
    assert patches.compute_fractions(ts, rm, index) == whole
    again = route.derive_route_model(rm.graph, ts, rm.rejection_radius)
    assert (again.termini, again.directions) == (rm.termini, rm.directions)
    assert max(sizes) == 100 and sum(sizes) == 2 * len(list(ts.all_records()))

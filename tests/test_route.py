import math

import pytest

from conftest import straight_route_model, traces_from_fractions
from headwaylab import route
from headwaylab.graphs import RouteGraph
from headwaylab.ingest import AvlRecord, TraceSet
from headwaylab.route import (DirectedEdge, InsufficientCoverageError, RouteModel,
                              UnmatchedMeasurement, derive_route_model,
                              read_route_model, route_completion, write_route_model)


def path_graph(n_edges=8, edge_len=100.0):
    g = RouteGraph()
    for i in range(n_edges + 1):
        g.nodes[i] = (i * edge_len, 0.0)
    for i in range(n_edges):
        g.edges[i] = (i, i + 1, edge_len)
    return g


def dwell_traces(n_edges=8, edge_len=100.0, dwell=300, hop=10, loops=3):
    """Vehicles shuttle end to end, dwelling at the extreme edges."""
    recs = []
    t = 0
    x = 5.0
    top = n_edges * edge_len - 5.0
    for _ in range(loops):
        for _ in range(dwell // hop):
            recs.append(AvlRecord("v", 2.0, 0.0, t))
            t += hop
        # travel out: one record per edge midpoint
        for k in range(n_edges):
            recs.append(AvlRecord("v", k * edge_len + edge_len / 2, 0.0, t))
            t += hop
        for _ in range(dwell // hop):
            recs.append(AvlRecord("v", top, 0.0, t))
            t += hop
        for k in reversed(range(n_edges)):
            recs.append(AvlRecord("v", k * edge_len + edge_len / 2, 0.0, t))
            t += hop
    return TraceSet({"v": recs})


def test_termini_by_dwell_score():
    g = path_graph()
    rm = derive_route_model(g, dwell_traces(), rejection_radius=30.0)
    assert set(rm.termini) == {0, 7}
    assert rm.loop_length == pytest.approx(1600.0)
    assert rm.direction_length(0) == pytest.approx(800.0)


def test_termini_extremes_fallback():
    g = path_graph()
    rm = derive_route_model(g, dwell_traces(), rejection_radius=30.0,
                            terminus_mode="extremes")
    assert set(rm.termini) == {0, 7}


def test_insufficient_coverage():
    g = path_graph()
    # vehicle never completes a passage
    ts = TraceSet({"v": [AvlRecord("v", 5.0, 0.0, t) for t in range(0, 100, 10)]})
    with pytest.raises(InsufficientCoverageError):
        derive_route_model(g, ts, rejection_radius=30.0)


def test_route_completion_loop_midpoint():
    # loop of length 100: out-and-back over a 50-unit path
    rm = straight_route_model(n_edges=5, edge_len=10.0, radius=5.0)
    assert rm.loop_length == pytest.approx(100.0)
    # arc-distance 50 from the start terminus is the far end: start of direction 2
    f = route_completion(rm, (50.0, 0.0), rm.termini[1])
    assert f == pytest.approx(0.5)


def test_route_completion_start_terminus_zero():
    rm = straight_route_model(n_edges=5, edge_len=10.0, radius=5.0)
    assert route_completion(rm, (0.0, 0.0), rm.termini[0]) == pytest.approx(0.0)


def test_route_completion_offset_arithmetic():
    # snapped edge starts at cumulative 3.1 of L = 12.4: fraction 0.25
    g = RouteGraph()
    g.nodes = {0: (0.0, 0.0), 1: (3.1, 0.0), 2: (6.2, 0.0)}
    g.edges = {0: (0, 1, 3.1), 1: (1, 2, 3.1)}
    d1 = [DirectedEdge(0, True, 0.0, 3.1), DirectedEdge(1, True, 3.1, 3.1)]
    d2 = [DirectedEdge(1, False, 6.2, 3.1), DirectedEdge(0, False, 9.3, 3.1)]
    rm = RouteModel(g, (0, 1), (d1, d2), 12.4, 1.0)
    f = route_completion(rm, (3.1, 0.0), rm.termini[0])
    assert f == pytest.approx(3.1 / 12.4)
    assert f == pytest.approx(0.25)


def test_route_completion_rejects_far_points():
    rm = straight_route_model(n_edges=5, edge_len=10.0, radius=2.0)
    with pytest.raises(UnmatchedMeasurement):
        route_completion(rm, (25.0, 50.0), rm.termini[0])


def test_completion_monotone_along_travel():
    rm = straight_route_model(n_edges=10, edge_len=10.0, radius=5.0)
    fr = [route_completion(rm, (x, 0.0), rm.termini[0]) for x in range(0, 100, 7)]
    assert all(b > a for a, b in zip(fr, fr[1:]))
    back = [route_completion(rm, (x, 0.0), rm.termini[1]) for x in range(99, 0, -7)]
    assert all(b > a for a, b in zip(back, back[1:]))
    assert all(0.5 <= f < 1.0 for f in back)


def test_route_model_file_roundtrip(tmp_path):
    rm = straight_route_model()
    path = str(tmp_path / "route.txt")
    write_route_model(rm, path)
    back = read_route_model(path, rm.graph)
    assert back.termini == rm.termini
    assert back.loop_length == rm.loop_length
    assert [(d.edge_id, d.forward, d.start_offset) for d in back.directions[0]] == \
           [(d.edge_id, d.forward, d.start_offset) for d in rm.directions[0]]


def test_route_model_file_validates_offsets(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("termini 0 1\nloop_length 10.0\nrejection_radius 1.0\n"
                 "segment 0 0 1 5.0 5.0\nsegment 0 1 1 2.0 5.0\n")
    with pytest.raises(route.RouteError):
        read_route_model(str(p), straight_route_model().graph)


def test_route_model_file_rejects_unknown_edge(tmp_path):
    p = tmp_path / "route.txt"
    p.write_text("termini 0 1\nloop_length 10.0\nrejection_radius 1.0\n"
                 "segment 0 0 1 0.0 5.0\nsegment 1 999 0 5.0 5.0\n")
    with pytest.raises(route.RouteError, match="edge 999"):
        read_route_model(str(p), straight_route_model().graph)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headwaylab import graphs
from headwaylab.graphs import (GraphError, RouteGraph, build_graph,
                               rdp, read_graph, segment_distance, write_graph)
from headwaylab.raster import SkeletonMask


def mask_from_pixels(pixels, shape=(40, 120)):
    m = np.zeros(shape, dtype=bool)
    for i, j in pixels:
        m[i, j] = True
    return SkeletonMask(m, 1.0, (0.0, 0.0))


def test_rdp_collinear_collapses():
    pts = [(float(i), 0.0) for i in range(100)]
    assert rdp(pts, 1.0) == [(0.0, 0.0), (99.0, 0.0)]


def test_rdp_right_angle_keeps_corner():
    pts = [(float(i), 0.0) for i in range(51)] + [(50.0, float(j)) for j in range(1, 51)]
    out = rdp(pts, 1.0)
    assert out == [(0.0, 0.0), (50.0, 0.0), (50.0, 50.0)]


def max_deviation(points, kept):
    """Largest distance from any input point to the simplified polyline."""
    worst = 0.0
    for p in points:
        best = math.inf
        for a, b in zip(kept, kept[1:]):
            ax, ay = a
            bx, by = b
            dx, dy = bx - ax, by - ay
            L2 = dx * dx + dy * dy
            t = 0.0 if L2 == 0 else max(0.0, min(1.0, ((p[0] - ax) * dx + (p[1] - ay) * dy) / L2))
            best = min(best, math.hypot(p[0] - ax - t * dx, p[1] - ay - t * dy))
        worst = max(worst, best)
    return worst


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                min_size=2, max_size=25),
       st.floats(0.1, 5.0))
def test_rdp_deviation_bound_and_subset(pts, eps):
    out = rdp(pts, eps)
    assert out[0] == pts[0] and out[-1] == pts[-1]
    assert all(p in pts for p in out)
    assert max_deviation(pts, out) <= eps + 1e-9


def test_straight_run_single_edge():
    mask = mask_from_pixels([(5, j) for j in range(4, 104)])
    g = build_graph(mask, epsilon=1.0)
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    assert g.total_length() == pytest.approx(99.0)


def test_three_neighbor_pixel_becomes_degree3_node():
    pixels = [(20, j) for j in range(5, 40)] + [(i, 20) for i in range(10, 20)]
    g = build_graph(mask_from_pixels(pixels), epsilon=1.0)
    degree = {}
    for a, b, _ in g.edges.values():
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    assert max(degree.values()) == 3


def test_largest_component_kept():
    pixels = [(5, j) for j in range(4, 84)] + [(20, j) for j in range(4, 14)]
    g = build_graph(mask_from_pixels(pixels), epsilon=1.0)
    ys = {g.nodes[n][1] for n in g.nodes}
    assert ys == {5.5}  # the short second component is dropped


def test_long_edge_split():
    # a comb: one long spine and two short teeth; the spine edge exceeds
    # twice the median and splits into chunks of about the median
    pixels = ([(5, j) for j in range(4, 104)]
              + [(i, 20) for i in range(6, 11)] + [(i, 80) for i in range(6, 11)])
    g = build_graph(mask_from_pixels(pixels), epsilon=1.0, split_divisor=1.0)
    lengths = sorted(e[2] for e in g.edges.values())
    assert len(g.edges) > 4
    assert max(lengths) <= 2.5 * np.median(lengths)


def test_empty_mask_error():
    with pytest.raises(GraphError):
        build_graph(mask_from_pixels([]), epsilon=1.0)


def test_pure_cycle_traced():
    pixels = ([(10, j) for j in range(10, 30)] + [(20, j) for j in range(10, 30)]
              + [(i, 10) for i in range(11, 20)] + [(i, 29) for i in range(11, 20)])
    g = build_graph(mask_from_pixels(pixels), epsilon=1.0)
    assert g.total_length() > 50
    # a cycle has as many edges as nodes
    assert len(g.edges) >= len(g.nodes)


def test_graph_file_roundtrip(tmp_path):
    g = RouteGraph({0: (0.0, 0.0), 1: (3.0, 4.0), 2: (6.0, 4.0)},
                   {0: (0, 1, 5.0), 1: (1, 2, 3.0)})
    path = str(tmp_path / "g.txt")
    write_graph(g, path)
    back = read_graph(path)
    assert back.nodes == g.nodes
    assert back.edges == g.edges


def test_graph_file_rejects_nonpositive_length(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("node 0 0 0\nnode 1 1 0\nedge 0 0 1 0.0\n")
    with pytest.raises(GraphError):
        read_graph(str(path))


def test_graph_file_roundtrip_numpy_scalars(tmp_path):
    # build_graph takes node coordinates from numpy arrays
    g = RouteGraph({0: (np.float64(0.5), np.float64(8.788)), 1: (np.float64(3.5), np.float64(12.788))},
                   {0: (0, 1, np.float64(5.0))})
    path = str(tmp_path / "g.txt")
    write_graph(g, path)
    back = read_graph(path)
    assert back.nodes == g.nodes
    assert back.edges == g.edges

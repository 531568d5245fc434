"""Skeleton-to-graph conversion: crossing detection, run tracing, polyline
simplification (Ramer-Douglas-Peucker), long-edge splitting, node merging.

The walk over the skeleton uses the pixel layout of `raster`'s thinning: the
mask framed by one unset pixel and addressed by flat index, so the eight
neighbours of a pixel sit at fixed flat offsets and every set pixel has all
eight inside the array.  The eight steps are those of `_NBRS`, row by row,
not `raster`'s ring order: the step order decides which run is traced first,
and so the edge ids.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .artifacts import read_lines, write_lines
from .raster import frame, neighbour_counts


class GraphError(ValueError):
    pass


@dataclass
class RouteGraph:
    nodes: dict[int, tuple[float, float]] = field(default_factory=dict)
    edges: dict[int, tuple[int, int, float]] = field(default_factory=dict)  # id -> (n1, n2, length)

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        adj = defaultdict(list)
        for eid, (a, b, _) in self.edges.items():
            adj[a].append((b, eid))
            adj[b].append((a, eid))
        return adj

    def total_length(self) -> float:
        return sum(e[2] for e in self.edges.values())


def segment_distance(p, a, b) -> float:
    """Distance from p to the segment a-b (clamped projection)."""
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / L2))
    return math.hypot(px - ax - t * dx, py - ay - t * dy)


def rdp(points: list[tuple[float, float]], epsilon: float) -> list[tuple[float, float]]:
    """Ramer-Douglas-Peucker simplification with point-to-segment deviation.

    Output vertices are a subset of the input, endpoints are always kept, and
    every input point lies within epsilon of the simplified polyline."""
    if len(points) < 3:
        return list(points)
    stack = [(0, len(points) - 1)]
    keep = np.zeros(len(points), dtype=bool)
    keep[0] = keep[-1] = True
    while stack:
        lo, hi = stack.pop()
        best, best_d = -1, epsilon
        for k in range(lo + 1, hi):
            d = segment_distance(points[k], points[lo], points[hi])
            if d > best_d:
                best, best_d = k, d
        if best >= 0:
            keep[best] = True
            stack.append((lo, best))
            stack.append((best, hi))
    return [p for p, k in zip(points, keep) if k]


# tracing order: it fixes the order of runs, hence the edge ids
_NBRS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def build_graph(skel, epsilon: float, split_divisor: float = 1.0) -> RouteGraph:
    """Turn a skeleton mask into a pruned route graph.

    Node pixels are skeleton pixels whose 8-neighbour count is not 0 or 2
    (ends and crossings); 8-adjacent node pixels merge into one node.  Pixel
    runs between nodes become polylines, each simplified by RDP with tolerance
    epsilon (in cells).  Edges longer than twice the median edge length are
    split into chunks of about median/split_divisor.  Only the largest
    connected component (by total length) is kept.
    """
    if not epsilon >= 0:
        raise GraphError(f"epsilon must be >= 0, got {epsilon}")
    if not split_divisor >= 1:
        raise GraphError(f"split divisor must be >= 1, got {split_divisor}")
    mask = skel.mask
    if not mask.any():
        raise GraphError("empty skeleton mask")
    cs = skel.cell_size
    ox, oy = skel.origin
    framed = frame(mask)
    width = framed.shape[1]
    counts = neighbour_counts(framed).ravel()
    on = framed.ravel()
    node = on & (counts != 0) & (counts != 2)
    steps = [di * width + dj for di, dj in _NBRS]

    # merge 8-adjacent node pixels into clusters
    cluster: dict[int, int] = {}  # cluster pixel -> the id of its cluster
    clusters: list[list[int]] = []
    for p in np.flatnonzero(node).tolist():
        if p in cluster:
            continue
        cid = len(clusters)
        cluster[p] = cid
        comp = [p]
        stack = [p]
        while stack:
            a = stack.pop()
            for s in steps:
                q = a + s
                if node[q] and q not in cluster:
                    cluster[q] = cid
                    comp.append(q)
                    stack.append(q)
        clusters.append(comp)

    def world(p):
        i, j = divmod(p, width)  # in the frame: one row and one column past the mask's
        return (ox + (j - 0.5) * cs, oy + (i - 0.5) * cs)

    # trace runs of degree-2 pixels between node clusters.  A run pixel has
    # exactly two set neighbours, one of them the pixel it was entered from.
    def trace(start, first):
        path = [start, first]
        prev, cur = start, first
        while cur not in cluster:
            for s in steps:
                nxt = cur + s
                if nxt != prev and on[nxt]:
                    break
            prev, cur = cur, nxt
            path.append(cur)
        return path, cluster[cur]

    walked: set[tuple[int, int]] = set()  # (cluster pixel, run pixel) of each run's far end
    cycles = on & (counts == 2)  # the degree-2 pixels no run has walked
    polylines: list[tuple[int, int, list[int]]] = []  # (cluster a, cluster b, pixels)
    for cid, comp in enumerate(clusters):
        for px in comp:
            for s in steps:
                p = px + s
                if not on[p] or p in cluster or (px, p) in walked:
                    continue
                path, end_cid = trace(px, p)
                cycles[path] = False
                walked.add((path[-1], path[-2]))
                if end_cid == cid and len(path) <= 3:
                    continue  # degenerate loop within one cluster
                polylines.append((cid, end_cid, path))

    # the rest form components of degree-2 pixels only (pure cycles): anchor at min pixel
    for start in np.flatnonzero(cycles).tolist():
        if not cycles[start]:
            continue
        cid = len(clusters)
        clusters.append([start])
        cluster[start] = cid
        path, _ = trace(start, next(start + s for s in steps if on[start + s]))
        polylines.append((cid, cid, path))
        cycles[path] = False

    # simplify each polyline; collect edges as world-coordinate segments
    segments: list[tuple[tuple[float, float], tuple[float, float]]] = []
    endpoints_cluster: dict[tuple[float, float], int] = {}
    for cid_a, cid_b, path in polylines:
        simplified = rdp([world(p) for p in path], epsilon * cs)
        endpoints_cluster[simplified[0]] = cid_a
        endpoints_cluster[simplified[-1]] = cid_b
        for a, b in zip(simplified, simplified[1:]):
            segments.append((a, b))

    if not segments:
        raise GraphError("skeleton produced no edges")

    lengths = [math.dist(a, b) for a, b in segments]
    median = float(np.median(lengths))
    chunk = median / split_divisor if median > 0 else 0.0
    split_segments = []
    for (a, b), ln in zip(segments, lengths):
        if median > 0 and ln > 2 * median and chunk > 0:
            pieces = max(1, round(ln / chunk))
            cuts = [a] + [(a[0] + (b[0] - a[0]) * k / pieces,
                           a[1] + (b[1] - a[1]) * k / pieces) for k in range(1, pieces)] + [b]
            for pa, pb in zip(cuts, cuts[1:]):
                split_segments.append((pa, pb))
        else:
            split_segments.append((a, b))

    # build nodes: cluster endpoints share a node id; everything else by coordinate
    g = RouteGraph()
    node_id_by_key: dict = {}

    def node_for(pt):
        key = ("c", endpoints_cluster[pt]) if pt in endpoints_cluster else ("p", pt)
        if key not in node_id_by_key:
            nid = len(g.nodes)
            node_id_by_key[key] = nid
            if key[0] == "c":  # the centroid, summed left to right as sum() did before Python 3.12
                pts = [world(p) for p in clusters[key[1]]]
                g.nodes[nid] = tuple(reduce(add, axis) / len(pts) for axis in zip(*pts))
            else:
                g.nodes[nid] = pt
        return node_id_by_key[key]

    seen_pairs = set()
    for a, b in split_segments:
        na, nb = node_for(a), node_for(b)
        if na == nb:
            continue
        length = math.dist(g.nodes[na], g.nodes[nb])
        if length <= 0:
            continue
        pair = (min(na, nb), max(na, nb))
        if pair in seen_pairs and length < cs:
            continue  # collapse sub-cell parallel edges
        seen_pairs.add(pair)
        g.edges[len(g.edges)] = (na, nb, length)

    return _largest_component(g)


def _largest_component(g: RouteGraph) -> RouteGraph:
    adj = g.adjacency()
    seen: set[int] = set()
    best_edges: set[int] = set()
    best_len = -1.0
    for start in g.nodes:
        if start in seen:
            continue
        comp_nodes = {start}
        comp_edges = set()
        stack = [start]
        seen.add(start)
        while stack:
            n = stack.pop()
            for m, eid in adj[n]:
                comp_edges.add(eid)
                if m not in seen:
                    seen.add(m)
                    comp_nodes.add(m)
                    stack.append(m)
        total = sum(g.edges[e][2] for e in comp_edges)
        if total > best_len:
            best_len = total
            best_edges = comp_edges
    out = RouteGraph()
    keep_nodes = set()
    for e in best_edges:
        a, b, _ = g.edges[e]
        keep_nodes.add(a)
        keep_nodes.add(b)
    out.nodes = {n: g.nodes[n] for n in keep_nodes}
    out.edges = {e: g.edges[e] for e in sorted(best_edges)}
    return out


def write_graph(g: RouteGraph, path: str) -> None:
    rows = [("node", nid, *g.nodes[nid]) for nid in sorted(g.nodes)]
    rows += [("edge", eid, *g.edges[eid]) for eid in sorted(g.edges)]
    write_lines(path, rows)


def read_graph(path: str) -> RouteGraph:
    g = RouteGraph()

    def parse(fields):
        if fields[0] == "node":
            _, nid, x, y = fields
            g.nodes[int(nid)] = (float(x), float(y))
        elif fields[0] == "edge":
            _, eid, a, b, ln = fields
            if float(ln) <= 0:
                raise GraphError("edge length must be positive")
            g.edges[int(eid)] = (int(a), int(b), float(ln))

    read_lines(path, parse)
    return g

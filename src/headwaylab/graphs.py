"""Skeleton-to-graph conversion: crossing detection, run tracing, polyline
simplification (Ramer-Douglas-Peucker), long-edge splitting, node merging."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_lines, write_lines
from .raster import neighbour_counts


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
    mask = skel.mask
    if not mask.any():
        raise GraphError("empty skeleton mask")
    if split_divisor < 1:
        raise GraphError("split divisor must be >= 1")
    cs = skel.cell_size
    ox, oy = skel.origin

    counts = neighbour_counts(mask)
    node_px = mask & (counts != 0) & (counts != 2)
    isolated = mask & (counts == 0)  # stray dots: not part of any run

    # merge 8-adjacent node pixels into clusters
    cluster_of: dict[tuple[int, int], int] = {}
    clusters: list[list[tuple[int, int]]] = []
    for i, j in map(tuple, np.argwhere(node_px)):
        if (i, j) in cluster_of:
            continue
        cid = len(clusters)
        comp = [(i, j)]
        cluster_of[(i, j)] = cid
        stack = [(i, j)]
        while stack:
            a, b = stack.pop()
            for di, dj in _NBRS:
                p = (a + di, b + dj)
                if 0 <= p[0] < mask.shape[0] and 0 <= p[1] < mask.shape[1] \
                        and node_px[p] and p not in cluster_of:
                    cluster_of[p] = cid
                    comp.append(p)
                    stack.append(p)
        clusters.append(comp)

    def world(px):
        return (ox + (px[1] + 0.5) * cs, oy + (px[0] + 0.5) * cs)

    # trace runs of degree-2 pixels between node clusters
    visited_steps: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    run_pixels: set[tuple[int, int]] = set()
    polylines: list[tuple[int, int, list[tuple[int, int]]]] = []  # (cluster a, cluster b, pixels)

    def trace(start_px, first_px):
        path = [start_px, first_px]
        prev, cur = start_px, first_px
        while cur not in cluster_of:
            run_pixels.add(cur)
            nxt = None
            for di, dj in _NBRS:
                p = (cur[0] + di, cur[1] + dj)
                if p == prev or not (0 <= p[0] < mask.shape[0] and 0 <= p[1] < mask.shape[1]):
                    continue
                if mask[p]:
                    nxt = p
                    break
            if nxt is None:
                return path, None  # dangling run (ends on a non-node pixel)
            prev, cur = cur, nxt
            path.append(cur)
        return path, cluster_of[cur]

    for cid, comp in enumerate(clusters):
        for px in comp:
            for di, dj in _NBRS:
                p = (px[0] + di, px[1] + dj)
                if not (0 <= p[0] < mask.shape[0] and 0 <= p[1] < mask.shape[1]):
                    continue
                if not mask[p] or p in cluster_of or (px, p) in visited_steps:
                    continue
                path, end_cid = trace(px, p)
                visited_steps.add((px, p))
                if end_cid is not None:
                    visited_steps.add((path[-1], path[-2]))
                    if end_cid == cid and len(path) <= 3:
                        continue  # degenerate loop within one cluster
                    polylines.append((cid, end_cid, path))

    # components made only of degree-2 pixels (pure cycles): anchor at min pixel
    leftover = mask & ~node_px & ~isolated
    for px in run_pixels:
        leftover[px] = False
    while leftover.any():
        start = tuple(np.argwhere(leftover)[0])
        cid = len(clusters)
        clusters.append([start])
        cluster_of[start] = cid
        ring = []
        for di, dj in _NBRS:
            p = (start[0] + di, start[1] + dj)
            if 0 <= p[0] < mask.shape[0] and 0 <= p[1] < mask.shape[1] and leftover[p]:
                ring.append(p)
        if ring:
            path, end_cid = trace(start, ring[0])
            polylines.append((cid, end_cid if end_cid is not None else cid, path))
        leftover[start] = False
        for px in run_pixels:
            leftover[px] = False

    if not polylines and not clusters:
        raise GraphError("no traceable structure in mask")

    # simplify each polyline; collect edges as world-coordinate segments
    segments: list[tuple[tuple[float, float], tuple[float, float]]] = []
    endpoints_cluster: dict[tuple[float, float], int] = {}
    for cid_a, cid_b, path in polylines:
        pts = [world(p) for p in path]
        simplified = rdp(pts, epsilon * cs)
        endpoints_cluster[simplified[0]] = cid_a
        if cid_b is not None:
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
            if key[0] == "c":
                comp = clusters[key[1]]
                cx = sum(world(p)[0] for p in comp) / len(comp)
                cy = sum(world(p)[1] for p in comp) / len(comp)
                g.nodes[nid] = (cx, cy)
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

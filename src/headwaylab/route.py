"""Route model: terminus identification, direction segments, route completion.

Termini are the two edges where vehicles spend the most time per unit edge
length (configurable fallback: the two degree-1 extremes of a path graph).
Each direction is the modal edge sequence among terminus-to-terminus passages,
stitched through the graph where the sampling interval skips edges.  A point
then maps to a route-completion fraction in [0, 1): cumulative offset of its
snapped edge plus the along-edge projection, divided by the full loop length.

Snapping is batched: `EdgeIndex.candidates` makes one KD-tree query for a
batch of points (a vehicle trace, in chunks of at most `EdgeIndex.batch`)
and projects every point onto the edges owning its k nearest samples in
numpy.  Each pass over the records (route derivation, each
`compute_fractions` call) snaps a record with that one query; the plain and
the direction-restricted snaps are picks among the same candidates.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .artifacts import read_lines, write_lines
from .graphs import RouteGraph


class RouteError(ValueError):
    pass


class InsufficientCoverageError(RouteError):
    pass


@dataclass
class DirectedEdge:
    edge_id: int
    forward: bool  # traversal from node a to node b as stored in the graph
    start_offset: float  # cumulative distance from the loop start
    length: float


@dataclass
class RouteModel:
    graph: RouteGraph
    termini: tuple[int, int]  # terminus edge ids; directions[0] starts at termini[0]
    directions: tuple[list[DirectedEdge], list[DirectedEdge]]
    loop_length: float
    rejection_radius: float

    def direction_span(self, d: int) -> tuple[float, float]:
        seq = self.directions[d]
        start = seq[0].start_offset
        end = seq[-1].start_offset + seq[-1].length
        return start / self.loop_length, end / self.loop_length

    def direction_length(self, d: int) -> float:
        return sum(e.length for e in self.directions[d])


class EdgeIndex:
    """Nearest-edge lookup via a KD-tree over densified edge samples.

    Every lookup goes through `candidates`: one KD-tree query for a batch of
    points, then a numpy projection of each point onto the edges owning its
    k nearest samples.  Edge geometry is held in arrays by the edge's
    position among the sorted edge ids, so edge ids need not be small, dense
    or non-negative."""

    batch = 8192  # points per `candidates` call in `batches`

    def __init__(self, graph: RouteGraph, sample_step: float):
        self.graph = graph
        ids = _edge_ids(graph)
        self._ax, self._ay, self._dx, self._dy, self._len = np.zeros((5, len(ids)))
        pts = []
        owners = []
        positions = []
        for pos, eid in enumerate(ids.tolist()):
            a, b, ln = graph.edges[eid]
            pa, pb = graph.nodes[a], graph.nodes[b]
            self._ax[pos], self._ay[pos] = pa
            self._dx[pos], self._dy[pos] = pb[0] - pa[0], pb[1] - pa[1]
            self._len[pos] = ln
            n = max(1, int(math.ceil(ln / sample_step)))
            for k in range(n + 1):
                t = k / n
                pts.append((pa[0] + (pb[0] - pa[0]) * t, pa[1] + (pb[1] - pa[1]) * t))
                owners.append(eid)
                positions.append(pos)
        self.tree = cKDTree(np.asarray(pts))
        self.owners = np.asarray(owners)
        self._owner_pos = np.asarray(positions)

    def candidates(self, points, k: int = 6):
        """Project each of N points onto the edges owning its k nearest
        samples (k capped at the sample count).  Returns (edge, along, dist)
        arrays of shape (N, k), columns in nearest-sample order; an edge that
        owns several of the samples repeats."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        k = min(k, self.owners.size)
        _, idx = self.tree.query(pts, k=k)
        idx = idx.reshape(len(pts), k)
        pos = self._owner_pos[idx]
        x, y = pts[:, :1], pts[:, 1:]
        ax, ay, dx, dy, ln = (tbl[pos] for tbl in (self._ax, self._ay, self._dx, self._dy, self._len))
        t = np.divide((x - ax) * dx + (y - ay) * dy, ln * ln,
                      out=np.zeros_like(ln), where=ln != 0)
        t = np.clip(t, 0.0, 1.0)
        return self.owners[idx], t * ln, np.hypot(x - (ax + dx * t), y - (ay + dy * t))

    def batches(self, points, k: int = 6):
        """`candidates` of successive chunks of at most `batch` points, so the
        (chunk, k) arrays stay bounded however long a vehicle trace is."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        for start in range(0, len(pts), self.batch):
            yield self.candidates(pts[start:start + self.batch], k)

    def snap(self, x: float, y: float, k: int = 6, restrict: set[int] | None = None):
        """Return (edge_id, along_distance, distance) of the best projection
        among the edges owning the k nearest samples, or None when restrict
        excludes all of them."""
        edge, along, dist = self.candidates([(x, y)], k)
        keep = None if restrict is None else np.isin(edge, list(restrict))
        edge, along, dist = best_candidate(edge, along, dist, keep)
        if dist[0] == math.inf:
            return None
        return int(edge[0]), float(along[0]), float(dist[0])


def _edge_ids(graph: RouteGraph) -> np.ndarray:
    return np.array(sorted(graph.edges), dtype=np.int64)


def best_candidate(edge, along, dist, keep=None):
    """Per row of `EdgeIndex.candidates` output, the first candidate of least
    distance among those where `keep` is true.  Returns (edge, along, dist)
    arrays of shape (N,); dist is inf where no candidate is kept."""
    if keep is not None:
        dist = np.where(keep, dist, math.inf)
    j = np.argmin(dist, axis=1)[:, None]
    return tuple(np.take_along_axis(a, j, axis=1)[:, 0] for a in (edge, along, dist))


def _graph_distances(graph: RouteGraph, sources: set[int]) -> dict[int, float]:
    dist = {n: 0.0 for n in sources}
    heap = [(0.0, n) for n in sources]
    adj = graph.adjacency()
    while heap:
        d, n = heapq.heappop(heap)
        if d > dist.get(n, math.inf):
            continue
        for m, eid in adj[n]:
            nd = d + graph.edges[eid][2]
            if nd < dist.get(m, math.inf):
                dist[m] = nd
                heapq.heappush(heap, (nd, m))
    return dist


def _shortest_node_path(graph: RouteGraph, src: int, dst: int) -> list[int] | None:
    if src == dst:
        return [src]
    adj = graph.adjacency()
    dist = {src: 0.0}
    prev: dict[int, tuple[int, int]] = {}
    heap = [(0.0, src)]
    while heap:
        d, n = heapq.heappop(heap)
        if n == dst:
            break
        if d > dist.get(n, math.inf):
            continue
        for m, eid in adj[n]:
            nd = d + graph.edges[eid][2]
            if nd < dist.get(m, math.inf):
                dist[m] = nd
                prev[m] = (n, eid)
                heapq.heappush(heap, (nd, m))
    if dst not in dist:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]][0])
    return path[::-1]


def _edges_of_node_path(graph: RouteGraph, nodes: list[int]) -> list[tuple[int, bool]]:
    adj = graph.adjacency()
    out = []
    for a, b in zip(nodes, nodes[1:]):
        eid = min((e for m, e in adj[a] if m == b), key=lambda e: graph.edges[e][2], default=None)
        if eid is None:
            raise RouteError("broken node path")
        out.append((eid, graph.edges[eid][0] == a))
    return out


def _orient_chain(graph: RouteGraph, edge_ids: list[int]) -> list[tuple[int, bool]]:
    """Assign traversal orientations so consecutive edges share a node."""
    if not edge_ids:
        return []
    if len(edge_ids) == 1:
        return [(edge_ids[0], True)]
    out = []
    a0, b0, _ = graph.edges[edge_ids[0]]
    a1, b1, _ = graph.edges[edge_ids[1]]
    if b0 in (a1, b1):
        cur, fwd = b0, True
    elif a0 in (a1, b1):
        cur, fwd = a0, False
    else:
        raise RouteError("direction edges do not chain")
    out.append((edge_ids[0], fwd))
    for eid in edge_ids[1:]:
        a, b, _ = graph.edges[eid]
        if a == cur:
            out.append((eid, True))
            cur = b
        elif b == cur:
            out.append((eid, False))
            cur = a
        else:
            raise RouteError("direction edges do not chain")
    return out


def _stitch(graph: RouteGraph, edge_seq: list[int], start_node: int) -> list[tuple[int, bool]]:
    """Expand a coarse observed edge sequence into a contiguous directed path,
    filling gaps between consecutive observed edges by shortest paths."""
    result: list[tuple[int, bool]] = []
    cur = start_node
    for eid in edge_seq:
        a, b, _ = graph.edges[eid]
        # reach whichever endpoint is closer (by graph distance), then traverse
        best = None
        for enter, leave in ((a, b), (b, a)):
            nodes = _shortest_node_path(graph, cur, enter)
            if nodes is None:
                continue
            cost = sum(graph.edges[e][2] for e, _ in _edges_of_node_path(graph, nodes))
            if best is None or cost < best[0]:
                best = (cost, nodes, enter, leave)
        if best is None:
            raise RouteError(f"edge {eid} unreachable while stitching route")
        _, nodes, enter, leave = best
        hops = _edges_of_node_path(graph, nodes)
        for e, fwd in hops:
            if result and result[-1][0] == e:
                result.pop()  # immediate backtrack: drop the out-and-back pair
            else:
                result.append((e, fwd))
        if not result or result[-1][0] != eid:
            result.append((eid, graph.edges[eid][0] == enter))
        cur = leave
    return result


def derive_route_model(graph: RouteGraph, ts, rejection_radius: float,
                       terminus_mode: str = "dwell") -> RouteModel:
    """Identify termini and the two direction segments from snapped traces.

    terminus_mode "dwell" scores every edge by total snapped dwell time per
    unit length and picks the top two; "extremes" picks the two edges incident
    to degree-1 nodes of a path-shaped graph.
    """
    if len(graph.edges) < 2:
        raise RouteError("graph needs at least 2 edges")
    index = EdgeIndex(graph, sample_step=max(rejection_radius / 2, 1e-9))

    # snap all records, in batches per vehicle; accumulate dwell time per edge
    dwell = defaultdict(float)
    snapped: dict[str, list[tuple[int, int, float]]] = {}  # vid -> [(t, edge, along)]
    for vid in ts.vehicles():
        recs = ts.traces[vid]
        edges, alongs, dists = [], [], []
        for cands in index.batches([(r.x, r.y) for r in recs]):
            edge, along, dist = best_candidate(*cands)
            edges += edge.tolist()
            alongs += along.tolist()
            dists += dist.tolist()
        rows = []
        for i, (rec, eid, along, dist) in enumerate(zip(recs, edges, alongs, dists)):
            if dist > rejection_radius:
                continue
            if i + 1 < len(recs):
                dt = min(recs[i + 1].t - rec.t, 300.0)
                dwell[eid] += dt
            rows.append((rec.t, eid, along))
        snapped[vid] = rows

    if terminus_mode == "extremes":
        degree = Counter()
        for a, b, _ in graph.edges.values():
            degree[a] += 1
            degree[b] += 1
        ends = [eid for eid, (a, b, _) in graph.edges.items() if degree[a] == 1 or degree[b] == 1]
        if len(ends) != 2:
            raise RouteError("extremes mode requires a path graph with exactly two ends")
        term_a, term_b = sorted(ends)
    else:
        scores = {eid: dwell.get(eid, 0.0) / graph.edges[eid][2] for eid in graph.edges}
        ranked = sorted(scores, key=lambda e: (-scores[e], e))
        first = ranked[0]
        # a terminus dwell can spread over several short edges, so the runner-up
        # by score may sit at the same end; require clear graph separation
        min_sep = 0.25 * graph.total_length()
        dist_from_first = _graph_distances(graph, set(graph.edges[first][:2]))
        second = None
        for eid in ranked[1:]:
            a, b, _ = graph.edges[eid]
            sep = min(dist_from_first.get(a, math.inf), dist_from_first.get(b, math.inf))
            if sep >= min_sep:
                second = eid
                break
        if second is None:
            second = ranked[1]
        term_a, term_b = sorted((first, second))

    # cut each vehicle's edge stream into terminus-to-terminus passages
    passages: dict[tuple[int, int], Counter] = {(term_a, term_b): Counter(), (term_b, term_a): Counter()}
    for vid, rows in snapped.items():
        cur_from = None
        seq: list[int] = []
        for _, eid, _ in rows:
            if eid in (term_a, term_b):
                if cur_from is not None and eid != cur_from and seq:
                    passages[(cur_from, eid)][tuple(seq)] += 1
                cur_from = eid
                seq = []
            elif cur_from is not None:
                if not seq or seq[-1] != eid:
                    seq.append(eid)
    if not passages[(term_a, term_b)] or not passages[(term_b, term_a)]:
        raise InsufficientCoverageError("need at least one complete passage in each direction")

    def modal(counter: Counter) -> list[int]:
        best = max(counter.items(), key=lambda kv: (kv[1], -len(kv[0])))
        return list(best[0])

    def direction(from_e: int, to_e: int) -> list[tuple[int, bool]]:
        coarse = modal(passages[(from_e, to_e)])
        a_from, b_from, _ = graph.edges[from_e]
        # start traversal at the far end of the from-terminus edge
        seq = _stitch(graph, [from_e] + coarse + [to_e], a_from)
        if not seq or seq[0][0] != from_e:
            seq = _stitch(graph, [from_e] + coarse + [to_e], b_from)
        # re-derive orientations by chaining shared nodes (the stitcher's
        # backtrack pruning can leave stale flags)
        return _orient_chain(graph, [e for e, _ in seq])

    dir1 = direction(term_a, term_b)
    dir2 = direction(term_b, term_a)

    directed: list[list[DirectedEdge]] = []
    offset = 0.0
    for seq in (dir1, dir2):
        lst = []
        for eid, fwd in seq:
            ln = graph.edges[eid][2]
            lst.append(DirectedEdge(eid, fwd, offset, ln))
            offset += ln
        directed.append(lst)
    loop_length = offset
    if loop_length <= 0:
        raise RouteError("degenerate route of zero length")
    return RouteModel(graph, (term_a, term_b), (directed[0], directed[1]),
                      loop_length, rejection_radius)


class UnmatchedMeasurement(RouteError):
    pass


_BELOW_ONE = math.nextafter(1.0, 0.0)


class CompletionTable:
    """Route-completion fractions in one direction: the start offset,
    orientation and length of each direction edge, by the edge's position
    among the sorted graph edge ids as in `EdgeIndex` (the first visit wins
    if a direction repeats an edge)."""

    def __init__(self, rm: RouteModel, d: int):
        self.rm = rm
        self.ids = _edge_ids(rm.graph)
        position = {eid: pos for pos, eid in enumerate(self.ids.tolist())}
        self.member = np.zeros(len(self.ids), dtype=bool)
        self.forward = np.zeros(len(self.ids), dtype=bool)
        self.offset, self.length = np.zeros((2, len(self.ids)))
        for de in reversed(rm.directions[d]):
            pos = position.get(de.edge_id)
            if pos is None:
                continue  # not in the graph, so never a candidate
            self.member[pos] = True
            self.forward[pos] = de.forward
            self.offset[pos] = de.start_offset
            self.length[pos] = de.length

    def fractions(self, edge, along, dist):
        """Fractions of the points whose `EdgeIndex.candidates` output is
        given, each point snapped to the nearest of its candidate edges that
        belong to this direction.  Returns (fraction, matched) arrays of
        shape (N,); a point is matched when that edge exists and lies within
        the rejection radius."""
        pos = np.searchsorted(self.ids, edge)
        pos, along, dist = best_candidate(pos, along, dist, self.member[pos])
        within = np.where(self.forward[pos], along, self.length[pos] - along)
        frac = np.minimum((self.offset[pos] + within) / self.rm.loop_length, _BELOW_ONE)
        return frac, np.isfinite(dist) & (dist <= self.rm.rejection_radius)


def route_completion(rm: RouteModel, point: tuple[float, float], last_terminus: int,
                     index: EdgeIndex | None = None) -> float:
    """Fraction in [0, 1) of the full loop at the given point, travelling in
    the direction that starts at last_terminus."""
    d = 0 if last_terminus == rm.termini[0] else 1
    index = index or EdgeIndex(rm.graph, sample_step=max(rm.rejection_radius / 2, 1e-9))
    frac, matched = CompletionTable(rm, d).fractions(*index.candidates([point]))
    if not matched[0]:
        raise UnmatchedMeasurement(f"point beyond rejection radius {rm.rejection_radius}")
    return float(frac[0])


def write_route_model(rm: RouteModel, path: str) -> None:
    rows = [("termini", *rm.termini), ("loop_length", rm.loop_length),
            ("rejection_radius", rm.rejection_radius)]
    rows += [("segment", d, de.edge_id, int(de.forward), de.start_offset, de.length)
             for d, seq in enumerate(rm.directions) for de in seq]
    write_lines(path, rows)


def read_route_model(path: str, graph: RouteGraph) -> RouteModel:
    head: dict = {}
    dirs: tuple[list[DirectedEdge], list[DirectedEdge]] = ([], [])

    def parse(fields):
        tag = fields[0]
        if tag == "termini":
            _, a, b = fields
            head[tag] = (int(a), int(b))
        elif tag in ("loop_length", "rejection_radius"):
            _, value = fields
            head[tag] = float(value)
        elif tag == "segment":
            _, d, eid, forward, start, length = fields
            if d not in ("0", "1"):
                raise ValueError(f"direction {d} is not 0 or 1")
            if int(eid) not in graph.edges:
                raise RouteError(f"{path}: segment edge {eid} is not an edge of the graph")
            dirs[int(d)].append(DirectedEdge(int(eid), bool(int(forward)), float(start), float(length)))

    read_lines(path, parse)
    if len(head) < 3:
        raise RouteError("incomplete route model file")
    offsets = [de.start_offset for de in dirs[0] + dirs[1]]
    if any(b <= a for a, b in zip(offsets, offsets[1:])):
        raise RouteError("cumulative offsets must strictly increase")
    return RouteModel(graph, head["termini"], dirs,
                      head["loop_length"], head["rejection_radius"])

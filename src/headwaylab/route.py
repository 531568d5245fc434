"""Route model: terminus identification, direction segments, route completion.

Termini are the two edges where vehicles spend the most time per unit edge
length (configurable fallback: the two degree-1 extremes of a path graph).
Each direction is the modal edge sequence among terminus-to-terminus passages,
stitched through the graph where the sampling interval skips edges.  A point
then maps to a route-completion fraction in [0, 1): cumulative offset of its
snapped edge plus the along-edge projection, divided by the full loop length.

A record snaps to the nearest edge within the rejection radius, the lowest
edge id on a tie, and is unmatched when no edge lies within the radius.
Snapping is batched: `EdgeIndex.candidates` looks up the grid cell of each
point of a batch (a vehicle trace, in chunks of at most `EdgeIndex.batch`)
and projects the point onto every edge its cell lists, a superset of the
edges within the radius, in numpy.  Each pass over the records (route
derivation, each `compute_fractions` call) snaps a record with that one
lookup; the plain and the direction-restricted snaps are picks among the
same candidates (`snap_columns`).  The passes then work on each vehicle's
arrays: route derivation sums the dwell of all records with one
`np.bincount` and walks only the vehicle's edge stream with consecutive
repeats dropped.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .artifacts import read_lines, write_lines
from .graphs import RouteGraph
from .ingest import GAP_SECONDS


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


# The cell side is at least the graph's extent over this many cells, so the
# grid stays bounded however small the rejection radius is.
_GRID_CELLS = 4096


class EdgeIndex:
    """Nearest-edge lookup through a sparse grid of square cells.

    The cell side is the rejection radius, or more when the radius is small
    against the graph (`_GRID_CELLS`).  Each stored cell lists, in ascending
    edge id, every edge within `reach` of the cell's centre: the radius plus
    half the cell diagonal, so the list holds every edge within the radius of
    any point in the cell.  Only cells within reach of some edge are stored,
    under sorted keys counted from the corner of the graph's bounding box
    widened by `reach`.  Edge geometry is held in arrays by the edge's
    position among the sorted edge ids, so edge ids need not be small, dense
    or non-negative."""

    batch = 8192  # points per `candidates` call in `batches`

    def __init__(self, graph: RouteGraph, rejection_radius: float):
        radius = float(rejection_radius)
        if not (math.isfinite(radius) and radius > 0):
            raise RouteError(f"rejection radius must be finite and > 0, got {rejection_radius}")
        self.graph = graph
        ids = _edge_ids(graph)
        ends = np.array([graph.nodes[n] for eid in ids.tolist() for n in graph.edges[eid][:2]],
                        dtype=np.float64).reshape(len(ids), 2, 2)
        a, d = ends[:, 0], ends[:, 1] - ends[:, 0]
        self.ids = ids  # edge id by position; position len(ids) pads short rows
        self._ax, self._ay, self._dx, self._dy = (np.append(col, 0.0) for col in (*a.T, *d.T))
        self._len = np.append([graph.edges[eid][2] for eid in ids.tolist()], 0.0)

        geo_len = np.hypot(d[:, 0], d[:, 1])
        corners = ends.reshape(-1, 2) if len(ids) else np.zeros((1, 2))
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        magnitude = float(np.abs(corners).max())
        extent = max(float(geo_len.sum()), *(hi - lo).tolist())
        # cells far below the coordinates' float spacing would be lost in rounding
        side = max(radius, extent / _GRID_CELLS, magnitude * 2.0 ** -20)
        # the slack covers rounding in the cell of a point and in its distances
        reach = radius + side * math.sqrt(0.5) + (magnitude + radius + side) * 2.0 ** -36
        self._side, self._origin = side, lo - reach
        self._shape = np.floor((hi + reach - self._origin) / side).astype(np.int64) + 1
        self._keys, self._rows = self._cells(a, d, geo_len, reach)

    def _cells(self, a, d, geo_len, reach):
        """The sorted keys of the stored cells and, per key, the positions of
        the edges within reach of the cell's centre in ascending order,
        padded with the padding slot; then the largest int64 as a key that
        no point has, with an all-padding row."""
        n_edges, side = len(a), self._side
        # pieces of at most one side, so each piece's neighbourhood is a few cells
        pieces = np.maximum(1, np.ceil(geo_len / side)).astype(np.int64)
        pos = np.repeat(np.arange(n_edges), pieces)
        t0 = (np.arange(len(pos)) - np.repeat(np.cumsum(pieces) - pieces, pieces)) / pieces[pos]
        p0 = a[pos] + d[pos] * t0[:, None]
        p1 = a[pos] + d[pos] * (t0 + 1.0 / pieces[pos])[:, None]
        lo = np.floor((np.minimum(p0, p1) - reach - self._origin) / side).astype(np.int64)
        hi = np.floor((np.maximum(p0, p1) + reach - self._origin) / side).astype(np.int64)
        lo, hi = np.maximum(lo, 0), np.minimum(hi, self._shape - 1)
        width = int((hi - lo).max(initial=0)) + 1
        ix = lo[:, :1] + np.tile(np.arange(width), width)  # (pieces, width**2)
        iy = lo[:, 1:] + np.repeat(np.arange(width), width)
        ok = (ix <= hi[:, :1]) & (iy <= hi[:, 1:])
        # each cell centre's distance to the whole edge, not just the piece
        dx, dy = d[pos, :1], d[pos, 1:]
        cx = self._origin[0] + (ix + 0.5) * side - a[pos, :1]
        cy = self._origin[1] + (iy + 0.5) * side - a[pos, 1:]
        l2 = dx * dx + dy * dy
        t = np.divide(cx * dx + cy * dy, l2, out=np.zeros_like(cx), where=l2 > 0)
        t = np.clip(t, 0.0, 1.0)
        ok &= np.hypot(cx - dx * t, cy - dy * t) <= reach
        stride = max(n_edges, 1)
        cell = (iy * self._shape[0] + ix)[ok]
        pairs = np.unique(cell * stride + np.broadcast_to(pos[:, None], ok.shape)[ok])
        key, edge_pos = np.divmod(pairs, stride)
        starts = run_starts(key)
        counts = np.diff(np.append(starts, len(key)))
        rows = np.full((len(starts) + 1, max(1, int(counts.max(initial=0)))), n_edges)
        slot = np.arange(len(key)) - np.repeat(starts, counts)
        rows[np.repeat(np.arange(len(starts)), counts), slot] = edge_pos
        return np.append(key[starts], np.iinfo(np.int64).max), rows

    def candidates(self, points):
        """Project each of N points onto the edges listed in its cell.
        Returns (pos, along, dist) arrays of shape (N, M), M the longest
        cell row: each candidate edge's position among the sorted edge ids,
        ascending in each row, its along distance and its distance.  A point
        outside every stored cell, and every padding slot, has dist inf.  The
        edges within the rejection radius of a point are always among its
        candidates."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        col = np.floor((pts - self._origin) / self._side)
        inside = ((col >= 0) & (col < self._shape)).all(axis=1)  # NaN is outside
        col = np.where(inside[:, None], col, 0).astype(np.int64)
        key = col[:, 1] * self._shape[0] + col[:, 0]
        row = np.searchsorted(self._keys, key)
        pos = self._rows[np.where(inside & (self._keys[row] == key), row, len(self._keys) - 1)]
        x, y = pts[:, :1], pts[:, 1:]
        ax, ay, dx, dy, ln = (tbl[pos] for tbl in (self._ax, self._ay, self._dx, self._dy, self._len))
        t = np.divide((x - ax) * dx + (y - ay) * dy, ln * ln,
                      out=np.zeros_like(ln), where=ln != 0)
        t = np.clip(t, 0.0, 1.0)
        dist = np.hypot(x - (ax + dx * t), y - (ay + dy * t))
        dist[pos == len(self.ids)] = math.inf
        return pos, t * ln, dist

    def batches(self, points):
        """`candidates` of successive chunks of at most `batch` points, so the
        (chunk, M) arrays stay bounded however long a vehicle trace is."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        for start in range(0, len(pts), self.batch):
            yield self.candidates(pts[start:start + self.batch])

    def snap(self, x: float, y: float, restrict: set[int] | None = None):
        """Return (edge_id, along_distance, distance) of the nearest edge
        among the point's candidates (the lowest id on a tie), or None when
        none is a candidate or restrict excludes all of them."""
        pos, along, dist = self.candidates([(x, y)])
        keep = None
        if restrict is not None:  # at the positions of the allowed ids
            keep = np.isin(pos, np.flatnonzero(np.isin(self.ids, list(restrict))))
        pos, along, dist = best_candidate(pos, along, dist, keep)
        if dist[0] == math.inf:
            return None
        return int(self.ids[pos[0]]), float(along[0]), float(dist[0])


def _edge_ids(graph: RouteGraph) -> np.ndarray:
    return np.array(sorted(graph.edges), dtype=np.int64)


def best_candidate(pos, along, dist, keep=None):
    """Per row of `EdgeIndex.candidates` output, the first candidate of least
    distance among those where `keep` is true.  Returns (pos, along, dist)
    arrays of shape (N,); dist is inf where no candidate is kept."""
    if keep is not None:
        dist = np.where(keep, dist, math.inf)
    j = np.argmin(dist, axis=1)[:, None]
    return tuple(np.take_along_axis(a, j, axis=1)[:, 0] for a in (pos, along, dist))


def _dijkstra(graph: RouteGraph, adj, sources) -> tuple[dict[int, float], dict[int, tuple[int, int]]]:
    """Shortest distances from the nearest of `sources` over `adj`
    (graph.adjacency()), and for every other reached node the (node, edge)
    hop it is reached by.  Of parallel edges the shortest wins, the first in
    adjacency order on a tie."""
    dist = {n: 0.0 for n in sources}
    prev: dict[int, tuple[int, int]] = {}
    heap = [(0.0, n) for n in sources]
    while heap:
        d, n = heapq.heappop(heap)
        if d > dist.get(n, math.inf):
            continue
        for m, eid in adj[n]:
            nd = d + graph.edges[eid][2]
            if nd < dist.get(m, math.inf):
                dist[m] = nd
                prev[m] = (n, eid)
                heapq.heappush(heap, (nd, m))
    return dist, prev


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


def _stitch(graph: RouteGraph, adj, edge_seq: list[int], start_node: int) -> list[int]:
    """Expand a coarse observed edge sequence into a contiguous edge path,
    filling gaps between consecutive observed edges by shortest paths."""
    result: list[int] = []
    cur = start_node
    for eid in edge_seq:
        a, b, _ = graph.edges[eid]
        dist, prev = _dijkstra(graph, adj, [cur])
        # reach whichever endpoint is closer (by graph distance), then traverse
        enter, leave = (a, b) if dist.get(a, math.inf) <= dist.get(b, math.inf) else (b, a)
        if enter not in dist:
            raise RouteError(f"edge {eid} unreachable while stitching route")
        hops = []
        node = enter
        while node != cur:
            node, e = prev[node]
            hops.append(e)
        for e in reversed(hops):
            if result and result[-1] == e:
                result.pop()  # immediate backtrack: drop the out-and-back pair
            else:
                result.append(e)
        if not result or result[-1] != eid:
            result.append(eid)
        cur = leave
    return result


def run_starts(a: np.ndarray) -> np.ndarray:
    """Positions in the 1-D array `a` where a run of equal values begins."""
    change = np.ones(len(a), dtype=bool)
    change[1:] = a[1:] != a[:-1]
    return np.flatnonzero(change)


def snap_columns(index: EdgeIndex, points, tables=()) -> list[np.ndarray]:
    """Snap a trace's points in `EdgeIndex.batches` chunks.  Returns arrays
    of shape (N,): the plain snap's edge position (as in `EdgeIndex.ids`)
    and distance, then the fraction and matched flag of each
    `CompletionTable` in `tables`."""
    chunks = []
    for cands in index.batches(points):
        pos, _, dist = best_candidate(*cands)
        picks = [pos, dist]
        for tbl in tables:
            picks += tbl.fractions(*cands)
        chunks.append(picks)
    if not chunks:
        return [np.empty(0, dtype=np.int64)] + [np.empty(0)] * (1 + 2 * len(tables))
    return [np.concatenate(col) for col in zip(*chunks)]


def _snap_dwell(index: EdgeIndex, ts, rejection_radius: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Snap every record once.  Returns the dwell per edge, by the edge's
    position among the sorted edge ids: over the records within the
    rejection radius, the sum of the time to the vehicle's next record,
    capped at GAP_SECONDS (a vehicle's last record adds none), added in
    vehicle and record order.  And for each vehicle, the edge ids of those
    records with consecutive repeats dropped."""
    positions, steps, streams = [np.empty(0, dtype=np.int64)], [np.empty(0)], []
    for vid in ts.vehicles():
        txy = ts.traces[vid]
        pos, dist = snap_columns(index, txy[:, 1:])
        within = dist <= rejection_radius
        dwelt = np.flatnonzero(within[:-1])
        positions.append(pos[dwelt])
        steps.append(np.minimum(np.diff(txy[:, 0]), GAP_SECONDS)[dwelt])
        kept = pos[within]
        streams.append(index.ids[kept[run_starts(kept)]])
    dwell = np.bincount(np.concatenate(positions), np.concatenate(steps),
                        minlength=len(index.ids))
    return dwell, streams


def _passages(streams, term_a: int, term_b: int) -> dict[tuple[int, int], Counter]:
    """Count the edge sequences between consecutive visits to different
    termini, per (from, to) terminus pair, in edge streams without
    consecutive repeats.  A visit that follows a visit to the same terminus
    restarts the sequence."""
    passages: dict[tuple[int, int], Counter] = {(term_a, term_b): Counter(), (term_b, term_a): Counter()}
    for stream in streams:
        cur_from = None
        seq: list[int] = []
        for eid in stream.tolist():
            if eid in (term_a, term_b):
                if cur_from is not None and eid != cur_from and seq:
                    passages[(cur_from, eid)][tuple(seq)] += 1
                cur_from = eid
                seq = []
            elif cur_from is not None:
                seq.append(eid)
    return passages


def derive_route_model(graph: RouteGraph, ts, rejection_radius: float,
                       terminus_mode: str = "dwell") -> RouteModel:
    """Identify termini and the two direction segments from snapped traces.

    terminus_mode "dwell" scores every edge by total snapped dwell time per
    unit length and picks the top two; "extremes" picks the two edges incident
    to degree-1 nodes of a path-shaped graph.
    """
    if len(graph.edges) < 2:
        raise RouteError("graph needs at least 2 edges")
    adj = graph.adjacency()
    dwell, streams = _snap_dwell(EdgeIndex(graph, rejection_radius), ts, rejection_radius)

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
        dwell_of = dict(zip(_edge_ids(graph).tolist(), dwell.tolist()))
        scores = {eid: dwell_of[eid] / graph.edges[eid][2] for eid in graph.edges}
        ranked = sorted(scores, key=lambda e: (-scores[e], e))
        first = ranked[0]
        # a terminus dwell can spread over several short edges, so the runner-up
        # by score may sit at the same end; require clear graph separation
        min_sep = 0.25 * graph.total_length()
        dist_from_first, _ = _dijkstra(graph, adj, set(graph.edges[first][:2]))
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

    passages = _passages(streams, term_a, term_b)
    if not passages[(term_a, term_b)] or not passages[(term_b, term_a)]:
        raise InsufficientCoverageError("need at least one complete passage in each direction")

    def modal(counter: Counter) -> list[int]:
        best = max(counter.items(), key=lambda kv: (kv[1], -len(kv[0])))
        return list(best[0])

    def direction(from_e: int, to_e: int) -> list[tuple[int, bool]]:
        coarse = [from_e] + modal(passages[(from_e, to_e)]) + [to_e]
        a_from, b_from, _ = graph.edges[from_e]
        # start traversal at the far end of the from-terminus edge
        seq = _stitch(graph, adj, coarse, a_from)
        if not seq or seq[0] != from_e:
            seq = _stitch(graph, adj, coarse, b_from)
        return _orient_chain(graph, seq)

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
    if a direction repeats an edge).  The arrays have one more slot, for
    `EdgeIndex`'s padding position, which is never a member."""

    def __init__(self, rm: RouteModel, d: int):
        self.rm = rm
        ids = _edge_ids(rm.graph).tolist()
        position = {eid: pos for pos, eid in enumerate(ids)}
        self.member = np.zeros(len(ids) + 1, dtype=bool)
        self.forward = np.zeros(len(ids) + 1, dtype=bool)
        self.offset, self.length = np.zeros((2, len(ids) + 1))
        for de in reversed(rm.directions[d]):
            pos = position.get(de.edge_id)
            if pos is None:
                continue  # not in the graph, so never a candidate
            self.member[pos] = True
            self.forward[pos] = de.forward
            self.offset[pos] = de.start_offset
            self.length[pos] = de.length

    def fractions(self, pos, along, dist):
        """Fractions of the points whose `EdgeIndex.candidates` output is
        given, each point snapped to the nearest of its candidate edges that
        belong to this direction.  Returns (fraction, matched) arrays of
        shape (N,); a point is matched when that edge exists and lies within
        the rejection radius."""
        pos, along, dist = best_candidate(pos, along, dist, self.member[pos])
        within = np.where(self.forward[pos], along, self.length[pos] - along)
        frac = np.minimum((self.offset[pos] + within) / self.rm.loop_length, _BELOW_ONE)
        return frac, np.isfinite(dist) & (dist <= self.rm.rejection_radius)


def route_completion(rm: RouteModel, point: tuple[float, float], last_terminus: int,
                     index: EdgeIndex | None = None) -> float:
    """Fraction in [0, 1) of the full loop at the given point, travelling in
    the direction that starts at last_terminus."""
    d = 0 if last_terminus == rm.termini[0] else 1
    index = index or EdgeIndex(rm.graph, rm.rejection_radius)
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

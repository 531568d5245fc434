"""Patch identification: bin route-completion observations, cluster bins.

Every raw measurement snapped to the route adds one to the count of its
route-completion bin.  `jenks_cluster_counts` then cuts the count sequence
into n contiguous patches by an exact dynamic-programming segmentation
(Fisher's method, the 1-D equivalent of K-means / Jenks natural breaks) that
minimizes the within-patch sum of squared deviations.  Time spent per unit of
route is proportional to the counts, so on the piecewise-constant occupancy
profile of a route of patches the cuts land on the level changes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_lines, write_lines
from .ingest import distances
from .route import CompletionTable, EdgeIndex, run_starts, snap_columns
from .route import route_completion  # noqa: F401  (kept public here; perfbench counts its calls)


class PatchError(ValueError):
    pass


@dataclass
class BinCounts:
    gamma: int
    counts: list[int]

    def __post_init__(self):
        if len(self.counts) != self.gamma:
            raise PatchError("counts length must equal gamma")
        if any(c < 0 for c in self.counts):
            raise PatchError("counts must be non-negative")


@dataclass
class PatchStructure:
    """Partition of [0, 1) into contiguous patches.

    break_bins are the interior breakpoints expressed as bin indices of the
    initial gamma-bin grid; patch j (1-based) covers [b_{j-1}/gamma, b_j/gamma).
    """

    gamma: int
    break_bins: list[int] = field(default_factory=list)

    def __post_init__(self):
        bb = self.break_bins
        if any(b <= 0 or b >= self.gamma for b in bb):
            raise PatchError("interior breakpoints must lie strictly inside (0, gamma)")
        if any(b2 <= b1 for b1, b2 in zip(bb, bb[1:])):
            raise PatchError("breakpoints must strictly increase")

    @property
    def n(self) -> int:
        return len(self.break_bins) + 1

    @property
    def breakpoints(self) -> list[float]:
        return [0.0] + [b / self.gamma for b in self.break_bins] + [1.0]

    def spans(self) -> list[tuple[float, float]]:
        bp = self.breakpoints
        return list(zip(bp[:-1], bp[1:]))


def patch_of(ps: PatchStructure, fraction: float) -> int:
    """1-based patch index containing the fraction (half-open intervals)."""
    if not (0.0 <= fraction < 1.0):
        raise PatchError(f"fraction {fraction} outside [0, 1)")
    bounds = [b / ps.gamma for b in ps.break_bins]
    return bisect_right(bounds, fraction) + 1


def _terminus_far_nodes(rm) -> dict[int, tuple[float, float]]:
    """World coordinates of each terminus edge's turnaround-side node (the end
    the route reverses at): the far endpoint of the direction arriving there."""
    out = {}
    for d, seq in enumerate(rm.directions):
        de = seq[-1]
        a, b, _ = rm.graph.edges[de.edge_id]
        far = b if de.forward else a
        out[de.edge_id] = rm.graph.nodes[far]
    return out


def compute_fractions(ts, rm):
    """Route-completion fraction for every raw measurement.

    Each vehicle trace is snapped in batches through the grid cells of
    the `EdgeIndex` (`snap_columns`, one cell lookup per record per call);
    the plain snap and both directions' restricted snaps and fractions are
    picks among those candidates, so what follows works on the vehicle's
    arrays.

    Direction state starts undefined and records before a vehicle's first
    terminus-edge visit are skipped.  A terminus run is a maximal run of
    records snapped to one terminus edge; it is an arrival when its edge
    differs from the previous terminus run's, and every record takes the
    direction of the last arrival at or before it.  Where the two directions
    share geometry, samples on a terminus edge are ambiguous (approach vs
    departure), so each arriving run is split at its closest approach to the
    turnaround node, the earlier part keeping the inbound direction and the
    rest flipping to the outbound one.  Returns (per vehicle with matched
    records, a float64 array of shape (n, 4) with columns t, fraction, x and
    y, one row per matched record in time order; unmatched count)."""
    index = EdgeIndex(rm.graph, rm.rejection_radius)
    far_nodes = _terminus_far_nodes(rm)
    tables = [CompletionTable(rm, d) for d in (0, 1)]
    out: dict[str, np.ndarray] = {}
    unmatched = 0

    for vid in ts.vehicles():
        txy = ts.traces[vid]
        pos, dist, frac0, ok0, frac1, ok1 = snap_columns(index, txy[:, 1:], tables)
        snapped = np.flatnonzero(dist <= rm.rejection_radius)
        d = _directions(index.ids[pos[snapped]], txy[snapped, 1:], rm.termini, far_nodes)
        rec, first = snapped[d >= 0], d[d >= 0] == 0
        ok = np.where(first, ok0[rec], ok1[rec])
        unmatched += len(txy) - len(snapped) + len(ok) - np.count_nonzero(ok)
        if ok.any():
            rows = np.column_stack((txy[rec, 0], np.where(first, frac0[rec], frac1[rec]), txy[rec, 1:]))
            out[vid] = rows[ok]
    return out, int(unmatched)


def _directions(edge, xy, termini, far_nodes) -> np.ndarray:
    """Direction of travel (0 from termini[0], 1 from termini[1], -1 not yet
    known) of each snapped record, given its snapped edge and position."""
    term_a = termini[0]
    starts = run_starts(edge)
    ends = np.append(starts, len(edge))[1:]
    at_terminus = np.isin(edge[starts], termini)
    starts, ends, run_edge = starts[at_terminus], ends[at_terminus], edge[starts[at_terminus]]
    arrivals = run_starts(run_edge)
    starts, ends, run_edge = starts[arrivals], ends[arrivals], run_edge[arrivals]
    run_dir = np.where(run_edge == term_a, 0, 1)
    # 1 + the index of the last arrival at or before each record, 0 before the first
    last = np.zeros(len(edge), dtype=np.int64)
    last[starts] = np.arange(1, len(starts) + 1)
    dirs = np.append(-1, run_dir)[np.maximum.accumulate(last)]
    # the records of the arrival runs, run after run: entry e is record rec[e] of run run[e]
    lengths = ends - starts
    first = np.cumsum(lengths) - lengths
    run = np.repeat(np.arange(len(starts)), lengths)
    rec = np.arange(len(run)) + (starts - first)[run]
    edges, which = np.unique(run_edge, return_inverse=True)
    node = np.array([far_nodes[e] for e in edges.tolist()]).reshape(-1, 2)[which[run]]
    dists = distances(xy[rec, 0] - node[:, 0], xy[rec, 1] - node[:, 1])
    split = np.lexsort((dists, run))[first]  # each run's first closest entry (a stable sort)
    # at equal speed on both sides, the turnaround lies between the closest
    # sample and its nearer neighbour, so the closest sample belongs to the
    # side of its farther neighbour
    k = np.flatnonzero((split > first) & (split < first + lengths - 1))
    c = split[k]
    split[k] -= dists[c + 1] - dists[c] > dists[c - 1] - dists[c]
    # up to the split a run keeps the direction of the arrival before it
    inbound = np.arange(len(run)) <= split[run]
    dirs[rec[inbound]] = np.append(-1, run_dir[:-1])[run[inbound]]
    return dirs


def bin_counts(ts, rm, gamma: int) -> BinCounts:
    """Count raw (uninterpolated) measurements per route-completion bin."""
    if gamma < 2:
        raise PatchError("gamma must be >= 2")
    fractions, _ = compute_fractions(ts, rm)
    if not fractions:
        raise PatchError("no matched measurements")
    f = np.concatenate([rows[:, 1] for rows in fractions.values()])
    counts = np.bincount(np.minimum((f * gamma).astype(np.int64), gamma - 1), minlength=gamma)
    return BinCounts(gamma, counts.tolist())


def _segment_dp(values: list[float], n: int) -> list[int]:
    """Exact DP: split `values` into n contiguous segments minimizing the total
    within-segment sum of squared deviations.  Returns the segment start
    positions (excluding 0).  Ties break toward the leftmost break vector."""
    m = len(values)
    if n > m:
        raise PatchError("more segments than values")
    pre = np.concatenate([[0.0], np.cumsum(values)])
    pre2 = np.concatenate([[0.0], np.cumsum(np.square(values, dtype=np.float64))])

    def ssd(a: int, b: int) -> float:  # values[a:b]
        s = pre[b] - pre[a]
        return float(pre2[b] - pre2[a] - s * s / (b - a))

    NEG = -1
    cost = np.full((n + 1, m + 1), math.inf)
    back = np.full((n + 1, m + 1), NEG, dtype=int)
    cost[0][0] = 0.0
    for k in range(1, n + 1):
        for i in range(k, m + 1):
            best, bestj = math.inf, NEG
            for j in range(k - 1, i):
                c = cost[k - 1][j] + ssd(j, i)
                if c < best - 1e-12:
                    best, bestj = c, j
            cost[k][i] = best
            back[k][i] = bestj
    breaks = []
    i = m
    for k in range(n, 0, -1):
        j = int(back[k][i])
        if k > 1:
            breaks.append(j)
        i = j
    return breaks[::-1]


def jenks_cluster_counts(c: BinCounts, n: int) -> PatchStructure:
    """Exact natural-breaks segmentation of the bin counts into n patches
    (leftmost ties): a boundary between counts[i-1] and counts[i] maps to a
    breakpoint at bin i."""
    if n < 1 or n > c.gamma:
        raise PatchError("need 1 <= n <= gamma")
    if n == 1:
        return PatchStructure(c.gamma, [])
    return PatchStructure(c.gamma, _segment_dp([float(x) for x in c.counts], n))


def write_patches(ps: PatchStructure, path: str) -> None:
    write_lines(path, [("#", "gamma", ps.gamma), *((b,) for b in ps.breakpoints)])


def read_patches(path: str) -> PatchStructure:
    head: dict[str, int] = {}
    fractions = []

    def parse(fields):
        if fields[:2] == ["#", "gamma"]:
            _, _, bins = fields
            head["gamma"] = int(bins)
        elif not fields[0].startswith("#"):
            (fraction,) = fields
            fractions.append(float(fraction))

    read_lines(path, parse)
    if not fractions or fractions[0] != 0.0 or fractions[-1] != 1.0:
        raise PatchError("breakpoint file must start at 0.0 and end at 1.0")
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise PatchError("breakpoints must strictly increase")
    gamma = head.get("gamma") or 1000000
    bins = [round(f * gamma) for f in fractions[1:-1]]
    return PatchStructure(gamma, bins)

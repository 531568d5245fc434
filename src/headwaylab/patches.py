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
from .route import CompletionTable, EdgeIndex, best_candidate, snap_index
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


def compute_fractions(ts, rm, index: EdgeIndex | None = None):
    """Route-completion fraction for every raw measurement.

    Each vehicle trace is snapped with batched KD-tree queries
    (`EdgeIndex.batches`, one query per record per call); the plain snap
    and both directions' restricted snaps and fractions are picks among those
    candidates, so the loop below only walks precomputed arrays.

    Direction state starts undefined and records before a vehicle's first
    terminus-edge visit are skipped.  Where the two directions share geometry,
    samples on a terminus edge are ambiguous (approach vs departure); each
    maximal run of such samples is split at its closest approach to the
    turnaround node, the earlier part keeping the inbound direction and the
    rest flipping to the outbound one.  Returns (per-vehicle list of
    (t, fraction, x, y), unmatched count)."""
    index = index or snap_index(rm.graph, rm.rejection_radius)
    term_a, term_b = rm.termini
    far_nodes = _terminus_far_nodes(rm)
    tables = [CompletionTable(rm, d) for d in (0, 1)]
    out: dict[str, list[tuple[int, float, float, float]]] = {}
    unmatched = 0

    for vid in ts.vehicles():
        recs = ts.traces[vid]
        edges, snap_dists = [], []
        fracs, oks = ([], []), ([], [])  # per direction: fraction and matched flag of every record
        for cands in index.batches([(r.x, r.y) for r in recs]):
            edge, _, dist = best_candidate(*cands)
            edges += edge.tolist()
            snap_dists += dist.tolist()
            for tbl, frac_d, ok_d in zip(tables, fracs, oks):
                frac, ok = tbl.fractions(*cands)
                frac_d += frac.tolist()
                ok_d += ok.tolist()
        # (record index, snapped edge) of the records within the rejection radius
        snaps = [(r, eid) for r, (eid, dist) in enumerate(zip(edges, snap_dists))
                 if dist <= rm.rejection_radius]
        unmatched += len(recs) - len(snaps)
        rows = []

        def emit(r, term):
            nonlocal unmatched
            d = 0 if term == term_a else 1
            if oks[d][r]:
                rows.append((recs[r].t, fracs[d][r], recs[r].x, recs[r].y))
            else:
                unmatched += 1

        last_term = None
        i = 0
        while i < len(snaps):
            r, eid = snaps[i]
            arriving_at = eid if (eid in (term_a, term_b) and eid != last_term) else None
            if arriving_at is not None:
                j = i
                run = []
                while j < len(snaps) and snaps[j][1] == arriving_at:
                    run.append(snaps[j][0])
                    j += 1
                node = far_nodes.get(arriving_at)
                dists = [math.hypot(recs[r].x - node[0], recs[r].y - node[1]) for r in run]
                split = dists.index(min(dists))
                # at equal speed on both sides, the turnaround lies between
                # the closest sample and its nearer neighbour, so the closest
                # sample belongs to the side of its farther neighbour
                if 0 < split < len(run) - 1 and \
                        dists[split + 1] - dists[split] > dists[split - 1] - dists[split]:
                    split -= 1
                for k, r in enumerate(run):
                    if k <= split:
                        if last_term is None:
                            continue  # inbound leg of the very first visit
                        emit(r, last_term)
                    else:
                        emit(r, arriving_at)
                last_term = arriving_at
                i = j
                continue
            if last_term is None:
                i += 1
                continue
            emit(r, last_term)
            i += 1
        if rows:
            out[vid] = rows
    return out, unmatched


def bin_counts(ts, rm, gamma: int, index: EdgeIndex | None = None) -> BinCounts:
    """Count raw (uninterpolated) measurements per route-completion bin."""
    if gamma < 2:
        raise PatchError("gamma must be >= 2")
    fractions, _ = compute_fractions(ts, rm, index)
    counts = [0] * gamma
    total = 0
    for rows in fractions.values():
        for _, frac, _, _ in rows:
            counts[min(int(frac * gamma), gamma - 1)] += 1
            total += 1
    if total == 0:
        raise PatchError("no matched measurements")
    return BinCounts(gamma, counts)


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

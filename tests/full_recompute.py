"""The estimator's between-chunk bookkeeping done the direct way, kept as
the oracle of `_History.next` and `_Accumulator`.

`SortedHistory.next` sorts each chunk: np.unique gives the boundaries, and
each patch's and each (patch, bus)'s last departure is its first row in the
reversed chunk.  `AllSamples` keeps every sample it is fed and, for a given
stride, takes np.cumsum over all of them and keeps the sums at every
stride-th sample and at the last one.  The estimator moves its history on
with a maximum per row and keeps running prefix sums, thinned as it goes;
both must give the same bits.
"""

from __future__ import annotations

import numpy as np

from headwaylab.properties import HOUR, _Chunk, _History
from headwaylab.simulate import Departures


class SortedHistory(_History):
    def next(self, deps: Departures, end: float) -> _Chunk:
        t, patch, bus = deps.t, deps.patch, deps.bus
        bounds = t
        if self.expiries is not None:
            x = np.concatenate((self.expiries, t + HOUR))
            due = x <= end
            bounds = np.concatenate((t, x[due]))
            self.expiries = x[~due]
        bounds = np.unique(bounds)
        chunk = _Chunk(deps, bounds, self.last.copy(), self.last_bus.copy(), self.count.copy())
        if len(bounds):
            self.time = max(self.time, float(bounds[-1]))
        if len(t):
            by_bus = patch * self.last_bus.shape[1] + bus - 1
            for key, last in ((patch, self.last), (by_bus, self.last_bus.reshape(-1))):
                keys, first = np.unique(key[::-1], return_index=True)  # each key's last row
                last[keys] = t[::-1][first]
            self.count += np.bincount(patch, minlength=len(self.count))
        return chunk


class AllSamples:
    """Every (w, f) fed, in order, and the accumulator's entries and batch
    means at a given stride, recomputed from all of them at each call."""

    def __init__(self):
        self.w: list[float] = []
        self.f: list[float] = []

    def add_chunk(self, w, f):
        self.w += np.asarray(w, dtype=float).tolist()
        self.f += np.asarray(f, dtype=float).tolist()

    def entries(self, stride: int):
        """(cw, cg, m): the prefix sums of w and of w * (f - f[0]) at sample
        0, at every stride-th sample and at the last one, and the mean of F
        over each span between them: f itself at stride 1."""
        w, f = np.array(self.w), np.array(self.f)
        cw = np.concatenate([[0.0], np.cumsum(w)])
        cg = np.concatenate([[0.0], np.cumsum(w * (f - f[0]))])
        at = np.append(np.arange(0, len(w), stride), len(w))
        cw, cg = cw[at], cg[at]
        return cw, cg, f if stride == 1 else f[0] + np.diff(cg) / np.diff(cw)

    def cut(self, k: int, stride: int):
        """(means of F over k batches of equal clock weight, total) from the
        entries at `stride`; a span cut by an edge lends its mean to both
        sides in proportion to its weight on each."""
        cw, cg, m = self.entries(stride)
        ref = self.f[0]
        total = float(cw[-1])
        edges = total * np.arange(k + 1) / k
        edges[-1] = total
        i = np.clip(np.searchsorted(cw, edges, side="right") - 1, 0, m.size - 1)
        g = cg[i] + (edges - cw[i]) * (m[i] - ref)  # integral of (F - ref) up to each edge
        return ref + np.diff(g) / np.diff(edges), total

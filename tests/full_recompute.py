"""The estimator's between-chunk bookkeeping done the direct way, kept as
the oracle of `_History.next` and `_Accumulator._cut`.

`SortedHistory.next` sorts each chunk: np.unique gives the boundaries, and
each patch's and each (patch, bus)'s last departure is its first row in the
reversed chunk.  `full_cut` sums the prefix sums of every unit afresh at
each cut.  The estimator moves its history on with a maximum per row and
keeps running prefix sums; both must give the same bits.
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


def full_cut(acc, k: int):
    """(means of F over k batches of equal clock weight, total) from the
    units of `acc` alone, either mode."""
    w = np.asarray(acc.w)
    m = np.asarray(acc.m)
    ref = m[0]
    d = m - ref
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cg = np.concatenate([[0.0], np.cumsum(w * d)])
    total = float(cw[-1])
    edges = total * np.arange(k + 1) / k
    edges[-1] = total
    i = np.clip(np.searchsorted(cw, edges, side="right") - 1, 0, w.size - 1)
    g = cg[i] + (edges - cw[i]) * d[i]  # integral of (F - ref) up to each edge
    return ref + np.diff(g) / np.diff(edges), total

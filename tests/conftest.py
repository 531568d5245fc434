import numpy as np
import pytest

from headwaylab.graphs import RouteGraph
from headwaylab.ingest import TraceSet
from headwaylab.route import DirectedEdge, RouteModel, _orient_chain
from headwaylab.simulate import Departures, Simulator


def rows(deps: Departures) -> list[tuple[float, int, int, int]]:
    """Departure columns as (t, bus, patch, lap) rows."""
    return list(zip(deps.t.tolist(), deps.bus.tolist(), deps.patch.tolist(), deps.lap.tolist()))


def as_departures(table) -> Departures:
    """Departure columns from (t, bus, patch[, lap]) rows; lap defaults to 0."""
    table = [tuple(r) + (0,) * (4 - len(r)) for r in table]
    t, bus, patch, lap = zip(*table) if table else ((), (), (), ())
    return Departures(np.array(t, dtype=float), np.array(bus, dtype=np.int64),
                      np.array(patch, dtype=np.int64), np.array(lap, dtype=np.int64))


def first_departures(sim: Simulator, count: int, step: float = 50_000.0) -> list[tuple]:
    """The first `count` departures of a fresh simulator as rows; it runs
    in chunks of `step` simulated seconds, so it may run past them."""
    got: list[tuple] = []
    end = 0.0
    while len(got) < count:
        end += step
        got += rows(sim.run(until_time=end))
    return got[:count]


def straight_route_model(n_edges: int = 10, edge_len: float = 100.0,
                         radius: float = 30.0) -> RouteModel:
    """Out-and-back route model on a straight horizontal path, built directly
    (no map inference): termini are the first and last edges."""
    g = RouteGraph()
    for i in range(n_edges + 1):
        g.nodes[i] = (i * edge_len, 0.0)
    for i in range(n_edges):
        g.edges[i] = (i, i + 1, edge_len)
    ids = list(range(n_edges))
    dir1 = _orient_chain(g, ids)
    dir2 = _orient_chain(g, ids[::-1])
    seqs = []
    offset = 0.0
    for seq in (dir1, dir2):
        out = []
        for eid, fwd in seq:
            out.append(DirectedEdge(eid, fwd, offset, g.edges[eid][2]))
            offset += g.edges[eid][2]
        seqs.append(out)
    return RouteModel(g, (0, n_edges - 1), (seqs[0], seqs[1]), offset, radius)


def traces_from_fractions(rm: RouteModel, samples, vehicle="v1") -> TraceSet:
    """Build a trace set whose records sit exactly on the route at the given
    (t, fraction) samples."""
    path_len = rm.direction_length(0)
    rows = []
    for t, f in samples:
        arc = (f % 1.0) * rm.loop_length
        if arc > path_len:
            arc = rm.loop_length - arc
        rows.append((int(t), arc, 0.0))
    return TraceSet({vehicle: rows})


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

"""Synthetic AVL fixtures with known ground truth, and the paper's two
case-study models.

Traces come from the simulator the model checker runs: `generate_traces`
runs a patch-based loop model untimetabled in `simulate.Simulator`, one
replication per day, so each bus draws from the stream [seed, day, bus]
(see Streams in `simulate`).  Each day's run starts with a lead of one lap
before the first sample, so every bus has departed by then.
`traces_from_run` turns a run's departures into positions on an
out-and-back route of known planar geometry: between two departures a bus
moves at constant speed across its patch.  Timetabled, holding and
speed-modification fixtures come from the same two steps on another
`SimConfig`.  Used by the pipeline round-trip tests and the bundled demo
fixture.

`airlink_model` and `bellevue_express_model` are the simulation models of the
paper's two case studies (arXiv 2009.13053): the Airlink in Edinburgh and
the Bellevue Express in Seattle.  The Erlang (k, rate) of every patch is the
fit the paper publishes for that service.  The fleet size, the route
duration r and the terminus patches set the timetable the models run
with: r = 5259 s for the Airlink, and 6323 s for the Bellevue Express, a
little under the 6340.5 s its patch means sum to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fitting import ErlangParams, PatchModel
from .ingest import TraceSet
from .simulate import Departures, SimConfig, SimModel, Simulator, build_model

# Published Erlang (k, rate) per patch, patch 1 first.
_AIRLINK_ERLANGS = ((44, 0.0482), (106, 0.4190), (68, 0.1858), (73, 0.2011), (17, 0.0523),
                   (37, 0.0710), (40, 0.0419), (30, 0.0765), (78, 0.1196), (101, 0.1895))
_BELLEVUE_EXPRESS_ERLANGS = ((2, 0.0044), (46, 0.1098), (155, 0.3370), (45, 0.1275),
                            (38, 0.0784), (24, 0.0538), (1, 0.0010), (24, 0.0442),
                            (20, 0.0361), (14, 0.0284), (28, 0.0482), (20, 0.0362))


@dataclass
class SyntheticRoute:
    """Out-and-back route: fraction f in [0, 0.5) runs A->B along the path,
    [0.5, 1) runs B->A.  Path is an arc-length-parametrized polyline."""

    vertices: np.ndarray  # (m, 2)
    cum: np.ndarray = field(init=False)

    def __post_init__(self):
        seg = np.diff(self.vertices, axis=0)
        self.cum = np.concatenate([[0.0], np.cumsum(np.hypot(seg[:, 0], seg[:, 1]))])

    @property
    def oneway_length(self) -> float:
        return float(self.cum[-1])

    @property
    def loop_length(self) -> float:
        return 2.0 * self.oneway_length

    def points_at(self, f: np.ndarray) -> np.ndarray:
        """(len(f), 2) positions at route fractions f in [0, 1]."""
        arc = np.asarray(f, dtype=float) * self.loop_length
        s = np.where(arc <= self.oneway_length, arc, self.loop_length - arc)
        return np.column_stack([np.interp(s, self.cum, self.vertices[:, 0]),
                                np.interp(s, self.cum, self.vertices[:, 1])])


def gentle_s_curve(length: float = 6000.0, amplitude: float = 900.0,
                   waves: float = 1.5, points: int = 1500) -> SyntheticRoute:
    x = np.linspace(0.0, length, points)
    y = amplitude * np.sin(2 * math.pi * waves * x / length)
    return SyntheticRoute(np.column_stack([x, y]))


@dataclass
class SyntheticModel:
    route: SyntheticRoute
    breakpoints: list[float]  # n+1 fractions, 0.0 .. 1.0
    params: list[ErlangParams]  # one per patch


def default_eight_patch_model() -> SyntheticModel:
    """8-patch fixture: two short high-dwell terminus patches (patch 1 at the
    A end spanning fraction 0, patch 5 straddling the B end at 0.5) and six
    running patches with distinct occupancy levels.  Breakpoints sit on a
    40-bin grid."""
    bins = [0, 2, 8, 14, 18, 20, 26, 33, 40]
    breakpoints = [b / 40 for b in bins]
    # Adjacent occupancy levels contrast strongly so the count profile has
    # unambiguous steps at every patch boundary.  Patch 5 ends exactly at the
    # far turnaround (fraction 0.5) and patch 1 starts at the near one, so the
    # structure stays an 8-piece partition whichever terminus the recovered
    # route picks as its origin.
    params = [
        ErlangParams(40, 40 / 650.0),   # terminus A dwell (departure side)
        ErlangParams(60, 60 / 315.0),
        ErlangParams(60, 60 / 490.0),
        ErlangParams(60, 60 / 210.0),
        ErlangParams(40, 40 / 560.0),   # terminus B dwell (approach side)
        ErlangParams(60, 60 / 507.5),
        ErlangParams(60, 60 / 360.0),
        ErlangParams(60, 60 / 560.0),
    ]
    return SyntheticModel(gentle_s_curve(), breakpoints, params)


def _case_study(erlangs, n_buses: int, route_duration: float, overrides) -> SimModel:
    pm = PatchModel([ErlangParams(k, rate) for k, rate in erlangs])
    cfg = dict(n_buses=n_buses, timetable=True, route_duration=route_duration,
               terminus_patches=(1, 7))
    return build_model(pm, SimConfig(**{**cfg, **overrides}))


def airlink_model(**overrides) -> SimModel:
    """The published Airlink model: 10 Erlang patches, 11 buses, timetabled
    with termini 1 and 7 and r = 5259 s.  Keyword arguments replace
    `SimConfig` fields (route_duration=None takes r as the sum of the
    patch means, 5272.98 s)."""
    return _case_study(_AIRLINK_ERLANGS, 11, 5259.0, overrides)


def bellevue_express_model(**overrides) -> SimModel:
    """The published Bellevue Express model: 12 Erlang patches, 12 buses,
    timetabled with termini 1 and 7 and r = 6323 s.  Keyword arguments
    replace `SimConfig` fields."""
    return _case_study(_BELLEVUE_EXPRESS_ERLANGS, 12, 6323.0, overrides)


def traces_from_run(deps: Departures, breakpoints, route: SyntheticRoute,
                    times) -> list[np.ndarray]:
    """Each bus's (t, x, y) rows at its sample times, times[b - 1] for bus b
    on the run's clock.  The knots of a bus are its departures, a departure
    from patch j at route fraction breakpoints[j]; between two knots the bus
    moves at constant speed, so a sample at a departure sits exactly on the
    breakpoint.  A sample time before a bus's first departure or after its
    last raises ValueError."""
    bp = np.asarray(breakpoints, dtype=float)
    n = len(bp) - 1
    out = []
    for b, t in enumerate(times, start=1):
        t = np.asarray(t, dtype=float)
        mine = deps.bus == b
        kt, patch = deps.t[mine], deps.patch[mine]
        if len(t) and not (len(kt) and kt[0] <= t.min() and t.max() <= kt[-1]):
            raise ValueError(f"bus {b}: sample times must lie within its departures")
        u = np.interp(t, kt, np.arange(len(kt), dtype=float)) if len(t) else t
        i = u.astype(np.int64)  # the knot before each sample, u - i of the way to the next
        start = bp[patch[i]] % 1.0  # the end of the patch departed, 0.0 after the last
        f = start + (bp[patch[i] % n + 1] - start) * (u - i)
        out.append(np.column_stack([t, route.points_at(f)]))
    return out


def generate_traces(model: SyntheticModel, n_buses: int, days: int,
                    day_start: int = 10 * 3600, day_end: int = 15 * 3600,
                    sample_interval: int = 35, seed: int = 7,
                    base_day: int = 19723) -> TraceSet:
    """Run the model untimetabled in `Simulator` and sample its buses.

    Day d is replication d of the seed.  Its run starts one lap, ceil(r)
    seconds, before day_start and ends one lap after day_end.  Bus b (from 0)
    is sampled every sample_interval seconds from day_start + (7 b) %
    sample_interval on, before day_end.  base_day is days-since-epoch of the
    first day (a Monday by default so a Mon-Fri window filter keeps
    everything).
    """
    sm = build_model(PatchModel(model.params),
                     SimConfig(n_buses, timetable=False, breakpoints=tuple(model.breakpoints)))
    lead = math.ceil(sm.r)
    span = day_end - day_start
    times = [np.arange(lead + (7 * b) % sample_interval, lead + span, sample_interval)
             for b in range(n_buses)]
    rows: list[list[np.ndarray]] = [[] for _ in range(n_buses)]
    for day in range(days):
        deps = Simulator(sm, seed=seed, replication=day).run(lead + span + lead)
        for b, txy in enumerate(traces_from_run(deps, model.breakpoints, model.route, times)):
            txy[:, 0] += (base_day + day) * 86400 + day_start - lead
            rows[b].append(txy)
    return TraceSet({f"bus{b + 1:02d}": np.concatenate(r or [np.empty((0, 3))])
                     for b, r in enumerate(rows)})

"""Synthetic AVL fixtures with known ground truth, and the paper's two
case-study models.

Generates traces from a patch-based loop model on an out-and-back route: each
bus sojourns in patch j for an Erlang(k_j, rate_j) time while its route
fraction advances linearly across the patch span, and its position is sampled
every sample_interval seconds along a known planar geometry.  Used by the
pipeline round-trip tests and the bundled demo fixture.

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
from .simulate import SimConfig, SimModel, build_model

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

    def point_at_arc(self, s: float) -> tuple[float, float]:
        s = min(max(s, 0.0), self.oneway_length)
        i = int(np.searchsorted(self.cum, s, side="right")) - 1
        i = min(i, len(self.cum) - 2)
        seg_len = self.cum[i + 1] - self.cum[i]
        t = 0.0 if seg_len == 0 else (s - self.cum[i]) / seg_len
        a, b = self.vertices[i], self.vertices[i + 1]
        return float(a[0] + (b[0] - a[0]) * t), float(a[1] + (b[1] - a[1]) * t)

    def point_at_fraction(self, f: float) -> tuple[float, float]:
        f = f % 1.0
        arc = f * self.loop_length
        if arc <= self.oneway_length:
            return self.point_at_arc(arc)
        return self.point_at_arc(self.loop_length - arc)


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

    @property
    def n(self) -> int:
        return len(self.params)

    @property
    def means(self) -> list[float]:
        return [p.mean for p in self.params]

    def patch_span(self, j: int) -> tuple[float, float]:
        return self.breakpoints[j - 1], self.breakpoints[j]


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


def generate_traces(model: SyntheticModel, n_buses: int, days: int,
                    day_start: int = 10 * 3600, day_end: int = 15 * 3600,
                    sample_interval: int = 35, seed: int = 7,
                    base_day: int = 19723) -> TraceSet:
    """Simulate buses through the patch model and sample their positions.

    base_day is days-since-epoch of the first generated day (a Monday by
    default so a Mon-Fri window filter keeps everything).
    """
    rng = np.random.default_rng(seed)
    traces: dict[str, list[tuple[int, float, float]]] = {}
    for b in range(n_buses):
        vid = f"bus{b + 1:02d}"
        rows: list[tuple[int, float, float]] = []
        for day in range(days):
            t0 = (base_day + day) * 86400 + day_start
            t_end = (base_day + day) * 86400 + day_end
            # stagger starts within the loop
            frac = (b / n_buses) % 1.0
            t = float(t0)
            next_sample = t0 + (b * 7) % sample_interval
            j = 1
            while model.breakpoints[j] <= frac:
                j += 1
            # partially completed sojourn for the starting patch
            lo, hi = model.patch_span(j)
            p = model.params[j - 1]
            sojourn = float(rng.gamma(p.k, 1.0 / p.rate))
            done = (frac - lo) / (hi - lo)
            t_entry = t - sojourn * done
            while t < t_end:
                t_exit = t_entry + sojourn
                while next_sample < min(t_exit, t_end):
                    lo, hi = model.patch_span(j)
                    f = lo + (hi - lo) * (next_sample - t_entry) / sojourn
                    x, y = model.route.point_at_fraction(f)
                    rows.append((int(next_sample), x, y))
                    next_sample += sample_interval
                t = t_exit
                t_entry = t_exit
                j = j % model.n + 1
                p = model.params[j - 1]
                sojourn = float(rng.gamma(p.k, 1.0 / p.rate))
        traces[vid] = rows
    return TraceSet(traces)

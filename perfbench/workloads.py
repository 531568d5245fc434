"""The benchmark's workloads: seeded inputs, the measured work, and the checks
of its outputs.

Two kinds share one interface.  A map-generation workload serialises traces
of the synthetic 8-patch fixture to CSV text; set-up parses that text, and
the work runs map generation, patch identification and fitting, then scores
the result against the fixture's ground truth.  A model-checking workload
builds a simulation model from the published Airlink parameters and parses
its queries during set-up; the work checks every query.  Every call into
headwaylab goes through its module attribute, so the tracer's wrappers see
it.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from headwaylab import fitting, graphs, ingest, patches, properties, raster, route, simulate, synthetic

N_PATCHES = 8  # patches of synthetic.default_eight_patch_model

# Published Airlink parameters: Erlang shape and rate per patch.
AIRLINK_K = (44, 106, 68, 73, 17, 37, 40, 30, 78, 101)
AIRLINK_RATES = (0.0482, 0.4190, 0.1858, 0.2011, 0.0523, 0.0710, 0.0419, 0.0765, 0.1196, 0.1895)
AIRLINK_BUSES = 11
AIRLINK_R = 5259.0
AIRLINK_TERMINI = (1, 7)

# Tolerances of the output checks.  They sit above the known residual
# errors, which are reported as measured: the worst patch mean, next to a
# turnaround, is 5-7% off, and route length 1-2%.
ROUTE_LEN_TOL = 0.03
BREAK_TOL = 0.5 / 40  # half a bin of the fixture's 40-bin grid
PATCH_MEAN_TOL = 0.12


class StageFailed(Exception):
    pass


@dataclass
class Outcome:
    """What one execution of a workload's work produced."""

    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # one per failed operation
    quality: dict[str, float] = field(default_factory=dict)
    fingerprint: list = field(default_factory=list)  # outputs a same-seed rerun must repeat
    problems: list[str] = field(default_factory=list)  # failed output checks, besides errors
    state: dict = field(default_factory=dict)  # intermediate results for stage isolation


class _Ops:
    """Counts operations attempted and failed; a failed chained stage aborts
    the rest of the chain, which then count as failed too."""

    def __init__(self, out: Outcome):
        self.out = out
        self.done = 0

    def call(self, fn, *args, fatal: bool = True, **kwargs):
        self.done += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # noqa: BLE001 - a stage failure is a measured outcome
            self.out.failed += 1
            self.out.errors.append(f"{getattr(fn, '__name__', fn)}: {type(e).__name__}: {e}")
            if fatal:
                raise StageFailed from e
            return None

    def finish(self):
        self.out.failed += self.out.attempted - self.done


# --- map generation ----------------------------------------------------------

@dataclass(frozen=True)
class MapgenParams:
    buses: int
    days: int
    delta: float
    gamma: int
    branches: int
    # Check breakpoints and patch means against the fixture.  Off at
    # gamma=400, where Jenks on raw counts isolates single bins next to the
    # turnarounds on some seeds; the errors are still reported as measured.
    truth_checked: bool = True


class Mapgen:
    reads_stdin = True

    def __init__(self, name: str, sizes: dict[str, MapgenParams]):
        self.name = name
        self.sizes = sizes
        self.fixture = synthetic.default_eight_patch_model()

    def make_inputs(self, seed: int, size: str) -> str:
        p = self.sizes[size]
        ts = synthetic.generate_traces(self.fixture, n_buses=p.buses, days=p.days, seed=seed)
        return ingest.serialize(ts)

    @staticmethod
    def program(inputs, size: str) -> ingest.TraceSet:
        """Parse the CSV, given as text or as a text stream."""
        stream = io.StringIO(inputs) if isinstance(inputs, str) else inputs
        ts, report = ingest.parse_records(stream)
        if report.rows_rejected or report.duplicates_dropped:
            raise ValueError(f"generated CSV did not parse cleanly: {report}")
        return ts

    def run(self, ts, size: str) -> Outcome:
        p = self.sizes[size]
        out = Outcome(attempted=9 + N_PATCHES)
        ops = _Ops(out)
        try:
            heat = ops.call(raster.rasterize_heatmap, ts, resolution=900, delta=p.delta)
            blur = ops.call(raster.gaussian_blur, heat, 1.0)
            positive = blur.intensity[blur.intensity > 0]
            sk = ops.call(raster.skeletonize, blur, tau=0.3, eta=float(np.percentile(positive, 90)) / 40)
            g = ops.call(graphs.build_graph, sk, epsilon=2.0)
            rm = ops.call(route.derive_route_model, g, ts, rejection_radius=3 * heat.cell_size)
            counts = ops.call(patches.bin_counts, ts, rm, gamma=p.gamma)
            ps = ops.call(patches.jenks_cluster_counts, counts, N_PATCHES)
            obs = ops.call(fitting.extract_crossing_times, ts, rm, ps)
            pm, flagged = ops.call(fitting.fit_patch_model, obs, branches=p.branches)
            gof = [ops.call(fitting.anderson_darling, obs.get(j, []), d, fatal=False)
                   for j, d in enumerate(pm.dists, start=1)]
        except StageFailed:
            ops.finish()
            return out
        ops.finish()
        out.state = {"rm": rm}
        out.fingerprint = [rm.direction_length(0), rm.direction_length(1), ps.break_bins,
                           [_dist_key(d) for d in pm.dists], flagged,
                           [None if r is None else r.a2 for r in gof]]
        self._score(out, rm, ps, pm, p.truth_checked)
        return out

    def truth(self, rm) -> tuple[list[float], list[int]]:
        """Interior breakpoints of the fixture in the derived route's frame, and
        the fixture patch (0-based) behind each recovered patch.  The derived
        loop starts at whichever turnaround its first direction leaves from;
        starting at the far one rotates every fraction by one half."""
        de = rm.directions[0][0]
        a, b, _ = rm.graph.edges[de.edge_id]
        start = rm.graph.nodes[a if de.forward else b]
        near, far = self.fixture.route.vertices[0], self.fixture.route.vertices[-1]
        shift = 0.5 if math.dist(start, far) < math.dist(start, near) else 0.0
        starts = [(bp + shift) % 1.0 for bp in self.fixture.breakpoints[:-1]]
        order = sorted(range(N_PATCHES), key=lambda i: starts[i])
        return [starts[i] for i in order[1:]], order

    def _score(self, out: Outcome, rm, ps, pm, truth_checked: bool) -> None:
        truth_len = self.fixture.route.oneway_length
        len_err = max(abs(rm.direction_length(d) - truth_len) for d in (0, 1)) / truth_len
        interior, order = self.truth(rm)
        got = ps.breakpoints[1:-1]
        break_err = max(abs(g - t) for g, t in zip(got, interior)) if len(got) == len(interior) else math.inf
        true_means = [self.fixture.params[i].mean for i in order]
        mean_err = max(abs(m - t) / t for m, t in zip(pm.means, true_means))
        out.quality = {"route.len_err": len_err, "patches.break_err_max": break_err,
                       "fitting.patch_mean_err_max": mean_err}
        checks = [("route length error", len_err, ROUTE_LEN_TOL)]
        if truth_checked:
            checks += [("breakpoint error", break_err, BREAK_TOL), ("patch mean error", mean_err, PATCH_MEAN_TOL)]
        for what, value, tol in checks:
            if not value <= tol:
                out.problems.append(f"{what} {value:.4g} above tolerance {tol:.4g}")

    def isolate(self, ts, size: str, out: Outcome) -> dict[str, float]:
        """Crossing extraction on the derived route with the fixture's true
        breakpoints: the largest relative error of the per-patch sample mean
        (the Erlang fit's mean) against the true mean."""
        if "rm" not in out.state:
            return {"fitting.patch_mean_err_true_breaks": math.inf}
        gamma = self.sizes[size].gamma
        rm = out.state["rm"]
        interior, order = self.truth(rm)
        ps = patches.PatchStructure(gamma, [round(f * gamma) for f in interior])
        obs = fitting.extract_crossing_times(ts, rm, ps)
        errs = []
        for j, i in enumerate(order, start=1):
            t = self.fixture.params[i].mean
            errs.append(abs(float(np.mean(obs[j])) - t) / t if obs[j] else math.inf)
        return {"fitting.patch_mean_err_true_breaks": max(errs)}


def _dist_key(d) -> tuple:
    if isinstance(d, fitting.ErlangParams):
        return (d.k, d.rate)
    return (d.shapes, d.rates, d.weights)


# --- model checking ------------------------------------------------------------

@dataclass(frozen=True)
class CheckParams:
    queries: tuple[str, ...]  # names of properties.*_query builders, per patch
    patches: tuple[int, ...]
    max_sim_time_r: float  # cap on simulated time, in units of the route duration r
    rel_halfwidth: float
    warmup_r: float | None = None  # None: the estimator's default, 10 r
    chunk_r: float | None = None  # None: the estimator's default, 20 r


class ModelCheck:
    reads_stdin = False

    def __init__(self, name: str, sim: dict, sizes: dict[str, CheckParams]):
        self.name = name
        self.sim = sim
        self.sizes = sizes

    def make_inputs(self, seed: int, size: str) -> int:
        return seed

    def program(self, seed: int, size: str):
        """The simulation model, estimator settings and parsed queries."""
        p = self.sizes[size]
        pm = fitting.PatchModel([fitting.ErlangParams(k, lam) for k, lam in zip(AIRLINK_K, AIRLINK_RATES)])
        model = simulate.build_model(pm, simulate.SimConfig(n_buses=AIRLINK_BUSES, seed=seed, **self.sim))
        r = model.r
        ecfg = properties.EstimatorConfig(
            warmup_time=None if p.warmup_r is None else p.warmup_r * r,
            chunk_time=None if p.chunk_r is None else p.chunk_r * r,
            rel_halfwidth_target=p.rel_halfwidth, wall_budget=1e9,
            max_sim_time=p.max_sim_time_r * r)
        # the order of the CLI's default check: every query of patch 1, then 2, ...
        props = [(q, j, properties.parse_quatex(getattr(properties, f"{q}_query")(j)))
                 for j in p.patches for q in p.queries]
        return model, ecfg, props, seed

    def run(self, program, size: str) -> Outcome:
        model, ecfg, props, seed = program
        out = Outcome(attempted=sum(len(prop.assertions) for _, _, prop in props))
        results = []
        for q, j, prop in props:
            try:
                res = properties.check_assertions(model, prop, ecfg, seed=seed)
            except Exception as e:  # noqa: BLE001 - a raised assertion is a measured failure
                out.failed += len(prop.assertions)
                out.errors.append(f"{q}_{j}: {type(e).__name__}: {e}")
                continue
            for r in res:
                if r.truncated:
                    out.failed += 1
                    out.errors.append(f"{q}_{j}: truncated by the wall budget")
                results.append((q, j, r))
        out.fingerprint = [(q, j, r.estimate, r.halfwidth, r.verdict, r.batches, r.sim_time)
                           for q, j, r in results]
        decided = sum(1 for _, _, r in results if r.verdict in ("satisfied", "violated"))
        ewt_hw = [r.halfwidth for q, _, r in results
                  if q == "ewt" and r.event_observed and math.isfinite(r.halfwidth)]
        out.quality = {"properties.decided_frac": decided / out.attempted,
                       "properties.ewt_hw_max_s": max(ewt_hw, default=math.inf)}
        out.problems += self._check(results)
        return out

    def _check(self, results) -> list[str]:
        problems = []
        for q, j, r in results:
            if not r.event_observed:
                continue
            if r.estimate is None or not (math.isfinite(r.estimate) and math.isfinite(r.halfwidth)
                                          and r.halfwidth >= 0):
                problems.append(f"{q}_{j}: estimate {r.estimate} ± {r.halfwidth} not finite")
                continue
            thr = r.query.threshold
            expect = ("satisfied" if r.estimate + r.halfwidth < thr else
                      "violated" if r.estimate - r.halfwidth >= thr else "undecided")
            if r.verdict != expect:
                problems.append(f"{q}_{j}: verdict {r.verdict}, interval says {expect}")
            if q == "ewt" and self.sim.get("timetable") and r.verdict == "violated":
                problems.append(f"{q}_{j}: timetabled Airlink violates EWT < {thr}")
        return problems


WORKLOADS = {
    wl.name: wl for wl in (
        Mapgen("mapgen", {"full": MapgenParams(12, 10, 0.0, 40, 1),
                          "tiny": MapgenParams(6, 3, 0.0, 40, 1)}),
        # Not in BENCHMARK.json: its wall time spreads by 20-30% across seeds,
        # wider than any bound the benchmark may set (see perfbench/README.md).
        Mapgen("mapgen-hyper", {"full": MapgenParams(4, 10, 0.2, 400, 2, truth_checked=False),
                                "tiny": MapgenParams(6, 3, 0.2, 400, 2, truth_checked=False)}),
        ModelCheck(
            "check-airlink",
            dict(timetable=True, route_duration=AIRLINK_R, terminus_patches=AIRLINK_TERMINI),
            {"full": CheckParams(("ewt", "evwt", "bph"), tuple(range(1, 11)), 190.0, 0.10),
             "tiny": CheckParams(("ewt", "evwt", "bph"), (1, 2), 30.0, 0.10)}),
        ModelCheck(
            "strategy-speedmod",
            dict(timetable=False, holding_threshold=120.0, speedmod_threshold=0.15, slowdown=0.9),
            {"full": CheckParams(("ewt",), tuple(range(1, 11)), 8.0, 0.0, warmup_r=2.0, chunk_r=1.0),
             "tiny": CheckParams(("ewt",), (1, 2), 8.0, 0.0, warmup_r=2.0, chunk_r=1.0)}),
    )
}

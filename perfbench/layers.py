"""Per-layer instrumentation: which headwaylab calls get spans or counters,
and the per-layer metrics computed from them.

Coarse calls (one per stage, or one per simulation chunk) get spans.  Calls
made per record or per event get counters only: EdgeIndex.snap,
route_completion, and evaluate_expr, which also sums its own time so that
simulate.self_s can leave the property evaluation out.
"""

from __future__ import annotations

import time

from headwaylab import fitting, graphs, ingest, patches, properties, raster, route, simulate

from tracing import Tracer


def instrument(tr: Tracer) -> None:
    tr.wrap_span(ingest, "parse_records", "ingest.parse",
                 on_result=lambda res: tr.count("ingest.records", len(res[0])))
    tr.wrap_span(raster, "rasterize_heatmap", "raster.heatmap")
    tr.wrap_span(raster, "gaussian_blur", "raster.blur")
    tr.wrap_span(raster, "skeletonize", "raster.skeleton",
                 on_result=lambda sk: tr.count("raster.skeleton_px", int(sk.mask.sum())))
    tr.wrap_span(graphs, "build_graph", "graphs.build",
                 on_result=lambda g: tr.count("graphs.edges", len(g.edges)))
    tr.wrap_span(route, "derive_route_model", "route.derive")
    tr.wrap_span(patches, "bin_counts", "patches.bin_counts")
    tr.wrap_span(patches, "jenks_cluster_counts", "patches.jenks")
    tr.wrap_span(fitting, "extract_crossing_times", "fitting.crossings",
                 on_result=lambda obs: tr.count("fitting.observations", sum(map(len, obs.values()))))
    tr.wrap_span(fitting, "fit_patch_model", "fitting.fit",
                 on_result=lambda res: tr.count("fitting.patches", res[0].n))
    tr.wrap_span(fitting, "anderson_darling", "fitting.gof")

    def fractions(original):
        def wrapper(ts, rm, *args, **kwargs):
            with tr.span("patches.fractions"):
                rows, unmatched = original(ts, rm, *args, **kwargs)
            tr.count("patches.fraction_inputs", len(ts))
            tr.count("patches.fraction_rows", sum(map(len, rows.values())))
            return rows, unmatched
        return wrapper

    # fitting imported compute_fractions by name, so both bindings are patched
    for owner in (patches, fitting):
        tr.patch(owner, "compute_fractions", fractions)

    def counted(name):
        def make(original):
            def wrapper(*args, **kwargs):
                tr.count(name)
                return original(*args, **kwargs)
            return wrapper
        return make

    tr.patch(route.EdgeIndex, "snap", counted("route.snap_calls"))
    tr.patch(patches, "route_completion", counted("route.completion_calls"))
    tr.patch(simulate.Simulator, "__init__", counted("simulate.trajectories"))

    def timed_eval(original):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tr.count("properties.eval_s", time.perf_counter() - t0)
                tr.count("properties.eval_calls")
        return wrapper

    tr.patch(properties, "evaluate_expr", timed_eval)

    def sim_run(original):
        def wrapper(sim, *args, **kwargs):
            events, slow = sim.events_processed, getattr(sim, "slow_draws", 0)
            with tr.span("simulate.run"):
                result = original(sim, *args, **kwargs)
            tr.count("simulate.events", sim.events_processed - events)
            tr.count("simulate.slow_draws", getattr(sim, "slow_draws", 0) - slow)
            return result
        return wrapper

    tr.patch(simulate.Simulator, "run", sim_run)

    def estimate(original):
        def wrapper(model, query, functions, cfg=None, *args, **kwargs):
            with tr.span("properties.estimate"):
                result = original(model, query, functions, cfg, *args, **kwargs)
            warmup = cfg.warmup_time if cfg is not None and cfg.warmup_time is not None else 10.0 * model.r
            tr.count("properties.assertions")
            tr.count("properties.sim_time", result.sim_time)
            tr.count("properties.warmup_time", min(warmup, result.sim_time))
            return result
        return wrapper

    tr.patch(properties, "estimate_steady_state", estimate)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Metrics of the traced execution; a layer the workload does not run
    reads 0."""
    c = tr.counters
    run_s = tr.total("simulate.run")
    fit_s = tr.total("fitting.fit")
    return {
        "ingest.parse_s": tr.total("ingest.parse"),
        "ingest.records": c["ingest.records"],
        "raster.heatmap_s": tr.total("raster.heatmap"),
        "raster.blur_s": tr.total("raster.blur"),
        "raster.skeleton_s": tr.total("raster.skeleton"),
        "raster.skeleton_px": c["raster.skeleton_px"],
        "graphs.build_s": tr.total("graphs.build"),
        "graphs.edges": c["graphs.edges"],
        "route.derive_s": tr.total("route.derive"),
        "route.snap_calls": c["route.snap_calls"],
        "route.snap_calls_per_record": _ratio(c["route.snap_calls"], c["ingest.records"]),
        "route.completion_calls": c["route.completion_calls"],
        "patches.fractions_calls": tr.calls("patches.fractions"),
        "patches.fractions_s": tr.total("patches.fractions"),
        "patches.matched_frac": _ratio(c["patches.fraction_rows"], c["patches.fraction_inputs"]),
        "patches.bin_counts_s": tr.total("patches.bin_counts"),
        "patches.jenks_s": tr.total("patches.jenks"),
        "fitting.crossings_s": tr.total("fitting.crossings"),
        "fitting.observations": c["fitting.observations"],
        "fitting.fit_s": fit_s,
        "fitting.fit_s_per_patch": _ratio(fit_s, c["fitting.patches"]),
        "fitting.gof_s": tr.total("fitting.gof"),
        "simulate.trajectories": c["simulate.trajectories"],
        "simulate.run_calls": tr.calls("simulate.run"),
        "simulate.events": c["simulate.events"],
        "simulate.run_s": run_s,
        # evaluate_expr runs only inside Simulator.run, from the estimator's observer
        "simulate.self_s": run_s - c["properties.eval_s"],
        "simulate.events_per_s": _ratio(c["simulate.events"], run_s),
        "simulate.slow_draws": c["simulate.slow_draws"],
        "properties.assertions": c["properties.assertions"],
        "properties.estimate_s": tr.total("properties.estimate"),
        "properties.eval_calls": c["properties.eval_calls"],
        "properties.eval_s": c["properties.eval_s"],
        "properties.sim_time": c["properties.sim_time"],
        "properties.warmup_share": _ratio(c["properties.warmup_time"], c["properties.sim_time"]),
    }


def counter_sanity(workload: str, m: dict[str, float]) -> list[tuple[str, bool]]:
    """Counter readings that follow from how the code at the time the
    benchmark was written calls its layers: each record is snapped five times
    (once in derive_route_model and twice in each of the two compute_fractions
    calls), the phased run slows some draws, and every assertion has its own
    trajectory.  A change that removes those passes moves them on purpose."""
    if workload == "mapgen":
        return [(f"route.snap_calls_per_record = {m['route.snap_calls_per_record']:.3f}, about 5.0",
                 abs(m["route.snap_calls_per_record"] - 5.0) < 0.05),
                (f"patches.fractions_calls = {m['patches.fractions_calls']:g}, 2",
                 m["patches.fractions_calls"] == 2)]
    if workload == "strategy-speedmod":
        return [(f"simulate.slow_draws = {m['simulate.slow_draws']:g}, above 0",
                 m["simulate.slow_draws"] > 0)]
    if workload == "check-airlink":
        return [(f"simulate.trajectories = {m['simulate.trajectories']:g}, "
                 f"properties.assertions = {m['properties.assertions']:g}, equal",
                 m["simulate.trajectories"] == m["properties.assertions"])]
    return []

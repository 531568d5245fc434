"""Command-line pipeline: each stage is a subcommand with inspectable
intermediate artifacts, plus `pipeline` to run them end to end.

Each stage `cmd_<stage>(args, out, *inputs)` takes objects, writes its
artifacts to `out` and returns exactly what the next stage would read back from
them: for the three PGM stages, the 8-bit raster.  A subcommand reads its
inputs from its positional artifacts (`COMMANDS`); `pipeline` parses the traces
once and hands each result on, so it writes the bytes of the ten subcommands
run one after another."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import artifacts, fitting, graphs, ingest, patches, properties, raster, route, simulate

ARTIFACTS = {  # stage -> the files it writes, stages in run order
    "ingest": ["traces.csv"],
    "heatmap": ["heatmap.pgm"],
    "blur": ["blurred.pgm"],
    "skeleton": ["skeleton.pgm"],
    "graph": ["graph.txt"],
    "route": ["route.txt"],
    "patches": ["patches.txt"],
    "fit": ["observations.tsv", "model.txt", "gof.tsv"],
    "simulate": ["events.tsv"],
    "check": ["results.tsv"],
}
STAGES = list(ARTIFACTS)


class StageError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


CONFIG_FLAG = "--config"


# Each stage's flags are declared once, here; the stage's own subcommand and
# `pipeline` both take them.

def _out_flag(p):
    p.add_argument("--out", default=".", help="output directory")


def _ingest_flags(p):
    p.add_argument("--delimiter", default=",")
    p.add_argument("--cols", default="0,1,2,3", help="vehicle,x,y,t column indices")
    p.add_argument("--route-col", type=int)
    p.add_argument("--route-value")
    p.add_argument("--time-format", default="unix", choices=sorted(ingest.TIME_HOOKS))
    p.add_argument("--window", help="daily window as start-end seconds, e.g. 36000-54000")
    p.add_argument("--weekdays", help="comma list of weekday numbers, Monday=0")
    p.add_argument("--tz-offset", type=int, default=0)


def _heatmap_flags(p):
    p.add_argument("--cell-size", type=float)
    p.add_argument("--resolution", type=int, default=raster.DEFAULT_RESOLUTION)
    p.add_argument("--delta", type=float, default=0.0, help="interpolation weight")
    p.add_argument("--boost", type=float, default=0.0, help="contrast boost")


def _blur_flags(p):
    p.add_argument("--sigma", type=float, default=1.0)


def _skeleton_flags(p):
    p.add_argument("--tau", type=float, required=True, help="intensity threshold")
    p.add_argument("--eta", type=float, required=True, help="erosion step")


def _graph_flags(p):
    p.add_argument("--epsilon", type=float, default=2.0, help="RDP tolerance in cells")
    p.add_argument("--split-divisor", type=float, default=1.0)


def _radius(text: str) -> float:
    radius = float(text)
    if not (math.isfinite(radius) and radius > 0):  # no point snaps within a radius of 0
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return radius


def _route_flags(p):
    p.add_argument("--rejection-radius", type=_radius,
                   help="snapping radius; required by `route`, `pipeline` defaults to 3 cells")
    p.add_argument("--termini", default="dwell", choices=["dwell", "extremes"])


def _patches_flags(p):
    p.add_argument("--gamma", type=int, default=50)
    p.add_argument("--n", type=int, default=10)


def _fit_flags(p):
    p.add_argument("--branches", type=int, default=1, help="hyper-Erlang branches (1 = Erlang)")
    p.add_argument("--fit-seed", type=int, default=0)
    p.add_argument("--cdf-out", action="store_true", help="emit per-patch CDF comparison TSVs")


def _sim_flags(p):
    p.add_argument("--beta", type=int, required=True, help="bus count")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--r", type=float, help="timetabled loop duration override")
    p.add_argument("--no-timetable", action="store_true")
    p.add_argument("--termini-patches", help="two 1-based patch indices, e.g. 1,7")
    p.add_argument("--holding", type=float, help="holding threshold seconds")
    p.add_argument("--speedmod", type=float,
                   help="speed modification threshold fraction; the gap to the follower is "
                        "measured on the patch spans of patches.txt in --out, or on equal "
                        "spans when there is none")
    p.add_argument("--slowdown", type=float, default=0.9)
    p.add_argument("--init", default="uniform", choices=["uniform", "terminus"])


def _seconds(text: str) -> float:
    seconds = float(text)
    # a run to an infinite horizon never returns, and no sample passes an infinite warm-up
    if not (math.isfinite(seconds) and seconds >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return seconds


def _simulate_flags(p):
    p.add_argument("--horizon", type=_seconds, default=50000.0, help="simulated seconds")


def _check_flags(p):
    p.add_argument("--properties", help="property file, run once per patch when it names "
                   "y_j, c_j, H_j or z_i_j; default: EWT/EVWT/BPH per patch")
    p.add_argument("--patches-list", help="patch indices for the default properties or a "
                   "per-patch property file")
    p.add_argument("--warmup", type=_seconds, help="simulated seconds before sampling; default 10 r")
    p.add_argument("--batches", type=int, default=32)
    p.add_argument("--rel-halfwidth", type=float, default=0.10)
    p.add_argument("--budget", type=float, default=300.0, help="wall-clock seconds per assertion")
    p.add_argument("--max-sim-time", type=float,
                   help="cap on simulated seconds per assertion; no event after it is processed")


# stage -> (help, positional arguments with their help, flag declarations)
STAGE_ARGS = {
    "ingest": ("parse and window-filter raw AVL text", [("input", None)], [_ingest_flags]),
    "heatmap": ("rasterize observation heat map", [("input", "ingested traces.csv")],
                [_heatmap_flags]),
    "blur": ("Gaussian blur", [("input", "heatmap.pgm")], [_blur_flags]),
    "skeleton": ("threshold and thin", [("input", "blurred.pgm")], [_skeleton_flags]),
    "graph": ("skeleton to pruned route graph", [("input", "skeleton.pgm")], [_graph_flags]),
    "route": ("termini, direction segments, loop length",
              [("graph", "graph.txt"), ("traces", "traces.csv")], [_route_flags]),
    "patches": ("bin counts and clustering",
                [("route", "route.txt"), ("graph", "graph.txt"), ("traces", "traces.csv")],
                [_patches_flags]),
    "fit": ("crossing times and phase-type fits",
            [("route", "route.txt"), ("graph", "graph.txt"), ("patches", "patches.txt"),
             ("traces", "traces.csv")], [_fit_flags]),
    "simulate": ("run the bus simulator, log events", [("model", "model.txt")],
                 [_sim_flags, _simulate_flags]),
    "check": ("statistical model checking of properties", [("model", "model.txt")],
              [_sim_flags, _check_flags]),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="headwaylab",
                                 description="AVL traces -> patch model -> headway model checking")
    ap.add_argument(CONFIG_FLAG, help="key = value config file; flags override it")
    sub = ap.add_subparsers(dest="command", required=True)
    for stage, (text, positionals, flag_sets) in STAGE_ARGS.items():
        p = sub.add_parser(stage, help=text)
        for name, about in positionals:
            p.add_argument(name, help=about)
        _out_flag(p)
        for add_flags in flag_sets:
            add_flags(p)

    p = sub.add_parser("pipeline", help="run all stages in order")
    p.add_argument("input")
    _out_flag(p)
    p.add_argument("--resume-from", choices=STAGES)
    # _sim_flags serves both simulate and check; declare it once
    for add_flags in dict.fromkeys(f for _, _, flag_sets in STAGE_ARGS.values() for f in flag_sets):
        add_flags(p)
    return ap


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend key=value pairs from --config as flags so that explicit flags
    override the file (argparse keeps the last occurrence).  The flag takes
    argparse's forms, `--config PATH` and `--config=PATH`; one without a path,
    or with a path that cannot be read, is a usage error."""
    pre = argparse.ArgumentParser(prog="headwaylab", add_help=False, allow_abbrev=False)
    pre.add_argument(CONFIG_FLAG)
    ns, rest = pre.parse_known_args(argv)
    if ns.config is None:
        return argv
    try:
        text = Path(ns.config).read_text()
    except OSError as exc:
        pre.error(f"cannot read config file: {exc}")
    extra = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if value.lower() in ("true", "yes"):
            extra.append(f"--{key}")
        elif value.lower() not in ("false", "no"):
            extra.extend([f"--{key}", value])
    # insert config-derived flags right after the subcommand
    for k, a in enumerate(rest):
        if a in STAGES or a == "pipeline":
            return rest[:k + 1] + extra + rest[k + 1:]
    return extra + rest


def _load_traces(path) -> ingest.TraceSet:
    """traces.csv as `ingest` wrote it; a row that does not read back as
    written (rejected, or a duplicate) is an error naming the file."""
    with open(path) as fh:
        ts, report = ingest.parse_records(fh, ingest.ColumnSchema())
    if report.rows_rejected or report.duplicates_dropped:
        raise artifacts.ArtifactError(f"{path}: {report.rows_rejected} rejected and "
                                      f"{report.duplicates_dropped} duplicate rows")
    return ts


def _load_route(graph_path, route_path) -> route.RouteModel:
    return route.read_route_model(str(route_path), graphs.read_graph(str(graph_path)))


def _schema_from(args) -> ingest.ColumnSchema:
    cols = [int(c) for c in args.cols.split(",")]
    return ingest.ColumnSchema(delimiter=args.delimiter, vehicle_col=cols[0],
                               x_col=cols[1], y_col=cols[2], t_col=cols[3],
                               route_col=args.route_col, route_value=args.route_value,
                               time_format=args.time_format)


def _window_from(args) -> ingest.TimeWindow | None:
    if not args.window:
        return None
    start, _, end = args.window.partition("-")
    weekdays = frozenset(range(7))
    if args.weekdays:
        weekdays = frozenset(int(w) for w in args.weekdays.split(","))
    return ingest.TimeWindow(int(start), int(end), weekdays)


def _terminus_patches_from_route(rm: route.RouteModel, ps: patches.PatchStructure,
                                 pm: fitting.PatchModel):
    """The gate applies where buses dwell: of the two patches flanking each
    turnaround fraction, pick the one with the larger fitted mean."""
    n = ps.n
    out = []
    for frac in (0.0, rm.direction_span(0)[1] % 1.0):
        after = patches.patch_of(ps, frac % 1.0)
        before = after - 1 if after > 1 else n
        out.append(after if pm.means[after - 1] >= pm.means[before - 1] else before)
    a, b = sorted(set(out))[:2] if len(set(out)) >= 2 else (1, max(2, n // 2 + 1))
    return (a, b)


def _sim_model(args, pm, ps, rm) -> simulate.SimModel:
    """The simulation model of `pm` on the patch spans of `ps`, or on equal
    spans when `ps` is None; the terminus patches, unless given, come from `rm`."""
    if ps is not None and ps.n != pm.n:
        raise StageError(args.command, f"{Path(args.out) / 'patches.txt'} has {ps.n} "
                         f"patches, the model has {pm.n}")
    termini_patches = None
    if not args.no_timetable:
        if args.termini_patches:
            a, b = args.termini_patches.split(",")
            termini_patches = (int(a), int(b))
        elif ps is not None and rm is not None:
            termini_patches = _terminus_patches_from_route(rm, ps, pm)
        else:
            raise StageError(args.command, "terminus patches unknown: none given, and no "
                             "route, patches and graph artifacts to derive them from")
    return simulate.build_model(pm, simulate.SimConfig(
        n_buses=args.beta, timetable=not args.no_timetable, route_duration=args.r,
        terminus_patches=termini_patches, holding_threshold=args.holding,
        speedmod_threshold=args.speedmod, slowdown=args.slowdown, init=args.init,
        seed=args.seed, breakpoints=None if ps is None else tuple(ps.breakpoints)))


def _load_model_for_sim(args, out: Path) -> simulate.SimModel:
    """The simulation model of `model.txt`, with the patch spans of
    `patches.txt` in the output directory when there is one."""
    pm = fitting.read_patch_model(args.model)
    ps = rm = None
    if (out / "patches.txt").exists():
        ps = patches.read_patches(str(out / "patches.txt"))
        derive = not (args.no_timetable or args.termini_patches)
        if derive and all((out / name).exists() for name in ("graph.txt", "route.txt")):
            rm = _load_route(out / "graph.txt", out / "route.txt")
    return _sim_model(args, pm, ps, rm)


def cmd_ingest(args, out: Path) -> ingest.TraceSet:
    window = _window_from(args)
    with open(args.input) as fh:
        ts, report = ingest.parse_records(fh, _schema_from(args))
    if window is not None:
        ts = ingest.filter_window(ts, window, args.tz_offset)
    (out / "traces.csv").write_text(ingest.serialize(ts))
    print(f"ingest: kept {report.rows_kept} rows, rejected {report.rows_rejected}, "
          f"duplicates {report.duplicates_dropped}; {len(ts)} records after window")
    return ts


def cmd_heatmap(args, out: Path, ts) -> raster.Raster:
    r = raster.rasterize_heatmap(ts, cell_size=args.cell_size, delta=args.delta,
                                 boost=args.boost, resolution=args.resolution)
    heat = raster.write_pgm(r, str(out / "heatmap.pgm"))
    print(f"heatmap: {r.width}x{r.height} cells, cell_size {r.cell_size:.3g}")
    return heat


def cmd_blur(args, out: Path, heat) -> raster.Raster:
    blurred = raster.write_pgm(raster.gaussian_blur(heat, args.sigma), str(out / "blurred.pgm"))
    print(f"blur: sigma {args.sigma}")
    return blurred


def cmd_skeleton(args, out: Path, blurred) -> raster.Raster:
    mask = raster.skeletonize(blurred, args.tau, args.eta)
    skeleton = raster.write_mask_pgm(mask, str(out / "skeleton.pgm"))
    print(f"skeleton: {int(mask.mask.sum())} pixels")
    return skeleton


def cmd_graph(args, out: Path, skeleton) -> graphs.RouteGraph:
    mask = raster.SkeletonMask(skeleton.intensity > 0, skeleton.cell_size, skeleton.origin)
    g = graphs.build_graph(mask, args.epsilon, args.split_divisor)
    graphs.write_graph(g, str(out / "graph.txt"))
    print(f"graph: {len(g.nodes)} nodes, {len(g.edges)} edges, length {g.total_length():.1f}")
    return g


def cmd_route(args, out: Path, g, ts) -> route.RouteModel:
    if args.rejection_radius is None:
        raise StageError("route", "no rejection radius given")
    rm = route.derive_route_model(g, ts, args.rejection_radius, args.termini)
    route.write_route_model(rm, str(out / "route.txt"))
    d1 = rm.direction_length(0)
    d2 = rm.direction_length(1)
    print(f"route: termini edges {rm.termini}, directions {d1:.1f} / {d2:.1f}, loop {rm.loop_length:.1f}")
    return rm


def cmd_patches(args, out: Path, rm, ts) -> patches.PatchStructure:
    ps = patches.jenks_cluster_counts(patches.bin_counts(ts, rm, args.gamma), args.n)
    patches.write_patches(ps, str(out / "patches.txt"))
    print(f"patches: n={ps.n}, breakpoints {['%.3f' % b for b in ps.breakpoints]}")
    return ps


def cmd_fit(args, out: Path, rm, ps, ts) -> fitting.PatchModel:
    obs = fitting.extract_crossing_times(ts, rm, ps)
    rows = [(j, f"{d:.0f}") for j in sorted(obs) for d in obs[j]]
    artifacts.write_lines(out / "observations.tsv", [("patch", "duration"), *rows], "\t")
    pm, flagged = fitting.fit_patch_model(obs, branches=args.branches, seed=args.fit_seed)
    fitting.write_patch_model(pm, str(out / "model.txt"))
    reports = {}
    for j in sorted(obs):
        if len(obs[j]) >= 3 and j not in flagged:
            reports[j] = fitting.anderson_darling(obs[j], pm.dists[j - 1])
    fitting.write_gof_tsv(reports, str(out / "gof.tsv"))
    if args.cdf_out:
        fitting.write_cdf_comparison(obs, pm, str(out / "cdf"))
    if flagged:
        print(f"fit: WARNING patches with too few observations: {flagged}")
    print("fit: " + ", ".join(
        f"p{j}:mu={pm.means[j - 1]:.0f}" for j in range(1, pm.n + 1)))
    return pm


def cmd_simulate(args, out: Path, model) -> None:
    deps = simulate.Simulator(model, seed=args.seed).run(until_time=args.horizon)
    simulate.write_event_log(deps, str(out / "events.tsv"))
    print(f"simulate: {len(deps)} departures to t={args.horizon:.0f}")


def cmd_check(args, out: Path, model) -> int:
    n = model.n
    plist = ([int(x) for x in args.patches_list.split(",")]
             if args.patches_list else list(range(1, n + 1)))
    ecfg = properties.EstimatorConfig(
        warmup_time=args.warmup, batches=args.batches,
        rel_halfwidth_target=args.rel_halfwidth, wall_budget=args.budget,
        max_sim_time=args.max_sim_time)
    texts: list[tuple[str, str]] = []
    if args.properties:
        raw = Path(args.properties).read_text()
        if properties.PATCH_PLACEHOLDER.search(raw):
            for j, txt in properties.expand_per_patch(raw, plist).items():
                texts.append((f"patch{j}", txt))
        else:
            texts.append(("file", raw))
    else:
        for j in plist:
            texts.append((f"ewt_{j}", properties.ewt_query(j)))
            texts.append((f"evwt_{j}", properties.evwt_query(j)))
            texts.append((f"bph_{j}", properties.bph_query(j)))
    results = []
    labels = []
    for name, text in texts:
        prop = properties.parse_quatex(text)
        res = properties.check_assertions(model, prop, ecfg, seed=args.seed)
        for q, r in zip(prop.assertions, res):
            results.append(r)
            labels.append(f"{name}:{q.function}")
    properties.write_results_tsv(results, str(out / "results.tsv"), labels)
    bad = [r for r in results if r.verdict == "violated"
           or (r.verdict == "undecided" and r.event_observed)]
    for label, r in zip(labels, results):
        shown = (f"{r.estimate:.4g} ± {r.halfwidth:.2g}"
                 if r.event_observed and r.estimate is not None else "-")
        cut = " (truncated by --budget)" if r.truncated else ""
        print(f"check: {label} = {shown} -> {r.verdict}{cut}")
    return 0 if not bad else 1


def cmd_pipeline(args, out: Path) -> int:
    """Run the stages in order, each on the objects the one before returned.
    A stage before --resume-from is not run; its artifact is read instead."""
    start = STAGES.index(args.resume_from) if args.resume_from else 0

    def want(stage):
        if STAGES.index(stage) >= start:
            return True
        missing = [a for a in ARTIFACTS[stage] if not (out / a).exists()]
        if missing:
            raise StageError(stage, f"cannot resume: missing artifacts {missing}")
        return False

    def saved(name):
        return str(out / name)

    ts = cmd_ingest(args, out) if want("ingest") else _load_traces(saved("traces.csv"))
    heat = cmd_heatmap(args, out, ts) if want("heatmap") else raster.read_pgm(saved("heatmap.pgm"))
    blurred = cmd_blur(args, out, heat) if want("blur") else raster.read_pgm(saved("blurred.pgm"))
    skeleton = (cmd_skeleton(args, out, blurred) if want("skeleton")
                else raster.read_pgm(saved("skeleton.pgm")))
    g = cmd_graph(args, out, skeleton) if want("graph") else graphs.read_graph(saved("graph.txt"))
    if args.rejection_radius is None:
        args.rejection_radius = 3.0 * heat.cell_size
    rm = (cmd_route(args, out, g, ts) if want("route")
          else route.read_route_model(saved("route.txt"), g))
    ps = cmd_patches(args, out, rm, ts) if want("patches") else patches.read_patches(saved("patches.txt"))
    pm = (cmd_fit(args, out, rm, ps, ts) if want("fit")
          else fitting.read_patch_model(saved("model.txt")))
    model = _sim_model(args, pm, ps, rm)
    if want("simulate"):
        cmd_simulate(args, out, model)
    return cmd_check(args, out, model)


# command -> its run from the command line: a stage's subcommand reads the
# stage's inputs from its positional artifacts
COMMANDS = {
    "ingest": cmd_ingest,
    "heatmap": lambda args, out: cmd_heatmap(args, out, _load_traces(args.input)),
    "blur": lambda args, out: cmd_blur(args, out, raster.read_pgm(args.input)),
    "skeleton": lambda args, out: cmd_skeleton(args, out, raster.read_pgm(args.input)),
    "graph": lambda args, out: cmd_graph(args, out, raster.read_pgm(args.input)),
    "route": lambda args, out: cmd_route(args, out, graphs.read_graph(args.graph),
                                         _load_traces(args.traces)),
    "patches": lambda args, out: cmd_patches(args, out, _load_route(args.graph, args.route),
                                             _load_traces(args.traces)),
    "fit": lambda args, out: cmd_fit(args, out, _load_route(args.graph, args.route),
                                     patches.read_patches(args.patches), _load_traces(args.traces)),
    "simulate": lambda args, out: cmd_simulate(args, out, _load_model_for_sim(args, out)),
    "check": lambda args, out: cmd_check(args, out, _load_model_for_sim(args, out)),
    "pipeline": cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config_file(argv)
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        rc = COMMANDS[args.command](args, out)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: stage {args.command!r} failed: {exc}", file=sys.stderr)
        return 2
    return rc if args.command in ("check", "pipeline") else 0


if __name__ == "__main__":
    sys.exit(main())

import argparse
import contextlib
import hashlib
import io
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from headwaylab import fitting, graphs, ingest, patches, raster, route, synthetic
from headwaylab.artifacts import ArtifactError
from headwaylab.cli import (ARTIFACTS, _apply_config_file, _load_model_for_sim, _load_traces,
                            build_parser, main)
from headwaylab.simulate import SimConfig, SimError


def subparsers(ap: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_pipeline_accepts_every_stage_flag():
    parsers = subparsers(build_parser())
    pipeline = parsers.pop("pipeline")
    missing = [(stage, opt) for stage, p in parsers.items()
               for opt in p._option_string_actions if opt not in pipeline._option_string_actions]
    assert missing == []


@pytest.mark.parametrize("value, expected", [("true", True), ("yes", True),
                                             ("false", False), ("no", False)])
def test_config_file_boolean(tmp_path, value, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"no_timetable = {value}\nbeta = 2\n")
    argv = _apply_config_file(["--config", str(cfg), "simulate", "m.txt", "--seed", "1"])
    args = build_parser().parse_args(argv)
    assert args.model == "m.txt" and args.beta == 2
    assert args.no_timetable is expected


def test_config_file_equals_form(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 2\nseed = 4\n")
    argv = _apply_config_file([f"--config={cfg}", "simulate", "m.txt"])
    args = build_parser().parse_args(argv)
    assert (args.beta, args.seed) == (2, 4)


@pytest.mark.parametrize("argv, message", [
    (["simulate", "m.txt", "--config"], "--config: expected one argument"),
    (["--config={tmp}/none.cfg", "simulate", "m.txt"], "cannot read config file"),
])
def test_config_flag_without_readable_path_is_usage_error(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([a.format(tmp=tmp_path) for a in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_pipeline_end_to_end_artifacts_read_back(tmp_path):
    ts = synthetic.generate_traces(synthetic.default_eight_patch_model(), n_buses=4, days=3, seed=3)
    csv = tmp_path / "avl.csv"
    csv.write_text(ingest.serialize(ts))
    out = tmp_path / "out"
    rc = main(["pipeline", str(csv), "--out", str(out), "--tau", "0.3", "--eta", "1",
               "--beta", "1", "--seed", "1", "--gamma", "40", "--n", "8",
               "--max-sim-time", "1e5", "--budget", "5",
               "--cdf-out", "--patches-list", "1,2"])
    assert rc in (0, 1)
    for names in ARTIFACTS.values():
        for name in names:
            assert (out / name).stat().st_size > 0, name
    with open(out / "traces.csv") as fh:
        back, _ = ingest.parse_records(fh)
    assert len(back) == len(ts)
    for name in ("heatmap.pgm", "blurred.pgm", "skeleton.pgm"):
        raster.read_pgm(str(out / name))
    g = graphs.read_graph(str(out / "graph.txt"))
    rm = route.read_route_model(str(out / "route.txt"), g)
    assert patches.read_patches(str(out / "patches.txt")).n == 8
    assert fitting.read_patch_model(str(out / "model.txt")).n == 8
    assert rm.loop_length > 0
    assert list(out.glob("cdf_patch*.tsv"))
    rows = (out / "results.tsv").read_text().splitlines()
    assert len(rows) == 1 + 6  # header, then EWT, EVWT and BPH of patches 1 and 2


def test_pipeline_default_method_recovers_fixture_breakpoints(tmp_path):
    """`pipeline` places every breakpoint of the 8-patch fixture within half
    a bin.  The derived loop starts at whichever
    turnaround its first direction leaves from; starting at the far one
    rotates the fixture's fractions by one half."""
    fixture = synthetic.default_eight_patch_model()
    ts = synthetic.generate_traces(fixture, n_buses=4, days=3, seed=5)
    csv = tmp_path / "avl.csv"
    csv.write_text(ingest.serialize(ts))
    out = tmp_path / "out"
    gamma = 40
    rc = main(["pipeline", str(csv), "--out", str(out), "--tau", "0.3", "--eta", "1",
               "--beta", "1", "--seed", "1", "--gamma", str(gamma), "--n", "8",
               "--max-sim-time", "1e5", "--budget", "5", "--patches-list", "1"])
    assert rc in (0, 1)
    g = graphs.read_graph(str(out / "graph.txt"))
    rm = route.read_route_model(str(out / "route.txt"), g)
    first = rm.directions[0][0]
    a, b, _ = g.edges[first.edge_id]
    start = g.nodes[a if first.forward else b]
    near, far = fixture.route.vertices[0], fixture.route.vertices[-1]
    shift = 0.5 if math.dist(start, far) < math.dist(start, near) else 0.0
    want = sorted((bp + shift) % 1.0 for bp in fixture.breakpoints[:-1])[1:]
    got = patches.read_patches(str(out / "patches.txt")).breakpoints[1:-1]
    assert len(got) == len(want) == 7
    assert max(abs(x - y) for x, y in zip(got, want)) < 0.5 / gamma


def test_check_shows_dash_for_observed_but_unestimated(tmp_path, capsys):
    # too little simulated time for batch means: EWT and EVWT see events
    # but have no estimate
    model = tmp_path / "model.txt"
    model.write_text("".join(f"patch {j} erlang 4 0.01 mu 400.0\n" for j in (1, 2, 3)))
    rc = main(["check", str(model), "--out", str(tmp_path), "--beta", "2", "--seed", "1",
               "--termini-patches", "1,2", "--max-sim-time", "2000", "--budget", "5"])
    assert rc in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    assert "check: ewt_1:ewt = - -> undecided" in lines
    rows = (tmp_path / "results.tsv").read_text().splitlines()
    assert rows[1].startswith("ewt_1:ewt\t1\t-\t-\t-\t")


def test_check_marks_the_assertions_a_zero_budget_cuts(tmp_path, capsys):
    # the budget runs out at the first chunk end: EWT and EVWT have no
    # batches yet, which reads as an event never observed unless the row
    # and the printed line say the run was cut
    model = tmp_path / "model.txt"
    model.write_text("".join(f"patch {j} erlang 4 0.01 mu 400.0\n" for j in (1, 2, 3)))
    rc = main(["check", str(model), "--out", str(tmp_path), "--beta", "3", "--seed", "1",
               "--no-timetable", "--holding", "60", "--speedmod", "0.3", "--patches-list", "1",
               "--max-sim-time", "1e6", "--budget", "0"])
    assert rc in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    assert "check: ewt_1:ewt = - -> undecided (truncated by --budget)" in lines
    assert "check: evwt_1:evwt = - -> undecided (truncated by --budget)" in lines
    head, *rows = [row.split("\t") for row in (tmp_path / "results.tsv").read_text().splitlines()]
    cut = {row[0]: (row[head.index("batches")], row[head.index("truncated")]) for row in rows}
    assert (cut["ewt_1:ewt"], cut["evwt_1:evwt"]) == (("0", "yes"), ("0", "yes"))


def test_check_phased_with_holding_and_speedmod(tmp_path):
    # speed modification runs on the phased simulator; holding gates its departures
    model = tmp_path / "model.txt"
    model.write_text("".join(f"patch {j} erlang 4 0.01 mu 400.0\n" for j in (1, 2, 3, 4)))
    props = tmp_path / "props.txt"
    props.write_text('hw() = s.rval("y_1");\nS [ hw(), "c_1" ] < 1e9;\nS [ hw(), "time" ] < 1e9;\n')
    rc = main(["check", str(model), "--out", str(tmp_path), "--beta", "3", "--seed", "1",
               "--no-timetable", "--holding", "120", "--speedmod", "0.15",
               "--properties", str(props), "--max-sim-time", "1e5", "--budget", "20"])
    assert rc == 0
    rows = (tmp_path / "results.tsv").read_text().splitlines()
    assert len(rows) == 1 + 2


def test_check_results_name_the_patch_of_every_row(tmp_path):
    # the CI check command; BPH reads H_j against the time clock, so its
    # patch comes from the state it reads, not from the clock
    model = tmp_path / "model.txt"
    model.write_text("patch 1 erlang 10 0.1 mu 100.0\npatch 2 erlang 20 0.1 mu 200.0\n"
                     "patch 3 erlang 10 0.05 mu 200.0\npatch 4 erlang 30 0.3 mu 100.0\n")
    out = tmp_path / "check-out"
    rc = main(["check", str(model), "--out", str(out), "--no-timetable", "--holding", "120",
               "--beta", "3", "--seed", "1", "--patches-list", "1,2", "--max-sim-time", "2e5",
               "--budget", "20"])
    assert rc in (0, 1)
    rows = [row.split("\t")[:2] for row in (out / "results.tsv").read_text().splitlines()[1:]]
    assert rows == [[f"{q}_{j}:{q}", str(j)] for j in (1, 2) for q in ("ewt", "evwt", "bph")]


def test_check_runs_a_file_without_a_patch_placeholder_once(tmp_path):
    # the "_j" of max_jump is no placeholder: the file is not a per-patch
    # template, so its one assertion runs once, not once per patch
    model = tmp_path / "model.txt"
    model.write_text("patch 1 erlang 10 0.1 mu 100.0\npatch 2 erlang 20 0.1 mu 200.0\n"
                     "patch 3 erlang 10 0.05 mu 200.0\npatch 4 erlang 30 0.3 mu 100.0\n")
    props = tmp_path / "props.txt"
    props.write_text('max_jump() = s.rval("y_2");\nS [ max_jump(), "c_2" ] < 1e9;\n')
    out = tmp_path / "check-out"
    rc = main(["check", str(model), "--out", str(out), "--no-timetable", "--beta", "3",
               "--seed", "1", "--properties", str(props), "--max-sim-time", "2e5",
               "--budget", "20"])
    assert rc in (0, 1)
    rows = [row.split("\t")[:2] for row in (out / "results.tsv").read_text().splitlines()[1:]]
    assert rows == [["file:max_jump", "2"]]


@pytest.mark.parametrize("batches", ["1", "0", "-3"])
def test_check_with_fewer_than_two_batches_is_a_usage_error(tmp_path, capsys, batches):
    model = tmp_path / "model.txt"
    model.write_text("".join(f"patch {j} erlang 4 0.01 mu 400.0\n" for j in (1, 2, 3)))
    rc = main(["check", str(model), "--out", str(tmp_path), "--beta", "2", "--seed", "1",
               "--termini-patches", "1,2", "--patches-list", "1", "--max-sim-time", "1e5",
               "--budget", "5", "--batches", batches])
    assert rc == 2
    assert "error: stage 'check' failed: need at least 2 batches" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--rel-halfwidth", "0", "--budget", "nan"], "wall_budget must be a number, got nan"),
    (["--rel-halfwidth", "nan"], "rel_halfwidth_target must be >= 0, got nan"),
    (["--rel-halfwidth", "-0.1"], "rel_halfwidth_target must be >= 0, got -0.1"),
])
def test_check_with_a_nan_budget_or_a_bad_target_is_a_usage_error(tmp_path, capsys, flags,
                                                                  message):
    # with a NaN budget and a zero target the run never stopped
    model = tmp_path / "model.txt"
    model.write_text("".join(f"patch {j} erlang 4 0.01 mu 400.0\n" for j in (1, 2, 3)))
    rc = main(["check", str(model), "--out", str(tmp_path), "--beta", "2", "--seed", "1",
               "--termini-patches", "1,2", "--patches-list", "1", *flags])
    assert rc == 2
    assert f"error: stage 'check' failed: {message}" in capsys.readouterr().err


SIMULATE_WITHOUT_SCIPY = """
import sys
import headwaylab.cli
from headwaylab import properties, simulate, synthetic
model = synthetic.airlink_model()
deps = simulate.Simulator(model, seed=1).run(until_time=20_000)
assert len(deps)
# EWT and EVWT on the counter clock c_2, BPH on the time clock, each checked
# on the aggregated simulator and on the phased one (speed modification)
prop = properties.parse_quatex(properties.ewt_query(2) + properties.evwt_query(2)
                               + properties.bph_query(2))
cfg = properties.EstimatorConfig(max_sim_time=40 * model.r, chunk_time=10 * model.r,
                                 wall_budget=60.0)
phased = synthetic.airlink_model(timetable=False, holding_threshold=120.0,
                                 speedmod_threshold=0.15)
for m in (model, phased):
    results = properties.check_assertions(m, prop, cfg, seed=1)
    assert [r.batches for r in results] == [32] * 3, results
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_import_and_a_simulation_load_no_scipy():
    # importing scipy.special costs 0.2-0.3 s and about 23 MB; no module of
    # the package imports scipy, and neither simulation nor model checking
    # loads it
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", SIMULATE_WITHOUT_SCIPY], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


SNAP_WITHOUT_SCIPY_SPATIAL = """
import sys
import numpy as np
from headwaylab import graphs, patches, raster, route, synthetic
ts = synthetic.generate_traces(synthetic.default_eight_patch_model(), n_buses=4, days=3, seed=3)
heat = raster.rasterize_heatmap(ts, resolution=300, delta=0.0)
blur = raster.gaussian_blur(heat, 1.0)
eta = float(np.percentile(blur.intensity[blur.intensity > 0], 90)) / 40
g = graphs.build_graph(raster.skeletonize(blur, tau=0.3, eta=eta), epsilon=2.0)
rm = route.derive_route_model(g, ts, rejection_radius=3 * heat.cell_size)
rows, unmatched = patches.compute_fractions(ts, rm)
assert rows and unmatched < len(ts)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_snapping_loads_no_scipy_spatial():
    # records snap through the EdgeIndex's own grid cells, with no KD-tree;
    # the blur and the skeleton's component mask need no scipy.ndimage
    # either, so no scipy module at all is loaded
    tests = Path(__file__).resolve().parent
    done = subprocess.run([sys.executable, "-c", SNAP_WITHOUT_SCIPY_SPATIAL], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(tests.parent / "src")},
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


PIPELINE_WITHOUT_SCIPY = """
import sys
import headwaylab.cli
from headwaylab import ingest, synthetic
# every stage, from the traces to the check, with a delta > 0 heat map
ts = synthetic.generate_traces(synthetic.default_eight_patch_model(), n_buses=4, days=3, seed=3)
with open(sys.argv[1] + "/avl.csv", "w") as fh:
    fh.write(ingest.serialize(ts))
rc = headwaylab.cli.main(["pipeline", sys.argv[1] + "/avl.csv", "--out", sys.argv[1] + "/out",
                          "--delta", "0.2", "--tau", "0.3", "--eta", "1", "--beta", "1",
                          "--seed", "1", "--gamma", "40", "--n", "8", "--max-sim-time", "1e5",
                          "--budget", "5", "--patches-list", "1", "--cdf-out"])
assert rc in (0, 1), rc
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_import_and_every_stage_load_no_scipy(tmp_path):
    # importing scipy.special or scipy.ndimage costs 0.2-0.4 s and 20-30 MB,
    # and each CLI stage is a fresh interpreter: no stage from the heat map
    # through the fits to the check loads scipy
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", PIPELINE_WITHOUT_SCIPY, str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_malformed_artifact_is_a_usage_error(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text("patch 1 erlang 4 0.01\n")
    rc = main(["simulate", str(model), "--out", str(tmp_path), "--beta", "1", "--seed", "1",
               "--termini-patches", "1,1"])
    assert rc == 2
    assert f"error: stage 'simulate' failed: {model}, line 1: " in capsys.readouterr().err


def test_empty_pgm_is_a_usage_error(tmp_path, capsys):
    pgm = tmp_path / "empty.pgm"
    pgm.write_bytes(b"")
    (tmp_path / "empty.pgm.meta").write_text("cell_size 1.0\norigin 0.0 0.0\n")
    rc = main(["graph", str(pgm), "--out", str(tmp_path)])
    assert rc == 2
    assert f"error: stage 'graph' failed: {pgm}: " in capsys.readouterr().err


def three_patch_run(tmp_path, break_bins=(2, 15)):
    """model.txt with three patches and a patches.txt of the given bins of 20
    in tmp_path; returns the `simulate` argv for them."""
    model = tmp_path / "model.txt"
    model.write_text("".join(f"patch {j} erlang 4 0.01 mu 400.0\n" for j in (1, 2, 3)))
    patches.write_patches(patches.PatchStructure(20, list(break_bins)), str(tmp_path / "patches.txt"))
    return ["simulate", str(model), "--out", str(tmp_path), "--beta", "3", "--seed", "1",
            "--no-timetable", "--speedmod", "0.15"]


def test_simulate_takes_patch_spans_from_patches_txt(tmp_path):
    args = build_parser().parse_args(three_patch_run(tmp_path))
    model = _load_model_for_sim(args, tmp_path)
    assert model.spans == [(0.0, 0.1), (0.1, 0.75), (0.75, 1.0)]


def test_patch_count_mismatch_is_a_usage_error(tmp_path, capsys):
    argv = three_patch_run(tmp_path, break_bins=(10,))
    for command in ("simulate", "check"):
        rc = main([command, *argv[1:]])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"stage '{command}' failed" in err and "has 2 patches" in err


def test_simulate_events_tsv_is_pinned(tmp_path):
    # the 4-patch speed-modification model of the CI `simulate` step: the
    # bytes written from each bus's block-drawn phases
    (tmp_path / "model.txt").write_text(
        "patch 1 erlang 10 0.1 mu 100.0\npatch 2 erlang 20 0.1 mu 200.0\n"
        "patch 3 erlang 10 0.05 mu 200.0\npatch 4 erlang 30 0.3 mu 100.0\n")
    rc = main(["simulate", str(tmp_path / "model.txt"), "--out", str(tmp_path), "--beta", "3",
               "--seed", "1", "--no-timetable", "--holding", "120", "--speedmod", "0.15"])
    assert rc == 0
    data = (tmp_path / "events.tsv").read_bytes()
    assert (data.count(b"\n"), hashlib.sha256(data).hexdigest()) == (
        878, "89779bcc42ff7f718158a16010d98faa6e23f653e170339f88d27e2f157cae06")


def test_simulate_events_end_at_the_horizon(tmp_path):
    rc = main(three_patch_run(tmp_path) + ["--horizon", "20000"])
    assert rc == 0
    rows = (tmp_path / "events.tsv").read_text().splitlines()[1:]
    times = [float(row.split("\t")[0]) for row in rows]
    assert times and max(times) <= 20000


@pytest.mark.parametrize("horizon", ["inf", "-inf", "nan", "-1"])
@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_a_horizon_that_is_not_finite_and_non_negative_is_a_usage_error(
        tmp_path, capsys, command, horizon):
    # a run to an infinite horizon would never return: the flag is
    # rejected as it is parsed, before any stage runs
    argv = three_patch_run(tmp_path)
    argv[0] = command
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--horizon={horizon}"])
    assert exc.value.code == 2
    assert "argument --horizon: must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "events.tsv").exists()


@pytest.mark.parametrize("radius", ["0", "-2", "nan", "inf"])
def test_a_rejection_radius_that_is_not_finite_and_positive_is_a_usage_error(
        tmp_path, capsys, seed3_csv, radius):
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", str(seed3_csv), "--out", str(tmp_path), *SEED3_FLAGS["skeleton"],
              f"--rejection-radius={radius}"])
    assert exc.value.code == 2
    assert "argument --rejection-radius: must be finite and > 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("warmup", ["inf", "nan", "-1"])
def test_a_warmup_that_is_not_finite_and_non_negative_is_a_usage_error(tmp_path, capsys, warmup):
    # no sample passes an infinite warm-up, so the check would run to its budget
    argv = three_patch_run(tmp_path)
    argv[0] = "check"
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--warmup={warmup}"])
    assert exc.value.code == 2
    assert "argument --warmup: must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "results.tsv").exists()


@pytest.mark.parametrize("flag, field, value, message", [
    ("--r", "route_duration", value, "route duration must be finite and > 0")
    for value in ("nan", "inf", "-inf", "0", "-5")
] + [
    ("--holding", "holding_threshold", value, "holding threshold must be finite and >= 0")
    for value in ("nan", "inf", "-1")
])
def test_a_route_duration_or_holding_threshold_out_of_range_is_rejected(
        tmp_path, capsys, flag, field, value, message):
    # a NaN r ran with no timetable and a NaN theta_h with no holding, silently
    with pytest.raises(SimError, match=message):
        SimConfig(n_buses=3, terminus_patches=(1, 3), **{field: float(value)})
    argv = three_patch_run(tmp_path)
    for command in ("simulate", "check"):
        argv[0] = command
        assert main(argv + [f"{flag}={value}"]) == 2
        assert f"error: stage {command!r} failed: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.tsv"))


@pytest.fixture(scope="module")
def seed3_heatmap(seed3_csv, tmp_path_factory):
    """A directory with the seed-3 fixture's traces.csv and heatmap.pgm."""
    d = tmp_path_factory.mktemp("seed3-heatmap")
    assert main(["ingest", str(seed3_csv), "--out", str(d)]) == 0
    assert main(["heatmap", str(d / "traces.csv"), "--out", str(d)]) == 0
    return d


@pytest.mark.parametrize("stage, flag, value, message", [
    ("heatmap", "--resolution", "0", "resolution must be finite and >= 1"),
    ("heatmap", "--delta", "inf", "delta must be finite and >= 0"),
    ("heatmap", "--delta", "nan", "delta must be finite and >= 0"),
    ("heatmap", "--boost", "inf", "boost must be finite and >= 0"),
    ("heatmap", "--boost", "nan", "boost must be finite and >= 0"),
    ("heatmap", "--cell-size", "inf", "cell_size must be finite and > 0"),
    ("heatmap", "--cell-size", "0", "cell_size must be finite and > 0"),
    ("blur", "--sigma", "inf", "sigma must be finite and in [0, 1024]"),
    ("blur", "--sigma", "nan", "sigma must be finite and in [0, 1024]"),
    ("blur", "--sigma", "1e6", "sigma must be finite and in [0, 1024]"),
    ("graph", "--epsilon", "nan", "epsilon must be >= 0"),
    ("graph", "--epsilon", "-1", "epsilon must be >= 0"),
    ("graph", "--split-divisor", "nan", "split divisor must be >= 1"),
])
def test_a_map_stage_value_out_of_range_is_rejected(tmp_path, capsys, seed3_csv, seed3_heatmap,
                                                   stage, flag, value, message):
    # these crashed with a traceback (inf sigma, resolution 0), ran for
    # minutes (sigma 1e6), wrote NaN cells or a 1x1 map (inf delta or cell
    # size), acted as 0 (NaN delta or boost), collapsed every polyline to its
    # ends (NaN epsilon), kept every pixel as a vertex (negative epsilon) or
    # passed the divisor check (NaN divisor)
    field = flag[2:].replace("-", "_")
    number = int(value) if field == "resolution" else float(value)
    if stage == "heatmap":
        ts = _load_traces(seed3_heatmap / "traces.csv")
        with pytest.raises(raster.RasterError, match=re.escape(message)):
            raster.rasterize_heatmap(ts, **{field: number})
        source = seed3_heatmap / "traces.csv"
    elif stage == "blur":
        heat = raster.read_pgm(str(seed3_heatmap / "heatmap.pgm"))
        with pytest.raises(raster.RasterError, match=re.escape(message)):
            raster.gaussian_blur(heat, number)
        source = seed3_heatmap / "heatmap.pgm"
    else:  # the heat map's set pixels serve as the skeleton
        heat = raster.read_pgm(str(seed3_heatmap / "heatmap.pgm"))
        mask = raster.SkeletonMask(heat.intensity > 0, heat.cell_size, heat.origin)
        with pytest.raises(graphs.GraphError, match=re.escape(message)):
            graphs.build_graph(mask, **{"epsilon": 2.0, field: number})
        source = seed3_heatmap / "heatmap.pgm"
        run = tmp_path / "pipeline"
        assert main(["pipeline", str(seed3_csv), "--out", str(run), *SEED3_FLAGS["skeleton"],
                     *SEED3_FLAGS["simulate"], f"{flag}={value}"]) == 2
        assert f"error: stage 'pipeline' failed: {message}" in capsys.readouterr().err
        assert not (run / "graph.txt").exists()
        shutil.rmtree(run)
    capsys.readouterr()
    assert main([stage, str(source), "--out", str(tmp_path), f"{flag}={value}"]) == 2
    assert f"error: stage {stage!r} failed: {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


SEED3_FLAGS = {  # subcommand -> its flags in the runs below; `pipeline` takes them all
    "skeleton": ["--tau", "0.3", "--eta", "1"],
    "patches": ["--gamma", "40", "--n", "8"],
    "simulate": ["--beta", "1", "--seed", "1"],
    "check": ["--beta", "1", "--seed", "1", "--max-sim-time", "1e5", "--budget", "5",
              "--patches-list", "1"],
}


@pytest.fixture(scope="module")
def seed3_csv(tmp_path_factory):
    ts = synthetic.generate_traces(synthetic.default_eight_patch_model(), n_buses=4, days=3, seed=3)
    csv = tmp_path_factory.mktemp("seed3") / "avl.csv"
    csv.write_text(ingest.serialize(ts))
    return csv


def run_main(argv):
    """main(argv) with its stdout and its `ingest.parse_records` calls counted."""
    stdout, calls = io.StringIO(), []
    real = ingest.parse_records

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.setattr(ingest, "parse_records", counted)
        rc = main(argv)
    return rc, stdout.getvalue(), len(calls)


def run_pipeline(csv, out, *extra):
    flags = [flag for stage_flags in SEED3_FLAGS.values() for flag in stage_flags]
    return run_main(["pipeline", str(csv), "--out", str(out), *flags, *extra])


def run_chained(csv, d, heatmap_flags):
    """The ten subcommands one after another; returns their stdout."""
    text = []

    def sub(stage, *argv):
        rc, stdout, _ = run_main([stage, *map(str, argv), "--out", str(d),
                                  *SEED3_FLAGS.get(stage, [])])
        assert rc in ((0, 1) if stage == "check" else (0,)), stage
        text.append(stdout)

    sub("ingest", csv)
    sub("heatmap", d / "traces.csv", *heatmap_flags)
    sub("blur", d / "heatmap.pgm")
    sub("skeleton", d / "blurred.pgm")
    sub("graph", d / "skeleton.pgm")
    radius = 3.0 * raster.read_pgm(str(d / "heatmap.pgm")).cell_size
    sub("route", d / "graph.txt", d / "traces.csv", "--rejection-radius", repr(radius))
    sub("patches", d / "route.txt", d / "graph.txt", d / "traces.csv")
    sub("fit", d / "route.txt", d / "graph.txt", d / "patches.txt", d / "traces.csv")
    sub("simulate", d / "model.txt")
    sub("check", d / "model.txt")
    return "".join(text)


def same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    return [n for n in names if (a / n).read_bytes() != (b / n).read_bytes()]


def test_pipeline_parses_the_traces_once(seed3_csv, tmp_path):
    rc, _, parses = run_pipeline(seed3_csv, tmp_path)
    assert rc in (0, 1)
    assert parses == 1


@pytest.mark.parametrize("heatmap_flags", [[], ["--delta", "0.5"]])
def test_pipeline_writes_the_chained_subcommands_bytes(seed3_csv, tmp_path, heatmap_flags):
    rc, stdout, _ = run_pipeline(seed3_csv, tmp_path / "pipeline", *heatmap_flags)
    assert rc in (0, 1)
    chained = run_chained(seed3_csv, tmp_path / "chained", heatmap_flags)
    assert same_files(tmp_path / "pipeline", tmp_path / "chained") == []
    assert stdout == chained


def test_pipeline_resumes_from_fit_to_the_same_bytes(seed3_csv, tmp_path):
    full = tmp_path / "full"
    run_pipeline(seed3_csv, full)
    resumed = tmp_path / "resumed"
    shutil.copytree(full, resumed)
    for stage in ("fit", "simulate", "check"):
        for name in ARTIFACTS[stage]:
            (resumed / name).unlink()
    rc, _, parses = run_pipeline(seed3_csv, resumed, "--resume-from", "fit")
    assert rc in (0, 1) and parses == 1
    assert same_files(full, resumed) == []


def test_pipeline_resume_names_a_missing_upstream_artifact(seed3_csv, tmp_path, capsys):
    out = tmp_path / "out"
    run_pipeline(seed3_csv, out)
    (out / "graph.txt").unlink()
    rc, _, _ = run_pipeline(seed3_csv, out, "--resume-from", "fit")
    assert rc == 2
    assert "stage 'graph' failed: cannot resume: missing artifacts ['graph.txt']" in \
        capsys.readouterr().err


def test_ingest_rejects_a_vehicle_id_that_does_not_read_back(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text("bus,7;0.0;0.0;100\nbus,7;10.0;0.0;130\n")
    rc = main(["ingest", str(raw), "--out", str(tmp_path), "--delimiter", ";"])
    assert rc == 2
    assert "vehicle 'bus,7'" in capsys.readouterr().err


@pytest.mark.parametrize("rows", ["a,0.0,0.0,100\na,x,0.0,130\n",
                                  "a,0.0,0.0,100\na,1.0,0.0,100\n"])
def test_traces_csv_that_does_not_read_back_is_an_artifact_error(tmp_path, rows):
    traces = tmp_path / "traces.csv"
    traces.write_text(rows)
    with pytest.raises(ArtifactError, match="traces.csv: "):
        _load_traces(traces)

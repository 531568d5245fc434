import argparse
import contextlib
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from headwaylab import fitting, graphs, ingest, patches, raster, route, synthetic
from headwaylab.artifacts import ArtifactError
from headwaylab.cli import (ARTIFACTS, _apply_config_file, _load_model_for_sim, _load_traces,
                            build_parser, main)


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
from conftest import airlink_model
from headwaylab import properties, simulate
model = airlink_model()
prop = properties.parse_quatex(properties.ewt_query(2))
deps = simulate.Simulator(model, seed=1).run(until_time=20_000)
assert prop.assertions and len(deps)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_import_and_a_simulation_load_no_scipy():
    # scipy costs about a second to import; only the functions that call it load it
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    done = subprocess.run([sys.executable, "-c", SIMULATE_WITHOUT_SCIPY], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
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
print(sorted(m for m in sys.modules if m == "scipy.spatial" or m.startswith("scipy.spatial.")))
"""


def test_snapping_loads_no_scipy_spatial():
    # records snap through the EdgeIndex's own grid cells, with no KD-tree
    tests = Path(__file__).resolve().parent
    done = subprocess.run([sys.executable, "-c", SNAP_WITHOUT_SCIPY_SPATIAL], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(tests.parent / "src")},
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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
    # bytes the per-event simulator wrote from scalar draws, less the `kind`
    # column (every row read `dep`), now written from the columns of the
    # block-drawn phases
    (tmp_path / "model.txt").write_text(
        "patch 1 erlang 10 0.1 mu 100.0\npatch 2 erlang 20 0.1 mu 200.0\n"
        "patch 3 erlang 10 0.05 mu 200.0\npatch 4 erlang 30 0.3 mu 100.0\n")
    rc = main(["simulate", str(tmp_path / "model.txt"), "--out", str(tmp_path), "--beta", "3",
               "--seed", "1", "--no-timetable", "--holding", "120", "--speedmod", "0.15"])
    assert rc == 0
    data = (tmp_path / "events.tsv").read_bytes()
    assert (data.count(b"\n"), hashlib.sha256(data).hexdigest()) == (
        873, "7539534fe1789bcc4e72c7949e630bc5d3eb33dfb75e4421f0a5a3aed4774f0b")


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

import argparse

import pytest

from headwaylab import fitting, graphs, ingest, patches, raster, route, synthetic
from headwaylab.cli import ARTIFACTS, _apply_config_file, build_parser, main


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
               "--method", "jenks-counts", "--max-sim-time", "1e5", "--budget", "5",
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

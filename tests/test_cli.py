from headwaylab import fitting, graphs, ingest, patches, raster, route, synthetic
from headwaylab.cli import ARTIFACTS, main


def test_pipeline_end_to_end_artifacts_read_back(tmp_path):
    ts = synthetic.generate_traces(synthetic.default_eight_patch_model(), n_buses=4, days=3, seed=3)
    csv = tmp_path / "avl.csv"
    csv.write_text(ingest.serialize(ts))
    out = tmp_path / "out"
    rc = main(["pipeline", str(csv), "--out", str(out), "--tau", "0.3", "--eta", "1",
               "--beta", "1", "--seed", "1", "--gamma", "40", "--n", "8",
               "--method", "jenks-counts", "--max-sim-time", "1e5", "--budget", "5"])
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

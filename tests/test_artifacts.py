import re
from pathlib import Path

import pytest

from conftest import straight_route_model
from headwaylab import fitting, graphs, patches, raster, route
from headwaylab.artifacts import ArtifactError

ROUTE_GRAPH = straight_route_model(n_edges=2).graph


def read_pgm_beside(meta_path: str) -> raster.Raster:
    """Read the sidecar at meta_path through read_pgm, next to a blank 3x2 image."""
    pgm = meta_path.removesuffix(".meta")
    Path(pgm).write_bytes(b"P5\n3 2\n255\n" + bytes(6))
    return raster.read_pgm(pgm)


# format -> (reader, writer, a file in its layout, a line the reader skips)
FORMATS = {
    "graph": (graphs.read_graph, graphs.write_graph,
              "node 0 0.0 0.0\nnode 1 3.0 4.0\nedge 0 0 1 5.0\n", "label 0 depot\n"),
    "route": (lambda p: route.read_route_model(p, ROUTE_GRAPH), route.write_route_model,
              "termini 0 1\nloop_length 400.0\nrejection_radius 30.0\n"
              "segment 0 0 1 0.0 100.0\nsegment 0 1 1 100.0 100.0\n"
              "segment 1 1 0 200.0 100.0\nsegment 1 0 0 300.0 100.0\n", "speed 0 12.5\n"),
    "patches": (patches.read_patches, patches.write_patches,
                "# gamma 4\n0.0\n0.25\n0.75\n1.0\n", "# method jenks\n"),
    "model": (fitting.read_patch_model, fitting.write_patch_model,
              "patch 1 erlang 4 0.01 mu 400.0\n"
              "patch 2 hyper 2 1 0.5 0.25 2 0.25 0.75 mu 6.5\n", "fit seed 0\n"),
    "pgm.meta": (read_pgm_beside, lambda r, p: raster.write_pgm(r, p.removesuffix(".meta")),
                 "cell_size 0.5\norigin 1.25 -2.0\n", "crs local\n"),
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_layout_reads_back_to_the_same_bytes(tmp_path, fmt):
    read, write, text, skipped = FORMATS[fmt]
    src, dst = tmp_path / f"in.{fmt}", tmp_path / f"out.{fmt}"
    src.write_text(skipped + text)
    write(read(str(src)), str(dst))
    assert dst.read_text() == text


MALFORMED = {
    "graph-short-node": ("graph", "node 0 0.0 0.0\nnode 1 1.0\n", 2),
    "route-direction-2": ("route", "termini 0 1\nloop_length 400.0\nrejection_radius 30.0\n"
                                   "segment 2 0 1 0.0 100.0\n", 4),
    "patches-not-a-number": ("patches", "# gamma 4\n0.0\nhalf\n1.0\n", 3),
    "model-truncated-erlang": ("model", "patch 1 erlang 4 0.01\n", 1),
    "model-hyper-branch-count": ("model", "patch 1 erlang 4 0.01 mu 400.0\n"
                                          "patch 2 hyper 3 1 0.5 0.25 2 0.25 0.75 mu 6.5\n", 2),
    # read in file order, these two patches would load swapped
    "model-patch-order": ("model", "patch 2 erlang 4 0.01 mu 400.0\n"
                                   "patch 1 erlang 4 0.02 mu 200.0\n", 1),
    "meta-origin-one-field": ("pgm.meta", "cell_size 1.0\norigin 1.0\n", 2),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_line_names_file_and_line(tmp_path, case):
    fmt, text, line = MALFORMED[case]
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text)
    with pytest.raises(ArtifactError, match=rf"^{re.escape(str(path))}, line {line}: "):
        FORMATS[fmt][0](str(path))

import math
import re

import numpy as np
import pytest

from headwaylab import raster
from headwaylab.ingest import AvlRecord, TraceSet
from headwaylab.raster import (Raster, RasterError, SkeletonMask, gaussian_blur,
                               rasterize_heatmap, read_pgm, skeletonize,
                               write_pgm)


def traces(points, vehicle="v", t0=0, dt=35):
    return TraceSet({vehicle: [AvlRecord(vehicle, x, y, t0 + i * dt)
                               for i, (x, y) in enumerate(points)]})


def test_counting_same_cell():
    ts = traces([(5.0, 5.0)] * 10)
    r = rasterize_heatmap(ts, cell_size=1.0, delta=0.0)
    assert r.intensity.sum() == 10.0
    assert r.intensity.max() == 10.0


def test_no_interpolation_when_delta_zero():
    ts = traces([(0.5, 0.5), (9.5, 0.5)])
    r = rasterize_heatmap(ts, cell_size=1.0, delta=0.0)
    # only the two endpoint cells carry intensity
    assert (r.intensity > 0).sum() == 2


def test_interpolation_weight_on_intermediate_cells():
    ts = TraceSet({
        "v": [AvlRecord("v", 1.5, 0.5, 0), AvlRecord("v", 6.5, 0.5, 35)],
        # second vehicle only widens the extent; its own gap is not interpolated
        "w": [AvlRecord("w", 0.0, 0.0, 0), AvlRecord("w", 10.0, 3.0, 400)],
    })
    r = rasterize_heatmap(ts, cell_size=1.0, delta=0.5)
    row = r.intensity[0]
    assert row[1] == 1.0 and row[6] == 1.0
    assert np.allclose(row[2:6], 0.5)  # the five-cells-apart pair's interior


def test_interpolation_skips_flagged_gaps():
    ts = TraceSet({"v": [AvlRecord("v", 0.5, 0.5, 0), AvlRecord("v", 5.5, 0.5, 400)]})
    r = rasterize_heatmap(ts, cell_size=1.0, delta=0.5)
    assert (r.intensity > 0).sum() == 2  # 400 s > 5 min: no interpolation


def test_contrast_boost_identity_and_monotone():
    ts = traces([(0.5, 0.5)] * 4 + [(2.5, 0.5), (5.0, 2.0)])
    plain = rasterize_heatmap(ts, cell_size=1.0, boost=0.0)
    boosted = rasterize_heatmap(ts, cell_size=1.0, boost=2.0)
    assert plain.intensity.max() == boosted.intensity.max() == 4.0
    # boost lifts sub-maximal intensities, never the maximum
    assert plain.intensity[0, 2] == 1.0
    assert boosted.intensity[0, 2] > plain.intensity[0, 2]


def test_empty_traceset_error():
    with pytest.raises(RasterError):
        rasterize_heatmap(TraceSet({}), cell_size=1.0)


def test_blur_sigma_zero_identity():
    ts = traces([(0.5, 0.5), (3.5, 2.5)])
    r = rasterize_heatmap(ts, cell_size=1.0)
    out = gaussian_blur(r, 0.0)
    assert np.array_equal(out.intensity, r.intensity)


def test_blur_kernel_normalized_on_impulse():
    grid = np.zeros((21, 21))
    grid[10, 10] = 1.0
    r = Raster(grid, 1.0, (0.0, 0.0))
    out = gaussian_blur(r, 1.0)
    assert abs(out.intensity.sum() - 1.0) < 1e-12


def test_blur_mass_conservation_interior():
    grid = np.zeros((41, 41))
    grid[18:23, 18:23] = 3.7
    r = Raster(grid, 1.0, (0.0, 0.0))
    out = gaussian_blur(r, 2.0)
    assert abs(out.intensity.sum() - grid.sum()) / grid.sum() < 1e-9


def _line_raster(length=60, value=10.0):
    grid = np.zeros((9, length + 8))
    grid[4, 4:4 + length] = value
    return Raster(grid, 1.0, (0.0, 0.0))


def test_skeleton_ideal_line_unchanged():
    r = _line_raster()
    before = r.intensity > 0
    mask = skeletonize(r, tau=1.0, eta=1.0)
    assert np.array_equal(mask.mask, before)


def test_skeleton_subset_of_thresholded():
    rng = np.random.default_rng(5)
    grid = rng.uniform(0, 4.0, size=(30, 30))
    grid[10:14, 5:25] += 20.0
    r = Raster(grid, 1.0, (0.0, 0.0))
    mask = skeletonize(r, tau=5.0, eta=1.0)
    assert not (mask.mask & ~(grid >= 5.0)).any()


def zhang_suen(binary: np.ndarray) -> np.ndarray:
    """Reference Zhang-Suen thinning of a binary image (oracle)."""
    img = binary.astype(np.uint8).copy()

    def neighbours(i, j, im):
        return [im[i - 1, j], im[i - 1, j + 1], im[i, j + 1], im[i + 1, j + 1],
                im[i + 1, j], im[i + 1, j - 1], im[i, j - 1], im[i - 1, j - 1]]

    changed = True
    while changed:
        changed = False
        for step in (0, 1):
            marks = []
            for i in range(1, img.shape[0] - 1):
                for j in range(1, img.shape[1] - 1):
                    if not img[i, j]:
                        continue
                    p = neighbours(i, j, img)
                    b = sum(p)
                    if not (2 <= b <= 6):
                        continue
                    a = sum(1 for k in range(8) if p[k] == 0 and p[(k + 1) % 8] == 1)
                    if a != 1:
                        continue
                    if step == 0:
                        if p[0] * p[2] * p[4] != 0 or p[2] * p[4] * p[6] != 0:
                            continue
                    else:
                        if p[0] * p[2] * p[6] != 0 or p[0] * p[4] * p[6] != 0:
                            continue
                    marks.append((i, j))
            for i, j in marks:
                img[i, j] = 0
                changed = True
    return img.astype(bool)


def test_skeleton_bar_matches_zhang_suen_midline():
    grid = np.zeros((9, 30))
    grid[3:6, 4:26] = 8.0  # 3-pixel-wide horizontal bar
    r = Raster(grid, 1.0, (0.0, 0.0))
    ours = skeletonize(r, tau=1.0, eta=1.0).mask
    zs = zhang_suen(grid > 0)
    midline = np.zeros_like(ours)
    midline[4, 4:26] = True
    for got, name in ((ours, "erosion"), (zs, "zhang-suen")):
        assert not (got & ~midline).any(), f"{name} left pixels off the midline"
        missing = midline & ~got
        assert missing[:, 6:24].sum() == 0, f"{name} lost interior midline pixels"


def test_skeleton_fixed_point_no_removable_pixels():
    rng = np.random.default_rng(7)
    grid = np.zeros((40, 40))
    for _ in range(6):
        i, j = rng.integers(5, 34, size=2)
        grid[i - 2:i + 3, j - 2:j + 3] += rng.uniform(3, 9)
    grid[20, 2:38] += 12.0
    r = Raster(grid, 1.0, (0.0, 0.0))
    mask = skeletonize(r, tau=1.0, eta=0.5).mask
    from headwaylab.raster import _DEGREE, _SIMPLE, _code_at
    for i, j in map(tuple, np.argwhere(mask)):
        code = _code_at(mask, i, j)
        assert not (_DEGREE[code] >= 2 and _SIMPLE[code])


def test_skeleton_faint_hair_removed():
    grid = np.zeros((15, 40))
    grid[7, 2:38] = 30.0        # strong line
    grid[2:7, 12] = 1.5         # faint 5-pixel hair, dies after 2 passes
    r = Raster(grid, 1.0, (0.0, 0.0))
    mask = skeletonize(r, tau=1.0, eta=1.0).mask
    assert not mask[2:7, 12].any()
    assert mask[7, 2:38].all()


def test_skeleton_all_below_threshold_error():
    r = _line_raster(value=0.5)
    with pytest.raises(RasterError):
        skeletonize(r, tau=1.0, eta=1.0)


def test_pgm_roundtrip(tmp_path):
    ts = traces([(0.5, 0.5), (7.5, 3.5), (2.5, 9.5)])
    r = rasterize_heatmap(ts, cell_size=1.0)
    path = str(tmp_path / "x.pgm")
    write_pgm(r, path)
    back = read_pgm(path)
    assert back.width == r.width and back.height == r.height
    assert back.cell_size == r.cell_size and back.origin == r.origin
    assert np.array_equal(back.intensity > 0, r.intensity > 0)


def test_pgm_needs_its_sidecar(tmp_path):
    path = tmp_path / "x.pgm"
    write_pgm(rasterize_heatmap(traces([(0.5, 0.5), (7.5, 3.5)]), cell_size=1.0), str(path))
    meta = tmp_path / "x.pgm.meta"
    meta.write_text("cell_size 1.0\n")
    with pytest.raises(RasterError):
        read_pgm(str(path))
    meta.unlink()
    with pytest.raises(FileNotFoundError):
        read_pgm(str(path))


@pytest.mark.parametrize("head", [b"", b"P5\n", b"P5\n3\n255\n", b"P5\n3 2\n", b"P2\n3 2\n255\n",
                                  b"P5\n3 2\n255\n" + bytes(5)],
                         ids=["empty", "magic-only", "one-dimension", "no-maxval", "ascii-pgm",
                              "short-pixels"])
def test_malformed_pgm_names_the_file(tmp_path, head):
    path = tmp_path / "x.pgm"
    path.write_bytes(head)
    (tmp_path / "x.pgm.meta").write_text("cell_size 1.0\norigin 0.0 0.0\n")
    with pytest.raises(RasterError, match=re.escape(str(path))):
        read_pgm(str(path))

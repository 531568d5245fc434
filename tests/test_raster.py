import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from headwaylab import raster
from headwaylab.ingest import TraceSet
from headwaylab.raster import (Raster, RasterError, SkeletonMask, gaussian_blur,
                               rasterize_heatmap, read_pgm, skeletonize,
                               write_pgm)


def traces(points, vehicle="v", t0=0, dt=35):
    return TraceSet({vehicle: [(t0 + i * dt, x, y) for i, (x, y) in enumerate(points)]})


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
        "v": [(0, 1.5, 0.5), (35, 6.5, 0.5)],
        # second vehicle only widens the extent; its own gap is not interpolated
        "w": [(0, 0.0, 0.0), (400, 10.0, 3.0)],
    })
    r = rasterize_heatmap(ts, cell_size=1.0, delta=0.5)
    row = r.intensity[0]
    assert row[1] == 1.0 and row[6] == 1.0
    assert np.allclose(row[2:6], 0.5)  # the five-cells-apart pair's interior


def test_interpolation_skips_flagged_gaps():
    ts = TraceSet({"v": [(0, 0.5, 0.5), (400, 5.5, 0.5)]})
    r = rasterize_heatmap(ts, cell_size=1.0, delta=0.5)
    assert (r.intensity > 0).sum() == 2  # 400 s > 5 min: no interpolation


def test_interpolation_stops_at_vehicle_seams():
    # the last record of one vehicle and the first of the next are no
    # segment, also with empty traces before, between and after them
    ts = TraceSet({"a": [], "b": [(0, 0.5, 0.5), (35, 2.5, 0.5)], "c": [],
                   "d": [(40, 6.5, 0.5), (75, 9.5, 0.5)], "e": []})
    r = rasterize_heatmap(ts, cell_size=1.0, delta=0.5)
    # 9 columns from x = 0.5: the record at x = 9.5 is clamped into the last
    assert r.intensity[0].tolist() == [1.0, 0.5, 1.0, 0.0, 0.0, 0.0, 1.0, 0.5, 1.0]


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


def scipy_blur(a: np.ndarray, sigma: float) -> np.ndarray:
    """The blur as two scipy.ndimage.convolve1d calls with zero padding (oracle)."""
    from scipy.ndimage import convolve1d

    radius = int(math.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    kernel /= kernel.sum()
    out = convolve1d(a, kernel, axis=0, mode="constant", cval=0.0)
    return convolve1d(out, kernel, axis=1, mode="constant", cval=0.0)


@settings(max_examples=150, deadline=None)
@given(height=st.integers(1, 60), width=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       share=st.floats(0.0, 1.0), spread=st.floats(0.01, 1.0))
@example(height=1, width=1, seed=0, share=1.0, spread=1.0)     # radius 3 on 1 x 1
@example(height=2, width=60, seed=1, share=0.5, spread=1.0)    # radius 180 on both axes
@example(height=60, width=60, seed=2, share=1.0, spread=0.01)  # radius 2
def test_blur_equals_scipy_convolve1d_to_the_bit(height, width, seed, share, spread):
    """Sparse non-negative rasters, sigma up to the longer side, so the
    kernel's radius often exceeds one axis or both."""
    rng = np.random.default_rng(seed)
    grid = rng.exponential(5.0, size=(height, width)) * (rng.random((height, width)) < share)
    sigma = spread * max(height, width)
    got = gaussian_blur(Raster(grid, 1.0, (0.0, 0.0)), sigma).intensity
    assert got.tobytes() == scipy_blur(grid, sigma).tobytes()


def labelled_live_components(alive: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The live test by scipy.ndimage.label (oracle): the flat mask of the
    8-connected components of `alive` holding a flat index of `live`."""
    from scipy.ndimage import label

    labels, n = label(alive, structure=np.ones((3, 3), dtype=np.uint8))
    labels = labels.ravel()
    has_live = np.zeros(n + 1, dtype=bool)
    has_live[labels[live]] = True
    return has_live[labels]


@pytest.mark.parametrize("seed", [*range(40), "band"])
def test_live_component_flood_matches_labelling(seed):
    if seed == "band":
        # a 2 x 60 band with one live pixel at an end: the shortest paths to a
        # pixel double at each column, and the flood must let each pixel into
        # its frontier once, not once per path
        framed = np.zeros((4, 62), dtype=bool)
        framed[1:3, 1:61] = True
        live = np.array([62 + 1])
    else:
        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(1, 40, size=2))
        framed = np.zeros((h + 2, w + 2), dtype=bool)
        framed[1:-1, 1:-1] = rng.random((h, w)) < rng.uniform(0.2, 0.7)
        alive = np.flatnonzero(framed)
        live = rng.choice(alive, size=min(alive.size, int(rng.integers(0, 6))), replace=False)
    got = raster._in_live_component(framed, live)
    assert np.array_equal(got, labelled_live_components(framed, live))


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
    from headwaylab.raster import _DEGREE, _SIMPLE, _codes
    codes = _codes(mask)
    for i, j in map(tuple, np.argwhere(mask)):
        code = codes[i, j]
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


@pytest.mark.parametrize("value", [1e20, math.inf], ids=["eta-below-rounding", "infinite"])
def test_skeleton_rejects_an_eta_that_cannot_lower_the_intensity(value):
    with pytest.raises(RasterError, match="cannot erode"):
        skeletonize(_line_raster(value=value), tau=1.0, eta=1.0)


def reference_skeletonize(r: Raster, tau: float, eta: float) -> np.ndarray:
    """Whole-image thinning loop (oracle): every pass recomputes the codes of
    every pixel, erodes the boundary, and, when a pixel exhausts, labels the
    whole image and sweeps the exhausted pixels in row-major order."""
    from scipy.ndimage import label

    if eta <= 0:
        raise RasterError("eta must be positive")
    intensity = np.where(r.intensity >= tau, r.intensity, 0.0)
    alive = intensity > 0
    if not alive.any():
        raise RasterError("all pixels below threshold")
    locked = np.zeros_like(alive)
    h, w = alive.shape

    def code_at(i, j):
        code = 0
        for bit, (di, dj) in enumerate(RING_OFFSETS):
            a, b = i + di, j + dj
            if 0 <= a < h and 0 <= b < w and alive[a, b]:
                code |= 1 << bit
        return code

    def sweep(pixels, removable):
        progress = True
        while progress:
            progress = False
            for i, j in pixels:
                if alive[i, j] and removable(i, j, code_at(i, j)):
                    alive[i, j] = False
                    progress = True

    for _ in range(100000):
        if not (alive & ~locked).any():
            break
        boundary = alive & ~locked & (raster.neighbour_counts(alive) < 8)
        intensity[boundary] -= eta
        dead = alive & ~locked & (intensity <= 0)
        if dead.any():
            labels, _ = label(alive, structure=np.ones((3, 3)))
            live_labels = set(np.unique(labels[alive & (intensity > 0)]))

            def exhausted_removable(i, j, code):
                deg = raster._DEGREE[code]
                return deg == 0 or raster._REDUNDANT[code] or (deg == 1 and labels[i, j] in live_labels)

            sweep(np.argwhere(dead).tolist(), exhausted_removable)
            locked |= dead & alive
    else:
        raise RasterError("thinning did not stabilize")
    sweep(np.argwhere(alive).tolist(), lambda i, j, code: raster._REDUNDANT[code])
    if not alive.any():
        raise RasterError("thinning removed every pixel; lower eta or tau")
    return alive


def thinning_outcome(thin, r, tau, eta):
    """The mask `thin` returns, or the message of the RasterError it raises."""
    try:
        return thin(r, tau, eta)
    except RasterError as exc:
        return str(exc)


def assert_same_thinning(r, tau, eta):
    got = thinning_outcome(lambda *a: skeletonize(*a).mask, r, tau, eta)
    want = thinning_outcome(reference_skeletonize, r, tau, eta)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert np.array_equal(got, want)


def test_skeleton_matches_whole_image_reference_on_random_rasters():
    from test_map_golden import random_raster

    for seed in range(20, 220):
        assert_same_thinning(*random_raster(seed))


def _strokes_to_every_border(rng):
    grid = rng.uniform(0.0, 2.0, size=(20, 30))
    for rows, cols in ((slice(0, 3), slice(None)), (slice(17, 20), slice(None)),
                       (slice(None), slice(0, 3)), (slice(None), slice(27, 30)),
                       (slice(8, 11), slice(None)), (slice(None), slice(13, 16))):
        grid[rows, cols] += rng.uniform(3.0, 12.0)
    return grid


def _row(rng):
    return rng.uniform(0.0, 6.0, size=(1, 40))


EDGE_RASTERS = {  # name: (grid from a generator, eta); tau is 1.5
    "one-pixel": (lambda rng: np.array([[5.0]]), 1.0),
    "row": (_row, 0.7),
    "column": (lambda rng: _row(rng).T, 0.7),
    "border-strokes": (_strokes_to_every_border, 0.8),
    "huge-eta-row": (_row, 1e9),  # every pixel is on the boundary and exhausts at once
    "huge-eta-strokes": (_strokes_to_every_border, 1e9),
}


@pytest.mark.parametrize("name", list(EDGE_RASTERS))
def test_skeleton_matches_whole_image_reference_on_edge_shapes(name):
    make, eta = EDGE_RASTERS[name]
    assert_same_thinning(Raster(make(np.random.default_rng(3)), 1.0, (0.0, 0.0)), 1.5, eta)


def test_skeleton_ends_when_unlocked_pixels_are_enclosed_by_locked_ones():
    """An unexhausted pixel whose eight neighbours are all locked is never on
    the boundary, so no later pass can change anything: the erosion ends
    there and the final sweep still leaves no redundant pixel."""
    from test_map_golden import random_raster

    r, tau, eta = random_raster(1662)
    r.intensity *= np.random.default_rng(1662).uniform(0.5, 3, size=r.intensity.shape)
    mask = skeletonize(r, tau, eta).mask
    codes = raster._codes(mask)
    assert not (mask & (r.intensity < tau)).any()
    assert not raster._REDUNDANT[codes[mask]].any()


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


# bit k of a neighbourhood code is set when the pixel at this offset is
RING_OFFSETS = [(-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1)]


def test_thinning_tables_match_labelled_neighbourhoods():
    """A pixel is simple when its set neighbours form one 8-connected piece
    and exactly one 4-connected piece of its unset neighbours touches it
    orthogonally; its degree counts the set neighbours."""
    from scipy.ndimage import label

    simple, degree = np.zeros(256, dtype=bool), np.zeros(256, dtype=np.uint8)
    for code in range(256):
        fg = np.zeros((3, 3), dtype=bool)
        for bit, (di, dj) in enumerate(RING_OFFSETS):
            fg[1 + di, 1 + dj] = bool(code >> bit & 1)
        bg = ~fg
        bg[1, 1] = False
        _, fg_pieces = label(fg, structure=np.ones((3, 3)))
        bg_labels, _ = label(bg)
        touching = {bg_labels[p] for p in ((0, 1), (1, 0), (1, 2), (2, 1))} - {0}
        simple[code] = fg_pieces == 1 and len(touching) == 1
        degree[code] = fg.sum()
    assert np.array_equal(raster._SIMPLE, simple)
    assert np.array_equal(raster._DEGREE, degree)

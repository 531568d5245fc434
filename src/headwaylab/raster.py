"""Raster stage of map generation: observation heat map, blur, skeleton.

The heat map counts one unit per measurement per cell and optionally adds a
configurable weight for every cell crossed by the straight line between
consecutive same-vehicle measurements, except across a trace gap (see
`ingest`).  The skeleton stage thins the thresholded map to a one-pixel-wide,
8-connected centerline by eroding boundary-pixel intensity, so that faint
structures (interpolation "hairs") exhaust and unravel while well-travelled
lines survive.

Thinning works on the thresholded image framed by one unset pixel and
addressed by flat index, so the eight ring neighbours of pixel p sit at
fixed offsets from p and every live pixel has all eight inside the array.
Each pixel's neighbourhood code (bit k set when ring neighbour k is alive)
is computed once and then kept current: clearing a pixel clears the bit that
points back at it in the codes of its eight neighbours.  Every pixel removal goes through
one sweep rule, `_sweep`: visit the given pixels in row-major order, clear
each live one that the stage's removal test accepts (the test reads the
pixel's current code), and repeat until a whole visit clears none.

The erosion passes touch only the active pixels, those alive and not yet
locked, kept as a row-major array of flat indices with their intensities in
a parallel array.  A pass erodes the active pixels whose code is not 255 (at
least one neighbour unset), sweeps the ones it exhausted and drops them from
both arrays, so it costs work in proportion to the pixels it can change
rather than to the image.  The one step left that may reach beyond them is
the flood fill behind the live test of an exhausted line end, and it runs
only in the passes where such a line end needs it.  It fills the pixels
alive at the start of the pass (those alive now plus the pass's exhausted
ones, which are the only pixels its sweep can clear) from the active pixels
that are not exhausted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import read_lines, write_lines
from .ingest import distances, is_gap

DEFAULT_RESOLUTION = 1024


class RasterError(ValueError):
    pass


@dataclass
class Raster:
    """Grid of non-negative intensities. intensity[i, j] is row i (y), col j (x);
    cell (i, j) covers world rect [origin + j*cell, ...) x [origin_y + i*cell, ...)."""

    intensity: np.ndarray
    cell_size: float
    origin: tuple[float, float]

    @property
    def height(self) -> int:
        return self.intensity.shape[0]

    @property
    def width(self) -> int:
        return self.intensity.shape[1]


@dataclass
class SkeletonMask:
    mask: np.ndarray  # bool, aligned with the source raster
    cell_size: float
    origin: tuple[float, float]


def _supercover_cells(x0, y0, x1, y1, origin, cell_size, width, height):
    """All (i, j) cells the segment from (x0,y0) to (x1,y1) passes through."""
    gx0, gy0 = (x0 - origin[0]) / cell_size, (y0 - origin[1]) / cell_size
    gx1, gy1 = (x1 - origin[0]) / cell_size, (y1 - origin[1]) / cell_size
    # parameter values where the segment crosses grid lines
    ts = [0.0, 1.0]
    dx, dy = gx1 - gx0, gy1 - gy0
    if dx != 0.0:
        lo, hi = sorted((gx0, gx1))
        for k in range(int(math.floor(lo)) + 1, int(math.ceil(hi))):
            ts.append((k - gx0) / dx)
    if dy != 0.0:
        lo, hi = sorted((gy0, gy1))
        for k in range(int(math.floor(lo)) + 1, int(math.ceil(hi))):
            ts.append((k - gy0) / dy)
    ts = sorted(t for t in ts if 0.0 <= t <= 1.0)
    cells = []
    for a, b in zip(ts, ts[1:]):
        if b <= a:
            continue
        tm = 0.5 * (a + b)
        j = int(gx0 + tm * dx)
        i = int(gy0 + tm * dy)
        if 0 <= i < height and 0 <= j < width:
            cells.append((i, j))
    return cells


def rasterize_heatmap(ts, cell_size: float | None = None, delta: float = 0.0,
                      boost: float = 0.0, resolution: int = DEFAULT_RESOLUTION) -> Raster:
    """Build the observation heat map.

    Every measurement adds 1.0 to its cell.  With delta > 0, every cell crossed
    by the segment between consecutive same-vehicle measurements (excluding the
    two endpoint cells) gains delta; segments across a trace gap are skipped.
    The map is the measurement counts plus delta times the crossing counts.
    A contrast boost b >= 0 then applies
    intensity <- (intensity/max)**(1/(1+b)) * max.
    """
    for name, value in (("delta", delta), ("boost", boost)):
        if not (math.isfinite(value) and value >= 0):
            raise RasterError(f"{name} must be finite and >= 0, got {value}")
    if not (math.isfinite(resolution) and resolution >= 1):
        raise RasterError(f"resolution must be finite and >= 1, got {resolution}")
    if cell_size is not None and not (math.isfinite(cell_size) and cell_size > 0):
        raise RasterError(f"cell_size must be finite and > 0, got {cell_size}")
    if not len(ts):
        raise RasterError("empty trace set")
    vids = ts.vehicles()
    t, xs, ys = np.concatenate([ts.traces[vid] for vid in vids]).T
    min_x, max_x, min_y, max_y = (float(v) for v in (xs.min(), xs.max(), ys.min(), ys.max()))
    extent = max(max_x - min_x, max_y - min_y)
    if cell_size is None:
        cell_size = extent / resolution if extent > 0 else 1.0
    if cell_size <= 0:  # an extent that underflows when divided
        raise RasterError("cell_size must be positive")
    width = max(1, int(math.ceil((max_x - min_x) / cell_size)) or 1)
    height = max(1, int(math.ceil((max_y - min_y) / cell_size)) or 1)
    origin = (min_x, min_y)
    # each record's cell, clamped to the grid
    rows = np.clip(((ys - min_y) / cell_size).astype(np.int64), 0, height - 1)
    cols = np.clip(((xs - min_x) / cell_size).astype(np.int64), 0, width - 1)
    grid = np.zeros((height, width), dtype=np.float64)
    np.add.at(grid, (rows, cols), 1.0)

    if delta > 0:
        # consecutive records that are a gap, or of different vehicles, add none
        owner = np.repeat(np.arange(len(vids)), [len(ts.traces[vid]) for vid in vids])
        skip = is_gap(np.diff(t), distances(np.diff(xs), np.diff(ys))) | (np.diff(owner) != 0)
        cells = list(zip(rows.tolist(), cols.tolist()))
        x, y = xs.tolist(), ys.tolist()
        crossings = np.zeros_like(grid)
        for k in np.flatnonzero(~skip).tolist():
            for cell in _supercover_cells(x[k], y[k], x[k + 1], y[k + 1], origin, cell_size, width, height):
                if cell != cells[k] and cell != cells[k + 1]:
                    crossings[cell] += 1.0
        grid += delta * crossings

    if boost > 0:
        mx = grid.max()
        if mx > 0:
            np.power(grid / mx, 1.0 / (1.0 + boost), out=grid)
            grid *= mx
    return Raster(grid, cell_size, origin)


def gaussian_blur(r: Raster, sigma: float) -> Raster:
    """Separable Gaussian convolution, kernel truncated at ceil(3*sigma) cells
    and renormalized to sum 1, with zeros beyond the image; sigma = 0 returns
    the input unchanged.  sigma may be at most the raster's longer side, so
    the kernel stays in proportion to the image."""
    longer = max(r.height, r.width)
    if not (math.isfinite(sigma) and 0 <= sigma <= longer):
        raise RasterError(f"sigma must be finite and in [0, {longer}] (the raster's longer side), "
                          f"got {sigma}")
    if sigma == 0:
        return Raster(r.intensity.copy(), r.cell_size, r.origin)
    radius = int(math.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    kernel /= kernel.sum()
    out = _convolve_axis(r.intensity, kernel, 0)
    return Raster(_convolve_axis(out, kernel, 1), r.cell_size, r.origin)


# cells of the image convolved at once, so that the block's buffer stays in
# cache and small next to the image (0.26 MB against 1.9 MB at 270 x 900)
_BLUR_BLOCK = 1 << 15


def _convolve_axis(a: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Convolution of a 2-D array with an odd, symmetric kernel along one
    axis, zero-padded.  Each output cell sums in scipy.ndimage's order for
    a symmetric kernel, so the result is the same to the bit: it starts from
    the centre tap, a[c] * w[r], then adds (a[c - m] + a[c + m]) * w[r - m]
    for m = r down to 1.  Taps with m at least the axis length fall wholly
    outside the image and add exactly 0, so they are skipped.  The output
    is built a block of rows at a time."""
    r = kernel.size // 2
    height, width = a.shape
    taps = min(r, a.shape[axis] - 1)
    # shifted(lo, hi, s): for the rows lo:hi, the value at c is a[c + s - taps]
    # along the axis, or 0 beyond the image
    if axis == 0:
        padded = np.zeros((height + 2 * taps, width))
        padded[taps:taps + height] = a

        def shifted(lo, hi, start):
            return padded[lo + start:hi + start]
    else:
        padded = np.zeros((height, width + 2 * taps))
        padded[:, taps:taps + width] = a

        def shifted(lo, hi, start):
            return padded[lo:hi, start:start + width]
    out = a * kernel[r]
    rows = max(1, _BLUR_BLOCK // width)
    pair = np.empty((min(rows, height), width))
    for lo in range(0, height, rows):
        hi = min(lo + rows, height)
        block, total = pair[:hi - lo], out[lo:hi]
        for m in range(taps, 0, -1):
            np.add(shifted(lo, hi, taps - m), shifted(lo, hi, taps + m), out=block)
            block *= kernel[r - m]
            total += block
    return out


# --- thinning -----------------------------------------------------------

# ring positions around a pixel, with their offsets
_RING = [(-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1)]


def _build_luts():
    """256-entry tables over the 8-neighborhood occupancy code.

    simple[code]: removing the center keeps its foreground neighbours in one
    8-connected piece and keeps the adjacent background in one 4-connected
    piece (so no local disconnection and no pinholes).  That holds exactly
    where the 8-connectivity number is 1 (Yokoi, Toriwaki & Fukumura 1975):
    the sum over k in {0, 2, 4, 6} of c_k * (1 - c_{k+1} * c_{k+2}), where
    c_k is 1 when ring neighbour k is unset and indices run mod 8.
    degree[code]: number of set neighbours.
    """
    def connectivity(code):
        c = [1 - (code >> k & 1) for k in range(8)]
        return sum(c[k] * (1 - c[k + 1] * c[(k + 2) % 8]) for k in (0, 2, 4, 6))

    return (np.array([connectivity(code) == 1 for code in range(256)]),
            np.array([bin(code).count("1") for code in range(256)], dtype=np.uint8))


_SIMPLE, _DEGREE = _build_luts()
_REDUNDANT = _SIMPLE & (_DEGREE >= 2)  # removable without cutting or ending a line


def frame(mask: np.ndarray) -> np.ndarray:
    """`mask` inside a frame of one unset pixel, the layout of the module docstring."""
    framed = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    framed[1:-1, 1:-1] = mask
    return framed


def _codes(framed: np.ndarray) -> np.ndarray:
    """The neighbourhood code of every pixel of a framed image (`frame`):
    bit k set when ring neighbour k is set.  The frame's own codes are 0."""
    code = np.zeros(framed.shape, dtype=np.uint8)
    inner = code[1:-1, 1:-1]
    height, width = framed.shape
    for bit, (di, dj) in enumerate(_RING):
        inner |= framed[1 + di:height - 1 + di, 1 + dj:width - 1 + dj].astype(np.uint8) << bit
    return code


def neighbour_counts(framed: np.ndarray) -> np.ndarray:
    """Number of set 8-neighbours of every pixel of a framed image (`frame`),
    0 on the frame."""
    return _DEGREE[_codes(framed)]


def _sweep(alive: np.ndarray, codes: np.ndarray, ring: list, pixels: list, removable) -> None:
    """Clear, in the order given, every pixel of `pixels` that is alive and
    for which removable(p, codes[p]) holds; repeat until a whole visit clears
    none.  Pixels are flat indices into a zero-bordered image whose ring
    neighbours lie at the flat offsets `ring`.  Clearing p clears, in the
    code of each ring neighbour, the bit that points back at p, so `codes`
    stays the current neighbourhood of every pixel."""
    progress = True
    while progress:
        progress = False
        for p in pixels:
            if alive[p] and removable(p, codes[p]):
                alive[p] = False
                for offset, keep in ring:
                    codes[p + offset] &= keep
                progress = True


# a frontier longer than this drops its repeated pixels; a shorter one keeps
# them, because a flood along a thin line takes hundreds of short steps and
# np.unique on each would cost more than the repeats
_FLOOD_DEDUP = 256


def _in_live_component(alive: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Flat mask of the pixels whose 8-connected component of `alive`
    contains one of the flat indices `live`, all of them alive.  `alive` is
    framed by unset pixels, so a flood fill from `live` over ring offsets
    never leaves the array."""
    width = alive.shape[1]
    offsets = np.array([di * width + dj for di, dj in _RING])
    alive = alive.ravel()
    unreached = alive.copy()
    unreached[live] = False
    frontier = live
    while frontier.size:
        step = (frontier[:, None] + offsets).ravel()
        frontier = step[unreached[step]]
        unreached[frontier] = False
        if frontier.size > _FLOOD_DEDUP:
            # a pixel next to several frontier pixels enters once per
            # neighbour, and along a 2-wide band its count doubles per step
            frontier = np.unique(frontier)
    return alive & ~unreached


def skeletonize(r: Raster, tau: float, eta: float) -> SkeletonMask:
    """Threshold at tau, then thin by intensity erosion.

    Each pass subtracts eta from every boundary pixel: a live, unlocked pixel
    with at least one unset neighbour.  The pixels this exhausts (intensity
    <= 0) are swept in row-major order.  One is cleared when removal keeps
    its neighbourhood connected.  An exhausted line end is cleared only while
    its connected component still contains live (positive-intensity)
    pixels, so faint spurs unravel off the well-travelled line but a
    structure that exhausts as a whole locks in place instead of eating
    itself from the ends.  Exhausted pixels that stay are locked.  Line ends
    with positive intensity are never cleared.

    The live test reads the components of the pixels alive at the start of
    the pass, before the sweep clears any, so one exhausted line end's answer
    does not depend on which others the sweep reached first.

    The erosion ends when no unlocked pixel is on the boundary: either every
    pixel is locked, or the unlocked ones are enclosed by locked ones and no
    later pass could change anything.  It always ends: every pass lowers the
    intensity of at least one unlocked pixel, and an eta too small to lower
    the largest intensity in floating point is rejected.  A final sweep then
    removes any leftover redundant (simple, degree >= 2) pixels so the result
    is one pixel wide.

    A pass reads only the active pixels, those alive and unlocked, and the
    neighbourhood codes are kept current as pixels are cleared, so its cost
    follows the pixels it can change; the module docstring gives the layout.
    """
    if eta <= 0:
        raise RasterError("eta must be positive")
    shape = (r.height + 2, r.width + 2)
    above = (r.intensity >= tau) & (r.intensity > 0)
    if not above.any():
        raise RasterError("all pixels below threshold")
    alive = frame(above).ravel()
    active = np.flatnonzero(alive)
    level = r.intensity[above].astype(np.float64)  # the active pixels' intensities
    top = level.max()
    if not 2 * eta > np.spacing(top):  # then x - eta < x for every x <= top
        raise RasterError(f"eta {eta:g} cannot erode intensity {top:g}")
    ring = [(di * shape[1] + dj, 0xFF ^ 1 << (bit + 4) % 8) for bit, (di, dj) in enumerate(_RING)]
    codes = _codes(alive.reshape(shape)).ravel()

    while active.size:
        boundary = codes[active] != 255
        if not boundary.any():
            break
        level[boundary] -= eta
        exhausted = level <= 0
        if not exhausted.any():
            continue
        dead, live = active[exhausted], active[~exhausted]
        in_live = None

        def exhausted_removable(p, code):
            nonlocal in_live
            deg = _DEGREE[code]
            if deg != 1:
                return deg == 0 or _REDUNDANT[code]
            if in_live is None:
                at_start = alive.copy()
                at_start[dead] = True
                in_live = _in_live_component(at_start.reshape(shape), live)
            return in_live[p]

        _sweep(alive, codes, ring, dead.tolist(), exhausted_removable)
        active, level = live, level[~exhausted]

    # no remaining pixel of degree >= 2 may be simple
    _sweep(alive, codes, ring, np.flatnonzero(alive).tolist(), lambda p, code: _REDUNDANT[code])
    mask = alive.reshape(shape)[1:-1, 1:-1].copy()
    if not mask.any():
        raise RasterError("thinning removed every pixel; lower eta or tau")
    return SkeletonMask(mask, r.cell_size, r.origin)


# --- raster file I/O ----------------------------------------------------

def write_pgm(r: Raster, path: str) -> Raster:
    """Binary PGM (P5, 8-bit, max-normalized) plus a text sidecar with the
    grid geometry.  Row 0 is written last so the image is y-up in viewers.
    Returns the 8-bit raster, as `read_pgm` reads it back."""
    mx = r.intensity.max()
    img = (r.intensity / mx * 255.0).astype(np.uint8) if mx > 0 else np.zeros_like(r.intensity, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{r.width} {r.height}\n255\n".encode())
        fh.write(img[::-1].tobytes())
    write_lines(path + ".meta", [("cell_size", r.cell_size), ("origin", *r.origin)])
    return Raster(img.astype(np.float64), r.cell_size, r.origin)


def write_mask_pgm(m: SkeletonMask, path: str) -> Raster:
    return write_pgm(Raster(m.mask.astype(np.float64), m.cell_size, m.origin), path)


def read_pgm(path: str) -> Raster:
    with open(path, "rb") as fh:
        magic, dims, maxval = (fh.readline().split() for _ in range(3))
        if (magic != [b"P5"] or len(dims) != 2 or not all(map(bytes.isdigit, dims))
                or len(maxval) != 1):
            raise RasterError(f"{path}: needs a binary PGM header: P5, WIDTH HEIGHT, MAXVAL")
        width, height = int(dims[0]), int(dims[1])
        data = np.frombuffer(fh.read(width * height), dtype=np.uint8)
    if data.size != width * height:
        raise RasterError(f"{path}: {data.size} pixel bytes, {width}x{height} needs {width * height}")
    meta = {}

    def parse(fields):
        if fields[0] == "cell_size":
            _, size = fields
            meta["cell_size"] = float(size)
        elif fields[0] == "origin":
            _, x, y = fields
            meta["origin"] = (float(x), float(y))

    read_lines(path + ".meta", parse)
    if len(meta) < 2:
        raise RasterError(f"{path}.meta: needs a cell_size and an origin line")
    return Raster(data.reshape(height, width)[::-1].astype(np.float64),
                  meta["cell_size"], meta["origin"])

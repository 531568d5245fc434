"""Raster stage of map generation: observation heat map, blur, skeleton.

The heat map counts one unit per measurement per cell and optionally adds a
configurable weight for every cell crossed by the straight line between
consecutive same-vehicle measurements.  The skeleton stage thins the
thresholded map to a one-pixel-wide, 8-connected centerline by eroding
boundary-pixel intensity, so that faint structures (interpolation "hairs")
exhaust and unravel while well-travelled lines survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import read_lines, write_lines

DEFAULT_RESOLUTION = 1024
GAP_SECONDS = 300.0
GAP_DISTANCE = 5000.0  # straight-line jump threshold, in input coordinate units


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

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        j = min(int((x - self.origin[0]) / self.cell_size), self.width - 1)
        i = min(int((y - self.origin[1]) / self.cell_size), self.height - 1)
        return max(i, 0), max(j, 0)


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
                      boost: float = 0.0, resolution: int = DEFAULT_RESOLUTION,
                      gap_seconds: float = GAP_SECONDS,
                      gap_distance: float = GAP_DISTANCE) -> Raster:
    """Build the observation heat map.

    Every measurement adds 1.0 to its cell.  With delta > 0, every cell crossed
    by the segment between consecutive same-vehicle measurements (excluding the
    two endpoint cells) gains delta; segments spanning a time gap > gap_seconds
    or a straight-line jump > gap_distance are skipped.  A contrast boost
    b >= 0 then applies intensity <- (intensity/max)**(1/(1+b)) * max.
    """
    if delta < 0 or boost < 0:
        raise RasterError("delta and boost must be non-negative")
    pts = [(r.x, r.y) for r in ts.all_records()]
    if not pts:
        raise RasterError("empty trace set")
    xs, ys = zip(*pts)
    min_x, max_x, min_y, max_y = min(xs), max(xs), min(ys), max(ys)
    extent = max(max_x - min_x, max_y - min_y)
    if cell_size is None:
        if extent <= 0:
            cell_size = 1.0
        else:
            cell_size = extent / resolution
    if cell_size <= 0:
        raise RasterError("cell_size must be positive")
    width = max(1, int(math.ceil((max_x - min_x) / cell_size)) or 1)
    height = max(1, int(math.ceil((max_y - min_y) / cell_size)) or 1)
    origin = (min_x, min_y)
    grid = np.zeros((height, width), dtype=np.float64)
    r = Raster(grid, cell_size, origin)

    for vid in ts.vehicles():
        recs = ts.traces[vid]
        prev = None
        for rec in recs:
            i, j = r.cell_of(rec.x, rec.y)
            grid[i, j] += 1.0
            if delta > 0 and prev is not None:
                dt = rec.t - prev.t
                dist = math.hypot(rec.x - prev.x, rec.y - prev.y)
                if dt <= gap_seconds and dist <= gap_distance:
                    c0 = r.cell_of(prev.x, prev.y)
                    c1 = (i, j)
                    for cell in _supercover_cells(prev.x, prev.y, rec.x, rec.y,
                                                  origin, cell_size, width, height):
                        if cell != c0 and cell != c1:
                            grid[cell] += delta
            prev = rec

    if boost > 0:
        mx = grid.max()
        if mx > 0:
            np.power(grid / mx, 1.0 / (1.0 + boost), out=grid)
            grid *= mx
    return r


def gaussian_blur(r: Raster, sigma: float) -> Raster:
    """Separable Gaussian convolution, kernel truncated at ceil(3*sigma) cells
    and renormalized to sum 1; sigma = 0 returns the input unchanged."""
    if sigma < 0:
        raise RasterError("sigma must be >= 0")
    if sigma == 0:
        return Raster(r.intensity.copy(), r.cell_size, r.origin)
    radius = int(math.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    kernel /= kernel.sum()
    from scipy.ndimage import convolve1d

    out = convolve1d(r.intensity, kernel, axis=0, mode="constant", cval=0.0)
    out = convolve1d(out, kernel, axis=1, mode="constant", cval=0.0)
    return Raster(out, r.cell_size, r.origin)


# --- thinning -----------------------------------------------------------

# ring positions around a pixel, with their offsets
_RING = [(-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1)]


def _build_luts():
    """256-entry tables over the 8-neighborhood occupancy code.

    simple[code]: removing the center keeps its foreground neighbours in one
    8-connected piece and keeps the adjacent background in one 4-connected
    piece (so no local disconnection and no pinholes).
    degree[code]: number of set neighbours.
    """
    simple = np.zeros(256, dtype=bool)
    degree = np.zeros(256, dtype=np.uint8)
    for code in range(256):
        fg = [k for k in range(8) if code >> k & 1]
        bg = [k for k in range(8) if not code >> k & 1]
        degree[code] = len(fg)

        def ncomp(cells, conn8):
            comps = 0
            seen = set()
            for s in cells:
                if s in seen:
                    continue
                comps += 1
                stack = [s]
                seen.add(s)
                while stack:
                    a = stack.pop()
                    for b in cells:
                        if b in seen:
                            continue
                        di = abs(_RING[a][0] - _RING[b][0])
                        dj = abs(_RING[a][1] - _RING[b][1])
                        adj = (max(di, dj) == 1) if conn8 else (di + dj == 1)
                        if adj:
                            seen.add(b)
                            stack.append(b)
            return comps

        fg_ok = ncomp(fg, True) == 1
        # background components 4-adjacent to the center (orthogonal ring slots)
        bg_comps_touching = 0
        seen = set()
        for s in bg:
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            seen.add(s)
            while stack:
                a = stack.pop()
                for b in bg:
                    if b in seen:
                        continue
                    di = abs(_RING[a][0] - _RING[b][0])
                    dj = abs(_RING[a][1] - _RING[b][1])
                    if di + dj == 1:
                        seen.add(b)
                        comp.add(b)
                        stack.append(b)
            if any(k in (0, 2, 4, 6) for k in comp):
                bg_comps_touching += 1
        simple[code] = fg_ok and bg_comps_touching == 1
    return simple, degree


_SIMPLE, _DEGREE = _build_luts()


def _codes(alive: np.ndarray) -> np.ndarray:
    code = np.zeros(alive.shape, dtype=np.uint8)
    padded = np.zeros((alive.shape[0] + 2, alive.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = alive
    for bit, (di, dj) in enumerate(_RING):
        code |= padded[1 + di:padded.shape[0] - 1 + di,
                       1 + dj:padded.shape[1] - 1 + dj].astype(np.uint8) << bit
    return code


def _code_at(alive, i, j) -> int:
    h, w = alive.shape
    code = 0
    for bit, (di, dj) in enumerate(_RING):
        a, b = i + di, j + dj
        if 0 <= a < h and 0 <= b < w and alive[a, b]:
            code |= 1 << bit
    return code


_CC8 = np.ones((3, 3), dtype=np.uint8)


def skeletonize(r: Raster, tau: float, eta: float, max_passes: int = 100000) -> SkeletonMask:
    """Threshold at tau, then thin by intensity erosion.

    Each pass subtracts eta from every boundary pixel.  A pixel whose intensity
    has been exhausted is cleared when removal keeps its neighbourhood
    connected; an exhausted line end is cleared only while its connected
    component still contains live (positive-intensity) pixels, so faint spurs
    unravel off the well-travelled line but a structure that exhausts as a
    whole locks in place instead of eating itself from the ends.  Line ends
    with positive intensity are never cleared.  Terminates when every
    remaining pixel is locked; a final sweep then removes any leftover
    redundant (simple, degree >= 2) pixels so the result is one pixel wide.
    """
    from scipy.ndimage import label as _cc_label

    if eta <= 0:
        raise RasterError("eta must be positive")
    intensity = np.where(r.intensity >= tau, r.intensity, 0.0)
    alive = intensity > 0
    if not alive.any():
        raise RasterError("all pixels below threshold")
    locked = np.zeros_like(alive)

    for _ in range(max_passes):
        if not (alive & ~locked).any():
            break
        codes = _codes(alive)
        boundary = alive & ~locked & (_DEGREE[codes] < 8)
        intensity[boundary] -= eta
        dead = alive & ~locked & (intensity <= 0)
        if dead.any():
            labels, _ = _cc_label(alive, structure=_CC8)
            live_labels = set(np.unique(labels[alive & (intensity > 0)]))
            candidates = list(map(tuple, np.argwhere(dead)))
            progress = True
            while progress:
                progress = False
                for (i, j) in candidates:
                    if not alive[i, j]:
                        continue
                    code = _code_at(alive, i, j)
                    deg = _DEGREE[code]
                    if deg == 0 or (deg >= 2 and _SIMPLE[code]) \
                            or (deg == 1 and labels[i, j] in live_labels):
                        alive[i, j] = False
                        intensity[i, j] = 0.0
                        progress = True
            for (i, j) in candidates:
                if alive[i, j]:
                    locked[i, j] = True
                    intensity[i, j] = 0.0
    else:
        raise RasterError("thinning did not stabilize")

    # fixed-point cleanup: no remaining pixel of degree >= 2 may be simple
    progress = True
    while progress:
        progress = False
        for (i, j) in map(tuple, np.argwhere(alive)):
            code = _code_at(alive, i, j)
            if _DEGREE[code] >= 2 and _SIMPLE[code]:
                alive[i, j] = False
                progress = True

    if not alive.any():
        raise RasterError("thinning removed every pixel; lower eta or tau")
    return SkeletonMask(alive, r.cell_size, r.origin)


# --- raster file I/O ----------------------------------------------------

def write_pgm(r: Raster, path: str) -> None:
    """Binary PGM (P5, 8-bit, max-normalized) plus a text sidecar with the
    grid geometry.  Row 0 is written last so the image is y-up in viewers."""
    mx = r.intensity.max()
    img = (r.intensity / mx * 255.0).astype(np.uint8) if mx > 0 else np.zeros_like(r.intensity, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{r.width} {r.height}\n255\n".encode())
        fh.write(img[::-1].tobytes())
    write_lines(path + ".meta", [("cell_size", r.cell_size), ("origin", *r.origin)])


def write_mask_pgm(m: SkeletonMask, path: str) -> None:
    write_pgm(Raster(m.mask.astype(np.float64), m.cell_size, m.origin), path)


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

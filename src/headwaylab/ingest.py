"""Parse and window-filter raw AVL measurements.

Input is delimiter-separated text with one vehicle report per row (vehicle id,
planar x, planar y, timestamp).  Rows are grouped per vehicle and sorted by
time; everything downstream works on these per-vehicle chronological traces,
each one read-only float64 array of shape (n, 3) with columns t, x and y
(`TraceSet`).  t is exact: parsed timestamps are whole seconds in
[0, 2**53), every one of which a float64 holds exactly.
Coordinates are treated as an arbitrary consistent planar frame: the pipeline
is shift- and uniform-scale-invariant, so no datum conversion happens here.

One trace-gap rule serves every later stage: two consecutive records of a
vehicle are a gap when they lie more than GAP_SECONDS apart in time or more
than GAP_DISTANCE apart in a straight line (`distances`).  The heat map draws
no segment across a gap, crossing extraction poisons its timer at one, and
route derivation caps a record's dwell at GAP_SECONDS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

GAP_SECONDS = 300.0
GAP_DISTANCE = 5000.0  # in input coordinate units


def is_gap(dt, dist):
    """Whether consecutive records dt seconds and dist units apart are a gap;
    elementwise when given arrays."""
    return (dt > GAP_SECONDS) | (dist > GAP_DISTANCE)


def distances(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise `math.hypot`, the straight-line distance of the scalar
    callers: np.hypot differs from it in the last bit on some inputs."""
    return np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), np.float64, len(dx))


class IngestError(ValueError):
    pass


class TraceSet:
    """Per-vehicle, time-sorted AVL traces.

    traces[vid] is one read-only float64 array of shape (n, 3) with columns
    t, x and y, strictly increasing in t.  The constructor takes any
    sequence of (t, x, y) rows per vehicle and raises IngestError for a
    trace whose t does not strictly increase; duplicate timestamps for a
    vehicle are resolved at parse time (later row wins).
    """

    def __init__(self, traces: Mapping[str, Sequence] | None = None):
        self.traces: dict[str, np.ndarray] = {}
        for vid, rows in (traces or {}).items():
            txy = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
            if (np.diff(txy[:, 0]) <= 0).any():
                raise IngestError(f"trace {vid} not strictly increasing in t")
            txy.flags.writeable = False
            self.traces[vid] = txy

    def __len__(self) -> int:
        return sum(len(v) for v in self.traces.values())

    def vehicles(self) -> list[str]:
        return sorted(self.traces)


@dataclass(frozen=True)
class TimeWindow:
    daily_start: int
    daily_end: int
    weekdays: frozenset[int] = frozenset(range(7))  # Monday=0 .. Sunday=6

    def __post_init__(self):
        if not (0 <= self.daily_start < self.daily_end <= 86400):
            raise IngestError("require 0 <= daily_start < daily_end <= 86400")


def _whole_seconds(seconds: float) -> int:
    """Truncate a time in [0, 2**53) to whole seconds; raise ValueError for
    any other value, so that no time in (-1, 0) truncates to 0."""
    if not 0 <= seconds < 2**53:
        raise ValueError(f"time {seconds} outside [0, 2**53)")
    return int(seconds)


def _parse_unix(tok: str) -> int:
    return _whole_seconds(float(tok))


def _parse_iso8601(tok: str) -> int:
    dt = datetime.fromisoformat(tok)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return _whole_seconds(dt.timestamp())


TIME_HOOKS: dict[str, Callable[[str], int]] = {
    "unix": _parse_unix,
    "iso8601": _parse_iso8601,
}


@dataclass(frozen=True)
class ColumnSchema:
    """Column mapping for delimiter-separated AVL text."""

    delimiter: str = ","
    vehicle_col: int = 0
    x_col: int = 1
    y_col: int = 2
    t_col: int = 3
    route_col: int | None = None
    route_value: str | None = None
    time_format: str = "unix"  # key into TIME_HOOKS, or register a custom hook

    def time_parser(self) -> Callable[[str], int]:
        try:
            return TIME_HOOKS[self.time_format]
        except KeyError:
            raise IngestError(f"unknown time format {self.time_format!r}") from None


@dataclass
class ParseReport:
    rows_read: int = 0
    rows_kept: int = 0
    rows_rejected: int = 0
    duplicates_dropped: int = 0
    rows_filtered_by_route: int = 0


def parse_records(stream: Iterable[str], schema: ColumnSchema | None = None) -> tuple[TraceSet, ParseReport]:
    """Parse rows into per-vehicle chronological traces.

    Malformed rows (missing fields, non-numeric coordinates or time, a time
    outside [0, 2**53)) are rejected and counted, never silently zeroed.
    For duplicate (vehicle, t) pairs the later row in the stream wins.
    The rows kept are held in typed arrays, not one tuple each: after a
    stable sort by (vehicle, t), the last row of each (vehicle, t) is the
    later one in the stream.  Vehicles keep the order of their first row.
    """
    # imported here, not with the module: loading it costs about 0.1 MB of
    # resident memory, and stages that import this module without parsing
    # (simulate, check) need none of it
    from array import array

    schema = schema or ColumnSchema()
    parse_time = schema.time_parser()
    needed = max(schema.vehicle_col, schema.x_col, schema.y_col, schema.t_col,
                 schema.route_col if schema.route_col is not None else 0)
    report = ParseReport()
    vehicles: dict[str, int] = {}  # id -> index, in order of first appearance
    vix, ts_col, xs, ys = array("q"), array("q"), array("d"), array("d")
    for line in stream:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        report.rows_read += 1
        parts = line.split(schema.delimiter)
        if len(parts) <= needed:
            report.rows_rejected += 1
            continue
        if schema.route_col is not None and schema.route_value is not None:
            if parts[schema.route_col].strip() != schema.route_value:
                report.rows_filtered_by_route += 1
                continue
        try:
            vid = parts[schema.vehicle_col].strip()
            x = float(parts[schema.x_col])
            y = float(parts[schema.y_col])
            t = parse_time(parts[schema.t_col].strip())
        except (ValueError, OverflowError):
            report.rows_rejected += 1
            continue
        if not vid or not math.isfinite(x) or not math.isfinite(y) or not 0 <= t < 2**53:
            report.rows_rejected += 1
            continue
        vix.append(vehicles.setdefault(vid, len(vehicles)))
        ts_col.append(t)
        xs.append(x)
        ys.append(y)
    v, t = np.frombuffer(vix, np.int64), np.frombuffer(ts_col, np.int64)
    order = np.argsort(t, kind="stable")
    order = order[np.argsort(v[order], kind="stable")]
    v, t = v[order], t[order]
    last = np.ones(len(v), dtype=bool)  # the last row of its (vehicle, t)
    last[:-1] = (v[1:] != v[:-1]) | (t[1:] != t[:-1])
    order = order[last]
    report.duplicates_dropped = len(last) - len(order)
    txy = np.column_stack((t[last].astype(np.float64),
                           np.frombuffer(xs, np.float64)[order], np.frombuffer(ys, np.float64)[order]))
    ends = np.cumsum(np.bincount(v[last], minlength=len(vehicles))).tolist()
    ts = TraceSet({vid: txy[a:b] for vid, a, b in zip(vehicles, [0, *ends], ends)})
    report.rows_kept = len(ts)
    return ts, report


def serialize(ts: TraceSet) -> str:
    """Inverse of parse_records with the default `ColumnSchema`.  A vehicle
    id that would not read back as written, because it contains a comma or
    starts with the comment mark '#', raises IngestError.  The lines are
    joined a vehicle at a time."""
    parts = []
    for vid in ts.vehicles():
        rows = ts.traces[vid].tolist()
        if rows and ("," in vid or vid.startswith("#")):
            raise IngestError(f"vehicle {vid!r} cannot be written: its id contains "
                              "the delimiter ',' or starts with '#'")
        parts.append("".join([f"{vid},{x!r},{y!r},{int(t)}\n" for t, x, y in rows]))
    return "".join(parts)


def filter_window(ts: TraceSet, window: TimeWindow, tz_offset: int = 0) -> TraceSet:
    """Keep records whose local second-of-day lies in [daily_start, daily_end)
    and whose local weekday is selected.  Per-vehicle order is preserved."""
    weekdays = sorted(window.weekdays)
    out = {}
    for vid, txy in ts.traces.items():
        local = txy[:, 0].astype(np.int64) + tz_offset
        sod = local % 86400
        weekday = (local // 86400 + 3) % 7  # epoch day 0 was a Thursday
        keep = (window.daily_start <= sod) & (sod < window.daily_end) & np.isin(weekday, weekdays)
        if keep.any():
            out[vid] = txy[keep]
    return TraceSet(out)

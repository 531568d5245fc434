import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headwaylab import ingest, synthetic
from headwaylab.ingest import ColumnSchema, IngestError, TimeWindow, TraceSet


def parse(lines, schema=None):
    ts, report = ingest.parse_records(lines, schema)
    return ts, report


def test_default_schema_row():
    ts, report = parse(["23,321456.7,673212.1,1390908674"])
    assert ts.traces["23"].tolist() == [[1390908674.0, 321456.7, 673212.1]]
    assert report.rows_kept == 1


def test_interleaved_vehicles_sorted_per_vehicle():
    rows = ["a,0,0,100", "b,0,0,50", "a,1,0,90", "b,1,0,150", "a,2,0,110"]
    ts, _ = parse(rows)
    for vid, txy in ts.traces.items():
        assert (np.diff(txy[:, 0]) > 0).all()
    assert ts.traces["a"][:, 0].tolist() == [90, 100, 110]
    assert ts.traces["a"][:, 1].tolist() == [1, 0, 2]


def test_duplicate_timestamp_keeps_later_row():
    ts, report = parse(["a,1,0,100", "a,2,0,100"])
    assert ts.traces["a"].tolist() == [[100.0, 2.0, 0.0]]
    assert report.duplicates_dropped == 1


def test_malformed_rows_rejected_not_zeroed():
    ts, report = parse(["a,xx,0,100", "a,1,0,abc", "a,1", "a,1,0,-5", "a,1,0,200"])
    assert report.rows_rejected == 4
    assert ts.traces["a"][:, 0].tolist() == [200]


def test_unknown_time_format_is_config_error():
    with pytest.raises(IngestError):
        ColumnSchema(time_format="nope").time_parser()


def test_iso8601_hook():
    ts, _ = parse(["a,0,0,1970-01-01T00:01:40+00:00"],
                  ColumnSchema(time_format="iso8601"))
    assert ts.traces["a"][0, 0] == 100


def test_route_filter():
    schema = ColumnSchema(route_col=4, route_value="R5")
    ts, report = parse(["a,0,0,10,R5", "b,0,0,10,R9"], schema)
    assert list(ts.traces) == ["a"]
    assert report.rows_filtered_by_route == 1


def test_window_half_open_boundaries():
    # local 09:59:59 excluded, 10:00:00 included
    w = TimeWindow(10 * 3600, 15 * 3600)
    base = 4 * 86400  # day 4 of the epoch is a Monday
    ts = TraceSet({"a": [(base + 10 * 3600 - 1, 0, 0), (base + 10 * 3600, 0, 0)]})
    out = ingest.filter_window(ts, w)
    assert out.traces["a"][:, 0].tolist() == [base + 10 * 3600]


def test_window_weekday_filter():
    w = TimeWindow(0, 86400, frozenset({0}))  # Mondays only
    monday = 4 * 86400 + 100
    sunday = 3 * 86400 + 100
    ts = TraceSet({"a": [(sunday, 0, 0), (monday, 0, 0)]})
    out = ingest.filter_window(ts, w)
    assert out.traces["a"][:, 0].tolist() == [monday]


def test_window_identity_and_idempotent():
    w = TimeWindow(0, 86400)
    ts = TraceSet({"a": [(t, 0.5 * t, -t) for t in (5, 50, 500)], "b": [(7, 1.0, 2.0)]})
    once = ingest.filter_window(ts, w)
    twice = ingest.filter_window(once, w)
    for out in (once, twice):
        assert list(out.traces) == list(ts.traces)
        for vid, txy in ts.traces.items():
            assert np.array_equal(out.traces[vid], txy)


def test_window_invariants():
    with pytest.raises(IngestError):
        TimeWindow(100, 100)


def test_serialize_roundtrip():
    ts = TraceSet({"a": [(10, 1.5, -2.25), (20, 3.125, 4.0)], "b": [(5, 0.1, 0.2)]})
    back, report = ingest.parse_records(ingest.serialize(ts).splitlines())
    assert back.traces.keys() == ts.traces.keys()
    for vid, txy in ts.traces.items():
        assert np.array_equal(back.traces[vid], txy)
    assert report.rows_rejected == 0


@pytest.mark.parametrize("vid", ["bus,7", "#7"])
def test_serialize_rejects_an_id_that_would_not_read_back(vid):
    ts = TraceSet({vid: [(100, 0.0, 0.0)]})
    with pytest.raises(IngestError, match=f"vehicle '{vid}'"):
        ingest.serialize(ts)


def test_filter_window_submultiset():
    ts = TraceSet({"a": [(t, 0, 0) for t in range(0, 86400, 3600)]})
    out = ingest.filter_window(ts, TimeWindow(3600, 7200))
    all_in = {(vid, tuple(row)) for vid, txy in ts.traces.items() for row in txy.tolist()}
    assert all((vid, tuple(row)) in all_in for vid, txy in out.traces.items() for row in txy.tolist())


def test_gap_bounds_for_scalars_and_arrays():
    dist = math.hypot(3000.0, 4000.0)
    assert dist == ingest.GAP_DISTANCE == 5000.0
    dts = [300.0, math.nextafter(300.0, math.inf), 0.0, 0.0]
    dists = [0.0, 0.0, dist, math.nextafter(dist, math.inf)]
    want = [False, True, False, True]
    assert [ingest.is_gap(dt, d) for dt, d in zip(dts, dists)] == want
    assert ingest.is_gap(300, 5000) is False
    got = ingest.is_gap(np.array(dts), np.array(dists))
    assert got.dtype == bool and got.tolist() == want
    assert ingest.distances(np.array([3000.0, -3.0]), np.array([-4000.0, 4.0])).tolist() == [5000.0, 5.0]


def test_columns_hold_t_x_y_per_record():
    ts = TraceSet({"a": [(10, 1.5, -2.0), (45, 3.0, 4.25)], "b": []})
    assert ts.traces["a"].tolist() == [[10.0, 1.5, -2.0], [45.0, 3.0, 4.25]]
    assert ts.traces["a"].dtype == np.float64 and ts.traces["b"].shape == (0, 3)
    assert len(ts) == 2 and ts.vehicles() == ["a", "b"]
    with pytest.raises(ValueError, match="read-only"):
        ts.traces["a"][0, 0] = 0.0


@pytest.mark.parametrize("ts", [[(10, 0, 0), (10, 1, 1)], [(10, 0, 0), (20, 0, 0), (15, 0, 0)]],
                         ids=["repeat", "backwards"])
def test_trace_whose_t_does_not_increase_is_rejected(ts):
    with pytest.raises(IngestError, match="trace a not strictly increasing"):
        TraceSet({"a": ts})


def test_time_beyond_exact_float_range_rejected():
    ts, report = parse([f"a,0,0,{2**53 - 1}", f"a,0,0,{2**53}", "a,0,0,1e300"])
    assert report.rows_rejected == 2
    assert ts.traces["a"][:, 0].tolist() == [2**53 - 1]
    assert ingest.serialize(ts) == f"a,0.0,0.0,{2**53 - 1}\n"


def test_time_between_minus_one_and_zero_rejected_not_truncated():
    # int() truncates toward zero, so these would read as t = 0 and as its duplicate
    ts, report = parse(["a,0,0,-0.5", "a,1,0,-0.9", "a,2,0,-0.0", "a,3,0,0.5", "a,4,0,nan"])
    assert report.rows_rejected == 3 and report.duplicates_dropped == 1
    assert ts.traces["a"].tolist() == [[0.0, 3.0, 0.0]]
    iso = ColumnSchema(time_format="iso8601")
    ts, report = parse(["a,0,0,1969-12-31T23:59:59.5+00:00", "a,1,0,1970-01-01T00:00:00.5+00:00"], iso)
    assert report.rows_rejected == 1 and ts.traces["a"].tolist() == [[0.0, 1.0, 0.0]]


def per_row_parse(lines) -> tuple[dict, dict]:
    """The per-row parse that parse_records' typed arrays replaced, as the
    oracle: {vehicle: [(t, x, y), ...]} in order of first appearance, a row
    kept per (vehicle, t), the later one, and the report's counts."""
    report = dict(rows_read=0, rows_kept=0, rows_rejected=0, duplicates_dropped=0,
                  rows_filtered_by_route=0)
    by_vehicle: dict[str, dict[int, tuple]] = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        report["rows_read"] += 1
        parts = line.split(",")
        try:
            vid, x, y, t = parts[0].strip(), float(parts[1]), float(parts[2]), float(parts[3])
        except (IndexError, ValueError):
            report["rows_rejected"] += 1
            continue
        if not vid or not math.isfinite(x) or not math.isfinite(y) or not 0 <= t < 2**53:
            report["rows_rejected"] += 1
            continue
        rows = by_vehicle.setdefault(vid, {})
        report["duplicates_dropped"] += int(t) in rows
        rows[int(t)] = (float(int(t)), x, y)
    traces = {vid: [rows[t] for t in sorted(rows)] for vid, rows in by_vehicle.items()}
    report["rows_kept"] = sum(map(len, traces.values()))
    return traces, report


TOKEN = st.sampled_from(["0", "1.5", "-2.25", "nan", "inf", "-0.0", "x", "", "1e300",
                         str(2**53 - 1), str(2**53), "-0.5", "7", "7.9"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["# note", "", "a,1"]) | st.builds(
    lambda v, x, y, t: f"{v},{x},{y},{t}", st.sampled_from(["a", "b", " c", "", "d "]),
    TOKEN, TOKEN, TOKEN | st.integers(0, 9).map(str)), max_size=40))
def test_parse_matches_the_per_row_loop(lines):
    # malformed, comment, blank and duplicate rows, among vehicles that
    # interleave
    ts, report = parse(lines)
    traces, counts = per_row_parse(lines)
    assert vars(report) == counts
    assert list(ts.traces) == list(traces)
    for vid, rows in traces.items():
        assert ts.traces[vid].tolist() == [list(r) for r in rows]


def per_record_window(ts: TraceSet, window: TimeWindow, tz_offset: int = 0) -> dict:
    """The per-record window loop filter_window replaced, as the oracle: each
    record is kept when its local second-of-day lies in [daily_start,
    daily_end) and its local weekday is selected."""
    out = {}
    for vid, txy in ts.traces.items():
        kept = []
        for t, x, y in txy.tolist():
            local = int(t) + tz_offset
            sod = local % 86400
            weekday = (local // 86400 + 3) % 7  # epoch day 0 was a Thursday
            if window.daily_start <= sod < window.daily_end and weekday in window.weekdays:
                kept.append((t, x, y))
        if kept:
            out[vid] = kept
    return out


@pytest.mark.parametrize("seed", range(6))
def test_filter_window_matches_per_record_loop(seed):
    rng = np.random.default_rng(seed)
    # timestamps over two weeks, half of them put on exact boundaries of the
    # windows drawn below
    start, end = sorted(rng.choice(np.arange(0, 86401, 900), 2, replace=False).tolist())
    tz_offset = int(rng.integers(-14, 15)) * 3600 + int(rng.choice([0, 1, -1]))
    days = rng.integers(1, 15, 400) * 86400
    edges = rng.choice([start, end, start - 1, end - 1, 0, 86399], 400) - tz_offset
    t = np.concatenate([days + edges, rng.integers(86400, 15 * 86400, 400)])
    traces = {}
    for k, vid in enumerate(["a", "b", "c"]):
        times = np.unique(t[k::3])
        traces[vid] = [(float(s), float(s) / 7.0, -float(s)) for s in times.tolist()]
    ts = TraceSet(traces)
    for weekdays in [range(7), [0], [5, 6], [1, 3], []]:
        w = TimeWindow(start, end, frozenset(weekdays))
        want = per_record_window(ts, w, tz_offset)
        got = ingest.filter_window(ts, w, tz_offset)
        if len(weekdays) == 7:
            assert 0 < len(got) < len(ts)
        assert list(got.traces) == list(want)
        for vid, rows in want.items():
            assert got.traces[vid].tolist() == [list(r) for r in rows]
            assert not got.traces[vid].flags.writeable


# the serialized mapgen fixture: 12 buses x 10 days at seed 5, 61,740 rows
FIXTURE_CSV_SHA256 = "1c7f92579efe2cebf957f8ffe5161d3c620fcb2b139623b99cba119d1ca4984f"


def test_fixture_csv_bytes_pinned():
    ts = synthetic.generate_traces(synthetic.default_eight_patch_model(), n_buses=12, days=10, seed=5)
    text = ingest.serialize(ts)
    assert len(ts) == text.count("\n") == 61_740
    assert hashlib.sha256(text.encode()).hexdigest() == FIXTURE_CSV_SHA256
    back, report = ingest.parse_records(text.splitlines())
    assert report.rows_kept == 61_740 and report.rows_rejected == report.duplicates_dropped == 0
    assert ingest.serialize(back) == text

import math

import numpy as np
import pytest

from headwaylab import ingest
from headwaylab.ingest import AvlRecord, ColumnSchema, IngestError, TimeWindow, TraceSet


def parse(lines, schema=None):
    ts, report = ingest.parse_records(lines, schema)
    return ts, report


def test_default_schema_row():
    ts, report = parse(["23,321456.7,673212.1,1390908674"])
    rec = ts.traces["23"][0]
    assert rec == AvlRecord("23", 321456.7, 673212.1, 1390908674)
    assert report.rows_kept == 1


def test_interleaved_vehicles_sorted_per_vehicle():
    rows = ["a,0,0,100", "b,0,0,50", "a,1,0,90", "b,1,0,150", "a,2,0,110"]
    ts, _ = parse(rows)
    for vid, recs in ts.traces.items():
        assert all(b.t > a.t for a, b in zip(recs, recs[1:]))
    assert [r.t for r in ts.traces["a"]] == [90, 100, 110]


def test_duplicate_timestamp_keeps_later_row():
    ts, report = parse(["a,1,0,100", "a,2,0,100"])
    assert len(ts.traces["a"]) == 1
    assert ts.traces["a"][0].x == 2.0
    assert report.duplicates_dropped == 1


def test_malformed_rows_rejected_not_zeroed():
    ts, report = parse(["a,xx,0,100", "a,1,0,abc", "a,1", "a,1,0,-5", "a,1,0,200"])
    assert report.rows_rejected == 4
    assert [r.t for r in ts.traces["a"]] == [200]


def test_unknown_time_format_is_config_error():
    with pytest.raises(IngestError):
        ColumnSchema(time_format="nope").time_parser()


def test_iso8601_hook():
    ts, _ = parse(["a,0,0,1970-01-01T00:01:40+00:00"],
                  ColumnSchema(time_format="iso8601"))
    assert ts.traces["a"][0].t == 100


def test_route_filter():
    schema = ColumnSchema(route_col=4, route_value="R5")
    ts, report = parse(["a,0,0,10,R5", "b,0,0,10,R9"], schema)
    assert list(ts.traces) == ["a"]
    assert report.rows_filtered_by_route == 1


def test_window_half_open_boundaries():
    # local 09:59:59 excluded, 10:00:00 included
    w = TimeWindow(10 * 3600, 15 * 3600)
    base = 4 * 86400  # day 4 of the epoch is a Monday
    ts = TraceSet({"a": [AvlRecord("a", 0, 0, base + 10 * 3600 - 1),
                         AvlRecord("a", 0, 0, base + 10 * 3600)]})
    out = ingest.filter_window(ts, w)
    assert [r.t for r in out.traces["a"]] == [base + 10 * 3600]


def test_window_weekday_filter():
    w = TimeWindow(0, 86400, frozenset({0}))  # Mondays only
    monday = 4 * 86400 + 100
    sunday = 3 * 86400 + 100
    ts = TraceSet({"a": [AvlRecord("a", 0, 0, sunday), AvlRecord("a", 0, 0, monday)]})
    out = ingest.filter_window(ts, w)
    assert [r.t for r in out.traces["a"]] == [monday]


def test_window_identity_and_idempotent():
    w = TimeWindow(0, 86400)
    ts = TraceSet({"a": [AvlRecord("a", 0, 0, t) for t in (5, 50, 500)]})
    once = ingest.filter_window(ts, w)
    twice = ingest.filter_window(once, w)
    assert once.traces == ts.traces == twice.traces


def test_window_invariants():
    with pytest.raises(IngestError):
        TimeWindow(100, 100)


def test_serialize_roundtrip():
    ts = TraceSet({"a": [AvlRecord("a", 1.5, -2.25, 10), AvlRecord("a", 3.125, 4.0, 20)],
                   "b": [AvlRecord("b", 0.1, 0.2, 5)]})
    back, report = ingest.parse_records(ingest.serialize(ts).splitlines())
    assert back.traces == ts.traces
    assert report.rows_rejected == 0


@pytest.mark.parametrize("vid", ["bus,7", "#7"])
def test_serialize_rejects_an_id_that_would_not_read_back(vid):
    ts = TraceSet({vid: [AvlRecord(vid, 0.0, 0.0, 100)]})
    with pytest.raises(IngestError, match=f"vehicle '{vid}'"):
        ingest.serialize(ts)


def test_filter_window_submultiset():
    ts = TraceSet({"a": [AvlRecord("a", 0, 0, t) for t in range(0, 86400, 3600)]})
    out = ingest.filter_window(ts, TimeWindow(3600, 7200))
    all_in = set((r.vehicle_id, r.t) for r in ts.all_records())
    assert all((r.vehicle_id, r.t) in all_in for r in out.all_records())


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
    ts = TraceSet({"a": [AvlRecord("a", 1.5, -2.0, 10), AvlRecord("a", 3.0, 4.25, 45)], "b": []})
    assert ts.columns("a").tolist() == [[10.0, 1.5, -2.0], [45.0, 3.0, 4.25]]
    assert ts.columns("a").dtype == np.float64 and ts.columns("b").shape == (0, 3)

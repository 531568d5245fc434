"""Tests of the benchmark itself: span arithmetic, failure accounting, the
determinism guard, the declared metric set, and every workload at a tiny
size.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from layers import counter_sanity  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return done, done.stdout.strip().splitlines()


def test_self_time_is_duration_minus_child_coverage():
    spans = [Span(0, None, "outer", 0.0, 10.0),
             Span(1, 0, "a", 1.0, 3.0),
             Span(2, 0, "b", 2.0, 5.0),  # overlaps a: the union [1, 5] counts once
             Span(3, 0, "c", 9.0, 12.0),  # clipped to the parent's end
             Span(4, 2, "d", 2.5, 4.5)]  # grandchild: covered by b, not by outer directly
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 2.0)
    assert own[4] == pytest.approx(2.0)


def test_tracer_nests_spans_and_restores_patches():
    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    tr = Tracer()
    tr.wrap_span(Owner, "work", "owner.work", on_result=lambda r: tr.count("results", r))
    with tr.span("outer"):
        assert Owner.work(1) == 2
    tr.restore()
    assert Owner.work(1) == 2 and tr.calls("owner.work") == 1
    outer, inner = tr.spans
    assert inner.parent == outer.id and outer.parent is None
    assert tr.counters["results"] == 2
    assert tr.total("outer") >= tr.total("owner.work") > 0


def test_raised_and_truncated_assertions_count_as_failed(monkeypatch):
    wl = workloads.WORKLOADS["check-airlink"]
    program = wl.program(5, "tiny")
    real = workloads.properties.check_assertions
    calls = []

    def flaky(model, prop, cfg, seed=None):
        calls.append(prop)
        if len(calls) == 2:
            raise IndexError("reduceat start out of range")
        res = real(model, prop, cfg, seed=seed)
        if len(calls) == 3:
            res[0].truncated = True
        return res

    monkeypatch.setattr(workloads.properties, "check_assertions", flaky)
    out = wl.run(program, "tiny")
    assert len(calls) == out.attempted == 6  # the run went on past the failures
    assert out.failed == 2
    assert any("IndexError" in e for e in out.errors)
    assert any("truncated" in e for e in out.errors)


def test_failed_stage_fails_the_rest_of_the_chain(monkeypatch):
    wl = workloads.WORKLOADS["mapgen"]
    ts = wl.program(wl.make_inputs(5, "tiny"), "tiny")

    def broken(*args, **kwargs):
        raise ValueError("no terminus")

    monkeypatch.setattr(workloads.route, "derive_route_model", broken)
    out = wl.run(ts, "tiny")
    assert out.attempted == 9 + workloads.N_PATCHES
    assert out.failed == out.attempted - 4  # heatmap, blur, skeleton and graph succeeded
    assert out.errors == ["broken: ValueError: no terminus"] and not out.fingerprint


def test_same_seed_different_outputs_is_incorrect(monkeypatch, capsys):
    outcomes = [workloads.Outcome(attempted=1, fingerprint=[k]) for k in (1, 2)]
    monkeypatch.setattr(run, "measure_setup", lambda *a: 1.0)
    monkeypatch.setattr(run, "run_untraced", lambda *a: (outcomes, [1.0, 1.0]))
    wl = SimpleNamespace(name="unsteady", make_inputs=lambda seed, size: seed,
                         program=lambda inputs, size: inputs)
    args = run.parse_args(["--workload", "unsteady", "--seed", "1", "--seconds", "1"])
    result = run.run_workload(wl, args, {m["name"]: m for m in SPEC["end_to_end"]})
    assert not result["correct"]
    assert "same seed, different outputs" in capsys.readouterr().out


def test_benchmark_json_matches_the_workloads():
    assert set(workloads.WORKLOADS) - set(NAMES) == {"mapgen-hyper"}  # runnable, not gated
    assert {m["name"] for m in SPEC["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb", "ok_frac"}


@pytest.mark.parametrize("name, trace", [(n, "0") for n in workloads.WORKLOADS] + [(n, "1") for n in NAMES])
def test_every_workload_runs_tiny_and_prints_declared_metrics(name, trace):
    done, lines = _bench("--workload", name, "--seed", "5", "--seconds", "0", "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    table = [ln.split()[0] for ln in lines if ln.startswith("  ")]
    assert table == list(declared)
    if trace == "1":
        sanity = [ln for ln in lines if ln.startswith("counter sanity")]
        assert all(ln.endswith("as expected") for ln in sanity), sanity


def test_counter_sanity_flags_a_moved_counter():
    m = {"route.snap_calls_per_record": 1.0, "patches.fractions_calls": 1}
    assert [ok for _, ok in counter_sanity("mapgen", m)] == [False, False]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done, lines = _bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(ln.startswith("{") for ln in lines)

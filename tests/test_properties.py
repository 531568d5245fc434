import math

import numpy as np
import pytest
from scipy import stats

from conftest import airlink_model
from headwaylab import properties
from headwaylab.fitting import ErlangParams, PatchModel
from headwaylab.properties import (Binary, Call, EstimatorConfig, EvalError, IfThenElse,
                                   Num, ParseError, PropertyError, Rval, SteadyStateQuery,
                                   Unary, UndefinedSample, _Accumulator, _verdict, bph_query,
                                   check_assertions, compile_expr, estimate_steady_state,
                                   evaluate_expr, evwt_query, ewt_query, expand_per_patch,
                                   headway_query, parse_quatex, write_results_tsv)
from headwaylab.simulate import HOUR, SimConfig, SimError, Simulator, build_model

EWT_TEXT = ('ewt() = 0.5 * (s.rval("y_6") - mu_tot) * (s.rval("y_6") - mu_tot) / mu_tot;\n'
            'S [ ewt(), "c_6" ] < 75;\n')


def test_parse_published_ewt_property():
    prop = parse_quatex(EWT_TEXT)
    assert set(prop.functions) == {"ewt"}
    q = prop.assertions[0]
    assert (q.function, q.clock, q.threshold) == ("ewt", "c_6", 75.0)


def test_parse_if_then_else_example():
    prop = parse_quatex('f() = if {s.rval("Y") > 5} then 1 else 0 fi;')
    assert evaluate_expr(prop.functions["f"], lambda n: 6.0) == 1.0
    assert evaluate_expr(prop.functions["f"], lambda n: 5.0) == 0.0  # strict >


def test_parse_missing_fi_reports_position():
    with pytest.raises(ParseError) as err:
        parse_quatex('f() = if {s.rval("Y") > 5} then 1 else 0;')
    assert "fi" in str(err.value)
    assert "line 1" in str(err.value)


def test_parse_undefined_function():
    with pytest.raises(PropertyError):
        parse_quatex('S [ ghost(), "time" ] < 1;')


def test_parse_recursion_rejected():
    with pytest.raises(PropertyError):
        parse_quatex('f() = g() + 1;\ng() = f();\nS [ f(), "time" ] < 1;')


def test_eval_constants_arithmetic():
    prop = parse_quatex("f() = 2*3+1;")
    assert evaluate_expr(prop.functions["f"], lambda n: 0.0) == 7.0


def test_eval_precedence_and_unary():
    prop = parse_quatex("f() = -2 + 3 * 4 - 6 / 2;")
    assert evaluate_expr(prop.functions["f"], lambda n: 0.0) == 7.0


def test_eval_unknown_rval_names_identifier():
    prop = parse_quatex('f() = s.rval("Q");')

    def rv(name):
        raise EvalError(f"unknown state quantity {name!r}")

    with pytest.raises(EvalError) as err:
        evaluate_expr(prop.functions["f"], rv)
    assert "Q" in str(err.value)


def test_eval_division_by_zero():
    prop = parse_quatex("f() = 1 / (2 - 2);")
    with pytest.raises(EvalError):
        evaluate_expr(prop.functions["f"], lambda n: 0.0)


def test_eval_undefined_sentinel_skips():
    prop = parse_quatex('f() = s.rval("y_1");')
    with pytest.raises(UndefinedSample):
        evaluate_expr(prop.functions["f"], lambda n: math.inf)


def tree_eval(expr, rval, constants=None, functions=None) -> float:
    """Reference evaluator: walks the AST on every call, reading state names
    through rval(name)."""
    constants = constants or {}
    functions = functions or {}

    def ev(e) -> float:
        if isinstance(e, Num):
            return e.value
        if isinstance(e, Rval):
            if e.name in constants:
                return constants[e.name]
            v = rval(e.name)
            if math.isinf(v):
                raise UndefinedSample(e.name)
            return v
        if isinstance(e, Call):
            return ev(functions[e.name])
        if isinstance(e, Unary):
            return -ev(e.operand)
        if isinstance(e, Binary):
            a = ev(e.left)
            b = ev(e.right)
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if e.op == "/":
                if b == 0:
                    raise EvalError("division by zero")
                return a / b
            if e.op == "<":
                return 1.0 if a < b else 0.0
            if e.op == ">":
                return 1.0 if a > b else 0.0
            if e.op == "<=":
                return 1.0 if a <= b else 0.0
            if e.op == ">=":
                return 1.0 if a >= b else 0.0
            if e.op == "==":
                return 1.0 if a == b else 0.0
        if isinstance(e, IfThenElse):
            return ev(e.then) if ev(e.cond) != 0.0 else ev(e.other)
        raise EvalError(f"cannot evaluate node {e!r}")

    return ev(expr)


def snapshot_rval(state, name: str) -> float:
    """Reference state reader over a recorded simulator state: parses the
    name on every read."""
    t, last_dep, last_dep_bus, dep_count = state
    if name == "time":
        return t
    if name.startswith("y_"):
        base = last_dep[int(name[2:])]
        return math.inf if base is None else t - base
    if name.startswith("z_"):
        si, sj = name[2:].split("_")
        base = last_dep_bus[int(sj)][int(si) - 1]
        return math.inf if base is None else t - base
    if name.startswith("H_"):
        return float(sum(1 for b in last_dep_bus[int(name[2:])]
                         if b is not None and t < b + HOUR))
    if name.startswith("c_"):
        return float(dep_count[int(name[2:])])
    raise KeyError(name)


ORACLE_TEXT = (
    ewt_query(1) + evwt_query(5) + bph_query(7) + headway_query(10)
    + 'gap() = s.rval("z_3_2") - s.rval("z_11_2");\n'
    + 'share() = s.rval("c_5") / (s.rval("c_1") + 1);\n'
    + 'hours() = s.rval("time") / 3600 - mu_tot;\n'
    + 'tot() = mu_tot;\n'
    + 'untaken() = if {s.rval("c_9") == 0} then 5 else s.rval("z_2_9") fi;\n'
    + 'zero() = 1 / (s.rval("c_2") - s.rval("c_2"));\n'
    + 'order() = s.rval("y_3") + zero();\n'
    + 'mix() = -share() * (s.rval("H_2") <= 3) + (s.rval("y_5") >= 60) - (gap() < 0);\n')


def outcome(fn):
    try:
        return fn()
    except (UndefinedSample, EvalError) as err:
        return type(err).__name__


def test_compiled_functions_match_tree_walk_on_recorded_airlink_states():
    # timetabled Airlink with hour ticks: departures and expiries, evaluated
    # on the state before each event at the event time and at the previous one
    prop = parse_quatex(ORACLE_TEXT)
    model = airlink_model()
    constants = {"mu_tot": model.mu_tot}
    sim = Simulator(model, seed=41, hour_ticks=True)
    compiled = {name: compile_expr(expr, sim.reader, constants, prop.functions)
                for name, expr in prop.functions.items()}
    states, got = [], []

    def observer(t_prev, ev, s):
        for t in (t_prev, ev.t):
            states.append((t, list(s.last_dep), [list(row) for row in s.last_dep_bus],
                           list(s.dep_count)))
            got.append({name: outcome(lambda: f(t)) for name, f in compiled.items()})

    sim.run(observer, until_time=48_000.0)
    assert sim.events_processed > 1500
    for state, row in zip(states, got):
        want = {name: outcome(lambda: tree_eval(expr, lambda nm: snapshot_rval(state, nm),
                                                constants, prop.functions))
                for name, expr in prop.functions.items()}
        assert row == want, state[0]
    seen = {name: {v if isinstance(v, str) else "value" for v in (r[name] for r in got)}
            for name in prop.functions}
    for name in ("ewt", "evwt", "headway", "gap", "untaken", "mix"):
        assert seen[name] == {"value", "UndefinedSample"}, name
    assert seen["zero"] == {"EvalError"}
    assert seen["order"] == {"UndefinedSample", "EvalError"}  # left operand first
    assert seen["tot"] == {"value"} and seen["bph"] == {"value"}
    assert {r["evwt"] for r in got} >= {0.0, 1.0}
    assert {r["bph"] for r in got} == {0.0, 1.0}
    # the infinite read in the untaken else-branch never raised
    assert any(r["untaken"] == 5.0 and math.isinf(snapshot_rval(s, "z_2_9"))
               for r, s in zip(got, states))


def test_compile_resolves_each_name_once_branches_included():
    expr = parse_quatex('f() = if {s.rval("A") > 0} then s.rval("B") else -s.rval("C") fi;'
                        ).functions["f"]
    reads = []

    def read(name):
        reads.append(name)
        return lambda t: t

    f = compile_expr(expr, read)
    assert sorted(reads) == ["A", "B", "C"]
    assert (f(2.0), f(-3.0)) == (2.0, 3.0)
    assert len(reads) == 3


def test_compiled_if_skips_infinite_read_in_untaken_branch():
    expr = parse_quatex('f() = if {s.rval("K") > 0} then 2 else s.rval("Y") fi;').functions["f"]
    f = compile_expr(expr, lambda name: (lambda t: t) if name == "K" else (lambda t: math.inf))
    assert f(1.0) == 2.0
    with pytest.raises(UndefinedSample):
        f(-1.0)


@pytest.mark.parametrize("name", ["Q", "y_99", "z_1"])
def test_unknown_state_name_fails_before_any_event(name, monkeypatch):
    # the name sits in an untaken branch, so evaluating would never read it
    prop = parse_quatex(f'f() = if {{1 > 0}} then 1 else s.rval("{name}") fi;\n'
                        'S [ f(), "time" ] < 2;')
    runs = []
    monkeypatch.setattr(Simulator, "run", lambda self, *args, **kwargs: runs.append(1))
    with pytest.raises(SimError, match=name):
        estimate_steady_state(two_patch_model(), prop.assertions[0], prop.functions,
                              EstimatorConfig(wall_budget=1.0), seed=1)
    assert runs == []


def test_expand_per_patch():
    out = expand_per_patch('e() = s.rval("y_j") + 0;\nS [ e(), "c_j" ] < 5;', [2, 7])
    assert 'y_2' in out[2] and 'c_2' in out[2]
    assert 'y_7' in out[7]


def two_patch_model(mu1=120.0, mu2=360.0, seed=5):
    pm = PatchModel([ErlangParams(1, 1 / mu1), ErlangParams(1, 1 / mu2)])
    return build_model(pm, SimConfig(n_buses=1, timetable=False, seed=seed))


def in_patch1_text():
    # single bus: in patch 1 iff it departed patch 2 more recently than patch 1
    return ('inp1() = if {s.rval("z_1_2") < s.rval("z_1_1")} then 1 else 0 fi;\n'
            'S [ inp1(), "time" ] < 0.5;\n')


def test_constant_function_estimates_exactly():
    prop = parse_quatex('k() = 3.25;\nS [ k(), "time" ] < 4;')
    model = two_patch_model()
    res = estimate_steady_state(model, prop.assertions[0], prop.functions,
                                EstimatorConfig(warmup_time=100.0, wall_budget=20.0,
                                                max_sim_time=200_000.0), seed=1)
    assert res.estimate == pytest.approx(3.25, abs=1e-12)
    assert res.halfwidth == 0.0
    assert res.verdict == "satisfied"


def test_constant_non_dyadic_halfwidth_zero():
    # 20 batches: the mean of 20 copies of 0.1 is not 0.1 in floating point
    prop = parse_quatex('k() = 0.1;\nS [ k(), "time" ] < 4;')
    res = estimate_steady_state(two_patch_model(), prop.assertions[0], prop.functions,
                                EstimatorConfig(warmup_time=100.0, wall_budget=20.0,
                                                max_sim_time=200_000.0, batches=20), seed=1)
    assert res.estimate == 0.1
    assert res.halfwidth == 0.0


def test_constant_one_under_counter_clock():
    prop = parse_quatex('one() = 1;\nS [ one(), "c_1" ] < 2;')
    model = two_patch_model()
    res = estimate_steady_state(model, prop.assertions[0], prop.functions,
                                EstimatorConfig(warmup_time=100.0, wall_budget=20.0,
                                                max_sim_time=300_000.0), seed=1)
    assert res.estimate == pytest.approx(1.0, abs=1e-12)
    assert res.halfwidth == 0.0


@pytest.mark.parametrize("clock", ["time", "c_1"])
def test_max_sim_time_caps_the_simulated_time(clock):
    # chunks end at absolute multiples of chunk_time, the last one at the cap
    prop = parse_quatex(f'y() = s.rval("y_1");\nS [ y(), "{clock}" ] < 1000;')
    cfg = EstimatorConfig(warmup_time=500.0, wall_budget=30.0, chunk_time=10_000.0,
                          max_sim_time=35_000.0, rel_halfwidth_target=0.0)
    res = estimate_steady_state(two_patch_model(), prop.assertions[0], prop.functions, cfg,
                                seed=4)
    assert 30_000.0 < res.sim_time <= cfg.max_sim_time
    assert not res.truncated


def test_estimator_linearity_same_trajectory():
    model = two_patch_model()
    cfg = EstimatorConfig(warmup_time=500.0, wall_budget=30.0, max_sim_time=400_000.0,
                          rel_halfwidth_target=0.0)  # run to the time budget
    base = parse_quatex(in_patch1_text())
    scaled = parse_quatex(
        'inp1() = if {s.rval("z_1_2") < s.rval("z_1_1")} then 1 else 0 fi;\n'
        'g() = 3 * inp1() + 2;\nS [ g(), "time" ] < 99;')
    r1 = estimate_steady_state(model, base.assertions[0], base.functions, cfg,
                               seed=77, replication=0)
    r2 = estimate_steady_state(model, scaled.assertions[0], scaled.functions, cfg,
                               seed=77, replication=0)
    assert r2.estimate == pytest.approx(3 * r1.estimate + 2, abs=1e-9)
    assert r2.halfwidth == pytest.approx(3 * r1.halfwidth, abs=1e-9)


def test_alternating_renewal_estimate():
    mu1, mu2 = 120.0, 360.0
    model = two_patch_model(mu1, mu2)
    prop = parse_quatex(in_patch1_text())
    res = estimate_steady_state(model, prop.assertions[0], prop.functions,
                                EstimatorConfig(warmup_time=5000.0, wall_budget=30.0,
                                                rel_halfwidth_target=0.05), seed=3)
    expect = mu1 / (mu1 + mu2)
    assert abs(res.estimate - expect) <= max(2.5 * res.halfwidth, 0.02)


def test_batch_means_match_direct_t_interval():
    rng = np.random.default_rng(42)
    xs = rng.normal(5.0, 2.0, size=32)
    acc = _Accumulator()
    for x in xs:
        acc.add(1.0, float(x))
    means, total = acc.batch_means(32)
    assert total == 32.0
    assert np.allclose(np.sort(means), np.sort(xs))
    est = means.mean()
    hw = stats.t.ppf(0.975, 31) * means.std(ddof=1) / math.sqrt(32)
    direct = stats.t.interval(0.95, 31, loc=xs.mean(), scale=stats.sem(xs))
    assert abs((est - hw) - direct[0]) < 1e-9
    assert abs((est + hw) - direct[1]) < 1e-9


def test_accumulator_consolidation_preserves_totals():
    acc = _Accumulator(limit=64)
    rng = np.random.default_rng(0)
    ws = rng.uniform(0.5, 2.0, size=1000)
    fs = rng.normal(3.0, 1.0, size=1000)
    for w, f in zip(ws, fs):
        acc.add(float(w), float(f))
    means, total = acc.batch_means(8)
    assert total == pytest.approx(ws.sum())
    assert means.mean() == pytest.approx((ws * fs).sum() / ws.sum(), rel=1e-6)
    # no batch is dominated by one heavy merged entry: the spread of the
    # batch means matches that of an accumulator that never consolidates
    plain = _Accumulator()
    for w, f in zip(ws, fs):
        plain.add(float(w), float(f))
    plain_sd = plain.batch_means(8)[0].std(ddof=1)
    assert means.std(ddof=1) == pytest.approx(plain_sd, rel=0.25)


def test_accumulator_counts_samples_not_units():
    acc = _Accumulator(limit=16)
    for _ in range(1000):
        acc.add(1.0, 2.0)
    assert acc.n == 1000
    assert len(acc.w) <= 16
    assert acc.batch_means(8) is not None
    short = _Accumulator()
    for _ in range(7):
        short.add(1.0, 2.0)
    assert short.batch_means(8) is None


def test_accumulator_heavy_sample_spans_batch_edges():
    acc = _Accumulator()
    ws = [1.0] * 48 + [500.0]
    fs = [float(i % 3) for i in range(48)] + [7.0]
    for w, f in zip(ws, fs):
        acc.add(w, f)
    means, total = acc.batch_means(32)
    assert len(means) == 32
    assert total == pytest.approx(548.0)
    assert means.mean() == pytest.approx(np.dot(ws, fs) / total, rel=1e-9)
    # batches lying wholly inside the heavy sample see its value only
    assert means[-20:] == pytest.approx(7.0, abs=1e-12)


def test_accumulator_constant_exact_after_doubling():
    acc = _Accumulator(limit=64)
    rng = np.random.default_rng(3)
    for w in rng.uniform(0.1, 30.0, size=2000):
        acc.add(float(w), 0.1)
    means, _ = acc.batch_means(32)
    assert np.all(means == 0.1)


def test_verdict_rules_and_monotonicity():
    assert _verdict(1.0, 0.1, 2.0, True) == "satisfied"
    assert _verdict(3.0, 0.5, 2.0, True) == "violated"
    assert _verdict(2.0, 0.5, 2.0, True) == "undecided"
    assert _verdict(1.0, 0.1, 2.0, False) == "undecided"
    # raising the threshold never turns satisfied into violated
    order = {"violated": 0, "undecided": 1, "satisfied": 2}
    for thr in np.linspace(0.5, 4.0, 30):
        prev = None
        for thr2 in np.linspace(thr, 5.0, 10):
            v = _verdict(1.7, 0.3, thr2, True)
            if prev is not None:
                assert order[v] >= order[prev]
            prev = v


def test_unobserved_event_reports_blank(tmp_path):
    # threshold event that never happens: y_1 > 1e9
    model = two_patch_model()
    prop = parse_quatex('rare() = if {s.rval("y_1") > 1000000000} then 1 else 0 fi;\n'
                        'S [ rare(), "c_1" ] < 0.05;')
    res = estimate_steady_state(model, prop.assertions[0], prop.functions,
                                EstimatorConfig(warmup_time=100.0, wall_budget=5.0,
                                                max_sim_time=100_000.0), seed=2)
    assert not res.event_observed
    assert res.verdict == "undecided"
    path = tmp_path / "results.tsv"
    write_results_tsv([res], str(path), ["rare"])
    line = path.read_text().splitlines()[1]
    assert "\t-\t-\t-\t" in line


def test_check_assertions_runs_each_query():
    model = two_patch_model()
    prop = parse_quatex(in_patch1_text() + '\none() = 1;\nS [ one(), "time" ] < 2;')
    cfg = EstimatorConfig(warmup_time=200.0, wall_budget=10.0, max_sim_time=150_000.0)
    results = check_assertions(model, prop, cfg, seed=6)
    assert len(results) == 2
    assert results[1].estimate == pytest.approx(1.0)


def test_bad_clock_rejected():
    model = two_patch_model()
    prop = parse_quatex('one() = 1;\nS [ one(), "y_1" ] < 2;')
    with pytest.raises(PropertyError):
        estimate_steady_state(model, prop.assertions[0], prop.functions,
                              EstimatorConfig(wall_budget=1.0), seed=1)


def test_counter_clock_counts_departures_not_expiries():
    # H_1 turns hour ticks on, so expiry events of patch 1 reach the observer
    prop = parse_quatex('h() = s.rval("H_1");\nS [ h(), "c_1" ] < 99;')
    model = airlink_model()
    warmup = 20_000.0
    res = estimate_steady_state(model, prop.assertions[0], prop.functions,
                                EstimatorConfig(warmup_time=warmup, wall_budget=30.0,
                                                max_sim_time=300_000.0,
                                                rel_halfwidth_target=0.0), seed=8)
    sim = Simulator(model, seed=8)
    deps = 0
    while sim.t < res.sim_time:
        ev = sim.advance()
        deps += ev.patch == 1 and warmup < ev.t <= res.sim_time
    assert res.total_clock == deps > 0


@pytest.mark.parametrize("clock", ["c_0", "c_3"])
def test_out_of_range_clock_rejected_before_simulating(clock, monkeypatch):
    def no_simulator(*args, **kwargs):
        raise AssertionError("simulated before checking the clock")

    monkeypatch.setattr(properties, "Simulator", no_simulator)
    prop = parse_quatex(f'one() = 1;\nS [ one(), "{clock}" ] < 2;')
    with pytest.raises(PropertyError, match=clock):
        estimate_steady_state(two_patch_model(), prop.assertions[0], prop.functions,
                              EstimatorConfig(wall_budget=1.0), seed=1)


def test_query_template_helpers_parse():
    for text in (ewt_query(3), evwt_query(3), bph_query(3), headway_query(3)):
        prop = parse_quatex(text)
        assert len(prop.assertions) == 1

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from headwaylab import properties
from headwaylab.fitting import ErlangParams, PatchModel
from headwaylab.properties import (HOUR, Binary, Call, EstimatorConfig, EvalError, IfThenElse,
                                   Num, ParseError, PropertyError, Rval, Unary, UndefinedSample,
                                   _Accumulator, _History, _state_names, _t975, _verdict,
                                   bph_query, check_assertions, compile_expr,
                                   estimate_steady_state, evaluate_expr, evwt_query, ewt_query,
                                   expand_per_patch, headway_query, parse_quatex,
                                   write_results_tsv)
from headwaylab.simulate import Departures, SimConfig, Simulator, build_model
from headwaylab.synthetic import airlink_model
from full_recompute import AllSamples, SortedHistory
from per_event import EventReplay, PerSampleAccumulator, estimate_per_event

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


def test_parse_function_defined_twice_names_both_lines():
    # were the last ewt kept, the assertion on c_1 would read y_2
    with pytest.raises(ParseError, match="'ewt' defined twice, first at line 1") as err:
        parse_quatex(ewt_query(1) + ewt_query(2))
    assert (err.value.line, err.value.col) == (3, 1)


def test_parse_undefined_function():
    with pytest.raises(PropertyError):
        parse_quatex('S [ ghost(), "time" ] < 1;')


def test_parse_recursion_rejected():
    with pytest.raises(PropertyError):
        parse_quatex('f() = g() + 1;\ng() = f();\nS [ f(), "time" ] < 1;')


def test_call_check_errors_name_the_function():
    with pytest.raises(PropertyError, match="call to undefined function 'ghost'"):
        parse_quatex('f() = if {1 < 2} then -(3 * ghost()) else 0 fi;\nS [ f(), "time" ] < 1;')
    with pytest.raises(PropertyError, match="recursive definition of 'f'"):
        parse_quatex('f() = 1 + (if {1 < 2} then g() else 0 fi);\ng() = -f();\nS [ f(), "time" ] < 1;')


H2_BODY = '1 + (if {1 < 2} then 0 else -s.rval("H_2") fi)'


@pytest.mark.parametrize("body, patch, ticks", [
    pytest.param('s.rval("y_1")', 1, False, id='s.rval("y_1")-False'),
    pytest.param(H2_BODY, 2, True, id=f"{H2_BODY}-True"),
    # g reads H_1 in the branch of an if
    pytest.param('2 * g()', 1, True, id="2 * g()-True"),
    pytest.param('2 * h()', 1, False, id="2 * h()-False"),
    # the expiry of a departure from a patch the query does not read
    pytest.param(H2_BODY, 1, False, id=f"{H2_BODY}-False-at-patch-1"),
])
def test_hour_ticks_when_a_term_or_a_callee_reads_h(body, patch, ticks):
    # the run ends on the expiry of the first departure from `patch`: it is
    # the last boundary processed only when the query reads H_patch, whose
    # departures' hour expiries are then boundaries
    prop = parse_quatex('g() = if {s.rval("c_1") > 0} then s.rval("H_1") else 0 fi;\n'
                        f'h() = s.rval("z_1_1");\nf() = {body};\nS [ f(), "time" ] < 1;')
    model = two_patch_model()
    first = Simulator(model, seed=1).run(until_time=HOUR)
    end = first.t[first.patch == patch][0] + HOUR
    res = estimate_steady_state(model, prop.assertions[0], prop.functions,
                                EstimatorConfig(warmup_time=0.0, max_sim_time=end), seed=1)
    last_departure = Simulator(model, seed=1).run(until_time=end).t[-1]
    assert last_departure < end
    assert res.sim_time == (end if ticks else last_departure)


def test_eval_constants_arithmetic():
    prop = parse_quatex("f() = 2*3+1;")
    assert evaluate_expr(prop.functions["f"], lambda n: 0.0) == 7.0


def test_eval_precedence_and_unary():
    prop = parse_quatex("f() = -2 + 3 * 4 - 6 / 2;")
    assert evaluate_expr(prop.functions["f"], lambda n: 0.0) == 7.0


def test_parse_minus_and_divide_group_left_under_a_comparison():
    expr = parse_quatex("f() = 10 - 4 - 3 < 8 / 4 / 2;").functions["f"]
    assert expr == Binary("<", Binary("-", Binary("-", Num(10.0), Num(4.0)), Num(3.0)),
                          Binary("/", Binary("/", Num(8.0), Num(4.0)), Num(2.0)))
    assert evaluate_expr(expr, lambda n: 0.0) == 0.0  # 3 < 1


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


ORACLE_TEXT = (
    ewt_query(1) + evwt_query(5) + bph_query(7) + headway_query(10)
    + 'gap() = s.rval("z_3_2") - s.rval("z_11_2");\n'
    + 'share() = s.rval("c_5") / (s.rval("c_1") + 1);\n'
    + 'hours() = s.rval("time") / 3600 - mu_tot;\n'
    + 'tot() = mu_tot;\n'
    + 'untaken() = if {s.rval("c_9") == 0} then 5 else s.rval("z_2_9") fi;\n'
    + 'zero() = 1 / (s.rval("c_2") - s.rval("c_2"));\n'
    + 'order() = s.rval("y_3") + zero();\n'
    + 'late() = s.rval("y_3") * 2 + (if {1 > 0} then 1 / (2 - 2) else 0 fi);\n'
    + 'mix() = -share() * (s.rval("H_2") <= 3) + (s.rval("y_5") >= 60) - (gap() < 0);\n')


def outcome(fn):
    try:
        return fn()
    except (UndefinedSample, EvalError) as err:
        return type(err).__name__


def replay_points(replay: EventReplay, deps, end: float, names) -> tuple[list, list]:
    """The points where a clock samples one chunk, as (at, before) with
    `before` the chunk's departures in the state, and the per-event state
    there as {name: value}: after each boundary, and at each departure in
    the state it finds."""
    readers = {name: replay.reader(name) for name in names}
    points, states, last, taken = [], [], None, 0

    def sample(at, before):
        points.append((at, before))
        states.append({name: read(at) for name, read in readers.items()})

    for ev in replay.events(deps, end):
        if last is not None and ev.t > last:
            sample(last, taken)
        if ev.kind == "dep":
            sample(ev.t, taken)
            taken += 1
        last = ev.t
    if last is not None:
        sample(last, taken)
    return points, states


def test_compiled_functions_match_tree_walk_on_recorded_airlink_states():
    # timetabled Airlink, its hour expiries among the boundaries: the
    # column path against a tree walk over the per-event state, sample by
    # sample and chunk by chunk
    prop = parse_quatex(ORACLE_TEXT)
    model = airlink_model()
    constants = {"mu_tot": model.mu_tot}
    names = {nm for expr in prop.functions.values() for nm in _state_names(expr, prop.functions)
             if nm not in constants}
    compiled = {name: compile_expr(expr, constants, prop.functions)
                for name, expr in prop.functions.items()}
    # at this seed patch 5 sees a gap over 900 s inside the window (from
    # 9,222 s on), so EVWT reads 1.0 too
    sim = Simulator(model, seed=26)
    history = _History(model.n, model.cfg.n_buses, expiries=True)
    replay = EventReplay(model.n, model.cfg.n_buses, hour_ticks=True)
    seen = {name: set() for name in compiled}
    sampled, untaken_inf = 0, 0
    for end in (16_000.0, 32_000.0, 48_000.0):
        deps = sim.run(until_time=end)
        chunk = history.next(deps, end)
        points, states = replay_points(replay, deps, end, names)
        at, before = (np.array(col) for col in zip(*points))
        sampled += len(at)
        for name, f in compiled.items():
            expr = prop.functions[name]
            want = [outcome(lambda: tree_eval(expr, state.__getitem__, constants, prop.functions))
                    for state in states]

            def one(k):
                values, defined = f(chunk.reader(at[k:k + 1], before[k:k + 1]), 1)
                return float(values[0]) if defined[0] else "UndefinedSample"

            assert [outcome(lambda: one(k)) for k in range(len(at))] == want, name
            try:
                values, defined = f(chunk.reader(at, before), len(at))
            except EvalError:
                assert "EvalError" in want, name
            else:
                assert [v if d else "UndefinedSample"
                        for v, d in zip(values.tolist(), defined.tolist())] == want, name
            seen[name] |= {v if isinstance(v, str) else "value" for v in want}
            if name in ("evwt", "bph"):
                seen[name] |= {v for v in want if not isinstance(v, str)}
            if name == "untaken":
                untaken_inf += sum(v == 5.0 and math.isinf(state["z_2_9"])
                                   for v, state in zip(want, states))
    assert sampled > 2500
    for name in ("ewt", "headway", "gap", "untaken", "mix"):
        assert seen[name] == {"value", "UndefinedSample"}, name
    assert seen["zero"] == {"EvalError"}
    assert seen["order"] == {"UndefinedSample", "EvalError"}  # left operand first
    assert seen["late"] == {"UndefinedSample", "EvalError"}
    assert seen["tot"] == {"value"}
    assert seen["evwt"] == {"value", "UndefinedSample", 0.0, 1.0}
    assert seen["bph"] == {"value", 0.0, 1.0}
    # the infinite read in the untaken else-branch never skipped a sample
    assert untaken_inf > 0


def test_compile_resolves_each_name_once_branches_included():
    expr = parse_quatex('f() = if {s.rval("A") > 0} then s.rval("B") + s.rval("A") * 0 '
                        'else -s.rval("C") fi;').functions["f"]
    reads = []

    def read(name):
        reads.append(name)
        return np.array([2.0, -3.0])

    f = compile_expr(expr)
    values, defined = f(read, 2)
    assert sorted(reads) == ["A", "B", "C"]
    assert values.tolist() == [2.0, 3.0] and defined.tolist() == [True, True]


def test_compiled_if_skips_infinite_read_in_untaken_branch():
    expr = parse_quatex('f() = if {s.rval("K") > 0} then 2 else s.rval("Y") fi;').functions["f"]
    f = compile_expr(expr)
    values, defined = f(lambda name: np.array([1.0, -1.0] if name == "K" else [math.inf] * 2), 2)
    assert values[0] == 2.0 and defined.tolist() == [True, False]


@pytest.mark.parametrize("name", ["Q", "y_99", "z_1"])
def test_unknown_state_name_fails_before_any_event(name, monkeypatch):
    # the name sits in an untaken branch, so evaluating would never read it
    prop = parse_quatex(f'f() = if {{1 > 0}} then 1 else s.rval("{name}") fi;\n'
                        'S [ f(), "time" ] < 2;')
    runs = []
    monkeypatch.setattr(Simulator, "run", lambda self, *args, **kwargs: runs.append(1))
    with pytest.raises(PropertyError, match=name):
        estimate_steady_state(two_patch_model(), prop.assertions[0], prop.functions,
                              EstimatorConfig(wall_budget=1.0), seed=1)
    assert runs == []


def test_expand_per_patch():
    out = expand_per_patch('e() = s.rval("y_j") + 0;\nS [ e(), "c_j" ] < 5;', [2, 7])
    assert 'y_2' in out[2] and 'c_2' in out[2]
    assert 'y_7' in out[7]
    assert expand_per_patch('f() = s.rval("z_2_j");', [3]) == {3: 'f() = s.rval("z_2_3");'}


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


def test_wall_budget_is_checked_at_chunk_ends(monkeypatch):
    # each clock reading is 10 s after the last, so the 5 s budget has run
    # out by the first chunk end; the cap is checked before the budget, so
    # a run capped at that chunk end is not truncated
    ticks = itertools.count(0.0, 10.0)
    monkeypatch.setattr(properties._time, "monotonic", lambda: next(ticks))
    prop = parse_quatex(in_patch1_text())

    def run(cap):
        cfg = EstimatorConfig(warmup_time=500.0, chunk_time=50_000.0, max_sim_time=cap,
                              wall_budget=5.0, rel_halfwidth_target=0.0)
        return estimate_steady_state(two_patch_model(), prop.assertions[0], prop.functions,
                                     cfg, seed=3)

    cut, capped = run(500_000.0), run(50_000.0)
    assert cut.truncated and not capped.truncated
    assert (cut.estimate, cut.halfwidth, cut.batches, cut.sim_time) == (
        capped.estimate, capped.halfwidth, capped.batches, capped.sim_time)
    assert 45_000.0 < cut.sim_time <= 50_000.0
    assert cut.verdict == _verdict(cut.estimate, cut.halfwidth, 0.5, True) == "satisfied"


@pytest.mark.parametrize("body, clock, patch", [
    ('s.rval("y_2")', "c_2", 2),
    ('s.rval("z_1_2") - s.rval("H_2")', "time", 2),
    ('s.rval("y_1")', "c_2", None),
    ('mu_tot + s.rval("time")', "time", None),
])
def test_result_patch_is_the_one_patch_read(body, clock, patch):
    # through a called function, as the state names are collected
    prop = parse_quatex(f'g() = {body};\nf() = g();\nS [ f(), "{clock}" ] < 1;')
    res = estimate_steady_state(two_patch_model(), prop.assertions[0], prop.functions,
                                EstimatorConfig(warmup_time=0.0, max_sim_time=2000.0), seed=1)
    assert res.patch == patch


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


# (query, Airlink overrides) -> (estimate, halfwidth, batches, sim_time, verdict)
# at seed 5 over 40 r, recorded from the per-bus streams on the bus-by-bus
# path; the event loop (theta_h = 0) and the per-event oracle gave the same.
# BPH samples at the departures from its patch and at their hour expiries
ESTIMATE_PINS = {
    "bph-3-untimetabled": ((bph_query(3), dict(timetable=False)),
                           (0.12950527460243072, 0.03148945945760236, 32, 210296.50709463388,
                            "violated")),
    "evwt-6-timetabled": ((evwt_query(6), {}),
                          (0.0030395136778115506, 0.004731934866999104, 32, 210360.0,
                           "satisfied")),
}


@pytest.mark.parametrize("case", ESTIMATE_PINS)
def test_airlink_estimate_matches_the_recorded_one(case):
    (text, overrides), want = ESTIMATE_PINS[case]
    model = airlink_model(seed=5, **overrides)
    prop = parse_quatex(text)
    res = estimate_steady_state(model, prop.assertions[0], prop.functions,
                                EstimatorConfig(max_sim_time=40 * model.r, chunk_time=10 * model.r,
                                                wall_budget=60.0), seed=5)
    assert (res.estimate, res.halfwidth, res.batches, res.sim_time, res.verdict) == want
    assert not res.truncated


@pytest.mark.parametrize("batches", [1, 0, -3])
def test_estimator_config_needs_two_batches(batches):
    with pytest.raises(PropertyError, match="at least 2 batches"):
        EstimatorConfig(batches=batches)


@pytest.mark.parametrize("chunk_time", [0.0, -5.0, math.inf, math.nan])
def test_estimator_config_needs_a_positive_finite_chunk(chunk_time):
    # a zero chunk used to spin forever: run(until_time=0) processes no
    # event, so it never reached the wall-budget check
    with pytest.raises(PropertyError, match="chunk_time"):
        EstimatorConfig(chunk_time=chunk_time, wall_budget=1.0)


@pytest.mark.parametrize("seconds", [-1.0, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["warmup_time", "max_sim_time", "rel_halfwidth_target"])
def test_estimator_config_needs_non_negative_times(field, seconds):
    with pytest.raises(PropertyError, match=f"{field} must be >= 0"):
        EstimatorConfig(**{field: seconds})
    assert getattr(EstimatorConfig(**{field: 0.0}), field) == 0.0


def test_estimator_config_needs_a_finite_warmup():
    # no sample passes an infinite warm-up; an infinite max_sim_time is no cap
    with pytest.raises(PropertyError, match="warmup_time must be finite"):
        EstimatorConfig(warmup_time=math.inf)
    assert EstimatorConfig(max_sim_time=math.inf).max_sim_time == math.inf


def test_estimator_config_needs_a_budget_that_is_a_number():
    # with a NaN budget a run never stopped: monotonic() > nan is always False
    with pytest.raises(PropertyError, match="wall_budget must be a number, got nan"):
        EstimatorConfig(wall_budget=math.nan)
    assert EstimatorConfig(wall_budget=-1.0).wall_budget == -1.0  # spent at the first look


def test_estimate_repeats_bit_for_bit():
    # stops at the half-width target, so the t quantile sets where it stops;
    # recorded from the bus's own stream on the bus-by-bus path
    prop = parse_quatex(in_patch1_text())
    res = estimate_steady_state(two_patch_model(), prop.assertions[0], prop.functions,
                                EstimatorConfig(warmup_time=5000.0, wall_budget=60.0,
                                                rel_halfwidth_target=0.05,
                                                max_sim_time=2e6), seed=3)
    assert (res.estimate, res.halfwidth, res.batches, res.sim_time) == (
        0.24584920300979848, 0.010711049090219605, 32, 537507.6604188492)
    assert not res.truncated


# the 0.975 quantile of Student's t, computed with mpmath at 40 digits
T975_REFERENCE = {1: 12.706204736174704646, 2: 4.3026527297494638523, 6: 2.4469118511449699711,
                  15: 2.1314495455597756821, 31: 2.0395134463964084879,
                  63: 1.9983405425207415782, 1000: 1.962339080826408485}


@pytest.mark.parametrize("df", T975_REFERENCE)
def test_t_quantile_matches_the_reference_value(df):
    assert _t975(df) == pytest.approx(T975_REFERENCE[df], rel=1e-14, abs=0)


def test_t_quantile_matches_scipy():
    # stdtrit itself is a few ulps off the reference values, so no bit identity
    from scipy.special import stdtrit

    def off(df):
        want = float(stdtrit(df, 0.975))
        return abs(_t975(df) - want) / want

    assert [df for df in range(1, 5001) if not off(df) <= 1e-12] == []
    assert [df for df in (10**4, 10**5) if not off(df) <= 1e-10] == []


def test_batch_means_match_direct_t_interval():
    rng = np.random.default_rng(42)
    xs = rng.normal(5.0, 2.0, size=32)
    acc = _Accumulator()
    acc.add_chunk(np.ones(32), xs)
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
    for k in range(0, 1000, 70):
        acc.add_chunk(ws[k:k + 70], fs[k:k + 70])
    means, total = acc.batch_means(8)
    assert total == pytest.approx(ws.sum())
    assert means.mean() == pytest.approx((ws * fs).sum() / ws.sum(), rel=1e-6)
    # no batch is dominated by one heavy merged entry: the spread of the
    # batch means matches that of an accumulator that never consolidates
    plain = _Accumulator()
    plain.add_chunk(ws, fs)
    plain_sd = plain.batch_means(8)[0].std(ddof=1)
    assert means.std(ddof=1) == pytest.approx(plain_sd, rel=0.25)


def test_accumulator_counts_samples_not_units():
    acc = _Accumulator(limit=16)
    for _ in range(100):
        acc.add_chunk(np.ones(10), np.full(10, 2.0))
    assert acc.n == 1000
    assert acc.size - 1 < 16
    assert acc.batch_means(8) is not None
    short = _Accumulator()
    short.add_chunk(np.ones(7), np.full(7, 2.0))
    assert short.batch_means(8) is None


def test_accumulator_heavy_sample_spans_batch_edges():
    acc = _Accumulator()
    ws = [1.0] * 48 + [500.0]
    fs = [float(i % 3) for i in range(48)] + [7.0]
    acc.add_chunk(np.array(ws), np.array(fs))
    means, total = acc.batch_means(32)
    assert len(means) == 32
    assert total == pytest.approx(548.0)
    assert means.mean() == pytest.approx(np.dot(ws, fs) / total, rel=1e-9)
    # batches lying wholly inside the heavy sample see its value only
    assert means[-20:] == pytest.approx(7.0, abs=1e-12)


def test_accumulator_constant_exact_after_doubling():
    acc = _Accumulator(limit=64)
    rng = np.random.default_rng(3)
    for w in rng.uniform(0.1, 30.0, size=(40, 50)):
        acc.add_chunk(w, np.full(50, 0.1))
    means, _ = acc.batch_means(32)
    assert np.all(means == 0.1)


def entries(acc) -> tuple:
    """Everything an accumulator keeps, exactly: its stored prefix sums and
    span means as bit patterns, then n, stride and nonzero_f."""
    cw, cg, m = (row[:acc.size] for row in acc.rows)
    return (cw.tobytes(), cg.tobytes(), m[:-1].tobytes(), acc.n, acc.stride, acc.nonzero_f)


def oracle_entries(oracle: AllSamples, stride: int) -> tuple:
    """`entries` of an accumulator fed what `oracle` was, at `stride`."""
    cw, cg, m = oracle.entries(stride)
    return (cw.tobytes(), cg.tobytes(), m.tobytes(), len(oracle.w), stride,
            any(f != 0.0 for f in oracle.f))


@pytest.mark.parametrize("seed", range(6))
def test_chunk_intake_matches_per_sample_intake(seed):
    # limit 8: stride 1, the first doubling at the 8th sample and the
    # doublings after it, with chunks of random length that cross each one
    rng = np.random.default_rng(seed)
    size = [0, 5, 8, 9, 40, 600][seed]
    w = rng.choice([0.5, 1.0, 3.0, 40.0], size=size) * rng.uniform(0.5, 2.0, size=size)
    f = np.where(rng.random(size) < 0.3, 0.0, rng.normal(2.0, 1.0, size=size))
    if seed == 2:
        f[:] = 0.0  # an all-zero stream stays "not observed"
    chunked, single = _Accumulator(limit=8), PerSampleAccumulator(limit=8)
    cuts = np.sort(rng.integers(0, size + 1, size=4))
    for lo, hi in zip([0, *cuts], [*cuts, size]):
        chunked.add_chunk(w[lo:hi], f[lo:hi])
        for wk, fk in zip(w[lo:hi].tolist(), f[lo:hi].tolist()):
            single.add(wk, fk)
        if single.n:
            assert entries(chunked) == oracle_entries(single, single.stride)
    assert (chunked.stride == 1) == (size < 8)
    assert (chunked.batch_means(4) is None) == (size < 4)
    if size >= 4:
        a, b = chunked.batch_means(4), single.batch_means(4)
        assert a[0].tobytes() == b[0].tobytes() and a[1] == b[1]


def random_departures(rng, size: int, n: int, beta: int):
    """A time-ordered departure stream with many equal-time ties: t on a
    grid of 30 s, patch and bus drawn at random."""
    t = np.sort(rng.integers(0, size * 3, size=size)) * 30.0
    return t, rng.integers(1, n + 1, size=size), rng.integers(1, beta + 1, size=size)


@pytest.mark.parametrize("expiries", [False, True], ids=["no-expiries", "expiries"])
@pytest.mark.parametrize("seed", range(4))
def test_history_matches_the_sorting_oracle(seed, expiries):
    # chunks of random length, empty ones too, never splitting equal times
    # (a run returns every departure at or before its end); each chunk and
    # the state carried on must be the sorting oracle's, bit for bit
    n, beta = 5, 3
    rng = np.random.default_rng(seed)
    t, patch, bus = random_departures(rng, 2000, n, beta)
    edges = np.flatnonzero(np.diff(t)) + 1  # cuts between distinct times
    cuts = np.sort(rng.choice(edges, size=40, replace=True))
    fast, oracle = _History(n, beta, expiries), SortedHistory(n, beta, expiries)
    for lo, hi in zip([0, *cuts], [*cuts, len(t)]):
        end = t[hi - 1] + rng.uniform(0.0, 29.0) if hi else 0.0
        deps = Departures(t[lo:hi], bus[lo:hi], patch[lo:hi], np.zeros(hi - lo, dtype=np.int64))
        got, want = fast.next(deps, end), oracle.next(deps, end)
        assert got.boundaries.tobytes() == want.boundaries.tobytes()
        for a, b in ((got.last, want.last), (got.last_bus, want.last_bus),
                     (got.count, want.count), (fast.last, oracle.last),
                     (fast.last_bus, oracle.last_bus), (fast.count, oracle.count)):
            assert a.tobytes() == b.tobytes()
        assert fast.time == oracle.time
        if expiries:
            assert fast.expiries.tobytes() == oracle.expiries.tobytes()
    assert np.isfinite(fast.last[1:]).all() and fast.count.sum() == len(t)


@pytest.mark.parametrize("limit", [64, 1 << 20])
@pytest.mark.parametrize("constant", [False, True], ids=["random-f", "constant-f"])
@pytest.mark.parametrize("seed", range(3))
def test_batch_cuts_match_the_full_recompute(seed, constant, limit):
    # chunks of random length into the running prefix sums, and at limit 64
    # through the stride doublings: the entries and each look's batch means
    # are those of sums over every sample, thinned at the stride, bit for bit
    rng = np.random.default_rng(seed)
    acc, oracle = _Accumulator(limit=limit), AllSamples()
    for size in rng.integers(0, 300, size=30):
        w = rng.choice([0.5, 1.0, 3.0, 40.0], size=size) * rng.uniform(0.5, 2.0, size=size)
        f = np.full(size, 0.1) if constant else rng.normal(2.0, 1.0, size=size)
        acc.add_chunk(w, f)
        oracle.add_chunk(w, f)
        if acc.n:
            assert entries(acc) == oracle_entries(oracle, acc.stride)
        for k in (2, 7, 32):
            got = acc.batch_means(k)
            if got is None:
                assert acc.n < k
                continue
            want = oracle.cut(k, acc.stride)
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
            if constant:
                assert np.all(got[0] == 0.1)
    assert (acc.stride == 1) == (limit > acc.n)


H3_TEXT = 'f() = if {s.rval("H_3") < 11} then 1 else 0 fi;\nS [ f(), "time" ] < 0.5;\n'


def test_estimator_past_the_accumulator_limit(monkeypatch):
    # untimetabled Airlink on the time clock, with the limit at 256 so that
    # the stride doubles several times: every intake must leave the entries
    # of sums over all the samples fed so far, thinned at the stride, and
    # those of the same samples fed one at a time
    model = airlink_model(seed=5, timetable=False)
    prop = parse_quatex(H3_TEXT)
    cfg = EstimatorConfig(max_sim_time=200 * model.r, rel_halfwidth_target=0.0, wall_budget=1e9)
    full = estimate_steady_state(model, prop.assertions[0], prop.functions, cfg, seed=5)
    intakes = []

    class Small(_Accumulator):
        def __init__(self):
            super().__init__(limit=256)

        def add_chunk(self, w, f):
            super().add_chunk(w, f)
            assert self.size - 1 < self.limit
            intakes.append((w.copy(), f.copy(), entries(self)))

    monkeypatch.setattr(properties, "_Accumulator", Small)
    small = estimate_steady_state(model, prop.assertions[0], prop.functions, cfg, seed=5)
    oracle, single = AllSamples(), _Accumulator(limit=256)
    for w, f, got in intakes:
        oracle.add_chunk(w, f)
        for k in range(len(w)):
            single.add_chunk(w[k:k + 1], f[k:k + 1])
        stride = got[4]
        assert got == entries(single) == oracle_entries(oracle, stride)
        # each span but the last covers `stride` samples, and the stride is
        # the least power of two that keeps the spans below the limit
        assert stride == 1 or -(-single.n // (stride // 2)) >= 256
    # the run went past the limit, and the last span is the only short one
    assert single.stride > 1 and single.size - 1 == -(-single.n // single.stride)
    assert small.batches == full.batches == 32 and small.total_clock == full.total_clock
    assert abs(small.estimate - full.estimate) < full.halfwidth


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
    assert not res.truncated
    path = tmp_path / "results.tsv"
    write_results_tsv([res], str(path), ["rare"])
    head, line = path.read_text().splitlines()
    assert head.split("\t") == ["assertion", "patch", "estimate", "halfwidth", "verdict",
                                "batches", "sim_time", "truncated"]
    assert line.split("\t") == ["rare", "1", "-", "-", "-", str(res.batches),
                                f"{res.sim_time:.0f}", "no"]


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
    # H_1 makes the hour expiries boundaries; the c_1 clock steps only at
    # departures from patch 1
    prop = parse_quatex('h() = s.rval("H_1");\nS [ h(), "c_1" ] < 99;')
    model = airlink_model()
    warmup = 20_000.0
    res = estimate_steady_state(model, prop.assertions[0], prop.functions,
                                EstimatorConfig(warmup_time=warmup, wall_budget=30.0,
                                                max_sim_time=300_000.0,
                                                rel_halfwidth_target=0.0), seed=8)
    deps = Simulator(model, seed=8).run(until_time=res.sim_time)
    assert res.total_clock == np.count_nonzero((deps.patch == 1) & (deps.t > warmup)) > 0


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


# model -> the Airlink overrides of each case below
ORACLE_MODELS = {
    "timetable": {},
    "untimetabled": dict(timetable=False),
    "holding": dict(timetable=False, holding_threshold=120.0),
    "phased-speedmod": dict(timetable=False, holding_threshold=120.0, speedmod_threshold=0.15,
                            slowdown=0.9),
    "terminus-init": dict(timetable=False, holding_threshold=120.0, init="terminus"),
}
MIXED_TEXT = (
    'f() = if {s.rval("c_4") > 2 * s.rval("c_3")} '
    'then -s.rval("z_2_4") / (s.rval("c_4") - s.rval("c_3")) '
    'else if {s.rval("y_4") < 100} then 1 else -(s.rval("H_4") / 4) fi fi;\n')
# (model, query text, estimator settings in units of r)
ORACLE_CASES = {
    "ewt-timetable": ("timetable", ewt_query(3), dict(chunk=2.0)),
    "evwt-untimetabled": ("untimetabled", evwt_query(5), dict(chunk=2.0)),
    "bph-holding": ("holding", bph_query(2), dict(chunk=2.0)),
    "headway-phased-speedmod": ("phased-speedmod", headway_query(4), dict(chunk=2.0)),
    # chunks far shorter than any sojourn, so most are empty
    "bph-short-chunks": ("timetable", bph_query(6), dict(chunk=0.02, cap=3.0)),
    # the warm-up ends inside a chunk, on both clocks
    "ewt-warmup-mid-chunk": ("holding", ewt_query(7), dict(warmup=1.37, chunk=1.0)),
    "mixed-time-warmup-mid-chunk": ("terminus-init", MIXED_TEXT + 'S [ f(), "time" ] < 1;',
                                    dict(warmup=1.37, chunk=1.0)),
    "mixed-counter-terminus-init": ("terminus-init", MIXED_TEXT + 'S [ f(), "c_2" ] < 1;',
                                    dict(warmup=0.0, chunk=1.5)),
    "mixed-time-phased": ("phased-speedmod", MIXED_TEXT + 'S [ f(), "time" ] < 1;',
                          dict(warmup=0.0, chunk=3.0)),
    # stops at the half-width target, not at the cap
    "headway-to-the-target": ("timetable", headway_query(9),
                              dict(chunk=1.0, cap=60.0, target=0.05)),
}


def result_fields(res) -> tuple:
    return (res.estimate, res.halfwidth, res.rel_halfwidth, res.batches, res.total_clock,
            res.sim_time, res.verdict, res.event_observed, res.skipped_samples, res.truncated,
            res.patch)


def oracle_config(model, warmup=0.5, chunk=2.0, cap=12.0, target=0.0) -> EstimatorConfig:
    r = model.r
    return EstimatorConfig(warmup_time=warmup * r, chunk_time=chunk * r, max_sim_time=cap * r,
                           rel_halfwidth_target=target, wall_budget=1e9)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_column_estimator_matches_the_per_event_one(case):
    model_name, text, settings = ORACLE_CASES[case]
    model = airlink_model(seed=5, **ORACLE_MODELS[model_name])
    prop = parse_quatex(text)
    cfg = oracle_config(model, **settings)
    res = estimate_steady_state(model, prop.assertions[0], prop.functions, cfg, seed=5)
    ref = estimate_per_event(model, prop.assertions[0], prop.functions, cfg, seed=5)
    assert result_fields(res) == result_fields(ref)
    assert res.batches == 32 and res.event_observed
    if "target" in settings:
        assert res.sim_time < cfg.max_sim_time
    if settings.get("warmup") == 0.0:
        assert res.skipped_samples > 0


def counter_clock(text: str) -> bool:
    return parse_quatex(text).assertions[0].clock.startswith("c_")


@pytest.mark.parametrize("case", [case for case, (_, text, _) in ORACLE_CASES.items()
                                  if counter_clock(text)])
def test_a_counter_clock_query_gives_what_sampling_every_departure_gave(case):
    # a c_j clock samples at the departures from j alone, whichever
    # departures the run hands over: the result is the one of a replay of
    # every departure, bit for bit, but for the sim_time of a query that
    # reads H_j, which no longer counts the expiries of other patches
    model_name, text, settings = ORACLE_CASES[case]
    model = airlink_model(seed=5, **ORACLE_MODELS[model_name])
    prop = parse_quatex(text)
    cfg = oracle_config(model, **settings)
    res = estimate_steady_state(model, prop.assertions[0], prop.functions, cfg, seed=5)
    ref = estimate_per_event(model, prop.assertions[0], prop.functions, cfg, seed=5,
                             every_departure=True)
    reads_h = "H_" in text
    assert dataclasses.replace(res, sim_time=0.0) == dataclasses.replace(ref, sim_time=0.0)
    assert (res.sim_time == ref.sim_time) != reads_h
    assert res.sim_time <= ref.sim_time


COUNTS_AND_HOURS_TEXT = (
    'f() = if {s.rval("c_4") > 2 * s.rval("c_3")} then s.rval("H_4") / (s.rval("c_4") - '
    's.rval("c_3")) else -s.rval("H_3") fi;\nS [ f(), "time" ] < 1;\n')
# (model, query text, the patches it reads, chunk in units of r) of
# time-clock queries over c_j and H_j states only
OWN_CHANGES_CASES = {
    "bph-timetable": ("timetable", bph_query(6), [6], 2.0),
    "bph-holding": ("holding", bph_query(2), [2], 2.0),
    "bph-phased-speedmod": ("phased-speedmod", bph_query(4), [4], 3.0),
    "bph-short-chunks": ("untimetabled", bph_query(9), [9], 0.02),
    "counts-and-hours-terminus-init": ("terminus-init", COUNTS_AND_HOURS_TEXT, [3, 4], 1.5),
}


@pytest.mark.parametrize("case", OWN_CHANGES_CASES)
def test_sampling_the_changes_of_the_patches_read_agrees_with_sampling_every_departure(case):
    # over c_j and H_j only, the state changes only at the departures from
    # the patches read and at their hour expiries: sampled there, the step
    # function is the one sampled at every departure and every expiry.  On
    # a run that ends at a departure from those patches, both cover the
    # same time and differ only in how the float sums group
    model_name, text, patches, chunk = OWN_CHANGES_CASES[case]
    model = airlink_model(seed=5, **ORACLE_MODELS[model_name])
    prop = parse_quatex(text)
    deps = Simulator(model, seed=5).run(until_time=12 * model.r)
    end = float(deps.t[np.isin(deps.patch, patches)][-1])
    cfg = EstimatorConfig(warmup_time=0.5 * model.r, chunk_time=chunk * model.r,
                          max_sim_time=end, rel_halfwidth_target=0.0, wall_budget=1e9)
    res = estimate_steady_state(model, prop.assertions[0], prop.functions, cfg, seed=5)
    ref = estimate_per_event(model, prop.assertions[0], prop.functions, cfg, seed=5,
                             every_departure=True)
    for got, want in ((res.estimate, ref.estimate), (res.halfwidth, ref.halfwidth),
                      (res.total_clock, ref.total_clock)):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert (res.batches, res.verdict, res.event_observed) == (
        ref.batches, ref.verdict, ref.event_observed)
    assert res.batches == 32 and res.event_observed and res.halfwidth > 0
    assert res.sim_time == ref.sim_time == end


UNTAKEN_TEXT = ('f() = if {s.rval("c_1") == 0} then 7 else 1 / s.rval("c_1") + s.rval("y_1") '
                '+ 1 / (s.rval("c_5") - s.rval("c_5")) * 0 fi;\n')


@pytest.mark.parametrize("clock", ["time", "c_4"])
def test_untaken_zero_divisor_and_infinite_read_neither_raise_nor_skip(clock):
    # before the first departure from patch 1 the else branch would divide
    # by zero and read y_1 as infinite (without its last term, which
    # divides by zero whenever the branch is taken)
    text = UNTAKEN_TEXT.replace(' + 1 / (s.rval("c_5") - s.rval("c_5")) * 0', '')
    prop = parse_quatex(text + f'S [ f(), "{clock}" ] < 1;')
    model = airlink_model(seed=5)
    cfg = oracle_config(model, warmup=0.0, cap=4.0)
    res = estimate_steady_state(model, prop.assertions[0], prop.functions, cfg, seed=5)
    ref = estimate_per_event(model, prop.assertions[0], prop.functions, cfg, seed=5)
    assert result_fields(res) == result_fields(ref)
    assert res.skipped_samples == 0 and res.event_observed
    # c_1 == 0 was sampled: patch 4, the c_4 clock's, is departed first
    first = Simulator(model, seed=5).run(until_time=cfg.max_sim_time)
    assert first.t[first.patch == 1][0] > first.t[first.patch == 4][0] > 0.0


@pytest.mark.parametrize("clock", ["time", "c_4"])
def test_taken_zero_divisor_raises(clock):
    for text in (UNTAKEN_TEXT, 'f() = if {s.rval("c_1") == 0} then 1 / s.rval("c_1") else 0 fi;\n'):
        prop = parse_quatex(text + f'S [ f(), "{clock}" ] < 1;')
        model = airlink_model(seed=5)
        cfg = oracle_config(model, warmup=0.0, cap=4.0)
        for estimate in (estimate_steady_state, estimate_per_event):
            with pytest.raises(EvalError, match="division by zero"):
                estimate(model, prop.assertions[0], prop.functions, cfg, seed=5)


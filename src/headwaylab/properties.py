"""Quantitative temporal property language and steady-state estimation.

The language is the steady-state fragment: zero-argument function definitions
over arithmetic, comparisons, if-then-else and s.rval("NAME") state queries,
plus assertions  S [ f(), "C" ] < p;  asserting that the long-run average of
f against the clock C stays below p.  The estimate accumulates, over the
event stream, (C(t_i) - C(t_{i-1})) * F(x_{i-1}) normalized by the total
clock increment, evaluated with non-overlapping batch means on one long
trajectory after a warmup; at each chunk end the run stops when the relative
95% confidence half-width has reached the target, the simulated time its cap,
or the wall-clock time the budget (see EstimatorConfig).  Batches carry equal
clock weight, so the mean of the batch means equals sum(w*F)/sum(w); on long
runs the stored units of clock weight merge pairwise when full (batch
doubling, as in LBATCH and dynamic batch means), which bounds memory.
"""

from __future__ import annotations

import itertools
import math
import re
import time as _time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .artifacts import write_lines
from .simulate import Event, SimError, SimModel, Simulator, parse_state_name


class PropertyError(ValueError):
    pass


class ParseError(PropertyError):
    def __init__(self, msg, line, col):
        super().__init__(f"{msg} at line {line}, column {col}")
        self.line = line
        self.col = col


class EvalError(PropertyError):
    pass


class UndefinedSample(Exception):
    """An rval returned the undefined sentinel; the sample is skipped."""


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Rval:
    name: str


@dataclass(frozen=True)
class Call:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class IfThenElse:
    cond: object
    then: object
    other: object


@dataclass
class SteadyStateQuery:
    function: str
    clock: str
    threshold: float


@dataclass
class PropertyFile:
    functions: dict[str, object]
    assertions: list[SteadyStateQuery]


def _subterms(expr):
    """expr and every term below it, parents before children and operands
    left to right; a call is a leaf (its body is not entered)."""
    yield expr
    if isinstance(expr, Unary):
        yield from _subterms(expr.operand)
    elif isinstance(expr, Binary):
        yield from _subterms(expr.left)
        yield from _subterms(expr.right)
    elif isinstance(expr, IfThenElse):
        yield from _subterms(expr.cond)
        yield from _subterms(expr.then)
        yield from _subterms(expr.other)


# --- lexer / parser ----------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+\.\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?|\d+([eE][+-]?\d+)?)
  | (?P<rval>s\.rval)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<str>"[^"]*")
  | (?P<op><=|>=|==|[-+*/<>=(){},;\[\]])
""", re.VERBOSE)

_KEYWORDS = {"if", "then", "else", "fi", "S"}


@dataclass
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind != "ws":
            toks.append(_Tok(kind, lexeme, line, col))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def parse_file(self) -> PropertyFile:
        functions: dict[str, object] = {}
        assertions: list[SteadyStateQuery] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "S":
                assertions.append(self.parse_assertion())
            elif tok.kind == "ident":
                name, expr = self.parse_def()
                functions[name] = expr
            else:
                raise ParseError(f"expected a definition or assertion, found {tok.text!r}",
                                 tok.line, tok.col)
        self._check_calls(functions, assertions)
        return PropertyFile(functions, assertions)

    def parse_def(self):
        name = self.next().text
        self.expect("(")
        self.expect(")")
        self.expect("=")
        expr = self.parse_expr()
        self.expect(";")
        return name, expr

    def parse_assertion(self) -> SteadyStateQuery:
        self.expect("S")
        self.expect("[")
        ftok = self.next()
        if ftok.kind != "ident":
            raise ParseError("expected a function name", ftok.line, ftok.col)
        self.expect("(")
        self.expect(")")
        self.expect(",")
        ctok = self.next()
        if ctok.kind != "str":
            raise ParseError("expected a clock name string", ctok.line, ctok.col)
        self.expect("]")
        self.expect("<")
        ntok = self.next()
        sign = 1.0
        if ntok.text == "-":
            sign = -1.0
            ntok = self.next()
        if ntok.kind != "num":
            raise ParseError("expected a threshold number", ntok.line, ntok.col)
        self.expect(";")
        return SteadyStateQuery(ftok.text, ctok.text[1:-1], sign * float(ntok.text))

    # precedence: comparisons < additive < multiplicative < unary/atom
    def parse_expr(self):
        left = self.parse_additive()
        while self.peek().text in ("<", ">", "<=", ">=", "=="):
            op = self.next().text
            right = self.parse_additive()
            left = Binary(op, left, right)
        return left

    def parse_additive(self):
        left = self.parse_multiplicative()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            right = self.parse_multiplicative()
            left = Binary(op, left, right)
        return left

    def parse_multiplicative(self):
        left = self.parse_unary()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            right = self.parse_unary()
            left = Binary(op, left, right)
        return left

    def parse_unary(self):
        if self.peek().text == "-":
            self.next()
            return Unary("-", self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "rval":
            self.expect("(")
            stok = self.next()
            if stok.kind != "str":
                raise ParseError("s.rval expects a quoted name", stok.line, stok.col)
            self.expect(")")
            return Rval(stok.text[1:-1])
        if tok.text == "if":
            self.expect("{")
            cond = self.parse_expr()
            self.expect("}")
            self.expect("then")
            then = self.parse_expr()
            self.expect("else")
            other = self.parse_expr()
            self.expect("fi")
            return IfThenElse(cond, then, other)
        if tok.text == "(":
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            if self.peek().text == "(":
                self.next()
                self.expect(")")
                return Call(tok.text)
            return Rval(tok.text)  # bare identifier: model constant or state name
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    @staticmethod
    def _check_calls(functions, assertions):
        def calls_in(expr):
            return (e.name for e in _subterms(expr) if isinstance(e, Call))

        for name, expr in functions.items():
            for callee in calls_in(expr):
                if callee not in functions:
                    raise PropertyError(f"call to undefined function {callee!r}")
        # reject recursion: DFS over the call graph
        colors: dict[str, int] = {}

        def visit(fn):
            if colors.get(fn) == 1:
                raise PropertyError(f"recursive definition of {fn!r}")
            if colors.get(fn) == 2:
                return
            colors[fn] = 1
            for callee in calls_in(functions[fn]):
                visit(callee)
            colors[fn] = 2

        for fn in functions:
            visit(fn)
        for a in assertions:
            if a.function not in functions:
                raise PropertyError(f"assertion references undefined function {a.function!r}")


def parse_quatex(text: str) -> PropertyFile:
    return _Parser(text).parse_file()


def expand_per_patch(text: str, patches: list[int]) -> dict[int, str]:
    """Substitute the literal patch placeholder suffix `_j` (as in y_j, c_j,
    H_j, z_i_j) for each requested patch index."""
    out = {}
    for j in patches:
        out[j] = re.sub(r"\b(y|c|H|z_[0-9]+)_j\b", lambda m: f"{m.group(1)}_{j}", text)
    return out


# --- evaluation ---------------------------------------------------------------

def compile_expr(expr, read: Callable[[str], Callable[[float], float]],
                 constants: dict[str, float] | None = None,
                 functions: dict[str, object] | None = None) -> Callable[[float], float]:
    """Turn an expression into a function of the time t, once.

    `read(name)` resolves a state name into a function of t (as
    Simulator.reader does) and is called here, for every name in the
    expression, taken branch or not; a name in `constants` is a constant.
    The compiled function evaluates strictly, left operand first, with
    comparisons yielding 1.0/0.0 and only the taken branch of an
    if-then-else.  An infinite read raises UndefinedSample so the estimator
    can skip the sample; a zero divisor raises EvalError."""
    constants = constants or {}
    functions = functions or {}
    isinf = math.isinf

    def comp(e) -> Callable[[float], float]:
        if isinstance(e, Num) or (isinstance(e, Rval) and e.name in constants):
            c = e.value if isinstance(e, Num) else constants[e.name]
            return lambda t: c
        if isinstance(e, Rval):
            get, name = read(e.name), e.name

            def rval(t):
                v = get(t)
                if isinf(v):
                    raise UndefinedSample(name)
                return v
            return rval
        if isinstance(e, Call):
            return comp(functions[e.name])
        if isinstance(e, Unary):
            f = comp(e.operand)
            return lambda t: -f(t)
        if isinstance(e, IfThenElse):
            cond, then, other = comp(e.cond), comp(e.then), comp(e.other)
            return lambda t: then(t) if cond(t) != 0.0 else other(t)
        if isinstance(e, Binary) and e.op in _BINARY:
            return _BINARY[e.op](comp(e.left), comp(e.right))
        raise EvalError(f"cannot evaluate node {e!r}")

    return comp(expr)


def _divide(a, b):
    def div(t):
        x = a(t)
        y = b(t)
        if y == 0:
            raise EvalError("division by zero")
        return x / y
    return div


# each entry closes an operator over its compiled operands, left one first
_BINARY = {
    "+": lambda a, b: lambda t: a(t) + b(t),
    "-": lambda a, b: lambda t: a(t) - b(t),
    "*": lambda a, b: lambda t: a(t) * b(t),
    "/": _divide,
    "<": lambda a, b: lambda t: 1.0 if a(t) < b(t) else 0.0,
    ">": lambda a, b: lambda t: 1.0 if a(t) > b(t) else 0.0,
    "<=": lambda a, b: lambda t: 1.0 if a(t) <= b(t) else 0.0,
    ">=": lambda a, b: lambda t: 1.0 if a(t) >= b(t) else 0.0,
    "==": lambda a, b: lambda t: 1.0 if a(t) == b(t) else 0.0,
}


def evaluate_expr(expr, rval, constants: dict[str, float] | None = None,
                  functions: dict[str, object] | None = None) -> float:
    """One evaluation of expr, reading state names through rval(name)."""
    return compile_expr(expr, lambda name: lambda t: rval(name), constants, functions)(0.0)


# --- steady-state estimation ---------------------------------------------------

MIN_SAMPLES = 64  # samples a run needs before the half-width target may stop it


@dataclass
class EstimatorConfig:
    """Stopping rule of `estimate_steady_state`, checked at each chunk end:
    the half-width target first, then max_sim_time, then wall_budget.  The
    budget is read only there, so a run can overshoot it by at most one
    chunk of simulated time."""

    warmup_time: float | None = None  # defaults to 10 * r
    batches: int = 32
    rel_halfwidth_target: float = 0.10
    wall_budget: float = 300.0  # wall-clock seconds
    # cap on simulated seconds: no event after it is processed, and the run
    # stops there even when the half-width target is not met
    max_sim_time: float | None = None
    # seconds between the stopping checks, which fall at whole multiples of
    # it (and at max_sim_time); defaults to 20 * r
    chunk_time: float | None = None

    def __post_init__(self):
        if self.batches < 2:
            raise PropertyError(f"need at least 2 batches for a confidence interval, "
                                f"got {self.batches}")
        # chunk ends must move forward through simulated time
        if self.chunk_time is not None and not (math.isfinite(self.chunk_time)
                                                and self.chunk_time > 0):
            raise PropertyError(f"chunk_time must be positive and finite, got {self.chunk_time}")


@dataclass
class EstimateResult:
    estimate: float | None
    halfwidth: float
    rel_halfwidth: float
    batches: int
    total_clock: float
    sim_time: float
    verdict: str  # satisfied | violated | undecided
    event_observed: bool
    skipped_samples: int = 0
    truncated: bool = False  # the wall budget ran out before the target or the cap
    query: SteadyStateQuery | None = None
    patch: int | None = None  # the one patch the clock and function read, if one


class _Accumulator:
    """Weighted samples (C increment w, F value f) kept as units of clock
    weight, each holding the weighted mean of F over its weight.

    Until `limit` (>= 2) samples arrive, each sample is its own unit.  Then
    the stream is re-cut into limit/2 units of equal weight, and from there
    on new samples fill the open unit, a sample straddling a unit edge being
    split at the edge (exact, as F is constant over the sample).  When the
    list reaches `limit` full units they merge pairwise, doubling the unit
    weight, so memory stays bounded on long runs.  Unit means are updated
    incrementally, m += (w/W)(f - m), so a constant F stays exact."""

    def __init__(self, limit: int = 1 << 20):
        self.w: list[float] = []
        self.m: list[float] = []
        self.n = 0  # samples added, however they are stored
        self.unit: float | None = None  # unit weight once re-cut
        self.nonzero_f = False
        self.limit = limit

    def add(self, w: float, f: float):
        if w <= 0.0:
            return
        self.n += 1
        if f != 0.0:
            self.nonzero_f = True
        if self.unit is not None:
            self._fill(w, f)
            return
        self.w.append(w)
        self.m.append(f)
        if len(self.w) >= self.limit:
            k = self.limit // 2
            means, total = self._cut(k)
            self.unit = total / k
            self.w = [self.unit] * k
            self.m = means.tolist()

    def _fill(self, w: float, f: float):
        while True:
            room = self.unit - self.w[-1]
            if room <= 0.0:
                if len(self.w) >= self.limit:
                    self._double()
                    continue
                self.w.append(0.0)
                self.m.append(f)
                room = self.unit
            if w < room:
                total = self.w[-1] + w
                self.m[-1] += w / total * (f - self.m[-1])
                self.w[-1] = total
                return
            self.m[-1] += room / self.unit * (f - self.m[-1])
            self.w[-1] = self.unit
            w -= room
            if w <= 0.0:
                return

    def _double(self):
        # every unit is full here; an odd last one stays as the open unit
        w = np.asarray(self.w)
        m = np.asarray(self.m)
        p = w.size // 2 * 2
        w1, w2 = w[0:p:2], w[1:p:2]
        m1, m2 = m[0:p:2], m[1:p:2]
        self.m = (m1 + w2 / (w1 + w2) * (m2 - m1)).tolist() + self.m[p:]
        self.w = (w1 + w2).tolist() + self.w[p:]
        self.unit *= 2.0

    def _cut(self, k: int):
        """Means of F over k batches of equal clock weight, cut at exact
        multiples of total/k; a unit cut by an edge lends its mean to both
        sides in proportion to its weight on each."""
        w = np.asarray(self.w)
        m = np.asarray(self.m)
        ref = m[0]
        d = m - ref
        cw = np.concatenate([[0.0], np.cumsum(w)])
        cg = np.concatenate([[0.0], np.cumsum(w * d)])
        total = float(cw[-1])
        edges = total * np.arange(k + 1) / k
        edges[-1] = total
        i = np.clip(np.searchsorted(cw, edges, side="right") - 1, 0, w.size - 1)
        g = cg[i] + (edges - cw[i]) * d[i]  # integral of (F - ref) up to each edge
        return ref + np.diff(g) / np.diff(edges), total

    def batch_means(self, batches: int):
        """(batch means, total clock weight), or None before `batches`
        samples.  The mean of the batch means equals sum(w*f)/sum(w)."""
        if self.n < batches:
            return None
        return self._cut(batches)


def estimate_steady_state(model: SimModel, query: SteadyStateQuery,
                          functions: dict[str, object], cfg: EstimatorConfig | None = None,
                          seed: int | None = None, replication: int = 0) -> EstimateResult:
    """Batch-means estimate of the steady-state value of query.function
    against query.clock on a single long trajectory."""
    cfg = cfg or EstimatorConfig()
    expr = functions[query.function]
    clock = query.clock
    n, beta = model.n, model.cfg.n_buses
    try:
        clock_kind, clock_patch, _ = parse_state_name(clock, n, beta)
    except SimError:
        clock_kind = None
    if clock_kind not in ("time", "c"):
        raise PropertyError(f"clock must be 'time' or a departure counter c_j of the "
                            f"{n}-patch model, got {clock!r}")
    states = [parse_state_name(name, n, beta) for name in _state_names(expr, functions)]
    patches = {j for _, j, _ in states if j} | ({clock_patch} if clock_patch else set())
    sim = Simulator(model, seed=seed, replication=replication,
                    hour_ticks=any(kind == "H" for kind, _, _ in states))
    f = compile_expr(expr, sim.reader, {"mu_tot": model.mu_tot}, functions)
    warmup = cfg.warmup_time if cfg.warmup_time is not None else 10.0 * model.r
    chunk = cfg.chunk_time if cfg.chunk_time is not None else 20.0 * model.r
    acc = _Accumulator()
    add = acc.add
    last = max(0.0, warmup)  # time of the previous event past the warm-up (time clock)
    skipped = 0
    deadline = _time.monotonic() + cfg.wall_budget

    if clock == "time":
        # the state x_{i-1} holds over (t_{i-1}, t_i]: weight t_i - t_{i-1}
        def observer(ev: Event):
            nonlocal last, skipped
            t = ev.t
            if t <= warmup:
                return
            w = t - last
            if w > 0:
                try:
                    add(w, f(last))
                except UndefinedSample:
                    skipped += 1
            last = t
    else:
        # the counter steps by one at each departure from its patch
        def observer(ev: Event):
            nonlocal skipped
            t = ev.t
            if t <= warmup:
                return
            if ev.patch == clock_patch and ev.kind == "dep":
                try:
                    add(1.0, f(t))
                except UndefinedSample:
                    skipped += 1

    from scipy.special import stdtrit  # the t quantile, without loading scipy.stats

    tcrit = stdtrit(cfg.batches - 1, 0.975)
    truncated = False
    estimate, halfwidth, rel = None, math.inf, math.inf
    used_batches = 0
    total_clock = 0.0
    cap = math.inf if cfg.max_sim_time is None else cfg.max_sim_time
    for chunks in itertools.count(1):
        end = min(chunks * chunk, cap)  # absolute, so the cap is exact
        sim.run(observer, until_time=end)
        bm = acc.batch_means(cfg.batches)
        if bm is not None:
            means, total_clock = bm
            used_batches = len(means)
            dev = means - means[0]  # identical batch means give sd exactly 0
            estimate = float(means[0] + dev.mean())
            halfwidth = tcrit * float(dev.std(ddof=1)) / math.sqrt(used_batches)
            rel = halfwidth / abs(estimate) if estimate != 0.0 else (
                0.0 if halfwidth == 0.0 else math.inf)
            # an all-zero F stream is "event not yet observed": keep simulating
            # until the time or wall budget runs out, as the tables do
            if acc.nonzero_f and acc.n >= MIN_SAMPLES and rel <= cfg.rel_halfwidth_target:
                break
        if end >= cap:
            break
        if _time.monotonic() > deadline:
            truncated = True
            break
        if clock != "time" and end > warmup + 100 * chunk and acc.n == 0:
            raise PropertyError(f"clock {clock!r} never advances")

    event_observed = acc.nonzero_f and acc.n > 0
    verdict = _verdict(estimate, halfwidth, query.threshold, event_observed)
    return EstimateResult(estimate, halfwidth, rel, used_batches, total_clock, sim.t, verdict,
                          event_observed, skipped, truncated, query,
                          patches.pop() if len(patches) == 1 else None)


def _state_names(expr, functions):
    """The names expr reads, itself or through the functions it calls."""
    for e in _subterms(expr):
        if isinstance(e, Rval):
            yield e.name
        elif isinstance(e, Call):
            yield from _state_names(functions[e.name], functions)


def _verdict(estimate, halfwidth, threshold, event_observed) -> str:
    if estimate is None or not event_observed:
        return "undecided"
    if estimate + halfwidth < threshold:
        return "satisfied"
    if estimate - halfwidth >= threshold:
        return "violated"
    return "undecided"


def check_assertions(model: SimModel, prop: PropertyFile, cfg: EstimatorConfig | None = None,
                     seed: int | None = None) -> list[EstimateResult]:
    """Evaluate every assertion, each on its own trajectory.  The generator
    stream is (seed, replication) with replication the assertion's index in
    `prop`, so the assertions of one file see independent trajectories, but
    a caller that passes one assertion per file, as the CLI's `check` does,
    replays the same (seed, 0) trajectory for every assertion."""
    results = []
    for idx, q in enumerate(prop.assertions):
        results.append(estimate_steady_state(model, q, prop.functions, cfg,
                                             seed=seed, replication=idx))
    return results


def ewt_query(patch: int, threshold: float = 75.0) -> str:
    return (f'ewt() = 0.5 * (s.rval("y_{patch}") - mu_tot) '
            f'* (s.rval("y_{patch}") - mu_tot) / mu_tot;\n'
            f'S [ ewt(), "c_{patch}" ] < {threshold};\n')


def evwt_query(patch: int, threshold: float = 0.05) -> str:
    return (f'evwt() = if {{s.rval("y_{patch}") > 900}} then 1 else 0 fi;\n'
            f'S [ evwt(), "c_{patch}" ] < {threshold};\n')


def bph_query(patch: int, threshold: float = 0.05) -> str:
    return (f'bph() = if {{s.rval("H_{patch}") < 6}} then 1 else 0 fi;\n'
            f'S [ bph(), "time" ] < {threshold};\n')


def headway_query(patch: int, threshold: float = 1e9) -> str:
    return (f'headway() = s.rval("y_{patch}");\n'
            f'S [ headway(), "c_{patch}" ] < {threshold};\n')


def write_results_tsv(results: list[EstimateResult], path: str,
                      labels: list[str] | None = None) -> None:
    rows = [("assertion", "patch", "estimate", "halfwidth", "verdict", "batches", "sim_time")]
    for i, r in enumerate(results):
        label = labels[i] if labels else (r.query.function if r.query else str(i))
        shown = ((f"{r.estimate:.6g}", f"{r.halfwidth:.3g}", r.verdict)
                 if r.event_observed and r.estimate is not None else ("-", "-", "-"))
        rows.append((label, r.patch or "", *shown, r.batches, f"{r.sim_time:.0f}"))
    write_lines(path, rows, "\t")

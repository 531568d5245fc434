"""Quantitative temporal property language and steady-state estimation.

The language is the steady-state fragment: zero-argument function definitions
over arithmetic, comparisons, if-then-else and s.rval("NAME") state queries,
plus assertions  S [ f(), "C" ] < p;  asserting that the long-run average of
f against the clock C stays below p.  The estimate accumulates
(C(t_i) - C(t_{i-1})) * F(x_{i-1}) over the sample points of one long
trajectory after a warmup, normalized by the total clock increment, and
evaluates it with non-overlapping batch means; at each chunk end the run
stops when the relative 95% confidence half-width has reached the target,
the simulated time its cap, or the wall-clock time the budget (see
EstimatorConfig).  Batches carry equal clock weight, so the mean of the
batch means equals sum(w*F)/sum(w).  The batches are cut from prefix sums
stored at every stride-th sample; on long runs the stride doubles whenever
the stored spans reach a limit (as the batch size doubles in LBATCH and
dynamic batch means), which bounds memory.

The estimator works a chunk at a time, as MultiVeStA evaluates a query over
a whole run: `Simulator.run` hands it the chunk's departures as columns, and
F is evaluated at all of the chunk's sample points at once, with numpy.
The state a query reads is derived from the departures before a point,
together with what `_History` carries from earlier chunks: the last
departure per patch and per (patch, bus), the departure counts and, for
H_j, the departures of the last hour.  H_j at time t counts the buses whose
latest departure b from j has b + HOUR > t.  Let P be the patches the query
reads: every state name's patch, and the clock's.  The sample points are:

* clock c_j: each departure from j, read at its time in the state it finds
  (the departures before it);
* clock time: the boundaries, where the state changes.  Over c_j and H_j
  states only, these are the departures from P and, for H_j, the hour
  expiries b + HOUR of those departures once they fall due (at or before
  the chunk end).  A query that reads no state, or that reads time, y_j or
  z_i_j, takes every departure instead, and with H_j every departure's
  expiry.  The state after a boundary a holds until the next boundary b and
  is one sample of weight b - a, read at a.  An expiry at a departure's time
  takes effect before the departure.

So on a c_j clock, and on the time clock over c_j and H_j only, the sample
points are changes of P's state, and `Simulator.run(patches=P)` hands over
only the departures from P, in the order the full run makes them: the
others could change no sample.  Every other query gets every departure.

Evaluation is strict per sample, as if each were evaluated alone: only the
taken branch of an if-then-else counts, an infinite read on a sample's path
skips that sample, and a zero divisor raises EvalError only on a sample
whose path reaches it with every earlier operand defined.
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
from .simulate import Departures, SimModel, Simulator


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
    """evaluate_expr read an infinite value on the taken path: the sample
    is undefined, and the estimator would skip it."""


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


# binary operators by level, loosest first: comparisons, additive, multiplicative
_PRECEDENCE = (("<", ">", "<=", ">=", "=="), ("+", "-"), ("*", "/"))


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
        lines: dict[str, int] = {}
        assertions: list[SteadyStateQuery] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "S":
                assertions.append(self.parse_assertion())
            elif tok.kind == "ident":
                name, expr = self.parse_def()
                if name in functions:
                    raise ParseError(f"function {name!r} defined twice, first at line {lines[name]}",
                                     tok.line, tok.col)
                functions[name], lines[name] = expr, tok.line
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

    def parse_expr(self, level: int = 0):
        """Binary operators of _PRECEDENCE[level] and tighter, each level
        left-associative over the next."""
        if level == len(_PRECEDENCE):
            return self.parse_unary()
        left = self.parse_expr(level + 1)
        while self.peek().text in _PRECEDENCE[level]:
            op = self.next().text
            left = Binary(op, left, self.parse_expr(level + 1))
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


# the patch placeholder of a per-patch template: the suffix `_j` of y_j,
# c_j, H_j or z_i_j; a text without one is not a template
PATCH_PLACEHOLDER = re.compile(r"\b(y|c|H|z_[0-9]+)_j\b")


def expand_per_patch(text: str, patches: list[int]) -> dict[int, str]:
    """Substitute each requested patch index for the PATCH_PLACEHOLDER."""
    return {j: PATCH_PLACEHOLDER.sub(lambda m: f"{m.group(1)}_{j}", text) for j in patches}


# --- evaluation ---------------------------------------------------------------

def compile_expr(expr, constants: dict[str, float] | None = None,
                 functions: dict[str, object] | None = None,
                 ) -> Callable[[Callable[[str], np.ndarray], int], tuple[np.ndarray, np.ndarray]]:
    """Turn an expression into a function over the sample points of a chunk,
    once: f(read, size) -> (values, defined).

    `read(name)` gives the value of a state name at each of the `size`
    sample points, as a float array; f calls it once for every name in the
    expression, taken branch or not.  A name in `constants` is a constant.
    Each sample is evaluated as the scalar path would, with numpy: left
    operand first, comparisons yielding 1.0/0.0, and only the taken branch
    of an if-then-else.  An infinite read on a sample's path marks the
    sample undefined (defined is False there) and ends its evaluation; a
    zero divisor on a sample's path, with every operand before it defined,
    raises EvalError."""
    constants = constants or {}
    functions = functions or {}
    names: list[str] = []

    # each term compiles to node(ctx, live), its value at every sample
    # point, though only the samples in `live` (a mask; None for all) take
    # the branches that reach it.  A sample marked undefined stays so: the
    # terms after it still compute a value there, which is discarded.
    def comp(e):
        if isinstance(e, Num) or (isinstance(e, Rval) and e.name in constants):
            c = e.value if isinstance(e, Num) else constants[e.name]
            return lambda ctx, live: c
        if isinstance(e, Rval):
            name = e.name
            if name not in names:
                names.append(name)

            def rval(ctx, live):
                v = ctx.values[name]
                bad = np.isinf(v)
                ctx.undefined |= bad if live is None else bad & live
                return v
            return rval
        if isinstance(e, Call):
            return comp(functions[e.name])
        if isinstance(e, Unary):
            f = comp(e.operand)
            return lambda ctx, live: -f(ctx, live)
        if isinstance(e, IfThenElse):
            return _if(comp(e.cond), comp(e.then), comp(e.other))
        if isinstance(e, Binary) and e.op == "/":
            return _divide(comp(e.left), comp(e.right))
        if isinstance(e, Binary) and e.op in _BINARY:
            op, a, b = _BINARY[e.op], comp(e.left), comp(e.right)
            return lambda ctx, live: op(a(ctx, live), b(ctx, live))
        raise EvalError(f"cannot evaluate node {e!r}")

    root = comp(expr)

    def evaluate(read: Callable[[str], np.ndarray], size: int):
        ctx = _Samples({name: read(name) for name in names}, np.zeros(size, dtype=bool))
        with np.errstate(all="ignore"):  # values off a sample's path are discarded
            v = root(ctx, None)
        return np.broadcast_to(np.asarray(v, dtype=float), (size,)), ~ctx.undefined

    return evaluate


@dataclass
class _Samples:
    values: dict[str, np.ndarray]  # each state name read, at every sample point
    undefined: np.ndarray  # samples whose path met an infinite read


def _divide(a, b):
    def div(ctx, live):
        x = a(ctx, live)
        y = b(ctx, live)
        # the samples that reach the divisor with every operand so far
        # defined: terms are evaluated in the scalar path's order
        zero = np.equal(y, 0.0) & ~ctx.undefined
        if np.any(zero if live is None else zero & live):
            raise EvalError("division by zero")
        return np.divide(x, y)
    return div


def _if(cond, then, other):
    def choose(ctx, live):
        take = np.not_equal(cond(ctx, live), 0.0)
        if take.ndim == 0:  # a constant condition: one branch for every sample
            return then(ctx, live) if take else other(ctx, live)
        return np.where(take, then(ctx, take if live is None else take & live),
                        other(ctx, ~take if live is None else ~take & live))
    return choose


def _compare(op):
    return lambda x, y: np.where(op(x, y), 1.0, 0.0)


# each entry applies an operator to its evaluated operands
_BINARY = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "<": _compare(np.less),
    ">": _compare(np.greater),
    "<=": _compare(np.less_equal),
    ">=": _compare(np.greater_equal),
    "==": _compare(np.equal),
}


def evaluate_expr(expr, rval, constants: dict[str, float] | None = None,
                  functions: dict[str, object] | None = None) -> float:
    """One evaluation of expr, reading state names through rval(name): the
    compiled function at a single sample point.  An infinite read on the
    taken path raises UndefinedSample."""
    values, defined = compile_expr(expr, constants, functions)(
        lambda name: np.array([rval(name)], dtype=float), 1)
    if not defined[0]:
        raise UndefinedSample("an infinite read on the taken path")
    return float(values[0])


# --- steady-state estimation ---------------------------------------------------

MIN_SAMPLES = 64  # samples a run needs before the half-width target may stop it
HOUR = 3600.0  # the trailing window of H_j

# y_j, H_j, c_j (one index) and z_i_j (two)
_STATE_NAME = re.compile(r"([yzHc])_([0-9]+)(?:_([0-9]+))?")


def parse_state_name(name: str, n: int, beta: int) -> tuple[str, int, int]:
    """(kind, patch j, bus i) of a state name of a model with n patches and
    beta buses: time and mu_tot have j = i = 0; y_j, H_j and c_j have i = 0.
    An unknown or out-of-range name raises PropertyError."""
    if name in ("time", "mu_tot"):
        return name, 0, 0
    m = _STATE_NAME.fullmatch(name)
    if m is not None:
        kind, first, second = m.groups()
        j, bus = (int(second), int(first)) if second else (int(first), 0)
        if (kind == "z") == bool(second) and 1 <= j <= n and (not second or 1 <= bus <= beta):
            return kind, j, bus
    raise PropertyError(f"unknown state quantity {name!r}")


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
        for name in ("warmup_time", "max_sim_time", "rel_halfwidth_target"):
            value = getattr(self, name)
            if value is not None and not value >= 0:  # NaN too
                raise PropertyError(f"{name} must be >= 0, got {value}")
        if math.isnan(self.wall_budget):  # the run would never stop
            raise PropertyError("wall_budget must be a number, got nan")
        # no sample passes an infinite warm-up; an infinite max_sim_time is no cap
        if self.warmup_time == math.inf:
            raise PropertyError("warmup_time must be finite, got inf")


@dataclass
class EstimateResult:
    estimate: float | None
    halfwidth: float
    rel_halfwidth: float
    batches: int
    total_clock: float
    # the later of the last departure simulated, from any patch, and the
    # last boundary of the query (with H_j, the expiry of a departure it reads)
    sim_time: float
    verdict: str  # satisfied | violated | undecided
    event_observed: bool
    skipped_samples: int = 0
    truncated: bool = False  # the wall budget ran out before the target or the cap
    query: SteadyStateQuery | None = None
    patch: int | None = None  # the one patch the clock and function read, if one


class _Accumulator:
    """Weighted samples (C increment w, F value f), kept as running prefix
    sums thinned to every `stride`-th sample.

    The rows cw and cg hold the prefix sums of w and of w * (f - ref), ref
    the first f, at sample 0, at every stride-th sample and at the last one;
    m holds the mean of F over each span between two entries: at stride 1,
    each sample is a span and m is its f.  A chunk continues the sums from
    the last entry with the very additions of a sum over all the samples, so
    the entries do not depend on the chunking; it costs its own length, and
    a cut O(batches log N).  Each time `limit` (>= 2) spans are stored, the
    stride doubles and every other entry is dropped, the last one staying:
    each span but the last covers `stride` samples, and a merged span's mean
    is ref + dcg/dcw.  Memory stays bounded, and a constant F stays exact."""

    def __init__(self, limit: int = 1 << 20):
        self.rows = [np.zeros(1) for _ in range(3)]  # cw, cg and m, with room to grow
        self.size = 1  # entries stored: the spans + 1
        self.n = 0  # samples added
        self.stride = 1
        self.ref = 0.0
        self.nonzero_f = False
        self.limit = limit

    def _resize(self, size: int) -> list[np.ndarray]:
        """Resize to `size` entries, keeping the current ones; returns the rows."""
        rows = self.rows
        if size > len(rows[0]):
            cap = min(max(2 * len(rows[0]), size), self.limit + 1)
            for k, row in enumerate(rows):  # one at a time, so one old array is kept
                rows[k] = np.empty(cap)
                rows[k][:self.size] = row[:self.size]
        self.size = size
        return rows

    def add_chunk(self, w: np.ndarray, f: np.ndarray):
        """Add the samples (w[k], f[k]) in order, every w[k] > 0: the same
        entries, bit for bit, as adding them one at a time."""
        if len(w) == 0:
            return
        if self.n == 0:
            self.ref = float(f[0])
        self.nonzero_f = self.nonzero_f or bool(np.any(f != 0.0))
        start, self.n, old = self.n, self.n + len(w), self.stride
        while -(-self.n // self.stride) >= self.limit:  # the spans at this stride
            self.stride *= 2
        # entries at multiples of the stride and at the last sample: the new
        # ones counted in samples past `start`, the old ones kept up to it
        stride, last = self.stride, self.size - 1
        at = np.arange(stride - start % stride, len(w) + 1, stride)
        if self.n % stride:
            at = np.append(at, len(w))
        kept, step = start // stride + 1, stride // old
        cw, cg, m = self._resize(kept + len(at))
        for row, inc in ((cw, w), (cg, w * (f - self.ref))):
            prefix = np.add.accumulate(np.concatenate((row[last:last + 1], inc)))
            if step > 1:
                row[:kept] = row[:kept * step:step]
            row[kept:self.size] = prefix[at]
        if stride == 1:
            m[start:self.n] = f
        else:
            first = 0 if step > 1 else kept - 1  # the first span that changed
            m[first:self.size - 1] = self.ref + (np.diff(cg[first:self.size])
                                                 / np.diff(cw[first:self.size]))

    def batch_means(self, k: int):
        """(means of F over k batches of equal clock weight, the total clock
        weight), or None before k samples.  The batches are cut at exact
        multiples of total/k; a span cut by an edge lends its mean to both
        sides in proportion to its weight on each, so the mean of the batch
        means equals sum(w*f)/sum(w)."""
        if self.n < k:
            return None
        cw, cg, m = (row[:self.size] for row in self.rows)
        total = float(cw[-1])
        edges = total * np.arange(k + 1) / k
        edges[-1] = total
        i = np.clip(np.searchsorted(cw, edges, side="right") - 1, 0, self.size - 2)
        g = cg[i] + (edges - cw[i]) * (m[i] - self.ref)  # integral of (F - ref) up to each edge
        return self.ref + np.diff(g) / np.diff(edges), total


class _History:
    """What the estimator keeps of the departure stream it is handed (see
    the module docstring: every departure, or those from P) between chunks:
    the last departure from each patch and by each bus from each patch
    (-inf before the first), the departure counts, the time of the last
    boundary processed, and, when the query reads H_j, the hour expiries
    b + HOUR of the departures whose expiry is not yet due.  The departures
    come in time order, so the last departure from a patch, or by a bus
    from a patch, is the latest: a chunk moves them on with np.maximum.at."""

    def __init__(self, n: int, beta: int, expiries: bool):
        self.last = np.full(n + 1, -np.inf)
        self.last_bus = np.full((n + 1, beta), -np.inf)
        self.count = np.zeros(n + 1, dtype=np.int64)
        self.expiries = np.empty(0) if expiries else None
        self.time = 0.0

    def next(self, deps: Departures, end: float) -> _Chunk:
        """The chunk of `deps`, the departures up to `end`, read on top of
        the state carried in; the history moves on past it.  Without hour
        expiries the boundaries are the departure times with repeats
        dropped; with them, the two are merged and sorted."""
        t, patch, bus = deps.t, deps.patch, deps.bus
        if self.expiries is not None:
            x = np.concatenate((self.expiries, t + HOUR))
            due = x <= end
            bounds = np.unique(np.concatenate((t, x[due])))
            self.expiries = x[~due]
        else:
            bounds = t[np.concatenate(([True], t[1:] != t[:-1]))] if len(t) else t
        chunk = _Chunk(deps, bounds, self.last.copy(), self.last_bus.copy(), self.count.copy())
        if len(bounds):
            self.time = max(self.time, float(bounds[-1]))
        if len(t):
            np.maximum.at(self.last, patch, t)
            np.maximum.at(self.last_bus.reshape(-1), patch * self.last_bus.shape[1] + bus - 1, t)
            self.count += np.bincount(patch, minlength=len(self.count))
        return chunk


@dataclass
class _Chunk:
    """One chunk of departures and the state carried in before it.
    `boundaries` are the distinct times, ascending, at which the state
    changes in the chunk: each departure and, when H_j is read, each hour
    expiry b + HOUR that falls due in it (at or before its end)."""

    deps: Departures
    boundaries: np.ndarray
    last: np.ndarray
    last_bus: np.ndarray
    count: np.ndarray

    def reader(self, at: np.ndarray, before: np.ndarray) -> Callable[[str], np.ndarray]:
        """read(name): the value of a state name at each sample point k: at
        time at[k], in the state the carried one plus the chunk's first
        before[k] departures make.  The points come in order: neither at
        nor before ever decreases.  y_j and z_i_j read infinity before the
        departure they measure from."""
        t, patch, bus = self.deps.t, self.deps.patch, self.deps.bus
        n, beta = len(self.last) - 1, self.last_bus.shape[1]

        def latest(rows, carried):
            # the latest departure among `rows` before each sample, else the carried one
            return np.concatenate(([carried], t[rows]))[np.searchsorted(rows, before)]

        def read(name: str) -> np.ndarray:
            kind, j, i = parse_state_name(name, n, beta)
            if kind == "time":
                return at
            rows = np.flatnonzero(patch == j)
            if kind == "y":
                return at - latest(rows, self.last[j])
            if kind == "c":
                return (self.count[j] + np.searchsorted(rows, before)).astype(float)
            if kind == "z":
                return at - latest(rows[bus[rows] == i], self.last_bus[j, i - 1])
            if kind == "H":
                # a bus counts from the first sample that reads its latest
                # departure from j, the carried one or one in the chunk,
                # until the first sample at or past its expiry b + HOUR, or
                # until the sample that reads its next departure from j
                who = np.concatenate((np.arange(beta), bus[rows] - 1))
                start = np.concatenate((np.zeros(beta, dtype=np.int64),
                                        np.searchsorted(before, rows, side="right")))
                stop = np.searchsorted(at, np.concatenate((self.last_bus[j], t[rows])) + HOUR)
                order = np.argsort(who, kind="stable")  # by bus, each bus's in time order
                same = who[order[1:]] == who[order[:-1]]
                prev, nxt = order[:-1][same], order[1:][same]
                stop[prev] = np.minimum(stop[prev], start[nxt])
                live = start < stop
                steps = (np.bincount(start[live], minlength=len(at) + 1)
                         - np.bincount(stop[live], minlength=len(at) + 1))
                return np.cumsum(steps[:-1]).astype(float)
            raise PropertyError(f"{name!r} is not read from the departures")
        return read


_Z975 = 1.959963984540054  # the standard normal 0.975 quantile


def _t975(df: int) -> float:
    """The 0.975 quantile of Student's t with df >= 1 degrees of freedom.

    For integer df, P(|T| <= t) is a finite sum in c2 = cos^2(atan(t/sqrt(df)))
    (Abramowitz & Stegun 26.7.3 for odd df, 26.7.4 for even); each power of
    c2 comes from log1p, as a float c2 near 1 would carry its rounding into
    every power.  Newton's method solves P(|T| <= t) = 0.95 from a start
    below the root, where the CDF is concave, so every step climbs; it stops
    once a step no longer raises t.  Within 1e-14 relative of the exact
    quantile for the df checked in the tests; O(df) per CDF evaluation."""
    odd = df % 2
    log_scale = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    t = _Z975 + (_Z975 ** 3 + _Z975) / (4 * df)  # Cornish-Fisher, first term: below the root
    while True:
        r2 = df + t * t
        log_c2 = math.log1p(-t * t / r2)
        total = coef = float(df > 1)  # df // 2 terms, none for df = 1
        for k in range(1, df // 2):
            coef = coef * (2 * k - 1 + odd) / (2 * k + odd)
            total += coef * math.exp(k * log_c2)
        if odd:
            cdf = 2 / math.pi * (math.atan(t / math.sqrt(df)) + t * math.sqrt(df) / r2 * total)
        else:
            cdf = t / math.sqrt(r2) * total
        density = math.exp(log_scale + (df + 1) / 2 * log_c2)
        nxt = t + (0.95 - cdf) / (2 * density)
        if not nxt > t:
            return t
        t = nxt


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
    except PropertyError:
        clock_kind = None
    if clock_kind not in ("time", "c"):
        raise PropertyError(f"clock must be 'time' or a departure counter c_j of the "
                            f"{n}-patch model, got {clock!r}")
    states = [parse_state_name(name, n, beta) for name in _state_names(expr, functions)]
    patches = {j for _, j, _ in states if j} | ({clock_patch} if clock_patch else set())
    # the sample points are changes of the state of `patches` alone (see
    # the module docstring): the run then hands over only their departures
    kinds = {kind for kind, _, _ in states} - {"mu_tot"}
    own = clock_kind == "c" or (bool(kinds) and kinds <= {"c", "H"})
    handed = sorted(patches) if own else None
    sim = Simulator(model, seed=seed, replication=replication)
    history = _History(n, beta, expiries=any(kind == "H" for kind, _, _ in states))
    f = compile_expr(expr, {"mu_tot": model.mu_tot}, functions)
    warmup = cfg.warmup_time if cfg.warmup_time is not None else 10.0 * model.r
    chunk_time = cfg.chunk_time if cfg.chunk_time is not None else 20.0 * model.r
    acc = _Accumulator()
    last = max(0.0, warmup)  # the last boundary past the warm-up (time clock)
    skipped = 0
    deadline = _time.monotonic() + cfg.wall_budget
    tcrit = _t975(cfg.batches - 1)
    truncated = False
    estimate, halfwidth, rel = None, math.inf, math.inf
    used_batches = 0
    total_clock = 0.0
    cap = math.inf if cfg.max_sim_time is None else cfg.max_sim_time
    for chunks in itertools.count(1):
        end = min(chunks * chunk_time, cap)  # absolute, so the cap is exact
        chunk = history.next(sim.run(until_time=end, patches=handed), end)
        t = chunk.deps.t
        if clock == "time":
            # the state after the boundary a holds until the next boundary b:
            # one sample of weight b - a, read at a
            b = chunk.boundaries[chunk.boundaries > warmup]
            at = np.concatenate(([last], b[:-1]))
            w = b - at
            if len(b):
                last = float(b[-1])
            at, w = at[w > 0], w[w > 0]
            before = np.searchsorted(t, at, side="right")
        else:
            # the counter steps by one at each departure from its patch,
            # read in the state the departure finds
            before = np.flatnonzero((chunk.deps.patch == clock_patch) & (t > warmup))
            at, w = t[before], np.ones(len(before))
        if len(at):
            values, defined = f(chunk.reader(at, before), len(at))
            skipped += len(at) - int(np.count_nonzero(defined))
            acc.add_chunk(w[defined], values[defined])
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
        if clock != "time" and end > warmup + 100 * chunk_time and acc.n == 0:
            raise PropertyError(f"clock {clock!r} never advances")

    event_observed = acc.nonzero_f and acc.n > 0
    verdict = _verdict(estimate, halfwidth, query.threshold, event_observed)
    return EstimateResult(estimate, halfwidth, rel, used_batches, total_clock,
                          max(sim.t, history.time), verdict, event_observed, skipped,
                          truncated, query, patches.pop() if len(patches) == 1 else None)


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
    """Evaluate every assertion, each on its own trajectory.  Its streams
    are (seed, replication) with replication the assertion's index in
    `prop`: one generator per bus, [seed, replication, bus], in every run,
    aggregated or phased (see simulate).  So the assertions of one file see
    independent trajectories, but a caller that passes one assertion per
    file, as the CLI's `check` does, replays the same (seed, 0) trajectory
    for every assertion."""
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
    """One row per assertion; `truncated` is yes where the wall budget ran
    out before the target or the cap, so a blank estimate then means "cut
    short", not "event never observed"."""
    rows = [("assertion", "patch", "estimate", "halfwidth", "verdict", "batches", "sim_time",
             "truncated")]
    for i, r in enumerate(results):
        label = labels[i] if labels else (r.query.function if r.query else str(i))
        shown = ((f"{r.estimate:.6g}", f"{r.halfwidth:.3g}", r.verdict)
                 if r.event_observed and r.estimate is not None else ("-", "-", "-"))
        rows.append((label, r.patch or "", *shown, r.batches, f"{r.sim_time:.0f}",
                     "yes" if r.truncated else "no"))
    write_lines(path, rows, "\t")

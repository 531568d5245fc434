"""Per-patch crossing-time extraction and phase-type distribution fitting.

Crossing times come from route-completion fractions interpolated to 1-second
granularity between consecutive records of one vehicle.  A per-vehicle timer
emits a duration at every forward patch boundary crossing; the timer is
poisoned (suppressing the next observation) by backward crossings and by
trace gaps (`ingest.is_gap`: more than 5 minutes or a straight-line jump of
more than 5 km between records), and recovers at the next forward crossing.
The pass works on each vehicle's `compute_fractions` rows as arrays: every
record pair against every boundary at once, and the timer as a running count
of poisoning pairs, so a crossing observes the time since the previous one
when no pair between them poisoned it.

Erlang fitting follows the moment-matched likelihood scan: lambda = k / mean,
k increased from 1 until the log-likelihood first drops, previous k returned.
The hyper-Erlang fit is a deterministic multi-start EM with one loop: its
E-step and the reported log-likelihood share one computation of the
per-branch log densities, and its M-step applies the same scan to
responsibility-weighted statistics, keeping a branch unchanged when the scan's
objective would fall.  A fit capped at max_iter iterations is the EM state
after that many steps, which is how the log-likelihood's monotonicity is
tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_lines, write_lines
from .ingest import distances, is_gap
from .patches import PatchStructure, compute_fractions


class FitError(ValueError):
    pass


K_CAP = 10000


@dataclass(frozen=True)
class ErlangParams:
    k: int
    rate: float

    def __post_init__(self):
        if self.k < 1 or self.rate <= 0:
            raise FitError("need k >= 1 and rate > 0")

    @property
    def mean(self) -> float:
        return self.k / self.rate

    @property
    def sd(self) -> float:
        return math.sqrt(self.k) / self.rate

    @property
    def cv(self) -> float:
        return 1.0 / math.sqrt(self.k)


@dataclass(frozen=True)
class HyperErlangParams:
    shapes: tuple[int, ...]
    rates: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.shapes) == len(self.rates) == len(self.weights)):
            raise FitError("branch arrays must have equal length")
        if any(k < 1 for k in self.shapes) or any(r <= 0 for r in self.rates):
            raise FitError("need k_i >= 1 and rate_i > 0")
        if any(w <= 0 for w in self.weights) or abs(sum(self.weights) - 1.0) > 1e-9:
            raise FitError("weights must be positive and sum to 1")

    @property
    def m(self) -> int:
        return len(self.shapes)

    @property
    def mean(self) -> float:
        return sum(a * k / r for a, k, r in zip(self.weights, self.shapes, self.rates))


Distribution = ErlangParams | HyperErlangParams


def dist_cdf(dist: Distribution, t) -> np.ndarray:
    """The CDF at t, 0 below 0, evaluated once per distinct value of t
    (crossing times are whole seconds, so samples repeat them)."""
    t = np.asarray(t, dtype=np.float64)
    x, at = np.unique(np.maximum(t, 0.0), return_inverse=True)
    if isinstance(dist, ErlangParams):
        out = _erlang_cdf(dist.k, dist.rate * x)
    else:
        out = np.zeros_like(x)
        for a, k, r in zip(dist.weights, dist.shapes, dist.rates):
            out += a * _erlang_cdf(k, r * x)
    return out[at].reshape(t.shape)


# a term below this fraction of a sum's first term no longer moves the sum
_LOG_NEGLIGIBLE = -60 * math.log(2.0)
# cells of the terms matrix computed at once
_TERMS_BLOCK = 1 << 16


def _erlang_cdf(k: int, x: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma function P(k, x) for an integer
    k >= 1 and x >= 0, the Erlang(k, 1) CDF at x.

    Below x = k + 1 it sums the series P = x^k e^-x / k! * sum_n>=0 x^n /
    ((k+1)...(k+n)); from there on the finite Poisson sum Q = 1 - P = e^-x *
    sum_n<k x^n / n!, from n = k - 1 downward, where its terms are largest.
    Either way the terms fall off, and the sum stops where they become
    negligible (`_first_term_times_sum`)."""
    p = (x == np.inf).astype(np.float64)
    p[np.isnan(x)] = np.nan
    # Past term m = 10 sqrt(k) + 60 of either sum, counted from its first,
    # the terms are negligible for every x of its branch.
    m = np.arange(1.0, 10 * math.sqrt(k) + 61)
    series = (x > 0) & (x < k + 1)
    if series.any():
        # term m / term 0 = x^m / ((k+1)...(k+m))
        p[series] = _first_term_times_sum(k, x[series], k, m, np.log1p(m / k), +1.0)
    poisson = (x >= k + 1) & (x < np.inf)
    if poisson.any():
        # term k-1-m / term k-1 = (k-1)...(k-m) / x^m
        m = m[:k - 1]
        p[poisson] = 1.0 - _first_term_times_sum(k - 1, x[poisson], k, m, np.log1p(-m / k), -1.0)
    return p


def _first_term_times_sum(n: int, x: np.ndarray, k: int, m: np.ndarray,
                          log_steps: np.ndarray, sign: float) -> np.ndarray:
    """x^n e^-x / n! * (1 + the sum over m of exp(sign * (m log(x/k) - C_m))),
    C_m the sum of the first m of log_steps, per element of x.  Each exponent
    is below 0 and falls with m; the terms stop at the first that is
    negligible where they fall slowest.  Centring the logarithms on k keeps
    their rounding error far below the terms' size."""
    out = np.exp(n * np.log(x) - x - math.lgamma(n + 1))
    if not m.size:
        return out
    log_ratio = np.log(x / k)
    c = np.cumsum(log_steps)
    worst = log_ratio.max() if sign > 0 else log_ratio.min()
    size = int(np.searchsorted(sign * (c - m * worst), -_LOG_NEGLIGIBLE)) + 1
    m, c = m[:size], c[:size]
    block = max(1, _TERMS_BLOCK // m.size)
    for lo in range(0, x.size, block):
        e = np.multiply.outer(log_ratio[lo:lo + block], m)
        e -= c
        if sign < 0:
            np.negative(e, out=e)
        np.exp(e, out=e)
        out[lo:lo + block] *= 1.0 + e.sum(axis=1)
    return out


# --- crossing time extraction -------------------------------------------

def extract_crossing_times(ts, rm, ps: PatchStructure):
    """Per-patch crossing-time observations.

    Equivalent to walking interpolated fractions second by second: boundary
    crossing times are computed analytically per record pair and snapped up to
    the whole-second grid, which a unit test checks against a literal 1-second
    walker.  Each vehicle's record pairs are handled as arrays
    (`_observations`).  Returns {patch index: [durations]}, each list in
    vehicle order and, within a vehicle, in time order."""
    fractions, _ = compute_fractions(ts, rm)
    bounds = np.asarray(ps.breakpoints[1:])  # b_1 .. b_{n-1}, 1.0
    found = [_observations(rows, bounds) for rows in fractions.values()]
    patch = np.concatenate([np.empty(0, dtype=np.int64), *(j for j, _ in found)])
    duration = np.concatenate([np.empty(0), *(d for _, d in found)])
    return {j: duration[patch == j].tolist() for j in range(1, ps.n + 1)}


def _observations(rows: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (patch, duration) observations of one vehicle's (n, 4) rows of t,
    fraction, x and y, in time order.

    A pair of consecutive records poisons the timer when it is a gap, steps
    backward, or jumps forward by more than half the loop (backward jitter
    across the loop origin); a drop of more than half the loop is a forward
    crossing of the origin.  The pair crosses boundary b at rel = b - f1
    (plus 1 past the origin) when 0 < rel <= df, at time t1 + dt * rel / df
    rounded up to the whole second.  Each crossing observes the time since
    the vehicle's previous crossing, unless a pair between the two poisoned
    the timer or the duration is not positive."""
    t, f, x, y = rows.T
    dt, df = np.diff(t), np.diff(f)
    wrapped = df < -0.5
    poisoned = is_gap(dt, distances(np.diff(x), np.diff(y))) | (df > 0.5) | (~wrapped & (df < 0))
    df[wrapped] += 1.0
    rel = bounds - f[:-1, None]
    rel = np.where(wrapped[:, None] & (bounds <= f[:-1, None]), rel + 1.0, rel)
    pair, k = np.nonzero(~poisoned[:, None] & (rel > 0.0) & (rel <= df[:, None]))
    rel = rel[pair, k]
    order = np.lexsort((k, rel, pair))
    pair, k, rel = pair[order], k[order], rel[order]
    sec = np.ceil(t[pair] + dt[pair] * rel / df[pair] - 1e-9)
    duration = np.diff(sec)
    observed = (np.diff(np.cumsum(poisoned)[pair]) == 0) & (duration > 0)
    return k[1:][observed] + 1, duration[observed]


# --- Erlang / hyper-Erlang fitting ---------------------------------------

def _erlang_objective(total_w: float, sum_wx: float, sum_wlogx: float,
                      k: int, rate: float) -> float:
    """Weighted Erlang(k, rate) log-likelihood from the sufficient statistics
    sum w, sum w*x and sum w*log(x).  It runs millions of times in a
    hyper-Erlang fit, so it stays on Python floats and math.lgamma."""
    return (total_w * (k * math.log(rate) - math.lgamma(k))
            + (k - 1) * sum_wlogx - rate * sum_wx)


def _scan_k(total_w: float, sum_wx: float, sum_wlogx: float):
    """Scan k = 1, 2, ..., K_CAP with rate = k / weighted mean; stop at the
    first log-likelihood decrease and return (k, rate, loglik) of the previous step.
    The profile likelihood is unimodal in k, so this is the global optimum."""
    mean = sum_wx / total_w
    if mean <= 0:
        raise FitError("non-positive mean")

    def loglik(k: int) -> float:
        return _erlang_objective(total_w, sum_wx, sum_wlogx, k, k / mean)

    prev = loglik(1)
    k = 1
    while k < K_CAP:
        cur = loglik(k + 1)
        if cur < prev:
            break
        k += 1
        prev = cur
    return k, k / mean, prev


def fit_erlang(obs) -> ErlangParams:
    x = np.asarray(list(obs), dtype=np.float64)
    if x.size < 2:
        raise FitError("need at least 2 observations")
    if np.any(x <= 0):
        raise FitError("all durations must be positive")
    k, rate, _ = _scan_k(float(x.size), float(x.sum()), float(np.log(x).sum()))
    return ErlangParams(k, rate)


def _log_densities(x, logx, shapes, rates, weights) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch weighted log densities log(a_i f_i(x)), one row per branch,
    and the mixture log density log f(x), their log-sum-exp over branches."""
    comp = np.stack([
        math.log(a) + k * math.log(r) + (k - 1) * logx - r * x - math.lgamma(k)
        for a, k, r in zip(weights, shapes, rates)
    ])
    mx = comp.max(axis=0)
    return comp, mx + np.log(np.exp(comp - mx).sum(axis=0))


def fit_hyper_erlang(obs, m: int, seed: int = 0, restarts: int = 10,
                     max_iter: int = 200, tol: float = 1e-9) -> HyperErlangParams:
    """Deterministic multi-start EM for an m-branch hyper-Erlang mixture.

    Branch (k_i, rate_i) are refit each M-step by the moment-matched k-scan on
    responsibility-weighted statistics; a candidate that would lower the
    expected complete-data objective is rejected, which keeps the data
    log-likelihood non-decreasing within a run.  m = 1 reduces exactly to
    fit_erlang.  A run stops after max_iter iterations, when an iteration
    gains less than tol per observation, or when a branch loses all
    responsibility."""
    x = np.asarray(list(obs), dtype=np.float64)
    if m < 1:
        raise FitError("m must be >= 1")
    if x.size < 2 * m:
        raise FitError(f"need at least {2 * m} observations for {m} branches")
    if np.any(x <= 0):
        raise FitError("all durations must be positive")
    if m == 1:
        e = fit_erlang(x)
        return HyperErlangParams((e.k,), (e.rate,), (1.0,))

    logx = np.log(x)
    order = np.argsort(x)
    best: tuple[float, HyperErlangParams] | None = None
    for start in range(restarts):
        rng = np.random.default_rng([seed, start])
        # quantile split, the branch means randomly perturbed after the first start
        edges = np.linspace(0, x.size, m + 1).astype(int)
        shapes, rates, weights = [], [], []
        for b in range(m):
            sel = x[order[edges[b]:edges[b + 1]]]  # at least 2 positive values
            mean_b = float(sel.mean()) * (rng.uniform(0.6, 1.6) if start > 0 else 1.0)
            k0 = max(1, min(K_CAP, round((mean_b / (sel.std() + 1e-9)) ** 2)))
            shapes.append(int(k0))
            rates.append(k0 / mean_b)
            weights.append(sel.size / x.size)

        prev_ll = -math.inf
        for _ in range(max_iter):
            comp, lse = _log_densities(x, logx, shapes, rates, weights)
            ll = float(lse.sum())
            resp = np.exp(comp - lse)
            # M-step
            new_shapes, new_rates, new_weights = [], [], []
            degenerate = False
            for b in range(m):
                w = resp[b]
                tw = float(w.sum())
                if tw < 1e-12:
                    degenerate = True
                    break
                swx = float((w * x).sum())
                swl = float((w * logx).sum())
                k_new, r_new, q_new = _scan_k(tw, swx, swl)
                # guard: never let the M-step lower the expected objective
                if q_new < _erlang_objective(tw, swx, swl, shapes[b], rates[b]):
                    k_new, r_new = shapes[b], rates[b]
                new_shapes.append(k_new)
                new_rates.append(r_new)
                new_weights.append(tw / x.size)
            if degenerate:
                break
            shapes, rates, weights = new_shapes, new_rates, new_weights
            if ll - prev_ll < tol * x.size:
                break
            prev_ll = ll
        total_w = sum(weights)
        weights = [w / total_w for w in weights]
        cand = HyperErlangParams(tuple(shapes), tuple(rates), tuple(weights))
        ll = float(_log_densities(x, logx, shapes, rates, weights)[1].sum())
        if best is None or ll > best[0]:
            best = (ll, cand)
    if best is None:
        raise FitError("EM failed to produce a fit")
    return best[1]


# --- goodness of fit ------------------------------------------------------

@dataclass
class GofReport:
    n_obs: int
    a2: float
    p: float
    mean: float
    sd: float
    cv: float
    skewness: float
    excess_kurtosis: float
    clamped: bool = False


def _ad_asymptotic_p(z: float) -> float:
    """P(A^2_inf > z) for the fully-specified-null limiting distribution
    (Marsaglia & Marsaglia's adinf approximation)."""
    if z <= 0:
        return 1.0
    if z < 2.0:
        f = (math.exp(-1.2337141 / z) / math.sqrt(z)
             * (2.00012 + (0.247105 - (0.0649821 - (0.0347962 - (0.0116720
                - 0.00168691 * z) * z) * z) * z) * z))
    else:
        f = math.exp(-math.exp(1.0776 - (2.30695 - (0.43424 - (0.082433
            - (0.008056 - 0.0003146 * z) * z) * z) * z) * z))
    return min(1.0, max(0.0, 1.0 - f))


def anderson_darling_statistic(u: np.ndarray) -> float:
    u = np.sort(u)
    n = u.size
    i = np.arange(1, n + 1)
    return float(-n - np.mean((2 * i - 1) * (np.log(u) + np.log(1 - u[::-1]))))


def anderson_darling(obs, dist: Distribution) -> GofReport:
    """Anderson-Darling test of the sample against a fitted distribution,
    with the case-0 (fully specified null) asymptotic p-value; the report also
    carries the moment summary used for distribution diagnosis."""
    x = np.asarray(list(obs), dtype=np.float64)
    if x.size < 3:
        raise FitError("need at least 3 observations")
    u = dist_cdf(dist, np.sort(x))
    clamped = bool(np.any(u <= 1e-12) or np.any(u >= 1 - 1e-12))
    u = np.clip(u, 1e-12, 1 - 1e-12)
    a2 = anderson_darling_statistic(u)
    mean = float(x.mean())
    sd = float(x.std(ddof=1))
    m2 = float(((x - mean) ** 2).mean())
    m3 = float(((x - mean) ** 3).mean())
    m4 = float(((x - mean) ** 4).mean())
    skew = m3 / m2 ** 1.5 if m2 > 0 else 0.0
    kurt = m4 / m2 ** 2 - 3.0 if m2 > 0 else 0.0
    return GofReport(int(x.size), a2, _ad_asymptotic_p(a2), mean, sd,
                     sd / mean if mean else math.inf, skew, kurt, clamped)


# --- patch model and implicit timetable -----------------------------------

@dataclass
class PatchModel:
    """Fitted distribution per patch (1-based), plus derived timetable data."""

    dists: list[Distribution]
    means: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not self.means:
            self.means = [d.mean for d in self.dists]

    @property
    def n(self) -> int:
        return len(self.dists)

    def cumulative_means(self) -> list[float]:
        """c_j = sum of means of patches before j (1-based; c_1 = 0)."""
        c = [0.0]
        for mu in self.means[:-1]:
            c.append(c[-1] + mu)
        return c

    def total(self) -> float:
        return sum(self.means)


def fit_patch_model(observations: dict[int, list[float]], branches: int = 1,
                    seed: int = 0) -> tuple[PatchModel, list[int]]:
    """Fit each patch; returns the model and the list of patches that had too
    few observations (those fall back to a unit-mean placeholder and must be
    treated as unreliable)."""
    n = max(observations) if observations else 0
    dists: list[Distribution] = []
    flagged = []
    for j in range(1, n + 1):
        xs = observations.get(j, [])
        if len(xs) < max(2, 2 * branches):
            flagged.append(j)
            dists.append(ErlangParams(1, 1.0))
            continue
        if branches <= 1:
            dists.append(fit_erlang(xs))
        else:
            dists.append(fit_hyper_erlang(xs, branches, seed=seed))
    return PatchModel(dists), flagged


# --- model file I/O -------------------------------------------------------

def write_patch_model(pm: PatchModel, path: str) -> None:
    rows = []
    for j, (d, mu) in enumerate(zip(pm.dists, pm.means), start=1):
        if isinstance(d, ErlangParams):
            rows.append(("patch", j, "erlang", d.k, d.rate, "mu", mu))
        else:
            branches = [v for b in zip(d.shapes, d.rates, d.weights) for v in b]
            rows.append(("patch", j, "hyper", d.m, *branches, "mu", mu))
    write_lines(path, rows)


def read_patch_model(path: str) -> PatchModel:
    dists: list[Distribution] = []
    means: list[float] = []

    def parse(fields):
        if fields[0] != "patch":
            return
        _, j, kind, *params, mu_tag, mu = fields
        if int(j) != len(dists) + 1 or mu_tag != "mu":
            raise ValueError(f"expected 'patch {len(dists) + 1} ... mu MEAN'")
        if kind == "erlang":
            k, rate = params
            dists.append(ErlangParams(int(k), float(rate)))
        elif kind == "hyper":
            m, *branches = params
            if len(branches) != 3 * int(m):
                raise ValueError(f"{m} branches need {3 * int(m)} values, found {len(branches)}")
            dists.append(HyperErlangParams(tuple(int(k) for k in branches[0::3]),
                                           tuple(float(r) for r in branches[1::3]),
                                           tuple(float(a) for a in branches[2::3])))
        else:
            raise ValueError(f"unknown distribution kind {kind!r}")
        means.append(float(mu))

    read_lines(path, parse)
    if not dists:
        raise FitError("empty patch model file")
    return PatchModel(dists, means)


def write_gof_tsv(reports: dict[int, GofReport], path: str) -> None:
    header = ("patch", "n_obs", "A2", "p", "mean", "sd", "cv", "skew", "kurt")
    rows = [(j, g.n_obs, *(f"{v:.6g}" for v in (g.a2, g.p, g.mean, g.sd, g.cv,
                                                g.skewness, g.excess_kurtosis)))
            for j, g in sorted(reports.items())]
    write_lines(path, [header, *rows], "\t")


def write_cdf_comparison(observations: dict[int, list[float]], pm: PatchModel,
                         path_prefix: str, samples: int = 200) -> None:
    """Empirical step points plus fitted CDF samples, one TSV per patch."""
    for j in sorted(observations):
        xs = np.sort(np.asarray(observations[j], dtype=np.float64))
        if xs.size == 0:
            continue
        grid = np.linspace(0, float(xs[-1]) * 1.25, samples)
        rows = [("kind", "x", "F")]
        rows += [("empirical", f"{x:.6g}", f"{i / xs.size:.6g}") for i, x in enumerate(xs, start=1)]
        rows += [("fitted", f"{x:.6g}", f"{F:.6g}") for x, F in zip(grid, dist_cdf(pm.dists[j - 1], grid))]
        write_lines(f"{path_prefix}_patch{j}.tsv", rows, "\t")

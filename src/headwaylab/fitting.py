"""Per-patch crossing-time extraction and phase-type distribution fitting.

Crossing times come from route-completion fractions interpolated to 1-second
granularity between consecutive records of one vehicle.  A per-vehicle timer
emits a duration at every forward patch boundary crossing; the timer is
poisoned (suppressing the next observation) by backward crossings, by gaps of
more than 5 minutes between records, and by straight-line jumps of more than
5 km, and recovers at the next forward crossing.

Erlang fitting follows the moment-matched likelihood scan: lambda = k / mean,
k increased from 1 until the log-likelihood first drops, previous k returned.
The hyper-Erlang fit is a deterministic multi-start EM whose M-step applies
the same scan to responsibility-weighted statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc, gammaln

from .artifacts import fmt_num
from .patches import PatchStructure, compute_fractions, patch_of


class FitError(ValueError):
    pass


GAP_SECONDS = 300.0
GAP_DISTANCE = 5000.0
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


def _erlang_logpdf(t, k, rate):
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = k * np.log(rate) + (k - 1) * np.log(t) - rate * t - gammaln(k)
    if k == 1:  # pdf(0) = rate, not nan
        out = np.where(t == 0, math.log(rate), out)
    return np.where(t < 0, -np.inf, out)


def phase_type_eval(dist: Distribution, t: float) -> tuple[float, float]:
    """(pdf, cdf) at t; densities are evaluated in log space so large shapes
    do not overflow.  t < 0 yields (0, 0)."""
    if t < 0:
        return 0.0, 0.0
    if isinstance(dist, ErlangParams):
        pdf = float(np.exp(_erlang_logpdf(t, dist.k, dist.rate)))
        cdf = float(gammainc(dist.k, dist.rate * t))
        return pdf, cdf
    pdf = cdf = 0.0
    for a, k, r in zip(dist.weights, dist.shapes, dist.rates):
        pdf += a * float(np.exp(_erlang_logpdf(t, k, r)))
        cdf += a * float(gammainc(k, r * t))
    return pdf, cdf


def dist_cdf(dist: Distribution, t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if isinstance(dist, ErlangParams):
        return gammainc(dist.k, dist.rate * np.maximum(t, 0.0))
    out = np.zeros_like(t)
    for a, k, r in zip(dist.weights, dist.shapes, dist.rates):
        out += a * gammainc(k, r * np.maximum(t, 0.0))
    return out


def dist_mean(dist: Distribution) -> float:
    return dist.mean


# --- crossing time extraction -------------------------------------------

@dataclass
class CrossingObservation:
    patch: int
    duration: float

    def __post_init__(self):
        if self.duration <= 0:
            raise FitError("duration must be positive")


def extract_crossing_times(ts, rm, ps: PatchStructure,
                           gap_seconds: float = GAP_SECONDS,
                           gap_distance: float = GAP_DISTANCE):
    """Per-patch crossing-time observations.

    Equivalent to walking interpolated fractions second by second: boundary
    crossing times are computed analytically per record pair and snapped up to
    the whole-second grid, which a unit test checks against a literal 1-second
    walker.  Returns {patch index: [durations]}."""
    fractions, _ = compute_fractions(ts, rm)
    bounds = ps.breakpoints[1:]  # b_1 .. b_{n-1}, 1.0
    n = ps.n
    obs: dict[int, list[float]] = {j: [] for j in range(1, n + 1)}

    for vid, rows in fractions.items():
        entry_time: float | None = None  # poisoned when None after a flag
        poisoned = True  # nothing observed yet
        for (t1, f1, x1, y1), (t2, f2, x2, y2) in zip(rows, rows[1:]):
            dt = t2 - t1
            dist = math.hypot(x2 - x1, y2 - y1)
            if dt > gap_seconds or dist > gap_distance:
                poisoned = True
                continue
            df = f2 - f1
            wrapped = False
            if df < -0.5:  # forward crossing of the loop origin
                df += 1.0
                wrapped = True
            elif df > 0.5:  # backward jitter across the loop origin
                poisoned = True
                continue
            elif df < 0:
                poisoned = True
                continue
            if df == 0:
                continue
            # boundaries crossed in (f1, f1+df]
            crossed = []
            for j, b in enumerate(bounds, start=1):
                rel = b - f1 if not wrapped or b > f1 else b - f1 + 1.0
                if wrapped and b > f1:
                    rel = b - f1
                if 0.0 < rel <= df:
                    tau = t1 + dt * rel / df
                    crossed.append((rel, j, math.ceil(tau - 1e-9)))
            crossed.sort()
            for _, j, sec in crossed:
                if poisoned or entry_time is None:
                    poisoned = False
                else:
                    duration = sec - entry_time
                    if duration > 0:
                        obs[j].append(float(duration))
                entry_time = sec
    return obs


# --- Erlang / hyper-Erlang fitting ---------------------------------------

def _scan_k(total_w: float, sum_wx: float, sum_wlogx: float, k_cap: int = K_CAP):
    """Scan k = 1, 2, ... with rate = k / weighted mean; stop at the first
    log-likelihood decrease and return (k, rate, loglik) of the previous step.
    The profile likelihood is unimodal in k, so this is the global optimum."""
    mean = sum_wx / total_w
    if mean <= 0:
        raise FitError("non-positive mean")

    def loglik(k: int) -> float:
        rate = k / mean
        return (total_w * (k * math.log(rate) - gammaln(k))
                + (k - 1) * sum_wlogx - rate * sum_wx)

    prev = loglik(1)
    k = 1
    while k < k_cap:
        cur = loglik(k + 1)
        if cur < prev:
            break
        k += 1
        prev = cur
    return k, k / mean, prev


def fit_erlang(obs, k_cap: int = K_CAP) -> ErlangParams:
    x = np.asarray(list(obs), dtype=np.float64)
    if x.size < 2:
        raise FitError("need at least 2 observations")
    if np.any(x <= 0):
        raise FitError("all durations must be positive")
    k, rate, _ = _scan_k(float(x.size), float(x.sum()), float(np.log(x).sum()), k_cap)
    return ErlangParams(k, rate)


def erlang_loglik_scan(obs, k_max: int) -> np.ndarray:
    """Log-likelihood for k = 1..k_max with rate = k/mean (oracle helper)."""
    x = np.asarray(list(obs), dtype=np.float64)
    n, sx, slx = float(x.size), float(x.sum()), float(np.log(x).sum())
    mean = sx / n
    ks = np.arange(1, k_max + 1)
    rates = ks / mean
    return n * (ks * np.log(rates) - gammaln(ks)) + (ks - 1) * slx - rates * sx


def _loglik_hyper(x, logx, shapes, rates, weights) -> float:
    comp = np.stack([
        math.log(a) + k * math.log(r) + (k - 1) * logx - r * x - gammaln(k)
        for a, k, r in zip(weights, shapes, rates)
    ])
    mx = comp.max(axis=0)
    return float(np.sum(mx + np.log(np.exp(comp - mx).sum(axis=0))))


def fit_hyper_erlang(obs, m: int, seed: int = 0, restarts: int = 10,
                     max_iter: int = 200, tol: float = 1e-9) -> HyperErlangParams:
    """Deterministic multi-start EM for an m-branch hyper-Erlang mixture.

    Branch (k_i, rate_i) are refit each M-step by the moment-matched k-scan on
    responsibility-weighted statistics; a candidate that would lower the
    expected complete-data objective is rejected, which keeps the data
    log-likelihood non-decreasing within a run.  m = 1 reduces exactly to
    fit_erlang."""
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
        # quantile split, randomly perturbed after the first start
        edges = np.linspace(0, x.size, m + 1).astype(int)
        shapes, rates, weights = [], [], []
        ok = True
        for b in range(m):
            sel = x[order[edges[b]:edges[b + 1]]]
            if start > 0:
                noise = rng.uniform(0.6, 1.6)
                mean_b = float(sel.mean()) * noise
            else:
                mean_b = float(sel.mean())
            k0 = max(1, min(K_CAP, round((mean_b / (sel.std() + 1e-9)) ** 2))) if sel.size > 1 else 1
            if mean_b <= 0:
                ok = False
                break
            shapes.append(int(k0))
            rates.append(k0 / mean_b)
            weights.append(sel.size / x.size)
        if not ok:
            continue
        shapes, rates, weights = list(shapes), list(rates), list(weights)

        prev_ll = -math.inf
        for _ in range(max_iter):
            comp = np.stack([
                math.log(a) + k * math.log(r) + (k - 1) * logx - r * x - gammaln(k)
                for a, k, r in zip(weights, shapes, rates)
            ])
            mx = comp.max(axis=0)
            lse = mx + np.log(np.exp(comp - mx).sum(axis=0))
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
                k_old, r_old = shapes[b], rates[b]
                q_old = (tw * (k_old * math.log(r_old) - gammaln(k_old))
                         + (k_old - 1) * swl - r_old * swx)
                if q_new < q_old:
                    k_new, r_new = k_old, r_old
                new_shapes.append(k_new)
                new_rates.append(r_new)
                new_weights.append(tw / x.size)
            if degenerate:
                break
            shapes, rates, weights = new_shapes, new_rates, new_weights
            if ll - prev_ll < tol * x.size and prev_ll > -math.inf:
                prev_ll = ll
                break
            prev_ll = ll
        total_w = sum(weights)
        weights = [w / total_w for w in weights]
        cand = HyperErlangParams(tuple(shapes), tuple(rates), tuple(weights))
        ll = _loglik_hyper(x, logx, shapes, rates, weights)
        if best is None or ll > best[0]:
            best = (ll, cand)
    if best is None:
        raise FitError("EM failed to produce a fit")
    return best[1]


def hyper_erlang_loglik(obs, params: HyperErlangParams) -> float:
    x = np.asarray(list(obs), dtype=np.float64)
    return _loglik_hyper(x, np.log(x), params.shapes, params.rates, params.weights)


def em_loglik_trace(obs, m: int, seed: int = 0, max_iter: int = 60) -> list[float]:
    """Log-likelihood after each EM iteration of a single run (for the
    monotonicity check)."""
    x = np.asarray(list(obs), dtype=np.float64)
    logx = np.log(x)
    order = np.argsort(x)
    edges = np.linspace(0, x.size, m + 1).astype(int)
    shapes, rates, weights = [], [], []
    for b in range(m):
        sel = x[order[edges[b]:edges[b + 1]]]
        mean_b = float(sel.mean())
        k0 = max(1, round((mean_b / (sel.std() + 1e-9)) ** 2))
        shapes.append(int(min(k0, K_CAP)))
        rates.append(k0 / mean_b)
        weights.append(sel.size / x.size)
    trace = []
    for _ in range(max_iter):
        comp = np.stack([
            math.log(a) + k * math.log(r) + (k - 1) * logx - r * x - gammaln(k)
            for a, k, r in zip(weights, shapes, rates)
        ])
        mx = comp.max(axis=0)
        lse = mx + np.log(np.exp(comp - mx).sum(axis=0))
        trace.append(float(lse.sum()))
        resp = np.exp(comp - lse)
        new_shapes, new_rates, new_weights = [], [], []
        for b in range(m):
            w = resp[b]
            tw = float(w.sum())
            swx, swl = float((w * x).sum()), float((w * logx).sum())
            k_new, r_new, _ = _scan_k(tw, swx, swl)
            k_old, r_old = shapes[b], rates[b]
            q_old = tw * (k_old * math.log(r_old) - gammaln(k_old)) + (k_old - 1) * swl - r_old * swx
            q_new = tw * (k_new * math.log(r_new) - gammaln(k_new)) + (k_new - 1) * swl - r_new * swx
            if q_new < q_old:
                k_new, r_new = k_old, r_old
            new_shapes.append(k_new)
            new_rates.append(r_new)
            new_weights.append(tw / x.size)
        shapes, rates, weights = new_shapes, new_rates, new_weights
    return trace


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
            self.means = [dist_mean(d) for d in self.dists]

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


def derive_timetable(pm: PatchModel, n_buses: int, route_duration: float | None = None):
    """Implicit timetable constants: the timetabled loop duration r (defaults
    to the sum of patch means), the scheduled inter-departure time r / beta,
    and per-bus, per-patch offsets h[i][j] = r*(i-1)/beta + c_j."""
    if n_buses < 1:
        raise FitError("need at least one bus")
    r = route_duration if route_duration is not None else pm.total()
    mu_tot = r / n_buses
    c = pm.cumulative_means()
    h = [[r * i / n_buses + c[j] for j in range(pm.n)] for i in range(n_buses)]
    return r, mu_tot, h


# --- model file I/O -------------------------------------------------------

def write_patch_model(pm: PatchModel, path: str) -> None:
    with open(path, "w") as fh:
        for j, (d, mu) in enumerate(zip(pm.dists, pm.means), start=1):
            if isinstance(d, ErlangParams):
                fh.write(f"patch {j} erlang {d.k} {fmt_num(d.rate)} mu {fmt_num(mu)}\n")
            else:
                branches = " ".join(f"{k} {fmt_num(r)} {fmt_num(a)}" for k, r, a in
                                    zip(d.shapes, d.rates, d.weights))
                fh.write(f"patch {j} hyper {d.m} {branches} mu {fmt_num(mu)}\n")


def read_patch_model(path: str) -> PatchModel:
    dists: list[Distribution] = []
    means: list[float] = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0] != "patch":
                continue
            kind = parts[2]
            if kind == "erlang":
                dists.append(ErlangParams(int(parts[3]), float(parts[4])))
                means.append(float(parts[6]))
            elif kind == "hyper":
                m = int(parts[3])
                vals = parts[4:4 + 3 * m]
                shapes = tuple(int(vals[3 * i]) for i in range(m))
                rates = tuple(float(vals[3 * i + 1]) for i in range(m))
                weights = tuple(float(vals[3 * i + 2]) for i in range(m))
                dists.append(HyperErlangParams(shapes, rates, weights))
                means.append(float(parts[4 + 3 * m + 1]))
            else:
                raise FitError(f"unknown distribution kind {kind!r}")
    if not dists:
        raise FitError("empty patch model file")
    pm = PatchModel(dists)
    pm.means = means
    return pm


def write_gof_tsv(reports: dict[int, GofReport], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("patch\tn_obs\tA2\tp\tmean\tsd\tcv\tskew\tkurt\n")
        for j in sorted(reports):
            g = reports[j]
            fh.write(f"{j}\t{g.n_obs}\t{g.a2:.6g}\t{g.p:.6g}\t{g.mean:.6g}\t"
                     f"{g.sd:.6g}\t{g.cv:.6g}\t{g.skewness:.6g}\t{g.excess_kurtosis:.6g}\n")


def write_cdf_comparison(observations: dict[int, list[float]], pm: PatchModel,
                         path_prefix: str, samples: int = 200) -> list[str]:
    """Empirical step points plus fitted CDF samples, one TSV per patch."""
    paths = []
    for j in sorted(observations):
        xs = np.sort(np.asarray(observations[j], dtype=np.float64))
        if xs.size == 0:
            continue
        d = pm.dists[j - 1]
        path = f"{path_prefix}_patch{j}.tsv"
        with open(path, "w") as fh:
            fh.write("kind\tx\tF\n")
            for i, x in enumerate(xs, start=1):
                fh.write(f"empirical\t{x:.6g}\t{i / xs.size:.6g}\n")
            grid = np.linspace(0, float(xs[-1]) * 1.25, samples)
            for x, F in zip(grid, dist_cdf(d, grid)):
                fh.write(f"fitted\t{x:.6g}\t{F:.6g}\n")
        paths.append(path)
    return paths

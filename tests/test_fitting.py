import math
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaln
from scipy.stats import gamma

from conftest import straight_route_model, traces_from_fractions
from headwaylab import fitting
from headwaylab.fitting import (ErlangParams, FitError, HyperErlangParams, PatchModel,
                                anderson_darling, anderson_darling_statistic,
                                dist_cdf, extract_crossing_times, fit_erlang,
                                fit_hyper_erlang, read_patch_model, write_patch_model)
from headwaylab.ingest import TraceSet, is_gap
from headwaylab.patches import PatchStructure
from headwaylab.synthetic import airlink_model



# --- phase-type evaluation -------------------------------------------------

def density(d, t):
    """Density at t > 0 from the EM's per-branch log densities."""
    if isinstance(d, ErlangParams):
        d = HyperErlangParams((d.k,), (d.rate,), (1.0,))
    x = np.asarray(t, dtype=np.float64)
    return np.exp(fitting._log_densities(x, np.log(x), d.shapes, d.rates, d.weights)[1])


def hyper_erlang_loglik(obs, params: HyperErlangParams) -> float:
    """Log-likelihood of the observations under the EM's per-branch log densities."""
    x = np.asarray(list(obs), dtype=np.float64)
    _, lse = fitting._log_densities(x, np.log(x), params.shapes, params.rates, params.weights)
    return float(lse.sum())


def test_exponential_special_case():
    lam = 0.25
    d = ErlangParams(1, lam)
    assert dist_cdf(d, 0.0) == 0.0
    assert density(d, 3.0) == pytest.approx(lam * math.exp(-lam * 3.0), rel=1e-12)
    assert dist_cdf(d, 3.0) == pytest.approx(1 - math.exp(-lam * 3.0), rel=1e-12)


def test_published_patch2_mean():
    d = airlink_model().dists[1]
    assert d.k == 106
    assert abs(d.mean - 253.0) <= 0.5
    assert d.cv == pytest.approx(1 / math.sqrt(106))


def test_large_shape_no_overflow():
    d = ErlangParams(5000, 10.0)
    pdf = density(d, d.mean)
    assert math.isfinite(pdf) and pdf > 0
    assert 0.4 < dist_cdf(d, d.mean) < 0.6


def test_hyper_single_branch_equals_erlang():
    e = ErlangParams(7, 0.03)
    h = HyperErlangParams((7,), (0.03,), (1.0,))
    for t in (0.0, 10.0, 100.0, 400.0, 1000.0):
        assert abs(dist_cdf(e, t) - dist_cdf(h, t)) < 1e-12
        if t > 0:
            assert abs(density(h, t) - gamma.pdf(t, 7, scale=1 / 0.03)) < 1e-12


def test_negative_time_zero():
    assert dist_cdf(ErlangParams(3, 1.0), -1.0) == 0.0
    assert dist_cdf(HyperErlangParams((3, 5), (1.0, 2.0), (0.5, 0.5)), -1.0) == 0.0


def test_cdf_limits_and_pdf_integral():
    for d in (ErlangParams(5, 0.1), ErlangParams(106, 0.419),
              HyperErlangParams((10, 84), (0.0171, 0.1961), (0.4762, 0.5238))):
        mean = d.mean
        sd = d.sd if isinstance(d, ErlangParams) else mean  # loose bound for mixtures
        hi = mean + 20 * sd
        assert dist_cdf(d, 0.0) == 0.0
        ts = np.linspace(0, hi, 50)
        cdfs = dist_cdf(d, ts)
        assert np.all(np.diff(cdfs) >= -1e-12)
        assert dist_cdf(d, hi) >= 1 - 1e-6
        integral, _ = quad(lambda t: density(d, t), 0, hi, limit=200)
        assert abs(integral - dist_cdf(d, hi)) < 1e-6


# largest shape of each range -> the largest error allowed against
# scipy.special.gammainc: relative where P < 0.5, absolute where P >= 0.5
CDF_TOLERANCE = {200: 5e-13, 1000: 5e-12, fitting.K_CAP: 1e-10}


def shapes_up_to(top: int) -> list[int]:
    lower = max((b for b in CDF_TOLERANCE if b < top), default=0)
    if top == 200:
        return list(range(1, 201))
    rng = np.random.default_rng(top)
    return sorted({lower + 1, top, *(int(k) for k in rng.integers(lower + 1, top + 1, size=40))})


@pytest.mark.parametrize("top", sorted(CDF_TOLERANCE))
def test_erlang_cdf_matches_scipy_gammainc(top):
    tol = CDF_TOLERANCE[top]
    for k in shapes_up_to(top):
        sd = math.sqrt(k)
        # the whole range, the bulk, both sides of the branch point x = k + 1,
        # and values near 0
        x = np.concatenate([np.linspace(0.0, k + 14 * sd + 30, 300),
                            k + sd * np.linspace(-8.0, 8.0, 161),
                            [k + 1.0, np.nextafter(k + 1.0, 0.0), np.nextafter(k + 1.0, math.inf)],
                            np.geomspace(1e-6, 1.0, 20)])
        x = x[x >= 0]
        got, want = fitting._erlang_cdf(k, x), gammainc(k, x)
        low = want < 0.5
        # relative where P is a normal float; both read 0 once it underflows
        rel = np.abs(got - want)[low & (want > 1e-300)] / want[low & (want > 1e-300)]
        assert rel.max(initial=0.0) <= tol, k
        assert np.abs(got - want)[~low].max(initial=0.0) <= tol, k
        assert np.all(got[low & (want <= 1e-300)] <= 1e-300), k


def test_cdf_at_the_ends_and_of_nan():
    d = ErlangParams(4, 0.5)
    assert dist_cdf(d, [-3.0, 0.0, math.inf]).tolist() == [0.0, 0.0, 1.0]
    assert math.isnan(dist_cdf(d, math.nan))
    assert dist_cdf(d, np.full((2, 3), 8.0)).shape == (2, 3)


# --- Erlang fitting ----------------------------------------------------------

def test_fit_erlang_recovers_synthetic(rng):
    x = rng.gamma(5, 1 / 0.1, size=100_000)
    fit = fit_erlang(x)
    assert fit.k == 5
    assert abs(fit.rate - 0.1) / 0.1 < 0.02


def test_fit_erlang_rate_is_k_over_mean(rng):
    x = rng.gamma(9, 7.0, size=500)
    fit = fit_erlang(x)
    assert fit.rate == pytest.approx(fit.k / x.mean(), rel=1e-12)


def erlang_loglik_scan(obs, k_max: int) -> np.ndarray:
    """Log-likelihood for k = 1..k_max with rate = k/mean (oracle)."""
    x = np.asarray(list(obs), dtype=np.float64)
    n, sx, slx = float(x.size), float(x.sum()), float(np.log(x).sum())
    mean = sx / n
    ks = np.arange(1, k_max + 1)
    rates = ks / mean
    return n * (ks * np.log(rates) - gammaln(ks)) + (ks - 1) * slx - rates * sx


def test_fit_erlang_matches_exhaustive_scan(rng):
    for _ in range(20):
        k = int(rng.integers(1, 40))
        lam = float(rng.uniform(1e-3, 1.0))
        x = rng.gamma(k, 1 / lam, size=4000)
        fit = fit_erlang(x)
        scan = erlang_loglik_scan(x, 80)
        assert fit.k == int(np.argmax(scan)) + 1


def test_fit_erlang_errors():
    with pytest.raises(FitError):
        fit_erlang([5.0])
    with pytest.raises(FitError):
        fit_erlang([5.0, -1.0])


def test_fit_erlang_near_constant_capped(monkeypatch):
    monkeypatch.setattr(fitting, "K_CAP", 500)
    fit = fit_erlang([100.0, 100.0001, 99.9999, 100.0])
    assert fit.k == 500


# --- hyper-Erlang EM ----------------------------------------------------------

def test_hyper_m1_identical_to_erlang(rng):
    x = rng.gamma(6, 50.0, size=3000)
    e = fit_erlang(x)
    h = fit_hyper_erlang(x, 1)
    assert h.shapes == (e.k,) and h.rates == (e.rate,) and h.weights == (1.0,)


def test_hyper_nesting_likelihood(rng):
    x = rng.gamma(8, 30.0, size=2000)
    l1 = hyper_erlang_loglik(x, fit_hyper_erlang(x, 1))
    l2 = hyper_erlang_loglik(x, fit_hyper_erlang(x, 2, seed=1))
    assert l2 >= l1 - 1e-6


def test_em_monotone_loglik(rng):
    gen = HyperErlangParams((4, 40), (0.02, 0.4), (0.5, 0.5))
    comp = rng.random(3000) < 0.5
    x = np.where(comp, rng.gamma(4, 50.0, size=3000), rng.gamma(40, 2.5, size=3000))
    trace = [hyper_erlang_loglik(x, fit_hyper_erlang(x, 2, restarts=1, max_iter=i))
             for i in range(1, 41)]
    diffs = np.diff(trace)
    assert np.all(diffs >= -1e-9 * len(x))


def test_hyper_recovers_published_mixture(rng):
    # two-branch mixture reported for the worst-fitting patch
    gen = HyperErlangParams((10, 84), (0.0171, 0.1961), (0.4762, 0.5238))
    n = 10_000
    comp = rng.random(n) < gen.weights[0]
    x = np.where(comp, rng.gamma(10, 1 / 0.0171, size=n), rng.gamma(84, 1 / 0.1961, size=n))
    fit = fit_hyper_erlang(x, 2, seed=3)
    assert hyper_erlang_loglik(x, fit) >= hyper_erlang_loglik(x, gen) - 0.001 * n


def pinned_samples() -> dict[str, np.ndarray]:
    """An Erlang-like sample and a two-mode mixture sample, seeded."""
    rng = np.random.default_rng(2024)
    erlang = rng.gamma(12, 100 / 12, size=400)
    mixture = np.concatenate([rng.gamma(3, 20 / 3, size=150), rng.gamma(40, 300 / 40, size=250)])
    rng.shuffle(mixture)
    return {"erlang": erlang, "mixture": mixture}


# Values recorded from the fit with scipy.special.gammaln; the fits must not
# move when the log-gamma function does.
PINNED_FITS = {
    "erlang": ((11, 0.11167331470518718),
               ((13, 17), (0.13521216629629, 0.11576639536409537),
                (0.9535246691211585, 0.04647533087884153))),
    "mixture": ((1, 0.005113622282610434),
                ((3, 36), (0.14764184266450858, 0.1197214142194714),
                 (0.375000000878194, 0.624999999121806))),
}


@pytest.mark.parametrize("name", sorted(PINNED_FITS))
def test_fits_of_seeded_samples_pinned(name):
    x = pinned_samples()[name]
    (k, rate), (shapes, rates, weights) = PINNED_FITS[name]
    e = fit_erlang(x)
    assert (e.k, e.rate) == (k, rate)
    h = fit_hyper_erlang(x, 2, seed=1)
    assert h.shapes == shapes
    assert h.rates == pytest.approx(rates, rel=1e-10, abs=0)
    assert h.weights == pytest.approx(weights, rel=1e-10, abs=0)


def test_hyper_insufficient_observations():
    with pytest.raises(FitError):
        fit_hyper_erlang([1.0, 2.0, 3.0], 2)


# --- Anderson-Darling ---------------------------------------------------------

def test_ad_statistic_matches_direct_formula():
    n = 40
    u = (np.arange(1, n + 1) - 0.5) / n
    direct = -n - sum((2 * i - 1) * (math.log(u[i - 1]) + math.log(1 - u[n - i]))
                      for i in range(1, n + 1)) / n
    assert abs(anderson_darling_statistic(u) - direct) < 1e-9


def test_ad_random_samples_match_oracle(rng):
    for _ in range(25):
        x = rng.gamma(4, 10.0, size=int(rng.integers(10, 200)))
        d = fit_erlang(x)
        u = np.sort(dist_cdf(d, np.sort(x)))
        u = np.clip(u, 1e-12, 1 - 1e-12)
        n = len(u)
        direct = -n - sum((2 * i - 1) * (math.log(u[i - 1]) + math.log(1 - u[n - i]))
                          for i in range(1, n + 1)) / n
        rep = anderson_darling(x, d)
        assert abs(rep.a2 - direct) < 1e-9
        assert 0.0 <= rep.p <= 1.0


def test_ad_wrong_mean_scores_worse(rng):
    x = rng.gamma(10, 30.0, size=200)
    good = fit_erlang(x)
    bad = ErlangParams(10, good.rate * 3)
    assert anderson_darling(x, bad).a2 > anderson_darling(x, good).a2


def test_ad_clamp_flagged(rng):
    x = np.concatenate([rng.gamma(10, 30.0, size=50), [1e8]])
    rep = anderson_darling(x, ErlangParams(10, 1 / 30.0))
    assert rep.clamped


def test_ad_requires_three():
    with pytest.raises(FitError):
        anderson_darling([1.0, 2.0], ErlangParams(1, 1.0))


def test_ad_asymptotic_p_reference_points():
    # case-0 asymptotic quantiles: P(A2 > 2.492) ~ 0.05, P(A2 > 3.857) ~ 0.01
    from headwaylab.fitting import _ad_asymptotic_p
    assert _ad_asymptotic_p(2.492) == pytest.approx(0.05, abs=0.002)
    assert _ad_asymptotic_p(3.857) == pytest.approx(0.01, abs=0.001)
    assert _ad_asymptotic_p(0.108) > 0.999


# --- crossing-time extraction ---------------------------------------------------

def fractions_trace(rows, rm=None, vehicle="v1"):
    rm = rm or straight_route_model()
    return rm, traces_from_fractions(rm, rows, vehicle)


def test_crossing_duration_within_one_second():
    rm = straight_route_model()
    ps = PatchStructure(10, [2, 5, 8])
    # constant speed: fraction 0 -> 0.5 over 1200 s, sampled every 35 s
    rows = [(t, 0.5 * t / 1200.0) for t in range(0, 1261, 35)]
    ts = traces_from_fractions(rm, rows)
    obs = extract_crossing_times(ts, rm, ps)
    # patch 2 spans [0.2, 0.5): crossing takes 0.3 * 2400 = 720 s
    assert len(obs[2]) == 1
    assert abs(obs[2][0] - 720.0) <= 1.0


def test_crossing_duration_closest_sample_after_turnaround():
    rm = straight_route_model()
    ps = PatchStructure(10, [2, 5, 8])
    # same run sampled from t = 25 s: the sample closest to the turnaround
    # (t = 1215 s, 15 s after it) belongs to the outbound leg
    rows = [(t, 0.5 * t / 1200.0) for t in range(25, 1261, 35)]
    ts = traces_from_fractions(rm, rows)
    obs = extract_crossing_times(ts, rm, ps)
    assert len(obs[2]) == 1
    assert abs(obs[2][0] - 720.0) <= 1.0


def test_backward_jitter_suppresses_observation():
    rm = straight_route_model()
    ps = PatchStructure(10, [5])
    rows = [(0, 0.40), (35, 0.48), (70, 0.52), (105, 0.49),  # backward!
            (140, 0.58), (175, 0.70)]
    ts = traces_from_fractions(rm, rows)
    obs = extract_crossing_times(ts, rm, ps)
    assert obs[1] == []  # the spurious crossing is not recorded


def test_gap_over_five_minutes_poisons():
    rm = straight_route_model()
    ps = PatchStructure(10, [5])
    rows = [(0, 0.1), (301, 0.45), (336, 0.55), (371, 0.7)]
    ts = traces_from_fractions(rm, rows)
    obs = extract_crossing_times(ts, rm, ps)
    # entry timer poisoned by the 301 s gap; the 0.5 crossing yields nothing
    assert obs[1] == []


def test_jump_over_five_km_poisons():
    rm = straight_route_model(n_edges=10, edge_len=2000.0, radius=100.0)
    ps = PatchStructure(10, [2])
    rows = [(0, 0.02), (35, 0.05), (70, 0.35), (105, 0.40)]  # 0.05->0.35 = 6 km jump
    ts = traces_from_fractions(rm, rows)
    obs = extract_crossing_times(ts, rm, ps)
    assert obs[1] == []


def one_second_walker(rows, breakpoints):
    """Literal 1-second interpolation oracle."""
    bounds = breakpoints[1:]
    obs = {j: [] for j in range(1, len(bounds) + 1)}
    entry = None
    poisoned = True
    prev_t, prev_f = rows[0]
    cur = None

    def patch_at(f):
        for j, b in enumerate(bounds, start=1):
            if f < b:
                return j
        return len(bounds)

    cur = patch_at(prev_f)
    for t, f in rows[1:]:
        dt = t - prev_t
        df = f - prev_f
        if dt > 300:
            poisoned = True
            prev_t, prev_f, cur = t, f, patch_at(f)
            continue
        if df < -0.5:
            df += 1.0
        elif df > 0.5 or df < 0:
            poisoned = True
            prev_t, prev_f, cur = t, f, patch_at(f)
            continue
        for s in range(1, dt + 1):
            fs = (prev_f + df * s / dt) % 1.0
            p = patch_at(fs)
            if p != cur:
                forward = (p - cur) % len(bounds) if False else None
                if poisoned or entry is None:
                    poisoned = False
                else:
                    d = prev_t + s - entry
                    if d > 0:
                        obs[cur].append(float(d))
                entry = prev_t + s
                cur = p
        prev_t, prev_f = t, f
    return obs


def test_analytic_extraction_matches_one_second_walk(rng):
    rm = straight_route_model()
    ps = PatchStructure(8, [2, 4, 6])
    t, f = 0, 0.01
    rows = [(t, f)]
    for _ in range(300):
        t += int(rng.integers(20, 60))
        f = (f + float(rng.uniform(0.001, 0.03))) % 1.0
        rows.append((t, f))
    ts = traces_from_fractions(rm, rows)
    got = extract_crossing_times(ts, rm, ps)
    # feed the oracle the same fractions the pipeline computes
    from headwaylab.patches import compute_fractions
    frs, _ = compute_fractions(ts, rm)
    oracle_rows = [(int(t), f) for t, f, _, _ in frs["v1"].tolist()]
    want = one_second_walker(oracle_rows, ps.breakpoints)
    for j in want:
        assert got[j] == pytest.approx(want[j])


def reference_crossings(fractions, ps):
    """extract_crossing_times as a per-pair loop over the compute_fractions
    rows, with one timer per vehicle."""
    bounds = ps.breakpoints[1:]
    obs = {j: [] for j in range(1, ps.n + 1)}
    for rows in fractions.values():
        rows = rows.tolist()
        entry_time = None  # poisoned when None after a flag
        poisoned = True  # nothing observed yet
        for (t1, f1, x1, y1), (t2, f2, x2, y2) in zip(rows, rows[1:]):
            dt = t2 - t1
            if is_gap(dt, math.hypot(x2 - x1, y2 - y1)):
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


def random_walk(rng, n, start_t=0):
    """(t, fraction) samples of a forward walk round the loop with backward
    jitter, zero steps, several-boundary strides and time gaps mixed in."""
    t, f = start_t, float(rng.uniform(0, 1))
    out = [(t, f)]
    for _ in range(n):
        u = rng.uniform()
        t += 300 if u < 0.03 else int(rng.integers(301, 900)) if u < 0.07 else int(rng.integers(15, 60))
        v = rng.uniform()
        step = (0.0 if v < 0.06 else float(rng.uniform(-0.03, -0.001)) if v < 0.14
                else float(rng.uniform(0.15, 0.45)) if v < 0.22 else float(rng.uniform(0.001, 0.04)))
        f = (f + step) % 1.0
        out.append((t, f))
    return out


def pair_kinds(fractions, bounds):
    """How many record pairs of each kind the rows hold."""
    kinds = Counter()
    for rows in fractions.values():
        for (t1, f1, x1, y1), (t2, f2, x2, y2) in zip(rows.tolist(), rows[1:].tolist()):
            df = f2 - f1
            kinds["gap"] += t2 - t1 > 300
            kinds["jump"] += t2 - t1 <= 300 and math.hypot(x2 - x1, y2 - y1) > 5000
            kinds["5000"] += math.hypot(x2 - x1, y2 - y1) == 5000
            kinds["wrap"] += df < -0.5
            kinds["wrap back"] += df > 0.5
            kinds["back"] += -0.5 <= df < 0
            kinds["zero"] += df == 0
            kinds["several"] += 0 < df <= 0.5 and sum(f1 < b <= f2 for b in bounds) >= 2
    return kinds


def test_crossing_extraction_matches_per_pair_reference_on_random_rows(rng, monkeypatch):
    ps = PatchStructure(40, [3, 7, 10, 14, 20, 25, 31, 36])
    fractions = {}
    for v in range(4):
        tf = np.array(random_walk(rng, 400, start_t=1000 * v))
        x, y = 4000.0 * tf[:, 1], np.zeros(len(tf))
        y[rng.choice(len(tf), 12, replace=False)] = 6000.0  # distance jumps in and out
        rows = np.column_stack((tf, x, y))
        rows[50:52, 2:] = [[0.0, 0.0], [3000.0, 4000.0]]  # a jump of exactly 5000, no gap
        rows[100:104, 1] = [0.95, 0.02, 0.03, 0.97]  # across the origin forward, then back
        fractions[f"v{v}"] = rows
    fractions["single"] = np.array([[50.0, 0.5, 2000.0, 0.0]])  # no pairs
    kinds = pair_kinds(fractions, ps.breakpoints[1:])
    assert min(kinds.values()) > 0, kinds
    monkeypatch.setattr(fitting, "compute_fractions", lambda ts, rm: (fractions, 0))
    got = extract_crossing_times(None, None, ps)
    want = reference_crossings(fractions, ps)
    assert got == want
    assert all(want.values()) and all(type(d) is float for d in got[1])


def test_crossing_extraction_matches_per_pair_reference_on_snapped_traces(rng):
    from headwaylab.patches import compute_fractions

    rm = straight_route_model(n_edges=10, edge_len=2000.0, radius=100.0)
    ps = PatchStructure(40, [3, 7, 10, 14, 20, 25, 31, 36])
    ts = TraceSet({})
    for v in range(3):
        ts.traces.update(traces_from_fractions(rm, random_walk(rng, 300), f"v{v}").traces)
    fractions, _ = compute_fractions(ts, rm)
    kinds = pair_kinds(fractions, ps.breakpoints[1:])
    assert all(kinds[k] > 0 for k in ("gap", "jump", "wrap", "back", "zero", "several")), kinds
    assert extract_crossing_times(ts, rm, ps) == reference_crossings(fractions, ps)


# --- timetable ---------------------------------------------------------------

def test_timetable_airlink_constants():
    m = airlink_model()
    assert m.r == 5259.0
    assert m.mu_tot == pytest.approx(478.09, abs=0.01)
    assert m.anchors == PatchModel(m.dists).cumulative_means()
    assert m.anchors[0] == 0.0
    # cumulative mean before the second terminus patch (printed value 2744)
    assert m.anchors[6] == pytest.approx(2741.0, abs=1.0)
    # slot offset of bus 2 at patch 1: r/beta + c_1
    assert m.offsets[1] + m.anchors[0] == pytest.approx(478.09, abs=0.01)


def test_timetable_default_r_is_sum_of_means():
    m = airlink_model(route_duration=None)
    assert m.r == pytest.approx(PatchModel(m.dists).total())
    assert m.r == pytest.approx(5272.98, abs=0.05)


def test_timetable_single_bus():
    m = airlink_model(n_buses=1)
    assert m.mu_tot == m.r
    assert m.offsets == [0.0]
    assert [m.offsets[0] + c for c in m.anchors] == pytest.approx(PatchModel(m.dists).cumulative_means())


def test_patch_model_file_roundtrip(tmp_path):
    pm = PatchModel([ErlangParams(5, 0.02),
                     HyperErlangParams((10, 84), (0.0171, 0.1961), (0.4762, 0.5238))])
    path = str(tmp_path / "model.txt")
    write_patch_model(pm, path)
    back = read_patch_model(path)
    assert back.dists[0] == pm.dists[0]
    assert back.dists[1] == pm.dists[1]
    assert back.means == pytest.approx(pm.means)

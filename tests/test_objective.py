"""Objective losses: piecewise branches, gating, periodization."""

import datetime as dt
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtscore.engine import (
    BacktestResult,
    benchmark_arithmetic_mean,
    benchmark_per_observation_mean,
    run_backtest,
)
from gtscore.errors import ConfigError
from gtscore.metrics import MetricContext, r_squared_consistency, z_score
from gtscore.objective import (
    ObjectiveConfig,
    ObjectiveKind,
    Periodization,
    StabilizationConfig,
    baseline_loss,
    gt_score_loss,
    metric_contexts,
    pool_losses,
    stabilized_period_returns,
    trade_gate,
)

from conftest import make_series, random_closes

CFG = ObjectiveConfig()
STAB = ObjectiveConfig(periodization=Periodization.STABILIZED)


def ctx(z, mu=0.01, sigma=0.02, mu_m=0.0, n=100, sigma_d=0.01, r2=0.8):
    return MetricContext(mu=mu, sigma=sigma, mu_m=mu_m, n=n,
                         sigma_d=sigma_d, r2=r2, z=z)


# --- piecewise branches ----------------------------------------------------


def test_loss_zero_at_z_one():
    assert gt_score_loss(ctx(1.0), CFG) == pytest.approx(0.0, abs=1e-12)


def test_loss_at_z_zero():
    # 100 + 100 * (1 - e^-1)
    want = 200.0 - 100.0 * math.exp(-1.0)
    assert gt_score_loss(ctx(0.0), CFG) == pytest.approx(want, abs=1e-12)


def test_jump_at_zero_is_exactly_100():
    below = gt_score_loss(ctx(0.0), CFG)
    above = gt_score_loss(ctx(1e-12), CFG)
    assert below - above == pytest.approx(100.0, abs=1e-9)


def test_continuity_at_z_one():
    eps_z = 1e-9
    lo = gt_score_loss(ctx(1.0 - eps_z), CFG)
    hi = gt_score_loss(ctx(1.0 + eps_z), CFG)
    assert abs(lo) < 1e-6
    assert abs(hi) < 1e-6


def test_product_branch_hand_value():
    # -(mu * ln(z) * r2) / (sigma_d + eps)
    c = ctx(math.e, mu=0.01, sigma_d=0.02, r2=0.81)
    want = -(0.01 * 1.0 * 0.81) / 0.020001
    assert gt_score_loss(c, CFG) == pytest.approx(want, abs=1e-12)


def test_negative_z_branch_hand_value():
    c = ctx(-1.0)
    want = 100.0 + 100.0 * (1.0 - math.exp(-2.0))
    assert gt_score_loss(c, CFG) == pytest.approx(want, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(z1=st.floats(-10.0, 1.0), z2=st.floats(-10.0, 1.0))
def test_loss_monotone_decreasing_below_one(z1, z2):
    # Up to z = 1 a larger z never scores worse.
    lo, hi = min(z1, z2), max(z1, z2)
    assert gt_score_loss(ctx(hi), CFG) <= gt_score_loss(ctx(lo), CFG) + 1e-12


@settings(max_examples=100, deadline=None)
@given(z=st.floats(-50.0, 0.0))
def test_penalty_band_bounded(z):
    # the z <= 0 band lives in [100 + 100(1 - e^-1), 200)
    loss = gt_score_loss(ctx(z), CFG)
    assert 100.0 < loss <= 200.0  # upper bound attainable only by rounding


@settings(max_examples=100, deadline=None)
@given(
    z=st.floats(1.0001, 100.0), mu=st.floats(1e-6, 0.5),
    r2=st.floats(0.0, 1.0), sigma_d=st.floats(0.0, 0.5),
)
def test_product_branch_sign(z, mu, r2, sigma_d):
    # with positive mean the product branch is a reward (non-positive loss)
    loss = gt_score_loss(ctx(z, mu=mu, r2=r2, sigma_d=sigma_d), CFG)
    assert loss <= 0.0


def test_product_branch_rewards_consistency():
    base = ctx(2.0, r2=0.5)
    better = ctx(2.0, r2=0.9)
    assert gt_score_loss(better, CFG) < gt_score_loss(base, CFG)


def test_product_branch_penalizes_downside():
    calm = ctx(2.0, sigma_d=0.01)
    rough = ctx(2.0, sigma_d=0.05)
    assert gt_score_loss(calm, CFG) < gt_score_loss(rough, CFG)


# --- gating ----------------------------------------------------------------


def test_n_min_gate_composite():
    assert gt_score_loss(ctx(3.0, n=49), CFG) == CFG.below_min_penalty
    assert gt_score_loss(ctx(3.0, n=50), CFG) < 0


def test_n_min_gate_baselines():
    good = ctx(3.0, n=49)
    for kind in (ObjectiveKind.SIMPLE, ObjectiveKind.SHARPE,
                 ObjectiveKind.SORTINO):
        assert baseline_loss(kind, good, 0.5, CFG) == CFG.below_min_penalty


def test_stabilized_losses_gate_at_one_observation():
    # Under the stabilized periodization the gate is `trade_gate`, one
    # period: a context with fewer than n_min observations is scored by
    # every objective, the same as with n_min = 1.
    for n in (1, 10, STAB.n_min - 1):
        c = ctx(3.0, n=n)
        assert (gt_score_loss(c, STAB)
                == gt_score_loss(c, ObjectiveConfig(n_min=1)) < 0)
        for kind in (ObjectiveKind.SIMPLE, ObjectiveKind.SHARPE,
                     ObjectiveKind.SORTINO):
            assert baseline_loss(kind, c, 0.5, STAB) < 0


def test_baseline_losses_oriented():
    c = ctx(1.0, mu=0.02, sigma=0.04, sigma_d=0.01)
    assert baseline_loss(ObjectiveKind.SIMPLE, c, 0.5, CFG) == -0.5
    assert baseline_loss(ObjectiveKind.SHARPE, c, 0.5, CFG) == pytest.approx(
        -0.02 / 0.040001)
    assert baseline_loss(ObjectiveKind.SORTINO, c, 0.5, CFG) == pytest.approx(
        -0.02 / 0.010001)
    # GT-Score has its own loss: no baseline stands in for it, gated or not
    for n in (1, 50):
        with pytest.raises(KeyError):
            baseline_loss(ObjectiveKind.GT_SCORE, ctx(1.0, n=n), 0.5, CFG)


def test_penalty_dominates_every_branch():
    # no ungated context may score at or above the gate penalty
    rng = np.random.Generator(np.random.Philox(31))
    for _ in range(200):
        c = ctx(float(rng.uniform(-30, 30)), mu=float(rng.uniform(-0.2, 0.2)),
                sigma=float(rng.uniform(0, 0.3)),
                sigma_d=float(rng.uniform(0, 0.3)),
                r2=float(rng.uniform(0, 1)))
        assert gt_score_loss(c, CFG) < CFG.below_min_penalty


# --- config ----------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(threshold=-1.0), dict(threshold=0.0), dict(threshold=math.inf),
    dict(threshold=math.nan), dict(window=0), dict(n_range=(0, 5)),
    dict(n_range=(50, 10)), dict(n_range=(10,)), dict(n_range=(1, 2, 3)),
    dict(n_range=(10.0, 20)), dict(fallback=0),
])
def test_stabilization_config_validation(kwargs):
    with pytest.raises(ConfigError, match=f"^{next(iter(kwargs))}: must be"):
        StabilizationConfig(**kwargs)


def test_stabilization_config_accepts_edges():
    cfg = StabilizationConfig(threshold=1e-9, window=1, n_range=(1, 1),
                              fallback=1)
    assert cfg.n_range == (1, 1)


# --- metric_context and pool_losses ---------------------------------------


def span(series):
    """A series' window, as the search passes its training window to
    `pool_losses`."""
    return series.start_date, series.span_end


def winning_backtest(n_trades=60):
    """A backtest of `n_trades` gaining round trips, and its window."""
    # alternating rises so each round trip gains, opens gap to prior close
    closes = [100.0]
    for _ in range(n_trades):
        closes.append(closes[-1] * 1.01)
        closes.append(closes[-1] * 1.005)
    series = make_series(closes)
    pos = np.zeros(len(closes), dtype=bool)
    pos[0::2] = True  # enter on even bars, exit next bar
    pos[-1] = False
    return run_backtest(series, pos), span(series)


def metric_context(res, cfg, observations=None):
    """`metric_contexts` of one backtest."""
    return metric_contexts([res], cfg, None if observations is None
                           else [observations])[0]


def test_metric_context_fields():
    res, _ = winning_backtest()
    c = metric_context(res, CFG)
    assert c.n == res.n_trades
    assert c.mu == pytest.approx(float(res.trade_returns.mean()))
    assert c.sigma == pytest.approx(float(res.trade_returns.std()))
    geo = (1.0 + res.benchmark_total_return) ** (1.0 / c.n) - 1.0
    assert c.mu_m == pytest.approx(geo)


def test_metric_context_arithmetic_mode():
    res, _ = winning_backtest()
    cfg = ObjectiveConfig(benchmark_mode="arithmetic")
    c = metric_context(res, cfg)
    assert c.mu_m == pytest.approx(res.benchmark_total_return / c.n)


def test_metric_context_r2_reads_its_observations():
    # r2 is fitted to the equity of the observations the context is built
    # on: the backtest's own equity curve for trade returns (log1p of it
    # when asked), the compounded period returns otherwise.
    pool, window = stabilized_pool()
    res = pool[-1]
    equity = np.cumprod(1.0 + res.trade_returns) - 1.0
    kept = res.equity_points.copy()
    assert metric_context(res, CFG).r2 == r_squared_consistency(equity)
    log_cfg = ObjectiveConfig(r2_on_log_equity=True)
    assert metric_context(res, log_cfg).r2 == r_squared_consistency(
        np.log1p(equity))
    obs = period_returns(res.trade_exit_dates, res.equity_points, window, 20)
    by_period = metric_context(res, STAB, observations=obs).r2
    assert by_period == r_squared_consistency(np.cumprod(1.0 + obs) - 1.0)
    assert by_period != metric_context(res, CFG).r2
    assert res.equity_points.tobytes() == kept.tobytes()


def oracle_r_squared(y):
    """R-squared of one equity curve on its index, 0 when it is flat."""
    x = np.arange(y.size, dtype=float)
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    ss_tot = float(np.sum((y - ym) ** 2))
    if ss_tot == 0.0:
        return 0.0
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    ss_res = float(np.sum((y - ym - slope * (x - xm)) ** 2))
    return min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)


def oracle_metric_context(result, cfg, observations=None):
    """Scalar metric context of one backtest with >= 1 trade, built from
    its trade returns or from `observations` in their place."""
    obs = result.trade_returns if observations is None else observations
    n = int(obs.size)
    mu, sigma = float(obs.mean()), float(obs.std())
    sigma_d = math.sqrt(np.mean(np.minimum(obs, 0.0) ** 2))
    equity = (result.equity_points if observations is None else
              np.cumprod(1.0 + np.asarray(obs, dtype=float)) - 1.0)
    if cfg.r2_on_log_equity:
        equity = np.log1p(equity)
    r2 = oracle_r_squared(equity) if n >= 2 else 0.0
    if cfg.benchmark_mode == "arithmetic":
        mu_m = benchmark_arithmetic_mean(result.benchmark_total_return, n)
    else:
        mu_m = benchmark_per_observation_mean(result.benchmark_total_return, n)
    z = z_score(mu, mu_m, sigma, n, cfg.eps)
    return MetricContext(mu=mu, sigma=sigma, mu_m=mu_m, n=n,
                         sigma_d=sigma_d, r2=r2, z=z)


def fake_backtest(trade_returns, benchmark_total_return):
    r = np.array(trade_returns, dtype=float)
    equity = np.cumprod(1.0 + r) - 1.0
    return BacktestResult(r, equity, float(equity[-1]),
                          benchmark_total_return, np.array([], "datetime64[D]"))


@st.composite
def observation_lists(draw):
    """1-8 observation lists, of few lengths so equal lengths form groups,
    some past the 8 terms where numpy's pairwise sum unrolls; some are
    flat (all zero)."""
    out = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.sampled_from([1, 2, 3, 9, 20]))
        out.append([0.0] * n if draw(st.booleans()) else draw(
            st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    return out


MIXED = [[0.1], [0.0, 0.0, 0.0], [0.2, -0.1, 0.05], [0.3], [0.0],
         [0.01, 0.02, -0.03], [-0.2, 0.1], [0.01 * i for i in range(-9, 11)],
         [0.03 - 0.002 * i for i in range(20)]]


@settings(max_examples=200, deadline=None)
@given(returns=observation_lists(), periods=st.booleans(),
       log=st.booleans(), mode=st.sampled_from(["geometric", "arithmetic"]),
       bench=st.floats(-0.9, 3.0))
@example(returns=MIXED, periods=False, log=True, mode="arithmetic",
         bench=0.3)
@example(returns=MIXED, periods=True, log=False, mode="geometric",
         bench=-0.2)
def test_grouped_contexts_match_scalar_oracle(returns, periods, log, mode,
                                              bench):
    # Groups of one and of several, n = 1, flat equity (zero total
    # variance), log equity and both benchmark means: each grouped context
    # equals the scalar oracle's bit for bit, in the input order.
    cfg = ObjectiveConfig(benchmark_mode=mode, r2_on_log_equity=log)
    obs = [np.array(r, dtype=float) for r in returns]
    results = [fake_backtest([0.05, -0.02] if periods else r, bench + 0.1 * i)
               for i, r in enumerate(returns)]
    got = metric_contexts(results, cfg, obs if periods else None)
    want = [oracle_metric_context(r, cfg, o if periods else None)
            for r, o in zip(results, obs)]
    for g, w in zip(got, want, strict=True):
        values = astuple(g)
        assert [type(v) for v in values] == [float] * 3 + [int] + [float] * 3
        assert np.array(values).tobytes() == np.array(astuple(w)).tobytes()


def test_trial_loss_zero_trades_is_penalty():
    # No gate admits a zero-trade window, so it never reaches
    # `pool_losses`: the search prices it at the penalty (the degenerate
    # trial tests of test_search).
    series = make_series([10, 11, 12, 13, 12, 11, 12])
    res = run_backtest(series, np.zeros(7, bool))
    for cfg in (CFG, STAB, ObjectiveConfig(n_min=1)):
        assert trade_gate(cfg) > res.n_trades == 0


def test_trial_loss_matches_direct_composition():
    res, window = winning_backtest()
    c = metric_context(res, CFG)
    gt, simple = pool_losses([res], [ObjectiveKind.GT_SCORE,
                                     ObjectiveKind.SIMPLE], CFG, window)
    assert gt == [gt_score_loss(c, CFG)]
    assert simple == [baseline_loss(ObjectiveKind.SIMPLE, c,
                                    res.total_return, CFG)]


def stabilized_pool():
    """Three trading backtests on one window, as the gate admits them, and
    that window."""
    rng = np.random.Generator(np.random.Philox(11))
    series = make_series(random_closes(rng, 400, vol=0.01))
    return [run_backtest(series, rng.random(400) < p)
            for p in (0.1, 0.3, 0.5)], span(series)


def test_pool_losses_stabilized_match_single_candidate_pools():
    pool, window = stabilized_pool()
    objectives = list(ObjectiveKind)
    whole = pool_losses(pool, objectives, STAB, window)
    singles = [pool_losses([res], objectives, STAB, window) for res in pool]
    assert all(res.n_trades >= trade_gate(STAB) for res in pool)
    apart = [[single[j][0] for single in singles]
             for j in range(len(objectives))]
    assert np.array(whole).tobytes() == np.array(apart).tobytes()


# --- periodization ---------------------------------------------------------


def period_returns(equity_dates, equity_points, window, n):
    """Simple returns over n equal-length time slices of the window, the
    vectorised single-count form of `stabilized_period_returns`.

    Wealth is 1 + equity at the last trade completed in or before a slice;
    slices with no trades return 0.
    """
    start, end = window
    total_days = (end - start).days
    wealth = np.concatenate([[1.0], 1.0 + np.asarray(equity_points, float)])
    offsets = (np.asarray(equity_dates, dtype="datetime64[D]")
               - np.datetime64(start, "D")).astype(np.int64)
    bounds = np.rint(np.arange(n + 1) * total_days / n).astype(np.int64)
    # index of last trade with offset <= bound, shifted into `wealth`
    idx = np.searchsorted(offsets, bounds, side="right")
    w = wealth[idx]
    return w[1:] / w[:-1] - 1.0


def package_period_returns(equity_dates, equity_points, window, n):
    """`stabilized_period_returns` of one candidate at the one count n."""
    cfg = ObjectiveConfig(stabilization=StabilizationConfig(
        window=1, n_range=(n, n), fallback=n))
    [returns] = stabilized_period_returns([equity_dates], [equity_points],
                                          window, cfg)
    return returns


def test_period_returns_compound_to_final_wealth():
    start = dt.date(2020, 1, 1)
    window = (start, start + dt.timedelta(days=100))
    dates = [start + dt.timedelta(days=d) for d in (10, 30, 55, 80)]
    equity = np.array([0.02, 0.01, 0.05, 0.04])
    for n in (2, 4, 10):
        pr = package_period_returns(dates, equity, window, n)
        assert len(pr) == n
        assert float(np.prod(1 + pr)) == pytest.approx(1.04, abs=1e-12)


def test_period_returns_empty_slices_are_zero():
    start = dt.date(2020, 1, 1)
    window = (start, start + dt.timedelta(days=100))
    dates = [start + dt.timedelta(days=5)]
    equity = np.array([0.1])
    pr = package_period_returns(dates, equity, window, 10)
    assert pr[0] == pytest.approx(0.1)
    assert np.all(pr[1:] == 0.0)


def test_period_returns_no_trades():
    start = dt.date(2020, 1, 1)
    window = (start, start + dt.timedelta(days=50))
    pr = package_period_returns([], np.array([]), window, 5)
    assert np.all(pr == 0.0)


def oracle_period_returns(dates, equity, window, n):
    """Slice-by-slice loop: bounds rounded half to even by Python round()."""
    start, end = window
    total = (end - start).days
    offsets = [(d - start).days for d in dates]

    def wealth_at(bound):
        done = [e for o, e in zip(offsets, equity) if o <= bound]
        return 1.0 + done[-1] if done else 1.0

    bounds = [round(j * total / n) for j in range(n + 1)]
    return np.array([wealth_at(b) / wealth_at(a) - 1.0
                     for a, b in zip(bounds, bounds[1:])])


def test_period_returns_match_loop_oracle():
    # odd spans put bounds on exact halves, where rounding must go to even
    rng = np.random.Generator(np.random.Philox(7))
    start = dt.date(2020, 1, 1)
    for total in (5, 99, 101, 365, 1001):
        window = (start, start + dt.timedelta(days=total))
        offsets = np.sort(rng.choice(total + 1, size=min(40, total),
                                     replace=False))
        dates = [start + dt.timedelta(days=int(o)) for o in offsets]
        equity = np.cumsum(rng.normal(0.0, 0.02, offsets.size))
        for n in range(1, 92):
            want = oracle_period_returns(dates, equity, window, n)
            np.testing.assert_array_equal(
                package_period_returns(dates, equity, window, n), want)
            np.testing.assert_array_equal(
                period_returns(dates, equity, window, n), want)


def _rel_change(prev: float, cur: float) -> float:
    if prev == 0.0:
        return 0.0 if cur == 0.0 else math.inf
    return abs(cur - prev) / abs(prev)


def oracle_stabilized_count(equity_dates, equity_points, window, cfg):
    """One candidate, one `period_returns` call and one variance per n."""
    stab = cfg.stabilization
    lo, hi = stab.n_range
    if (window[1] - window[0]).days < lo:
        return stab.fallback
    variances = []
    for n in range(lo, hi + 1):
        pr = period_returns(equity_dates, equity_points, window, n)
        variances.append(float(np.var(pr)))
        if len(variances) >= stab.window:
            recent = variances[-stab.window:]
            if all(_rel_change(a, b) < stab.threshold
                   for a, b in zip(recent, recent[1:])):
                return n
    return stab.fallback


START = dt.date(2020, 1, 1)


@st.composite
def equity_pools(draw):
    """(span in days, [(exit-day offsets, trade returns)]) for 1-6
    candidates whose trades all lie inside one window."""
    span = draw(st.integers(0, 400))
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        rets = draw(st.lists(st.floats(-0.3, 0.3), max_size=25))
        offsets = draw(st.lists(st.integers(0, span), min_size=len(rets),
                                max_size=len(rets)))
        pool.append((sorted(offsets), rets))
    return span, pool


@settings(max_examples=300, deadline=None)
@given(pool=equity_pools(), threshold=st.floats(1e-4, 2.0),
       window=st.integers(1, 5), lo=st.integers(1, 60),
       width=st.integers(0, 40))
@example(pool=(365, [([], [])] * 3), threshold=0.01, window=3, lo=10,
         width=90)
@example(pool=(365, [([], []), ([5, 90, 200], [0.1, -0.05, 0.02])]),
         threshold=1e-6, window=5, lo=10, width=90)
@example(pool=(200, [([5, 50, 120], [0.1, -0.05, 0.02]), ([], [])]),
         threshold=0.01, window=1, lo=10, width=90)
@example(pool=(30, [([3, 20], [0.1, 0.1])]), threshold=0.5, window=2,
         lo=40, width=5)
@example(pool=(300, [([10, 100], [0.2, -0.1])]), threshold=0.5, window=2,
         lo=20, width=0)
# flat equity, with no trade or one on the window's first day, settles
# each candidate well before the end of the default n_range; the scan runs
# on to it and keeps each candidate's first settled count
@example(pool=(365, [([], []), ([0], [0.1])]), threshold=0.01, window=3,
         lo=10, width=90)
def test_stabilized_count_matches_oracle(pool, threshold, window, lo, width):
    span, cands = pool
    win = (START, START + dt.timedelta(days=span))
    dates = [np.array([START + dt.timedelta(days=o) for o in offsets],
                      dtype="datetime64[D]") for offsets, _ in cands]
    equity = [np.cumprod(1.0 + np.array(rets, float)) - 1.0
              for _, rets in cands]
    cfg = ObjectiveConfig(
        periodization=Periodization.STABILIZED,
        stabilization=StabilizationConfig(threshold, window,
                                          (lo, lo + width), 50))
    got = stabilized_period_returns(dates, equity, win, cfg)
    assert len(got) == len(cands)
    for returns, d, e in zip(got, dates, equity):
        n = oracle_stabilized_count(d, e, win, cfg)
        assert returns.dtype == float and returns.shape == (n,)
        np.testing.assert_array_equal(
            returns, oracle_period_returns(d.tolist(), e, win, n))


def counts(dates_list, equity_list, window, cfg):
    """The period count `stabilized_period_returns` chose per candidate."""
    return [len(r) for r in stabilized_period_returns(dates_list, equity_list,
                                                      window, cfg)]


def test_stabilized_count_threshold_is_strict():
    # a change exactly at the threshold is not below it
    window = (START, START + dt.timedelta(days=365))
    dates = np.array([START + dt.timedelta(days=d) for d in (20, 150, 300)],
                     dtype="datetime64[D]")
    equity = np.array([0.1, 0.05, 0.2])
    v0, v1 = (float(np.var(period_returns(dates, equity, window, n)))
              for n in (10, 11))
    cfg = ObjectiveConfig(stabilization=StabilizationConfig(
        abs(v1 - v0) / abs(v0), 2, (10, 11), 50))
    assert counts([dates], [equity], window, cfg) == [50]


def test_stabilized_variance_is_numpys_to_the_last_bit():
    # Every slice of these candidates trades, so the variances of 40 and
    # 41 period returns depend on numpy's summation order. A threshold at
    # the oracle's relative change keeps the scan on the fallback, outside
    # n_range, and one a step above it stops the scan at 41, for every row
    # of the pool, only if the scan's change equals the oracle's to the
    # bit; the returns at either count match the slice-by-slice oracle.
    rng = np.random.Generator(np.random.Philox(5))
    window = (START, START + dt.timedelta(days=365))
    dates = [np.array([START + dt.timedelta(days=int(d))
                       for d in np.sort(rng.choice(365, 150, False))],
                      dtype="datetime64[D]") for _ in range(30)]
    equity = [np.cumprod(1.0 + rng.normal(0.0, 0.02, 150)) - 1.0
              for _ in dates]
    for i, (d, e) in enumerate(zip(dates, equity)):
        v0, v1 = (float(np.var(period_returns(d, e, window, n)))
                  for n in (40, 41))
        change = abs(v1 - v0) / abs(v0)
        for threshold, want in ((change, 50),
                                (float(np.nextafter(change, np.inf)), 41)):
            cfg = ObjectiveConfig(stabilization=StabilizationConfig(
                threshold, 2, (40, 41), 50))
            got = stabilized_period_returns(dates, equity, window, cfg)[i]
            np.testing.assert_array_equal(
                got, oracle_period_returns(d.tolist(), e, window, want))


def random_pool(seed, size, span, trades):
    """`size` candidates on one window of `span` days, each with a number
    of trades drawn from `trades` on distinct days and returns of 2% vol."""
    rng = np.random.Generator(np.random.Philox(seed))
    dates, equity = [], []
    for _ in range(size):
        m = int(rng.integers(*trades))
        dates.append(np.datetime64(START, "D")
                     + np.sort(rng.choice(span + 1, m, replace=False)))
        equity.append(np.cumprod(1.0 + rng.normal(0.0, 0.02, m)) - 1.0)
    return dates, equity, (START, START + dt.timedelta(days=span))


def test_stabilized_pool_rows_choose_their_own_counts():
    # 40 candidates whose rows plateau at many different counts, and 17
    # that never do and take the fallback, which lies outside n_range
    dates, equity, window = random_pool(0, 40, 730, (0, 120))
    cfg = ObjectiveConfig(stabilization=StabilizationConfig(
        0.05, 3, (10, 40), 60))
    got = stabilized_period_returns(dates, equity, window, cfg)
    assert len({len(r) for r in got}) > 10
    assert sum(len(r) == 60 for r in got) == 17
    for returns, d, e in zip(got, dates, equity):
        n = oracle_stabilized_count(d, e, window, cfg)
        np.testing.assert_array_equal(
            returns, oracle_period_returns(d.tolist(), e, window, n))


def test_stabilized_scan_peak_memory():
    # A family as large as the search makes them (125 candidates over a
    # training window of about 3,000 days). The per-day index table and
    # the scan's matrices peak at about 2.21 MB here; the earlier scan,
    # in blocks of 25 candidates through two reused wealth buffers, peaked
    # at 2.36 MB.
    dates, equity, window = random_pool(3, 125, 3067, (50, 150))
    tracemalloc.start()
    try:
        stabilized_period_returns(dates, equity, window, STAB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25e6


def no_trades():
    return np.array([], "datetime64[D]"), np.array([])


def test_stabilized_count_short_span_falls_back():
    window = (START, START + dt.timedelta(days=5))
    dates, equity = no_trades()
    got = counts([dates] * 2, [equity] * 2, window, CFG)
    assert got == [CFG.stabilization.fallback] * 2


def test_stabilized_count_plateaus_on_flat_equity():
    # no trades: every periodization has zero variance, so the scan
    # plateaus as early as the window allows
    window = (START, START + dt.timedelta(days=365))
    dates, equity = no_trades()
    got = counts([dates] * 3, [equity] * 3, window, CFG)
    lo = CFG.stabilization.n_range[0]
    assert got == [lo + CFG.stabilization.window - 1] * 3


def test_stabilized_empty_pool_is_empty():
    window = (START, START + dt.timedelta(days=365))
    assert stabilized_period_returns([], [], window, CFG) == []


def test_stabilized_mode_bypasses_trade_gate():
    # 5 trades is far below n_min, but period observations stand in for
    # trades under the stabilized mode
    res, window = winning_backtest(n_trades=5)
    [[fixed]] = pool_losses([res], [ObjectiveKind.GT_SCORE], CFG, window)
    [[stab]] = pool_losses([res], [ObjectiveKind.GT_SCORE], STAB, window)
    assert fixed == CFG.below_min_penalty
    assert stab != STAB.below_min_penalty

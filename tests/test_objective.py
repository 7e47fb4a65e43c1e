"""Objective losses: piecewise branches, gating, periodization."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtscore.engine import run_backtest
from gtscore.errors import ParameterError
from gtscore.metrics import MetricContext
from gtscore.objective import (
    ObjectiveConfig,
    ObjectiveKind,
    Periodization,
    StabilizationConfig,
    StabilizedCount,
    baseline_loss,
    gt_score_loss,
    metric_context,
    period_returns,
    pool_losses,
    stabilized_period_count,
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


def test_baseline_losses_oriented():
    c = ctx(1.0, mu=0.02, sigma=0.04, sigma_d=0.01)
    assert baseline_loss(ObjectiveKind.SIMPLE, c, 0.5, CFG) == -0.5
    assert baseline_loss(ObjectiveKind.SHARPE, c, 0.5, CFG) == pytest.approx(
        -0.02 / 0.040001)
    assert baseline_loss(ObjectiveKind.SORTINO, c, 0.5, CFG) == pytest.approx(
        -0.02 / 0.010001)
    with pytest.raises(ParameterError):
        baseline_loss(ObjectiveKind.GT_SCORE, c, 0.5, CFG)


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


def test_config_json_round_trip():
    cfg = ObjectiveConfig(
        eps=1e-5, n_min=20, below_min_penalty=250.0,
        periodization=Periodization.STABILIZED,
        stabilization=StabilizationConfig(0.05, 4, (5, 80), 40),
        benchmark_mode="arithmetic", r2_on_log_equity=True)
    assert ObjectiveConfig.from_json(cfg.to_json()) == cfg


def test_config_validation():
    with pytest.raises(ParameterError):
        ObjectiveConfig(below_min_penalty=150.0)
    with pytest.raises(ParameterError):
        ObjectiveConfig(eps=0.0)
    with pytest.raises(ParameterError):
        ObjectiveConfig(benchmark_mode="median")


@pytest.mark.parametrize("kwargs", [
    dict(threshold=-1.0), dict(threshold=0.0), dict(threshold=math.inf),
    dict(threshold=math.nan), dict(window=0), dict(n_range=(0, 5)),
    dict(n_range=(50, 10)), dict(n_range=(10,)), dict(n_range=(1, 2, 3)),
    dict(n_range=(10.0, 20)), dict(fallback=0),
])
def test_stabilization_config_validation(kwargs):
    with pytest.raises(ParameterError, match="stabilization"):
        StabilizationConfig(**kwargs)


def test_stabilization_config_accepts_edges():
    cfg = StabilizationConfig(threshold=1e-9, window=1, n_range=(1, 1),
                              fallback=1)
    assert cfg.n_range == (1, 1)


# --- metric_context and pool_losses ---------------------------------------


def winning_backtest(n_trades=60):
    # alternating rises so each round trip gains, opens gap to prior close
    closes = [100.0]
    for _ in range(n_trades):
        closes.append(closes[-1] * 1.01)
        closes.append(closes[-1] * 1.005)
    series = make_series(closes)
    pos = np.zeros(len(closes), dtype=bool)
    pos[0::2] = True  # enter on even bars, exit next bar
    pos[-1] = False
    return run_backtest(series, pos, series.start_date, series.span_end)


def test_metric_context_fields():
    res = winning_backtest()
    c = metric_context(res, CFG)
    assert c.n == res.n_trades
    assert c.mu == pytest.approx(float(res.trade_returns.mean()))
    assert c.sigma == pytest.approx(float(res.trade_returns.std()))
    geo = (1.0 + res.benchmark_total_return) ** (1.0 / c.n) - 1.0
    assert c.mu_m == pytest.approx(geo)


def test_metric_context_arithmetic_mode():
    res = winning_backtest()
    cfg = ObjectiveConfig(benchmark_mode="arithmetic")
    c = metric_context(res, cfg)
    assert c.mu_m == pytest.approx(res.benchmark_total_return / c.n)


def test_trial_loss_zero_trades_is_penalty():
    series = make_series([10, 11, 12, 13, 12, 11, 12])
    res = run_backtest(series, np.zeros(7, bool), series.start_date,
                       series.span_end)
    for cfg in (CFG, STAB):
        losses = pool_losses([res, None], list(ObjectiveKind), cfg)
        assert losses == [[cfg.below_min_penalty] * 2] * len(ObjectiveKind)


def test_trial_loss_matches_direct_composition():
    res = winning_backtest()
    c = metric_context(res, CFG)
    gt, simple = pool_losses([res], [ObjectiveKind.GT_SCORE,
                                     ObjectiveKind.SIMPLE], CFG)
    assert gt == [gt_score_loss(c, CFG)]
    assert simple == [baseline_loss(ObjectiveKind.SIMPLE, c,
                                    res.total_return, CFG)]


def stabilized_pool():
    """A missing, a zero-trade and three trading backtests on one window."""
    rng = np.random.Generator(np.random.Philox(11))
    series = make_series(random_closes(rng, 400, vol=0.01))
    pool = [None]
    for p in (0.0, 0.1, 0.3, 0.5):
        pos = rng.random(400) < p
        pool.append(run_backtest(series, pos, series.start_date,
                                 series.span_end))
    return pool


def test_pool_losses_stabilized_match_single_candidate_pools():
    pool = stabilized_pool()
    objectives = list(ObjectiveKind)
    whole = pool_losses(pool, objectives, STAB)
    singles = [pool_losses([res], objectives, STAB) for res in pool]
    assert sum(r is not None and r.n_trades > 0 for r in pool) == 3
    apart = [[single[j][0] for single in singles]
             for j in range(len(objectives))]
    assert np.array(whole).tobytes() == np.array(apart).tobytes()


def test_pool_losses_stabilized_rejects_mixed_windows():
    series = make_series(random_closes(np.random.Generator(
        np.random.Philox(12)), 300))
    pos = np.zeros(300, bool)
    pos[::3] = True
    a = run_backtest(series, pos, series.start_date, series.span_end)
    b = run_backtest(series, pos, series.start_date + dt.timedelta(days=10),
                     series.span_end)
    with pytest.raises(ParameterError, match="one window"):
        pool_losses([a, b], [ObjectiveKind.GT_SCORE], STAB)
    # the fixed-trades mode reads no window
    assert len(pool_losses([a, b], [ObjectiveKind.GT_SCORE], CFG)[0]) == 2


# --- periodization ---------------------------------------------------------


def test_period_returns_compound_to_final_wealth():
    start = dt.date(2020, 1, 1)
    window = (start, start + dt.timedelta(days=100))
    dates = [start + dt.timedelta(days=d) for d in (10, 30, 55, 80)]
    equity = np.array([0.02, 0.01, 0.05, 0.04])
    for n in (2, 4, 10):
        pr = period_returns(dates, equity, window, n)
        assert len(pr) == n
        assert float(np.prod(1 + pr)) == pytest.approx(1.04, abs=1e-12)


def test_period_returns_empty_slices_are_zero():
    start = dt.date(2020, 1, 1)
    window = (start, start + dt.timedelta(days=100))
    dates = [start + dt.timedelta(days=5)]
    equity = np.array([0.1])
    pr = period_returns(dates, equity, window, 10)
    assert pr[0] == pytest.approx(0.1)
    assert np.all(pr[1:] == 0.0)


def test_period_returns_no_trades():
    start = dt.date(2020, 1, 1)
    window = (start, start + dt.timedelta(days=50))
    pr = period_returns([], np.array([]), window, 5)
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
            np.testing.assert_array_equal(
                period_returns(dates, equity, window, n),
                oracle_period_returns(dates, equity, window, n))


def _rel_change(prev: float, cur: float) -> float:
    if prev == 0.0:
        return 0.0 if cur == 0.0 else math.inf
    return abs(cur - prev) / abs(prev)


def oracle_stabilized_count(equity_dates, equity_points, window, cfg):
    """One candidate, one `period_returns` call and one variance per n."""
    stab = cfg.stabilization
    lo, hi = stab.n_range
    if (window[1] - window[0]).days < lo:
        return StabilizedCount(stab.fallback, False)
    variances = []
    for n in range(lo, hi + 1):
        pr = period_returns(equity_dates, equity_points, window, n)
        variances.append(float(np.var(pr)))
        if len(variances) >= stab.window:
            recent = variances[-stab.window:]
            if all(_rel_change(a, b) < stab.threshold
                   for a, b in zip(recent, recent[1:])):
                return StabilizedCount(n, True)
    return StabilizedCount(stab.fallback, False)


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
    got = stabilized_period_count(dates, equity, win, cfg)
    assert got == [oracle_stabilized_count(d, e, win, cfg)
                   for d, e in zip(dates, equity)]


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
    assert stabilized_period_count([dates], [equity], window, cfg) == [
        (50, False)]


def no_trades():
    return np.array([], "datetime64[D]"), np.array([])


def test_stabilized_count_short_span_falls_back():
    window = (START, START + dt.timedelta(days=5))
    dates, equity = no_trades()
    got = stabilized_period_count([dates] * 2, [equity] * 2, window, CFG)
    assert got == [(CFG.stabilization.fallback, False)] * 2


def test_stabilized_count_plateaus_on_flat_equity():
    # no trades: every periodization has zero variance, so the scan
    # plateaus as early as the window allows
    window = (START, START + dt.timedelta(days=365))
    dates, equity = no_trades()
    got = stabilized_period_count([dates] * 3, [equity] * 3, window, CFG)
    lo = CFG.stabilization.n_range[0]
    assert got == [(lo + CFG.stabilization.window - 1, True)] * 3


def test_stabilized_mode_bypasses_trade_gate():
    # 5 trades is far below n_min, but period observations stand in for
    # trades under the stabilized mode
    res = winning_backtest(n_trades=5)
    [[fixed]] = pool_losses([res], [ObjectiveKind.GT_SCORE], CFG)
    [[stab]] = pool_losses([res], [ObjectiveKind.GT_SCORE], STAB)
    assert fixed == CFG.below_min_penalty
    assert stab != STAB.below_min_penalty

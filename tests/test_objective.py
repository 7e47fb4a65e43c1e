"""Objective losses: piecewise branches, gating, periodization."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtscore.engine import run_backtest
from gtscore.errors import ParameterError
from gtscore.metrics import MetricContext
from gtscore.objective import (
    ObjectiveConfig,
    ObjectiveKind,
    Periodization,
    StabilizationConfig,
    baseline_loss,
    gt_score_loss,
    metric_context,
    period_returns,
    stabilized_period_count,
    trial_loss,
)

from conftest import make_series

CFG = ObjectiveConfig()


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


# --- metric_context and trial_loss ----------------------------------------


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
    for kind in ObjectiveKind:
        assert trial_loss(kind, res, CFG) == CFG.below_min_penalty


def test_trial_loss_matches_direct_composition():
    res = winning_backtest()
    c = metric_context(res, CFG)
    assert trial_loss(ObjectiveKind.GT_SCORE, res, CFG) == gt_score_loss(c, CFG)
    assert trial_loss(ObjectiveKind.SIMPLE, res, CFG) == baseline_loss(
        ObjectiveKind.SIMPLE, c, res.total_return, CFG)


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


def test_stabilized_count_short_span_falls_back():
    start = dt.date(2020, 1, 1)
    window = (start, start + dt.timedelta(days=5))
    got = stabilized_period_count([], np.array([]), window, CFG)
    assert got.n == CFG.stabilization.fallback
    assert not got.plateaued


def test_stabilized_count_plateaus_on_flat_equity():
    # no trades: every periodization has zero variance, so the scan
    # plateaus as early as the window allows
    start = dt.date(2020, 1, 1)
    window = (start, start + dt.timedelta(days=365))
    got = stabilized_period_count([], np.array([]), window, CFG)
    lo = CFG.stabilization.n_range[0]
    assert got.plateaued
    assert got.n == lo + CFG.stabilization.window - 1


def test_stabilized_mode_bypasses_trade_gate():
    # 5 trades is far below n_min, but period observations stand in for
    # trades under the stabilized mode
    res = winning_backtest(n_trades=5)
    cfg = ObjectiveConfig(periodization=Periodization.STABILIZED)
    fixed = ObjectiveConfig()
    assert trial_loss(ObjectiveKind.GT_SCORE, res, fixed) == CFG.below_min_penalty
    assert trial_loss(ObjectiveKind.GT_SCORE, res, cfg) != cfg.below_min_penalty

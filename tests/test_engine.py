"""Execution engine: fills, forced exits, costs, benchmark helpers."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtscore.data import SyntheticSpec, generate_synthetic_series
from gtscore.engine import (
    BPS,
    benchmark_arithmetic_mean,
    benchmark_per_observation_mean,
    entry_bars,
    recompound_with_costs,
    run_backtest,
)

from conftest import make_series

D = dt.date


def oracle_backtest(series, positions, window_start, window_end,
                    cost_bps_per_side=0.0):
    """Reference engine: a bar-by-bar state machine with pending fills,
    run over the bars of [window_start, window_end) of the whole series and
    charging the per-side cost on each trade, which loses at most its stake.

    Returns (trade_returns, equity_points, total_return,
    benchmark_total_return, exit_dates).
    """
    i0, i1 = series.index_window(window_start, window_end)
    cost = 2.0 * cost_bps_per_side * BPS
    opens, closes = series.opens.tolist(), series.closes.tolist()
    dates = series.dates.tolist()
    sig_list = np.asarray(positions, dtype=bool).tolist()
    returns, exit_dates = [], []
    held = False
    entry_price = 0.0
    pending = None
    prev_sig = False

    def close_trade(exit_date, exit_price):
        gross = exit_price / entry_price - 1.0
        returns.append(max(gross - cost, -1.0))
        exit_dates.append(exit_date)

    for i in range(i0, i1):
        if pending == "enter":
            # Skip entries that would fill on the final bar.
            if i < i1 - 1:
                held = True
                entry_price = float(opens[i])
            pending = None
        elif pending == "exit":
            close_trade(dates[i], float(opens[i]))
            held = False
            pending = None
        sig = sig_list[i]
        if sig and not prev_sig and not held and pending is None:
            pending = "enter"
        elif prev_sig and not sig and held:
            pending = "exit"
        prev_sig = sig

    if held:
        close_trade(dates[i1 - 1], float(closes[i1 - 1]))

    trade_returns = np.array(returns, dtype=float)
    equity_points = np.cumprod(1.0 + trade_returns) - 1.0
    total_return = float(equity_points[-1]) if returns else 0.0
    benchmark = float(closes[i1 - 1] / closes[i0] - 1.0)
    return trade_returns, equity_points, total_return, benchmark, exit_dates


@st.composite
def backtest_cases(draw):
    """(closes, opens, positions, window bar range, cost bps); a window
    holds at least 2 bars, as every series does."""
    n = draw(st.integers(2, 40))
    prices = st.floats(1.0, 1000.0, allow_nan=False, allow_infinity=False)
    closes = draw(st.lists(prices, min_size=n, max_size=n))
    opens = draw(st.lists(prices, min_size=n, max_size=n))
    positions = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    i0 = draw(st.integers(0, n - 2))
    i1 = draw(st.integers(i0 + 2, n))
    cost = draw(st.sampled_from([0.0, 2.5, 10.0]) | st.floats(0.0, 100.0))
    return closes, opens, positions, (i0, i1), cost


def _edge_case(positions):
    closes = [10.0, 11.0, 12.0, 13.0, 12.0, 11.0, 12.0][:len(positions)]
    opens = [10.0] + closes[:-1]
    return closes, opens, positions, (0, len(positions)), 5.0


@settings(max_examples=400, deadline=None)
@given(case=backtest_cases())
# one-bar signal: enters at bar 2's open, exits at bar 3's open
@example(case=_edge_case([0, 1, 0, 0, 0, 0, 0]))
# entry signal on the last bar, and one that would fill on the last bar
@example(case=_edge_case([0, 0, 0, 0, 0, 0, 1]))
@example(case=_edge_case([0, 0, 0, 0, 0, 1, 1]))
# fall on the last bar: the exit would fill after the window, so the
# position is force-closed at the last close
@example(case=_edge_case([0, 1, 1, 1, 1, 1, 0]))
# forced close of a position still held at the end, after a round trip
@example(case=_edge_case([1, 0, 1, 1, 1, 1, 1]))
# a trade whose costs take more than what is left of its stake
@example(case=([1.0] * 5, [1.0, 1.0, 313.0, 1.0, 1.0],
               [False, True, False, False, False], (0, 4), 16.0))
def test_backtest_matches_oracle(case):
    # The engine runs on the cut window, gross of costs; the oracle runs on
    # the whole series with window bounds. Costs are charged by
    # `recompound_with_costs`, which must agree with the oracle's net trades.
    closes, opens, positions, (i0, i1), cost = case
    series = make_series(closes, opens=opens)
    start = series.dates[i0].item()
    end = series.dates[i1 - 1].item() + dt.timedelta(days=1)
    window = series.slice(start, end)
    res = run_backtest(window, np.array(positions, bool)[i0:i1])
    net_total = oracle_backtest(series, positions, start, end, cost)[2]
    assert math.isclose(recompound_with_costs(res.trade_returns, cost),
                        net_total, rel_tol=1e-12, abs_tol=1e-12)
    returns, equity, total, bench, exit_dates = oracle_backtest(
        series, positions, start, end)
    assert res.trade_returns.dtype == returns.dtype
    assert res.trade_returns.tobytes() == returns.tobytes()
    assert res.equity_points.tobytes() == equity.tobytes()
    assert res.total_return == total
    assert res.benchmark_total_return == bench
    assert res.trade_exit_dates.dtype == np.dtype("datetime64[D]")
    assert res.trade_exit_dates.tolist() == exit_dates
    assert res.n_trades == len(exit_dates)
    assert (window.start_date, window.span_end) == (start, end)


@settings(max_examples=300, deadline=None)
@given(positions=st.lists(st.booleans(), min_size=2, max_size=12))
@example(positions=[False] * 12)
@example(positions=[True] * 12)
@example(positions=[True, True])
# rises on the second-to-last and on the last bar
@example(positions=[False, False, False, True, True])
@example(positions=[False, True, False, False, True])
@example(positions=[True, False, True, False, True, False, True])
def test_entry_bars_count_the_backtest_trades(positions):
    # The search gates candidates on len(entry_bars(...)) before any
    # backtest, so it must be the trade count of the full backtest.
    series = make_series(100.0 + np.arange(len(positions)))
    sig = np.array(positions, dtype=bool)
    assert len(entry_bars(sig)) == run_backtest(series, sig).n_trades
    assert len(entry_bars(positions)) == len(oracle_backtest(
        series, positions, series.start_date, series.span_end)[0])


def test_single_trade_hand_example():
    # closes 10,11,12,13,12,11,12; opens are the prior close. A long signal
    # appearing at bar 1 fills at bar 2's open (11); the exit signal at
    # bar 3 fills at bar 4's open (13).
    series = make_series([10, 11, 12, 13, 12, 11, 12])
    pos = np.array([0, 1, 1, 0, 0, 1, 1], dtype=bool)
    res = run_backtest(series, pos)
    assert res.n_trades == 1
    assert res.trade_returns[0] == 13.0 / 11.0 - 1.0
    assert res.trade_exit_dates.tolist() == [D(2020, 1, 5)]
    # the entry signal at bar 5 would fill on the final bar and is skipped
    assert res.total_return == pytest.approx(2.0 / 11.0)
    assert res.benchmark_total_return == pytest.approx(12.0 / 10.0 - 1.0)


def test_cost_haircut_per_round_trip():
    # backtests are gross; 10 bps per side costs 0.002 per round trip
    series = make_series([10, 11, 12, 13, 12, 11, 12])
    pos = np.array([0, 1, 1, 0, 0, 0, 0], dtype=bool)
    res = run_backtest(series, pos)
    assert res.trade_returns.tolist() == [13.0 / 11.0 - 1.0]
    assert recompound_with_costs(res.trade_returns, 10.0) == pytest.approx(
        13.0 / 11.0 - 1.0 - 0.002, rel=1e-12)


def test_force_exit_at_last_close():
    series = make_series([10, 11, 12, 13, 12, 11, 12])
    pos = np.array([0, 1, 1, 1, 1, 1, 1], dtype=bool)
    res = run_backtest(series, pos)
    assert res.n_trades == 1
    # entered at 11, exited at the last close (12), not at an open
    assert res.trade_returns[0] == 12.0 / 11.0 - 1.0
    assert res.trade_exit_dates.tolist() == [D(2020, 1, 7)]


def test_entry_on_final_bar_is_skipped():
    series = make_series([10, 11, 12, 13, 12, 11, 12])
    pos = np.array([0, 0, 0, 0, 0, 1, 1], dtype=bool)
    res = run_backtest(series, pos)
    assert res.n_trades == 0
    assert res.total_return == 0.0


def test_window_restricts_execution():
    series = make_series([10, 11, 12, 13, 12, 11, 12])
    pos = np.ones(7, dtype=bool)
    window = series.slice(D(2020, 1, 3), D(2020, 1, 6))
    res = run_backtest(window, pos[2:5])
    # within [bar2, bar5): entry fills at bar 3 open, forced out at bar 4
    # close; the benchmark covers the same bars
    assert (window.start_date, window.span_end) == (D(2020, 1, 3),
                                                    D(2020, 1, 6))
    assert res.trade_returns.tolist() == [12.0 / 12.0 - 1.0]
    assert res.trade_exit_dates.tolist() == [D(2020, 1, 5)]
    assert res.benchmark_total_return == pytest.approx(12.0 / 12.0 - 1.0)


def test_always_long_equals_buy_and_hold():
    # With opens gapping to the prior close, an always-long strategy entered
    # at the second bar compounds to exactly the buy-and-hold return.
    spec = SyntheticSpec(200, 100.0, ((200, 0.0005, 0.02),), seed=42)
    series = generate_synthetic_series(spec)
    pos = np.ones(len(series), dtype=bool)
    res = run_backtest(series, pos)
    assert res.n_trades == 1
    assert res.total_return == pytest.approx(res.benchmark_total_return,
                                             abs=1e-12)


def test_equity_points_compound():
    series = make_series([10, 11, 12, 13, 12, 11, 13, 14, 15])
    pos = np.array([0, 1, 1, 0, 0, 1, 1, 0, 0], dtype=bool)
    res = run_backtest(series, pos)
    assert res.n_trades == 2
    r = res.trade_returns
    np.testing.assert_allclose(res.equity_points,
                               np.cumprod(1 + r) - 1)
    assert res.total_return == pytest.approx(res.equity_points[-1])


# --- benchmark helpers -----------------------------------------------------


def test_geometric_benchmark_identity():
    m = benchmark_per_observation_mean(0.5, 10)
    assert (1 + m) ** 10 == pytest.approx(1.5, abs=1e-12)
    assert benchmark_per_observation_mean(0.0, 7) == 0.0


def test_arithmetic_benchmark():
    assert benchmark_arithmetic_mean(0.5, 10) == pytest.approx(0.05)


def test_benchmark_errors():
    # a float fault, which the search's boundary names by asset and split
    with pytest.raises(FloatingPointError, match="must be > -1"):
        benchmark_per_observation_mean(-1.0, 5)


# --- cost recompounding ----------------------------------------------------


def test_recompound_zero_extra_matches_total():
    r = np.array([0.05, -0.02, 0.03])
    assert recompound_with_costs(r, 0.0) == pytest.approx(
        float(np.prod(1 + r) - 1))
    assert recompound_with_costs(np.array([]), 5.0) == 0.0


def test_recompound_hand_value():
    r = np.array([0.05, -0.02])
    # 5 bps per side shaves 0.001 off each trade
    want = (1.049) * (0.979) - 1.0
    assert recompound_with_costs(r, 5.0) == pytest.approx(want, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    returns=st.lists(st.floats(-0.5, 0.5), min_size=0, max_size=20),
    lo=st.floats(0.0, 20.0),
    hi=st.floats(0.0, 20.0),
)
def test_recompound_monotone_in_costs(returns, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    r = np.array(returns)
    assert (recompound_with_costs(r, hi)
            <= recompound_with_costs(r, lo) + 1e-12)

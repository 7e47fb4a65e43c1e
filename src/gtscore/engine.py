"""Signal execution: trade-level returns, equity curve, benchmark.

Execution convention: a backtest runs over every bar of the series it is
given (callers cut the window with `PriceSeries.slice`). A signal transition
observed at bar i fills at bar i+1's open (signals are computed on closes,
so same-bar fills would peek); a position still open at the last bar is
force-exited at its close. Backtests are gross: `recompound_with_costs`
charges a flat per-side haircut in basis points on entry and exit.

Trades come out as arrays (returns and exit dates), derived from the
rising and falling edges of the position array; no per-trade objects exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PriceSeries
from .errors import ConfigError

BPS = 1e-4


@dataclass
class BacktestResult:
    trade_returns: np.ndarray
    equity_points: np.ndarray
    total_return: float
    benchmark_total_return: float
    trade_exit_dates: np.ndarray  # datetime64[D], one per trade

    @property
    def n_trades(self) -> int:
        return len(self.trade_returns)


def entry_bars(positions: np.ndarray) -> np.ndarray:
    """Bars whose open fills an entry of the long/flat `positions`, flat
    before the first bar: one per trade `run_backtest` makes, so its length
    is the trade count. A rise at bar r fills at r + 1; fills on the final
    bar are skipped, since they would be force-closed the same day with
    zero holding period."""
    sig = np.asarray(positions, dtype=bool)
    prev = np.concatenate(([False], sig[:-1]))
    rises = np.flatnonzero(sig & ~prev)
    return rises[rises < len(sig) - 2] + 1


def run_backtest(series: PriceSeries, positions: np.ndarray) -> BacktestResult:
    """Execute long/flat signals over every bar of `series`, flat before
    the first bar. `positions` must be aligned 1:1 with series bars."""
    if len(positions) != len(series):
        raise ConfigError("positions not aligned with series bars")
    m = len(series)
    opens, closes = series.opens, series.closes
    sig = np.asarray(positions, dtype=bool)
    entry_at = entry_bars(sig)
    n = len(entry_at)
    falls = np.flatnonzero(sig[:-1] & ~sig[1:]) + 1
    # Edges alternate, so the k-th entry pairs with the k-th fall (a bar
    # where the position turns flat), which fills at the next open; a
    # trade with no fall, or a fall on the last bar, is force-closed at
    # the last close.
    exit_at = np.append(falls + 1, m)[:n]
    forced = exit_at == m
    exit_at[forced] = m - 1
    exit_prices = np.where(forced, closes[-1], opens[exit_at])

    trade_returns = exit_prices / opens[entry_at] - 1.0
    equity_points = np.cumprod(1.0 + trade_returns) - 1.0
    return BacktestResult(
        trade_returns=trade_returns,
        equity_points=equity_points,
        total_return=float(equity_points[-1]) if n else 0.0,
        benchmark_total_return=float(closes[-1] / closes[0] - 1.0),
        trade_exit_dates=series.dates[exit_at],
    )


def benchmark_per_observation_mean(benchmark_total_return: float,
                                   n: int) -> float:
    """Per-trade-equivalent buy-and-hold mean: the geometric n-th root.

    Chosen so the strategy mean equals the benchmark mean exactly for an
    always-in, zero-cost strategy.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    if benchmark_total_return <= -1:
        raise ConfigError("benchmark total return must be > -1")
    return float((1.0 + benchmark_total_return) ** (1.0 / n) - 1.0)


def benchmark_arithmetic_mean(benchmark_total_return: float, n: int) -> float:
    """Alternative per-observation benchmark: total return divided by n."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    return benchmark_total_return / n


def recompound_with_costs(trade_returns: np.ndarray,
                          extra_bps_per_side: float) -> float:
    """Compound trade returns after haircutting each by 2 * extra_bps. A
    trade loses at most its stake: its wealth factor is floored at 0, so a
    wiped-out trade makes the total exactly -1."""
    r = np.asarray(trade_returns, dtype=float)
    if r.size == 0:
        return 0.0
    factors = np.maximum(1.0 + r - 2.0 * extra_bps_per_side * BPS, 0.0)
    return float(np.prod(factors) - 1.0)

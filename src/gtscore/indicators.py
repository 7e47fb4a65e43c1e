"""Technical indicators on close prices: RSI, MACD, Bollinger Bands.

Outputs are numpy arrays aligned 1:1 with the input closes; warm-up
positions hold NaN. values[i] depends only on closes[0..i] (no lookahead).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import InsufficientDataError, ParameterError


def rsi(closes: np.ndarray, period: int) -> np.ndarray:
    """Wilder's RSI.

    Initial average gain/loss is the simple mean of the first `period`
    up/down moves; thereafter avg = (prev * (period - 1) + current) / period.
    RSI = 100 when the average loss is zero, 0 when the average gain is zero.
    """
    closes = np.asarray(closes, dtype=float)
    n = len(closes)
    if period < 2:
        raise ParameterError("rsi period must be >= 2")
    if n <= period:
        raise InsufficientDataError(f"rsi needs > {period} closes, got {n}")
    deltas = np.diff(closes)
    gains = np.maximum(deltas, 0.0)
    losses = np.maximum(-deltas, 0.0)

    out = [math.nan] * n
    gains_l, losses_l = gains.tolist(), losses.tolist()
    avg_gain = float(gains[:period].mean())
    avg_loss = float(losses[:period].mean())
    for i in range(period, n):
        if i > period:
            avg_gain = (avg_gain * (period - 1) + gains_l[i - 1]) / period
            avg_loss = (avg_loss * (period - 1) + losses_l[i - 1]) / period
        if avg_loss == 0.0:
            out[i] = 100.0
        elif avg_gain == 0.0:
            out[i] = 0.0
        else:
            out[i] = 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
    return np.array(out)


def ema(values: np.ndarray, period: int) -> np.ndarray:
    """EMA with multiplier 2/(period+1), seeded by the SMA of the first
    `period` values; NaN before index period-1."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if period < 1:
        raise ParameterError("ema period must be >= 1")
    if n < period:
        raise InsufficientDataError(f"ema needs >= {period} values, got {n}")
    out = [math.nan] * n
    mult = 2.0 / (period + 1.0)
    vals = values.tolist()
    prev = float(values[:period].mean())
    out[period - 1] = prev
    for i in range(period, n):
        prev = prev + mult * (vals[i] - prev)
        out[i] = prev
    return np.array(out)


def macd(closes: np.ndarray, fast: int, slow: int, signal_p: int,
         leg=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MACD line, signal line, histogram.

    The MACD line is EMA(fast) - EMA(slow), defined once the slow EMA is.
    The signal line is an EMA of the defined MACD values; the histogram is
    their difference. `leg(p)`, when given, returns the EMA(p) of `closes`
    (a caller's cache of the two legs).
    """
    n = len(closes)
    if fast >= slow:
        raise ParameterError(f"fast ({fast}) must be < slow ({slow})")
    if n <= slow + signal_p:
        raise InsufficientDataError(
            f"macd needs > {slow + signal_p} closes, got {n}")
    leg = leg or partial(ema, closes)
    macd_line = leg(fast) - leg(slow)  # NaN until slow EMA defined

    signal_line = np.full(n, np.nan)
    start = slow - 1  # first defined macd index
    signal_line[start:] = ema(macd_line[start:], signal_p)
    histogram = macd_line - signal_line
    return macd_line, signal_line, histogram


def bollinger(closes: np.ndarray, window: int, k: float,
              stats=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Middle/upper/lower Bollinger bands.

    Middle is a simple moving average; the band offset is k times the
    population standard deviation over the same window. `stats`, when
    given, is `rolling_stats(closes, window)` (a caller's cache).
    """
    if k <= 0:
        raise ParameterError("bollinger k must be > 0")
    middle, std = rolling_stats(closes, window) if stats is None else stats
    offset = k * std
    return middle, middle + offset, middle - offset


def rolling_stats(closes: np.ndarray,
                  window: int) -> tuple[np.ndarray, np.ndarray]:
    """Rolling mean and population std of `window` closes; NaN in warm-up."""
    closes = np.asarray(closes, dtype=float)
    n = len(closes)
    if window < 2:
        raise ParameterError("bollinger window must be >= 2")
    if n < window:
        raise InsufficientDataError(
            f"bollinger needs >= {window} closes, got {n}")
    views = np.lib.stride_tricks.sliding_window_view(closes, window)
    warmup = np.full(window - 1, np.nan)
    return (np.concatenate([warmup, views.mean(axis=1)]),
            np.concatenate([warmup, views.std(axis=1)]))

"""Technical indicators on close prices: RSI, MACD, Bollinger Bands.

Outputs are numpy arrays aligned 1:1 with the input closes; warm-up
positions hold NaN. values[i] depends only on closes[0..i] (no lookahead),
so the output on closes[:cut] is the first `cut` values of the output on
closes, whatever `cut`: a series too short for a warm-up to end is all NaN.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def rsi(closes: np.ndarray, period: int) -> np.ndarray:
    """Wilder's RSI of one period: `rsi_columns` for a single column."""
    return rsi_columns(closes, [period])[:, 0]


def rsi_columns(closes: np.ndarray, periods) -> np.ndarray:
    """Wilder's RSI of `closes` for each of `periods`, as the columns of a
    time-major (bars, len(periods)) array, in one pass over the bars.

    Initial average gain/loss is the simple mean of the first `period`
    up/down moves; thereafter avg = (prev * (period - 1) + current) / period.
    RSI = 100 when the average loss is zero, else 0 when the average gain
    is zero; NaN before index `period`.
    """
    closes = np.asarray(closes, dtype=float)
    n = len(closes)
    for period in periods:
        if period < 2:
            raise ParameterError("rsi period must be >= 2")
    deltas = np.diff(closes)
    gains, losses = np.maximum(deltas, 0.0), np.maximum(-deltas, 0.0)
    k = len(periods)
    # Row i holds the move into bar i, gains in the first k columns and
    # losses in the last k, until the pass turns it into the averages after
    # bar i. A column holds NaN before its seed row, which the update keeps.
    avg = np.empty((n, 2 * k))
    avg[1:, :k] = gains[:, None]
    avg[1:, k:] = losses[:, None]
    width = np.array(list(periods) * 2, dtype=float)
    keep = width - 1.0
    seeds = {}  # row -> columns seeded there
    for j, period in enumerate(periods):
        seeds.setdefault(period, []).append(j)
    begin = min(seeds, default=n)
    avg[:begin + 1] = np.nan
    for i in range(begin, n):
        row = avg[i]
        if i > begin:
            row += prev * keep
            row /= width
        if i in seeds:
            cols = seeds[i]
            row[cols] = float(gains[:i].mean())
            row[[k + j for j in cols]] = float(losses[:i].mean())
        prev = row
    gain, loss = avg[:, :k], avg[:, k:]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 100.0 - 100.0 / (1.0 + gain / loss)
    out[gain == 0.0] = 0.0
    out[loss == 0.0] = 100.0
    return out


def ema_columns(x: np.ndarray, periods, starts) -> np.ndarray:
    """EMAs of the columns of the time-major (bars, k) float array `x`, in
    place and in one pass over the bars; returns `x`.

    Column j is EMA(periods[j]) of x[starts[j]:, j]: multiplier
    2/(period+1), seeded by the SMA of its first `period` values, NaN
    before row starts[j] + periods[j] - 1.
    """
    n = len(x)
    mult = np.array([2.0 / (period + 1.0) for period in periods])
    # row -> (columns seeded there, their seeds), each seed the mean of a
    # contiguous 1-D copy of the column's first `period` values
    seeds = {}
    for j, (period, start) in enumerate(zip(periods, starts)):
        if period < 1:
            raise ParameterError("ema period must be >= 1")
        first = start + period - 1
        if first < n:  # else the column is all warm-up
            cols, vals = seeds.setdefault(first, ([], []))
            cols.append(j)
            vals.append(float(
                np.ascontiguousarray(x[start:first + 1, j]).mean()))
    begin = min(seeds, default=n)
    x[:begin] = np.nan
    for i in range(begin, n):
        row = x[i]
        if i > begin:  # columns not yet seeded hold NaN, which this keeps
            row -= prev
            row *= mult
            row += prev
        else:
            row[:] = np.nan
        if i in seeds:
            row[seeds[i][0]] = seeds[i][1]
        prev = row
    return x


def macd_columns(closes: np.ndarray, triples) -> tuple[dict, np.ndarray]:
    """EMA legs and signal lines of the MACD (fast, slow, signal) `triples`:
    a dict from each fast and slow period to its EMA of `closes`, from one
    time-major pass, and a (bars, len(triples)) array whose column j is
    the signal line of triples[j], from a second pass.

    The MACD line is EMA(fast) - EMA(slow), defined once the slow EMA is.
    Its signal line is the EMA of its defined values, computed in place of
    the line.
    """
    closes = np.asarray(closes, dtype=float)
    n = len(closes)
    for fast, slow, _ in triples:
        if fast >= slow:
            raise ParameterError(f"fast ({fast}) must be < slow ({slow})")
    periods = sorted({p for t in triples for p in t[:2]})
    legs = dict(zip(periods, ema_columns(
        np.repeat(closes[:, None], len(periods), axis=1), periods,
        [0] * len(periods)).T))
    lines = np.empty((n, len(triples)))
    for j, (fast, slow, _) in enumerate(triples):
        np.subtract(legs[fast], legs[slow], out=lines[:, j])
    return legs, ema_columns(lines, [signal for *_, signal in triples],
                             [slow - 1 for _, slow, _ in triples])


def macd(closes: np.ndarray, fast: int, slow: int,
         signal_p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MACD line, signal line, histogram: `macd_columns` for one triple.
    The histogram is the line minus the signal line."""
    legs, signal = macd_columns(closes, [(fast, slow, signal_p)])
    line, signal = legs[fast] - legs[slow], signal[:, 0]
    return line, signal, line - signal


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
    if n < window:  # all warm-up
        return np.full(n, np.nan), np.full(n, np.nan)
    views = np.lib.stride_tricks.sliding_window_view(closes, window)
    # np.std's own ufunc sequence, from the one mean of each window
    mean = np.add.reduce(views, axis=1) / window
    dev = views - mean[:, None]
    std = np.sqrt(np.add.reduce(np.square(dev, out=dev), axis=1) / window)
    warmup = np.full(window - 1, np.nan)
    return np.concatenate([warmup, mean]), np.concatenate([warmup, std])

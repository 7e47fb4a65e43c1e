"""Indicator correctness against independent brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gtscore.errors import ParameterError
from gtscore.indicators import (
    bollinger,
    ema_columns,
    macd,
    macd_columns,
    rolling_stats,
    rsi,
    rsi_columns,
)

from conftest import random_closes


# --- oracles: plain-python re-implementations, no shared code --------------


def oracle_rsi(closes, period):
    n = len(closes)
    out = [math.nan] * n
    ups, downs = [], []
    for i in range(1, n):
        move = closes[i] - closes[i - 1]
        ups.append(max(move, 0.0))
        downs.append(max(-move, 0.0))
    au = sum(ups[:period]) / period
    ad = sum(downs[:period]) / period
    for i in range(period, n):
        if i > period:
            au = (au * (period - 1) + ups[i - 1]) / period
            ad = (ad * (period - 1) + downs[i - 1]) / period
        if ad == 0:
            out[i] = 100.0
        elif au == 0:
            out[i] = 0.0
        else:
            rs = au / ad
            out[i] = 100.0 - 100.0 / (1.0 + rs)
    return out


def oracle_ema(values, period):
    n = len(values)
    out = [math.nan] * n
    alpha = 2.0 / (period + 1.0)
    e = sum(values[:period]) / period
    out[period - 1] = e
    for i in range(period, n):
        e = alpha * values[i] + (1.0 - alpha) * e
        out[i] = e
    return out


def oracle_macd(closes, fast, slow, signal_p):
    line = [math.nan] * len(closes)
    ef, es = oracle_ema(closes, fast), oracle_ema(closes, slow)
    for i in range(slow - 1, len(closes)):
        line[i] = ef[i] - es[i]
    sig = [math.nan] * len(closes)
    tail = oracle_ema(line[slow - 1:], signal_p)
    for j, v in enumerate(tail):
        sig[slow - 1 + j] = v
    hist = [l - s for l, s in zip(line, sig)]
    return line, sig, hist


def oracle_bollinger(closes, window, k):
    n = len(closes)
    mid = [math.nan] * n
    up = [math.nan] * n
    lo = [math.nan] * n
    for i in range(window - 1, n):
        seg = closes[i - window + 1:i + 1]
        m = sum(seg) / window
        var = sum((x - m) ** 2 for x in seg) / window
        sd = math.sqrt(var)
        mid[i], up[i], lo[i] = m, m + k * sd, m - k * sd
    return mid, up, lo


# --- the scalar loops the time-major kernels replaced: exact oracles --------


def loop_rsi(closes, period):
    closes = np.asarray(closes, dtype=float)
    n = len(closes)
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


def loop_ema(values, period):
    values = np.asarray(values, dtype=float)
    n = len(values)
    out = [math.nan] * n
    mult = 2.0 / (period + 1.0)
    vals = values.tolist()
    prev = float(values[:period].mean())
    out[period - 1] = prev
    for i in range(period, n):
        prev = prev + mult * (vals[i] - prev)
        out[i] = prev
    return np.array(out)


def ema_of(values, period):
    """`ema_columns` with k = 1: the EMA of one column of `values`."""
    column = np.array(values, dtype=float).reshape(-1, 1)
    return ema_columns(column, [period], [0])[:, 0]


def assert_close_with_nans(actual, expected, tol=1e-9):
    actual = np.asarray(actual, float)
    expected = np.asarray(expected, float)
    assert np.array_equal(np.isnan(actual), np.isnan(expected))
    mask = ~np.isnan(expected)
    np.testing.assert_allclose(actual[mask], expected[mask], atol=tol, rtol=0)


# --- RSI -------------------------------------------------------------------


def test_rsi_matches_oracle():
    rng = np.random.Generator(np.random.Philox(1))
    for _ in range(20):
        closes = random_closes(rng, 120)
        period = int(rng.integers(2, 30))
        assert_close_with_nans(rsi(closes, period),
                               oracle_rsi(closes.tolist(), period))


def test_rsi_all_gains_is_100():
    closes = np.arange(1.0, 40.0)
    vals = rsi(closes, 14)
    assert np.all(vals[14:] == 100.0)


def test_rsi_all_losses_is_0():
    closes = np.arange(40.0, 1.0, -1.0)
    vals = rsi(closes, 14)
    assert np.all(vals[14:] == 0.0)


def test_rsi_warmup_and_bounds():
    rng = np.random.Generator(np.random.Philox(2))
    closes = random_closes(rng, 80)
    vals = rsi(closes, 10)
    assert np.all(np.isnan(vals[:10]))
    defined = vals[10:]
    assert np.all((defined >= 0.0) & (defined <= 100.0))


def all_nan(values, n):
    return len(values) == n and bool(np.isnan(values).all())


def test_rsi_errors():
    with pytest.raises(ParameterError):
        rsi(np.ones(50), 1)
    # a warm-up that does not end inside the input is all of it
    assert all_nan(rsi(np.ones(10), 10), 10)


# --- EMA / MACD ------------------------------------------------------------


def test_ema_matches_oracle():
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(20):
        vals = random_closes(rng, 90)
        period = int(rng.integers(1, 25))
        assert_close_with_nans(ema_of(vals, period),
                               oracle_ema(vals.tolist(), period))


def test_ema_period_one_is_identity():
    vals = np.array([3.0, 1.0, 4.0, 1.5])
    np.testing.assert_allclose(ema_of(vals, 1), vals)


def test_macd_matches_oracle():
    rng = np.random.Generator(np.random.Philox(4))
    for _ in range(20):
        closes = random_closes(rng, 150)
        fast = int(rng.integers(2, 15))
        slow = int(rng.integers(fast + 1, 40))
        sig = int(rng.integers(2, 12))
        got = macd(closes, fast, slow, sig)
        want = oracle_macd(closes.tolist(), fast, slow, sig)
        for g, w in zip(got, want):
            assert_close_with_nans(g, w)


def test_macd_errors():
    with pytest.raises(ParameterError):
        macd(np.ones(100), 26, 12, 9)
    # the signal line would start at bar 33: it and the histogram are all
    # warm-up, and the line starts at bar 25 as on a longer input
    line, signal, hist = macd(np.ones(30), 12, 26, 9)
    assert all_nan(signal, 30) and all_nan(hist, 30)
    assert all_nan(line[:25], 25) and np.all(line[25:] == 0.0)


# --- time-major kernels against the scalar loops, bit for bit -------------


@st.composite
def stepped_closes(draw):
    """Closes from log steps that are often exactly zero, after a lead-in
    that is flat, only rising or only falling, so the RSI averages hit
    zero (avg_loss == 0 gives 100, else avg_gain == 0 gives 0)."""
    lead = [draw(st.sampled_from([0.0, 0.01, -0.01]))] * draw(
        st.integers(0, 40))
    tail = draw(st.lists(st.sampled_from([0.0, 0.0, 0.01, -0.01, 0.03,
                                          -0.02]), min_size=1, max_size=80))
    return 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(lead + tail)]))


@settings(max_examples=200, deadline=None)
@given(closes=stepped_closes(),
       periods=st.lists(st.integers(2, 30), min_size=1, max_size=6))
def test_rsi_columns_match_loop(closes, periods):
    periods = [p for p in periods if p < len(closes)]
    assume(periods)
    periods.append(periods[0])  # a repeated period is its own column
    got = rsi_columns(closes, periods)
    assert got.shape == (len(closes), len(periods))
    for j, period in enumerate(periods):
        assert np.array_equal(got[:, j], loop_rsi(closes, period),
                              equal_nan=True)
    assert np.array_equal(rsi(closes, periods[0]),
                          loop_rsi(closes, periods[0]), equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(values=stepped_closes(),
       columns=st.lists(st.tuples(st.integers(1, 30), st.integers(0, 40)),
                        min_size=1, max_size=6))
def test_ema_columns_match_loop(values, columns):
    # Column j is the series scaled by j + 1, NaN before its start (as a
    # MACD line is before its slow EMA is defined).
    n = len(values)
    columns = [(p, s) for p, s in columns if s + p <= n]
    assume(columns)
    columns.append(columns[0])
    x = np.stack([values * (j + 1) for j in range(len(columns))], axis=1)
    inputs = x.copy()
    for j, (_, start) in enumerate(columns):
        x[:start, j] = np.nan
    periods, starts = zip(*columns)
    assert ema_columns(x, list(periods), list(starts)) is x
    for j, (period, start) in enumerate(columns):
        want = np.full(n, np.nan)
        want[start:] = loop_ema(inputs[start:, j], period)
        assert np.array_equal(x[:, j], want, equal_nan=True)
    assert np.array_equal(ema_of(values, periods[0]),
                          loop_ema(values, periods[0]), equal_nan=True)


def test_ema_columns_errors():
    with pytest.raises(ParameterError):
        ema_columns(np.ones((10, 2)), [3, 0], [0, 0])
    # column 1 would be seeded at row 10 of 10: all warm-up
    x = ema_columns(np.ones((10, 2)), [3, 5], [0, 6])
    assert all_nan(x[:, 1], 10)
    assert all_nan(x[:2, 0], 2) and np.all(x[2:, 0] == 1.0)


@settings(max_examples=100, deadline=None)
@given(closes=stepped_closes(),
       triples=st.lists(st.tuples(st.integers(2, 15), st.integers(1, 20),
                                  st.integers(2, 10)), min_size=1, max_size=6))
def test_macd_columns_match_macd(closes, triples):
    # Each triple's legs and signal line, computed with the others (a
    # repeated triple included), equal its own `macd` bit for bit.
    triples = [(fast, fast + gap, signal) for fast, gap, signal in triples
               if fast + gap + signal < len(closes)]
    assume(triples)
    triples.append(triples[0])
    legs, signal = macd_columns(closes, triples)
    assert signal.shape == (len(closes), len(triples))
    for j, (fast, slow, sig) in enumerate(triples):
        line, want, _ = macd(closes, fast, slow, sig)
        assert np.array_equal(legs[fast] - legs[slow], line, equal_nan=True)
        assert np.array_equal(signal[:, j], want, equal_nan=True)


def test_macd_columns_errors():
    with pytest.raises(ParameterError):
        macd_columns(np.ones(100), [(5, 20, 9), (26, 12, 9)])
    # the signal line of (5, 20, 9) would start at bar 27 of 27
    legs, signal = macd_columns(np.ones(27), [(5, 10, 9), (5, 20, 9)])
    assert all_nan(signal[:, 1], 27)
    assert all_nan(signal[:17, 0], 17) and np.all(signal[17:, 0] == 0.0)
    assert all_nan(legs[20][:19], 19) and np.all(legs[20][19:] == 1.0)


# --- Bollinger -------------------------------------------------------------


def test_bollinger_matches_oracle():
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(20):
        closes = random_closes(rng, 100)
        window = int(rng.integers(2, 40))
        k = float(rng.uniform(0.5, 3.0))
        got = bollinger(closes, window, k)
        want = oracle_bollinger(closes.tolist(), window, k)
        for g, w in zip(got, want):
            assert_close_with_nans(g, w)


@settings(max_examples=200, deadline=None)
@given(closes=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
       window=st.integers(2, 60))
def test_rolling_stats_match_numpy(closes, window):
    # one sum per window: its mean, and the std from it, are numpy's
    # own `mean` and `std` over each window, to the last bit
    closes = np.array(closes)
    got = rolling_stats(closes, window)
    want = [np.full(len(closes), np.nan) for _ in range(2)]
    if len(closes) >= window:
        views = np.lib.stride_tricks.sliding_window_view(closes, window)
        want[0][window - 1:] = views.mean(axis=1)
        want[1][window - 1:] = views.std(axis=1)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_bollinger_constant_series():
    mid, up, lo = bollinger(np.full(30, 5.0), 10, 2.0)
    assert np.all(mid[9:] == 5.0)
    assert np.all(up[9:] == 5.0)
    assert np.all(lo[9:] == 5.0)


def test_bollinger_errors():
    with pytest.raises(ParameterError):
        bollinger(np.ones(30), 1, 2.0)
    with pytest.raises(ParameterError):
        bollinger(np.ones(30), 10, 0.0)
    for band in bollinger(np.ones(5), 10, 2.0):
        assert all_nan(band, 5)


# --- no-lookahead ----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 90),
       period=st.integers(2, 30), fast=st.integers(2, 15),
       gap=st.integers(1, 25), signal=st.integers(2, 12),
       window=st.integers(2, 40))
def test_indicators_no_lookahead(seed, n, period, fast, gap, signal, window):
    # The output on closes[:cut] is the first `cut` values of the output on
    # closes, bit for bit, for every cut: one at or below a warm-up too,
    # where the output is all warm-up (NaN) rather than an error.
    closes = random_closes(np.random.Generator(np.random.Philox(seed)), n)

    def outputs(x):
        return [rsi(x, period), *macd(x, fast, fast + gap, signal),
                *bollinger(x, window, 2.0)]
    full = outputs(closes)
    for cut in range(2, n + 1):
        for head, whole in zip(outputs(closes[:cut]), full):
            assert head.tobytes() == whole[:cut].tobytes()

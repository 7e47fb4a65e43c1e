"""Parameter sampling, serialization, and signal generation rules."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtscore.errors import InsufficientDataError, ParameterError
from gtscore.indicators import bollinger, macd, rsi
from gtscore.strategy import (
    BOLLINGER_K_RANGE,
    BOLLINGER_WINDOW_RANGE,
    MACD_FAST_RANGE,
    MACD_SIGNAL_RANGE,
    MACD_SLOW_RANGE,
    RSI_OVERBOUGHT_RANGE,
    RSI_OVERSOLD_RANGE,
    RSI_PERIOD_RANGE,
    BollingerParams,
    MacdParams,
    RsiParams,
    StrategyKind,
    indicator_cache,
    params_to_json,
    positions,
    sample_params,
    signals,
)

from conftest import make_series, random_closes


# --- parameter validation --------------------------------------------------


def test_param_validation():
    with pytest.raises(ParameterError):
        RsiParams(1, 30.0, 70.0)
    with pytest.raises(ParameterError):
        RsiParams(14, 70.0, 30.0)
    with pytest.raises(ParameterError):
        MacdParams(26, 12, 9)
    with pytest.raises(ParameterError):
        BollingerParams(3, 2.0)
    with pytest.raises(ParameterError):
        BollingerParams(20, -1.0)


def test_json_is_sorted_and_tagged():
    text = params_to_json(MacdParams(12, 26, 9))
    assert text == '{"fast": 12, "kind": "macd", "signal": 9, "slow": 26}'


# --- samplers --------------------------------------------------------------


def test_sampler_ranges_audit():
    rng = np.random.Generator(np.random.Philox(77))
    for _ in range(500):
        p = sample_params(StrategyKind.RSI, rng)
        assert RSI_PERIOD_RANGE[0] <= p.period <= RSI_PERIOD_RANGE[1]
        assert RSI_OVERSOLD_RANGE[0] <= p.oversold <= RSI_OVERSOLD_RANGE[1]
        assert (RSI_OVERBOUGHT_RANGE[0] <= p.overbought
                <= RSI_OVERBOUGHT_RANGE[1])
        assert p.oversold < p.overbought
        assert isinstance(p.period, int)
    for _ in range(500):
        p = sample_params(StrategyKind.MACD, rng)
        assert MACD_FAST_RANGE[0] <= p.fast <= MACD_FAST_RANGE[1]
        assert MACD_SLOW_RANGE[0] <= p.slow <= MACD_SLOW_RANGE[1]
        assert MACD_SIGNAL_RANGE[0] <= p.signal <= MACD_SIGNAL_RANGE[1]
        assert p.fast < p.slow
    for _ in range(500):
        p = sample_params(StrategyKind.BOLLINGER, rng)
        assert BOLLINGER_WINDOW_RANGE[0] <= p.window <= BOLLINGER_WINDOW_RANGE[1]
        assert BOLLINGER_K_RANGE[0] <= p.k <= BOLLINGER_K_RANGE[1]


def test_sampler_hits_range_bounds():
    # Integer draws are inclusive on both ends; with 2000 draws every
    # endpoint should appear.
    rng = np.random.Generator(np.random.Philox(78))
    periods = {sample_params(StrategyKind.RSI, rng).period
               for _ in range(2000)}
    assert RSI_PERIOD_RANGE[0] in periods
    assert RSI_PERIOD_RANGE[1] in periods


def test_sampler_deterministic():
    a = np.random.Generator(np.random.Philox(5))
    b = np.random.Generator(np.random.Philox(5))
    draws_a = [sample_params(StrategyKind.MACD, a) for _ in range(10)]
    draws_b = [sample_params(StrategyKind.MACD, b) for _ in range(10)]
    assert draws_a == draws_b


# --- signal rules ----------------------------------------------------------


def oracle_positions(enter, leave, valid):
    """Independent long/flat state machine."""
    pos = []
    long = False
    for e, l, v in zip(enter, leave, valid):
        if v:
            if long and l:
                long = False
            elif not long and e:
                long = True
        pos.append(long if v else False)
    return pos


@st.composite
def event_masks(draw):
    n = draw(st.integers(0, 40))
    bars = st.lists(st.booleans(), min_size=n, max_size=n)
    return draw(bars), draw(bars), draw(bars)


def _bars(*masks):
    """(enter, leave, valid) lists from strings of 0/1, one per bar."""
    return tuple([c == "1" for c in m] for m in masks)


@settings(max_examples=400, deadline=None)
@given(masks=event_masks())
# enter and leave on the same bar while flat: long
@example(masks=_bars("0100", "0100", "1111"))
# enter and leave on the same bar while long: flat
@example(masks=_bars("1100", "0100", "1111"))
# an invalid bar after an event is flat, and the state carries over it
@example(masks=_bars("1000", "0000", "1011"))
# events on invalid bars are ignored
@example(masks=_bars("0110", "0001", "1011"))
def test_positions_match_oracle(masks):
    enter, leave, valid = masks
    pos = positions(np.array(enter, dtype=bool), np.array(leave, dtype=bool),
                    np.array(valid, dtype=bool))
    assert pos.dtype == bool
    assert pos.tolist() == oracle_positions(enter, leave, valid)


def test_rsi_jump_through_both_levels_flips_state():
    # RSI(3) jumps from below 30 to at or above 70 at bar j, so enter and
    # leave fire together and the state flips: flat -> long, long -> flat.
    p = RsiParams(3, 30.0, 70.0)
    from_flat = np.array([100.0, 99, 98, 97, 96, 95, 94, 93, 104, 105, 104,
                          103])
    from_long = np.array([100.0, 99, 98, 97, 96, 95, 96, 95, 94, 93, 92, 91,
                          102, 101])
    for closes, j, want in [(from_flat, 8, [False] * 8 + [True] + [False] * 3),
                            (from_long, 12, [False] * 6 + [True] * 6
                             + [False] * 2)]:
        ind = rsi(closes, p.period)
        assert ind[j - 1] < p.oversold and ind[j] >= p.overbought
        assert signals(p, make_series(closes)).tolist() == want


def test_rsi_signals_match_rule():
    rng = np.random.Generator(np.random.Philox(21))
    series = make_series(random_closes(rng, 300))
    p = RsiParams(10, 30.0, 70.0)
    ind = rsi(series.closes, p.period)
    n = len(ind)
    enter = [False] * n
    leave = [False] * n
    valid = [False] * n
    for i in range(1, n):
        if np.isnan(ind[i]) or np.isnan(ind[i - 1]):
            continue
        valid[i] = True
        enter[i] = ind[i - 1] < p.oversold <= ind[i]
        leave[i] = ind[i] >= p.overbought
    assert signals(p, series).tolist() == oracle_positions(enter, leave, valid)


def test_macd_signals_match_rule():
    rng = np.random.Generator(np.random.Philox(22))
    series = make_series(random_closes(rng, 300))
    p = MacdParams(8, 21, 5)
    line, sig, _ = macd(series.closes, p.fast, p.slow, p.signal)
    diff = line - sig
    n = len(diff)
    enter = [False] * n
    leave = [False] * n
    valid = [False] * n
    for i in range(1, n):
        if np.isnan(diff[i]) or np.isnan(diff[i - 1]):
            continue
        valid[i] = True
        enter[i] = diff[i - 1] <= 0 < diff[i]
        leave[i] = diff[i - 1] >= 0 > diff[i]
    assert signals(p, series).tolist() == oracle_positions(enter, leave, valid)


def test_bollinger_signals_match_rule():
    rng = np.random.Generator(np.random.Philox(23))
    series = make_series(random_closes(rng, 300))
    p = BollingerParams(15, 1.5)
    mid, _, lower = bollinger(series.closes, p.window, p.k)
    closes = series.closes
    n = len(closes)
    enter = [False] * n
    leave = [False] * n
    valid = [False] * n
    for i in range(n):
        if np.isnan(mid[i]):
            continue
        valid[i] = True
        enter[i] = closes[i] < lower[i]
        leave[i] = closes[i] >= mid[i]
    assert signals(p, series).tolist() == oracle_positions(enter, leave, valid)


def test_signals_flat_during_warmup():
    rng = np.random.Generator(np.random.Philox(24))
    series = make_series(random_closes(rng, 100))
    pos = signals(RsiParams(14, 30.0, 70.0), series)
    assert not pos[:15].any()
    pos = signals(BollingerParams(30, 2.0), series)
    assert not pos[:29].any()


def test_signals_start_flat_even_if_oversold():
    # Steadily falling prices keep RSI pinned at 0; with no cross up out of
    # the oversold zone the strategy never enters.
    series = make_series(np.linspace(200.0, 100.0, 120))
    pos = signals(RsiParams(14, 30.0, 70.0), series)
    assert not pos.any()


# --- indicator cache: the uncached call is the oracle -----------------------


@st.composite
def any_params(draw):
    kind = draw(st.sampled_from(StrategyKind))
    if kind is StrategyKind.RSI:
        oversold = draw(st.floats(1.0, 90.0))
        return RsiParams(draw(st.integers(2, 30)), oversold,
                         draw(st.floats(oversold + 1.0, 99.0)))
    if kind is StrategyKind.MACD:
        fast = draw(st.integers(2, 20))
        return MacdParams(fast, draw(st.integers(fast + 1, 50)),
                          draw(st.integers(2, 15)))
    return BollingerParams(draw(st.integers(5, 50)), draw(st.floats(0.1, 4.0)))


def _outcome(call):
    try:
        return call().tolist()
    except InsufficientDataError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 150), seed=st.integers(0, 2**32 - 1),
       pool=st.lists(any_params(), min_size=1, max_size=15))
def test_cached_signals_match_uncached(n, seed, pool):
    # One cache primed with every candidate of one series, windows too
    # short for warm-up included: each cached call equals the uncached one
    # (the same InsufficientDataError for a warm-up that does not fit), and
    # no cached array is changed by a candidate's call.
    series = make_series(random_closes(np.random.Generator(np.random.Philox(seed)), n))
    cache = indicator_cache(series, pool)
    for params in pool:
        assert (_outcome(lambda: signals(params, series, cache))
                == _outcome(lambda: signals(params, series)))
    fresh = indicator_cache(series, pool)
    assert fresh.keys() == cache.keys()
    for key, cached in cache.items():
        assert np.asarray(cached).tobytes() == np.asarray(fresh[key]).tobytes()
    other = make_series(series.closes.copy())
    with pytest.raises(ParameterError, match="another series"):
        signals(pool[0], other, cache)

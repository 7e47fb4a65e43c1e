"""Parameter sampling, serialization, and signal generation rules."""

import datetime as dt
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtscore.errors import ConfigError
from gtscore.indicators import bollinger, macd, rsi
from gtscore.strategy import (
    FAMILIES,
    BollingerParams,
    MacdParams,
    RsiParams,
    StrategyKind,
    params_to_json,
    pool_signals,
    positions,
    sample_params,
)

from conftest import make_series, random_closes


# --- parameter validation --------------------------------------------------


def test_param_validation():
    with pytest.raises(ConfigError, match="rsi period must be >= 2"):
        RsiParams(1, 30.0, 70.0)
    with pytest.raises(ConfigError, match="oversold < overbought"):
        RsiParams(14, 70.0, 30.0)
    with pytest.raises(ConfigError, match="must be < slow"):
        MacdParams(26, 12, 9)
    with pytest.raises(ConfigError, match="bollinger window must be >= 5"):
        BollingerParams(3, 2.0)
    with pytest.raises(ConfigError, match="bollinger k must be > 0"):
        BollingerParams(20, -1.0)


def test_json_is_sorted_and_tagged():
    text = params_to_json(MacdParams(12, 26, 9))
    assert text == '{"fast": 12, "kind": "macd", "signal": 9, "slow": 26}'


# --- samplers --------------------------------------------------------------


def in_space(params):
    """Whether every field of `params` lies in its family's range."""
    return all(lo <= getattr(params, name) <= hi
               for name, (lo, hi) in type(params).space.items())


def test_sampler_ranges_audit():
    rng = np.random.Generator(np.random.Philox(77))
    for _ in range(500):
        p = sample_params(StrategyKind.RSI, rng)
        assert in_space(p)
        assert p.oversold < p.overbought
        assert isinstance(p.period, int)
    for _ in range(500):
        p = sample_params(StrategyKind.MACD, rng)
        assert in_space(p)
        assert p.fast < p.slow
    for _ in range(500):
        assert in_space(sample_params(StrategyKind.BOLLINGER, rng))


def test_space_keys_are_the_fields_in_order():
    for kind, family in FAMILIES.items():
        assert family.kind is kind
        assert list(family.space) == [f.name for f in fields(family)]


def branch_sample_params(kind, rng):
    """One draw with each family's ranges and draws written out: the
    oracle for the generic `sample_params`."""
    if kind == StrategyKind.RSI:
        period = int(rng.integers(7, 28 + 1))
        oversold = float(rng.uniform(15.0, 40.0))
        overbought = float(rng.uniform(60.0, 85.0))
        return RsiParams(period, oversold, overbought)
    if kind == StrategyKind.MACD:
        fast = int(rng.integers(5, 20 + 1))
        slow = int(rng.integers(21, 50 + 1))
        signal = int(rng.integers(5, 15 + 1))
        return MacdParams(fast, slow, signal)
    if kind == StrategyKind.BOLLINGER:
        window = int(rng.integers(10, 50 + 1))
        k = float(rng.uniform(1.0, 3.0))
        return BollingerParams(window, k)
    raise ConfigError(f"unknown strategy kind {kind!r}")


def test_sampler_matches_branch_oracle():
    # the same draws in the same order: equal params of the same types,
    # and the generator left at the same point
    for kind in StrategyKind:
        for seed in range(200):
            a = np.random.Generator(np.random.Philox(seed))
            b = np.random.Generator(np.random.Philox(seed))
            for _ in range(5):
                got = sample_params(kind, a)
                want = branch_sample_params(kind, b)
                assert got == want
                assert [type(v) for v in vars(got).values()] == [
                    type(v) for v in vars(want).values()]
            assert a.bit_generator.random_raw() == b.bit_generator.random_raw()


def test_sampler_hits_range_bounds():
    # Integer draws are inclusive on both ends; with 2000 draws every
    # endpoint should appear.
    rng = np.random.Generator(np.random.Philox(78))
    periods = {sample_params(StrategyKind.RSI, rng).period
               for _ in range(2000)}
    assert set(RsiParams.space["period"]) <= periods


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


# --- pool signals: one candidate at a time is the oracle --------------------


def signals(params, series):
    """`pool_signals` of one candidate."""
    sig, = pool_signals(series, [params])
    return sig


def reference_signals(params, series):
    """Positions of one candidate from the public one-candidate indicators
    and its rule applied bar by bar (`oracle_positions`): the oracle for
    `pool_signals`."""
    closes = series.closes
    if isinstance(params, RsiParams):
        ind = rsi(closes, params.period)
        prev = np.concatenate([[np.nan], ind[:-1]])
        with np.errstate(invalid="ignore"):
            enter = (prev < params.oversold) & (ind >= params.oversold)
            leave = ind >= params.overbought
        valid = ~(np.isnan(ind) | np.isnan(prev))
    elif isinstance(params, MacdParams):
        _, _, diff = macd(closes, params.fast, params.slow, params.signal)
        prev = np.concatenate([[np.nan], diff[:-1]])
        with np.errstate(invalid="ignore"):
            enter = (prev <= 0) & (diff > 0)
            leave = (prev >= 0) & (diff < 0)
        valid = ~(np.isnan(diff) | np.isnan(prev))
    else:
        middle, _, lower = bollinger(closes, params.window, params.k)
        with np.errstate(invalid="ignore"):
            enter, leave = closes < lower, closes >= middle
        valid = ~np.isnan(middle)
    return np.array(oracle_positions(enter, leave, valid), dtype=bool)


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


def _bytes(sigs):
    return [sig.tobytes() for sig in sigs]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 150), seed=st.integers(0, 2**32 - 1),
       pool=st.lists(any_params(), min_size=1, max_size=15))
# a repeated candidate, shared indicators and warm-ups that do not fit
@example(n=40, seed=7, pool=[
    MacdParams(5, 20, 9), RsiParams(40, 30.0, 70.0), MacdParams(5, 20, 9),
    MacdParams(5, 30, 9), BollingerParams(20, 2.0), BollingerParams(20, 1.0),
    RsiParams(14, 30.0, 70.0), RsiParams(14, 25.0, 75.0),
    BollingerParams(41, 2.0)])
def test_pool_signals_match_reference(n, seed, pool):
    # One call for a pool whose windows include warm-ups too long for the
    # series (flat on every bar): each entry equals the reference and the
    # candidate's own one-candidate pool; no call changes an array another
    # returned, and a second call returns the same bytes.
    series = make_series(random_closes(np.random.Generator(np.random.Philox(seed)), n))
    got = pool_signals(series, pool)
    first = _bytes(got)
    assert len(got) == len(pool)
    for params, sig in zip(pool, got):
        want = reference_signals(params, series)
        assert sig.dtype == bool and np.array_equal(sig, want)
        assert _bytes(pool_signals(series, [params])) == _bytes([sig])
    assert _bytes(got) == first == _bytes(pool_signals(series, pool))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 120), seed=st.integers(0, 2**32 - 1),
       pool=st.lists(any_params(), min_size=1, max_size=8), data=st.data())
def test_pool_signals_on_a_prefix(n, seed, pool, data):
    # A candidate's positions on a prefix of the series are the first bars
    # of its positions on the whole series, whether or not its warm-up
    # ends inside the prefix.
    series = make_series(random_closes(np.random.Generator(np.random.Philox(seed)), n))
    cut = data.draw(st.integers(2, n), label="cut")
    head = series.slice(series.start_date,
                        series.start_date + dt.timedelta(days=cut))
    assert len(head) == cut
    for whole, part in zip(pool_signals(series, pool),
                           pool_signals(head, pool)):
        assert part.tobytes() == whole[:cut].tobytes()

"""Strategy parameter spaces, random samplers, and long/flat signal rules."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import PriceSeries
from .errors import ParameterError
from .indicators import (
    bollinger,
    ema_columns,
    macd,
    rolling_stats,
    rsi,
    rsi_columns,
)


class StrategyKind(str, Enum):
    RSI = "rsi"
    MACD = "macd"
    BOLLINGER = "bollinger"


@dataclass(frozen=True)
class RsiParams:
    period: int
    oversold: float
    overbought: float

    kind = StrategyKind.RSI

    def __post_init__(self):
        if self.period < 2:
            raise ParameterError("rsi period must be >= 2")
        if not 0 < self.oversold < self.overbought < 100:
            raise ParameterError(
                f"need 0 < oversold < overbought < 100, got "
                f"{self.oversold}/{self.overbought}")


@dataclass(frozen=True)
class MacdParams:
    fast: int
    slow: int
    signal: int

    kind = StrategyKind.MACD

    def __post_init__(self):
        if self.fast < 2 or self.signal < 2:
            raise ParameterError("macd periods must be >= 2")
        if self.fast >= self.slow:
            raise ParameterError(f"fast ({self.fast}) must be < slow ({self.slow})")


@dataclass(frozen=True)
class BollingerParams:
    window: int
    k: float

    kind = StrategyKind.BOLLINGER

    def __post_init__(self):
        if self.window < 5:
            raise ParameterError("bollinger window must be >= 5")
        if self.k <= 0:
            raise ParameterError("bollinger k must be > 0")


StrategyParams = RsiParams | MacdParams | BollingerParams

# Uniform sampling ranges bracketing the conventional defaults
# (RSI 14/30/70, MACD 12/26/9, Bollinger 20/2). Integers drawn inclusive.
RSI_PERIOD_RANGE = (7, 28)
RSI_OVERSOLD_RANGE = (15.0, 40.0)
RSI_OVERBOUGHT_RANGE = (60.0, 85.0)
MACD_FAST_RANGE = (5, 20)
MACD_SLOW_RANGE = (21, 50)
MACD_SIGNAL_RANGE = (5, 15)
BOLLINGER_WINDOW_RANGE = (10, 50)
BOLLINGER_K_RANGE = (1.0, 3.0)


def sample_params(kind: StrategyKind, rng: np.random.Generator) -> StrategyParams:
    """Draw one parameterization uniformly from the family's search space."""
    if kind == StrategyKind.RSI:
        while True:
            period = int(rng.integers(RSI_PERIOD_RANGE[0], RSI_PERIOD_RANGE[1] + 1))
            oversold = float(rng.uniform(*RSI_OVERSOLD_RANGE))
            overbought = float(rng.uniform(*RSI_OVERBOUGHT_RANGE))
            if oversold < overbought:
                return RsiParams(period, oversold, overbought)
    if kind == StrategyKind.MACD:
        fast = int(rng.integers(MACD_FAST_RANGE[0], MACD_FAST_RANGE[1] + 1))
        slow = int(rng.integers(MACD_SLOW_RANGE[0], MACD_SLOW_RANGE[1] + 1))
        signal = int(rng.integers(MACD_SIGNAL_RANGE[0], MACD_SIGNAL_RANGE[1] + 1))
        return MacdParams(fast, slow, signal)
    if kind == StrategyKind.BOLLINGER:
        window = int(rng.integers(BOLLINGER_WINDOW_RANGE[0],
                                  BOLLINGER_WINDOW_RANGE[1] + 1))
        k = float(rng.uniform(*BOLLINGER_K_RANGE))
        return BollingerParams(window, k)
    raise ParameterError(f"unknown strategy kind {kind!r}")


def params_doc(params: StrategyParams) -> dict:
    return {"kind": params.kind.value, **vars(params)}


def params_to_json(params: StrategyParams) -> str:
    return json.dumps(params_doc(params), sort_keys=True)


def indicator_key(params: StrategyParams) -> tuple:
    """What a candidate's rule reads, which its thresholds then apply to:
    the RSI of its period, the rolling mean and std of its Bollinger
    window, or, for MACD, whose rule has no threshold, the long/flat state
    of its (fast, slow, signal) crossings."""
    if isinstance(params, RsiParams):
        return params.kind, params.period
    if isinstance(params, MacdParams):
        return params.kind, params.fast, params.slow, params.signal
    if isinstance(params, BollingerParams):
        return params.kind, params.window
    raise ParameterError(f"unknown params type {type(params)!r}")


def _indicator(params: StrategyParams, closes: np.ndarray):
    """What `indicator_key(params)` names, computed for one candidate."""
    if isinstance(params, RsiParams):
        return rsi(closes, params.period)
    if isinstance(params, MacdParams):
        _, _, diff = macd(closes, params.fast, params.slow, params.signal)
        return _crossings(diff)
    return rolling_stats(closes, params.window)


def indicator_cache(series: PriceSeries, pool) -> dict:
    """What each candidate of `pool` reads on `series` (`indicator_key`),
    each distinct entry computed once, together with the others of its
    kind:
      - the RSI of every period, in one time-major pass;
      - every EMA leg in one pass, then every signal line in another, each
        turned into its crossings' long/flat state;
      - the rolling mean and std of every Bollinger window.
    A candidate whose warm-up needs more bars than the series has is left
    out, so `signals` raises InsufficientDataError for it. The RSI and
    MACD entries are column views of one (bars, keys) array per kind; the
    EMA arrays behind the MACD states are freed on return.
    """
    closes, n = series.closes, len(series)
    cache = {"closes": closes}
    keys = {indicator_key(p) for p in pool}
    periods = sorted(p for kind, p, *_ in keys
                     if kind is StrategyKind.RSI and n > p)
    if periods:
        columns = rsi_columns(closes, periods)
        cache.update(((StrategyKind.RSI, p), columns[:, j])
                     for j, p in enumerate(periods))
    triples = sorted(k[1:] for k in keys
                     if k[0] is StrategyKind.MACD and n > k[2] + k[3])
    if triples:
        periods = sorted({p for t in triples for p in t[:2]})
        legs = ema_columns(np.repeat(closes[:, None], len(periods), axis=1),
                           periods, [0] * len(periods))
        leg = dict(zip(periods, legs.T))
        lines = np.empty((n, len(triples)))
        for j, (fast, slow, _) in enumerate(triples):
            np.subtract(leg[fast], leg[slow], out=lines[:, j])
        # each signal line is the EMA of its MACD line from its first
        # defined bar, computed in place
        signal_lines = ema_columns(lines, [signal for *_, signal in triples],
                                   [slow - 1 for _, slow, _ in triples])
        states = np.empty((n, len(triples)), dtype=bool)
        for j, (fast, slow, signal) in enumerate(triples):
            states[:, j] = _crossings(
                leg[fast] - leg[slow] - signal_lines[:, j])
            cache[StrategyKind.MACD, fast, slow, signal] = states[:, j]
    cache.update(((kind, w), rolling_stats(closes, w)) for kind, w, *_ in keys
                 if kind is StrategyKind.BOLLINGER and n >= w)
    return cache


def signals(params: StrategyParams, series: PriceSeries,
            cache: dict | None = None) -> np.ndarray:
    """Long/flat position per bar as a boolean array (True = long).

    Long-only state machine on closes, initial state flat, flat during
    indicator warm-up:
      - RSI: enter on a cross up out of the oversold zone
        (prev < oversold <= current); exit once RSI >= overbought. A jump
        from below oversold to at or above overbought fires both, which
        flips the state (see `positions`).
      - MACD: enter when the MACD line crosses above the signal line;
        exit when it crosses below.
      - Bollinger: enter when the close drops below the lower band;
        exit once the close is at or above the middle band.

    `cache`, an `indicator_cache` of this series, supplies what the rule
    reads; what it lacks is computed for this candidate alone. A returned
    array may be the cache's own and must not be written to.
    """
    closes, key = series.closes, indicator_key(params)
    cache = {"closes": closes} if cache is None else cache
    if cache["closes"] is not closes:
        raise ParameterError("indicator cache belongs to another series")
    ind = cache[key] if key in cache else _indicator(params, closes)

    if isinstance(params, MacdParams):
        return ind
    if isinstance(params, RsiParams):
        prev = np.concatenate([[np.nan], ind[:-1]])
        valid = ~(np.isnan(ind) | np.isnan(prev))
        with np.errstate(invalid="ignore"):
            enter = valid & (prev < params.oversold) & (ind >= params.oversold)
            leave = valid & (ind >= params.overbought)
    else:
        middle, _, lower = bollinger(closes, params.window, params.k, ind)
        valid = ~np.isnan(middle)
        with np.errstate(invalid="ignore"):
            enter = valid & (closes < lower)
            leave = valid & (closes >= middle)
    return positions(enter, leave, valid)


def _crossings(diff: np.ndarray) -> np.ndarray:
    """Long/flat state of the MACD rule on its MACD-minus-signal
    difference: enter when it turns positive, leave when it turns
    negative."""
    prev = np.concatenate([[np.nan], diff[:-1]])
    valid = ~(np.isnan(diff) | np.isnan(prev))
    with np.errstate(invalid="ignore"):
        enter = valid & (prev <= 0) & (diff > 0)
        leave = valid & (prev >= 0) & (diff < 0)
    return positions(enter, leave, valid)


def positions(enter: np.ndarray, leave: np.ndarray,
              valid: np.ndarray) -> np.ndarray:
    """Long/flat state per bar: long after a lone enter, flat after a lone
    leave (or before either), flipped once per later bar where both fire.
    Events count on valid bars only; invalid bars are flat."""
    enter, leave = enter & valid, leave & valid
    # 1-based index of the last lone event at or before each bar, 0 = none
    last = np.maximum.accumulate(
        np.where(enter ^ leave, np.arange(1, len(enter) + 1), 0))
    long = np.concatenate([[False], enter])[last]
    both = enter & leave
    if not both.any():  # only RSI ever fires both on one bar
        return valid & long
    flips = np.concatenate([[0], np.cumsum(both)])
    return valid & (long ^ ((flips[1:] - flips[last]) & 1).astype(bool))

"""Strategy parameter spaces, random samplers, and long/flat signal rules."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import PriceSeries
from .errors import ParameterError
from .indicators import bollinger, macd_columns, rolling_stats, rsi_columns


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
# The RSI zones are disjoint, so every draw has oversold < overbought.
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
        period = int(rng.integers(RSI_PERIOD_RANGE[0], RSI_PERIOD_RANGE[1] + 1))
        oversold = float(rng.uniform(*RSI_OVERSOLD_RANGE))
        overbought = float(rng.uniform(*RSI_OVERBOUGHT_RANGE))
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


def _indicators(closes: np.ndarray, keys) -> dict:
    """What each of `keys` (`indicator_key`) names on `closes`, each
    computed once, together with the others of its kind:
      - the RSI of every period, in one time-major pass;
      - every EMA leg and every signal line (`macd_columns`), then the
        long/flat state of each triple's crossings (the MACD rule);
      - the rolling mean and std of every Bollinger window.
    A key whose warm-up does not end inside `closes` is all warm-up (NaN,
    or flat for MACD). RSI and MACD entries are column views of one
    (bars, keys) array per kind: one block in place of many small arrays
    keeps the peak RSS low.
    """
    out = {}
    periods = sorted(p for kind, p, *_ in keys if kind is StrategyKind.RSI)
    columns = rsi_columns(closes, periods)
    out.update(((StrategyKind.RSI, p), columns[:, j])
               for j, p in enumerate(periods))
    triples = sorted(k[1:] for k in keys if k[0] is StrategyKind.MACD)
    legs, signal_lines = macd_columns(closes, triples)
    states = np.empty((len(closes), len(triples)), dtype=bool)
    for j, (fast, slow, signal) in enumerate(triples):
        diff = legs[fast] - legs[slow] - signal_lines[:, j]
        prev = np.concatenate([[np.nan], diff[:-1]])
        valid = ~(np.isnan(diff) | np.isnan(prev))
        with np.errstate(invalid="ignore"):
            enter = valid & (prev <= 0) & (diff > 0)
            leave = valid & (prev >= 0) & (diff < 0)
        states[:, j] = positions(enter, leave, valid)
        out[StrategyKind.MACD, fast, slow, signal] = states[:, j]
    out.update(((kind, w), rolling_stats(closes, w)) for kind, w, *_ in keys
               if kind is StrategyKind.BOLLINGER)
    return out


def pool_signals(series: PriceSeries, pool) -> list[np.ndarray]:
    """Long/flat position per bar of every candidate of `pool` on
    `series`, in order, as boolean arrays (True = long). Each distinct
    indicator (`indicator_key`) is computed once.

    Long-only state machine on closes, initial state flat, flat during
    indicator warm-up (a candidate whose warm-up covers the series is
    flat on every bar):
      - RSI: enter on a cross up out of the oversold zone
        (prev < oversold <= current); exit once RSI >= overbought. A jump
        from below oversold to at or above overbought fires both, which
        flips the state (see `positions`).
      - MACD: enter when the MACD line crosses above the signal line;
        exit when it crosses below.
      - Bollinger: enter when the close drops below the lower band;
        exit once the close is at or above the middle band.

    Candidates with the same MACD parameters share one array, which must
    not be written to.
    """
    closes = series.closes
    found = _indicators(closes, {indicator_key(p) for p in pool})
    return [_rule(params, closes, found[indicator_key(params)])
            for params in pool]


def _rule(params: StrategyParams, closes: np.ndarray, ind) -> np.ndarray:
    """The positions of one candidate's rule on its indicator `ind`."""
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

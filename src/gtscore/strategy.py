"""Strategy parameter spaces, random samplers, and long/flat signal rules."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import PriceSeries
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
    # the zones are disjoint, so every draw has oversold < overbought
    space = {"period": (7, 28), "oversold": (15.0, 40.0),
             "overbought": (60.0, 85.0)}

    @property
    def key(self) -> tuple:
        return self.kind, self.period


@dataclass(frozen=True)
class MacdParams:
    fast: int
    slow: int
    signal: int

    kind = StrategyKind.MACD
    space = {"fast": (5, 20), "slow": (21, 50), "signal": (5, 15)}

    @property
    def key(self) -> tuple:
        return self.kind, self.fast, self.slow, self.signal


@dataclass(frozen=True)
class BollingerParams:
    window: int
    k: float

    kind = StrategyKind.BOLLINGER
    space = {"window": (10, 50), "k": (1.0, 3.0)}

    @property
    def key(self) -> tuple:
        return self.kind, self.window


StrategyParams = RsiParams | MacdParams | BollingerParams
# The spaces bracket the conventional defaults (RSI 14/30/70, MACD
# 12/26/9, Bollinger 20/2); an int range is drawn inclusive. Every params
# object of a study is drawn from its family's space, which meets each
# rule of the indicator kernels, so the dataclasses check nothing.
FAMILIES = {cls.kind: cls for cls in (RsiParams, MacdParams, BollingerParams)}


def sample_params(kind: StrategyKind, rng: np.random.Generator) -> StrategyParams:
    """Draw one parameterization uniformly from the family's `space`."""
    family = FAMILIES[kind]
    return family(*(int(rng.integers(lo, hi + 1)) if isinstance(lo, int)
                    else float(rng.uniform(lo, hi))
                    for lo, hi in family.space.values()))


def params_doc(params: StrategyParams) -> dict:
    return {"kind": params.kind.value, **vars(params)}


def params_to_json(params: StrategyParams) -> str:
    return json.dumps(params_doc(params), sort_keys=True)


def _indicators(closes: np.ndarray, keys) -> dict:
    """What each of `keys` (a params `key`) names on `closes`, each
    computed once, together with the others of its kind:
      - the RSI of every period, in one time-major pass;
      - each MACD triple's (fast EMA leg, slow EMA leg, signal line), from
        `macd_columns`;
      - the rolling mean and std of every Bollinger window.
    A key whose warm-up does not end inside `closes` is all warm-up (NaN).
    RSI entries and signal lines are column views of one (bars, keys)
    array per kind: one block in place of many small arrays keeps the
    peak RSS low.
    """
    out = {}
    periods = sorted(p for kind, p, *_ in keys if kind is StrategyKind.RSI)
    columns = rsi_columns(closes, periods)
    out.update(((StrategyKind.RSI, p), columns[:, j])
               for j, p in enumerate(periods))
    triples = sorted(k[1:] for k in keys if k[0] is StrategyKind.MACD)
    legs, signal_lines = macd_columns(closes, triples)
    out.update(((StrategyKind.MACD, fast, slow, signal),
                (legs[fast], legs[slow], signal_lines[:, j]))
               for j, (fast, slow, signal) in enumerate(triples))
    out.update(((kind, w), rolling_stats(closes, w)) for kind, w, *_ in keys
               if kind is StrategyKind.BOLLINGER)
    return out


def pool_signals(series: PriceSeries, pool) -> list[np.ndarray]:
    """Long/flat position per bar of every candidate of `pool` on
    `series`, in order, as boolean arrays (True = long). Each distinct
    indicator (a params `key`) is computed once.

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
    """
    closes = series.closes
    found = _indicators(closes, {p.key for p in pool})
    return [_rule(params, closes, found[params.key]) for params in pool]


def _rule(params: StrategyParams, closes: np.ndarray, ind) -> np.ndarray:
    """The positions of one candidate's rule on its indicator `ind`."""
    if isinstance(params, BollingerParams):
        middle, _, lower = bollinger(closes, params.window, params.k, ind)
        # closes against the NaN bands of the warm-up, which ~isnan masks
        with np.errstate(invalid="ignore"):
            return positions(closes < lower, closes >= middle,
                             ~np.isnan(middle))
    if isinstance(params, MacdParams):
        fast, slow, signal = ind
        ind = fast - slow - signal
    prev = np.concatenate([[np.nan], ind[:-1]])
    valid = ~(np.isnan(ind) | np.isnan(prev))
    # comparisons of the NaN warm-up values, which `valid` masks
    with np.errstate(invalid="ignore"):
        if isinstance(params, RsiParams):
            enter = (prev < params.oversold) & (ind >= params.oversold)
            leave = ind >= params.overbought
        else:
            enter, leave = (prev <= 0) & (ind > 0), (prev >= 0) & (ind < 0)
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

"""The four optimization losses (lower is better).

The composite loss is piecewise in the z statistic: a high penalty band
for z <= 0, a smooth transition band for 0 < z <= 1 anchored to 0 at
z = 1, and -(mu * ln(z) * r2) / (sigma_d + eps) for z > 1. Windows with
fewer than n_min trades receive a fixed penalty that dominates every
other branch; the same gate applies to the Simple/Sharpe/Sortino
baselines so all objectives face identical constraints.

Losses are computed per candidate pool (`pool_losses`): each backtest with
trades gets one metric context, shared by every objective. Under the
stabilized periodization one batched scan picks the period count of every
candidate in the pool at once.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .engine import (
    BacktestResult,
    benchmark_arithmetic_mean,
    benchmark_per_observation_mean,
)
from .errors import ParameterError
from .metrics import (
    MetricContext,
    downside_deviation,
    mean_and_std,
    r_squared_consistency,
    sharpe,
    sortino,
    z_score,
)


class ObjectiveKind(str, Enum):
    GT_SCORE = "gt_score"
    SIMPLE = "simple"
    SHARPE = "sharpe"
    SORTINO = "sortino"


class Periodization(str, Enum):
    FIXED_TRADES = "fixed_trades"
    STABILIZED = "stabilized"


@dataclass(frozen=True)
class StabilizationConfig:
    """Knobs for the optional stabilized-variance periodization."""

    threshold: float = 0.01
    window: int = 3
    n_range: tuple[int, int] = (10, 100)
    fallback: int = 50

    def __post_init__(self):
        r = self.n_range
        for ok, what in (
                (math.isfinite(self.threshold) and self.threshold > 0,
                 "threshold must be finite and > 0"),
                (self.window >= 1, "window must be >= 1"),
                (len(r) == 2 and all(type(v) is int for v in r)
                 and 1 <= r[0] <= r[1], "n_range must be ints 1 <= lo <= hi"),
                (self.fallback >= 1, "fallback must be >= 1")):
            if not ok:
                raise ParameterError(f"stabilization {what}: {self.to_json()}")

    def to_json(self) -> dict:
        return {"threshold": self.threshold, "window": self.window,
                "n_range": list(self.n_range), "fallback": self.fallback}

    @classmethod
    def from_json(cls, doc: dict) -> "StabilizationConfig":
        kwargs = dict(doc)
        if "n_range" in kwargs:
            kwargs["n_range"] = tuple(kwargs["n_range"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ObjectiveConfig:
    eps: float = 1e-6
    n_min: int = 50
    below_min_penalty: float = 300.0
    periodization: Periodization = Periodization.FIXED_TRADES
    stabilization: StabilizationConfig = field(default_factory=StabilizationConfig)
    benchmark_mode: str = "geometric"   # or "arithmetic": total / n
    r2_on_log_equity: bool = False

    def __post_init__(self):
        if self.eps <= 0:
            raise ParameterError("eps must be > 0")
        if self.n_min < 1:
            raise ParameterError("n_min must be >= 1")
        if self.below_min_penalty <= 200:
            raise ParameterError(
                "below_min_penalty must exceed 200 (the worst piecewise "
                "branch is bounded below 200)")
        if self.benchmark_mode not in ("geometric", "arithmetic"):
            raise ParameterError(f"bad benchmark_mode {self.benchmark_mode!r}")

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "n_min": self.n_min,
            "below_min_penalty": self.below_min_penalty,
            "periodization": self.periodization.value,
            "stabilization": self.stabilization.to_json(),
            "benchmark_mode": self.benchmark_mode,
            "r2_on_log_equity": self.r2_on_log_equity,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ObjectiveConfig":
        kwargs = dict(doc)
        if "periodization" in kwargs:
            kwargs["periodization"] = Periodization(kwargs["periodization"])
        if "stabilization" in kwargs:
            kwargs["stabilization"] = StabilizationConfig.from_json(
                kwargs["stabilization"])
        return cls(**kwargs)


def gt_score_loss(ctx: MetricContext, cfg: ObjectiveConfig) -> float:
    """Composite loss; finite on every branch."""
    if ctx.n < cfg.n_min:
        return cfg.below_min_penalty
    z = ctx.z
    if z <= 0.0:
        return 100.0 + 100.0 * (1.0 - math.exp(-abs(z - 1.0)))
    if z <= 1.0:
        return 100.0 * (1.0 - math.exp(-abs(z - 1.0)))
    return -(ctx.mu * math.log(z) * ctx.r2) / (ctx.sigma_d + cfg.eps)


def baseline_loss(kind: ObjectiveKind, ctx: MetricContext,
                  total_return: float, cfg: ObjectiveConfig) -> float:
    """Simple/Sharpe/Sortino losses, gated by n_min like the composite."""
    if kind == ObjectiveKind.GT_SCORE:
        raise ParameterError("use gt_score_loss for the composite objective")
    if ctx.n < cfg.n_min:
        return cfg.below_min_penalty
    if kind == ObjectiveKind.SIMPLE:
        return -total_return
    if kind == ObjectiveKind.SHARPE:
        return -sharpe(ctx.mu, ctx.sigma, cfg.eps)
    if kind == ObjectiveKind.SORTINO:
        return -sortino(ctx.mu, ctx.sigma_d, cfg.eps)
    raise ParameterError(f"unknown objective kind {kind!r}")


def metric_context(result: BacktestResult, cfg: ObjectiveConfig,
                   observations: np.ndarray | None = None,
                   n_obs: int | None = None) -> MetricContext:
    """Build the metric inputs for one backtest window (needs >= 1 trade)."""
    obs = result.trade_returns if observations is None else observations
    n = int(obs.size) if n_obs is None else n_obs
    mu, sigma = mean_and_std(obs)
    sigma_d = downside_deviation(obs)
    equity = np.cumprod(1.0 + np.asarray(obs, dtype=float)) - 1.0
    if cfg.r2_on_log_equity:
        equity = np.log1p(equity)
    r2 = r_squared_consistency(equity) if obs.size >= 2 else 0.0
    if cfg.benchmark_mode == "arithmetic":
        mu_m = benchmark_arithmetic_mean(result.benchmark_total_return, n)
    else:
        mu_m = benchmark_per_observation_mean(result.benchmark_total_return, n)
    z = z_score(mu, mu_m, sigma, n, cfg.eps)
    return MetricContext(mu=mu, sigma=sigma, mu_m=mu_m, n=n,
                         sigma_d=sigma_d, r2=r2, z=z)


def pool_losses(results: list[BacktestResult | None],
                objectives: list[ObjectiveKind],
                cfg: ObjectiveConfig) -> list[list[float]]:
    """Losses of a candidate pool under each objective: one list per
    objective, aligned with `results`.

    Missing and zero-trade backtests get the gate penalty; every other
    backtest gets one metric context, shared by all objectives.
    """
    live = [i for i, r in enumerate(results) if r is not None and r.n_trades]
    trading = [results[i] for i in live]
    if cfg.periodization == Periodization.STABILIZED:
        # Period returns replace trade returns as the observation set and
        # the selected period count stands in for N, so the trade-count
        # gate does not apply on this path.
        windows = {r.window for r in results if r is not None}
        if len(windows) > 1:
            raise ParameterError("stabilized losses need one window per "
                                 f"pool, got {len(windows)}")
        window = windows.pop() if windows else None
        counts = stabilized_period_count(
            [r.trade_exit_dates for r in trading],
            [r.equity_points for r in trading], window, cfg)
        contexts = [metric_context(r, cfg, observations=period_returns(
                        r.trade_exit_dates, r.equity_points, window, n_star),
                        n_obs=n_star)
                    for r, (n_star, _) in zip(trading, counts)]
        eff_cfg = replace(cfg, n_min=1)
    else:
        contexts = [metric_context(r, cfg) for r in trading]
        eff_cfg = cfg
    losses = []
    for kind in objectives:
        row = [cfg.below_min_penalty] * len(results)
        for i, r, ctx in zip(live, trading, contexts):
            row[i] = (gt_score_loss(ctx, eff_cfg)
                      if kind == ObjectiveKind.GT_SCORE else
                      baseline_loss(kind, ctx, r.total_return, eff_cfg))
        losses.append(row)
    return losses


class StabilizedCount(NamedTuple):
    n: int
    plateaued: bool


def period_returns(equity_dates: np.ndarray, equity_points: np.ndarray,
                   window: tuple[dt.date, dt.date], n: int) -> np.ndarray:
    """Simple returns over n equal-length time slices of the window.

    Wealth is 1 + equity at the last trade completed in or before a slice;
    slices with no trades return 0.
    """
    start, end = window
    total_days = (end - start).days
    wealth = np.concatenate([[1.0], 1.0 + np.asarray(equity_points, float)])
    offsets = (np.asarray(equity_dates, dtype="datetime64[D]")
               - np.datetime64(start, "D")).astype(np.int64)
    bounds = np.rint(np.arange(n + 1) * total_days / n).astype(np.int64)
    # index of last trade with offset <= bound, shifted into `wealth`
    idx = np.searchsorted(offsets, bounds, side="right")
    w = wealth[idx]
    return w[1:] / w[:-1] - 1.0


def stabilized_period_count(equity_dates_list: list[np.ndarray],
                            equity_points_list: list[np.ndarray],
                            window: tuple[dt.date, dt.date],
                            cfg: ObjectiveConfig) -> list[StabilizedCount]:
    """Pick, per candidate, a periodization where the variance of period
    returns plateaus; all candidates share `window`.

    Scans candidate counts ascending; returns the first n at which the
    variance changed by less than the relative threshold across the last
    `window` consecutive candidates, else the fallback. The scan runs over
    the whole pool at once: one wealth matrix holds every candidate's
    wealth at the slice bounds of every n.
    """
    stab = cfg.stabilization
    lo, hi = stab.n_range
    m = len(equity_dates_list)
    fallback = [StabilizedCount(stab.fallback, False)] * m
    total_days = (window[1] - window[0]).days if m else 0
    if total_days < lo or stab.window > hi - lo + 1:
        return fallback
    ns = np.arange(lo, hi + 1)
    # Bounds of every n in one ragged array, block j = rint(k * days / n_j)
    # for k = 0..n_j: the same operations as `period_returns`.
    firsts = np.concatenate([[0], np.cumsum(ns + 1)[:-1]])
    k = np.arange(firsts[-1] + hi + 1) - np.repeat(firsts, ns + 1)
    bounds = np.rint(k * total_days / np.repeat(ns, ns + 1)).astype(np.int64)
    start = np.datetime64(window[0], "D")
    wealth = np.empty((m, bounds.size))
    for row, dates, points in zip(wealth, equity_dates_list,
                                  equity_points_list):
        offsets = (np.asarray(dates, dtype="datetime64[D]")
                   - start).astype(np.int64)
        levels = np.concatenate([[1.0], 1.0 + np.asarray(points, float)])
        row[:] = levels[np.searchsorted(offsets, bounds, side="right")]
    returns = wealth[:, 1:] / wealth[:, :-1]
    returns -= 1.0
    var = np.stack([returns[:, s:s + n].var(axis=1)
                    for s, n in zip(firsts, ns)], axis=1)
    prev, cur = var[:, :-1], var[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        change = np.where(prev == 0.0, np.where(cur == 0.0, 0.0, np.inf),
                          np.abs(cur - prev) / np.abs(prev))
    # full[:, t]: the window - 1 changes up to count lo + t + window - 1
    # are all below the threshold
    need = stab.window - 1
    full = sliding_window_view(change < stab.threshold, need, axis=1).all(2)
    first = full.argmax(axis=1)
    return [StabilizedCount(int(lo + need + t), True) if full[i, t]
            else fallback[i] for i, t in enumerate(first)]

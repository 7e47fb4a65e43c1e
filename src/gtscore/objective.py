"""The four optimization losses (lower is better).

The composite loss is piecewise in the z statistic: a high penalty band
for z <= 0, a smooth transition band for 0 < z <= 1 anchored to 0 at
z = 1, and -(mu * ln(z) * r2) / (sigma_d + eps) for z > 1. Windows with
fewer than n_min trades receive a fixed penalty that dominates every
other branch; the same gate applies to the Simple/Sharpe/Sortino
baselines so all objectives face identical constraints.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

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


def trial_loss(kind: ObjectiveKind, result: BacktestResult,
               cfg: ObjectiveConfig) -> float:
    """Loss for one backtest under the given objective and config."""
    if result.n_trades == 0:
        return cfg.below_min_penalty
    if cfg.periodization == Periodization.STABILIZED:
        # Period returns replace trade returns as the observation set and
        # the selected period count stands in for N, so the trade-count
        # gate does not apply on this path.
        obs, n_obs = _period_observations(result, cfg)
        ctx = metric_context(result, cfg, observations=obs, n_obs=n_obs)
        eff_cfg = replace(cfg, n_min=1)
    else:
        ctx = metric_context(result, cfg)
        eff_cfg = cfg
    if kind == ObjectiveKind.GT_SCORE:
        return gt_score_loss(ctx, eff_cfg)
    return baseline_loss(kind, ctx, result.total_return, eff_cfg)


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


def stabilized_period_count(equity_dates: np.ndarray,
                            equity_points: np.ndarray,
                            window: tuple[dt.date, dt.date],
                            cfg: ObjectiveConfig) -> StabilizedCount:
    """Pick a periodization where the variance of period returns plateaus.

    Scans candidate counts ascending; returns the first n at which the
    variance changed by less than the relative threshold across the last
    `window` consecutive candidates, else the fallback.
    """
    stab = cfg.stabilization
    lo, hi = stab.n_range
    span_days = (window[1] - window[0]).days
    if span_days < lo:
        return StabilizedCount(stab.fallback, False)
    variances = []
    for n in range(lo, hi + 1):
        pr = period_returns(equity_dates, equity_points, window, n)
        variances.append(float(np.var(pr)))
        if len(variances) >= stab.window:
            recent = variances[-stab.window:]
            if all(_rel_change(a, b) < stab.threshold
                   for a, b in zip(recent, recent[1:])):
                return StabilizedCount(n, True)
    return StabilizedCount(stab.fallback, False)


def _rel_change(prev: float, cur: float) -> float:
    if prev == 0.0:
        return 0.0 if cur == 0.0 else math.inf
    return abs(cur - prev) / abs(prev)


def _period_observations(result: BacktestResult,
                         cfg: ObjectiveConfig) -> tuple[np.ndarray, int]:
    n_star, _ = stabilized_period_count(result.trade_exit_dates,
                                        result.equity_points,
                                        result.window, cfg)
    obs = period_returns(result.trade_exit_dates, result.equity_points,
                         result.window, n_star)
    return obs, n_star

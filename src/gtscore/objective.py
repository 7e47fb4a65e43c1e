"""The four optimization losses (lower is better).

The composite loss is piecewise in the z statistic: a high penalty band
for z <= 0, a smooth transition band for 0 < z <= 1 anchored to 0 at
z = 1, and -(mu * ln(z) * r2) / (sigma_d + eps) for z > 1. Windows with
fewer observations than `trade_gate` (n_min trades, or one period under
the stabilized periodization) receive a fixed penalty; the same gate
applies to the Simple/Sharpe/Sortino baselines so all objectives face
identical constraints. The penalty exceeds every GT-Score, Simple and
Sortino loss, but not every Sharpe loss: one of about |mu| / eps, from
losing trades whose returns barely vary, lies above it.

Losses are computed per candidate pool (`pool_losses`) of the backtests
the search's gate admits: each gets one metric context, shared by every
objective and built with those of the same observation count. Under the
stabilized periodization one scan picks each candidate's period count
and returns the period returns that stand in for its trade returns: a
per-day index table gives every candidate's wealth on each day of the
pool's window, which the caller passes (the search's training window),
and each count reads its slice bounds from it for the whole pool.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import bounded, check_bounds
from .engine import (
    BacktestResult,
    benchmark_arithmetic_mean,
    benchmark_per_observation_mean,
)
from .errors import ConfigError
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


class BenchmarkMode(str, Enum):
    GEOMETRIC = "geometric"
    ARITHMETIC = "arithmetic"  # total / n


@dataclass(frozen=True)
class StabilizationConfig:
    """Knobs for the optional stabilized-variance periodization."""

    threshold: float = bounded(0.01, gt=0)
    window: int = bounded(3, ge=1)
    n_range: tuple[int, int] = (10, 100)
    fallback: int = bounded(50, ge=1)

    def __post_init__(self):
        check_bounds(self)
        r = self.n_range
        if list(map(type, r)) != [int, int] or not 1 <= r[0] <= r[1]:
            raise ConfigError(f"n_range: must be ints 1 <= lo <= hi, got {r}")


@dataclass(frozen=True)
class ObjectiveConfig:
    eps: float = bounded(1e-6, gt=0)
    n_min: int = bounded(50, ge=1)
    # above the worst piecewise branch, which is bounded below 200
    below_min_penalty: float = bounded(300.0, gt=200)
    periodization: Periodization = Periodization.FIXED_TRADES
    stabilization: StabilizationConfig = field(default_factory=StabilizationConfig)
    benchmark_mode: BenchmarkMode = BenchmarkMode.GEOMETRIC
    r2_on_log_equity: bool = False

    __post_init__ = check_bounds


def gt_score_loss(ctx: MetricContext, cfg: ObjectiveConfig) -> float:
    """Composite loss; finite on every branch."""
    if ctx.n < trade_gate(cfg):
        return cfg.below_min_penalty
    z = ctx.z
    if z <= 0.0:
        return 100.0 + 100.0 * (1.0 - math.exp(-abs(z - 1.0)))
    if z <= 1.0:
        return 100.0 * (1.0 - math.exp(-abs(z - 1.0)))
    return -(ctx.mu * math.log(z) * ctx.r2) / (ctx.sigma_d + cfg.eps)


def baseline_loss(kind: ObjectiveKind, ctx: MetricContext,
                  total_return: float, cfg: ObjectiveConfig) -> float:
    """Simple/Sharpe/Sortino losses, gated like the composite; any other
    kind is a KeyError (`pool_losses` sends GT-Score to `gt_score_loss`)."""
    loss = {ObjectiveKind.SIMPLE: lambda: -total_return,
            ObjectiveKind.SHARPE: lambda: -sharpe(ctx.mu, ctx.sigma, cfg.eps),
            ObjectiveKind.SORTINO: lambda: -sortino(ctx.mu, ctx.sigma_d,
                                                    cfg.eps)}[kind]
    return cfg.below_min_penalty if ctx.n < trade_gate(cfg) else loss()


def metric_contexts(results: list[BacktestResult], cfg: ObjectiveConfig,
                    observations: list[np.ndarray] | None = None
                    ) -> list[MetricContext]:
    """The metric inputs of each backtest (each needs >= 1 trade), in
    order, from its trade returns or from `observations` in their place.

    Built one group at a time: the backtests with the same observation
    count, their observations stacked as the rows of one matrix."""
    obs = observations or [r.trade_returns for r in results]
    groups: dict[int, list[int]] = {}
    for i, o in enumerate(obs):
        groups.setdefault(o.size, []).append(i)
    benchmark_mean = (benchmark_arithmetic_mean if cfg.benchmark_mode
                      == "arithmetic" else benchmark_per_observation_mean)
    contexts = [None] * len(obs)
    for n, rows in groups.items():
        x = np.stack([obs[i] for i in rows])
        mu, sigma = mean_and_std(x)
        equity = np.cumprod(1.0 + x, axis=1) - 1.0
        if cfg.r2_on_log_equity:
            equity = np.log1p(equity)
        r2 = r_squared_consistency(equity) if n >= 2 else np.zeros(len(rows))
        for i, m, s, d, r in zip(rows, mu.tolist(), sigma.tolist(),
                                 downside_deviation(x).tolist(), r2.tolist()):
            mu_m = benchmark_mean(results[i].benchmark_total_return, n)
            contexts[i] = MetricContext(mu=m, sigma=s, mu_m=mu_m, n=n,
                                        sigma_d=d, r2=r,
                                        z=z_score(m, mu_m, s, n, cfg.eps))
    return contexts


def trade_gate(cfg: ObjectiveConfig) -> int:
    """The one gate of every loss: the fewest observations a window needs
    for its losses to depend on more than the gate. n_min trades under
    fixed-trades periodization, where fewer get the penalty under every
    objective; 1 under the stabilized one, where the period count stands
    in for the trade count."""
    if cfg.periodization == Periodization.STABILIZED:
        return 1
    return cfg.n_min


def pool_losses(results: list[BacktestResult],
                objectives: list[ObjectiveKind], cfg: ObjectiveConfig,
                window: tuple[dt.date, dt.date]) -> list[list[float]]:
    """Losses of the admitted backtests of a candidate pool under each
    objective: one list per objective, aligned with `results`.

    Every backtest must have at least `trade_gate(cfg)` trades: the caller
    decides the gate and prices the candidates it leaves out. Each
    backtest gets one metric context, shared by all objectives. `window`
    is the pool's training window, read by the stabilized periodization.
    """
    observations = None
    if cfg.periodization == Periodization.STABILIZED:
        # Period returns replace trade returns as the observation set and
        # the selected period count stands in for N.
        observations = stabilized_period_returns(
            [r.trade_exit_dates for r in results],
            [r.equity_points for r in results], window, cfg)
    contexts = metric_contexts(results, cfg, observations)
    return [[gt_score_loss(ctx, cfg) if kind == ObjectiveKind.GT_SCORE
             else baseline_loss(kind, ctx, r.total_return, cfg)
             for r, ctx in zip(results, contexts)] for kind in objectives]


def stabilized_period_returns(equity_dates_list: list[np.ndarray],
                              equity_points_list: list[np.ndarray],
                              window: tuple[dt.date, dt.date],
                              cfg: ObjectiveConfig) -> list[np.ndarray]:
    """Per candidate, its simple returns over n equal-length time slices
    of `window` (shared by all) at the count n where their variance
    plateaus; the array's length is n.

    Wealth is 1 + equity at the last trade completed in or before a slice
    bound; slices with no trades return 0. Counts are scanned ascending:
    n is the first at which the variance changed by less than the relative
    threshold across the last `window` consecutive counts, else the
    fallback.
    """
    stab = cfg.stabilization
    lo, hi = stab.n_range
    total_days = (window[1] - window[0]).days
    days, start = np.arange(total_days + 1), np.datetime64(window[0], "D")
    # at[i, d]: the index in `levels` of candidate i's wealth d days into
    # the window; `levels` holds each candidate's [1, 1 + equity...].
    at = np.empty((len(equity_dates_list), days.size), np.int32)
    levels = np.ones(len(at) + sum(map(len, equity_points_list)))
    size = 0
    for row, dates, points in zip(at, equity_dates_list, equity_points_list):
        offsets = (np.asarray(dates, dtype="datetime64[D]")
                   - start).astype(np.int64)
        row[:] = size + np.searchsorted(offsets, days, side="right")
        size += 1 + len(points)
        levels[size - len(points):size] = 1.0 + np.asarray(points, float)

    def returns(n):
        # np.take makes a row-major matrix, so each row sums pairwise
        bounds = np.rint(np.arange(n + 1) * total_days / n).astype(np.int64)
        wealth = levels[np.take(at, bounds, axis=1)]
        return wealth[:, 1:] / wealth[:, :-1] - 1.0

    out, need = [None] * len(at), stab.window - 1
    pending = np.ones(len(at), bool)
    run = np.zeros(len(at), int)  # trailing changes below the threshold
    scan = range(lo, hi + 1) if total_days >= lo and need <= hi - lo else ()
    for n in scan:
        r = returns(n)
        # np.var's own ufunc sequence, without its per-call overhead
        dev = r - np.add.reduce(r, axis=1, keepdims=True) / n
        var = np.add.reduce(np.square(dev, out=dev), axis=1) / n
        if n > lo:
            with np.errstate(divide="ignore", invalid="ignore"):
                change = np.where(prev == 0.0,
                                  np.where(var == 0.0, 0.0, np.inf),
                                  np.abs(var - prev) / np.abs(prev))
            run = np.where(change < stab.threshold, run + 1, 0)
        prev = var
        for i in np.flatnonzero(pending & (run >= need)).tolist():
            out[i] = r[i].copy()
        pending &= run < need
    r = returns(stab.fallback)
    return [r[i].copy() if o is None else o for i, o in enumerate(out)]

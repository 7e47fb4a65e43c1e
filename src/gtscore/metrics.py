"""Statistical building blocks for the objectives.

Dispersion measures use the population convention (divide by n) so they
are defined down to a single observation. They work row-wise along the
last axis: each row of a row-major (g, n) stack gets its 1-D value, bit
for bit (a column-major one sums in another order).

It takes the package's own values unchecked: `objective.metric_contexts`
passes windows of at least one observation, inside `search.run_task`'s
float-fault boundary."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MetricContext:
    """Everything an objective needs about one backtest window."""

    mu: float          # mean trade return
    sigma: float       # population std of trade returns
    mu_m: float        # per-observation benchmark mean
    n: int             # number of trades
    sigma_d: float     # downside deviation
    r2: float          # equity-curve consistency in [0, 1]
    z: float           # standardized excess-mean statistic


def mean_and_std(returns: np.ndarray) -> tuple:
    """Arithmetic mean and population standard deviation."""
    r = np.asarray(returns, dtype=float)
    return r.mean(axis=-1), r.std(axis=-1)


def downside_deviation(returns: np.ndarray, mar: float = 0.0):
    """Root mean square of shortfalls below the minimum acceptable return."""
    r = np.asarray(returns, dtype=float)
    shortfall = np.minimum(r - mar, 0.0)
    return np.sqrt(np.mean(shortfall ** 2, axis=-1))


def sharpe(mu: float, sigma: float, eps: float) -> float:
    """Per-observation Sharpe ratio, risk-free rate 0, no annualization."""
    return mu / (sigma + eps)


def sortino(mu: float, sigma_d: float, eps: float) -> float:
    """Per-observation Sortino ratio against a zero target."""
    return mu / (sigma_d + eps)


def r_squared_consistency(equity_points: np.ndarray):
    """R-squared of the equity curve regressed on observation index.

    A steady equity ramp scores 1, and flat equity (zero total variance, a
    0 / 0) scores 0 by convention. ss_res >= 0, so no curve exceeds 1; the
    floor at 0 stays because rounding takes a trendless curve just below
    it ([0.3, 0.2, 1.1, 1.1, 0.2, 0.3] gives -2.2e-16)."""
    y = np.asarray(equity_points, dtype=float)
    n = y.shape[-1]
    x = np.arange(n, dtype=float)
    dx = x - x.mean()
    dy = y - y.mean(axis=-1, keepdims=True)
    ss_tot = np.sum(dy ** 2, axis=-1)
    slope = np.sum(dx * dy, axis=-1) / np.sum(dx ** 2)
    ss_res = np.sum((dy - slope[..., None] * dx) ** 2, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.maximum(1.0 - ss_res / ss_tot, 0.0)
    return np.where(ss_tot == 0.0, 0.0, r2)[()]


def z_score(mu: float, mu_m: float, sigma: float, n: int, eps: float) -> float:
    """Standardized excess mean (mu - mu_m) / (sigma / sqrt(n) + eps)."""
    return (mu - mu_m) / (sigma / math.sqrt(n) + eps)


def generalization_ratio(out_of_sample_mean: float,
                         train_mean: float) -> float:
    """Out-of-sample over training mean return; NaN when the training mean
    is non-positive (such cells are excluded from aggregates)."""
    if train_mean <= 0.0:
        return math.nan
    return out_of_sample_mean / train_mean

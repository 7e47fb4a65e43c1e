"""Seeded random-search cells and the two study protocols.

A cell is one (asset, strategy, split, seed). It draws `budget` parameter
candidates from a generator keyed on (seed, asset, strategy), backtests each
candidate once on the training window and scores that one pool under every
objective, so paired comparisons across objectives rest on identical
candidates by construction. Each objective's winner then gets one
out-of-sample pass: one trial per (cell, objective). Out-of-sample bars never
enter candidate evaluation: the series is sliced to the training window
before the search.
"""

from __future__ import annotations

import hashlib
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .data import PriceSeries, SplitSpec, make_chrono_split, make_walkforward_splits
from .engine import BacktestResult, run_backtest
from .errors import DataError, InsufficientDataError, ParameterError
from .metrics import generalization_ratio
from .objective import ObjectiveConfig, ObjectiveKind, pool_losses
from .strategy import StrategyKind, StrategyParams, sample_params, signals

logger = logging.getLogger(__name__)

DEFAULT_BUDGET = 25
WALKFORWARD_SEED = 42
BASELINES = (ObjectiveKind.SHARPE, ObjectiveKind.SORTINO, ObjectiveKind.SIMPLE)


@dataclass(frozen=True)
class CellSpec:
    asset_id: str
    strategy_kind: StrategyKind
    split: SplitSpec
    seed: int
    split_id: int = 0
    budget: int = DEFAULT_BUDGET
    cost_bps: float = 0.0

    def __post_init__(self):
        if self.budget < 1:
            raise ParameterError("budget must be >= 1")


@dataclass
class TrialResult:
    spec: CellSpec
    objective_kind: ObjectiveKind
    best_params: StrategyParams
    best_loss: float
    train_total_return: float
    oos_total_return: float
    train_n_trades: int
    oos_n_trades: int
    degenerate: bool
    candidates: list[StrategyParams]
    oos_trade_returns: np.ndarray


def candidate_rng(seed: int, asset_id: str,
                  strategy_kind: StrategyKind) -> np.random.Generator:
    """Philox generator keyed by a stable hash of (seed, asset, strategy)."""
    digest = hashlib.sha256(
        f"{seed}|{asset_id}|{strategy_kind.value}".encode()).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.Philox(key))


def backtest_window(params: StrategyParams, series: PriceSeries,
                    start, end, cost_bps: float) -> BacktestResult | None:
    """Backtest on the sub-series restricted to [start, end); None when the
    window is too short for the indicator warm-up."""
    try:
        window = series.slice(start, end)
    except InsufficientDataError:
        return None
    return _backtest_sliced(params, window, cost_bps)


def _backtest_sliced(params: StrategyParams, window: PriceSeries,
                     cost_bps: float) -> BacktestResult | None:
    try:
        sig = signals(params, window)
    except InsufficientDataError:
        return None
    return run_backtest(window, sig, window.start_date, window.span_end,
                        cost_bps)


def run_cell(spec: CellSpec, series: PriceSeries,
             objectives: list[ObjectiveKind],
             cfg: ObjectiveConfig) -> list[TrialResult]:
    """Random search over the train window scored under each objective,
    then one out-of-sample pass per objective; one result per objective.

    Ties on loss go to the first-seen candidate. An objective under which
    every candidate hits the minimum-trade penalty is flagged degenerate.
    """
    rng = candidate_rng(spec.seed, spec.asset_id, spec.strategy_kind)
    candidates = [sample_params(spec.strategy_kind, rng)
                  for _ in range(spec.budget)]
    split = spec.split
    try:
        train_window = series.slice(split.train_start, split.train_end)
    except InsufficientDataError:
        train_window = None
    backtests = [None if train_window is None else
                 _backtest_sliced(params, train_window, spec.cost_bps)
                 for params in candidates]
    scored = pool_losses(backtests, objectives, cfg)
    trials = []
    for kind, losses in zip(objectives, scored):
        best_loss, best = math.inf, None
        for i, loss in enumerate(losses):
            if loss < best_loss:
                best_loss, best = loss, i
        best_params = candidates[best or 0]
        train = None if best is None else backtests[best]
        degenerate = best_loss >= cfg.below_min_penalty
        # Degenerate trials (every candidate gated) get a zero-trade
        # out-of-sample record; they stay in the table but are excluded
        # from generalization-ratio aggregates.
        oos = None if degenerate else backtest_window(
            best_params, series, split.val_start, split.val_end,
            spec.cost_bps)
        trials.append(TrialResult(
            spec=spec,
            objective_kind=kind,
            best_params=best_params,
            best_loss=best_loss,
            train_total_return=train.total_return if train else 0.0,
            oos_total_return=oos.total_return if oos else 0.0,
            train_n_trades=train.n_trades if train else 0,
            oos_n_trades=oos.n_trades if oos else 0,
            degenerate=degenerate,
            candidates=candidates,
            oos_trade_returns=(oos.trade_returns if oos else np.array([])),
        ))
    return trials


def _sort_key(r: TrialResult):
    s = r.spec
    return (s.asset_id, s.strategy_kind.value, r.objective_kind.value,
            s.split_id, s.seed)


def run_trials(cells: list[CellSpec], series_by_asset: dict[str, PriceSeries],
               objectives: list[ObjectiveKind], cfg: ObjectiveConfig,
               jobs: int = 1) -> list[TrialResult]:
    """Run every cell under every objective (optionally in parallel);
    output order is canonical and independent of scheduling."""
    args = (cells, [series_by_asset[c.asset_id] for c in cells],
            repeat(objectives), repeat(cfg))
    if jobs <= 1:
        per_cell = list(map(run_cell, *args))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_cell = list(pool.map(run_cell, *args, chunksize=8))
    results = [trial for trials in per_cell for trial in trials]
    results.sort(key=_sort_key)
    return results


def walkforward_specs(assets: list[PriceSeries],
                      strategies: list[StrategyKind],
                      train_years: int = 4, val_years: int = 2,
                      step_years: int = 1, embargo_days: int = 30,
                      seed: int = WALKFORWARD_SEED,
                      budget: int = DEFAULT_BUDGET,
                      cost_bps: float = 0.0) -> list[CellSpec]:
    """Cartesian product of assets x strategies x splits with one fixed
    seed per cell. Assets too short for a single split are skipped with a
    warning."""
    specs = []
    for series in assets:
        try:
            splits = make_walkforward_splits(series, train_years, val_years,
                                             step_years, embargo_days)
        except DataError as exc:
            logger.warning("skipping %s: %s", series.asset_id, exc)
            continue
        for strat in strategies:
            for i, split in enumerate(splits):
                specs.append(CellSpec(series.asset_id, strat, split,
                                      seed=seed, split_id=i,
                                      budget=budget, cost_bps=cost_bps))
    return specs


def montecarlo_specs(assets: list[PriceSeries],
                     strategies: list[StrategyKind],
                     seeds: list[int],
                     train_fraction: float = 0.7, embargo_days: int = 30,
                     budget: int = DEFAULT_BUDGET,
                     cost_bps: float = 0.0) -> list[CellSpec]:
    """Multi-seed study on one chronological split per asset."""
    if not seeds:
        raise ParameterError("seeds must be non-empty")
    specs = []
    for series in assets:
        try:
            split = make_chrono_split(series, train_fraction, embargo_days)
        except DataError as exc:
            logger.warning("skipping %s: %s", series.asset_id, exc)
            continue
        for strat in strategies:
            for seed in seeds:
                specs.append(CellSpec(series.asset_id, strat, split,
                                      seed=seed, split_id=0,
                                      budget=budget, cost_bps=cost_bps))
    return specs


def run_walkforward(assets, strategies, objectives, cfg: ObjectiveConfig,
                    jobs: int = 1, **wf_kwargs) -> list[TrialResult]:
    specs = walkforward_specs(assets, strategies, **wf_kwargs)
    return run_trials(specs, {s.asset_id: s for s in assets}, objectives,
                      cfg, jobs)


def run_montecarlo(assets, strategies, objectives, seeds,
                   cfg: ObjectiveConfig, jobs: int = 1,
                   **mc_kwargs) -> list[TrialResult]:
    specs = montecarlo_specs(assets, strategies, seeds, **mc_kwargs)
    return run_trials(specs, {s.asset_id: s for s in assets}, objectives,
                      cfg, jobs)


# --- Aggregation over plain row dicts -------------------------------------
# Aggregates operate on the same row dicts that land in the trial CSV, so
# the verify subcommand can recompute them from the file bit-for-bit.


def aggregate_by_objective(rows: list[dict]) -> list[dict]:
    """Per-objective mean/std of out-of-sample returns, train mean, and the
    generalization ratio (ratio of the aggregate means). Degenerate rows
    are excluded from the generalization ratio only."""
    out = []
    for obj in _objectives_in(rows):
        sub = [r for r in rows if r["objective"] == obj]
        oos = np.array([r["oos_return"] for r in sub])
        train = np.array([r["train_return"] for r in sub])
        live = [r for r in sub if not r["degenerate"]]
        if live:
            oos_live = np.array([r["oos_return"] for r in live])
            train_live = np.array([r["train_return"] for r in live])
            gen = generalization_ratio(float(oos_live.mean()),
                                       float(train_live.mean()))
        else:
            gen = math.nan
        out.append({
            "objective": obj,
            "val_mean": float(oos.mean()),
            "val_std": float(oos.std()),
            "train_mean": float(train.mean()),
            "gen_ratio": gen,
            "n": len(sub),
        })
    return out


def aggregate_by_split(rows: list[dict]) -> list[dict]:
    """Per-split, per-objective aggregate generalization ratios."""
    out = []
    for split_id in sorted({r["split_id"] for r in rows}):
        for agg in aggregate_by_objective(
                [r for r in rows if r["split_id"] == split_id]):
            agg = {"split_id": split_id, **agg}
            out.append(agg)
    return out


def aggregate_by_period(rows: list[dict]) -> list[dict]:
    """Per-split validation means: composite vs the baseline average, with
    the difference in percentage points."""
    out = []
    for split_id in sorted({r["split_id"] for r in rows}):
        sub = [r for r in rows if r["split_id"] == split_id]
        gt = [r["oos_return"] for r in sub
              if r["objective"] == ObjectiveKind.GT_SCORE.value]
        base = [r["oos_return"] for r in sub
                if r["objective"] in {b.value for b in BASELINES}]
        gt_mean = float(np.mean(gt)) if gt else math.nan
        base_mean = float(np.mean(base)) if base else math.nan
        out.append({
            "split_id": split_id,
            "gt_score_mean": gt_mean,
            "baseline_avg": base_mean,
            "delta_pp": (gt_mean - base_mean) * 100.0,
        })
    return out


def aggregate_by_strategy(rows: list[dict]) -> list[dict]:
    """Mean out-of-sample return per strategy x objective."""
    out = []
    for strat in sorted({r["strategy"] for r in rows}):
        entry = {"strategy": strat}
        for obj in _objectives_in(rows):
            vals = [r["oos_return"] for r in rows
                    if r["strategy"] == strat and r["objective"] == obj]
            entry[obj] = float(np.mean(vals)) if vals else math.nan
        out.append(entry)
    return out


def mean_trade_counts(rows: list[dict]) -> list[dict]:
    """Mean out-of-sample trade count per objective."""
    return [{
        "objective": obj,
        "mean_oos_trades": float(np.mean(
            [r["oos_trades"] for r in rows if r["objective"] == obj])),
    } for obj in _objectives_in(rows)]


def paired_oos_returns(rows: list[dict], obj_a: str,
                       obj_b: str) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-sample returns of two objectives aligned on the full trial
    key (asset, strategy, split, seed)."""
    def key(r):
        return (r["asset"], r["strategy"], r["split_id"], r["seed"])
    a_by_key = {key(r): r["oos_return"] for r in rows if r["objective"] == obj_a}
    b_by_key = {key(r): r["oos_return"] for r in rows if r["objective"] == obj_b}
    common = sorted(set(a_by_key) & set(b_by_key))
    if len(common) != len(a_by_key) or len(common) != len(b_by_key):
        raise DataError(f"unpaired trials between {obj_a} and {obj_b}")
    return (np.array([a_by_key[k] for k in common]),
            np.array([b_by_key[k] for k in common]))


def _objectives_in(rows: list[dict]) -> list[str]:
    order = [k.value for k in ObjectiveKind]
    present = {r["objective"] for r in rows}
    return [o for o in order if o in present]

"""Seeded random-search cells and the two study protocols.

A cell is one (asset, strategy, split, seed). It draws `budget` parameter
candidates from a generator keyed on (seed, asset, strategy), computes each
candidate's positions once on the training window and scores that one pool
under every objective, so paired comparisons across objectives rest on
identical candidates by construction. Only candidates the trade gate admits
are backtested and scored; every other one's loss is the penalty, and a
trial is degenerate when its winner is one of them. Each objective's
winner then gets one out-of-sample pass: one trial per (cell, objective),
a dict of the trials.csv columns in file order (`cli.TRIAL_SCHEMA`) whose
`*_json` columns hold the winner's params, the cell's candidate pool and
its out-of-sample trade returns, for `cli.trial_row` to encode.
Cells run in tasks of one (asset, split) (`run_task`), which cut the
training and validation windows once each. Each strategy family
of a task is searched end to end by one `_search_family` call: pools,
scores, winners, then their out-of-sample pass; the search sees only the
training window.
"""

from __future__ import annotations

import hashlib
import logging
from collections.abc import Callable
from concurrent import futures
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter

import numpy as np

from .data import PriceSeries, SplitSpec, make_chrono_split, make_walkforward_splits
from .engine import entry_bars, run_backtest
from .errors import ConfigError, DataError
from .objective import (
    ObjectiveConfig,
    ObjectiveKind,
    pool_losses,
    trade_gate,
)
from .strategy import StrategyKind, pool_signals, sample_params

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


def candidate_rng(seed: int, asset_id: str,
                  strategy_kind: StrategyKind) -> np.random.Generator:
    """Philox generator keyed by a stable hash of (seed, asset, strategy)."""
    digest = hashlib.sha256(
        f"{seed}|{asset_id}|{strategy_kind.value}".encode()).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.Philox(key))


def _search_family(cells: list[CellSpec], train: PriceSeries,
                   val: PriceSeries, objectives: list[ObjectiveKind],
                   cfg: ObjectiveConfig) -> list[dict]:
    """Random search of these cells of one strategy family, end to end:
    one trial per (cell, objective), in order.

    Every candidate's training positions come from one `pool_signals`
    call. The gate is decided here, once: only candidates with at least
    `trade_gate(cfg)` trades are backtested and scored, by one
    `pool_losses` call; the others' loss is the penalty. Each pool's
    winner under an objective is its first candidate with the lowest
    loss. A trial is degenerate when its winner was not admitted: it gets
    that winner's training backtest and no out-of-sample one (a
    zero-trade record). The other winners get their validation positions
    from one more `pool_signals` call and one backtest each."""
    pools = []
    for spec in cells:
        rng = candidate_rng(spec.seed, spec.asset_id, spec.strategy_kind)
        pools.append([sample_params(spec.strategy_kind, rng)
                      for _ in range(spec.budget)])
    flat = [params for pool in pools for params in pool]
    sigs = pool_signals(train, flat)
    gate = trade_gate(cfg)
    fits = {i: run_backtest(train, sig) for i, sig in enumerate(sigs)
            if len(entry_bars(sig)) >= gate}
    losses = np.full((len(objectives), len(flat)), cfg.below_min_penalty,
                     dtype=float)
    losses[:, list(fits)] = pool_losses(list(fits.values()), objectives, cfg)
    picks, start = [], 0
    for spec, pool in zip(cells, pools):
        stop = start + len(pool)
        for kind, row in zip(objectives, losses):
            best = start + int(row[start:stop].argmin())
            picks.append((spec, pool, kind, float(row[best]), best,
                          best not in fits))
        start = stop
    # only the picks' training backtests outlive the search; a gated
    # pick's runs once, however many objectives pick it
    picked = {i: fits[i] if i in fits else run_backtest(train, sigs[i])
              for i in dict.fromkeys(pick[4] for pick in picks)}
    del sigs, fits
    val_sigs = iter(pool_signals(val, [flat[best] for *_, best, degenerate
                                       in picks if not degenerate]))
    trials = []
    for spec, pool, kind, loss, best, degenerate in picks:
        fit = picked[best]
        oos = None if degenerate else run_backtest(val, next(val_sigs))
        trials.append({
            "asset": spec.asset_id,
            "strategy": spec.strategy_kind.value,
            "objective": kind.value,
            "split_id": spec.split_id,
            "seed": spec.seed,
            "train_return": fit.total_return,
            "oos_return": oos.total_return if oos else 0.0,
            "train_trades": fit.n_trades,
            "oos_trades": oos.n_trades if oos else 0,
            "best_loss": loss,
            "degenerate": degenerate,
            "params_json": flat[best],
            "candidates_json": pool,
            "oos_trade_returns_json": (oos.trade_returns if oos
                                       else np.array([])),
        })
    return trials


def run_task(cells: list[CellSpec], series: PriceSeries,
             objectives: list[ObjectiveKind],
             cfg: ObjectiveConfig) -> list[dict]:
    """The cells of one (asset, split), one trial per (cell, objective)
    in order: the training and validation windows are cut once each
    (`study_cells` admits only splits with at least 2 bars in both), and
    each run of consecutive cells of one strategy family is searched by
    `_search_family`."""
    split = cells[0].split
    train = series.slice(split.train_start, split.train_end)
    val = series.slice(split.val_start, split.val_end)
    return [trial for _, family in groupby(cells, lambda c: c.strategy_kind)
            for trial in _search_family(list(family), train, val, objectives,
                                        cfg)]


def run_trials(cells: list[CellSpec], series_by_asset: dict[str, PriceSeries],
               objectives: list[ObjectiveKind], cfg: ObjectiveConfig,
               jobs: int = 1) -> list[dict]:
    """Run every cell under every objective, one task per (asset, split)
    (see `run_task`), in a pool of at most one worker per task when
    jobs > 1; output order is canonical and independent of scheduling."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    tasks: dict[tuple, list[CellSpec]] = {}
    for cell in cells:
        tasks.setdefault((cell.asset_id, cell.split), []).append(cell)
    args = (tasks.values(), [series_by_asset[a] for a, _ in tasks],
            repeat(objectives), repeat(cfg))
    workers = min(jobs, len(tasks))
    if workers <= 1:
        per_task = list(map(run_task, *args))
    else:
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_task = list(pool.map(run_task, *args))
    trials = [trial for task in per_task for trial in task]
    trials.sort(key=itemgetter("asset", "strategy", "objective", "split_id",
                               "seed"))
    return trials


def study_cells(assets: list[PriceSeries], strategies: list[StrategyKind],
                splits_of: Callable[[PriceSeries], list[SplitSpec]],
                seeds: list[int],
                budget: int = DEFAULT_BUDGET) -> list[CellSpec]:
    """Cartesian product of assets x splits x strategies x seeds, where
    `splits_of` gives a series' splits. Skipped with a warning: an asset
    too short for a split, and each split whose training or validation
    window holds fewer than 2 bars (split ids keep their calendar
    position). DataError when no asset keeps a split."""
    cells = []
    for series in assets:
        try:
            splits = splits_of(series)
        except DataError as exc:
            logger.warning("skipping %s", exc)  # exc names the asset
            continue
        for i, split in enumerate(splits):
            bars = [stop - start for start, stop in (
                series.index_window(split.train_start, split.train_end),
                series.index_window(split.val_start, split.val_end))]
            if min(bars) < 2:
                logger.warning("skipping %s split %d: %d training and %d "
                               "validation bars, need >= 2 each",
                               series.asset_id, i, *bars)
                continue
            cells += [CellSpec(series.asset_id, strat, split, seed=seed,
                               split_id=i, budget=budget)
                      for strat in strategies for seed in seeds]
    if assets and not cells:
        raise DataError("no asset has a split with >= 2 bars in each window: "
                        "skipped " + ", ".join(s.asset_id for s in assets))
    return cells


def run_walkforward(assets, strategies, objectives, cfg: ObjectiveConfig,
                    jobs: int = 1, budget: int = DEFAULT_BUDGET,
                    **split_kwargs) -> list[dict]:
    """Rolling splits (`make_walkforward_splits`), one fixed seed per cell."""
    cells = study_cells(
        assets, strategies,
        lambda series: make_walkforward_splits(series, **split_kwargs),
        [WALKFORWARD_SEED], budget)
    return run_trials(cells, {s.asset_id: s for s in assets}, objectives,
                      cfg, jobs)


def run_montecarlo(assets, strategies, objectives, seeds,
                   cfg: ObjectiveConfig, jobs: int = 1,
                   budget: int = DEFAULT_BUDGET,
                   **split_kwargs) -> list[dict]:
    """Many seeds on one chronological split per asset (`make_chrono_split`)."""
    cells = study_cells(
        assets, strategies,
        lambda series: [make_chrono_split(series, **split_kwargs)],
        seeds, budget)
    # each cell pairs GT-Score with each baseline once
    if (ObjectiveKind.GT_SCORE in objectives
            and any(b in objectives for b in BASELINES) and len(cells) < 2):
        raise ConfigError(
            f"need n >= 2 pairs to compare gt_score with a baseline; this "
            f"study has {len(cells)} (one per asset, strategy and seed)")
    return run_trials(cells, {s.asset_id: s for s in assets}, objectives,
                      cfg, jobs)

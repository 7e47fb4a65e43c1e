"""Seeded random search and the two study protocols.

A study is a list of tasks (`study_tasks`), one per (asset, split), each
carrying its training and validation windows, cut once, and the strategies,
seeds and budget searched on them. A cell is one (strategy, seed) of a
task. It draws `budget` parameter candidates from a generator keyed on
(seed, asset, strategy), computes each candidate's positions once on the
training window and scores that one pool under every objective, so paired
comparisons across objectives rest on identical candidates by construction.
Only candidates the trade gate admits are backtested and scored; every
other one's loss is the penalty, and a trial is degenerate when its winner
is one of them. Each objective's winner then gets one out-of-sample pass:
one trial per (cell, objective), a dict of the trials.csv columns in file
order (`cli.TRIAL_SCHEMA`) whose `*_json` columns hold the winner's params,
the cell's candidate pool and its out-of-sample trade returns, for
`cli.trial_row` to encode. `run_task` searches each strategy family of a
task end to end by one `_search_family` call: pools, scores, winners, then
their out-of-sample pass. It cuts no window; the search sees only the
training window, which it also hands to `pool_losses` as every pool's.
"""

from __future__ import annotations

import hashlib
import logging
from collections.abc import Callable
from concurrent import futures
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

import numpy as np

from .data import (PriceSeries, SplitSpec, float_faults, make_chrono_split,
                   make_walkforward_splits)
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
class Task:
    """One (asset, split) of a study: the split's calendar position, its
    two windows and the cells searched on them, one per (strategy, seed)."""

    split_id: int
    train: PriceSeries
    val: PriceSeries
    strategies: tuple[StrategyKind, ...]
    seeds: tuple[int, ...]
    budget: int


def candidate_rng(seed: int, asset_id: str,
                  strategy_kind: StrategyKind) -> np.random.Generator:
    """Philox generator keyed by a stable hash of (seed, asset, strategy)."""
    digest = hashlib.sha256(
        f"{seed}|{asset_id}|{strategy_kind.value}".encode()).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.Philox(key))


def _search_family(task: Task, family: StrategyKind,
                   objectives: list[ObjectiveKind],
                   cfg: ObjectiveConfig) -> list[dict]:
    """Random search of the cells of one strategy family of `task`, end to
    end: one trial per (seed, objective), in order.

    Every candidate's training positions come from one `pool_signals`
    call. The gate is decided here, once: only candidates with at least
    `trade_gate(cfg)` trades are backtested and scored, by one
    `pool_losses` call; the others' loss is the penalty. Each pool's
    winner under an objective is its first candidate with the lowest
    loss. A trial is degenerate when its winner was not admitted: it gets
    that winner's training backtest and no out-of-sample one (a
    zero-trade record). The other winners get their validation positions
    from one more `pool_signals` call and one backtest each."""
    train, val, asset_id = task.train, task.val, task.train.asset_id
    pools = []
    for seed in task.seeds:
        rng = candidate_rng(seed, asset_id, family)
        pools.append([sample_params(family, rng) for _ in range(task.budget)])
    flat = [params for pool in pools for params in pool]
    sigs = pool_signals(train, flat)
    gate = trade_gate(cfg)
    fits = {i: run_backtest(train, sig) for i, sig in enumerate(sigs)
            if len(entry_bars(sig)) >= gate}
    losses = np.full((len(objectives), len(flat)), cfg.below_min_penalty,
                     dtype=float)
    losses[:, list(fits)] = pool_losses(list(fits.values()), objectives, cfg,
                                        (train.start_date, train.span_end))
    if not np.isfinite(losses).all():  # Python float math overflows to inf
        raise FloatingPointError("overflow encountered in a loss")
    picks, start = [], 0
    for seed, pool in zip(task.seeds, pools):
        stop = start + len(pool)
        for kind, row in zip(objectives, losses):
            best = start + int(row[start:stop].argmin())
            picks.append((seed, pool, kind, float(row[best]), best,
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
    for seed, pool, kind, loss, best, degenerate in picks:
        fit = picked[best]
        oos = None if degenerate else run_backtest(val, next(val_sigs))
        trials.append({
            "asset": asset_id,
            "strategy": family.value,
            "objective": kind.value,
            "split_id": task.split_id,
            "seed": seed,
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


def run_task(task: Task, objectives: list[ObjectiveKind],
             cfg: ObjectiveConfig) -> list[dict]:
    """One trial per (strategy, seed, objective) of `task`, in that order:
    each strategy family is searched by `_search_family` on the task's
    windows; a float fault is a DataError naming the task's asset and split."""
    with float_faults(f"{task.train.asset_id} split {task.split_id}"):
        return [trial for family in task.strategies
                for trial in _search_family(task, family, objectives, cfg)]


def run_trials(tasks: list[Task], objectives: list[ObjectiveKind],
               cfg: ObjectiveConfig, jobs: int = 1) -> list[dict]:
    """Run every task under every objective (see `run_task`), in a pool of
    at most one worker per task when jobs > 1; output order is canonical
    and independent of scheduling."""
    args = (tasks, repeat(objectives), repeat(cfg))
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


def study_tasks(assets: list[PriceSeries], strategies: list[StrategyKind],
                splits_of: Callable[[PriceSeries], list[SplitSpec]],
                seeds: list[int], budget: int = DEFAULT_BUDGET) -> list[Task]:
    """One task per asset and split, where `splits_of` gives a series'
    splits, its windows cut here. Skipped with a warning: an asset too
    short for a split, and each split whose training or validation window
    holds fewer than 2 bars (split ids keep their calendar position).
    DataError when no asset keeps a split."""
    tasks = []
    for series in assets:
        try:
            splits = splits_of(series)
        except DataError as exc:
            logger.warning("skipping %s", exc)  # exc names the asset
            continue
        for i, split in enumerate(splits):
            windows = [(split.train_start, split.train_end),
                       (split.val_start, split.val_end)]
            bars = [stop - start for start, stop in (
                series.index_window(*window) for window in windows)]
            if min(bars) < 2:
                logger.warning("skipping %s split %d: %d training and %d "
                               "validation bars, need >= 2 each",
                               series.asset_id, i, *bars)
                continue
            tasks.append(Task(i, *(series.slice(*w) for w in windows),
                              tuple(strategies), tuple(seeds), budget))
    if assets and not tasks:
        raise DataError("no asset has a split with >= 2 bars in each window: "
                        "skipped " + ", ".join(s.asset_id for s in assets))
    return tasks


def run_walkforward(assets, strategies, objectives, cfg: ObjectiveConfig,
                    jobs: int = 1, budget: int = DEFAULT_BUDGET,
                    **split_kwargs) -> list[dict]:
    """Rolling splits (`make_walkforward_splits`), one fixed seed per cell."""
    tasks = study_tasks(
        assets, strategies,
        lambda series: make_walkforward_splits(series, **split_kwargs),
        [WALKFORWARD_SEED], budget)
    return run_trials(tasks, objectives, cfg, jobs)


def run_montecarlo(assets, strategies, objectives, seeds,
                   cfg: ObjectiveConfig, jobs: int = 1,
                   budget: int = DEFAULT_BUDGET,
                   **split_kwargs) -> list[dict]:
    """Many seeds on one chronological split per asset (`make_chrono_split`)."""
    tasks = study_tasks(
        assets, strategies,
        lambda series: [make_chrono_split(series, **split_kwargs)],
        seeds, budget)
    # each cell pairs GT-Score with each baseline once
    pairs = len(tasks) * len(strategies) * len(seeds)
    if (ObjectiveKind.GT_SCORE in objectives
            and any(b in objectives for b in BASELINES) and pairs < 2):
        raise ConfigError(
            f"need n >= 2 pairs to compare gt_score with a baseline; this "
            f"study has {pairs} (one per asset, strategy and seed)")
    return run_trials(tasks, objectives, cfg, jobs)

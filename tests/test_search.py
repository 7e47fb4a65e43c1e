"""Random-search tasks and cells: determinism, evaluate-once, aggregation."""

import datetime as dt
import functools
import math
import multiprocessing
from collections import Counter
from concurrent import futures
from dataclasses import replace

import numpy as np
import pytest

from gtscore.data import (
    PriceSeries,
    SplitSpec,
    SyntheticSpec,
    generate_synthetic_series,
    make_chrono_split,
    make_walkforward_splits,
)
from gtscore.engine import BacktestResult, run_backtest
from gtscore.errors import DataError
from gtscore.objective import (
    ObjectiveConfig,
    ObjectiveKind,
    Periodization,
    StabilizationConfig,
    baseline_loss,
    gt_score_loss,
)
from gtscore import indicators, objective, search, strategy
from gtscore.cli import (
    TRIAL_COLUMNS,
    aggregate_by_objective,
    aggregate_by_period,
    aggregate_by_split,
    aggregate_by_strategy,
    mean_trade_counts,
    paired_oos_returns,
)
from gtscore.search import (TRIAL_KEY, candidate_rng, run_task, run_trials,
                            study_tasks)
from gtscore.strategy import BollingerParams, StrategyKind, sample_params

from conftest import make_series
from test_engine import oracle_backtest
from test_objective import (
    oracle_metric_context,
    oracle_period_returns,
    oracle_stabilized_count,
)
from test_strategy import reference_signals

CFG = ObjectiveConfig()


def make_asset(seed=0, n_days=800, asset_id="A"):
    # short alternating regimes give the strategies something to trade
    rng = np.random.Generator(np.random.Philox(900 + seed))
    regimes = []
    left = n_days
    sign = 1
    while left > 0:
        length = min(int(rng.integers(15, 40)), left)
        regimes.append((length, sign * 0.003, 0.012))
        sign = -sign
        left -= length
    spec = SyntheticSpec(n_days, 100.0, tuple(regimes), seed=seed)
    return generate_synthetic_series(spec, asset_id)


ASSET = make_asset(n_days=2000)  # long enough for non-degenerate trials
SPLIT = make_chrono_split(ASSET)


OBJECTIVES = list(ObjectiveKind)


def chrono(series):
    return [make_chrono_split(series)]


def task_for(strategies=(StrategyKind.MACD,), seeds=(42,), budget=10,
             asset=ASSET):
    """The one task of `asset` on its chronological split."""
    (task,) = study_tasks([asset], list(strategies), chrono, list(seeds),
                          budget)
    return task


def cells_of(task):
    """The (strategy, seed) of each cell of `task`, in trial order."""
    return [(family, seed) for family in task.strategies
            for seed in task.seeds]


def backtest_on(params, start, end):
    """Backtest of one candidate on the [start, end) window of ASSET, its
    positions from `reference_signals`."""
    window = ASSET.slice(start, end)
    return run_backtest(window, reference_signals(params, window))


def draw_pool(task, family, seed):
    rng = candidate_rng(seed, task.train.asset_id, family)
    return [sample_params(family, rng) for _ in range(task.budget)]


def key_of(trial):
    """A trial's key, from its own columns."""
    return tuple(trial[column] for column in TRIAL_KEY)


def key(task, family, seed, kind):
    """The key of the trial of cell (`family`, `seed`) of `task` under
    objective `kind`."""
    return (task.train.asset_id, family.value, kind.value, task.split_id,
            seed)


# --- candidate generation --------------------------------------------------


def test_candidate_rng_stable():
    a = candidate_rng(42, "X", StrategyKind.RSI).integers(0, 1 << 30, 5)
    b = candidate_rng(42, "X", StrategyKind.RSI).integers(0, 1 << 30, 5)
    assert np.array_equal(a, b)


def test_candidate_rng_distinguishes_key_parts():
    base = candidate_rng(42, "X", StrategyKind.RSI).integers(0, 1 << 30, 5)
    for other in (candidate_rng(43, "X", StrategyKind.RSI),
                  candidate_rng(42, "Y", StrategyKind.RSI),
                  candidate_rng(42, "X", StrategyKind.MACD)):
        assert not np.array_equal(base, other.integers(0, 1 << 30, 5))


# --- cells -----------------------------------------------------------------


def test_run_task_deterministic():
    a = run_task(task_for(), OBJECTIVES, CFG)
    b = run_task(task_for(), OBJECTIVES, CFG)
    assert [r["objective"] for r in a] == [k.value for k in OBJECTIVES]
    for x, y in zip(a, b):
        assert x["params_json"] == y["params_json"]
        assert x["best_loss"] == y["best_loss"]
        assert x["oos_return"] == y["oos_return"]


def composed_loss(kind, bt, cfg=CFG):
    """Fixed-trades loss of one backtest, composed from its parts."""
    if bt.n_trades == 0:
        return cfg.below_min_penalty
    ctx = oracle_metric_context(bt, cfg)
    if kind == ObjectiveKind.GT_SCORE:
        return gt_score_loss(ctx, cfg)
    return baseline_loss(kind, ctx, bt.total_return, cfg)


def test_run_task_replay_oracle():
    # Recompute every candidate's loss independently under each objective;
    # the reported winner must be the first candidate attaining the minimum.
    task = task_for(budget=15)
    pool = draw_pool(task, StrategyKind.MACD, 42)
    backtests = [backtest_on(params, SPLIT.train_start, SPLIT.train_end)
                 for params in pool]
    results = run_task(task, OBJECTIVES, CFG)
    assert len(results) == len(OBJECTIVES)
    for res, obj in zip(results, OBJECTIVES):
        assert res["objective"] == obj.value
        assert res["candidates_json"] == pool
        losses = [composed_loss(obj, bt) for bt in backtests]
        best = min(losses)
        assert res["best_loss"] == best
        assert res["params_json"] == pool[losses.index(best)]


def admitted_and_gated_picks(task, cfg):
    """Per cell of `task`, from full training backtests of every candidate:
    the candidates the n_min gate admits, and the gated ones that some
    objective picks (replayed as in `test_run_task_replay_oracle`)."""
    out = []
    for family, seed in cells_of(task):
        bts = [backtest_on(p, SPLIT.train_start, SPLIT.train_end)
               for p in draw_pool(task, family, seed)]
        admitted = {i for i, bt in enumerate(bts) if bt.n_trades >= cfg.n_min}
        picks = set()
        for obj in OBJECTIVES:
            losses = [composed_loss(obj, bt, cfg) for bt in bts]
            picks.add(losses.index(min(losses)))
        out.append((admitted, picks - admitted))
    return out


# every family, several seeds: the gate admits some candidates and some
# objectives pick a gated one
GATE_TASK = task_for(list(StrategyKind), [42, 43], budget=12)


def test_run_task_backtests_each_candidate_once(monkeypatch):
    # Training backtests run once per admitted candidate and once per gated
    # pick (its trial reports it), never for a gated candidate no
    # objective picks; out-of-sample backtests once per distinct admitted
    # winner of a cell, however many objectives pick it.
    starts = []
    real = search.run_backtest

    def counting(series, sig):
        starts.append(series.start_date)
        return real(series, sig)

    monkeypatch.setattr(search, "run_backtest", counting)
    results = run_task(GATE_TASK, OBJECTIVES, CFG)
    train_calls = sum(s < SPLIT.val_start for s in starts)
    oos_calls = len(starts) - train_calls
    counts = admitted_and_gated_picks(GATE_TASK, CFG)
    admitted = sum(len(a) for a, _ in counts)
    gated_picks = sum(len(g) for _, g in counts)
    assert admitted > 0 and gated_picks > 0
    assert admitted + gated_picks < len(cells_of(GATE_TASK)) * GATE_TASK.budget
    assert train_calls == admitted + gated_picks
    live = [(r["strategy"], r["seed"], r["params_json"]) for r in results
            if not r["degenerate"]]
    assert oos_calls == len(set(live)) < len(live)


def spy_contexts(monkeypatch):
    """The backtest of every metric context built from here on, in order."""
    calls = []
    real = objective.metric_contexts

    def counting(results, *args, **kwargs):
        calls.extend(results)
        return real(results, *args, **kwargs)

    monkeypatch.setattr(objective, "metric_contexts", counting)
    return calls


def test_run_task_one_metric_context_per_candidate(monkeypatch):
    # One metric context per candidate the n_min gate admits, shared by
    # every objective; none for a gated candidate, picked or not.
    admitted = sum(len(a) for a, _ in
                   admitted_and_gated_picks(GATE_TASK, CFG))
    assert admitted > 0
    calls = spy_contexts(monkeypatch)
    run_task(GATE_TASK, OBJECTIVES, CFG)
    assert len(OBJECTIVES) == 4
    assert len(calls) == admitted
    assert len({id(r) for r in calls}) == admitted
    assert all(r.n_trades >= CFG.n_min for r in calls)


def test_pool_losses_scores_only_admitted_backtests(monkeypatch):
    # The search passes only the backtests its gate admits: each gets one
    # metric context, in order, and the losses of scoring it alone.
    task = task_for([StrategyKind.BOLLINGER], budget=12)
    bts = [backtest_on(p, SPLIT.train_start, SPLIT.train_end)
           for p in draw_pool(task, StrategyKind.BOLLINGER, 42)]
    admitted = [bt for bt in bts if bt.n_trades >= CFG.n_min]
    assert 0 < len(admitted) < sum(bt.n_trades > 0 for bt in bts)
    want = [[composed_loss(obj, bt) for bt in admitted]
            for obj in OBJECTIVES]
    calls = spy_contexts(monkeypatch)
    train = ASSET.slice(SPLIT.train_start, SPLIT.train_end)
    window = (train.start_date, train.span_end)
    assert objective.pool_losses(admitted, OBJECTIVES, CFG, window) == want
    assert [id(r) for r in calls] == [id(r) for r in admitted]


def test_degenerate_trial_reports_first_candidate_backtest():
    # When every candidate is gated the first one is picked, and the
    # trial reports its full training backtest, trades and all.
    task = task_for([StrategyKind.RSI], [42, 43, 44], budget=8)
    degenerate = [r for r in run_task(task, OBJECTIVES, CFG)
                  if r["degenerate"]]
    assert degenerate
    for res in degenerate:
        # the cells differ only in their seed
        first = draw_pool(task, StrategyKind.RSI, res["seed"])[0]
        train = backtest_on(first, SPLIT.train_start, SPLIT.train_end)
        assert res["params_json"] == first
        assert res["best_loss"] == CFG.below_min_penalty
        assert res["train_return"] == train.total_return
        assert res["train_trades"] == train.n_trades
    assert any(r["train_trades"] > 0 for r in degenerate)


def test_gated_pick_keeps_its_training_backtest(monkeypatch):
    # Opens and closes alternate 100/99, so a Bollinger rule with k = 0.5
    # is long on every 99 bar: each trade enters at 100 and exits at 99.
    # n_min or more identical -1% trades give a Sharpe loss of about
    # 0.01 / eps, far above the penalty, so under Sharpe the gated
    # candidate (4 trades, window 34) wins at the penalty. Its degenerate
    # trial still reports its training backtest.
    closes = np.tile([100.0, 99.0], 40)
    series = make_series(closes, opens=closes)
    day = [dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in (0, 42, 80)]
    split = SplitSpec(day[0], day[1], day[1], day[2])
    admitted, gated = BollingerParams(10, 0.5), BollingerParams(34, 0.5)
    cfg = ObjectiveConfig(n_min=5)

    def trials(pool):
        draws = iter(pool)
        monkeypatch.setattr(search, "sample_params",
                            lambda kind, rng: next(draws))
        (task,) = study_tasks([series], [StrategyKind.BOLLINGER],
                              lambda _: [split], [1], len(pool))
        return {ObjectiveKind(r["objective"]): r
                for r in run_task(task, OBJECTIVES, cfg)}

    results = trials([admitted, gated])
    window = series.slice(day[0], day[1])
    train = {p: run_backtest(window, reference_signals(p, window))
             for p in (admitted, gated)}
    assert 0 < train[gated].n_trades < cfg.n_min <= train[admitted].n_trades
    assert composed_loss(ObjectiveKind.SHARPE, train[admitted], cfg) > 300
    sharpe = results.pop(ObjectiveKind.SHARPE)
    assert sharpe["params_json"] == gated and sharpe["degenerate"]
    assert sharpe["best_loss"] == cfg.below_min_penalty
    assert sharpe["train_trades"] == train[gated].n_trades
    assert sharpe["train_return"] == train[gated].total_return
    assert sharpe["oos_trades"] == 0
    for res in results.values():
        assert res["params_json"] == admitted and not res["degenerate"]
        assert res["train_trades"] == train[admitted].n_trades
        assert res["train_return"] == train[admitted].total_return

    # Alone in its pool the admitted candidate wins under Sharpe too, at a
    # loss above the penalty. The gate did not pick it, so its trial is
    # not degenerate and gets its out-of-sample pass.
    val = series.slice(day[1], day[2])
    oos = run_backtest(val, reference_signals(admitted, val))
    alone = trials([admitted])
    assert alone[ObjectiveKind.SHARPE]["best_loss"] > cfg.below_min_penalty
    for res in alone.values():
        assert res["params_json"] == admitted and not res["degenerate"]
        assert res["train_trades"] == train[admitted].n_trades == 16
        assert res["oos_return"] == oos.total_return
        assert res["oos_trades"] == oos.n_trades > 0
        np.testing.assert_array_equal(res["oos_trade_returns_json"],
                                      oos.trade_returns)


def test_degenerate_trial_has_empty_oos():
    # ~210 training bars cannot produce 50 RSI round trips, so every
    # candidate is gated under every objective
    tiny = make_asset(seed=5, n_days=300, asset_id="TINY")
    task = task_for([StrategyKind.RSI], budget=5, asset=tiny)
    for res in run_task(task, OBJECTIVES, CFG):
        assert res["degenerate"]
        assert res["best_loss"] == CFG.below_min_penalty
        assert res["oos_trades"] == 0
        assert res["oos_return"] == 0.0
        assert res["oos_trade_returns_json"].size == 0


def _outcomes(results):
    """Each trial's other columns by its key; the trade returns as a list,
    so that outcomes compare with ==."""
    return {key_of(r): [r[c].tolist() if c == "oos_trade_returns_json"
                        else r[c] for c in r if c not in TRIAL_KEY]
            for r in results}


def test_run_trials_parallel_matches_serial():
    # Each cell run on its own (no indicator shared between cells) is the
    # oracle for the task path, serial and in a pool.
    tasks = study_tasks([ASSET, make_asset(seed=1, asset_id="B")],
                        list(StrategyKind), chrono, [42, 43], budget=5)
    cells = [(task, *cell) for task in tasks for cell in cells_of(task)]
    alone = [t for task, family, seed in cells
             for t in run_task(replace(task, strategies=(family,),
                                       seeds=(seed,)), OBJECTIVES, CFG)]
    serial = run_trials(tasks, OBJECTIVES, CFG, jobs=1)
    parallel = run_trials(tasks, OBJECTIVES, CFG, jobs=2)
    assert len(serial) == len(parallel) == len(cells) * len(OBJECTIVES)
    assert list(map(key_of, serial)) == list(map(key_of, parallel))
    assert _outcomes(serial) == _outcomes(parallel) == _outcomes(alone)


def test_run_trials_spawn_pool_matches_serial(monkeypatch):
    # Workers that `spawn` starts import the package afresh and get each
    # task pickled. A tiny study (one asset, two walk-forward splits,
    # budget 2) gives the trials of --jobs 1 in such a pool, and the same
    # asset with bars 20-22 of every 40 spiking 1e200-fold the same
    # DataError, raised in the task.
    asset = make_asset(n_days=1000)
    scale = np.where(np.isin(np.arange(len(asset)) % 40, (20, 21, 22)),
                     1e200, 1.0)
    spiking = PriceSeries("A", asset.dates, *(
        scale * getattr(asset, name)
        for name in ("opens", "highs", "lows", "closes")), asset.volumes)

    def study(series, jobs):
        tasks = study_tasks([series], list(StrategyKind), lambda s: (
            make_walkforward_splits(s, train_years=1, val_years=1)), [42], 2)
        assert len(tasks) == 2
        return run_trials(tasks, OBJECTIVES, ObjectiveConfig(n_min=1), jobs)

    def fault(jobs):
        with pytest.raises(DataError) as caught:
            study(spiking, jobs)
        return str(caught.value)

    serial, serial_fault = study(asset, 1), fault(1)
    spawn = functools.partial(futures.ProcessPoolExecutor,
                              mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr(search.futures, "ProcessPoolExecutor", spawn)
    spawned = study(asset, 2)
    assert list(map(key_of, serial)) == list(map(key_of, spawned))
    assert _outcomes(serial) == _outcomes(spawned)
    assert not all(r["degenerate"] for r in serial)
    assert fault(2) == serial_fault
    assert serial_fault.startswith("A split 0: overflow encountered in ")


# a gate low enough that every family has non-degenerate winners
FEW_TRADES = ObjectiveConfig(n_min=5)


def test_run_task_computes_each_indicator_once(monkeypatch):
    # Within a task, each distinct RSI period, EMA leg, signal line and
    # Bollinger window is computed exactly once per strategy family and
    # window, however many cells and candidates use it: on the training
    # window for every candidate, on the validation window for every
    # non-degenerate winner. Nothing is computed for one candidate alone.
    computed = Counter()

    def spy(module, name, record):
        real = getattr(module, name)

        def wrapper(*args):
            record(*args)
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    def legs_or_signals(x, periods, starts):
        for period, start in zip(periods, starts):
            computed[len(x), "signal", period, start] += 1 if start else 0
            computed[len(x), "leg", period] += 0 if start else 1

    spy(strategy, "rsi_columns", lambda closes, periods: computed.update(
        (len(closes), "rsi", p) for p in periods))
    # where `macd_columns` looks it up
    spy(indicators, "ema_columns", legs_or_signals)
    spy(strategy, "rolling_stats", lambda closes, window: computed.update(
        [(len(closes), "bollinger", window)]))

    def want(bars, pool):
        counts = Counter()
        for kind, *key in {p.key for p in pool}:
            if kind is StrategyKind.RSI:
                counts[bars, "rsi", key[0]] = 1
            elif kind is StrategyKind.MACD:
                fast, slow, signal = key
                counts[bars, "leg", fast] = counts[bars, "leg", slow] = 1
                counts[bars, "signal", signal, slow - 1] += 1
            else:
                counts[bars, "bollinger", key[0]] = 1
        return counts

    task = task_for(list(StrategyKind), [42, 43, 44], budget=10)
    results = run_task(task, OBJECTIVES, FEW_TRADES)
    train_bars = len(ASSET.slice(SPLIT.train_start, SPLIT.train_end))
    val_bars = len(ASSET.slice(SPLIT.val_start, SPLIT.val_end))
    assert train_bars != val_bars
    winners = [r["params_json"] for r in results if not r["degenerate"]]
    assert {p.kind for p in winners} == set(StrategyKind)
    pool = [p for cell in cells_of(task) for p in draw_pool(task, *cell)]
    assert +computed == want(train_bars, pool) + want(val_bars, winners)
    # candidates and winners share indicators, so sharing is exercised
    for shared in (pool, winners):
        assert len({p.key for p in shared}) < len(shared)


def test_run_task_matches_uncached_oracle():
    # Every cell of a task replayed candidate by candidate with
    # `reference_signals`: the training backtests pick the same winners
    # with the same losses, and each winner's own validation backtest
    # gives the same out-of-sample record.
    task = task_for(list(StrategyKind), [42, 43], budget=8)
    trials = run_task(task, OBJECTIVES, FEW_TRADES)
    # every family has a winner whose out-of-sample record is compared
    assert {r["strategy"] for r in trials if not r["degenerate"]} == {
        family.value for family in StrategyKind}
    results = iter(trials)
    for family, seed in cells_of(task):
        pool = draw_pool(task, family, seed)
        train = [backtest_on(p, SPLIT.train_start, SPLIT.train_end)
                 for p in pool]
        for obj in OBJECTIVES:
            res = next(results)
            losses = [composed_loss(obj, bt, FEW_TRADES) for bt in train]
            best = losses.index(min(losses))
            assert key_of(res) == key(task, family, seed, obj)
            assert (res["best_loss"], res["params_json"]) == (losses[best],
                                                              pool[best])
            assert res["train_return"] == train[best].total_return
            assert res["train_trades"] == train[best].n_trades
            if res["degenerate"]:
                assert res["oos_trades"] == 0
                continue
            oos = backtest_on(pool[best], SPLIT.val_start, SPLIT.val_end)
            assert res["oos_return"] == oos.total_return
            assert res["oos_trades"] == oos.n_trades
            assert np.array_equal(res["oos_trade_returns_json"],
                                  oos.trade_returns)
    assert next(results, None) is None


# the fallback count lies outside n_range, so every candidate whose
# variance does not plateau by count 80 is scored on a count no scan visits
STABILIZED = ObjectiveConfig(
    periodization=Periodization.STABILIZED,
    stabilization=StabilizationConfig(n_range=(10, 80), fallback=90))


def oracle_stabilized_losses(pool, window, cfg):
    """Per objective, the stabilized loss of each candidate in `pool` on
    `window`, rebuilt candidate by candidate from the reference signals,
    the reference engine, the scalar period-count scan, the slice-by-slice
    period returns and the scalar metric context; the backtests; and the
    period counts chosen."""
    span = (window.start_date, window.span_end)
    eff = replace(cfg, n_min=1)
    losses, backtests, counts = {obj: [] for obj in OBJECTIVES}, [], []
    for params in pool:
        rets, equity, total, bench, dates = oracle_backtest(
            window, reference_signals(params, window), *span)
        dates = np.array(dates, dtype="datetime64[D]")
        backtests.append(BacktestResult(rets, equity, total, bench, dates))
        if not rets.size:
            for obj in OBJECTIVES:
                losses[obj].append(cfg.below_min_penalty)
            continue
        n = oracle_stabilized_count(dates, equity, span, cfg)
        counts.append(n)
        ctx = oracle_metric_context(backtests[-1], cfg, observations=(
            oracle_period_returns(dates.tolist(), equity, span, n)))
        for obj in OBJECTIVES:
            losses[obj].append(gt_score_loss(ctx, eff)
                               if obj is ObjectiveKind.GT_SCORE else
                               baseline_loss(obj, ctx, total, eff))
    return losses, backtests, counts


def test_run_task_stabilized_matches_uncached_oracle():
    # The stabilized twin of `test_run_task_matches_uncached_oracle`,
    # over candidates that plateau inside n_range and candidates on the
    # out-of-range fallback.
    task = task_for(list(StrategyKind), [42, 43], budget=8)
    results = iter(run_task(task, OBJECTIVES, STABILIZED))
    train = ASSET.slice(SPLIT.train_start, SPLIT.train_end)
    val = ASSET.slice(SPLIT.val_start, SPLIT.val_end)
    counts = set()
    for family, seed in cells_of(task):
        pool = draw_pool(task, family, seed)
        losses, backtests, chosen = oracle_stabilized_losses(pool, train,
                                                             STABILIZED)
        counts.update(chosen)
        for obj in OBJECTIVES:
            res = next(results)
            best = losses[obj].index(min(losses[obj]))
            assert key_of(res) == key(task, family, seed, obj)
            assert (res["best_loss"], res["params_json"]) == (
                losses[obj][best], pool[best])
            assert res["train_return"] == backtests[best].total_return
            assert res["train_trades"] == backtests[best].n_trades
            if res["degenerate"]:
                assert res["oos_trades"] == 0
                continue
            rets, _, total, _, _ = oracle_backtest(
                val, reference_signals(pool[best], val), val.start_date,
                val.span_end)
            assert res["oos_return"] == total
            assert res["oos_trades"] == rets.size
            assert np.array_equal(res["oos_trade_returns_json"], rets)
    assert next(results, None) is None
    assert 90 in counts and len(counts) > 2


def test_study_tasks_cut_each_window_once(monkeypatch):
    # study_tasks slices each kept (asset, split) twice, its training and
    # its validation window, and a skipped asset not at all; run_task and
    # run_trials slice nothing, however many cells, candidates and
    # objectives they run.
    cuts = []
    real = PriceSeries.slice

    def counting(self, start, end):
        cuts.append((self.asset_id, start, end))
        return real(self, start, end)

    monkeypatch.setattr(PriceSeries, "slice", counting)
    assets = [ASSET, make_asset(seed=1, asset_id="B"),
              make_asset(seed=2, n_days=100, asset_id="SHORT")]
    tasks = study_tasks(assets, list(StrategyKind), chrono, [42, 43],
                        budget=2)
    assert cuts == [(s.asset_id, *w) for s in assets[:2]
                    for split in chrono(s)
                    for w in [(split.train_start, split.train_end),
                              (split.val_start, split.val_end)]]
    assert Counter(a for a, *_ in cuts) == {"A": 2, "B": 2}
    small = [(task_for(budget=2), [ObjectiveKind.SIMPLE]),
             (task_for(list(StrategyKind), (42, 43), budget=4), OBJECTIVES)]
    cuts.clear()
    for task, objectives in small:
        run_task(task, objectives, CFG)
    run_trials(tasks, OBJECTIVES, CFG, jobs=1)
    assert cuts == []


def test_run_trials_caps_workers_at_tasks(monkeypatch):
    # A serial stand-in for the pool records the worker count it is given;
    # no process is started. A task is one (asset, split).
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(search.futures, "ProcessPoolExecutor", SerialPool)
    assets = [make_asset(seed=i, n_days=600, asset_id=aid)
              for i, aid in enumerate("ABC")]
    objectives = [ObjectiveKind.SIMPLE]
    one = study_tasks(assets[:1], [StrategyKind.MACD], chrono, [1, 2, 3],
                      budget=1)
    three = study_tasks(assets, [StrategyKind.MACD], chrono, [1, 2],
                        budget=1)

    def summary(results):
        return [(key_of(r), r["params_json"], r["oos_return"])
                for r in results]

    serial = run_trials(three, objectives, CFG, jobs=1)
    run_trials(one, objectives, CFG, jobs=64)
    run_trials([], objectives, CFG, jobs=64)
    assert seen == []
    assert summary(run_trials(three, objectives, CFG,
                              jobs=64)) == summary(serial)
    run_trials(three, objectives, CFG, jobs=2)
    assert seen == [3, 2]


def test_run_trials_canonical_order():
    # the task lists its strategies and seeds, and the objectives come,
    # in reverse order
    task = task_for(list(StrategyKind)[::-1], (43, 42))
    results = run_trials([task], OBJECTIVES[::-1], CFG)
    keys = list(map(key_of, results))
    assert len(set(keys)) == len(cells_of(task)) * len(OBJECTIVES)
    assert keys == sorted(keys)


def test_trials_hold_the_trials_csv_columns():
    # A trial is a dict of the trials.csv columns in file order, under both
    # protocols, its `*_json` columns holding the values `trial_row` encodes.
    studies = [
        search.run_montecarlo([ASSET], list(StrategyKind), OBJECTIVES,
                              [42, 43], CFG, budget=2),
        search.run_walkforward([ASSET], list(StrategyKind), OBJECTIVES,
                               FEW_TRADES, budget=2)]
    for trials in studies:
        assert trials
        for trial in trials:
            assert list(trial) == TRIAL_COLUMNS
            assert trial["params_json"] in trial["candidates_json"]
            assert isinstance(trial["oos_trade_returns_json"], np.ndarray)
    assert len({t["split_id"] for t in studies[1]}) > 1


# --- protocol builders -----------------------------------------------------


def test_montecarlo_spec_count():
    assets = [ASSET, make_asset(seed=1, asset_id="B")]
    tasks = study_tasks(assets, list(StrategyKind), chrono, seeds=[42, 43, 44])
    assert sum(len(cells_of(t)) for t in tasks) == 2 * 3 * 3
    assert all(t.split_id == 0 for t in tasks)
    assert [(t.strategies, t.seeds) for t in tasks] == [
        (tuple(StrategyKind), (42, 43, 44))] * 2


def test_montecarlo_skips_short_assets(caplog):
    short = make_asset(seed=2, n_days=100, asset_id="SHORT")
    tasks = study_tasks([ASSET, short], [StrategyKind.MACD], chrono, seeds=[42])
    assert {t.train.asset_id for t in tasks} == {"A"}
    assert [r.getMessage() for r in caplog.records
            if r.name == "gtscore.search"] == [
        "skipping SHORT: chrono split leaves 70 train / 9 test bars, "
        "need >= 60 each"]


def test_walkforward_spec_count():
    long_asset = make_asset(seed=3, n_days=15 * 261, asset_id="L")
    tasks = study_tasks([long_asset], list(StrategyKind),
                        make_walkforward_splits, seeds=[42])
    split_ids = {t.split_id for t in tasks}
    assert split_ids == set(range(9))
    assert sum(len(cells_of(t)) for t in tasks) == 3 * 9
    assert all(t.seeds == (42,) for t in tasks)


# --- aggregation -----------------------------------------------------------


def row(objective="gt_score", strategy="macd", asset="A", split_id=0,
        seed=42, train=0.2, oos=0.1, degenerate=False, oos_trades=10):
    return {
        "asset": asset, "strategy": strategy, "objective": objective,
        "split_id": split_id, "seed": seed, "train_return": train,
        "oos_return": oos, "train_trades": 20, "oos_trades": oos_trades,
        "best_loss": -1.0, "degenerate": degenerate,
    }


def test_aggregate_by_objective_hand_values():
    rows = [row(train=0.2, oos=0.1), row(train=0.4, oos=0.1, seed=43),
            row(objective="simple", train=0.5, oos=0.05),
            row(objective="simple", train=0.3, oos=0.15, seed=43)]
    aggs = {a["objective"]: a for a in aggregate_by_objective(rows)}
    gt = aggs["gt_score"]
    assert gt["train_mean"] == pytest.approx(0.3)
    assert gt["val_mean"] == pytest.approx(0.1)
    assert gt["gen_ratio"] == pytest.approx(0.1 / 0.3)
    assert gt["n"] == 2
    assert aggs["simple"]["gen_ratio"] == pytest.approx(0.1 / 0.4)


def test_aggregate_excludes_degenerate_from_gen_ratio():
    rows = [row(train=0.2, oos=0.1),
            row(train=0.0, oos=0.0, seed=43, degenerate=True)]
    agg = aggregate_by_objective(rows)[0]
    # means cover all rows, the ratio only the live one
    assert agg["train_mean"] == pytest.approx(0.1)
    assert agg["gen_ratio"] == pytest.approx(0.5)


def test_aggregate_all_degenerate_gives_nan_ratio():
    rows = [row(train=0.0, oos=0.0, degenerate=True)]
    assert math.isnan(aggregate_by_objective(rows)[0]["gen_ratio"])


def test_aggregate_by_split_and_period():
    rows = [row(split_id=0, oos=0.1), row(split_id=1, oos=0.3),
            row(split_id=0, objective="sharpe", oos=0.2),
            row(split_id=1, objective="sharpe", oos=0.1)]
    by_split = aggregate_by_split(rows)
    assert {r["split_id"] for r in by_split} == {0, 1}
    periods = aggregate_by_period(rows)
    assert periods[0]["gt_score_mean"] == pytest.approx(0.1)
    assert periods[0]["baseline_avg"] == pytest.approx(0.2)
    assert periods[0]["delta_pp"] == pytest.approx(-10.0)


def test_aggregate_by_strategy_and_trade_counts():
    rows = [row(strategy="rsi", oos=0.1, oos_trades=5),
            row(strategy="macd", oos=0.3, oos_trades=15)]
    strat = {r["strategy"]: r for r in aggregate_by_strategy(rows)}
    assert strat["rsi"]["gt_score"] == pytest.approx(0.1)
    counts = mean_trade_counts(rows)
    assert counts[0]["mean_oos_trades"] == pytest.approx(10.0)


def test_paired_oos_returns_aligned():
    rows = [row(oos=0.1), row(objective="sharpe", oos=0.2),
            row(seed=43, oos=0.3), row(objective="sharpe", seed=43, oos=0.4)]
    a, b = paired_oos_returns(rows, "gt_score", "sharpe")
    assert a.tolist() == [0.1, 0.3]
    assert b.tolist() == [0.2, 0.4]


def test_paired_oos_returns_rejects_unpaired():
    rows = [row(oos=0.1), row(objective="sharpe", seed=99, oos=0.2)]
    with pytest.raises(DataError):
        paired_oos_returns(rows, "gt_score", "sharpe")

"""Random-search cells: determinism, evaluate-once, aggregation."""

import math

import numpy as np
import pytest

from gtscore.data import SyntheticSpec, generate_synthetic_series, make_chrono_split
from gtscore.errors import DataError
from gtscore.objective import (
    ObjectiveConfig,
    ObjectiveKind,
    baseline_loss,
    gt_score_loss,
    metric_context,
)
from gtscore import objective, search
from gtscore.search import (
    CellSpec,
    aggregate_by_objective,
    aggregate_by_period,
    aggregate_by_split,
    aggregate_by_strategy,
    backtest_window,
    candidate_rng,
    mean_trade_counts,
    montecarlo_specs,
    paired_oos_returns,
    run_cell,
    run_trials,
    walkforward_specs,
)
from gtscore.strategy import StrategyKind, sample_params

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


def cell_for(strategy=StrategyKind.MACD, seed=42, budget=10):
    return CellSpec(ASSET.asset_id, strategy, SPLIT, seed=seed, budget=budget)


def draw_pool(spec):
    rng = candidate_rng(spec.seed, spec.asset_id, spec.strategy_kind)
    return [sample_params(spec.strategy_kind, rng) for _ in range(spec.budget)]


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


def test_run_trial_deterministic():
    a = run_cell(cell_for(), ASSET, OBJECTIVES, CFG)
    b = run_cell(cell_for(), ASSET, OBJECTIVES, CFG)
    assert [r.objective_kind for r in a] == OBJECTIVES
    for x, y in zip(a, b):
        assert x.best_params == y.best_params
        assert x.best_loss == y.best_loss
        assert x.oos_total_return == y.oos_total_return


def composed_loss(kind, bt):
    """Fixed-trades loss of one backtest, composed from its parts."""
    if bt is None or bt.n_trades == 0:
        return CFG.below_min_penalty
    ctx = metric_context(bt, CFG)
    if kind == ObjectiveKind.GT_SCORE:
        return gt_score_loss(ctx, CFG)
    return baseline_loss(kind, ctx, bt.total_return, CFG)


def test_run_trial_replay_oracle():
    # Recompute every candidate's loss independently under each objective;
    # the reported winner must be the first candidate attaining the minimum.
    spec = cell_for(budget=15)
    pool = draw_pool(spec)
    backtests = [backtest_window(params, ASSET, SPLIT.train_start,
                                 SPLIT.train_end, 0.0) for params in pool]
    results = run_cell(spec, ASSET, OBJECTIVES, CFG)
    assert len(results) == len(OBJECTIVES)
    for res, obj in zip(results, OBJECTIVES):
        assert res.objective_kind is obj
        assert res.candidates == pool
        losses = [composed_loss(obj, bt) for bt in backtests]
        best = min(losses)
        assert res.best_loss == best
        assert res.best_params == pool[losses.index(best)]


def test_run_trial_oos_consistent_with_best_params():
    results = run_cell(cell_for(budget=15), ASSET, OBJECTIVES, CFG)
    live = [r for r in results if not r.degenerate]
    if not live:
        pytest.skip("needs a non-degenerate trial")
    for res in live:
        oos = backtest_window(res.best_params, ASSET, SPLIT.val_start,
                              SPLIT.val_end, 0.0)
        assert res.oos_total_return == oos.total_return
        assert res.oos_n_trades == oos.n_trades
        np.testing.assert_array_equal(res.oos_trade_returns,
                                      oos.trade_returns)


def test_run_cell_backtests_each_candidate_once(monkeypatch):
    starts = []
    real = search.run_backtest

    def counting(series, sig, start, end, cost_bps):
        starts.append(start)
        return real(series, sig, start, end, cost_bps)

    monkeypatch.setattr(search, "run_backtest", counting)
    spec = cell_for(budget=12)
    results = run_cell(spec, ASSET, OBJECTIVES, CFG)
    train_calls = sum(s < SPLIT.val_start for s in starts)
    oos_calls = len(starts) - train_calls
    assert train_calls == spec.budget
    assert oos_calls == sum(not r.degenerate for r in results)
    assert oos_calls <= len(OBJECTIVES)


def test_run_cell_one_metric_context_per_candidate(monkeypatch):
    calls = []
    real = objective.metric_context

    def counting(result, *args, **kwargs):
        calls.append(result)
        return real(result, *args, **kwargs)

    monkeypatch.setattr(objective, "metric_context", counting)
    spec = cell_for(budget=12)
    train = [backtest_window(params, ASSET, SPLIT.train_start,
                             SPLIT.train_end, 0.0) for params in draw_pool(spec)]
    live = sum(bt is not None and bt.n_trades > 0 for bt in train)
    assert live > 0
    run_cell(spec, ASSET, OBJECTIVES, CFG)
    assert len(OBJECTIVES) == 4
    assert len(calls) == live
    assert len({id(r) for r in calls}) == live


def test_degenerate_trial_has_empty_oos():
    # ~210 training bars cannot produce 50 RSI round trips, so every
    # candidate is gated under every objective
    tiny = make_asset(seed=5, n_days=300, asset_id="TINY")
    spec = CellSpec("TINY", StrategyKind.RSI, make_chrono_split(tiny),
                    seed=42, budget=5)
    for res in run_cell(spec, tiny, OBJECTIVES, CFG):
        assert res.degenerate
        assert res.best_loss == CFG.below_min_penalty
        assert res.oos_n_trades == 0
        assert res.oos_total_return == 0.0
        assert res.oos_trade_returns.size == 0


def test_run_trials_parallel_matches_serial():
    assets = {"A": ASSET, "B": make_asset(seed=1, asset_id="B")}
    cells = [CellSpec(aid, strat, make_chrono_split(assets[aid]),
                      seed=42, budget=5)
             for aid in assets
             for strat in (StrategyKind.MACD, StrategyKind.BOLLINGER)]
    serial = run_trials(cells, assets, OBJECTIVES, CFG, jobs=1)
    parallel = run_trials(cells, assets, OBJECTIVES, CFG, jobs=4)
    assert len(serial) == len(parallel) == len(cells) * len(OBJECTIVES)
    for s, p in zip(serial, parallel):
        assert s.spec == p.spec
        assert s.objective_kind == p.objective_kind
        assert s.best_params == p.best_params
        assert s.best_loss == p.best_loss
        assert s.oos_total_return == p.oos_total_return


def test_run_trials_canonical_order():
    assets = {"A": ASSET}
    cells = [cell_for(strat, seed)
             for strat in StrategyKind
             for seed in (43, 42)]
    results = run_trials(list(reversed(cells)), assets,
                         list(reversed(OBJECTIVES)), CFG)
    keys = [(r.spec.asset_id, r.spec.strategy_kind.value,
             r.objective_kind.value, r.spec.split_id, r.spec.seed)
            for r in results]
    assert len(keys) == len(cells) * len(OBJECTIVES)
    assert keys == sorted(keys)


# --- protocol builders -----------------------------------------------------


def test_montecarlo_spec_count():
    assets = [ASSET, make_asset(seed=1, asset_id="B")]
    specs = montecarlo_specs(assets, list(StrategyKind), seeds=[42, 43, 44])
    assert len(specs) == 2 * 3 * 3
    assert all(s.split_id == 0 for s in specs)


def test_montecarlo_skips_short_assets(caplog):
    short = make_asset(seed=2, n_days=100, asset_id="SHORT")
    specs = montecarlo_specs([ASSET, short], [StrategyKind.MACD], seeds=[42])
    assert {s.asset_id for s in specs} == {"A"}


def test_walkforward_spec_count():
    long_asset = make_asset(seed=3, n_days=15 * 261, asset_id="L")
    specs = walkforward_specs([long_asset], list(StrategyKind))
    split_ids = {s.split_id for s in specs}
    assert split_ids == set(range(9))
    assert len(specs) == 3 * 9
    assert all(s.seed == 42 for s in specs)


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

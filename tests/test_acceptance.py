"""Acceptance criteria, one test per criterion (criterion 5 is two parts).

Criterion 7's study runs once in a module fixture; criteria 4, 8, and 9
reuse its trial log. Stated runtime budgets are asserted directly.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import stdtr

from gtscore.cli import (
    TRIAL_SCHEMA,
    MonteCarloConfig,
    RunConfig,
    main,
    trial_row,
)
from gtscore.data import (
    SyntheticSpec,
    encode_config,
    generate_synthetic_series,
    load_synthetic_manifest,
    make_walkforward_splits,
)
from gtscore.engine import recompound_with_costs, run_backtest
from gtscore.metrics import MetricContext
from gtscore.objective import ObjectiveConfig, ObjectiveKind, gt_score_loss
from gtscore.search import run_montecarlo
from gtscore.stats import wilcoxon_normal_p
from gtscore.strategy import StrategyKind

from test_indicators import (
    assert_close_with_nans,
    oracle_bollinger,
    oracle_macd,
    oracle_rsi,
)
from test_stats import oracle_exact_p

CFG = ObjectiveConfig()
FIXTURES = Path(__file__).parent / "fixtures"
STUDY_SEEDS = list(range(42, 47))


def ctx(z, mu=0.01, sigma=0.02, mu_m=0.0, n=100, sigma_d=0.01, r2=0.8):
    return MetricContext(mu=mu, sigma=sigma, mu_m=mu_m, n=n,
                         sigma_d=sigma_d, r2=r2, z=z)


@pytest.fixture(scope="module")
def study():
    """The 480-trial multi-seed study on the 8 frozen regime-shift assets."""
    manifest = load_synthetic_manifest(
        (FIXTURES / "study_assets.json").read_text())
    assets = [generate_synthetic_series(spec, asset_id)
              for asset_id, spec in manifest]
    t0 = time.monotonic()
    results = run_montecarlo(assets, list(StrategyKind), list(ObjectiveKind),
                             seeds=STUDY_SEEDS, cfg=CFG, jobs=8)
    elapsed = time.monotonic() - t0
    cell_json = {}
    return [trial_row(r, cell_json) for r in results], elapsed


def test_criterion_1_composite_branch_suite():
    t0 = time.monotonic()
    assert gt_score_loss(ctx(1.0), CFG) == pytest.approx(0.0, abs=1e-9)
    assert gt_score_loss(ctx(0.0), CFG) == pytest.approx(163.2120559,
                                                         abs=1e-6)
    jump = gt_score_loss(ctx(0.0), CFG) - gt_score_loss(ctx(1e-15), CFG)
    assert jump == pytest.approx(100.0, abs=1e-9)
    worked = gt_score_loss(ctx(math.e, mu=0.01, sigma_d=0.02, r2=0.81), CFG)
    assert worked == pytest.approx(-0.4049798, abs=1e-6)
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_minimum_trade_gate():
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.Philox(1001))
    gated_losses = []
    for _ in range(10_000):
        c = ctx(float(rng.uniform(-20, 20)),
                mu=float(rng.uniform(-0.2, 0.2)),
                sigma=float(rng.uniform(0, 0.3)),
                mu_m=float(rng.uniform(-0.05, 0.05)),
                n=int(rng.integers(1, 50)),
                sigma_d=float(rng.uniform(0, 0.3)),
                r2=float(rng.uniform(0, 1)))
        gated_losses.append(gt_score_loss(c, CFG))
    assert all(loss == 300.0 for loss in gated_losses)

    # any ungated context on the reward branch ranks strictly better
    for _ in range(200):
        c = ctx(float(rng.uniform(1.0001, 20)),
                mu=float(rng.uniform(1e-6, 0.2)),
                n=int(rng.integers(50, 500)),
                sigma_d=float(rng.uniform(0, 0.3)),
                r2=float(rng.uniform(1e-6, 1)))
        assert gt_score_loss(c, CFG) < 300.0
    assert time.monotonic() - t0 < 1.0


def test_criterion_3_indicator_oracles():
    from gtscore.indicators import bollinger, macd, rsi

    t0 = time.monotonic()
    rng = np.random.Generator(np.random.Philox(1003))
    for i in range(1000):
        closes = 100.0 * np.exp(
            np.concatenate([[0.0], 0.02 * rng.standard_normal(199)]).cumsum())
        clist = closes.tolist()

        period = int(rng.integers(5, 21))
        assert_close_with_nans(rsi(closes, period),
                               oracle_rsi(clist, period), tol=1e-9)

        fast = int(rng.integers(5, 13))
        slow = int(rng.integers(fast + 1, 31))
        sig = int(rng.integers(3, 10))
        for got, want in zip(macd(closes, fast, slow, sig),
                             oracle_macd(clist, fast, slow, sig)):
            assert_close_with_nans(got, want, tol=1e-9)

        window = int(rng.integers(5, 26))
        k = float(rng.uniform(1.0, 3.0))
        for got, want in zip(bollinger(closes, window, k),
                             oracle_bollinger(clist, window, k)):
            assert_close_with_nans(got, want, tol=1e-9)

        # no-lookahead: a truncated input reproduces the same prefix
        if i % 10 == 0:
            cut = 150
            assert_close_with_nans(rsi(closes[:cut], period),
                                   rsi(closes, period)[:cut], tol=0.0)
            for head, full in zip(bollinger(closes[:cut], window, k),
                                  bollinger(closes, window, k)):
                assert_close_with_nans(head, full[:cut], tol=0.0)
    assert time.monotonic() - t0 < 10.0


def test_criterion_4_engine_consistency(study):
    rows, _ = study
    t0 = time.monotonic()
    for seed in range(100):
        spec = SyntheticSpec(150, 100.0, ((150, 0.0005, 0.02),),
                             seed=20_000 + seed)
        series = generate_synthetic_series(spec)
        res = run_backtest(series, np.ones(len(series), bool))
        bar_move = float(np.max(np.abs(series.closes / series.opens - 1.0)))
        assert abs(res.total_return - res.benchmark_total_return) <= bar_move

    # cost monotonicity over every logged trial
    sweep = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    for row in rows:
        returns = TRIAL_SCHEMA["oos_trade_returns_json"](
            row["oos_trade_returns_json"])
        totals = [recompound_with_costs(returns, bps) for bps in sweep]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
    assert time.monotonic() - t0 < 10.0


def test_criterion_5_wilcoxon_normal_vs_exact():
    # KNOWN RED: the continuity-corrected normal approximation cannot sit
    # within 0.02 of exact enumeration for every n <= 12. Its worst-case
    # absolute gap is 0.0354 at n = 5, 0.0358 at n = 6, 0.0250 at n = 7 and
    # 0.0201 at n = 8, falling below 0.02 only from n = 9. See the decisions
    # ledger for the derivation.
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.Philox(1005))
    worst = (0.0, 0)
    for _ in range(500):
        n = int(rng.integers(2, 13))
        d = rng.standard_normal(n)
        _, approx = wilcoxon_normal_p(d)
        gap = abs(approx - oracle_exact_p(d))
        if gap > worst[0]:
            worst = (gap, n)
    assert time.monotonic() - t0 < 30.0
    assert worst[0] < 0.02, (
        f"normal approximation off by {worst[0]:.4f} at n={worst[1]}; "
        "bound is unattainable for n <= 8 (see decisions ledger)")


def test_criterion_5_t_distribution_tail():
    t0 = time.monotonic()
    p = 2.0 * float(stdtr(2249, -2.45))
    assert 0.0135 <= p <= 0.0145
    assert time.monotonic() - t0 < 30.0


def test_criterion_6_determinism(tmp_path):
    t0 = time.monotonic()
    manifest = json.loads((FIXTURES / "study_assets.json").read_text())
    manifest["assets"] = manifest["assets"][:2]
    spec_path = tmp_path / "manifest.json"
    spec_path.write_text(json.dumps(manifest))
    data_dir = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path),
                 "--out", str(data_dir)]) == 0

    cfg = RunConfig(data_dir=str(data_dir),
                    mc=MonteCarloConfig(seeds=[42, 43]),
                    out_dir=str(tmp_path / "run1"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(encode_config(cfg)))

    assert main(["montecarlo", "--config", str(cfg_path)]) == 0
    assert main(["montecarlo", "--config", str(cfg_path),
                 "--out", str(tmp_path / "run2")]) == 0
    first = (tmp_path / "run1" / "trials.csv").read_bytes()
    assert (tmp_path / "run2" / "trials.csv").read_bytes() == first

    assert main(["montecarlo", "--config", str(cfg_path),
                 "--out", str(tmp_path / "run8"), "--jobs", "8"]) == 0
    assert (tmp_path / "run8" / "trials.csv").read_bytes() == first
    for name in ("aggregates.csv", "comparisons.csv"):
        assert ((tmp_path / "run8" / name).read_bytes()
                == (tmp_path / "run1" / name).read_bytes())
    assert time.monotonic() - t0 < 120.0


def test_criterion_7_directional_study(study):
    rows, elapsed = study
    assert elapsed < 300.0
    from gtscore.cli import aggregate_by_objective

    passing = 0
    for seed in STUDY_SEEDS:
        sub = [r for r in rows if r["seed"] == seed]
        aggs = {a["objective"]: a for a in aggregate_by_objective(sub)}
        gt = aggs["gt_score"]
        base_train = np.mean([aggs[o]["train_mean"]
                              for o in ("sharpe", "sortino", "simple")])
        base_gen = np.mean([aggs[o]["gen_ratio"]
                            for o in ("sharpe", "sortino", "simple")])
        if (gt["gen_ratio"] > base_gen and gt["train_mean"] < base_train):
            passing += 1
    assert passing >= 4, f"direction held on {passing}/5 study seeds"


def test_criterion_8_protocol_shape(study):
    rows, _ = study
    t0 = time.monotonic()
    n = 15 * 261  # ~15 calendar years of weekdays
    series = generate_synthetic_series(
        SyntheticSpec(n, 100.0, ((n, 0.0003, 0.015),), seed=1008))
    assert len(make_walkforward_splits(series)) == 9

    assert len(rows) == 8 * 3 * 4 * 5  # 480 trials at desk scale
    cells = {(r["asset"], r["strategy"], r["objective"], r["seed"])
             for r in rows}
    assert len(cells) == 480
    assert time.monotonic() - t0 < 1.0


def test_criterion_9_objective_candidate_fairness(study):
    rows, _ = study
    t0 = time.monotonic()
    pools = {}
    for r in rows:
        key = (r["asset"], r["strategy"], r["split_id"], r["seed"])
        pools.setdefault(key, set()).add(r["candidates_json"])
    assert len(pools) == 120  # 480 trials / 4 objectives
    for key, candidate_logs in pools.items():
        assert len(candidate_logs) == 1, f"candidate pools differ in {key}"
    assert time.monotonic() - t0 < 10.0

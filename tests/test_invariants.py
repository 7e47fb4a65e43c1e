"""End-to-end metamorphic invariants: each variant of a study's inputs
below must leave every trials.csv row it keeps byte-identical.

- price scale: every open, high, low and close times 2. Scaling by a power
  of two is exact in every float operation, and every loss and return is
  built from price ratios;
- asset order: a reversed asset list gives the same rows;
- strategy subset: a study of one strategy gives exactly that strategy's
  rows, so no cache or generator is shared across families;
- objective subset: a study of two objectives gives exactly their rows,
  so no pool or winner depends on which other objectives ran.

Each holds under three settings, each run once as a reference: Monte
Carlo with fixed-trades and with stabilized periodization, and
walk-forward. The studies are tiny (2 assets, budget 5, 2 seeds).

Each trial reads only its own windows. Prices scaled bar by bar by
random positive factors must leave rows unchanged:
- Monte Carlo embargo gap: the bars of each asset's [train_end,
  val_start) keep every row;
- Monte Carlo later bars: every bar from train_end on keeps every
  training column;
- walk-forward: the bars before a split's train_start and from its
  val_end on keep that split's rows.
"""

import functools
from pathlib import Path

import numpy as np
import pytest

from gtscore.cli import TRIAL_COLUMNS, csv_text, trial_row
from gtscore.data import (
    PriceSeries,
    generate_synthetic_series,
    load_synthetic_manifest,
    make_chrono_split,
    make_walkforward_splits,
)
from gtscore.objective import ObjectiveConfig, ObjectiveKind, Periodization
from gtscore.search import run_montecarlo, run_walkforward
from gtscore.strategy import StrategyKind

MANIFEST = load_synthetic_manifest(
    (Path(__file__).parent / "fixtures" / "study_assets.json").read_text())
ASSETS = [generate_synthetic_series(spec, asset_id)
          for asset_id, spec in MANIFEST[:2]]
MONTECARLO = dict(seeds=[42, 43])
# setting -> (study, its protocol settings, objective config)
SETTINGS = {
    "montecarlo": (run_montecarlo, MONTECARLO, ObjectiveConfig()),
    "stabilized": (run_montecarlo, MONTECARLO, ObjectiveConfig(
        periodization=Periodization.STABILIZED)),
    # three-year training windows hold few trades: below the default gate
    # of 50, most walk-forward trials would be degenerate
    "walkforward": (run_walkforward,
                    dict(train_years=3, val_years=1, step_years=2),
                    ObjectiveConfig(n_min=10)),
}


def trials(setting, assets=ASSETS, strategies=list(StrategyKind),
           objectives=list(ObjectiveKind)) -> list[dict]:
    run, settings, cfg = SETTINGS[setting]
    cell_json = {}
    return [trial_row(r, cell_json)
            for r in run(assets, strategies, objectives, cfg=cfg, budget=5,
                         **settings)]


def text(rows: list[dict]) -> str:
    """The trials.csv text of `rows`."""
    return csv_text(TRIAL_COLUMNS, rows)


@functools.cache
def reference_rows(setting) -> list[dict]:
    """The trial rows of the study of every strategy and objective."""
    return trials(setting)


@pytest.fixture(scope="module", params=list(SETTINGS))
def reference(request):
    """A setting and the trial rows of its study of every strategy and
    objective."""
    return request.param, reference_rows(request.param)


def doubled(series: PriceSeries) -> PriceSeries:
    """`series` with every price times 2."""
    return PriceSeries(series.asset_id, series.dates, series.opens * 2.0,
                       series.highs * 2.0, series.lows * 2.0,
                       series.closes * 2.0, series.volumes)


def test_price_scale_keeps_every_row(reference):
    setting, rows = reference
    assert text(trials(setting, [doubled(s) for s in ASSETS])) == (
        text(rows))


def test_asset_order_keeps_every_row(reference):
    setting, rows = reference
    assert text(trials(setting, ASSETS[::-1])) == text(rows)


def test_strategy_subset_keeps_its_rows(reference):
    setting, rows = reference
    kept = [r for r in rows if r["strategy"] == StrategyKind.BOLLINGER.value]
    assert kept and text(trials(setting, strategies=[StrategyKind.BOLLINGER])
                         ) == text(kept)


def test_objective_subset_keeps_its_rows(reference):
    setting, rows = reference
    subset = [ObjectiveKind.SHARPE, ObjectiveKind.GT_SCORE]
    kept = [r for r in rows if r["objective"] in {k.value for k in subset}]
    assert kept and text(trials(setting, objectives=subset)) == text(kept)


def scaled(series: PriceSeries, windows, seed: int) -> tuple[PriceSeries, int]:
    """`series` with the prices of each bar in the half-open date
    `windows` times its own random positive factor, and how many bars
    that is."""
    bars = np.zeros(len(series), dtype=bool)
    for start, end in windows:
        bars[slice(*series.index_window(start, end))] = True
    factor = np.where(bars, np.random.default_rng(seed).uniform(
        0.5, 2.0, len(series)), 1.0)
    return PriceSeries(series.asset_id, series.dates, series.opens * factor,
                       series.highs * factor, series.lows * factor,
                       series.closes * factor, series.volumes), int(bars.sum())


def perturbed(windows_of) -> tuple[list[PriceSeries], int]:
    """ASSETS, each scaled on the windows `windows_of` gives it, and the
    number of bars scaled in all."""
    assets = [scaled(s, windows_of(s), seed) for seed, s in enumerate(ASSETS)]
    return [s for s, _ in assets], sum(n for _, n in assets)


# the columns the search decides on the training window alone
TRAINING = ["asset", "strategy", "objective", "split_id", "seed",
            "train_return", "train_trades", "best_loss", "degenerate",
            "params_json", "candidates_json"]


@pytest.mark.parametrize("setting", ["montecarlo", "stabilized"])
def test_embargo_gap_keeps_every_row(setting):
    def gap(series):
        split = make_chrono_split(series)
        return [(split.train_end, split.val_start)]

    assets, bars = perturbed(gap)
    assert bars > 0
    assert text(trials(setting, assets)) == text(reference_rows(setting))


@pytest.mark.parametrize("setting", ["montecarlo", "stabilized"])
def test_later_bars_keep_the_training_columns(setting):
    def later(series):
        return [(make_chrono_split(series).train_end, series.span_end)]

    assets, bars = perturbed(later)
    assert bars > 0
    rows, kept = trials(setting, assets), reference_rows(setting)
    assert csv_text(TRAINING, rows) == csv_text(TRAINING, kept)
    # the scaled bars reach the validation window
    assert [r["oos_return"] for r in rows] != [r["oos_return"] for r in kept]


def test_walkforward_bars_outside_a_split_keep_its_rows():
    _, settings, _ = SETTINGS["walkforward"]
    kept = reference_rows("walkforward")
    split_ids = sorted({r["split_id"] for r in kept})
    assert len(split_ids) > 1
    for split_id in split_ids:
        def outside(series):
            split = make_walkforward_splits(series, **settings)[split_id]
            return [(series.start_date, split.train_start),
                    (split.val_end, series.span_end)]

        assets, bars = perturbed(outside)
        assert bars > 0
        rows = trials("walkforward", assets)
        assert text([r for r in rows if r["split_id"] == split_id]) == text(
            [r for r in kept if r["split_id"] == split_id])

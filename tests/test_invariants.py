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
"""

from pathlib import Path

import pytest

from gtscore.cli import TRIAL_COLUMNS, csv_text, trial_row
from gtscore.data import (
    PriceSeries,
    generate_synthetic_series,
    load_synthetic_manifest,
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


@pytest.fixture(scope="module", params=list(SETTINGS))
def reference(request):
    """A setting and the trial rows of its study of every strategy and
    objective."""
    return request.param, trials(request.param)


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

"""Workload inputs: asset CSVs and a run config, made from a seed.

The asset specs come from `tests/fixtures/study_assets.json` (8 regime-shift
series). The CSVs are written by this module, independently of the package
under test, so a change to `gtscore synth` cannot change the benchmark's
inputs. Seed 0 reproduces the fixture exactly (byte-identical to what
`gtscore synth` writes for it); any other seed shifts every asset seed by
1000 * seed and the Monte Carlo study seeds by 5 * seed.
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path

import numpy as np

FIXTURE = Path("tests") / "fixtures" / "study_assets.json"
CSV_HEADER = "date,open,high,low,close,volume"
ASSET_SEED_SHIFT = 1000
STUDY_SEED_SHIFT = 5
MC_SEEDS = (42, 43, 44, 45, 46)

# Monte Carlo workloads: name -> (objectives, periodization, fixture assets
# used); every workload uses all three strategies and five study seeds.
WORKLOADS = {
    "mc_study": (["gt_score", "simple", "sharpe", "sortino"], "fixed_trades", 8),
    "mc_stab_gt": (["gt_score"], "stabilized", 6),
}
STRATEGIES = ["rsi", "macd", "bollinger"]


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _weekdays(start: dt.date, n: int) -> list[dt.date]:
    out, d = [], start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


def synth_csv(spec: dict, seed: int) -> str:
    """Seeded geometric random walk over weekday bars, as OHLCV CSV text.

    Same draw order as the package's synthetic generator: n-1 step shocks,
    n high/low shocks, then n volumes, all from Philox(seed).
    """
    n = int(spec["n_days"])
    p0 = float(spec["initial_price"])
    rng = np.random.Generator(np.random.Philox(seed))
    drift, vol = np.empty(n), np.empty(n)
    pos = 0
    for length, d, v in spec["regimes"]:
        drift[pos:pos + length] = d
        vol[pos:pos + length] = v
        pos += length
    g = rng.standard_normal(n - 1)
    gp = rng.standard_normal(n)
    volumes = rng.integers(100_000, 1_000_000, size=n)
    closes = np.empty(n)
    closes[0] = p0
    closes[1:] = p0 * np.cumprod(np.exp(drift[1:] + vol[1:] * g))
    opens = np.empty(n)
    opens[0] = p0
    opens[1:] = closes[:-1]
    shock = np.abs(vol * gp)
    highs = np.maximum(opens, closes) * (1.0 + shock)
    lows = np.minimum(opens, closes) * (1.0 - shock)
    lows = np.maximum(lows, np.minimum(opens, closes) * 1e-6)
    start = dt.date.fromisoformat(spec.get("start_date", "2010-01-01"))
    lines = [CSV_HEADER]
    for i, day in enumerate(_weekdays(start, n)):
        lines.append(",".join([day.isoformat(), _fmt(opens[i]), _fmt(highs[i]),
                               _fmt(lows[i]), _fmt(closes[i]),
                               _fmt(volumes[i])]))
    return "\n".join(lines) + "\n"


def write_inputs(root: Path, work: Path, workload: str, seed: int,
                 tiny: bool = False) -> dict:
    """Write the asset CSVs and config.json for one workload under `work`.

    `tiny` shrinks the study to one asset and a budget of 2 candidates.

    Returns the config path, data directory, asset ids and objective count.
    """
    objectives, periodization, n_assets = WORKLOADS[workload]
    specs = json.loads((root / FIXTURE).read_text())["assets"]
    specs = specs[:1 if tiny else n_assets]
    data_dir = work / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        text = synth_csv(spec, int(spec["seed"]) + ASSET_SEED_SHIFT * seed)
        (data_dir / f"{spec['asset_id']}.csv").write_text(text)
    config = {
        "data_dir": str(data_dir),
        "assets": [s["asset_id"] for s in specs],
        "strategies": STRATEGIES,
        "objectives": objectives,
        "mc": {"seeds": [s + STUDY_SEED_SHIFT * seed for s in MC_SEEDS],
               "train_fraction": 0.7, "embargo_days": 30},
        "budget": 2 if tiny else 25,
        "objective": {"periodization": periodization},
        "out_dir": str(work / "out"),
    }
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    return {"config": config_path, "data_dir": data_dir,
            "assets": config["assets"], "n_objectives": len(objectives)}

"""Command-line interface: dataset management, studies, reports.

Every aggregate file is recomputable from the trial-level CSV next to it;
`gtscore verify` re-derives them and fails on any byte difference.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import search
from .data import (
    decode_config,
    encode_config,
    generate_synthetic_series,
    load_synthetic_manifest,
    parse_ohlcv_csv,
    to_ohlcv_csv,
)
from .engine import recompound_with_costs
from .errors import ConfigError, DataError, GtscoreError, InternalCheckError
from .objective import ObjectiveConfig, ObjectiveKind
from .search import TrialResult
from .stats import compare_paired
from .strategy import StrategyKind, params_doc, params_to_json

DEFAULT_COST_SWEEP = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _parse_returns(text: str) -> np.ndarray:
    return np.array([float(x) for x in json.loads(text)])


# trials.csv column -> parser of its text, in file order
TRIAL_SCHEMA = {
    "asset": str, "strategy": str, "objective": str, "split_id": int,
    "seed": int, "train_return": float, "oos_return": float,
    "train_trades": int, "oos_trades": int, "best_loss": float,
    "degenerate": _parse_bool, "params_json": str, "candidates_json": str,
    "oos_trade_returns_json": _parse_returns,
}
TRIAL_COLUMNS = list(TRIAL_SCHEMA)


@dataclass
class WalkforwardConfig:
    train_years: int = 4
    val_years: int = 2
    step_years: int = 1
    embargo_days: int = 30


@dataclass
class MonteCarloConfig:
    seeds: list[int] = field(default_factory=lambda: list(range(42, 57)))
    train_fraction: float = 0.7
    embargo_days: int = 30


@dataclass
class RunConfig:
    data_dir: str = "data"
    assets: list[str] = field(default_factory=list)
    strategies: list[StrategyKind] = field(
        default_factory=lambda: list(StrategyKind))
    objectives: list[ObjectiveKind] = field(
        default_factory=lambda: list(ObjectiveKind))
    wf: WalkforwardConfig = field(default_factory=WalkforwardConfig)
    mc: MonteCarloConfig = field(default_factory=MonteCarloConfig)
    budget: int = 25
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    out_dir: str = "out"

    def to_json(self) -> dict:
        return encode_config(self)

    @classmethod
    def from_json(cls, doc: dict) -> "RunConfig":
        try:
            return decode_config(cls, doc)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad run config: {exc}") from exc


def read_text(path, error: type[GtscoreError], what: str) -> str:
    """A file's text; `error`, naming the file, if it cannot be read."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: "
                    f"{getattr(exc, 'strerror', None) or exc}") from None


def load_config(path: str) -> RunConfig:
    try:
        doc = json.loads(read_text(path, ConfigError, "config"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return RunConfig.from_json(doc)


def parse_seed_range(text: str) -> list[int]:
    """Parse 'a..b' (inclusive) into a seed list."""
    try:
        a, b = text.split("..")
        lo, hi = int(a), int(b)
    except ValueError:
        raise ConfigError(f"bad seed range {text!r}, expected a..b") from None
    if hi < lo:
        raise ConfigError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


# --- CSV plumbing ----------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[c]) for c in columns])
    return buf.getvalue()


def write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    path.write_text(csv_text(columns, rows))


def trial_row(result: TrialResult, cell_json: dict) -> dict:
    """One trials.csv row. A cell's trials share one candidate pool, so
    `cell_json` keeps each cell's `candidates_json` across calls."""
    spec = result.spec
    if spec not in cell_json:
        cell_json[spec] = json.dumps(
            [params_doc(p) for p in result.candidates], sort_keys=True)
    return {
        "asset": spec.asset_id,
        "strategy": spec.strategy_kind.value,
        "objective": result.objective_kind.value,
        "split_id": spec.split_id,
        "seed": spec.seed,
        "train_return": result.train_total_return,
        "oos_return": result.oos_total_return,
        "train_trades": result.train_n_trades,
        "oos_trades": result.oos_n_trades,
        "best_loss": result.best_loss,
        "degenerate": result.degenerate,
        "params_json": params_to_json(result.best_params),
        "candidates_json": cell_json[spec],
        "oos_trade_returns_json": json.dumps(
            [repr(float(r)) for r in result.oos_trade_returns]),
    }


def read_trials_csv(path: Path) -> list[dict]:
    text = read_text(path, DataError, "trials file")
    reader = csv.DictReader(io.StringIO(text))
    for col in TRIAL_COLUMNS:
        if col not in (reader.fieldnames or []):
            raise DataError(f"{path} line 1: missing column {col}")
    rows = []
    for raw in reader:
        row = {}
        for col, parse in TRIAL_SCHEMA.items():
            try:
                if raw[col] is None:
                    raise ValueError("missing value")
                row[col] = parse(raw[col])
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path} line {reader.line_num}, column "
                                f"{col}: {exc}") from None
        rows.append(row)
    return rows


# --- derived-file builders (shared by run and verify) ----------------------

AGG_COLUMNS = ["objective", "val_mean", "val_std", "train_mean", "gen_ratio", "n"]
SPLIT_COLUMNS = ["split_id", "objective", "val_mean", "val_std", "train_mean",
                 "gen_ratio", "n"]
PERIOD_COLUMNS = ["split_id", "gt_score_mean", "baseline_avg", "delta_pp"]
COMPARISON_COLUMNS = ["comparison", "mean_diff", "t_stat", "p_value_t",
                      "wilcoxon_stat", "wilcoxon_p", "cohens_d", "n"]
TRADECOUNT_COLUMNS = ["objective", "mean_oos_trades"]


def derive_walkforward_files(rows: list[dict]) -> dict[str, tuple[list[str], list[dict]]]:
    return {
        "aggregates.csv": (AGG_COLUMNS, search.aggregate_by_objective(rows)),
        "periods.csv": (PERIOD_COLUMNS, search.aggregate_by_period(rows)),
        "splits_genratio.csv": (SPLIT_COLUMNS, search.aggregate_by_split(rows)),
    }


def derive_montecarlo_files(rows: list[dict]) -> dict[str, tuple[list[str], list[dict]]]:
    strat_cols = ["strategy"] + search.objectives_in(rows)
    comparisons = []
    objectives = {r["objective"] for r in rows}
    if ObjectiveKind.GT_SCORE.value in objectives:
        for baseline in search.BASELINES:
            if baseline.value not in objectives:
                continue
            a, b = search.paired_oos_returns(rows, ObjectiveKind.GT_SCORE.value,
                                             baseline.value)
            cmp = compare_paired(f"gt_score_vs_{baseline.value}", a, b)
            comparisons.append({
                "comparison": cmp.name, "mean_diff": cmp.mean_diff,
                "t_stat": cmp.t_stat, "p_value_t": cmp.p_value_t,
                "wilcoxon_stat": cmp.wilcoxon_stat,
                "wilcoxon_p": cmp.wilcoxon_p,
                "cohens_d": cmp.cohens_d, "n": cmp.n,
            })
    return {
        "aggregates.csv": (AGG_COLUMNS, search.aggregate_by_objective(rows)),
        "strategy_means.csv": (strat_cols,
                               search.aggregate_by_strategy(rows)),
        "comparisons.csv": (COMPARISON_COLUMNS, comparisons),
        "trade_counts.csv": (TRADECOUNT_COLUMNS, search.mean_trade_counts(rows)),
    }


def derive_cost_sensitivity(rows: list[dict],
                            sweep: list[float]) -> tuple[list[str], list[dict]]:
    cols = ["objective"] + [f"bps_{_bps_label(b)}" for b in sweep]
    out = []
    for obj in search.objectives_in(rows):
        returns = [r["oos_trade_returns_json"] for r in rows
                   if r["objective"] == obj]
        entry = {"objective": obj}
        for bps in sweep:
            entry[f"bps_{_bps_label(bps)}"] = float(np.mean(
                [recompound_with_costs(t, bps) for t in returns]))
        out.append(entry)
    return cols, out


def parse_bps_levels(texts) -> list[float]:
    """Per-side cost levels in bps: finite, non-negative and distinct."""
    levels = []
    for bps in map(float, texts):
        if not (math.isfinite(bps) and bps >= 0) or bps in levels:
            raise ValueError(
                f"{bps!r}: levels must be finite, non-negative and distinct")
        levels.append(bps)
    return levels


def _bps_label(bps: float) -> str:
    return str(int(bps)) if float(bps).is_integer() else str(bps)


# --- subcommands ------------------------------------------------------------


def _load_assets(cfg: RunConfig) -> list:
    data_dir = Path(cfg.data_dir)
    ids = cfg.assets or sorted(p.stem for p in data_dir.glob("*.csv"))
    if not ids:
        raise DataError(f"no assets configured and no CSVs in {data_dir}")
    return [parse_ohlcv_csv(read_text(data_dir / f"{asset_id}.csv", DataError,
                                      "data file"), asset_id)
            for asset_id in ids]


def cmd_config_init(args) -> int:
    doc = json.dumps(RunConfig().to_json(), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(doc)
        print(f"wrote {args.out}")
    else:
        print(doc, end="")
    return 0


def cmd_synth(args) -> int:
    manifest = load_synthetic_manifest(
        read_text(args.spec, ConfigError, "manifest"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for asset_id, spec in manifest:
        series = generate_synthetic_series(spec, asset_id)
        (out_dir / f"{asset_id}.csv").write_text(to_ohlcv_csv(series))
        print(f"wrote {out_dir / (asset_id + '.csv')} ({len(series)} bars)")
    return 0


def cmd_study(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    assets = _load_assets(cfg)
    if args.command == "montecarlo":
        if args.seed_range:
            cfg.mc.seeds = parse_seed_range(args.seed_range)
        run, settings = search.run_montecarlo, vars(cfg.mc)
        derive = derive_montecarlo_files
    else:
        run, settings = search.run_walkforward, vars(cfg.wf)
        derive = derive_walkforward_files
    results = run(assets, cfg.strategies, cfg.objectives, cfg=cfg.objective,
                  jobs=args.jobs, budget=cfg.budget, **settings)
    cell_json = {}
    rows = [trial_row(r, cell_json) for r in results]
    write_csv(out_dir / "trials.csv", TRIAL_COLUMNS, rows)
    for name, (cols, data) in derive(rows).items():
        write_csv(out_dir / name, cols, data)
    print(f"{args.command}: {len(rows)} trials -> {out_dir}")
    return 0


def cmd_costsweep(args) -> int:
    try:
        sweep = (parse_bps_levels(args.bps.split(",")) if args.bps
                 else DEFAULT_COST_SWEEP)
    except ValueError as exc:
        raise ConfigError(f"bad --bps level: {exc}") from None
    rows = read_trials_csv(Path(args.trials))
    cols, data = derive_cost_sensitivity(rows, sweep)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "cost_sensitivity.csv", cols, data)
    print(f"costsweep: {len(data)} objectives x {len(sweep)} levels -> {out_dir}")
    return 0


def _read_raw_csv(path: Path) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(read_text(path, DataError, "file")))
    return list(reader.fieldnames or []), list(reader)


def _format_text_table(cols: list[str], rows: list[dict],
                       precision: int = 4) -> str:
    def fmt(v):
        try:
            f = float(v)
        except (TypeError, ValueError):
            return str(v)
        if f.is_integer() and abs(f) < 1e15:
            return str(int(f))
        return f"{f:.{precision}f}"
    table = [[fmt(r[c]) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in table)) if table else len(c)
              for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def cmd_report(args) -> int:
    out_dir = Path(args.out)
    if not out_dir.is_dir():
        raise DataError(f"output directory not found: {out_dir}")
    sections = []
    plot_files = {
        "aggregates.csv": ("Aggregate performance by objective",
                           "fig_genratio_bars.csv"),
        "splits_genratio.csv": ("Generalization ratio by split",
                                "fig_genratio_by_split.csv"),
        "periods.csv": ("Validation mean by period", None),
        "strategy_means.csv": ("Mean out-of-sample return by strategy", None),
        "comparisons.csv": ("Paired statistical comparisons", None),
        "trade_counts.csv": ("Mean out-of-sample trade counts", None),
        "cost_sensitivity.csv": ("Transaction-cost sensitivity",
                                 "fig_cost_curves.csv"),
    }
    for name, (title, plot_name) in plot_files.items():
        path = out_dir / name
        if not path.exists():
            continue
        cols, rows = _read_raw_csv(path)
        sections.append(f"{title}\n{_format_text_table(cols, rows)}")
        if plot_name:
            (out_dir / plot_name).write_text(path.read_text())
    if not sections:
        raise DataError(f"no result CSVs found in {out_dir}")
    report = "\n\n".join(sections) + "\n"
    (out_dir / "report.txt").write_text(report)
    print(report, end="")
    return 0


def cmd_verify(args) -> int:
    out_dir = Path(args.out)
    rows = read_trials_csv(out_dir / "trials.csv")
    if (out_dir / "periods.csv").exists():
        derived = derive_walkforward_files(rows)
    else:
        derived = derive_montecarlo_files(rows)
    cost_path = out_dir / "cost_sensitivity.csv"
    if cost_path.exists():
        cols, _ = _read_raw_csv(cost_path)
        try:
            sweep = parse_bps_levels(c.removeprefix("bps_") for c in cols[1:])
        except ValueError as exc:
            raise DataError(f"{cost_path}: bad header {cols}: {exc}") from None
        derived["cost_sensitivity.csv"] = derive_cost_sensitivity(rows, sweep)
    failures = []
    for name, (cols, data) in derived.items():
        path = out_dir / name
        if not path.exists():
            failures.append(f"{name}: missing")
            continue
        if csv_text(cols, data) != read_text(path, DataError, "file"):
            failures.append(f"{name}: differs from recomputation")
        else:
            print(f"verify: {name} OK")
    if failures:
        raise InternalCheckError("; ".join(failures))
    print("verify: all aggregates recomputable from trials.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtscore",
        description="Backtesting and objective-function comparison engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("config", help="configuration helpers")
    csub = p.add_subparsers(dest="config_command", required=True)
    ci = csub.add_parser("init", help="emit a default run config")
    ci.add_argument("--out", help="write to file instead of stdout")
    ci.set_defaults(func=cmd_config_init)

    p = sub.add_parser("synth", help="generate synthetic OHLCV CSVs")
    p.add_argument("--spec", required=True, help="JSON manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    for name in ("walkforward", "montecarlo"):
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--config", required=True)
        p.add_argument("--out", help="override config out_dir")
        p.add_argument("--jobs", type=int, default=1)
        if name == "montecarlo":
            p.add_argument("--seed-range", dest="seed_range",
                           help="inclusive range a..b overriding config seeds")
        p.set_defaults(func=cmd_study)

    p = sub.add_parser("costsweep", help="transaction-cost sensitivity")
    p.add_argument("--trials", required=True, help="montecarlo trials.csv")
    p.add_argument("--out", required=True)
    p.add_argument("--bps", help="comma-separated per-side bps levels")
    p.set_defaults(func=cmd_costsweep)

    p = sub.add_parser("report", help="text summary + plot-ready data")
    p.add_argument("--out", required=True, help="study output directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="recompute aggregates and diff")
    p.add_argument("--out", required=True, help="study output directory")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GtscoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (2 if isinstance(exc, DataError) else
                3 if isinstance(exc, InternalCheckError) else 1)


if __name__ == "__main__":
    sys.exit(main())

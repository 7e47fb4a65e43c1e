"""Command-line interface: dataset management, studies, reports.

Every aggregate file is recomputable from the trial-level CSV next to it;
`verify` and `report` re-derive each one (`study_tables`) and fail on any
byte difference, so `report` prints only what `verify` proves.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal
invariant failure (a derived file that is missing or differs).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import shutil
import sys
from collections import namedtuple
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import search
from .data import (
    CSV_HEADER,
    MAX_DAYS,
    MAX_YEARS,
    NONEMPTY,
    bounded,
    check_bounds,
    decode_config,
    encode_config,
    float_faults,
    generate_synthetic_series,
    json_document,
    load_synthetic_manifest,
    ohlcv_rows,
    parse_ohlcv_csv,
)
from .engine import recompound_with_costs
from .errors import ConfigError, DataError, GtscoreError, InternalCheckError
from .metrics import generalization_ratio
from .objective import ObjectiveConfig, ObjectiveKind
from .stats import compare_paired
from .strategy import StrategyKind, params_doc, params_to_json

DEFAULT_COST_SWEEP = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]


def _finite(values):
    """`values`, a float or an array, if every one of them is finite."""
    if not np.isfinite(values).all():
        raise ValueError("not finite")
    return values


# trials.csv, in file order: column -> the parser of its text. A trial of
# `search` is a dict of these columns; `trial_row` encodes its `*_json` ones.
TRIAL_SCHEMA = {
    "asset": str,
    "strategy": lambda text: StrategyKind(text).value,
    "objective": lambda text: ObjectiveKind(text).value,
    "split_id": int,
    "seed": int,
    "train_return": lambda text: _finite(float(text)),
    "oos_return": lambda text: _finite(float(text)),
    "train_trades": int,
    "oos_trades": int,
    "best_loss": lambda text: _finite(float(text)),
    "degenerate": lambda text: text == "true",
    "params_json": str,
    "candidates_json": str,
    "oos_trade_returns_json": lambda text: _finite(
        np.array(json.loads(text), dtype=float).ravel()),
}
TRIAL_COLUMNS = list(TRIAL_SCHEMA)


@dataclass
class WalkforwardConfig:
    train_years: int = bounded(4, ge=1, le=MAX_YEARS)
    val_years: int = bounded(2, ge=1, le=MAX_YEARS)
    step_years: int = bounded(1, ge=1, le=MAX_YEARS)
    embargo_days: int = bounded(30, ge=0, le=MAX_DAYS)

    __post_init__ = check_bounds


@dataclass
class MonteCarloConfig:
    seeds: list[int] = field(
        default_factory=lambda: list(range(42, 57)), metadata=NONEMPTY)
    train_fraction: float = bounded(0.7, gt=0, lt=1)
    embargo_days: int = bounded(30, ge=0, le=MAX_DAYS)

    __post_init__ = check_bounds


@dataclass
class RunConfig:
    data_dir: str = "data"
    assets: list[str] = field(default_factory=list)
    strategies: list[StrategyKind] = field(
        default_factory=lambda: list(StrategyKind), metadata=NONEMPTY)
    objectives: list[ObjectiveKind] = field(
        default_factory=lambda: list(ObjectiveKind), metadata=NONEMPTY)
    wf: WalkforwardConfig = field(default_factory=WalkforwardConfig)
    mc: MonteCarloConfig = field(default_factory=MonteCarloConfig)
    budget: int = bounded(search.DEFAULT_BUDGET, ge=1)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    out_dir: str = "out"

    __post_init__ = check_bounds


def read_text(path, error: type[GtscoreError], what: str) -> str:
    """A file's text; `error`, naming the file, if it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise error(f"cannot read {what} {path}: "
                    f"{getattr(exc, 'strerror', None) or exc}") from None


def load_config(path: str) -> RunConfig:
    text = read_text(path, ConfigError, "config")
    try:
        doc = json_document(text)
    except ValueError as exc:  # also an int over the digit limit of int()
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    try:
        return decode_config(RunConfig, doc)
    except ConfigError as exc:
        raise ConfigError(f"bad run config: {exc}") from None


def output_dir(path, names) -> Path:
    """`path` as a directory to write the files `names` into, checked
    before any work: each path must be one the file system's encoding
    can name (`exists` would read it as absent), it or else its nearest
    existing parent must be a directory, and each name must be free or a
    file."""
    path = Path(path)
    targets = [path / name for name in names]
    for target in (path, *targets):
        try:
            os.fsencode(target)
        except UnicodeEncodeError:
            raise ConfigError(f"output path {target}: the file system "
                              f"encoding ({sys.getfilesystemencoding()}) "
                              "cannot name it") from None
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output path {path}: {existing} is not a "
                          f"directory")
    for target in targets:
        if target.exists() and not target.is_file():
            raise ConfigError(f"output path {target}: not a file")
    return path


# --- CSV plumbing ----------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, np.ndarray):  # trade returns: a JSON list of reprs
        return json.dumps([repr(float(x)) for x in value])
    return str(value)


def _write_rows(stream, columns: list[str], rows: Iterable[dict]) -> None:
    """The header `columns`, then each row's cells in that order, as CSV
    lines on the text stream `stream`."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row[c]) for c in columns] for row in rows)


def csv_text(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    _write_rows(buf, columns, rows)
    return buf.getvalue()


def write_csv(path: Path, columns: list[str], rows: Iterable[dict]) -> None:
    with path.open("w", encoding="utf-8") as stream:
        _write_rows(stream, columns, rows)


def write_tables(out_dir: Path, tables: dict) -> None:
    """Write each file name -> (columns, rows) of `tables` into `out_dir`,
    all or none: each table's rows are streamed into a temporary sibling
    (`write_csv`) a line at a time, never held as one text; then each is
    renamed into place. An error removes the temporaries and the
    directories made here."""
    made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    temps = {out_dir / f".{name}.tmp": out_dir / name for name in tables}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for temp, (columns, rows) in zip(temps, tables.values()):
            write_csv(temp, columns, rows)
        for temp, path in temps.items():
            temp.replace(path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        if made:  # the outermost, with every directory made under it
            shutil.rmtree(made[-1], ignore_errors=True)
        raise


def trial_row(trial: dict, pool_json: dict) -> dict:
    """One trials.csv row from a trial of `search`. A cell's trials share
    one candidate pool, so `pool_json` keeps each pool's `candidates_json`
    across calls."""
    pool = tuple(trial["candidates_json"])
    text = pool_json.get(pool)
    if text is None:
        text = pool_json[pool] = json.dumps(
            [params_doc(p) for p in pool], sort_keys=True)
    return {**trial, "params_json": params_to_json(trial["params_json"]),
            "candidates_json": text,
            "oos_trade_returns_json": _cell(trial["oos_trade_returns_json"])}


def _records(reader, path: Path):
    """The records of `reader`, a `csv` reader of `path`; a csv.Error, such
    as a field over `csv.field_size_limit()`, as a DataError naming the
    file and line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from None


def read_trials_csv(path: Path) -> list[dict]:
    """The rows of a trials file exactly as `trial_row` writes them: each
    cell parsed, then refused unless the writer spells its value so; at
    least one row, and each trial in one row only."""
    reader = csv.reader(io.StringIO(read_text(path, DataError, "trials file")))
    records = _records(reader, path)
    if (header := next(records, [])) != TRIAL_COLUMNS:
        raise DataError(f"{path} line 1: header {','.join(header)} is not "
                        f"{','.join(TRIAL_COLUMNS)}")
    rows, lines = [], {}  # (asset, strategy, objective, split, seed) -> line
    for cells in records:
        where = f"{path} line {reader.line_num}"
        if len(cells) > len(TRIAL_COLUMNS):
            raise DataError(f"{where}: more cells than the header's "
                            f"{len(TRIAL_COLUMNS)}")
        if len(cells) < len(TRIAL_COLUMNS):
            raise DataError(f"{where}, column {TRIAL_COLUMNS[len(cells)]}: "
                            "missing value")
        row = {}
        for (col, parse), text in zip(TRIAL_SCHEMA.items(), cells):
            try:
                row[col] = parse(text)
                if _cell(row[col]) != text:
                    raise ValueError("not spelled as the writer spells it")
            except (TypeError, ValueError, OverflowError,
                    RecursionError) as exc:  # JSON too large or too deep
                raise DataError(f"{where}, column {col}: {exc}") from None
        first = lines.setdefault(tuple(cells[:5]), reader.line_num)
        if first != reader.line_num:
            raise DataError(f"{where}: repeats the trial of line {first}")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no trials")
    return rows


# --- derived files: one table drives study, costsweep, verify and report ---
# Every derived file is built from the same row dicts that land in
# trials.csv, so `verify` can recompute it from the file bit-for-bit.

OBJECTIVES = [k.value for k in ObjectiveKind]
GT_SCORE = ObjectiveKind.GT_SCORE.value
BASELINES = [b.value for b in search.BASELINES]


def group_by(rows: list[dict], column: str) -> dict[object, list[dict]]:
    """Rows by their value in `column`: sorted keys, except objectives,
    which come in `ObjectiveKind` order. Each group keeps its rows in
    input order, so a mean over a group covers the same values in the
    same order as a filter would."""
    groups = {}
    for r in rows:
        groups.setdefault(r[column], []).append(r)
    if column == "objective":
        return {k: groups[k] for k in OBJECTIVES if k in groups}
    return dict(sorted(groups.items()))


def objectives_in(rows: list[dict]) -> list[str]:
    """The objectives present in `rows`, in `ObjectiveKind` order."""
    return list(group_by(rows, "objective"))


def _mean(rows: list[dict], column: str) -> float:
    return float(np.mean([r[column] for r in rows])) if rows else math.nan


def aggregate_by_objective(rows: list[dict]) -> list[dict]:
    """Per-objective mean/std of out-of-sample returns, train mean, and the
    generalization ratio (ratio of the aggregate means). Degenerate rows
    are excluded from the generalization ratio only."""
    out = []
    for obj, sub in group_by(rows, "objective").items():
        live = [r for r in sub if not r["degenerate"]]
        out.append({
            "objective": obj,
            "val_mean": _mean(sub, "oos_return"),
            "val_std": float(np.std([r["oos_return"] for r in sub])),
            "train_mean": _mean(sub, "train_return"),
            "gen_ratio": generalization_ratio(_mean(live, "oos_return"),
                                              _mean(live, "train_return")),
            "n": len(sub),
        })
    return out


def aggregate_by_split(rows: list[dict]) -> list[dict]:
    """Per-split, per-objective aggregate generalization ratios."""
    return [{"split_id": split_id, **agg}
            for split_id, sub in group_by(rows, "split_id").items()
            for agg in aggregate_by_objective(sub)]


def aggregate_by_period(rows: list[dict]) -> list[dict]:
    """Per-split validation means: composite vs the baseline average, with
    the difference in percentage points."""
    out = []
    for split_id, sub in group_by(rows, "split_id").items():
        gt = _mean([r for r in sub if r["objective"] == GT_SCORE],
                   "oos_return")
        base = _mean([r for r in sub if r["objective"] in BASELINES],
                     "oos_return")
        out.append({"split_id": split_id, "gt_score_mean": gt,
                    "baseline_avg": base, "delta_pp": (gt - base) * 100.0})
    return out


def aggregate_by_strategy(rows: list[dict]) -> list[dict]:
    """Mean out-of-sample return per strategy x objective; NaN where a
    strategy has no trial of an objective."""
    objectives, out = objectives_in(rows), []
    for strat, sub in group_by(rows, "strategy").items():
        by_obj = group_by(sub, "objective")
        out.append({"strategy": strat, **{
            obj: _mean(by_obj.get(obj, []), "oos_return")
            for obj in objectives}})
    return out


def mean_trade_counts(rows: list[dict]) -> list[dict]:
    """Mean out-of-sample trade count per objective."""
    return [{"objective": obj, "mean_oos_trades": _mean(sub, "oos_trades")}
            for obj, sub in group_by(rows, "objective").items()]


def paired_oos_returns(rows: list[dict], obj_a: str,
                       obj_b: str) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-sample returns of two objectives aligned on the full trial
    key (asset, strategy, split, seed)."""
    def by_key(obj):
        return {(r["asset"], r["strategy"], r["split_id"], r["seed"]):
                r["oos_return"] for r in rows if r["objective"] == obj}
    a, b = by_key(obj_a), by_key(obj_b)
    if a.keys() != b.keys():
        raise DataError(f"unpaired trials between {obj_a} and {obj_b}")
    keys = sorted(a)
    return np.array([a[k] for k in keys]), np.array([b[k] for k in keys])


def paired_comparisons(rows: list[dict]) -> list[dict]:
    """GT-Score against each baseline present, paired on the trial key;
    a DataError if a comparison has fewer than 2 pairs."""
    present, out = objectives_in(rows), []
    for baseline in BASELINES:
        if GT_SCORE in present and baseline in present:
            a, b = paired_oos_returns(rows, GT_SCORE, baseline)
            if len(a) < 2:
                raise DataError(f"need n >= 2 pairs to compare {GT_SCORE} "
                                f"with {baseline}, got {len(a)}")
            out.append({"comparison": f"gt_score_vs_{baseline}",
                        **compare_paired(a, b)})
    return out


def parse_bps_levels(texts) -> list[float]:
    """Per-side cost levels in bps: non-negative, distinct and below
    5,000, where the round trip's haircut, 2 * bps * 1e-4, reaches 100%
    and would wipe out every trade."""
    levels = []
    for bps in map(float, texts):
        if not 0 <= bps < 5000 or bps in levels:
            raise ValueError(f"{bps!r}: levels must be finite, "
                             "non-negative, below 5000 and distinct")
        levels.append(bps)
    return levels


def _bps_column(bps: float) -> str:
    return f"bps_{int(bps) if float(bps).is_integer() else bps}"


def cost_sensitivity(rows: list[dict], levels: list[float]) -> list[dict]:
    """Mean out-of-sample return per objective with every trade charged
    each per-side cost level."""
    out = []
    for obj, sub in group_by(rows, "objective").items():
        returns = [r["oos_trade_returns_json"] for r in sub]
        out.append({"objective": obj, **{
            _bps_column(bps): float(np.mean(
                [recompound_with_costs(t, bps) for t in returns]))
            for bps in levels}})
    return out


# `columns` is a list, or a function of the builder's arguments where the
# data decide them; `written_by` names the commands that write the file;
# `report` shows it under `title`.
Output = namedtuple("Output", "name columns build written_by title")

OUTPUTS = [  # in report order
    Output("aggregates.csv",
           ["objective", "val_mean", "val_std", "train_mean", "gen_ratio", "n"],
           aggregate_by_objective, ("montecarlo", "walkforward"),
           "Aggregate performance by objective"),
    Output("splits_genratio.csv",
           ["split_id", "objective", "val_mean", "val_std", "train_mean",
            "gen_ratio", "n"],
           aggregate_by_split, ("walkforward",),
           "Generalization ratio by split"),
    Output("periods.csv",
           ["split_id", "gt_score_mean", "baseline_avg", "delta_pp"],
           aggregate_by_period, ("walkforward",), "Validation mean by period"),
    Output("strategy_means.csv",
           lambda rows: ["strategy", *objectives_in(rows)],
           aggregate_by_strategy, ("montecarlo",),
           "Mean out-of-sample return by strategy"),
    Output("comparisons.csv",
           ["comparison", "mean_diff", "t_stat", "p_value_t",
            "wilcoxon_stat", "wilcoxon_p", "cohens_d", "n"],
           paired_comparisons, ("montecarlo",),
           "Paired statistical comparisons"),
    Output("trade_counts.csv", ["objective", "mean_oos_trades"],
           mean_trade_counts, ("montecarlo",),
           "Mean out-of-sample trade counts"),
    Output("cost_sensitivity.csv",
           lambda rows, levels: ["objective", *map(_bps_column, levels)],
           cost_sensitivity, ("costsweep",),
           "Transaction-cost sensitivity"),
]


def derive(out: Output, *args) -> tuple[list[str], list[dict]]:
    """A file's (columns, rows) from trial rows, plus the cost levels for
    the file `costsweep` writes; an infinite cell is a float fault."""
    columns = out.columns(*args) if callable(out.columns) else out.columns
    with float_faults(out.name):
        rows = out.build(*args)
        inf = [c for row in rows for c, v in row.items()
               if isinstance(v, float) and math.isinf(v)]
        if inf:  # Python float math overflows with no fault; NaN is legal
            raise FloatingPointError(f"overflow encountered in {inf[0]}")
        return columns, rows


# --- subcommands ------------------------------------------------------------


def _load_assets(cfg: RunConfig) -> list:
    """The series of each configured asset, or else of each `*.csv` file
    in the data directory, by asset id; a file's asset id is its name less
    `.csv`, so a file named only `.csv` names none. A file's name is read
    from its bytes as UTF-8, whatever the locale's encoding."""
    data_dir = Path(cfg.data_dir)
    files = [(a, data_dir / f"{a}.csv") for a in cfg.assets] or sorted(
        (os.fsencode(p.name).decode(errors="surrogateescape")
         .removesuffix(".csv"), p) for p in data_dir.glob("*.csv"))
    if not files:
        raise DataError(f"no assets configured and no CSVs in {data_dir}")
    for asset_id, path in files:
        if not asset_id:
            raise DataError(f"data file {path} names no asset")
        # UTF-8 encodes every character but a lone surrogate (`\udce9`)
        if asset_id.encode(errors="replace").decode() != asset_id:
            raise DataError(f"asset id {asset_id} is not UTF-8 text")
    return [parse_ohlcv_csv(read_text(path, DataError, "data file"), asset_id)
            for asset_id, path in files]


def cmd_config_init(args) -> int:
    print(json.dumps(encode_config(RunConfig()), indent=2))
    return 0


def cmd_synth(args) -> int:
    manifest = load_synthetic_manifest(
        read_text(args.spec, ConfigError, "manifest"))
    out_dir = output_dir(args.out, [f"{a}.csv" for a, _ in manifest])
    series = {f"{a}.csv": generate_synthetic_series(spec, a)
              for a, spec in manifest}
    write_tables(out_dir, {name: (CSV_HEADER, ohlcv_rows(s))
                           for name, s in series.items()})
    for name, s in series.items():
        print(f"wrote {out_dir / name} ({len(s)} bars)")
    return 0


def cmd_study(args) -> int:
    """Run the study and derive every file it writes, then write them all
    at once (`write_tables`); a study that fails changes no file."""
    if args.jobs < 1:
        raise ConfigError(f"argument --jobs: must be >= 1, got {args.jobs}")
    cfg = load_config(args.config)
    derived = [out for out in OUTPUTS if args.command in out.written_by]
    names = ["trials.csv", *(out.name for out in derived)]
    out_dir = output_dir(args.out or cfg.out_dir, names)
    assets = _load_assets(cfg)
    if args.command == "montecarlo":
        run, settings = search.run_montecarlo, vars(cfg.mc)
    else:
        run, settings = search.run_walkforward, vars(cfg.wf)
    results = run(assets, cfg.strategies, cfg.objectives, cfg=cfg.objective,
                  jobs=args.jobs, budget=cfg.budget, **settings)
    pool_json = {}
    rows = [trial_row(r, pool_json) for r in results]
    write_tables(out_dir, dict(zip(names, [
        (TRIAL_COLUMNS, rows), *(derive(out, rows) for out in derived)])))
    print(f"{args.command}: {len(rows)} trials -> {out_dir}")
    return 0


def cmd_costsweep(args) -> int:
    try:
        sweep = (parse_bps_levels(args.bps.split(",")) if args.bps is not None
                 else DEFAULT_COST_SWEEP)
    except ValueError as exc:
        raise ConfigError(f"bad --bps level: {exc}") from None
    (out,) = [out for out in OUTPUTS if "costsweep" in out.written_by]
    out_dir = output_dir(args.out, [out.name])
    rows = read_trials_csv(Path(args.trials))
    cols, data = derive(out, rows, sweep)
    write_tables(out_dir, {out.name: (cols, data)})
    print(f"costsweep: {len(data)} objectives x {len(sweep)} levels -> {out_dir}")
    return 0


def _format_text_table(cols: list[str], rows: list[dict]) -> str:
    def fmt(v):
        try:
            f = float(v)
        except (TypeError, ValueError):
            return str(v)
        if f.is_integer() and abs(f) < 1e15:
            return str(int(f))
        return f"{f:.4f}"
    table = [cols, *([fmt(r[c]) for c in cols] for r in rows)]
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def study_tables(out_dir: Path) -> list[tuple[Output, list, list]]:
    """Every derived file in `out_dir` as (output, columns, rows) in
    `OUTPUTS` order, recomputed from the `trials.csv` there and checked
    against the file's bytes; `cost_sensitivity.csv` at the levels its
    header names. A file of the study's protocol that is missing, or a
    file that differs from its recomputation, is one InternalCheckError
    naming every such file; a table that `trials.csv` cannot make (too
    few or unpaired trials to compare) is a DataError naming it."""
    output_dir(out_dir, [])  # an unusable --out is exit 1, as when written
    trials = out_dir / "trials.csv"
    rows = read_trials_csv(trials)
    # the protocol is the one whose own files are there, walkforward's
    # first (a stray montecarlo file may sit beside them); with neither,
    # the missing files of each are named
    own = {p: [out.name for out in OUTPUTS if out.written_by == (p,)]
           for p in ("walkforward", "montecarlo")}
    protocols = [p for p, names in own.items()
                 if any((out_dir / name).exists() for name in names)][:1]
    missing = {p: [out.name for out in OUTPUTS if p in out.written_by
                   and not (out_dir / out.name).exists()]
               for p in protocols or own}
    tables, failures = [], []
    if all(missing.values()):
        failures.append(" or ".join(f"{', '.join(names)} ({p})"
                                    for p, names in missing.items())
                        + ": missing")
    for out in OUTPUTS:
        path = out_dir / out.name
        if not path.exists():
            continue
        text = read_text(path, DataError, "file")
        args = [rows]
        if "costsweep" in out.written_by:
            header = next(_records(csv.reader(io.StringIO(text)), path), [])
            try:
                args.append(parse_bps_levels(c.removeprefix("bps_")
                                             for c in header[1:]))
            except ValueError as exc:
                raise DataError(f"{path}: bad header {header}: {exc}") from None
        try:
            cols, data = derive(out, *args)
        except DataError as exc:
            raise DataError(f"{trials}: {exc}") from None
        if csv_text(cols, data) != text:
            failures.append(f"{out.name}: differs from recomputation")
        tables.append((out, cols, data))
    if failures:
        raise InternalCheckError("; ".join(failures))
    return tables


def cmd_report(args) -> int:
    print("\n\n".join(f"{out.title}\n{_format_text_table(cols, rows)}"
                      for out, cols, rows in study_tables(Path(args.out))))
    return 0


def cmd_verify(args) -> int:
    for out, _, _ in study_tables(Path(args.out)):
        print(f"verify: {out.name} OK")
    print("verify: all aggregates recomputable from trials.csv")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is a ConfigError: exit 1 with one `error:` line."""
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gtscore",
        description="Backtesting and objective-function comparison engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("config", help="configuration helpers")
    csub = p.add_subparsers(dest="config_command", required=True)
    ci = csub.add_parser("init", help="emit a default run config")
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
        p.set_defaults(func=cmd_study)

    p = sub.add_parser("costsweep", help="transaction-cost sensitivity")
    p.add_argument("--trials", required=True, help="montecarlo trials.csv")
    p.add_argument("--out", required=True)
    p.add_argument("--bps", help="comma-separated per-side bps levels")
    p.set_defaults(func=cmd_costsweep)

    for name, func, text in (
            ("report", cmd_report, "text summary of a study's CSVs"),
            ("verify", cmd_verify, "recompute aggregates and diff")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--out", required=True, help="study output directory")
        p.set_defaults(func=func)
    return parser


def _one_line(text: str) -> str:
    """`text` with each non-printable character (a newline in a config key
    or an asset id, say) escaped as `repr` spells it."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


class _Stderr(logging.Handler):
    def emit(self, record):  # `LEVEL message` on sys.stderr as it is now
        print(record.levelname, _one_line(record.getMessage()),
              file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    log = logging.getLogger("gtscore")
    if not log.handlers:  # once; and a caller's own handler stays alone
        log.addHandler(_Stderr())
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (GtscoreError, OSError) as exc:  # OSError: e.g. a bad --out path
        print(f"error: {_one_line(str(exc))}", file=sys.stderr)
        return (2 if isinstance(exc, DataError) else
                3 if isinstance(exc, InternalCheckError) else 1)


if __name__ == "__main__":
    sys.exit(main())

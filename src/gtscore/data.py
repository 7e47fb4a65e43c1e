"""OHLCV data ingestion, synthetic series generation, and train/test splits.

A price series is held as columns: one `datetime64[D]` date array and five
float arrays. Rows exist only in CSV text. It is read in one pass: each
record `csv.reader` yields is converted at once, its day ordinal appended
to an `array('q')` and its five values to an `array('d')`, so no record
outlives its own conversion, and the first bad record raises. It is
written one bar at a time (`ohlcv_rows`), for a writer to stream.

All randomness in this module goes through numpy's Philox (4x64)
counter-based bit generator so a given seed reproduces the same series
bit-for-bit on any platform.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
from array import array
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import (
    ConfigError,
    CsvParseError,
    CsvValidationError,
    InsufficientDataError,
    ParameterError,
)

CSV_HEADER = ["date", "open", "high", "low", "close", "volume"]
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


def _column(values, dtype) -> np.ndarray:
    """Read-only array view, so validated data cannot change afterwards."""
    col = np.asarray(values, dtype=dtype).view()
    col.flags.writeable = False
    return col


class PriceSeries:
    """Daily OHLCV columns for one asset.

    Validated on construction: at least 2 bars, dates strictly increasing,
    every value finite, prices positive, volume non-negative and
    low <= open/close <= high. Errors name the first offending date.
    """

    def __init__(self, asset_id: str, dates, opens, highs, lows, closes,
                 volumes):
        self.asset_id = asset_id
        self.dates = _column(dates, "datetime64[D]")
        self.opens = _column(opens, float)
        self.highs = _column(highs, float)
        self.lows = _column(lows, float)
        self.closes = _column(closes, float)
        self.volumes = _column(volumes, float)
        n = len(self.dates)
        if any(len(c) != n for c in (self.opens, self.highs, self.lows,
                                     self.closes, self.volumes)):
            raise ParameterError(f"{asset_id}: columns differ in length")
        if n < 2:
            raise InsufficientDataError(
                f"{asset_id}: need at least 2 bars, got {n}")
        self._validate()

    def _validate(self) -> None:
        o, h, l, c, v = (self.opens, self.highs, self.lows, self.closes,
                         self.volumes)
        checks = [
            ("non-finite value", ~(np.isfinite(o) & np.isfinite(h)
                                   & np.isfinite(l) & np.isfinite(c)
                                   & np.isfinite(v))),
            ("non-positive price", (o <= 0) | (h <= 0) | (l <= 0) | (c <= 0)),
            ("negative volume", v < 0),
            ("OHLC ordering violated",
             (l > o) | (o > h) | (l > c) | (c > h)),
            ("duplicate or out-of-order date", np.concatenate(
                ([False], self.dates[1:] <= self.dates[:-1]))),
        ]
        bad = np.logical_or.reduce([mask for _, mask in checks])
        if bad.any():
            i = int(bad.argmax())
            what = next(msg for msg, mask in checks if mask[i])
            raise CsvValidationError(
                f"{self.asset_id}: {self.dates[i]}: {what} "
                f"(o={o[i]} h={h[i]} l={l[i]} c={c[i]} v={v[i]})")

    def __len__(self) -> int:
        return len(self.dates)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PriceSeries)
                and self.asset_id == other.asset_id
                and all(np.array_equal(getattr(self, k), getattr(other, k))
                        for k in ("dates", "opens", "highs", "lows",
                                  "closes", "volumes")))

    @property
    def start_date(self) -> dt.date:
        return self.dates[0].item()

    @property
    def end_date(self) -> dt.date:
        """Last bar date."""
        return self.dates[-1].item()

    @property
    def span_end(self) -> dt.date:
        """Exclusive end of the covered span (last bar date + 1 day)."""
        return self.end_date + dt.timedelta(days=1)

    def index_window(self, start: dt.date, end: dt.date) -> tuple[int, int]:
        """Half-open bar index range [i0, i1) covering dates in [start, end)."""
        i0 = int(np.searchsorted(self.dates, np.datetime64(start, "D"), "left"))
        i1 = int(np.searchsorted(self.dates, np.datetime64(end, "D"), "left"))
        return i0, i1

    def slice(self, start: dt.date, end: dt.date) -> "PriceSeries":
        """Sub-series of bars with start <= date < end, as views."""
        i0, i1 = self.index_window(start, end)
        if i1 - i0 < 2:
            raise InsufficientDataError(
                f"{self.asset_id}: window [{start}, {end}) holds "
                f"{i1 - i0} bars, need >= 2")
        return PriceSeries(self.asset_id, self.dates[i0:i1],
                           self.opens[i0:i1], self.highs[i0:i1],
                           self.lows[i0:i1], self.closes[i0:i1],
                           self.volumes[i0:i1])


@dataclass(frozen=True)
class SplitSpec:
    """Half-open train and validation date intervals with an embargo gap."""

    train_start: dt.date
    train_end: dt.date
    val_start: dt.date
    val_end: dt.date

    def __post_init__(self):
        if not (self.train_start < self.train_end
                <= self.val_start < self.val_end):
            raise ParameterError(f"split intervals out of order: {self}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Geometric random walk spec: piecewise (length, drift, vol) regimes."""

    n_days: int
    initial_price: float
    regimes: tuple[tuple[int, float, float], ...]
    seed: int
    start_date: dt.date = dt.date(2010, 1, 1)

    def __post_init__(self):
        if self.n_days < 2:
            raise ParameterError("n_days must be >= 2")
        if self.initial_price <= 0:
            raise ParameterError("initial_price must be positive")
        if any(r[0] < 0 for r in self.regimes):
            raise ParameterError("regime lengths must be >= 0")
        if sum(r[0] for r in self.regimes) != self.n_days:
            raise ParameterError("regime lengths must sum to n_days")
        if any(r[2] < 0 for r in self.regimes):
            raise ParameterError("vol_per_day must be non-negative")


def parse_ohlcv_csv(text: str, asset_id: str) -> PriceSeries:
    """Parse a `date,open,high,low,close,volume` CSV into a PriceSeries.

    Rows may arrive unsorted; output is sorted ascending by date. A parse
    error names the asset and the first bad line.
    """
    reader = csv.reader(io.StringIO(text))
    days, values = array("q"), array("d")  # day ordinals; 5 values a record
    try:
        if (header := next(reader, None)) is None:
            raise CsvParseError(asset_id, 1, "empty document")
        if [h.strip().lower() for h in header] != CSV_HEADER:
            raise CsvParseError(asset_id, 1,
                                f"bad header {header!r}, want {CSV_HEADER}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise CsvParseError(asset_id, line,
                                    f"expected 6 fields, got {len(row)}")
            try:
                days.append(dt.date.fromisoformat(row[0].strip()).toordinal())
            except ValueError:
                raise CsvParseError(asset_id, line,
                                    f"bad date {row[0]!r}") from None
            try:
                values.extend(map(float, row[1:]))
            except ValueError:
                raise CsvParseError(asset_id, line,
                                    f"non-numeric field in {row!r}") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise CsvParseError(asset_id, reader.line_num, str(exc)) from None
    days = np.frombuffer(days, np.int64)
    order = np.argsort(days, kind="stable")
    dates = (days[order] - _EPOCH_ORDINAL).astype("datetime64[D]")
    return PriceSeries(asset_id, dates,
                       *np.frombuffer(values).reshape(-1, 5)[order].T)


def _fmt(x: float) -> str:
    # repr round-trips exactly; keep integral values compact
    return str(int(x)) if x.is_integer() else repr(x)


def ohlcv_rows(series: PriceSeries):
    """Each bar's CSV cells by `CSV_HEADER` column, one bar at a time, as
    text that parses back to the same values."""
    for d, *values in zip(series.dates.tolist(), series.opens.tolist(),
                          series.highs.tolist(), series.lows.tolist(),
                          series.closes.tolist(), series.volumes.tolist()):
        yield dict(zip(CSV_HEADER, [d.isoformat(), *map(_fmt, values)]))


def generate_synthetic_series(spec: SyntheticSpec,
                              asset_id: str = "synthetic") -> PriceSeries:
    """Seeded geometric random walk over weekday bars.

    close[t+1] = close[t] * exp(drift + vol * g[t]) with g standard normal
    from Philox(seed). Highs/lows are max/min(open, close) inflated/deflated
    by |vol * g'| with an independent draw per bar. Bars fall on n
    consecutive weekdays from the first weekday >= spec.start_date.
    """
    rng = np.random.Generator(np.random.Philox(spec.seed))
    n = spec.n_days
    lengths, drifts, vols = zip(*spec.regimes)
    drift = np.repeat(np.array(drifts, dtype=float), lengths)
    vol = np.repeat(np.array(vols, dtype=float), lengths)

    # Fixed draw order: n-1 step shocks, then n high/low shocks, then volumes.
    g = rng.standard_normal(n - 1)
    gp = rng.standard_normal(n)
    volumes = rng.integers(100_000, 1_000_000, size=n)

    closes = np.empty(n)
    closes[0] = spec.initial_price
    steps = np.exp(drift[1:] + vol[1:] * g)
    closes[1:] = spec.initial_price * np.cumprod(steps)

    opens = np.empty(n)
    opens[0] = spec.initial_price
    opens[1:] = closes[:-1]

    shock = np.abs(vol * gp)
    highs = np.maximum(opens, closes) * (1.0 + shock)
    lows = np.minimum(opens, closes) * (1.0 - shock)
    # Guard against a pathological draw pushing low non-positive
    lows = np.maximum(lows, np.minimum(opens, closes) * 1e-6)

    dates = np.busday_offset(np.datetime64(spec.start_date, "D"),
                             np.arange(n), roll="forward")
    return PriceSeries(asset_id, dates, opens, highs, lows, closes, volumes)


def add_years(d: dt.date, years: int) -> dt.date:
    """Calendar-year shift; Feb 29 maps to Feb 28 in non-leap years."""
    try:
        return d.replace(year=d.year + years)
    except ValueError:
        return d.replace(year=d.year + years, day=28)


def make_walkforward_splits(series: PriceSeries, train_years: int = 4,
                            val_years: int = 2, step_years: int = 1,
                            embargo_days: int = 30) -> list[SplitSpec]:
    """Rolling train/validation splits stepped forward by step_years.

    Validation starts embargo_days calendar days after training ends.
    Emits every split whose validation interval fits within the series span.
    """
    if min(train_years, val_years, step_years) < 1 or embargo_days < 0:
        raise ParameterError("window sizes must be >= 1 year, embargo >= 0")
    splits = []
    i = 0
    while True:
        train_start = add_years(series.start_date, i * step_years)
        train_end = add_years(train_start, train_years)
        val_start = train_end + dt.timedelta(days=embargo_days)
        val_end = add_years(val_start, val_years)
        if val_end > series.span_end:
            break
        splits.append(SplitSpec(train_start, train_end, val_start, val_end))
        i += 1
    if not splits:
        need = add_years(series.start_date, train_years + val_years)
        need += dt.timedelta(days=embargo_days)
        raise InsufficientDataError(
            f"{series.asset_id}: series ends {series.end_date}, needs to "
            f"reach {need} for one split "
            f"({train_years}y train + {embargo_days}d embargo + {val_years}y val)")
    return splits


CHRONO_MIN_BARS = 60  # fewest bars each side of a chrono split must hold


def make_chrono_split(series: PriceSeries, train_fraction: float = 0.7,
                      embargo_days: int = 30) -> SplitSpec:
    """Single chronological split at train_fraction of the calendar span."""
    if not 0 < train_fraction < 1 or embargo_days < 0:
        raise ParameterError("train_fraction must be in (0, 1), embargo >= 0")
    total_days = (series.span_end - series.start_date).days
    train_end = series.start_date + dt.timedelta(
        days=int(total_days * train_fraction))
    val_start = train_end + dt.timedelta(days=embargo_days)
    # bars first: a 0-day training side is short data, not a bad split
    i0, i1 = series.index_window(series.start_date, train_end)
    j0, j1 = series.index_window(val_start, series.span_end)
    if i1 - i0 < CHRONO_MIN_BARS or j1 - j0 < CHRONO_MIN_BARS:
        raise InsufficientDataError(
            f"{series.asset_id}: chrono split leaves {i1 - i0} train / "
            f"{j1 - j0} test bars, need >= {CHRONO_MIN_BARS} each")
    return SplitSpec(series.start_date, train_end, val_start, series.span_end)


def encode_config(value):
    """A config value as JSON: a dataclass becomes its fields in declaration
    order, an Enum its value, a list or tuple a list."""
    if is_dataclass(value):
        return {f.name: encode_config(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [encode_config(v) for v in value]
    return value


def decode_config(tp, value, where: str = ""):
    """Rebuild a value of type `tp` from its JSON form, checking every part;
    an error names the path of a wrong JSON type, a missing required field
    or a bad date or enum value. An int passes for a float, as a float; a
    bool for neither; a date is an ISO string and an enum its str value. A
    list item may not repeat: every config list is a set of things to run."""
    if is_dataclass(tp):
        _expect(dict, value, where)
        hints = get_type_hints(tp)
        kwargs = dict(value)  # the constructor rejects an unknown key
        for f in fields(tp):
            path = f"{where}.{f.name}" if where else f.name
            if f.name in value:
                kwargs[f.name] = decode_config(hints[f.name], value[f.name],
                                               path)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise TypeError(f"{where}: missing key {f.name!r}")
        return tp(**kwargs)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (list, tuple):
        _expect(list, value, where)
        if origin is list or args[-1] is Ellipsis:  # one type for every item
            args = args[:1] * len(value)
        if len(value) != len(args):
            raise TypeError(f"{where}: expected {len(args)} items, "
                            f"got {len(value)}")
        items = origin(decode_config(a, v, f"{where}[{i}]")
                       for i, (a, v) in enumerate(zip(args, value)))
        for i, item in enumerate(items if origin is list else ()):
            if item in items[:i]:
                raise ValueError(f"{where}[{i}]: repeats {value[i]!r}")
        return items
    if tp is dt.date or issubclass(tp, Enum):
        text = decode_config(str, value, where)
        try:
            return dt.date.fromisoformat(text) if tp is dt.date else tp(text)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    _expect(tp, value, where)
    if tp is float:
        try:
            return float(value)
        except OverflowError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return value


def _expect(tp: type, value, where: str) -> None:
    if type(value) is not tp and (tp, type(value)) != (float, int):
        raise TypeError(f"{where or 'document'}: expected {tp.__name__}, "
                        f"got {type(value).__name__}")


def load_synthetic_manifest(text: str) -> list[tuple[str, SyntheticSpec]]:
    """Parse a JSON manifest: {"assets": [{"asset_id": ..., <spec fields>}]},
    each entry decoded by type (`decode_config`). Raises ConfigError for
    invalid JSON, a missing key, a bad value or a repeated asset_id."""
    try:
        entries = decode_config(list[dict], json.loads(text)["assets"],
                                "assets")
        manifest = []
        for i, entry in enumerate(entries):
            spec = {k: v for k, v in entry.items() if k != "asset_id"}
            asset_id = decode_config(str, entry["asset_id"],
                                     f"assets[{i}].asset_id")
            spec = decode_config(SyntheticSpec, spec, f"assets[{i}]")
            ids = [a for a, _ in manifest]
            if asset_id in ids:  # its CSV would overwrite the first one's
                raise ValueError(f"assets[{i}].asset_id repeats assets"
                                 f"[{ids.index(asset_id)}].asset_id {asset_id!r}")
            manifest.append((asset_id, spec))
        return manifest
    except KeyError as exc:
        raise ConfigError(f"bad synthetic manifest: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad synthetic manifest: {exc}") from None

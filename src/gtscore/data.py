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
import math
import operator
from array import array
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, DataError

CSV_HEADER = ["date", "open", "high", "low", "close", "volume"]
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
# the spans the calendar holds: a longer shift from any date leaves it
MAX_YEARS = dt.MAXYEAR - dt.MINYEAR
MAX_DAYS = (dt.date.max - dt.date.min).days


def _column(values, dtype) -> np.ndarray:
    """Read-only array view, so validated data cannot change afterwards."""
    col = np.asarray(values, dtype=dtype).view()
    col.flags.writeable = False
    return col


class PriceSeries:
    """Daily OHLCV columns for one asset.

    Validated on construction: at least 2 bars, dates strictly increasing
    and before 9999-12-31, every value finite, prices positive, volume
    non-negative and low <= open/close <= high. Errors name the first
    offending date.
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
            raise ConfigError(f"{asset_id}: columns differ in length")
        if n < 2:
            raise DataError(
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
            ("date on or after 9999-12-31",  # so `span_end` exists
             self.dates >= np.datetime64(dt.date.max, "D")),
        ]
        bad = np.logical_or.reduce([mask for _, mask in checks])
        if bad.any():
            i = int(bad.argmax())
            what = next(msg for msg, mask in checks if mask[i])
            raise DataError(
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
            raise DataError(
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
            raise ConfigError(f"split intervals out of order: {self}")


def parse_ohlcv_csv(text: str, asset_id: str) -> PriceSeries:
    """Parse a `date,open,high,low,close,volume` CSV into a PriceSeries.

    Rows may arrive unsorted; output is sorted ascending by date. A parse
    error names the asset and the first bad line.
    """
    def bad(line: int, what) -> DataError:
        return DataError(f"{asset_id}: line {line}: {what}")

    reader = csv.reader(io.StringIO(text))
    days, values = array("q"), array("d")  # day ordinals; 5 values a record
    try:
        if (header := next(reader, None)) is None:
            raise bad(1, "empty document")
        if [h.strip().lower() for h in header] != CSV_HEADER:
            raise bad(1, f"bad header {header!r}, want {CSV_HEADER}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 6:
                raise bad(line, f"expected 6 fields, got {len(row)}")
            try:
                days.append(dt.date.fromisoformat(row[0].strip()).toordinal())
            except ValueError:
                raise bad(line, f"bad date {row[0]!r}") from None
            try:
                values.extend(map(float, row[1:]))
            except ValueError:
                raise bad(line, f"non-numeric field in {row!r}") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise bad(reader.line_num, exc) from None
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
    if step_years < 1:  # the config's bound, kept here: 0 would loop forever
        raise ConfigError(f"step_years: must be >= 1, got {step_years}")
    splits, need = [], "past 9999-12-31"
    while True:
        try:
            train_start = add_years(series.start_date,
                                    len(splits) * step_years)
            train_end = add_years(train_start, train_years)
            val_start = train_end + dt.timedelta(days=embargo_days)
            val_end = add_years(val_start, val_years)
        except (OverflowError, ValueError):  # past 9999-12-31: cannot fit
            break
        if val_end > series.span_end:
            need = val_end
            break
        splits.append(SplitSpec(train_start, train_end, val_start, val_end))
    if not splits:
        raise DataError(
            f"{series.asset_id}: series ends {series.end_date}, needs to "
            f"reach {need} for one split "
            f"({train_years}y train + {embargo_days}d embargo + {val_years}y val)")
    return splits


CHRONO_MIN_BARS = 60  # fewest bars each side of a chrono split must hold


def make_chrono_split(series: PriceSeries, train_fraction: float = 0.7,
                      embargo_days: int = 30) -> SplitSpec:
    """Single chronological split at train_fraction of the calendar span."""
    total_days = (series.span_end - series.start_date).days
    train_end = series.start_date + dt.timedelta(
        days=int(total_days * train_fraction))
    val_start = dt.date.fromordinal(min(  # past the span: no validation bar
        train_end.toordinal() + embargo_days, series.span_end.toordinal()))
    # bars first: a 0-day training side is short data, not a bad split
    i0, i1 = series.index_window(series.start_date, train_end)
    j0, j1 = series.index_window(val_start, series.span_end)
    if i1 - i0 < CHRONO_MIN_BARS or j1 - j0 < CHRONO_MIN_BARS:
        raise DataError(
            f"{series.asset_id}: chrono split leaves {i1 - i0} train / "
            f"{j1 - j0} test bars, need >= {CHRONO_MIN_BARS} each")
    return SplitSpec(series.start_date, train_end, val_start, series.span_end)


def bounded(default=MISSING, **limits):
    """A config field whose value must meet each of `limits` (`ge`, `gt`,
    `le`, `lt`: a number), as `check_bounds` enforces; a config list that
    must name at least one item is a `field` with `metadata=NONEMPTY`."""
    return field(default=default, metadata=limits)


SIGNS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}
NONEMPTY = {"nonempty": True}  # a config list that names things to run


def check_bounds(obj) -> None:
    """ConfigError naming the first field of the dataclass `obj` that is a
    non-finite float, an empty list its metadata marks `nonempty`, or a
    value that breaks a limit of its `bounded` declaration."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name}: must be finite, got {value}")
        if f.metadata.get("nonempty") and not value:
            raise ConfigError(f"{f.name}: must name at least one")
        for name, limit in f.metadata.items():
            if name in SIGNS and not getattr(operator, name)(value, limit):
                raise ConfigError(f"{f.name}: must be {SIGNS[name]} {limit}, "
                                  f"got {value}")


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


def json_document(text: str):
    """JSON `text` as `decode_config` reads it: a key that repeats in one
    object is kept as the 1-tuple (key,), which matches no field, so that
    `decode_config` refuses it by its path rather than let one value win."""
    def unique(pairs):
        doc = {}
        for key, value in pairs:
            doc[(key,) if key in doc else key] = value
        return doc
    return json.loads(text, object_pairs_hook=unique)


def decode_config(tp, value, where: str = ""):
    """Rebuild a value of type `tp` from its JSON form, checking every part;
    any error is a ConfigError naming the path of an unknown or repeated
    key (the first in document order), a missing required field, a wrong
    JSON type, a string holding a NUL (no file name can), a bad date or
    enum value, or a value its dataclass refuses. An int passes for a
    float, as a float; a bool for neither; a date is an ISO string and an
    enum its str value. A list item may not repeat: every config list is a
    set of things to run."""
    if is_dataclass(tp):
        _expect(dict, value, where)
        hints, kwargs = get_type_hints(tp), {}
        at = f"{where}." if where else ""  # the path up to each key
        if unknown := [key for key in value if key not in hints]:
            key = unknown[0]
            raise ConfigError(f"{at}{key[0]}: repeated key" if isinstance(
                key, tuple) else f"{at}{key}: unknown key")
        for f in fields(tp):
            if f.name in value:
                kwargs[f.name] = decode_config(hints[f.name], value[f.name],
                                               at + f.name)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{at}{f.name}: missing key")
        try:
            return tp(**kwargs)
        except ConfigError as exc:  # its message starts with a field name
            raise ConfigError(f"{at}{exc}") from None
    origin, args = get_origin(tp), get_args(tp)
    if origin in (list, tuple):
        _expect(list, value, where)
        if origin is list or args[-1] is Ellipsis:  # one type for every item
            args = args[:1] * len(value)
        if len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} items, "
                              f"got {len(value)}")
        items = origin(decode_config(a, v, f"{where}[{i}]")
                       for i, (a, v) in enumerate(zip(args, value)))
        for i, item in enumerate(items if origin is list else ()):
            if item in items[:i]:
                raise ConfigError(f"{where}[{i}]: repeats {value[i]!r}")
        return items
    _expect(str if tp is dt.date or issubclass(tp, Enum) else tp, value, where)
    if isinstance(value, str) and "\0" in value:
        raise ConfigError(f"{where}: holds a NUL character")
    try:  # an int in a float field as that float; a date or enum by its str
        return (dt.date.fromisoformat if tp is dt.date else tp)(value)
    except (OverflowError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _expect(tp: type, value, where: str) -> None:
    if type(value) is not tp and (tp, type(value)) != (float, int):
        raise ConfigError(f"{where or 'document'}: expected {tp.__name__}, "
                          f"got {type(value).__name__}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Geometric random walk spec: piecewise (length, drift, vol) regimes."""

    n_days: int = bounded(ge=2)
    initial_price: float = bounded(gt=0)
    regimes: tuple[tuple[int, float, float], ...]
    seed: int = bounded(ge=0)
    start_date: dt.date = dt.date(2010, 1, 1)

    def __post_init__(self):
        check_bounds(self)
        if sum(n for n, _, _ in self.regimes) != self.n_days or not all(
                n >= 0 and math.isfinite(d) and 0 <= v < math.inf
                for n, d, v in self.regimes):
            raise ConfigError("regimes: need lengths >= 0 that sum to "
                              "n_days, finite drifts and finite vols >= 0")
        if np.busday_count(self.start_date, dt.date.max) < self.n_days:
            raise ConfigError("start_date: its n_days weekdays must end "
                              "before 9999-12-31")


@dataclass(frozen=True)
class SyntheticAsset(SyntheticSpec):
    """A manifest entry: a spec and the id that names its CSV."""

    asset_id: str = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if not self.asset_id or "/" in self.asset_id:  # <asset_id>.csv
            raise ConfigError(f"asset_id: must name a file, got "
                              f"{self.asset_id!r}")


@dataclass(frozen=True)
class SyntheticManifest:
    assets: list[SyntheticAsset]


def load_synthetic_manifest(text: str) -> list[tuple[str, SyntheticAsset]]:
    """(asset_id, entry) of each entry of a JSON manifest, decoded as a
    `SyntheticManifest`; ConfigError for anything `decode_config` refuses,
    invalid JSON or a repeated asset_id."""
    try:
        assets = decode_config(SyntheticManifest, json_document(text)).assets
        ids = [a.asset_id for a in assets]
        for i, asset_id in enumerate(ids):
            if asset_id in ids[:i]:  # its CSV would overwrite the first one's
                raise ConfigError(f"assets[{i}].asset_id repeats assets"
                                  f"[{ids.index(asset_id)}].asset_id {asset_id!r}")
    except ValueError as exc:  # a ConfigError, or JSON that does not parse
        raise ConfigError(f"bad synthetic manifest: {exc}") from None
    return list(zip(ids, assets))

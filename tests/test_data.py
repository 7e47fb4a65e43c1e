"""Data layer: CSV parsing, synthetic generation, splits."""

import csv
import datetime as dt
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtscore.cli import csv_text
from gtscore.data import (
    CSV_HEADER,
    MAX_DAYS,
    PriceSeries,
    SplitSpec,
    SyntheticAsset,
    SyntheticSpec,
    add_years,
    generate_synthetic_series,
    load_synthetic_manifest,
    make_chrono_split,
    make_walkforward_splits,
    ohlcv_rows,
    parse_ohlcv_csv,
)
from gtscore.errors import ConfigError, DataError

from conftest import make_series


CSV_OK = """date,open,high,low,close,volume
2020-01-02,10,11,9,10.5,100
2020-01-03,10.5,12,10,11,200
2020-01-06,11,11.5,10.5,11.2,150
"""


def test_parse_basic():
    s = parse_ohlcv_csv(CSV_OK, "A")
    assert len(s) == 3
    assert s.asset_id == "A"
    assert s.start_date == dt.date(2020, 1, 2)
    assert s.dates.dtype == np.dtype("datetime64[D]")
    assert s.closes.tolist() == [10.5, 11.0, 11.2]
    assert s.opens[1] == 10.5


def test_parse_header_case_insensitive():
    upper = CSV_OK.replace("date,open,high,low,close,volume",
                           "Date,Open,High,Low,Close,Volume")
    assert parse_ohlcv_csv(upper, "A") == parse_ohlcv_csv(CSV_OK, "A")


def test_parse_bad_header():
    with pytest.raises(DataError, match="^A: line 1: bad header "):
        parse_ohlcv_csv("date,open,close\n", "A")


def test_parse_bad_row_reports_line():
    bad = CSV_OK + "2020-01-07,11,xx,10,10.8,100\n"
    with pytest.raises(DataError, match="^A: line 5: non-numeric field"):
        parse_ohlcv_csv(bad, "A")


def test_parse_bad_date():
    bad = CSV_OK + "not-a-date,11,12,10,10.8,100\n"
    with pytest.raises(DataError, match="^A: line 5: bad date 'not-a-date'"):
        parse_ohlcv_csv(bad, "A")


# --- per-row oracle for the column parser -----------------------------------


def parse_error(asset_id, line_no, message):
    return DataError(f"{asset_id}: line {line_no}: {message}")


def oracle_row(asset_id, line_no, row):
    if len(row) != 6:
        raise parse_error(asset_id, line_no,
                          f"expected 6 fields, got {len(row)}")
    try:
        d = dt.date.fromisoformat(row[0].strip())
    except ValueError:
        raise parse_error(asset_id, line_no,
                          f"bad date {row[0]!r}") from None
    try:
        return d, [float(x) for x in row[1:]]
    except ValueError:
        raise parse_error(asset_id, line_no,
                          f"non-numeric field in {row!r}") from None


def oracle_parse(text, asset_id):
    """Row-at-a-time parse: each record becomes a (date, values) pair. A
    record's line is the last line it spans, as `csv` counts them."""
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, row) for row in reader]
    if not rows:
        raise parse_error(asset_id, 1, "empty document")
    header = [h.strip().lower() for h in rows[0][1]]
    if header != CSV_HEADER:
        raise parse_error(asset_id, 1,
                          f"bad header {rows[0][1]!r}, want {CSV_HEADER}")
    parsed = [oracle_row(asset_id, line, row)
              for line, row in rows[1:] if row]
    dates = np.array([d for d, _ in parsed], dtype="datetime64[D]")
    values = np.array([v for _, v in parsed], dtype=float).reshape(-1, 5)
    order = np.argsort(dates, kind="stable")
    return PriceSeries(asset_id, dates[order], *values[order].T)


def outcome(parse, text):
    """A parsed series, or the message of its error, which names the line
    of a parse error."""
    try:
        return parse(text, "A")
    except DataError as exc:
        return str(exc)


BAD_DATES = ["2020-02-30", "not-a-date", "", "2020/01/02", "02-01-2020"]
BAD_NUMBERS = ["x", "", "1.2.3", "--1", "1e"]


@st.composite
def csv_documents(draw):
    """OHLCV documents with unsorted dates, some of them corrupted: short or
    long rows, bad dates, non-numeric fields and blank lines."""
    n = draw(st.integers(0, 10))
    faults = (["short", "long", "date", "number", "blank"]
              if draw(st.booleans()) else [])
    days = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n,
                         unique=draw(st.booleans())))
    lines = [draw(st.sampled_from([",".join(CSV_HEADER),
                                   "Date, Open,HIGH,low,close,volume"]))]
    for day in days:
        low, a, b, high = sorted(draw(st.lists(
            st.floats(1.0, 100.0), min_size=4, max_size=4)))
        row = [(dt.date(2020, 1, 1) + dt.timedelta(day)).isoformat(),
               repr(a), repr(high), repr(low), repr(b),
               str(draw(st.integers(0, 10**6)))]
        if draw(st.booleans()):
            row[0] = " " + row[0]
        fault = draw(st.sampled_from(faults + [None] * 10))
        if fault == "short":
            row = row[:draw(st.integers(1, 5))]
        elif fault == "long":
            row.append("1")
        elif fault == "date":
            row[0] = draw(st.sampled_from(BAD_DATES))
        elif fault == "number":
            row[draw(st.integers(1, 5))] = draw(st.sampled_from(BAD_NUMBERS))
        elif fault == "blank":
            lines.append("")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=csv_documents())
# rows out of date order
@example(text="\n".join(CSV_OK.splitlines()[i] for i in (0, 3, 1, 2)) + "\n")
def test_parse_matches_row_oracle(text):
    got, want = outcome(parse_ohlcv_csv, text), outcome(oracle_parse, text)
    assert got == want
    if isinstance(got, PriceSeries):
        assert all(getattr(got, k).dtype == getattr(want, k).dtype
                   for k in ("dates", "opens", "volumes"))


def test_parse_reports_first_bad_record():
    # the column pass meets the bad date before the bad number; the error
    # still names the earlier record, whichever fault comes first
    lines = CSV_OK.splitlines()
    bad_number = "2020-01-07,11,xx,10,10.8,100"
    bad_date = "2020-13-01,11,12,10,10.8,100"
    for first, second in [(bad_number, bad_date), (bad_date, bad_number),
                          ("2020-01-07,11", bad_date)]:
        text = "\n".join(lines[:2] + [first] + lines[2:] + [second]) + "\n"
        got = outcome(parse_ohlcv_csv, text)
        assert got == outcome(oracle_parse, text)
        assert got.startswith("A: line 3: ")
    for text in ["", "date,open,high,low,close,volume\n",
                 "date,open,high,low,close,volume\n\n\n"]:
        assert outcome(parse_ohlcv_csv, text) == outcome(oracle_parse, text)
    # a quoted field spanning two lines: the bad record is named by the
    # line it is on, not by its count of records
    text = (lines[0] + "\n" + lines[1].rsplit(",", 1)[0] + ',"5\n"\n'
            + lines[2] + "\n" + bad_number + "\n")
    got = outcome(parse_ohlcv_csv, text)
    assert got == outcome(oracle_parse, text)
    assert got.startswith("A: line 5: non-numeric field")


def test_parse_peak_memory():
    # One fixture asset, 3,130 bars. The reader's buffer holds the text
    # at 4 bytes a character; beyond it, the one-pass parse peaks at about
    # 2.6 times the six columns' bytes (the two arrays and their sorted
    # copies). The earlier parse, which held every record as a list of
    # strings before a column pass, peaked at about 10.7 times.
    asset_id, spec = load_synthetic_manifest(
        (Path(__file__).parent / "fixtures" / "study_assets.json")
        .read_text())[0]
    text = csv_text(CSV_HEADER, ohlcv_rows(
        generate_synthetic_series(spec, asset_id)))
    tracemalloc.start()
    try:
        series = parse_ohlcv_csv(text, asset_id)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == 3130
    assert peak <= 4 * len(text) + 4 * 6 * 8 * len(series)


def test_validation_rejects_bad_ohlc():
    for row in ["2020-01-07,11,10,10.5,10.8,100",  # high < open
                "2020-01-07,11,inf,10,10.8,100",  # non-finite values
                "2020-01-07,11,12,10,10.8,nan",
                "2020-01-07,11,12,10,10.8,inf"]:
        with pytest.raises(DataError, match="^A: 2020-01-07: (OHLC|non-f)"):
            parse_ohlcv_csv(CSV_OK + row + "\n", "A")


def test_validation_rejects_nonpositive_price():
    bad = CSV_OK + "2020-01-07,0,12,0,10.8,100\n"
    with pytest.raises(DataError, match="2020-01-07: non-positive price"):
        parse_ohlcv_csv(bad, "A")


def test_validation_rejects_duplicate_date():
    bad = CSV_OK + "2020-01-06,11,12,10,10.8,100\n"
    with pytest.raises(DataError,
                       match="2020-01-06: duplicate or out-of-order date"):
        parse_ohlcv_csv(bad, "A")


def test_validation_rejects_the_calendars_last_day():
    # a last bar on 9999-12-31 leaves no day for the span's exclusive end
    last = "9999-12-30,11,12,10,10.8,100\n"
    series = parse_ohlcv_csv(CSV_OK + last, "A")
    assert series.span_end == dt.date.max
    with pytest.raises(DataError, match="^A: 9999-12-31: date on or after "
                                        "9999-12-31 "):
        parse_ohlcv_csv(CSV_OK + last + last.replace("-30", "-31"), "A")


def test_csv_round_trip():
    spec = SyntheticSpec(50, 100.0, ((50, 0.001, 0.02),), seed=7)
    s = generate_synthetic_series(spec, "RT")
    assert parse_ohlcv_csv(csv_text(CSV_HEADER, ohlcv_rows(s)), "RT") == s


def test_series_needs_two_bars():
    with pytest.raises(DataError, match="^X: need at least 2 bars, got 1"):
        PriceSeries("X", [dt.date(2020, 1, 1)], [1], [1], [1], [1], [0])
    with pytest.raises(ConfigError, match="^X: columns differ in length"):
        PriceSeries("X", [dt.date(2020, 1, 1), dt.date(2020, 1, 2)],
                    [1, 1], [1, 1], [1, 1], [1, 1], [0])


def test_slice_half_open():
    s = make_series([10, 11, 12, 13, 14])
    sub = s.slice(dt.date(2020, 1, 2), dt.date(2020, 1, 4))
    assert sub.dates.tolist() == [dt.date(2020, 1, 2), dt.date(2020, 1, 3)]
    # a window is a read-only view of the parent's columns
    assert np.shares_memory(sub.closes, s.closes)
    assert not sub.closes.flags.writeable
    with pytest.raises(DataError, match="holds 1 bars, need >= 2"):
        s.slice(dt.date(2020, 1, 4), dt.date(2020, 1, 5))


# --- synthetic generator ---------------------------------------------------


def test_synthetic_zero_vol_closed_form():
    # With vol 0 the walk is deterministic: close[t] = p0 * exp(drift * t).
    spec = SyntheticSpec(40, 50.0, ((20, 0.002, 0.0), (20, -0.001, 0.0)),
                         seed=3)
    s = generate_synthetic_series(spec)
    drift = [0.002] * 20 + [-0.001] * 20
    expected = 50.0
    for t in range(40):
        if t > 0:
            expected *= math.exp(drift[t])
        assert s.closes[t] == pytest.approx(expected, abs=1e-12)
        # zero vol also pins high and low to the open/close envelope
        assert s.highs[t] == max(s.opens[t], s.closes[t])
        assert s.lows[t] >= min(s.opens[t], s.closes[t]) * (1 - 1e-12)


def test_synthetic_deterministic_per_seed():
    spec = SyntheticSpec(100, 100.0, ((100, 0.0, 0.02),), seed=11)
    a = generate_synthetic_series(spec)
    b = generate_synthetic_series(spec)
    assert a == b
    c = generate_synthetic_series(
        SyntheticSpec(100, 100.0, ((100, 0.0, 0.02),), seed=12))
    assert not np.array_equal(a.closes, c.closes)


def test_synthetic_bar_shape():
    spec = SyntheticSpec(300, 100.0, ((300, 0.0005, 0.03),), seed=5)
    s = generate_synthetic_series(spec)
    assert len(s) == 300
    assert all(d.weekday() < 5 for d in s.dates.tolist())
    # next open equals previous close (no overnight gap model)
    assert np.array_equal(s.opens[1:], s.closes[:-1])
    assert np.all(s.highs >= np.maximum(s.opens, s.closes))
    assert np.all(s.lows <= np.minimum(s.opens, s.closes))
    assert np.all(s.lows > 0)


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError, match="^initial_price: must be > 0"):
        SyntheticSpec(10, -1.0, ((10, 0.0, 0.01),), seed=1)
    # lengths that do not sum to n_days, a negative length summing to it,
    # a negative vol, and a non-finite drift or vol
    for regimes in [((5, 0.0, 0.01),), ((-5, 0.5, 0.0), (15, -0.5, 0.0)),
                    ((10, 0.0, -0.01),), ((10, 0.0, math.nan),),
                    ((10, 0.0, math.inf),), ((10, math.nan, 0.01),),
                    ((10, -math.inf, 0.01),)]:
        with pytest.raises(ConfigError, match="^regimes: need lengths >= 0 "
                                              "that sum to n_days, finite"):
            SyntheticSpec(10, 100.0, regimes, seed=1)
    # every bar must fall before 9999-12-31: 22 weekdays from 9999-12-01
    # end on 9999-12-30, 23 would end on 9999-12-31
    SyntheticSpec(22, 1.0, ((22, 0.0, 0.0),), 1, dt.date(9999, 12, 1))
    with pytest.raises(ConfigError, match="^start_date: its n_days weekdays "
                                          "must end before 9999-12-31"):
        SyntheticSpec(23, 1.0, ((23, 0.0, 0.0),), 1, dt.date(9999, 12, 1))


def test_manifest_round_trip():
    doc = {"assets": [{
        "asset_id": "M1", "n_days": 30, "initial_price": 10.0,
        "regimes": [[30, 0.001, 0.02]], "seed": 9,
        "start_date": "2015-06-01"}]}
    loaded = load_synthetic_manifest(json.dumps(doc))
    assert loaded == [("M1", SyntheticAsset(
        30, 10.0, ((30, 0.001, 0.02),), 9, dt.date(2015, 6, 1),
        asset_id="M1"))]


# --- splits ----------------------------------------------------------------


def test_add_years_leap_day():
    assert add_years(dt.date(2020, 2, 29), 1) == dt.date(2021, 2, 28)
    assert add_years(dt.date(2020, 2, 29), 4) == dt.date(2024, 2, 29)


def fifteen_year_series():
    # ~15 calendar years of weekdays
    n = 15 * 261
    spec = SyntheticSpec(n, 100.0, ((n, 0.0002, 0.015),), seed=1,
                         start_date=dt.date(2010, 1, 1))
    return generate_synthetic_series(spec, "LONG")


def test_walkforward_default_split_count():
    splits = make_walkforward_splits(fifteen_year_series())
    assert len(splits) == 9


def test_walkforward_split_geometry():
    s = fifteen_year_series()
    splits = make_walkforward_splits(s, embargo_days=30)
    for i, sp in enumerate(splits):
        assert sp.train_start == add_years(s.start_date, i)
        assert sp.train_end == add_years(sp.train_start, 4)
        assert (sp.val_start - sp.train_end).days == 30
        assert sp.val_end == add_years(sp.val_start, 2)
        assert sp.val_end <= s.span_end


def test_walkforward_too_short():
    short = make_series(range(10, 110))
    with pytest.raises(DataError, match="needs to reach") as exc:
        make_walkforward_splits(short)
    assert "needs to reach" in str(exc.value)


def test_chrono_split_fraction():
    s = fifteen_year_series()
    sp = make_chrono_split(s, 0.7, embargo_days=30)
    total = (s.span_end - s.start_date).days
    assert sp.train_start == s.start_date
    assert (sp.train_end - s.start_date).days == int(total * 0.7)
    assert (sp.val_start - sp.train_end).days == 30
    assert sp.val_end == s.span_end


def test_chrono_split_too_short():
    with pytest.raises(DataError, match="^T: chrono split leaves "):
        make_chrono_split(make_series(range(10, 110)))


def test_chrono_split_embargo_reaching_span_end():
    # 100 days split at 0.7: the 30-day embargo ends on the span's end
    # (val_start == span_end) or past it, so the validation side holds no
    # bar and the bar count rejects the split
    s = make_series(range(10, 110))
    for embargo_days in (30, 31):
        with pytest.raises(DataError) as exc:
            make_chrono_split(s, 0.7, embargo_days=embargo_days)
        assert str(exc.value) == (
            "T: chrono split leaves 70 train / 0 test bars, need >= 60 each")


def test_split_settings_rejected():
    # the split maker refuses a step of 0, which would loop forever; the
    # config's own split settings are refused by their field bounds
    with pytest.raises(ConfigError) as exc:
        make_walkforward_splits(fifteen_year_series(), step_years=0)
    assert str(exc.value) == "step_years: must be >= 1, got 0"


def test_splits_stop_at_the_calendars_end():
    # a split with a date past 9999-12-31 does not fit: walk-forward stops
    # before it, and a chrono split's validation side gets no bar
    n = 1300  # weekdays from 9995-01-02 to 9999-12-24
    s = generate_synthetic_series(SyntheticSpec(
        n, 100.0, ((n, 0.0, 0.01),), 1, dt.date(9995, 1, 1)), "END")
    splits = make_walkforward_splits(s, train_years=2, val_years=1)
    assert [sp.val_end.year for sp in splits] == [9998, 9999]
    for kwargs in ({"train_years": 9998}, {"embargo_days": MAX_DAYS}):
        with pytest.raises(DataError) as exc:
            make_walkforward_splits(s, **kwargs)
        assert "needs to reach past 9999-12-31" in str(exc.value)
    with pytest.raises(DataError, match="leaves 910 train / 0 test bars"):
        make_chrono_split(s, embargo_days=MAX_DAYS)


def test_split_spec_ordering():
    d = dt.date
    with pytest.raises(ConfigError, match="split intervals out of order"):
        SplitSpec(d(2020, 1, 1), d(2019, 1, 1), d(2021, 1, 1), d(2022, 1, 1))
    with pytest.raises(ConfigError, match="split intervals out of order"):
        SplitSpec(d(2020, 1, 1), d(2021, 1, 1), d(2020, 6, 1), d(2022, 1, 1))


def weekdays_from(start, n):
    """Oracle: n consecutive weekdays starting at the first weekday >= start."""
    dates = []
    d = start
    while len(dates) < n:
        if d.weekday() < 5:
            dates.append(d)
        d += dt.timedelta(days=1)
    return dates


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 120),
       start=st.dates(dt.date(1990, 1, 1), dt.date(2030, 12, 31)))
def test_synthetic_series_valid_property(seed, n, start):
    # Every generated series passes full bar validation on reconstruction.
    spec = SyntheticSpec(n, 100.0, ((n, 0.0, 0.05),), seed=seed,
                         start_date=start)
    s = generate_synthetic_series(spec)
    PriceSeries(s.asset_id, s.dates, s.opens, s.highs, s.lows, s.closes,
                s.volumes)  # re-validates every bar
    assert s.dates.tolist() == weekdays_from(start, n)

"""Shared builders for the test suite."""

import datetime as dt

import numpy as np

from gtscore.data import PriceSeries


def make_series(closes, asset_id="T", start=dt.date(2020, 1, 1),
                opens=None, spread=0.0):
    """PriceSeries on consecutive calendar days from a close list; opens
    default to the prior close.

    `spread` widens high/low around open/close by a fraction.
    """
    closes = np.asarray(closes, dtype=float)
    if opens is None:
        opens = np.concatenate([closes[:1], closes[:-1]])
    opens = np.asarray(opens, dtype=float)
    dates = np.datetime64(start, "D") + np.arange(len(closes))
    return PriceSeries(asset_id, dates, opens,
                       np.maximum(opens, closes) * (1.0 + spread),
                       np.minimum(opens, closes) * (1.0 - spread),
                       closes, np.full(len(closes), 1000.0))


def random_closes(rng, n, start=100.0, vol=0.02):
    """Positive random-walk closes."""
    steps = np.exp(vol * rng.standard_normal(n - 1))
    return np.concatenate([[start], start * np.cumprod(steps)])

"""Implied discount factors and interest rates from option chains.

Put-call parity gives the discount factor directly from quotes on the same
underlying: B = (S - C + P) / K, and the annualized continuous rate is
r = -ln(B) / (T - t) with tenors on the 365-day convention. Points are
computed strike by strike and expiry by expiry, averaged per day with equal
weights (option liquidity is too patchy to weight meaningfully), then
smoothed with trailing windows.

Quotes violating B > 0 (stale or arbitrage-crossed) are excluded and
counted, never clamped.

A chain is a `core.Columns` table, as `load_chain_csv` reads it, and every
step works on whole columns: each closed form is written once, as numpy
arithmetic that rounds every element as the same Python float expression
would, so a one-quote table gives the bits of the scalar formula. The
logarithm is `math.log` applied element by element, because numpy's log
ufunc rounds differently on different CPUs. A point's day is the UTC date
of its quote time, taken once per distinct time.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone
from itertools import islice

import numpy as np

from . import core
from .errors import DomainError, EmptyDayError


def implied_discount_factor(quotes):
    """B = (S - C + P) / K per quote; non-positive values mark an unusable quote.

    `quotes` is a chain table, or any mapping of the quote fields to floats.
    """
    return (quotes["underlying"] - quotes["call"] + quotes["put"]) / quotes["strike"]


def implied_rate(
    discount_factor,
    quote_time,
    expiry,
    convention: core.RateConvention = core.RateConvention(),
):
    """r = -ln(B) / (T - t), annualized, of floats or per element; B > 1 gives a negative rate."""
    core.refuse_first(
        (discount_factor, discount_factor <= 0, "discount factor must be > 0, got {}"),
        (expiry, expiry <= quote_time, "expiry must be after the quote time"),
    )
    tenor = convention.year_fraction(expiry - quote_time)
    return -core.each(math.log, discount_factor) / tenor


def chain_points(chain, convention: core.RateConvention = core.RateConvention()):
    """Rate points of a chain table; returns (points, excluded_count).

    `points` is a table of the quotes with B > 0: quote_time, expiry,
    strike, discount_factor and rate.
    """
    b = implied_discount_factor(chain)
    kept = ~(b <= 0)
    points = core.Columns({name: chain[name][kept] for name in ("quote_time", "expiry", "strike")})
    points.columns["discount_factor"] = b[kept]
    points.columns["rate"] = implied_rate(b[kept], points["quote_time"], points["expiry"], convention)
    return points, len(b) - len(points)


def daily_series(points):
    """Mean rate and point count per day over all days present, as a table sorted by day.

    Its columns are day (`datetime.date`), mean_rate and points.
    """
    times, which = np.unique(points["quote_time"], return_inverse=True)
    dates = [datetime.fromtimestamp(t, tz=timezone.utc).date() for t in times.tolist()]
    # Distinct times sort, so their dates run in order: a day starts wherever the date changes.
    new_day = np.array([a != b for a, b in zip([None, *dates], dates)], dtype=bool)
    day = (np.cumsum(new_day) - 1)[which]
    order = np.argsort(day, kind="stable")
    bounds = np.append(np.flatnonzero(np.diff(day[order], prepend=-1)), len(day)).tolist()
    rates = points["rate"][order].tolist()
    # fsum rounds exactly once, so a day's mean does not depend on point order.
    means = [math.fsum(rates[a:b]) / (b - a) for a, b in zip(bounds, bounds[1:])]
    return core.Columns({
        "day": [d for d, new in zip(dates, new_day.tolist()) if new],
        "mean_rate": np.array(means, dtype=float),
        "points": np.diff(bounds).astype(np.int64),
    })


def aggregate_daily(points, day) -> float:
    """Unweighted mean rate over all valid (expiry, strike) points of a day."""
    daily = daily_series(points)
    for d, mean in zip(daily["day"], daily["mean_rate"].tolist()):
        if d == day:
            return mean
    raise EmptyDayError(f"no valid implied-rate points on {day}")


def rolling_average(values, window: int):
    """Trailing mean over the last `window` entries; partial at the start. A float array."""
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window}")
    values = np.asarray(values, dtype=float).tolist()
    ends = range(1, len(values) + 1)
    # Entry i sums values[max(0, i - window + 1) : i + 1], exactly rounded once by fsum: the
    # first window - 1 entries from a head slice, then each full window as one tuple of a zip
    # over `window` staggered iterators, which stops at the shortest (none past the series).
    heads = [math.fsum(values[:b]) for b in ends[: window - 1]]
    windows = zip(*(islice(values, i, None) for i in range(window))) if window <= len(values) else ()
    return np.array([*heads, *map(math.fsum, windows)], dtype=float) / np.minimum(ends, window)


CHAIN_CSV = {
    "quote_time": core.TIMESTAMP,
    "expiry": core.TIMESTAMP,
    "strike": core.NUMBER,
    "call": core.NUMBER,
    "put": core.NUMBER,
    "underlying": core.NUMBER,
}


def _quote_rules(c):
    """A quote's rules, in order, over whole columns."""
    return core.first_broken([
        ((c["strike"] <= 0) | (c["underlying"] <= 0), "strike and underlying must be > 0"),
        ((c["call"] < 0) | (c["put"] < 0), "option prices must be >= 0"),
        (c["expiry"] <= c["quote_time"], "expiry must be after the quote time"),
    ])


def load_chain_csv(path):
    """Read `quote_time,expiry,strike,call,put,underlying` option-chain CSV as a table of those columns.

    The first row that breaks a quote rule is named by its line.
    """
    return core.read_csv_rows(path, CHAIN_CSV, _quote_rules)

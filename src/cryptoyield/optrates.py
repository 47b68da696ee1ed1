"""Implied discount factors and interest rates from option chains.

Put-call parity gives the discount factor directly from quotes on the same
underlying: B = (S - C + P) / K, and the annualized continuous rate is
r = -ln(B) / (T - t) with tenors on the 365-day convention. Points are
computed strike by strike and expiry by expiry, averaged per day with equal
weights (option liquidity is too patchy to weight meaningfully), then
smoothed with trailing windows.

Quotes violating B > 0 (stale or arbitrage-crossed) are excluded and
counted, never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone

from . import core
from .errors import DomainError, EmptyDayError


@dataclass(frozen=True)
class OptionQuote:
    """One (call, put) pair: strike, expiry and the underlying perpetual price."""

    quote_time: float
    expiry: float
    strike: float
    call: float
    put: float
    underlying: float

    def __post_init__(self):
        if self.strike <= 0 or self.underlying <= 0:
            raise DomainError("strike and underlying must be > 0")
        if self.call < 0 or self.put < 0:
            raise DomainError("option prices must be >= 0")
        if self.expiry <= self.quote_time:
            raise DomainError("expiry must be after the quote time")

    @property
    def day(self):
        return datetime.fromtimestamp(self.quote_time, tz=timezone.utc).date()


@dataclass(frozen=True)
class ImpliedRatePoint:
    quote_time: float
    expiry: float
    strike: float
    discount_factor: float
    rate: float

    @property
    def day(self):
        return datetime.fromtimestamp(self.quote_time, tz=timezone.utc).date()


def implied_discount_factor(quote: OptionQuote) -> float:
    """B = (S - C + P) / K; non-positive values mark an unusable quote."""
    return (quote.underlying - quote.call + quote.put) / quote.strike


def implied_rate(
    discount_factor: float,
    quote_time: float,
    expiry: float,
    convention: core.RateConvention = core.RateConvention(),
) -> float:
    """r = -ln(B) / (T - t), annualized; B > 1 gives a negative rate."""
    if discount_factor <= 0:
        raise DomainError(f"discount factor must be > 0, got {discount_factor}")
    if expiry <= quote_time:
        raise DomainError("expiry must be after the quote time")
    tenor = convention.year_fraction(expiry - quote_time)
    return -math.log(discount_factor) / tenor


def point_from_quote(
    quote: OptionQuote, convention: core.RateConvention = core.RateConvention()
):
    """Implied-rate point for one quote, or None when parity is violated."""
    b = implied_discount_factor(quote)
    if b <= 0:
        return None
    return ImpliedRatePoint(
        quote_time=quote.quote_time,
        expiry=quote.expiry,
        strike=quote.strike,
        discount_factor=b,
        rate=implied_rate(b, quote.quote_time, quote.expiry, convention),
    )


def chain_points(quotes, convention: core.RateConvention = core.RateConvention()):
    """Convert a chain to rate points; returns (points, excluded_count)."""
    points, excluded = [], 0
    for quote in quotes:
        point = point_from_quote(quote, convention)
        if point is None:
            excluded += 1
        else:
            points.append(point)
    return points, excluded


def aggregate_daily(points, day) -> float:
    """Unweighted mean rate over all valid (expiry, strike) points of a day."""
    rates = [p.rate for p in points if p.day == day]
    if not rates:
        raise EmptyDayError(f"no valid implied-rate points on {day}")
    return math.fsum(rates) / len(rates)


def daily_series(points):
    """Sorted (day, mean_rate, point_count) rows over all days present."""
    by_day = {}
    for p in points:
        by_day.setdefault(p.day, []).append(p.rate)
    # fsum rounds exactly once, so a day's mean does not depend on point order.
    return [(d, math.fsum(rates) / len(rates), len(rates)) for d, rates in sorted(by_day.items())]


def rolling_average(values, window: int):
    """Trailing mean over the last `window` entries; partial at the start."""
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window}")
    out = []
    for i in range(len(values)):
        chunk = values[max(0, i - window + 1) : i + 1]
        out.append(math.fsum(chunk) / len(chunk))
    return out


CHAIN_CSV = {
    "quote_time": core.TIMESTAMP,
    "expiry": core.TIMESTAMP,
    "strike": core.NUMBER,
    "call": core.NUMBER,
    "put": core.NUMBER,
    "underlying": core.NUMBER,
}


def _quote_rules(c):
    """OptionQuote's own checks, in its order, over whole columns."""
    return core.first_broken([
        ((c["strike"] <= 0) | (c["underlying"] <= 0), "strike and underlying must be > 0"),
        ((c["call"] < 0) | (c["put"] < 0), "option prices must be >= 0"),
        (c["expiry"] <= c["quote_time"], "expiry must be after the quote time"),
    ])


def load_chain_csv(path):
    """Read `quote_time,expiry,strike,call,put,underlying` option-chain CSV.

    The first row that OptionQuote would refuse is named by its line.
    """
    return [OptionQuote(*row) for row in core.read_csv_rows(path, CHAIN_CSV, _quote_rules).rows()]

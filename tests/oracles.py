"""Per-row reference code, kept as test oracles.

`rows` is `core.Columns.rows()` as it stood: each row of a table as a tuple
of its cells' Python values. The rest is the daily commands' per-row code as
it stood before they computed on columns: one `OptionQuote` per chain row,
one point per quote and a dict of days; one `FundingEvent` per settlement;
one dict per basis quote; and one binary search per validator for its
windows, with the scalar closed forms they called. That code wrote the
committed reports, so the columnar code must give the same cells, bit for
bit.
"""

import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from cryptoyield.core import SECONDS_PER_DAY, RateConvention
from cryptoyield.errors import DomainError
from cryptoyield.staking import MIN_VALIDATOR_BALANCE, StateInterval, ValidatorRecord


def rows(table) -> list:
    """Each row of a `core.Columns` table as a tuple of its cells' Python values, in column order."""
    return list(zip(*(cells if isinstance(cells, list) else cells.tolist() for cells in table.columns.values())))


def records_of(cohort) -> dict:
    """A `staking.Cohort` as the {validator id: ValidatorRecord} dict that `load_validators` used to return."""
    snapshots, intervals = cohort.snapshots, cohort.intervals
    states = intervals["state"].tolist()
    return {
        name: ValidatorRecord(
            id=name,
            balances=np.column_stack((snapshots["timestamp"], snapshots["balance"]))[snapshots["validator"] == k],
            state_intervals=[
                StateInterval(start, end, state)
                for v, start, end, state in zip(intervals["validator"].tolist(), intervals["start"].tolist(),
                                                intervals["end"].tolist(), states)
                if v == k
            ],
        )
        for k, name in enumerate(cohort.ids)
    }


# -- optrates -----------------------------------------------------------------


@dataclass(frozen=True)
class OptionQuote:
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


def implied_rate(discount_factor, quote_time, expiry, convention=RateConvention()):
    if discount_factor <= 0:
        raise DomainError(f"discount factor must be > 0, got {discount_factor}")
    if expiry <= quote_time:
        raise DomainError("expiry must be after the quote time")
    tenor = convention.year_fraction(expiry - quote_time)
    return -math.log(discount_factor) / tenor


def point_from_quote(quote, convention=RateConvention()):
    b = (quote.underlying - quote.call + quote.put) / quote.strike
    if b <= 0:
        return None
    return ImpliedRatePoint(
        quote_time=quote.quote_time,
        expiry=quote.expiry,
        strike=quote.strike,
        discount_factor=b,
        rate=implied_rate(b, quote.quote_time, quote.expiry, convention),
    )


def chain_points(quotes, convention=RateConvention()):
    points, excluded = [], 0
    for quote in quotes:
        point = point_from_quote(quote, convention)
        if point is None:
            excluded += 1
        else:
            points.append(point)
    return points, excluded


def daily_series(points):
    by_day = {}
    for p in points:
        by_day.setdefault(p.day, []).append(p.rate)
    return [(d, math.fsum(rates) / len(rates), len(rates)) for d, rates in sorted(by_day.items())]


def rolling_average(values, window):
    out = []
    for i in range(len(values)):
        chunk = values[max(0, i - window + 1) : i + 1]
        out.append(math.fsum(chunk) / len(chunk))
    return out


# -- perps --------------------------------------------------------------------


@dataclass(frozen=True)
class MarkIndexPair:
    mark_price: float
    index_price: float

    def __post_init__(self):
        if self.mark_price <= 0 or self.index_price <= 0:
            raise DomainError("mark and index prices must be > 0")


@dataclass(frozen=True)
class FundingEvent:
    time: float
    funding_rate: float
    time_fraction: float = 1.0

    @property
    def payer(self):
        if self.funding_rate > 0:
            return "long"
        if self.funding_rate < 0:
            return "short"
        return None

    @property
    def cash_flow_per_notional(self):
        return self.funding_rate * self.time_fraction


def premium_rate(pair):
    return (pair.mark_price - pair.index_price) / pair.index_price


def deribit_funding(premium, band):
    return max(band, premium) + min(-band, premium)


def bitmex_funding(premium_index, interest_rate, band):
    if band < 0:
        raise DomainError(f"band must be >= 0, got {band}")
    if abs(interest_rate - premium_index) <= band:
        return interest_rate
    return premium_index + (band if interest_rate > premium_index else -band)


def funding_rate(spec, premium):
    if spec.variant == "deribit_deadband":
        return deribit_funding(premium, spec.band)
    return bitmex_funding(premium, spec.interest_rate, spec.band)


def events_from_quotes(quotes, spec):
    interval_seconds = spec.interval_hours * 3600.0
    events = []
    prev_time = None
    for t, mark, index in quotes:
        p = premium_rate(MarkIndexPair(mark, index))
        fraction = 1.0 if prev_time is None else (t - prev_time) / interval_seconds
        if fraction <= 0:
            raise DomainError(f"quotes out of order at t={t}")
        events.append(FundingEvent(time=t, funding_rate=funding_rate(spec, p), time_fraction=fraction))
        prev_time = t
    return events


def futures_basis(future_price, perp_price):
    if perp_price <= 0:
        raise DomainError(f"perpetual price must be > 0, got {perp_price}")
    return (future_price - perp_price) / perp_price


def rate_from_simple_return(net_return, tenor_years):
    """RateConvention().rate_from_simple_return: continuous compounding."""
    if tenor_years <= 0:
        raise DomainError(f"tenor must be > 0, got {tenor_years}")
    if net_return <= -1.0:
        raise DomainError(f"net return must exceed -1, got {net_return}")
    return math.log1p(net_return) / tenor_years


def basis_rows(quotes, convention=RateConvention()):
    out = []
    for t, perp, future, expiry in quotes:
        b = futures_basis(future, perp)
        tenor = convention.year_fraction(expiry - t)
        out.append({"time": t, "basis": b, "tenor_years": tenor, "implied_rate": rate_from_simple_return(b, tenor)})
    return out


# -- staking ------------------------------------------------------------------


ELIGIBLE, NOT_ACTIVE, BELOW_MINIMUM, MISSING_SNAPSHOT = range(4)


def window_returns(validator, t1s):
    """One validator's (reasons, rates) for the 24h windows ending at each of `t1s`."""
    t1 = np.asarray(t1s, dtype=float)
    t0 = t1 - SECONDS_PER_DAY
    active = np.zeros(t1.shape, dtype=bool)
    for iv in validator.state_intervals:
        if iv.state == "Active":
            active |= (iv.start <= t0) & (t1 <= iv.end)
    times, balances = np.vstack((validator.balances, (np.nan, np.nan))).T
    first = np.searchsorted(times[:-1], t0, "left")
    last = np.searchsorted(times[:-1], t1, "right") - 1
    below = np.concatenate(([0], np.cumsum(balances[:-1] < MIN_VALIDATOR_BALANCE)))
    reasons = np.select(
        [~active, below[last + 1] > below[first], (times[first] != t0) | (times[last] != t1)],
        [NOT_ACTIVE, BELOW_MINIMUM, MISSING_SNAPSHOT],
        ELIGIBLE,
    )
    rates = np.full(t1.shape, np.nan)
    ok = reasons == ELIGIBLE
    rates[ok] = RateConvention().days_per_year * (balances[last[ok]] / balances[first[ok]] - 1.0)
    return reasons, rates

"""Perpetual futures funding engines and finite-futures basis.

Perpetuals stay tethered to spot through periodic funding transfers between
longs and shorts (8h intervals are the market norm). Three anchor rules are
implemented; the last two are `FundingSpec` variants that turn premia into
funding rates:

  shiller          extra settlement term d_t - r_t * F_{t-1}, balancing the
                   index payout against the funding cost of holding it;
  bitmex_clamp     F = P + clamp(I - P, -band, +band), so F = I while the
                   premium hugs the interest rate and F ~ P when they diverge;
  deribit_deadband F = max(band, P) + min(-band, P): zero inside the +-0.05%
                   deadband, premium shaved by the band outside it.

Sign convention: positive funding means longs pay shorts (prevailing venue
practice). Funding accrues as rate * (elapsed time / interval).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import DomainError

DEFAULT_BAND = 0.0005
DEFAULT_INTERVAL_HOURS = 8.0

VARIANTS = ("bitmex_clamp", "deribit_deadband")


@dataclass(frozen=True)
class FundingSpec:
    """Venue funding rule: variant, settlement interval and band parameters."""

    variant: str
    interval_hours: float = DEFAULT_INTERVAL_HOURS
    band: float = DEFAULT_BAND
    interest_rate: float = 0.0  # per-interval I, used by the bitmex variant

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown funding variant {self.variant!r}; pick from {VARIANTS}")
        if self.interval_hours <= 0:
            raise DomainError(f"interval must be > 0 hours, got {self.interval_hours}")
        if self.band < 0:
            raise DomainError(f"band must be >= 0, got {self.band}")


@dataclass(frozen=True)
class MarkIndexPair:
    mark_price: float
    index_price: float

    def __post_init__(self):
        if self.mark_price <= 0 or self.index_price <= 0:
            raise DomainError("mark and index prices must be > 0")


@dataclass(frozen=True)
class FundingEvent:
    """One settlement: per-interval rate and the time fraction it covers."""

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
    def cash_flow_per_notional(self) -> float:
        """Amount paid by longs per unit notional (negative: shorts pay)."""
        return self.funding_rate * self.time_fraction


def shiller_anchor(dividend: float, riskless_rate: float, prev_settlement: float) -> float:
    """Extra settlement term d_t - r_t * F_{t-1} anchoring a perpetual to its index."""
    if prev_settlement <= 0:
        raise DomainError(f"prior settlement price must be > 0, got {prev_settlement}")
    return dividend - riskless_rate * prev_settlement


def premium_rate(pair: MarkIndexPair) -> float:
    """(mark - index) / index as a fraction."""
    return (pair.mark_price - pair.index_price) / pair.index_price


def deribit_funding(premium: float, band: float = DEFAULT_BAND) -> float:
    """max(band, p) + min(-band, p); exactly zero inside the deadband."""
    return max(band, premium) + min(-band, premium)


def bitmex_funding(premium_index: float, interest_rate: float, band: float = DEFAULT_BAND) -> float:
    """P + clamp(I - P, -band, +band).

    When the clamp is not binding the sum telescopes to I; that branch is
    returned directly so F = I holds exactly, not just to rounding.
    """
    if band < 0:
        raise DomainError(f"band must be >= 0, got {band}")
    if abs(interest_rate - premium_index) <= band:
        return interest_rate
    return premium_index + (band if interest_rate > premium_index else -band)


def funding_rate(spec: FundingSpec, premium: float) -> float:
    """Per-interval funding rate for a premium observation under the spec."""
    if spec.variant == "deribit_deadband":
        return deribit_funding(premium, spec.band)
    return bitmex_funding(premium, spec.interest_rate, spec.band)


def funding_accrual(position_notional: float, events) -> float:
    """Cumulative amount paid by longs: sum of notional * rate * time fraction.

    Events must be time-ordered; a negative result means shorts paid.
    """
    total = 0.0
    last_time = None
    for event in events:
        if last_time is not None and event.time <= last_time:
            raise DomainError(f"funding events out of order at t={event.time}")
        last_time = event.time
        total += position_notional * event.cash_flow_per_notional
    return total


def events_from_quotes(quotes, spec: FundingSpec):
    """Build funding events from (time, mark, index) settlement observations.

    Each row is one settlement; its time fraction is the elapsed time over
    the interval length (1.0 for the first row).
    """
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


def futures_basis(future_price: float, perp_price: float) -> float:
    """(F - perp) / perp; positive in contango."""
    if perp_price <= 0:
        raise DomainError(f"perpetual price must be > 0, got {perp_price}")
    return (future_price - perp_price) / perp_price


def implied_rate_from_basis(
    basis: float, tenor_years: float, convention: core.RateConvention = core.RateConvention()
) -> float:
    """Annualized rate implied by a basis over a tenor (continuous by default)."""
    return convention.rate_from_simple_return(basis, tenor_years)


# -- CSV ingestion -----------------------------------------------------------


MARK_INDEX_CSV = {"timestamp": core.TIMESTAMP, "mark": core.NUMBER, "index": core.NUMBER}
BASIS_CSV = {"timestamp": core.TIMESTAMP, "perp": core.NUMBER, "future": core.NUMBER, "expiry": core.TIMESTAMP}


def _later_quotes(columns):
    t = columns["timestamp"]
    late = np.flatnonzero(t[1:] <= t[:-1])
    if late.size:
        prev, now = t[late[0] : late[0] + 2].tolist()
        return int(late[0]) + 1, f"quote time {now} is not after the previous quote's {prev}"
    return None


def load_mark_index_csv(path):
    """Read `timestamp,mark,index` rows into (time, mark, index) tuples.

    Each row is one settlement, so timestamps must strictly increase; the
    first row that does not is named by its line.
    """
    return core.read_csv_rows(path, MARK_INDEX_CSV, _later_quotes).rows()


def _expiry_after_quote(columns):
    return core.first_broken([(columns["expiry"] <= columns["timestamp"], "expiry must be after the quote time")])


def load_basis_csv(path):
    """Read `timestamp,perp,future,expiry` rows into tuples with epoch times.

    The first row whose expiry is not after its quote time is named by its line.
    """
    return core.read_csv_rows(path, BASIS_CSV, _expiry_after_quote).rows()


def basis_rows(quotes, convention: core.RateConvention = core.RateConvention()):
    """Per-quote basis and implied annualized rate for (t, perp, future, expiry) rows."""
    out = []
    for t, perp, future, expiry in quotes:
        b = futures_basis(future, perp)
        tenor = convention.year_fraction(expiry - t)
        out.append(
            {
                "time": t,
                "basis": b,
                "tenor_years": tenor,
                "implied_rate": implied_rate_from_basis(b, tenor, convention),
            }
        )
    return out

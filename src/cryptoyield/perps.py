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

Quotes are `core.Columns` tables, as the loaders read them, and funding
events and basis rows are tables too. Each closed form is written once, as
numpy arithmetic that rounds every element as the same Python float
expression would, so it serves a float and a whole column alike; the
clamps pick with `np.where` what Python's `max`, `min` and conditional
pick. The basis rate's log1p is `math.log1p` applied element by element,
because numpy's log ufuncs round differently on different CPUs.
"""

from __future__ import annotations

import math
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


def shiller_anchor(dividend: float, riskless_rate: float, prev_settlement: float) -> float:
    """Extra settlement term d_t - r_t * F_{t-1} anchoring a perpetual to its index."""
    if prev_settlement <= 0:
        raise DomainError(f"prior settlement price must be > 0, got {prev_settlement}")
    return dividend - riskless_rate * prev_settlement


def premium_rate(mark, index):
    """(mark - index) / index as a fraction."""
    return (mark - index) / index


def deribit_funding(premium, band: float = DEFAULT_BAND):
    """max(band, p) + min(-band, p); exactly zero inside the deadband."""
    return (np.where(premium > band, premium, band) + np.where(premium < -band, premium, -band))[()]


def bitmex_funding(premium_index, interest_rate, band: float = DEFAULT_BAND):
    """P + clamp(I - P, -band, +band).

    When the clamp is not binding the sum telescopes to I; that branch is
    returned directly so F = I holds exactly, not just to rounding.
    """
    if band < 0:
        raise DomainError(f"band must be >= 0, got {band}")
    clamped = premium_index + np.where(interest_rate > premium_index, band, -band)
    return np.where(abs(interest_rate - premium_index) <= band, interest_rate, clamped)[()]


def funding_rate(spec: FundingSpec, premium):
    """Per-interval funding rate for premium observations under the spec."""
    if spec.variant == "deribit_deadband":
        return deribit_funding(premium, spec.band)
    return bitmex_funding(premium, spec.interest_rate, spec.band)


def cash_flow_per_notional(events):
    """Amount paid by longs per unit notional for each event (negative: shorts pay)."""
    return events["funding_rate"] * events["time_fraction"]


def payer(funding_rates):
    """Who pays at each rate, as a coded text column: "long" above zero, "short" below, else ""."""
    return core.Coded(["", "long", "short"], (funding_rates > 0) + 2 * (funding_rates < 0))


def funding_accrual(position_notional: float, events) -> float:
    """Cumulative amount paid by longs: the sum of notional * rate * time fraction.

    `events` is a table of time, funding_rate and time_fraction, as
    `events_from_quotes` returns it; times must increase, and a negative
    result means shorts paid.
    """
    t = events["time"]
    late = np.flatnonzero(t[1:] <= t[:-1])
    if late.size:
        raise DomainError(f"funding events out of order at t={t[late[0] + 1].item()}")
    return math.fsum((position_notional * cash_flow_per_notional(events)).tolist())


def events_from_quotes(quotes, spec: FundingSpec):
    """Funding events of a table of settlement observations (timestamp, mark, index).

    Each row is one settlement; its time fraction is the elapsed time over
    the interval length (1.0 for the first row). Returns a table of time,
    premium, funding_rate and time_fraction.
    """
    t = quotes["timestamp"]
    fraction = np.append(1.0, (t[1:] - t[:-1]) / (spec.interval_hours * 3600.0))
    late = np.flatnonzero(fraction <= 0)
    if late.size:
        raise DomainError(f"quotes out of order at t={t[late[0]].item()}")
    premium = premium_rate(quotes["mark"], quotes["index"])
    return core.Columns(
        {"time": t, "premium": premium, "funding_rate": funding_rate(spec, premium), "time_fraction": fraction}
    )


def futures_basis(future_price, perp_price):
    """(F - perp) / perp; positive in contango."""
    core.refuse_first((perp_price, perp_price <= 0, "perpetual price must be > 0, got {}"))
    return (future_price - perp_price) / perp_price


def implied_rate_from_basis(basis, tenor_years, convention: core.RateConvention = core.RateConvention()):
    """Annualized rate implied by a basis over a tenor (continuous by default)."""
    return convention.rate_from_simple_return(basis, tenor_years)


def basis_rows(quotes, convention: core.RateConvention = core.RateConvention()):
    """Basis and implied annualized rate per quote of a (timestamp, perp, future, expiry) table.

    Returns a table of time, basis, tenor_years and implied_rate.
    """
    basis = futures_basis(quotes["future"], quotes["perp"])
    tenor = convention.year_fraction(quotes["expiry"] - quotes["timestamp"])
    return core.Columns({
        "time": quotes["timestamp"],
        "basis": basis,
        "tenor_years": tenor,
        "implied_rate": implied_rate_from_basis(basis, tenor, convention),
    })


# -- CSV ingestion -----------------------------------------------------------


MARK_INDEX_CSV = {"timestamp": core.TIMESTAMP, "mark": core.NUMBER, "index": core.NUMBER}
BASIS_CSV = {"timestamp": core.TIMESTAMP, "perp": core.NUMBER, "future": core.NUMBER, "expiry": core.TIMESTAMP}


def _later_quotes(columns):
    """Each quote after the one before it, at positive prices."""
    t = columns["timestamp"]
    early = np.zeros(len(t), dtype=bool)
    early[1:] = t[1:] <= t[:-1]
    broken = core.first_broken([
        (early, "quote time {now} is not after the previous quote's {prev}"),
        ((columns["mark"] <= 0) | (columns["index"] <= 0), "mark and index prices must be > 0"),
    ])
    if broken:
        row, message = broken
        return row, message.format(now=t[row].item(), prev=t[row - 1].item())
    return None


def load_mark_index_csv(path):
    """Read `timestamp,mark,index` CSV as a table of those columns.

    Each row is one settlement, so timestamps must strictly increase, and
    both prices must be positive; the first row that breaks a rule is named
    by its line.
    """
    return core.read_csv_rows(path, MARK_INDEX_CSV, _later_quotes)


def _expiry_after_quote(columns):
    """Each expiry after its quote, at positive prices."""
    return core.first_broken([
        (columns["expiry"] <= columns["timestamp"], "expiry must be after the quote time"),
        ((columns["perp"] <= 0) | (columns["future"] <= 0), "perp and future prices must be > 0"),
    ])


def load_basis_csv(path):
    """Read `timestamp,perp,future,expiry` CSV as a table of those columns, times in epoch seconds.

    The first row whose expiry is not after its quote time, or whose price
    is not positive, is named by its line.
    """
    return core.read_csv_rows(path, BASIS_CSV, _expiry_after_quote)

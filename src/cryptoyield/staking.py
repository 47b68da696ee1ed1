"""Proof-of-stake validator returns, slashing and cross-validator bands.

The annualized staking return between two daily balance snapshots (taken at
00:00 UTC) is 365 * (V_t / V_{t-1} - 1). A validator is eligible for the
(t-1, t] window only if it stayed continuously Active and never dipped below
the 32 token minimum on any available snapshot in the window; missing state
coverage counts as ineligible, not Active.

Coordinated failure is penalized jointly: slashing costs 3x the failing
network percentage, so a third of the network can lose everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone

from . import core
from .core import SECONDS_PER_DAY
from .errors import (
    DomainError,
    EligibilityError,
    EmptyCohortError,
    InputError,
    MissingDataError,
)

MIN_VALIDATOR_BALANCE = 32.0
DAYS_PER_YEAR = 365.0


@dataclass(frozen=True)
class StateInterval:
    start: float
    end: float
    state: str

    def covers(self, t0: float, t1: float) -> bool:
        return self.start <= t0 and t1 <= self.end


@dataclass(frozen=True)
class ValidatorRecord:
    """Balance snapshots plus declared state intervals for one validator."""

    id: str
    balances: tuple
    state_intervals: tuple = ()

    def __post_init__(self):
        obs = tuple((float(t), float(b)) for t, b in self.balances)
        for i, (t, b) in enumerate(obs):
            if b < 0:
                raise DomainError(f"validator {self.id}: balance at index {i} is negative")
            if i > 0 and t <= obs[i - 1][0]:
                raise DomainError(f"validator {self.id}: timestamps must be strictly increasing")
        object.__setattr__(self, "balances", obs)
        object.__setattr__(
            self,
            "state_intervals",
            tuple(
                iv if isinstance(iv, StateInterval) else StateInterval(*iv)
                for iv in self.state_intervals
            ),
        )

    def balance_at(self, t: float):
        for ts, b in self.balances:
            if ts == t:
                return b
        return None

    def snapshots_between(self, t0: float, t1: float):
        return [(ts, b) for ts, b in self.balances if t0 <= ts <= t1]

    def continuously_active(self, t0: float, t1: float) -> bool:
        return any(iv.state == "Active" and iv.covers(t0, t1) for iv in self.state_intervals)


@dataclass(frozen=True)
class StakingReturn:
    """Annualized return earned over the 24h window ending on `day`."""

    date: date
    annualized_return: float


def midnight_utc(day: date) -> float:
    return datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp()


def daily_return(validator: ValidatorRecord, day: date) -> StakingReturn:
    """365 * (V_t/V_{t-1} - 1) for an eligible validator; may be negative."""
    t1 = midnight_utc(day)
    t0 = t1 - SECONDS_PER_DAY
    if not validator.continuously_active(t0, t1):
        raise EligibilityError(
            f"validator {validator.id} not continuously Active over {day - timedelta(days=1)}..{day}"
        )
    window = validator.snapshots_between(t0, t1)
    if any(b < MIN_VALIDATOR_BALANCE for _, b in window):
        raise EligibilityError(
            f"validator {validator.id} dipped below {MIN_VALIDATOR_BALANCE} in the window ending {day}"
        )
    v0 = validator.balance_at(t0)
    v1 = validator.balance_at(t1)
    if v0 is None or v1 is None:
        raise MissingDataError(
            f"validator {validator.id} lacks a balance snapshot at 00:00 UTC on "
            f"{day - timedelta(days=1)} or {day}"
        )
    rate = DAYS_PER_YEAR * (v1 / v0 - 1.0)
    return StakingReturn(date=day, annualized_return=rate)


def slash_cost(network_fraction_pct: float) -> float:
    """Loss percentage for a joint failure of network_fraction_pct of validators.

    3x the failing percentage, capped at total loss.
    """
    if not 0.0 <= network_fraction_pct <= 100.0:
        raise DomainError(f"network fraction must be in [0, 100], got {network_fraction_pct}")
    return min(3.0 * network_fraction_pct, 100.0)


def percentile_bands(validators, day: date, percentiles) -> dict:
    """Per-percentile annualized return across the eligible cohort for a day.

    Ineligible validators and ones with missing snapshots are skipped; an
    empty cohort is an error.
    """
    returns = []
    for validator in validators:
        try:
            returns.append(daily_return(validator, day).annualized_return)
        except (EligibilityError, MissingDataError):
            continue
    if not returns:
        raise EmptyCohortError(f"no eligible validators on {day}")
    return {p: core.percentile(returns, p) for p in percentiles}


def available_days(validators) -> list:
    """Days with at least one consecutive-midnight snapshot pair."""
    days = set()
    for validator in validators:
        stamps = {ts for ts, _ in validator.balances}
        for ts in stamps:
            if ts - SECONDS_PER_DAY in stamps:
                days.add(datetime.fromtimestamp(ts, tz=timezone.utc).date())
    return sorted(days)


def load_validators(path) -> dict:
    """Read `validator_id,timestamp,balance,state` daily-snapshot CSV.

    Consecutive snapshots with the same state merge into one state interval.
    Returns {validator_id: ValidatorRecord}.
    """
    rows = core.read_csv_rows(path, ["validator_id", "timestamp", "balance", "state"])
    per_validator = {}
    for lineno, row in rows:
        try:
            ts = core.parse_timestamp(row["timestamp"])
            balance = core.cell_number(row, "balance")
        except (ValueError, DomainError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        per_validator.setdefault(row["validator_id"], []).append((ts, balance, row["state"]))

    records = {}
    for vid, entries in per_validator.items():
        entries.sort(key=lambda e: e[0])
        intervals = []
        for ts, _, state in entries:
            if intervals and intervals[-1][2] == state:
                intervals[-1][1] = ts
            else:
                intervals.append([ts, ts, state])
        try:
            records[vid] = ValidatorRecord(
                id=vid,
                balances=tuple((ts, b) for ts, b, _ in entries),
                state_intervals=tuple(StateInterval(a, b, s) for a, b, s in intervals),
            )
        except DomainError as exc:
            raise InputError(f"{path}: {exc}") from exc
    return records

"""Proof-of-stake validator returns, slashing and cross-validator bands.

The annualized staking return between two daily balance snapshots (taken at
00:00 UTC) is 365 * (V_t / V_{t-1} - 1). A validator is eligible for the
(t-1, t] window only if it stayed continuously Active and never dipped below
the 32 token minimum on any available snapshot in the window; missing state
coverage counts as ineligible, not Active.

`window_returns` is the one place these rules live. It takes a validator's
snapshots, which `ValidatorRecord` keeps as one read-only array, and judges
every requested window in one pass: binary search for the snapshots inside
each window, a prefix count of sub-minimum snapshots, and one coverage mask
per Active interval. `daily_return` asks it about one window; `daily_bands`
asks it about every day for every validator, sorts the resulting validators
x days matrix of rates once (ineligible cells are NaN and sort last), and
evaluates numpy's `linear` percentile for every day at once, with the bits
of one `np.percentile` call per day. A year of bands costs one pass per
validator and one sort rather than one scan per validator-day.

Coordinated failure is penalized jointly: slashing costs 3x the failing
network percentage, so a third of the network can lose everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone

import numpy as np

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


@dataclass(frozen=True)
class StateInterval:
    start: float
    end: float
    state: str


@dataclass(frozen=True)
class ValidatorRecord:
    """Balance snapshots plus declared state intervals for one validator.

    `balances` is stored as a read-only float array of (timestamp, balance)
    rows, one per snapshot; any sequence of pairs is accepted. Records
    compare by value.
    """

    id: str
    balances: np.ndarray
    state_intervals: tuple = ()

    def __post_init__(self):
        obs = np.array(self.balances, dtype=float).reshape(len(self.balances), 2)
        t, b = obs.T
        bad = np.flatnonzero((b < 0) | np.concatenate(([False], ~(t[1:] > t[:-1]))))
        if bad.size:
            i = int(bad[0])
            problem = f"balance at index {i} is negative" if b[i] < 0 else "timestamps must be strictly increasing"
            raise DomainError(f"validator {self.id}: {problem}")
        obs.flags.writeable = False
        object.__setattr__(self, "balances", obs)
        object.__setattr__(
            self,
            "state_intervals",
            tuple(
                iv if isinstance(iv, StateInterval) else StateInterval(*iv)
                for iv in self.state_intervals
            ),
        )

    def __eq__(self, other):
        if not isinstance(other, ValidatorRecord):
            return NotImplemented
        return (
            (self.id, self.state_intervals) == (other.id, other.state_intervals)
            and np.array_equal(self.balances, other.balances)
        )

    def __hash__(self):
        # -0.0 == 0.0, so the snapshot bytes would break hash/eq agreement.
        return hash((self.id, self.balances.shape, self.state_intervals))


@dataclass(frozen=True)
class StakingReturn:
    """Annualized return earned over the 24h window ending on `day`."""

    date: date
    annualized_return: float


def midnight_utc(day: date) -> float:
    return datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp()


# Outcome of one window, in the order the rules are checked: the first rule a
# window breaks is its reason.
ELIGIBLE, NOT_ACTIVE, BELOW_MINIMUM, MISSING_SNAPSHOT = range(4)


def window_returns(validator: ValidatorRecord, t1s):
    """(reasons, rates) for the 24h windows ending at each midnight in `t1s`.

    A window [t0, t1] is NOT_ACTIVE unless one Active interval covers all of
    it, BELOW_MINIMUM if any snapshot inside it is under the 32 token
    minimum, and MISSING_SNAPSHOT without snapshots at both t0 and t1. An
    ELIGIBLE window's rate is 365 * (V_t1 / V_t0 - 1); every other rate is NaN.
    """
    t1 = np.asarray(t1s, dtype=float)
    t0 = t1 - SECONDS_PER_DAY
    active = np.zeros(t1.shape, dtype=bool)
    for iv in validator.state_intervals:
        if iv.state == "Active":
            active |= (iv.start <= t0) & (t1 <= iv.end)
    # A NaN sentinel past the last snapshot matches no midnight, so an index
    # one past the end (or -1) reads as a missing snapshot.
    times, balances = np.vstack((validator.balances, (np.nan, np.nan))).T
    first = np.searchsorted(times[:-1], t0, "left")  # first snapshot at or after t0
    last = np.searchsorted(times[:-1], t1, "right") - 1  # last snapshot at or before t1
    below = np.concatenate(([0], np.cumsum(balances[:-1] < MIN_VALIDATOR_BALANCE)))
    reasons = np.select(
        [~active, below[last + 1] > below[first], (times[first] != t0) | (times[last] != t1)],
        [NOT_ACTIVE, BELOW_MINIMUM, MISSING_SNAPSHOT],
        ELIGIBLE,
    )
    rates = np.full(t1.shape, np.nan)
    ok = reasons == ELIGIBLE
    rates[ok] = core.RateConvention().days_per_year * (balances[last[ok]] / balances[first[ok]] - 1.0)
    return reasons, rates


def daily_return(validator: ValidatorRecord, day: date) -> StakingReturn:
    """365 * (V_t/V_{t-1} - 1) for an eligible validator; may be negative."""
    (reason,), (rate,) = window_returns(validator, [midnight_utc(day)])
    if reason == NOT_ACTIVE:
        raise EligibilityError(
            f"validator {validator.id} not continuously Active over {day - timedelta(days=1)}..{day}"
        )
    if reason == BELOW_MINIMUM:
        raise EligibilityError(
            f"validator {validator.id} dipped below {MIN_VALIDATOR_BALANCE} in the window ending {day}"
        )
    if reason == MISSING_SNAPSHOT:
        raise MissingDataError(
            f"validator {validator.id} lacks a balance snapshot at 00:00 UTC on "
            f"{day - timedelta(days=1)} or {day}"
        )
    return StakingReturn(date=day, annualized_return=float(rate))


def slash_cost(network_fraction_pct: float) -> float:
    """Loss percentage for a joint failure of network_fraction_pct of validators.

    3x the failing percentage, capped at total loss.
    """
    if not 0.0 <= network_fraction_pct <= 100.0:
        raise DomainError(f"network fraction must be in [0, 100], got {network_fraction_pct}")
    return min(3.0 * network_fraction_pct, 100.0)


def daily_bands(validators, days, percentiles) -> list:
    """Per-day {percentile: annualized return} across each day's eligible cohort.

    One entry per day in `days`: None when no validator is eligible that day.
    A percentile level outside [0, 100] is a DomainError, whether or not any
    day has a cohort. Each level is numpy's `linear` percentile of the day's eligible
    rates, with the bits of calling `np.percentile` on them.
    """
    bad = [p for p in percentiles if not 0.0 <= p <= 100.0]
    if bad:
        raise DomainError(f"percentile level must be in [0, 100], got {bad[0]}")
    validators = list(validators)
    t1s = [midnight_utc(d) for d in days]
    rates = np.empty((len(validators), len(t1s)))
    cohort = np.zeros(len(t1s), dtype=np.intp)
    for row, validator in enumerate(validators):
        reasons, rates[row] = window_returns(validator, t1s)
        cohort += reasons == ELIGIBLE
    bands = [None] * len(t1s)
    cols = np.flatnonzero(cohort)
    if not cols.size:
        return bands
    # Ineligible rates are NaN and eligible ones never are (both balances are
    # at least the minimum), so after one sort, which puts NaN last, each
    # day's first cohort[j] rows are its eligible rates in order.
    rates.sort(axis=0)
    n = cohort[cols]
    # np.percentile's `linear` method, every day at once: the same virtual
    # index, neighbours (its out-of-range index picks the same last value)
    # and the two-sided lerp of numpy's _lerp.
    virtual = (n - 1) * np.true_divide(percentiles, 100)[:, None]
    lo = np.floor(virtual).astype(np.intp)
    gamma = virtual - lo
    below = rates[lo, cols]
    above = rates[np.minimum(lo + 1, n - 1), cols]
    step = above - below
    values = below + step * gamma
    np.subtract(above, step * (1 - gamma), out=values, where=gamma >= 0.5)
    for col, levels in zip(cols.tolist(), values.T.tolist()):
        bands[col] = dict(zip(percentiles, levels))
    return bands


def percentile_bands(validators, day: date, percentiles) -> dict:
    """Per-percentile annualized return across the eligible cohort for a day.

    Ineligible validators and ones with missing snapshots are skipped; an
    empty cohort is an error.
    """
    (bands,) = daily_bands(validators, [day], percentiles)
    if bands is None:
        raise EmptyCohortError(f"no eligible validators on {day}")
    return bands


def available_days(validators) -> list:
    """Days with at least one consecutive-midnight snapshot pair."""
    ends = [np.zeros(0)]
    for validator in validators:
        t = validator.balances[:, 0]
        # t increases, so each t - 1 day sorts at or before its own row: in range.
        prev = t - SECONDS_PER_DAY
        ends.append(t[t[np.searchsorted(t, prev)] == prev])
    # Dates of the distinct pair ends only; fromtimestamp rounds to the microsecond.
    days = {datetime.fromtimestamp(ts, tz=timezone.utc).date() for ts in np.unique(np.concatenate(ends)).tolist()}
    return sorted(days)


VALIDATOR_CSV = {"validator_id": core.TEXT, "timestamp": core.TIMESTAMP, "balance": core.NUMBER, "state": core.TEXT}


def _codes(texts):
    """(distinct texts in order of first appearance, each text's index among them)."""
    rank = {text: k for k, text in enumerate(dict.fromkeys(texts))}
    return list(rank), np.fromiter(map(rank.__getitem__, texts), np.intp, len(texts))


def load_validators(path) -> dict:
    """Read `validator_id,timestamp,balance,state` daily-snapshot CSV.

    Rows group per validator in order of first appearance and sort by time,
    ties in file order. Consecutive snapshots with the same state merge into
    one state interval. Returns {validator_id: ValidatorRecord}; the first
    validator that ValidatorRecord refuses is named.
    """
    columns = core.read_csv_rows(path, VALIDATOR_CSV)
    ids, vid = _codes(columns["validator_id"])
    states, state = _codes(columns["state"])
    order = np.lexsort((columns["timestamp"], vid))
    vid, state = vid[order], state[order]
    snapshots = np.column_stack((columns["timestamp"], columns["balance"]))[order]
    t = snapshots[:, 0]
    first = np.diff(vid, prepend=-1) != 0  # each validator's first row
    # Row where each validator, and each of its state runs, starts; then the end.
    starts = np.append(np.flatnonzero(first), len(t))
    runs = np.append(np.flatnonzero(first | (np.diff(state, prepend=-1) != 0)), len(t))
    intervals = list(map(StateInterval, t[runs[:-1]].tolist(), t[runs[1:] - 1].tolist(),
                         [states[k] for k in state[runs[:-1]].tolist()]))
    run_starts = np.searchsorted(runs, starts).tolist()
    starts = starts.tolist()
    records = {}
    for k, name in enumerate(ids):
        try:
            records[name] = ValidatorRecord(
                id=name,
                balances=snapshots[starts[k] : starts[k + 1]],
                state_intervals=tuple(intervals[run_starts[k] : run_starts[k + 1]]),
            )
        except DomainError as exc:
            raise InputError(f"{path}: {exc}") from exc
    return records
